/**
 * @file
 * Per-pass timing microbenchmark across the Table 2 suite.
 *
 * Compiles every benchmark with the default (with-storage) and the
 * storage-free configuration, aggregating the PassProfiles that every
 * pipeline compile records, and prints the per-pass breakdown: which of
 * the six passes the compile time actually goes to, per benchmark family
 * and over the whole suite.
 *
 * Standalone main (no Google Benchmark dependency) so the breakdown is
 * available in every build.
 */

#include <cstdio>
#include <map>
#include <string>

#include "compiler/powermove.hpp"
#include "harness.hpp"
#include "report/summary.hpp"
#include "report/table.hpp"
#include "workloads/suite.hpp"

int
main()
{
    using namespace powermove;

    constexpr int kRepeats = 3; // amortize cold caches, keep the minimum run

    std::printf("=== Per-pass compile-time breakdown (Table 2 suite) ===\n\n");

    PassProfiles suite_totals;
    std::map<std::string, PassProfiles> family_totals;
    TextTable per_bench({"Benchmark", "Config", "Compile (us)", "Hottest pass"});

    for (const BenchmarkSpec &spec : table2Suite()) {
        const Machine machine(spec.machine_config);
        const Circuit circuit = spec.build();
        for (const bool use_storage : {true, false}) {
            CompilerOptions options;
            options.use_storage = use_storage;
            const PowerMoveCompiler compiler(machine, options);

            const CompileResult best = bench::compileBestOf(
                [&] { return compiler.compile(circuit); }, kRepeats);

            const PassProfile *hottest = nullptr;
            for (const PassProfile &profile : best.pass_profiles) {
                if (hottest == nullptr ||
                    profile.wall_time.micros() > hottest->wall_time.micros())
                    hottest = &profile;
            }
            char compile_us[32];
            std::snprintf(compile_us, sizeof(compile_us), "%.1f",
                          best.compile_time.micros());
            per_bench.addRow(
                {spec.name, use_storage ? "with-storage" : "non-storage",
                 compile_us,
                 hottest != nullptr ? std::string(passName(hottest->pass))
                                    : "-"});

            suite_totals += best.pass_profiles;
            family_totals[spec.family] += best.pass_profiles;
        }
    }

    std::printf("%s\n", per_bench.toString().c_str());

    for (const auto &[family, totals] : family_totals) {
        std::printf("--- %s ---\n%s\n", family.c_str(),
                    formatPassProfiles(totals).c_str());
    }

    std::printf("=== Suite totals (%d-repeat minimum per benchmark) ===\n%s",
                kRepeats, formatPassProfiles(suite_totals).c_str());
    return 0;
}
