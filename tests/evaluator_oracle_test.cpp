/** @file Differential test of the Eq. (1) scorer against its oracle.
 *
 * The production scorer runs inside the validator's replay and charges
 * idle time once per compute-zone residency; the reference evaluator
 * (tests/reference_evaluator.hpp) charges every qubit at every
 * instruction. Over the Table 2 suite, QFT-100, BV-1000 and
 * QAOA-regular3-200, with and without storage, under the continuous,
 * windowed and reuse routers (the latter with every residency policy),
 * and over Enola's schedules of the Table 2 rows, both must agree: every
 * count, the execution time and the 1Q, 2Q, excitation and transfer
 * factors bit for bit; the idle sum, the decoherence factor and the
 * fidelity within kRelativeTolerance, since summing idle time per
 * residency rounds differently from summing it per instruction.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "compiler/powermove.hpp"
#include "enola/enola.hpp"
#include "fidelity/evaluator.hpp"
#include "reference_evaluator.hpp"
#include "workloads/suite.hpp"

namespace powermove {
namespace {

/** Largest relative difference allowed in the idle-derived values. */
constexpr double kRelativeTolerance = 1e-9;

double
relativeDifference(double a, double b)
{
    const double scale = std::max(std::abs(a), std::abs(b));
    return scale == 0.0 ? 0.0 : std::abs(a - b) / scale;
}

/** Worst relative difference seen per idle-derived value. */
struct Drift
{
    double total_idle = 0.0;
    double decoherence = 0.0;
    double fidelity = 0.0;
    std::size_t schedules = 0;
};

void
expectAgrees(const MachineSchedule &schedule, Drift &drift)
{
    const FidelityBreakdown got = evaluateSchedule(schedule);
    const FidelityBreakdown want = reference::evaluateSchedule(schedule);

    EXPECT_EQ(got.one_q_gates, want.one_q_gates);
    EXPECT_EQ(got.cz_gates, want.cz_gates);
    EXPECT_EQ(got.excitation_exposures, want.excitation_exposures);
    EXPECT_EQ(got.transfers, want.transfers);
    EXPECT_EQ(got.pulses, want.pulses);
    EXPECT_EQ(got.exec_time.micros(), want.exec_time.micros());
    EXPECT_EQ(got.one_q_factor, want.one_q_factor);
    EXPECT_EQ(got.two_q_factor, want.two_q_factor);
    EXPECT_EQ(got.excitation_factor, want.excitation_factor);
    EXPECT_EQ(got.transfer_factor, want.transfer_factor);

    const double idle = relativeDifference(got.total_idle.micros(),
                                           want.total_idle.micros());
    const double decoherence = relativeDifference(got.decoherence_factor,
                                                  want.decoherence_factor);
    const double fidelity =
        relativeDifference(got.fidelity(true), want.fidelity(true));
    EXPECT_LE(idle, kRelativeTolerance);
    EXPECT_LE(decoherence, kRelativeTolerance);
    EXPECT_LE(fidelity, kRelativeTolerance);
    drift.total_idle = std::max(drift.total_idle, idle);
    drift.decoherence = std::max(drift.decoherence, decoherence);
    drift.fidelity = std::max(drift.fidelity, fidelity);
    ++drift.schedules;
}

void
report(const char *label, const Drift &drift)
{
    std::printf("%s: %zu schedules, largest relative difference: "
                "total_idle %.3g, decoherence %.3g, fidelity %.3g\n",
                label, drift.schedules, drift.total_idle, drift.decoherence,
                drift.fidelity);
}

struct RoutingConfig
{
    const char *name;
    RoutingStrategy routing;
    ResidencyPolicy residency;
};

constexpr RoutingConfig kRoutings[] = {
    {"continuous", RoutingStrategy::Continuous, ResidencyPolicy::Lookahead},
    {"windowed", RoutingStrategy::Windowed, ResidencyPolicy::Lookahead},
    {"reuse/lookahead", RoutingStrategy::Reuse, ResidencyPolicy::Lookahead},
    {"reuse/lti", RoutingStrategy::Reuse, ResidencyPolicy::Lti},
    {"reuse/fidelity", RoutingStrategy::Reuse, ResidencyPolicy::Fidelity},
};

TEST(EvaluatorOracleTest, AgreesOnPowerMoveSchedules)
{
    std::vector<BenchmarkSpec> specs = table2Suite();
    specs.push_back(makeFamilyInstance("QFT", 100));
    specs.push_back(makeFamilyInstance("BV", 1000));
    specs.push_back(makeFamilyInstance("QAOA-regular3", 200));
    Drift drift;
    for (const auto &spec : specs) {
        const Machine machine(spec.machine_config);
        const Circuit circuit = spec.build();
        for (const bool use_storage : {true, false}) {
            for (const auto &config : kRoutings) {
                SCOPED_TRACE(spec.name +
                             (use_storage ? "" : " without storage") + " " +
                             config.name);
                CompilerOptions options;
                options.use_storage = use_storage;
                options.routing = config.routing;
                options.residency = config.residency;
                const auto result =
                    PowerMoveCompiler(machine, options).compile(circuit);
                expectAgrees(result.schedule, drift);
            }
        }
    }
    report("PowerMove", drift);
    EXPECT_EQ(drift.schedules, specs.size() * 2 * std::size(kRoutings));
}

TEST(EvaluatorOracleTest, AgreesOnEnolaSchedules)
{
    Drift drift;
    for (const auto &spec : table2Suite()) {
        const Machine machine(spec.machine_config);
        const Circuit circuit = spec.build();
        for (const bool use_storage : {false, true}) {
            SCOPED_TRACE(spec.name + (use_storage ? " with storage" : ""));
            EnolaOptions options;
            options.use_storage = use_storage;
            const auto result =
                EnolaCompiler(machine, options).compile(circuit);
            expectAgrees(result.schedule, drift);
        }
    }
    report("Enola", drift);
    EXPECT_EQ(drift.schedules, 2 * table2Suite().size());
}

} // namespace
} // namespace powermove
