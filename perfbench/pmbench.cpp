/**
 * @file
 * `pmbench`: the benchmark's helper program; run.py calls it.
 *
 *   pmbench gen    --plan P --workload W --seed S --dir D
 *       writes D/<program>.qasm for every program the workload needs
 *       and D/manifest.json listing them in CLI input order
 *   pmbench check  --plan P --workload W --seed S --dir D
 *       checks D/<program>.isa.json for each distinct program against
 *       the generated circuit; prints one JSON row per program
 *   pmbench mutation-test --plan P --workload W --seed S --dir D
 *                  --program NAME
 *       feeds the checker mutated copies of D/NAME.isa.json; exits 1
 *       unless every mutation is rejected
 *   pmbench trace  --plan P --workload W --seed S --dir D --seconds T
 *                  [--warm-cache C] [--trace-out F]
 *       the in-process traced run; prints the per-layer metrics as JSON
 *
 * Programs are regenerated from (workload, seed) in every mode, so the
 * checker's ground truth never comes from the files the CLI read.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "compiler/strategies.hpp"
#include "isa_check.hpp"
#include "json_value.hpp"
#include "programs.hpp"
#include "qasm/writer.hpp"
#include "traced_run.hpp"

namespace {

using namespace perfbench;
namespace fs = std::filesystem;

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path.string());
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

void
writeFile(const fs::path &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    out << text;
    if (!out.flush())
        throw std::runtime_error("cannot write " + path.string());
}

std::vector<std::string>
stringList(const JsonValue &value)
{
    std::vector<std::string> out;
    for (const JsonValue &item : value.items())
        out.push_back(item.asString());
    return out;
}

/** A workload as the plan describes it. */
struct Workload
{
    /** CLI inputs in order, `@table2` expanded. */
    std::vector<std::string> inputs;
    /** Programs the set-up stores in the warm cache, if any. */
    std::vector<std::string> warm_inputs;
    std::vector<std::string> cli_args;
};

Workload
loadWorkload(const std::string &plan_path, const std::string &name)
{
    const JsonValue plan = parseJson(readFile(plan_path));
    const JsonValue &entry = plan.at("workloads").at(name);
    Workload workload;
    workload.inputs = expandProgramList(stringList(entry.at("programs")));
    if (entry.object.count("warm_programs"))
        workload.warm_inputs =
            expandProgramList(stringList(entry.at("warm_programs")));
    workload.cli_args = stringList(entry.at("cli_args"));
    return workload;
}

std::string
jsonList(const std::vector<std::string> &items)
{
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i)
        out += (i > 0 ? ", " : "") + quoteJson(items[i]);
    return out + "]";
}

std::string
number(double value)
{
    char buffer[40];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

int
generate(const Workload &workload, std::uint64_t seed, const fs::path &dir)
{
    fs::create_directories(dir);
    std::vector<std::string> all = workload.inputs;
    all.insert(all.end(), workload.warm_inputs.begin(),
               workload.warm_inputs.end());
    for (const std::string &name : distinctNames(all))
        writeFile(dir / (name + ".qasm"),
                  powermove::qasm::writeQasm(buildProgram(name, seed)));
    writeFile(dir / "manifest.json",
              "{\"inputs\": " + jsonList(workload.inputs) +
                  ",\n \"distinct\": " +
                  jsonList(distinctNames(workload.inputs)) +
                  ",\n \"warm_inputs\": " + jsonList(workload.warm_inputs) +
                  "}\n");
    return 0;
}

int
check(const Workload &workload, std::uint64_t seed, const fs::path &dir)
{
    std::string out = "{\"programs\": [";
    bool first = true;
    for (const std::string &name : distinctNames(workload.inputs)) {
        ProgramCheck result;
        const fs::path path = dir / (name + ".isa.json");
        if (!fs::exists(path))
            result.error = "missing " + path.filename().string();
        else
            result = checkIsaJson(readFile(path), buildProgram(name, seed));
        out += std::string(first ? "" : ",") + "\n  {\"name\": " +
               quoteJson(name) + ", \"ok\": " + (result.ok ? "true" : "false") +
               ", \"error\": " + quoteJson(result.error) +
               ", \"fidelity\": " + number(result.fidelity) +
               ", \"t_exe_us\": " + number(result.t_exe_us) +
               ", \"transfers\": " + std::to_string(result.transfers) + "}";
        first = false;
    }
    std::printf("%s\n]}\n", out.c_str());
    return 0;
}

int
mutationTest(std::uint64_t seed, const fs::path &dir, const std::string &name)
{
    const std::string failure =
        runMutationTest(parseJson(readFile(dir / (name + ".isa.json"))),
                        buildProgram(name, seed));
    if (!failure.empty()) {
        std::fprintf(stderr, "pmbench: mutation test on %s: %s\n",
                     name.c_str(), failure.c_str());
        return 1;
    }
    std::printf("mutation test on %s: all 3 mutations rejected\n",
                name.c_str());
    return 0;
}

int
trace(const Workload &workload, std::uint64_t seed, const fs::path &dir,
      double seconds, const std::string &warm_cache,
      const std::string &trace_out)
{
    TracedRunOptions options;
    options.inputs = workload.inputs;
    options.qasm_dir = dir.string();
    options.work_dir = dir.string();
    options.warm_cache_dir = warm_cache;
    options.seed = seed;
    options.seconds = seconds;
    options.trace_out = trace_out;
    // The subset of CLI flags the plan's workloads use.
    const auto &args = workload.cli_args;
    for (std::size_t i = 0; i < args.size(); ++i) {
        std::string arg = args[i], value;
        if (const auto eq = arg.find('='); eq != std::string::npos) {
            value = arg.substr(eq + 1);
            arg = arg.substr(0, eq);
        } else if (arg != "--jobs-async" && i + 1 < args.size()) {
            value = args[++i];
        }
        if (arg == "--jobs") {
            options.jobs = std::stoul(value);
        } else if (arg == "--routing") {
            if (!powermove::parseRoutingStrategy(value,
                                                 options.compiler.routing))
                throw std::invalid_argument("unknown routing '" + value + "'");
        } else if (arg != "--jobs-async") {
            throw std::invalid_argument("traced run does not model " + arg);
        }
    }

    const TracedRunResult result = runTraced(options);
    std::string out = "{\"rounds\": " + std::to_string(result.rounds) +
                      ", \"attempted\": " + std::to_string(result.attempted) +
                      ", \"failed\": " + std::to_string(result.failed) +
                      ",\n \"metrics\": {";
    bool first = true;
    for (const auto &[key, value] : result.metrics) {
        out += std::string(first ? "" : ",") + "\n  " + quoteJson(key) +
               ": " + number(value);
        first = false;
    }
    out += "},\n \"programs\": [";
    first = true;
    for (const TracedProgramRow &row : result.rows) {
        out += std::string(first ? "" : ",") + "\n  {\"name\": " +
               quoteJson(row.name) +
               ", \"ok\": " + (row.ok ? "true" : "false") +
               ", \"error\": " + quoteJson(row.error) +
               ", \"fidelity\": " + number(row.fidelity) +
               ", \"t_exe_us\": " + number(row.t_exe_us) +
               ", \"transfers\": " + std::to_string(row.transfers) +
               ", \"wall_ms\": " + number(row.wall_ms) +
               ", \"span_coverage\": " + number(row.span_coverage) + "}";
        first = false;
    }
    std::printf("%s\n]}\n", out.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr, "usage: pmbench gen|check|mutation-test|trace "
                             "--plan P --workload W --seed S --dir D ...\n");
        return 2;
    }
    const std::string mode = argv[1];
    std::map<std::string, std::string> flags;
    for (int i = 2; i + 1 < argc; i += 2)
        flags[argv[i]] = argv[i + 1];
    const auto flag = [&](const std::string &key) -> std::string {
        const auto it = flags.find(key);
        if (it == flags.end())
            throw std::invalid_argument("missing " + key);
        return it->second;
    };
    const auto optional = [&](const std::string &key) {
        const auto it = flags.find(key);
        return it == flags.end() ? std::string() : it->second;
    };

    try {
        const Workload workload =
            loadWorkload(flag("--plan"), flag("--workload"));
        const std::uint64_t seed = std::stoull(flag("--seed"));
        const fs::path dir = flag("--dir");
        if (mode == "gen")
            return generate(workload, seed, dir);
        if (mode == "check")
            return check(workload, seed, dir);
        if (mode == "mutation-test")
            return mutationTest(seed, dir, flag("--program"));
        if (mode == "trace")
            return trace(workload, seed, dir, std::stod(flag("--seconds")),
                         optional("--warm-cache"), optional("--trace-out"));
        std::fprintf(stderr, "pmbench: unknown mode '%s'\n", mode.c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "pmbench: %s\n", e.what());
    }
    return 2;
}
