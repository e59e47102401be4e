/**
 * @file
 * The in-process traced run that yields the per-layer numbers.
 *
 * It replays one workload round the way the `powermove` CLI handles it
 * (read, lex, parse, lower, fingerprint, cache tiers, compile, evaluate,
 * validate, serialize, write), one program at a time, calling each
 * module's public functions and recording a span around every call.
 * A second phase pushes the round's jobs through a JobService sized
 * like the CLI's, for queue-wait and memory-hit times. Spans are kept
 * in memory; those of the first rounds are written once, at the end,
 * as Chrome trace JSON through obs::TraceCollector.
 */

#ifndef PERFBENCH_TRACED_RUN_HPP
#define PERFBENCH_TRACED_RUN_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "compiler/options.hpp"

namespace perfbench {

struct TracedRunOptions
{
    /** Program names in CLI input order, duplicates included. */
    std::vector<std::string> inputs;
    /** Directory holding `<name>.qasm`. */
    std::string qasm_dir;
    /** Scratch directory for ISA JSON output and the round's disk cache. */
    std::string work_dir;
    /**
     * Warm cache copied fresh for every round. Empty means the round's
     * disk cache starts empty and the workload's CLI call has no disk
     * tier, so the service phase runs without one.
     */
    std::string warm_cache_dir;
    std::uint64_t seed = 0;
    /** Minimum measuring time; at least one round always runs. */
    double seconds = 1.0;
    /** Worker threads the workload gives the CLI (--jobs). */
    std::size_t jobs = 1;
    powermove::CompilerOptions compiler;
    /** Chrome trace destination; empty skips the file. */
    std::string trace_out;
};

/** One output row per distinct program. */
struct TracedProgramRow
{
    std::string name;
    bool ok = false;
    std::string error;
    double fidelity = 0.0;
    double t_exe_us = 0.0;
    std::size_t transfers = 0;
    /** Median traced wall time of the program, first occurrence. */
    double wall_ms = 0.0;
    /** Share of that wall time covered by layer spans. */
    double span_coverage = 0.0;
};

struct TracedRunResult
{
    std::size_t rounds = 0;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    /** Per-layer metric name -> median over rounds. */
    std::map<std::string, double> metrics;
    std::vector<TracedProgramRow> rows;
};

TracedRunResult runTraced(const TracedRunOptions &options);

} // namespace perfbench

#endif // PERFBENCH_TRACED_RUN_HPP
