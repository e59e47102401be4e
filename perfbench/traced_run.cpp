#include "traced_run.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "arch/machine.hpp"
#include "compiler/powermove.hpp"
#include "fidelity/evaluator.hpp"
#include "isa/json.hpp"
#include "isa/validator.hpp"
#include "isa_check.hpp"
#include "obs/trace.hpp"
#include "programs.hpp"
#include "qasm/converter.hpp"
#include "qasm/lexer.hpp"
#include "qasm/parser.hpp"
#include "service/cache.hpp"
#include "service/disk_cache.hpp"
#include "service/fingerprint.hpp"
#include "service/job_service.hpp"

namespace perfbench {

using namespace powermove;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace {

/** Per-round totals, keyed by per-layer metric name. */
using Sums = std::map<std::string, double>;

/** Rounds written to the Chrome trace; later rounds only feed metrics. */
constexpr std::size_t kTracedRoundsWritten = 5;

double
microsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid]
                                   : 0.5 * (values[mid - 1] + values[mid]);
}

/** One recorded span: a call into a layer, or a program's whole pass. */
struct Span
{
    std::string name;
    /** Trace lane: 1 + the input's position, or 0 for the service phase. */
    std::uint64_t lane = 0;
    /** Index of the enclosing span, or -1. */
    int parent = -1;
    std::string program;
    std::size_t round = 0;
    Clock::time_point start;
    Clock::time_point end;
};

/** Append-only span store, written out once at the end. */
class SpanLog
{
  public:
    int
    open(std::string name, std::uint64_t lane, int parent,
         const std::string &program, std::size_t round)
    {
        spans_.push_back(Span{std::move(name), lane, parent, program, round,
                              Clock::now(), {}});
        return static_cast<int>(spans_.size() - 1);
    }

    /** Ends span @p index; returns its duration in microseconds. */
    double
    close(int index)
    {
        Span &span = spans_[static_cast<std::size_t>(index)];
        span.end = Clock::now();
        return microsBetween(span.start, span.end);
    }

    /** Summed duration of the spans opened after @p index. */
    double
    microsAfter(int index) const
    {
        double total = 0.0;
        for (std::size_t s = static_cast<std::size_t>(index) + 1;
             s < spans_.size(); ++s)
            total += microsBetween(spans_[s].start, spans_[s].end);
        return total;
    }

    /**
     * The spans of rounds before @p rounds as Chrome trace JSON,
     * through obs::TraceCollector.
     */
    std::string
    chromeTrace(std::size_t rounds)
    {
        for (const Span &span : spans_) {
            if (span.round >= rounds)
                continue;
            const std::string parent =
                span.parent < 0
                    ? std::string()
                    : spans_[static_cast<std::size_t>(span.parent)].name;
            collector_.addComplete(span.name,
                                   span.name.substr(0, span.name.find('.')),
                                   span.lane, span.start, span.end,
                                   {{"program", span.program},
                                    {"round", std::to_string(span.round)},
                                    {"parent", parent}});
        }
        return collector_.toChromeTraceJson();
    }

  private:
    /** Its epoch, fixed at construction, precedes every span. */
    obs::TraceCollector collector_;
    std::vector<Span> spans_;
};

/**
 * Runs calls inside child spans of one program's root span and adds
 * each duration to a per-layer metric.
 */
struct ProgramTracer
{
    SpanLog &log;
    Sums &sums;
    int root;
    std::uint64_t lane;
    const std::string &program;
    std::size_t round;
    /** Duration of the latest call, microseconds. */
    double last_us = 0.0;

    template <typename F>
    auto
    operator()(const char *span, const char *metric, F &&call)
    {
        const int index = log.open(span, lane, root, program, round);
        const auto finish = [&] {
            last_us = log.close(index);
            if (metric != nullptr)
                sums[metric] += last_us;
        };
        if constexpr (std::is_void_v<decltype(call())>) {
            call();
            finish();
        } else {
            auto value = call();
            finish();
            return value;
        }
    }
};

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
    out << text << '\n';
    out.flush();
    if (!out)
        throw std::runtime_error("cannot write " + path.string());
}

/** A fresh cache directory: a copy of @p warm, or empty. */
void
freshCacheDir(const fs::path &dir, const std::string &warm)
{
    fs::remove_all(dir);
    if (warm.empty())
        fs::create_directories(dir);
    else
        fs::copy(warm, dir, fs::copy_options::recursive);
}

service::CompileJob
jobFor(const Circuit &circuit, const CompilerOptions &options)
{
    return service::CompileJob{
        circuit, MachineConfig::forQubits(circuit.numQubits()), options};
}

/**
 * The CLI's path for one input, in its order: read, lex, parse, lower,
 * fingerprint, memory tier, disk tier, compile and evaluate on a miss,
 * validate, serialize, write. Returns the ISA JSON; @p lowered receives
 * the circuit for the service phase.
 */
std::string
traceProgram(ProgramTracer &trace, const TracedRunOptions &options,
             const fs::path &out_dir, service::CompileCache &memory,
             service::DiskCache &disk, Circuit &lowered, bool first_time)
{
    Sums &sums = trace.sums;
    const std::string &name = trace.program;
    const std::string source = trace("tools.read", "tools.read_us", [&] {
        return readFile(fs::path(options.qasm_dir) / (name + ".qasm"));
    });
    sums["bytes"] += static_cast<double>(source.size());
    const std::size_t tokens = trace("qasm.lex", "qasm.lex_us", [&] {
        return qasm::tokenize(source).size();
    });
    sums["qasm.tokens"] += static_cast<double>(tokens);
    const double lex_us = trace.last_us;
    // parseProgram() lexes internally: its self time is its span minus
    // the separately timed tokenize().
    const qasm::Program program = trace("qasm.parse", "qasm.parse_us", [&] {
        return qasm::parseProgram(source);
    });
    sums["qasm.parse_us"] -= std::min(lex_us, trace.last_us);
    lowered = trace("qasm.lower", "qasm.lower_us", [&] {
        return qasm::convertProgram(program, name).circuit;
    });

    const service::CompileJob job = jobFor(lowered, options.compiler);
    const std::uint64_t fingerprint =
        trace("service.fingerprint", "service.fingerprint_us",
              [&] { return service::jobFingerprint(job); });
    service::CachedCompile cached =
        trace("service.memory_lookup", nullptr,
              [&] { return memory.lookup(fingerprint); });
    if (!cached) {
        cached.machine = std::make_shared<const Machine>(job.machine);
        const std::uint64_t key = service::diskCacheKey(fingerprint, true);
        cached.result =
            trace("service.disk_load", "service.disk_load_us",
                  [&] { return disk.load(key, *cached.machine); });
        sums["disk_lookups"] += 1;
        sums["disk_hits"] += cached.result != nullptr ? 1 : 0;
        if (!cached.result) {
            auto compiled =
                trace("compiler.compile", "compiler.compile_us", [&] {
                    const PowerMoveCompiler compiler(
                        *cached.machine, service::effectiveOptions(job));
                    return std::make_shared<const CompileResult>(
                        compiler.compile(lowered));
                });
            const double compile_us = trace.last_us;
            // compile() evaluates its schedule too; that share is timed
            // separately and counted once, under fidelity.
            trace("fidelity.evaluate", "fidelity.evaluate_us",
                  [&] { return evaluateSchedule(compiled->schedule); });
            sums["compiler.compile_us"] -= std::min(trace.last_us, compile_us);
            for (const PassProfile &profile : compiled->pass_profiles) {
                std::string pass(passName(profile.pass));
                std::replace(pass.begin(), pass.end(), '-', '_');
                sums["compiler." + pass + "_us"] +=
                    profile.wall_time.micros();
            }
            trace("service.disk_store", "service.disk_store_us",
                  [&] { disk.store(key, *compiled); });
            cached.result = std::move(compiled);
        }
        trace("service.memory_insert", nullptr,
              [&] { memory.insert(fingerprint, cached); });
    }
    const CompileResult &result = *cached.result;
    trace("isa.validate", "isa.validate_us",
          [&] { validateAgainstCircuit(result.schedule, lowered); });
    std::string json = trace("isa.serialize", "isa.serialize_us",
                             [&] { return scheduleToJson(result.schedule); });
    sums["isa.json_bytes"] += static_cast<double>(json.size());
    trace("tools.write", "tools.write_us",
          [&] { writeFile(out_dir / (name + ".isa.json"), json); });
    if (first_time) {
        sums["compiler.stages"] += static_cast<double>(result.num_stages);
        sums["compiler.coll_moves"] +=
            static_cast<double>(result.num_coll_moves);
        sums["compiler.transfers"] +=
            static_cast<double>(result.schedule.numTransfers());
    }
    return json;
}

/**
 * The round's jobs through a JobService sized like the CLI's (queue
 * wait from its timelines), then resubmitted so each is a memory hit.
 * Returns the number of failed jobs.
 */
std::size_t
traceService(SpanLog &log, Sums &sums, std::size_t round,
             const TracedRunOptions &options,
             service::JobServiceOptions service_options,
             const std::vector<Circuit> &lowered, const fs::path &cache_dir)
{
    if (!options.warm_cache_dir.empty()) {
        freshCacheDir(cache_dir, options.warm_cache_dir);
        service_options.cache_dir = cache_dir.string();
    }
    service::JobService svc(service_options);
    std::size_t failed = 0;
    const int batch = log.open("service.jobservice", 0, -1, "*", round);
    std::vector<service::JobTicket> tickets;
    for (const Circuit &circuit : lowered)
        if (circuit.numQubits() > 0)
            tickets.push_back(svc.submit(jobFor(circuit, options.compiler)));
    for (service::JobTicket &ticket : tickets) {
        try {
            ticket.result.get();
        } catch (const std::exception &) {
            ++failed;
        }
        const auto status = svc.status(ticket.id);
        if (status && status->timeline.find(service::JobState::Running))
            sums["service.queue_wait_us"] +=
                status->timeline
                    .between(service::JobState::Queued,
                             service::JobState::Running)
                    .micros();
    }
    log.close(batch);

    for (std::size_t i = 0; i < lowered.size(); ++i) {
        if (lowered[i].numQubits() == 0)
            continue;
        service::CompileJob job = jobFor(lowered[i], options.compiler);
        const int hit = log.open("service.memory_hit", 0, -1,
                                 options.inputs[i], round);
        try {
            svc.submit(std::move(job)).result.get();
        } catch (const std::exception &) {
            ++failed;
        }
        sums["service.memory_hit_us"] += log.close(hit);
    }
    return failed;
}

} // namespace

TracedRunResult
runTraced(const TracedRunOptions &options)
{
    std::map<std::string, Circuit> generated;
    for (const std::string &name : distinctNames(options.inputs))
        generated.emplace(name, buildProgram(name, options.seed));

    const fs::path work(options.work_dir);
    const fs::path out_dir = work / "traced-out";
    const fs::path disk_dir = work / "traced-disk";
    const fs::path service_disk_dir = work / "traced-service-disk";
    fs::create_directories(out_dir);

    service::JobServiceOptions service_options;
    service_options.num_shards = std::clamp<std::size_t>(options.jobs, 1, 4);
    service_options.workers_per_shard =
        std::max<std::size_t>(1, options.jobs / service_options.num_shards);
    service_options.cache_capacity = 256;

    SpanLog log;
    TracedRunResult result;
    std::vector<Sums> rounds;
    // Per distinct program, at its first occurrence in each round: the
    // traced wall and coverage, and the first round's JSON. That JSON is
    // checked against the generated circuit; later rounds must
    // reproduce it byte for byte.
    std::map<std::string, std::vector<double>> walls, coverages;
    std::map<std::string, std::string> first_json;
    std::map<std::string, TracedProgramRow> rows;

    const Clock::time_point begin = Clock::now();
    while (rounds.empty() ||
           microsBetween(begin, Clock::now()) < options.seconds * 1e6) {
        const std::size_t round = rounds.size();
        Sums sums;
        double min_coverage = 1.0;
        freshCacheDir(disk_dir, options.warm_cache_dir);
        service::DiskCache disk(service::DiskCacheOptions{disk_dir.string()});
        service::CompileCache memory(256);
        std::vector<Circuit> lowered(options.inputs.size());

        for (std::size_t i = 0; i < options.inputs.size(); ++i) {
            const std::string &name = options.inputs[i];
            const auto earlier = options.inputs.begin() + i;
            const bool first_time =
                std::find(options.inputs.begin(), earlier, name) == earlier;
            const int root = log.open("program", i + 1, -1, name, round);
            ProgramTracer trace{log, sums, root, i + 1, name, round};
            std::string json;
            std::string error;
            try {
                json = traceProgram(trace, options, out_dir, memory, disk,
                                    lowered[i], first_time);
            } catch (const std::exception &e) {
                error = e.what();
            }
            const double wall_us = log.close(root);
            // The child spans run back to back, so their summed
            // durations are their union.
            const double coverage =
                wall_us > 0.0 ? log.microsAfter(root) / wall_us : 1.0;
            min_coverage = std::min(min_coverage, coverage);
            result.attempted += 1;
            if (!first_time) {
                result.failed += error.empty() ? 0 : 1;
                continue;
            }
            walls[name].push_back(wall_us / 1000.0);
            coverages[name].push_back(coverage);

            // The output check runs outside the program's span.
            const auto seen = first_json.find(name);
            if (error.empty() && seen == first_json.end()) {
                first_json.emplace(name, json);
                const ProgramCheck check =
                    checkIsaJson(json, generated.at(name));
                error = check.error;
                TracedProgramRow &row = rows[name];
                row.fidelity = check.fidelity;
                row.t_exe_us = check.t_exe_us;
                row.transfers = check.transfers;
            } else if (error.empty() && seen->second != json) {
                error = "output differs from the first round's";
            }
            if (!error.empty()) {
                result.failed += 1;
                if (rows[name].error.empty())
                    rows[name].error = error;
            }
        }

        const std::size_t service_failed =
            traceService(log, sums, round, options, service_options, lowered,
                         service_disk_dir);
        result.failed += service_failed;
        sums["service.failed"] = static_cast<double>(service_failed);
        sums["qasm.lex_mb_per_s"] =
            sums["qasm.lex_us"] > 0 ? sums["bytes"] / sums["qasm.lex_us"] : 0;
        sums["service.disk_hit_ratio"] =
            sums["disk_lookups"] > 0
                ? sums["disk_hits"] / sums["disk_lookups"]
                : 0;
        sums["trace.span_coverage"] = min_coverage;
        fs::remove_all(service_disk_dir);
        fs::remove_all(disk_dir);
        rounds.push_back(std::move(sums));
    }

    // Metric names hold a dot; the undotted keys are helpers. A round
    // without a sample of some metric counts as 0 for it.
    for (const Sums &sums : rounds) {
        for (const auto &entry : sums) {
            const std::string &key = entry.first;
            if (result.metrics.count(key) ||
                key.find('.') == std::string::npos)
                continue;
            std::vector<double> values;
            for (const Sums &other : rounds) {
                const auto it = other.find(key);
                values.push_back(it == other.end() ? 0.0 : it->second);
            }
            result.metrics[key] = median(values);
        }
    }
    for (const std::string &name : distinctNames(options.inputs)) {
        TracedProgramRow &row = rows[name];
        row.name = name;
        row.ok = row.error.empty();
        row.wall_ms = median(walls[name]);
        row.span_coverage = median(coverages[name]);
        result.rows.push_back(row);
    }
    result.rounds = rounds.size();
    if (!options.trace_out.empty())
        writeFile(options.trace_out, log.chromeTrace(kTracedRoundsWritten));
    fs::remove_all(out_dir);
    return result;
}

} // namespace perfbench
