/**
 * @file
 * Tests for the JobService: lifecycle timelines, FIFO queueing, the
 * worker bound, admission control, sharding, the memory cache (LRU
 * eviction, zero capacity), coalescing, machine interning and expiry,
 * failure propagation, the disk tier, and determinism against the
 * effectiveOptions() replay rule and across pool sizes.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "compiler/powermove.hpp"
#include "isa/json.hpp"
#include "isa/validator.hpp"
#include "obs/observability.hpp"
#include "service/disk_cache.hpp"
#include "service/fingerprint.hpp"
#include "service/job_service.hpp"
#include "workloads/suite.hpp"

namespace powermove::service {
namespace {

namespace fs = std::filesystem;

/** A fresh empty directory under the system temp dir, removed on exit. */
class TempDir
{
  public:
    explicit TempDir(const std::string &tag)
        : path_(fs::temp_directory_path() /
                ("powermove_job_service_" + tag + "_" +
                 std::to_string(static_cast<unsigned long>(::getpid()))))
    {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }

    ~TempDir() { fs::remove_all(path_); }

    std::string str() const { return path_.string(); }

  private:
    fs::path path_;
};

/** A small distinct job: a 4-qubit chain with @p variant CZ blocks. */
CompileJob
smallJob(std::size_t variant = 1)
{
    Circuit circuit(4);
    for (std::size_t i = 0; i < variant; ++i) {
        circuit.append(CzGate{0, 1});
        circuit.append(CzGate{2, 3});
        circuit.barrier();
        circuit.append(CzGate{1, 2});
        circuit.barrier();
    }
    return CompileJob{std::move(circuit), MachineConfig::forQubits(4), {}};
}

/** 9 qubits on a 4-qubit machine in storage-free mode: a ConfigError. */
CompileJob
tooBigJob()
{
    Circuit circuit(9);
    circuit.append(CzGate{0, 1});
    CompileJob job{std::move(circuit), MachineConfig::forQubits(4), {}};
    job.options.use_storage = false;
    return job;
}

/** The 23-entry Table 2 suite as service jobs. */
std::vector<CompileJob>
suiteJobs()
{
    std::vector<CompileJob> jobs;
    for (const BenchmarkSpec &spec : table2Suite())
        jobs.push_back(CompileJob{spec.build(), spec.machine_config, {}});
    return jobs;
}

/** JobServiceOptions with just the geometry and cache capacity set. */
JobServiceOptions
shardOptions(std::size_t shards, std::size_t workers,
             std::size_t cache_capacity)
{
    JobServiceOptions options;
    options.num_shards = shards;
    options.workers_per_shard = workers;
    options.cache_capacity = cache_capacity;
    return options;
}

TEST(TimelineTest, RecordsAndQueriesTransitions)
{
    Timeline timeline;
    EXPECT_TRUE(timeline.events().empty());
    EXPECT_FALSE(timeline.finished());

    using Clock = std::chrono::steady_clock;
    const Clock::time_point base = Clock::now();
    timeline.record(JobState::Queued, base);
    timeline.record(JobState::Admitted, base + std::chrono::milliseconds(2));
    timeline.record(JobState::Running, base + std::chrono::milliseconds(5));
    timeline.record(JobState::Done, base + std::chrono::milliseconds(9));

    ASSERT_EQ(timeline.events().size(), 4u);
    EXPECT_EQ(timeline.current(), JobState::Done);
    EXPECT_TRUE(timeline.finished());

    EXPECT_DOUBLE_EQ(
        timeline.between(JobState::Admitted, JobState::Running).micros(),
        3000.0);
    EXPECT_DOUBLE_EQ(timeline.total().micros(), 9000.0);

    EXPECT_EQ(jobStateName(JobState::Queued), "queued");
    EXPECT_EQ(jobStateName(JobState::Rejected), "rejected");
    EXPECT_FALSE(jobStateIsTerminal(JobState::Running));
    EXPECT_TRUE(jobStateIsTerminal(JobState::Rejected));
}

TEST(JobServiceTest, SubmitReturnsIdAndTracksLifecycle)
{
    JobService svc(shardOptions(2, 1, 16));
    const CompileJob job = smallJob();
    JobTicket ticket = svc.submit(job);
    EXPECT_GT(ticket.id, 0u);

    const JobResult out = ticket.result.get();
    ASSERT_TRUE(out.result);
    EXPECT_EQ(out.source, ResultSource::Compiled);
    EXPECT_FALSE(out.from_cache);
    EXPECT_EQ(out.fingerprint, jobFingerprint(job));
    validateAgainstCircuit(out.result->schedule, job.circuit);

    const auto status = svc.status(ticket.id);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->id, ticket.id);
    EXPECT_EQ(status->fingerprint, jobFingerprint(job));
    EXPECT_EQ(status->state, JobState::Done);
    EXPECT_TRUE(status->error.empty());

    // The timeline walked Queued → Admitted → Running → Done, in order.
    const auto &events = status->timeline.events();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events[0].state, JobState::Queued);
    EXPECT_EQ(events[1].state, JobState::Admitted);
    EXPECT_EQ(events[2].state, JobState::Running);
    EXPECT_EQ(events[3].state, JobState::Done);
    for (std::size_t i = 1; i < events.size(); ++i)
        EXPECT_GE(events[i].at.time_since_epoch().count(),
                  events[i - 1].at.time_since_epoch().count());

    EXPECT_FALSE(svc.status(ticket.id + 1000).has_value());
}

TEST(JobServiceTest, MemoryHitResolvesAtSubmitAsCached)
{
    JobService svc(shardOptions(1, 1, 16));
    const CompileJob job = smallJob();
    const JobResult first = svc.submit(job).result.get();

    JobTicket second = svc.submit(job);
    const JobResult out = second.result.get();
    EXPECT_EQ(out.source, ResultSource::Memory);
    EXPECT_TRUE(out.from_cache);
    EXPECT_EQ(out.result.get(), first.result.get()); // shared, not copied
    EXPECT_EQ(out.machine.get(), first.machine.get());

    const auto status = svc.status(second.id);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->state, JobState::Cached);
    // Queued → Cached, with no Admitted/Running detour.
    ASSERT_EQ(status->timeline.events().size(), 2u);

    const JobServiceStats stats = svc.stats();
    EXPECT_EQ(stats.submitted, 2u);
    EXPECT_EQ(stats.compiled, 1u);
    EXPECT_EQ(stats.memory_hits, 1u);

    // Different options are a different cache entry: a fresh compile.
    CompileJob reseeded = smallJob();
    reseeded.options.seed += 1;
    EXPECT_EQ(svc.submit(reseeded).result.get().source,
              ResultSource::Compiled);
    EXPECT_EQ(svc.stats().memory_hits, 1u);
    EXPECT_EQ(svc.stats().compiled, 2u);
}

TEST(JobServiceTest, LruEvictionDropsTheColdestEntry)
{
    JobService svc(shardOptions(1, 1, 2)); // room for two results
    (void)svc.submit(smallJob(1)).result.get();
    (void)svc.submit(smallJob(2)).result.get();
    (void)svc.submit(smallJob(3)).result.get(); // evicts job 1

    // Job 1 was evicted: resubmission misses and recompiles (and in turn
    // evicts job 2, the new least-recently-used entry).
    EXPECT_EQ(svc.submit(smallJob(1)).result.get().source,
              ResultSource::Compiled);
    // Job 3 stayed resident; job 2 is gone.
    EXPECT_EQ(svc.submit(smallJob(3)).result.get().source,
              ResultSource::Memory);
    EXPECT_EQ(svc.submit(smallJob(2)).result.get().source,
              ResultSource::Compiled);
    EXPECT_EQ(svc.stats().compiled, 5u);
    EXPECT_EQ(svc.stats().memory_hits, 1u);
}

TEST(JobServiceTest, ZeroCapacityDisablesCaching)
{
    JobService svc(shardOptions(1, 2, 0));
    (void)svc.submit(smallJob()).result.get();
    const JobResult second = svc.submit(smallJob()).result.get();
    EXPECT_FALSE(second.from_cache);
    EXPECT_EQ(second.source, ResultSource::Compiled);
    EXPECT_EQ(svc.stats().compiled, 2u);
    EXPECT_EQ(svc.stats().memory_hits, 0u);
}

TEST(JobServiceTest, IdenticalSubmissionsCompileExactlyOnce)
{
    JobService svc(shardOptions(2, 2, 16));
    const CompileJob job = smallJob();

    std::vector<JobTicket> tickets;
    for (int i = 0; i < 16; ++i)
        tickets.push_back(svc.submit(job));
    for (JobTicket &ticket : tickets)
        EXPECT_TRUE(ticket.result.get().result != nullptr);

    // Every duplicate either coalesced onto the in-flight job or hit the
    // cache; exactly one compilation ever ran.
    const JobServiceStats stats = svc.stats();
    EXPECT_EQ(stats.submitted, 16u);
    EXPECT_EQ(stats.compiled, 1u);
    EXPECT_EQ(stats.coalesced + stats.memory_hits, 15u);
}

TEST(JobServiceTest, MachinesAreInternedAcrossJobs)
{
    JobService svc(shardOptions(1, 2, 16));
    const JobResult a = svc.submit(smallJob(1)).result.get();
    const JobResult b = svc.submit(smallJob(2)).result.get();
    ASSERT_TRUE(a.machine);
    EXPECT_EQ(a.machine.get(), b.machine.get());
    EXPECT_EQ(&a.result->schedule.machine(), a.machine.get());
    EXPECT_EQ(&b.result->schedule.machine(), a.machine.get());
}

TEST(JobServiceTest, MachinesExpireOnceNothingReferencesThem)
{
    JobService svc(shardOptions(1, 1, 1)); // cache holds exactly one result

    // Job on config X; its JobResult (the only client ref) is dropped
    // at once, leaving the cache entry as the machine's sole owner.
    std::weak_ptr<const Machine> config_x =
        svc.submit(smallJob(1)).result.get().machine;
    EXPECT_FALSE(config_x.expired());

    // A cached hit must still carry the live interned machine. Scoped so
    // this JobResult's machine reference dies before the eviction below.
    {
        const JobResult hit = svc.submit(smallJob(1)).result.get();
        ASSERT_TRUE(hit.from_cache);
        ASSERT_TRUE(hit.machine);
        EXPECT_EQ(hit.machine.get(), config_x.lock().get());
        EXPECT_EQ(hit.machine->config().compute_cols, 2);
    }

    // Config Y evicts X's entry; with no cache entry and no client
    // holding X's machine, the weak intern expires.
    Circuit nine(9);
    nine.append(CzGate{0, 8});
    const JobResult y =
        svc.submit(CompileJob{nine, MachineConfig::forQubits(9), {}})
            .result.get();
    EXPECT_EQ(y.machine->config().compute_cols, 3);
    EXPECT_TRUE(config_x.expired());

    // Compiling for X again rebuilds a live machine for it.
    const JobResult again = svc.submit(smallJob(2)).result.get();
    ASSERT_TRUE(again.machine);
    EXPECT_EQ(again.machine->config().compute_cols, 2);
    EXPECT_EQ(&again.result->schedule.machine(), again.machine.get());
}

TEST(JobServiceTest, CachedResultOutlivesEvictionAndService)
{
    JobResult kept;
    {
        JobService svc(shardOptions(1, 1, 1));
        kept = svc.submit(smallJob(1)).result.get();
        (void)svc.submit(smallJob(2)).result.get(); // evicts job 1's entry
    }
    // The schedule's machine reference must survive both the eviction
    // and the service's destruction because the JobResult co-owns it.
    ASSERT_TRUE(kept.result);
    validateAgainstCircuit(kept.result->schedule, smallJob(1).circuit);
    EXPECT_EQ(&kept.result->schedule.machine(), kept.machine.get());
}

TEST(JobServiceTest, WaitIdleDrainsTheQueue)
{
    JobService svc(shardOptions(2, 2, 64));
    std::vector<JobTicket> tickets;
    for (std::size_t v = 1; v <= 12; ++v)
        tickets.push_back(svc.submit(smallJob(v)));
    svc.waitIdle();
    const JobServiceStats stats = svc.stats();
    EXPECT_EQ(stats.compiled + stats.failed, 12u);
    EXPECT_EQ(stats.queued, 0u);
    for (JobTicket &ticket : tickets)
        EXPECT_TRUE(ticket.result.get().result != nullptr);
}

TEST(JobServiceTest, FailureIsRecordedWithItsMessage)
{
    JobService svc(shardOptions(1, 1, 16));
    CompileJob bad = smallJob();
    bad.options.num_aods = 0; // rejected by the compiler's constructor

    JobTicket ticket = svc.submit(bad);
    EXPECT_THROW(ticket.result.get(), ConfigError);

    const auto status = svc.status(ticket.id);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->state, JobState::Failed);
    EXPECT_FALSE(status->error.empty());
    EXPECT_EQ(svc.stats().failed, 1u);

    // A config error raised inside the compile propagates the same way,
    // and failures are never cached: resubmission fails afresh.
    EXPECT_THROW(svc.submit(tooBigJob()).result.get(), ConfigError);
    EXPECT_EQ(svc.stats().failed, 2u);
    EXPECT_THROW(svc.submit(tooBigJob()).result.get(), ConfigError);
    EXPECT_EQ(svc.stats().failed, 3u);
    EXPECT_EQ(svc.stats().memory_hits, 0u);
}

TEST(JobServiceTest, OneFailedJobNeverHidesTheOthers)
{
    JobService svc(shardOptions(2, 1, 16));
    JobTicket good1 = svc.submit(smallJob(1));
    JobTicket bad = svc.submit(tooBigJob());
    JobTicket good2 = svc.submit(smallJob(2));

    EXPECT_TRUE(good1.result.get().result != nullptr);
    try {
        (void)bad.result.get();
        ADD_FAILURE() << "the oversized job compiled";
    } catch (const ConfigError &error) {
        EXPECT_NE(std::string(error.what()).find("too small"),
                  std::string::npos);
    }
    EXPECT_TRUE(good2.result.get().result != nullptr);
    EXPECT_EQ(svc.stats().compiled, 2u);
    EXPECT_EQ(svc.stats().failed, 1u);
}

TEST(JobServiceTest, AdmissionControlRejectsBeyondMaxQueue)
{
    // One shard, one worker, and a queue bound of 1. Block the worker
    // with a stream of distinct jobs, then overfill the queue.
    JobServiceOptions options;
    options.num_shards = 1;
    options.workers_per_shard = 1;
    options.cache_capacity = 0; // no memory short-circuit
    options.max_queue = 1;

    JobService svc(options);
    std::vector<JobTicket> tickets;
    std::size_t rejected = 0;
    // With a bound of 1 and steady submission pressure, at least the
    // tail of this burst must be rejected: the worker cannot drain 24
    // distinct jobs before the last submissions arrive.
    for (std::size_t v = 1; v <= 24; ++v)
        tickets.push_back(svc.submit(smallJob(v)));
    for (JobTicket &ticket : tickets) {
        try {
            (void)ticket.result.get();
        } catch (const RejectedError &) {
            ++rejected;
            const auto status = svc.status(ticket.id);
            ASSERT_TRUE(status.has_value());
            EXPECT_EQ(status->state, JobState::Rejected);
            EXPECT_NE(status->error.find("queue full"), std::string::npos);
        }
    }
    EXPECT_GT(rejected, 0u);
    EXPECT_EQ(svc.stats().rejected, rejected);
    // Rejection is immediate — the future is already resolved at
    // submit() — and never wedges the service.
    svc.waitIdle();
}

TEST(JobServiceTest, QueuedJobsRunInSubmissionOrder)
{
    // One worker, jammed by a decoy, so the real submissions queue up
    // behind it and must start in the order they were submitted.
    JobService svc(shardOptions(1, 1, 0));
    (void)svc.submit(smallJob(12));
    std::vector<JobTicket> tickets;
    for (std::size_t v = 1; v <= 4; ++v)
        tickets.push_back(svc.submit(smallJob(v)));
    svc.waitIdle();

    for (std::size_t i = 1; i < tickets.size(); ++i) {
        const auto earlier = svc.status(tickets[i - 1].id);
        const auto later = svc.status(tickets[i].id);
        ASSERT_TRUE(earlier && later);
        const TimelineEvent *earlier_run =
            earlier->timeline.find(JobState::Running);
        const TimelineEvent *later_run =
            later->timeline.find(JobState::Running);
        ASSERT_TRUE(earlier_run && later_run);
        EXPECT_LE(earlier_run->at, later_run->at) << "job " << i;
    }
}

TEST(JobServiceTest, TerminalStateSurvivesAnIdleWorkerRace)
{
    // Workers of a fresh service find the queue non-empty without waiting
    // for a wake-up, so a worker can run a job, and fail it, before
    // submit() returns. Admitted must still be the job's second event
    // and Failed its last, never overwritten by a late Admitted. A
    // client polling status() contends for the record lock the way
    // submit() does; that widens the window in which a submit() that
    // recorded Admitted after releasing the shard lock would lose the
    // race. The race is timing-dependent; thousands of rounds expose it.
    const CompileJob job = tooBigJob();
    for (std::size_t round = 0; round < 5000; ++round) {
        JobService svc(shardOptions(1, 4, 0));
        std::atomic<bool> stop{false};
        std::thread poller([&] {
            while (!stop.load(std::memory_order_relaxed))
                (void)svc.status(1);
        });
        JobTicket first = svc.submit(job);
        // Coalesces onto the first unless a worker already finished it.
        JobTicket second = svc.submit(job);
        for (JobTicket *doomed : {&first, &second}) {
            EXPECT_THROW(doomed->result.get(), ConfigError);
            const auto status = svc.status(doomed->id);
            ASSERT_TRUE(status.has_value());
            EXPECT_EQ(status->state, JobState::Failed) << "round=" << round;
            const auto &events = status->timeline.events();
            ASSERT_GE(events.size(), 3u) << "round=" << round;
            EXPECT_EQ(events[1].state, JobState::Admitted)
                << "round=" << round;
        }
        stop = true;
        poller.join();
    }
}

TEST(JobServiceTest, WorkerCountBeyondTheLimitIsAConfigError)
{
    // Counts whose product overflows std::size_t, and a count no pool
    // could reserve: each is refused before any thread starts.
    constexpr std::size_t kHuge = std::numeric_limits<std::size_t>::max();
    EXPECT_THROW(JobService(shardOptions(4, kHuge / 4, 0)), ConfigError);
    EXPECT_THROW(JobService(shardOptions(kHuge, kHuge, 0)), ConfigError);
    EXPECT_THROW(JobService(shardOptions(1, kHuge, 0)), ConfigError);
    try {
        JobService svc(shardOptions(2, kHuge, 0));
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("256"), std::string::npos)
            << e.what();
    }
    // The limit itself is accepted.
    JobService svc(shardOptions(1, kMaxWorkers, 0));
    EXPECT_EQ(svc.stats().workers_per_shard, kMaxWorkers);
}

TEST(JobServiceTest, ShardsPartitionJobsByFingerprint)
{
    JobServiceOptions options;
    options.num_shards = 4;
    options.workers_per_shard = 1;
    JobService svc(options);
    EXPECT_EQ(svc.options().num_shards, 4u);

    std::vector<JobTicket> tickets;
    for (std::size_t v = 1; v <= 12; ++v)
        tickets.push_back(svc.submit(smallJob(v)));
    for (JobTicket &ticket : tickets)
        EXPECT_TRUE(ticket.result.get().result != nullptr);

    const JobServiceStats stats = svc.stats();
    EXPECT_EQ(stats.submitted, 12u);
    EXPECT_EQ(stats.compiled, 12u);
    EXPECT_EQ(stats.queued, 0u);
}

TEST(JobServiceTest, DiskTierServesAcrossServiceInstances)
{
    const TempDir dir("disk_tier");
    JobServiceOptions options;
    options.num_shards = 2;
    options.workers_per_shard = 1;
    options.cache_dir = dir.str();

    std::string fresh_bytes;
    {
        JobService cold(options);
        fresh_bytes = serializeCompileResult(
            *cold.submit(smallJob()).result.get().result);
        EXPECT_EQ(cold.stats().disk.stores, 1u);
    }

    JobService warm(options);
    JobTicket ticket = warm.submit(smallJob());
    const JobResult out = ticket.result.get();
    EXPECT_EQ(out.source, ResultSource::Disk);
    EXPECT_TRUE(out.from_cache);
    EXPECT_EQ(serializeCompileResult(*out.result), fresh_bytes);

    const auto status = warm.status(ticket.id);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->state, JobState::Cached);
    EXPECT_EQ(warm.stats().disk_hits, 1u);
    EXPECT_EQ(warm.stats().compiled, 0u);
}

TEST(JobServiceTest, DiskEntryOfAnotherJobFailsWithValidationError)
{
    const TempDir dir("foreign_entry");
    // Two jobs on the same 4-qubit machine.
    const CompileJob a = smallJob(1);
    const CompileJob b = smallJob(2);
    JobServiceOptions options = shardOptions(1, 1, 16);
    options.cache_dir = dir.str();
    {
        // B's legal schedule, filed under A's key.
        const Machine machine(b.machine);
        DiskCacheOptions disk;
        disk.dir = dir.str();
        DiskCache cache(disk);
        cache.store(diskCacheKey(jobFingerprint(a), options.derive_job_seeds),
                    PowerMoveCompiler(machine, effectiveOptions(b))
                        .compile(b.circuit));
    }

    JobService svc(options);
    JobTicket ticket = svc.submit(a);
    EXPECT_THROW(ticket.result.get(), ValidationError);
    const auto status = svc.status(ticket.id);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->state, JobState::Failed);
    EXPECT_EQ(svc.stats().failed, 1u);
    EXPECT_EQ(svc.stats().disk_hits, 0u);
}

TEST(JobServiceTest, ResultsMatchEffectiveOptionsReplay)
{
    // The determinism bar: whatever the shard/queue/cache path, the
    // service's schedule is byte-identical to a single-threaded direct
    // compile with effectiveOptions().
    JobServiceOptions options;
    options.num_shards = 3;
    options.workers_per_shard = 2;
    JobService svc(options);

    std::vector<CompileJob> jobs;
    for (std::size_t v = 1; v <= 6; ++v)
        jobs.push_back(smallJob(v));

    std::vector<JobTicket> tickets;
    for (const CompileJob &job : jobs)
        tickets.push_back(svc.submit(job));

    for (std::size_t v = 0; v < jobs.size(); ++v) {
        const JobResult out = tickets[v].result.get();
        const Machine machine(jobs[v].machine);
        const PowerMoveCompiler direct(machine, effectiveOptions(jobs[v]));
        EXPECT_EQ(serializeResultWitness(*out.result),
                  serializeResultWitness(direct.compile(jobs[v].circuit)))
            << "job variant " << (v + 1);
    }
}

/**
 * The full 23-entry Table 2 suite compiled through 8 workers (4 shards
 * x 2) is bit-identical to a serial (1 shard x 1 worker) run.
 */
TEST(JobServiceTest, FullSuiteSerialVsEightWorkersBitIdentical)
{
    const std::vector<CompileJob> jobs = suiteJobs();
    ASSERT_EQ(jobs.size(), 23u);

    JobService serial(shardOptions(1, 1, 64));
    JobService parallel(shardOptions(4, 2, 64));
    EXPECT_EQ(parallel.stats().num_shards * parallel.stats().workers_per_shard,
              8u);
    std::vector<JobTicket> serial_tickets;
    std::vector<JobTicket> parallel_tickets;
    for (const CompileJob &job : jobs) {
        serial_tickets.push_back(serial.submit(job));
        parallel_tickets.push_back(parallel.submit(job));
    }
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const JobResult a = serial_tickets[i].result.get();
        const JobResult b = parallel_tickets[i].result.get();
        EXPECT_EQ(serializeResultWitness(*a.result),
                  serializeResultWitness(*b.result))
            << "suite entry " << i;
    }
    EXPECT_EQ(parallel.stats().compiled, 23u);
}

/**
 * Profiling is schedule-neutral through the service: the derived seed
 * comes from the profile-normalized fingerprint, so toggling
 * profile_passes changes the cache entry (different payload) but never
 * the emitted schedule.
 */
TEST(JobServiceTest, ProfileTogglingNeverChangesTheSchedule)
{
    JobService svc(shardOptions(2, 1, 16));

    const CompileJob profiled = smallJob();
    CompileJob unprofiled = smallJob();
    unprofiled.options.profile_passes = false;

    const JobResult on = svc.submit(profiled).result.get();
    const JobResult off = svc.submit(unprofiled).result.get();

    // Distinct cache entries (no conflated payloads)...
    EXPECT_NE(on.fingerprint, off.fingerprint);
    EXPECT_FALSE(off.from_cache);
    EXPECT_FALSE(on.result->pass_profiles.empty());
    EXPECT_TRUE(off.result->pass_profiles.empty());

    // ...but bit-identical schedules and effective seeds.
    EXPECT_EQ(scheduleToJson(on.result->schedule),
              scheduleToJson(off.result->schedule));
    EXPECT_DOUBLE_EQ(on.result->metrics.fidelity(),
                     off.result->metrics.fidelity());
    EXPECT_EQ(effectiveOptions(profiled).seed,
              effectiveOptions(unprofiled).seed);
}

/**
 * Pass totals aggregate over worker-compiled jobs, not cache hits: a
 * caller folding the pass profiles of Compiled results (as the CLI's
 * `--stats --profile` does) agrees with the service's pass metrics.
 */
TEST(JobServiceTest, PassTotalsAggregateAcrossCompiledJobs)
{
    auto bundle = std::make_shared<obs::Observability>(
        obs::ObservabilityOptions{obs::LogLevel::Off, stderr});
    JobServiceOptions options = shardOptions(1, 1, 16);
    options.obs = bundle;
    JobService svc(options);

    PassProfiles totals;
    const auto submit = [&](const CompileJob &job) {
        const JobResult out = svc.submit(job).result.get();
        if (out.source == ResultSource::Compiled)
            totals += out.result->pass_profiles;
    };
    const auto placements = [&] {
        return bundle->metrics
            .counter("powermove_pass_invocations_total",
                     {{"pass", std::string(passName(PassId::Placement))}})
            .value();
    };

    submit(smallJob(1));
    ASSERT_FALSE(totals.empty());
    EXPECT_EQ(totals[PassId::Placement].invocations, 1u);
    EXPECT_EQ(placements(), 1u);

    submit(smallJob(1)); // cache hit: totals unchanged
    EXPECT_EQ(totals[PassId::Placement].invocations, 1u);
    EXPECT_EQ(placements(), 1u);

    submit(smallJob(2)); // fresh compile: placement again
    EXPECT_EQ(totals[PassId::Placement].invocations, 2u);
    EXPECT_EQ(placements(), 2u);
}

/** Stress: the whole suite submitted concurrently from many threads. */
TEST(JobServiceTest, ConcurrentSuiteStress)
{
    const std::vector<CompileJob> jobs = suiteJobs();
    JobService svc(shardOptions(4, 2, 64));
    constexpr std::size_t kSubmitters = 4;
    std::vector<std::vector<JobTicket>> tickets(kSubmitters);
    {
        std::vector<std::thread> submitters;
        for (std::size_t t = 0; t < kSubmitters; ++t) {
            submitters.emplace_back([&, t] {
                for (const CompileJob &job : jobs)
                    tickets[t].push_back(svc.submit(job));
            });
        }
        for (std::thread &submitter : submitters)
            submitter.join();
    }

    for (auto &lane : tickets) {
        for (std::size_t i = 0; i < lane.size(); ++i) {
            const JobResult out = lane[i].result.get();
            ASSERT_TRUE(out.result);
            validateAgainstCircuit(out.result->schedule, jobs[i].circuit);
        }
    }

    // Each distinct job compiled exactly once no matter how submissions
    // interleaved with completions.
    const JobServiceStats stats = svc.stats();
    EXPECT_EQ(stats.submitted, kSubmitters * jobs.size());
    EXPECT_EQ(stats.compiled, jobs.size());
    EXPECT_EQ(stats.coalesced + stats.memory_hits,
              (kSubmitters - 1) * jobs.size());
    EXPECT_EQ(stats.failed + stats.rejected, 0u);
}

TEST(JobServiceTest, FinishedRecordPruningForgetsOldestFirst)
{
    JobServiceOptions options;
    options.num_shards = 1;
    options.workers_per_shard = 1;
    options.max_finished_records = 2;
    JobService svc(options);

    JobTicket a = svc.submit(smallJob(1));
    (void)a.result.get();
    JobTicket b = svc.submit(smallJob(2));
    (void)b.result.get();
    JobTicket c = svc.submit(smallJob(3));
    (void)c.result.get();
    svc.waitIdle();

    // Only the two most recently finished jobs remain queryable.
    EXPECT_FALSE(svc.status(a.id).has_value());
    EXPECT_TRUE(svc.status(b.id).has_value());
    EXPECT_TRUE(svc.status(c.id).has_value());
}

} // namespace
} // namespace powermove::service
