/**
 * @file
 * Job lifecycle states and per-job timelines for the async JobService.
 *
 * Every job the JobService accepts moves through a small state machine:
 *
 *   Queued ──► Rejected                    (admission control: queue full)
 *   Queued ──► Cached                      (memory hit at submit)
 *   Queued ──► Admitted ──► Cached         (disk hit on a worker)
 *   Queued ──► Admitted ──► Running ──► Done | Failed
 *
 * Each transition is recorded with a steady-clock timestamp into the
 * job's Timeline, which stays queryable (JobService::status()) after the
 * job finished — the record is how callers attribute latency to queue
 * wait vs. compilation vs. cache service.
 *
 * Terminal states are Cached, Done, Failed, and Rejected; exactly one
 * of them ends every timeline.
 */

#ifndef POWERMOVE_SERVICE_TIMELINE_HPP
#define POWERMOVE_SERVICE_TIMELINE_HPP

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.hpp"

namespace powermove::service {

/** Lifecycle state of one async job. */
enum class JobState : std::uint8_t
{
    /** Received by submit(); the initial state of every job. */
    Queued,
    /** Passed admission control and entered a shard queue. */
    Admitted,
    /** Compiling on a worker thread. */
    Running,
    /** Served from the memory or disk cache without compiling (terminal). */
    Cached,
    /** Compiled successfully (terminal). */
    Done,
    /** Compilation threw (terminal). */
    Failed,
    /** Refused by admission control: the shard queue was full (terminal). */
    Rejected,
};

/** Number of JobState values. */
inline constexpr std::size_t kNumJobStates = 7;

/** Stable lower-case state name, e.g. "running". */
std::string_view jobStateName(JobState state);

/** True for states that end a timeline. */
bool jobStateIsTerminal(JobState state);

/** One recorded state transition. */
struct TimelineEvent
{
    JobState state = JobState::Queued;
    std::chrono::steady_clock::time_point at;
    /**
     * Optional refinement of the state, e.g. which tier produced a
     * Cached record: "memory" (LRU hit at submit) vs "disk" (a worker
     * deserialized the persistent entry). Empty when the state needs no
     * qualification.
     */
    std::string detail;
};

/**
 * The ordered state history of one job. Records are append-only; the
 * JobService guards each job's timeline with its record lock, so copies
 * handed out by status() are consistent snapshots.
 */
class Timeline
{
  public:
    /** Appends @p state stamped with the current steady clock. */
    void record(JobState state, std::string detail = {});

    /** Appends @p state at an explicit instant (testing / replay). */
    void record(JobState state, std::chrono::steady_clock::time_point at,
                std::string detail = {});

    /** All transitions, in record order. Never empty after a record(). */
    const std::vector<TimelineEvent> &events() const { return events_; }

    /** First event recorded in @p state; nullptr when absent. */
    const TimelineEvent *find(JobState state) const;

    /** The most recently recorded state; Queued for an empty timeline. */
    JobState current() const;

    /** True once a terminal state was recorded. */
    bool finished() const;

    /**
     * Wall time between the first occurrence of @p from and the first
     * occurrence of @p to at or after it; zero when either is absent.
     */
    Duration between(JobState from, JobState to) const;

    /** Wall time from the first event to the last (zero if < 2 events). */
    Duration total() const;

  private:
    std::vector<TimelineEvent> events_;
};

} // namespace powermove::service

#endif // POWERMOVE_SERVICE_TIMELINE_HPP
