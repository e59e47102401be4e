/**
 * @file
 * Per-pass instrumentation of the compile pipeline.
 *
 * Every pipeline pass is timed and may feed counters from one fixed
 * enum; the resulting PassProfiles record travels inside CompileResult
 * so that callers — the CLI's --profile flag and its `--stats` pass
 * totals, the service's metrics and traces, the disk cache, and
 * bench/micro_passes — can attribute compile time to individual passes.
 *
 * Wall times are measurement noise by nature; everything else (the
 * invocation counts and every counter) is deterministic for a fixed
 * (circuit, machine, options) triple, which the tests rely on.
 */

#ifndef POWERMOVE_COMPILER_PROFILE_HPP
#define POWERMOVE_COMPILER_PROFILE_HPP

#include <array>
#include <chrono>
#include <cstdint>
#include <string_view>

#include "common/units.hpp"

namespace powermove {

/** The named passes of the compile pipeline, in execution order. */
enum class PassId : std::uint8_t
{
    Placement,
    StagePartition,
    StageOrder,
    Routing,
    CollMoveOrder,
    AodBatch,
};

/** Number of PassId values. */
inline constexpr std::size_t kNumPasses = 6;

/** Stable pass name, e.g. "routing". */
std::string_view passName(PassId pass);

/**
 * Every counter a pass feeds, grouped by pass in the order the pipeline
 * first feeds them (the order --profile prints). Adding a counter
 * changes the disk-cache payload: bump DiskCache::kFormatVersion.
 */
enum class PassCounter : std::uint8_t
{
    QubitsPlaced,
    InitialWeightedDistX1000, // routing-aware placement only
    RefinedWeightedDistX1000, // routing-aware placement only
    RefineSweeps,             // routing-aware placement only
    RefineMoves,              // routing-aware placement only
    Gates,
    StagesProduced,
    StagesOrdered,
    MovesPlanned,
    QubitsParked,
    QubitsEvicted,
    QubitsHeld,              // reuse routing only
    MovesSaved,              // reuse routing only
    LookaheadHits,           // reuse routing only
    LookaheadMisses,         // reuse routing only
    ParkedNoReuse,           // reuse routing only
    WindowMisses,            // reuse routing only
    ReuseRelocations,        // reuse routing only
    HoldsDenied,             // reuse routing only
    OrderingsEvaluated,      // windowed routing only
    WindowWins,              // windowed routing only
    ResidencyHoldsStarted,   // reuse routing only
    ResidencyHoldsEnded,     // reuse routing only
    ResidencyResidentStages, // reuse routing only
    ResidencyMaxConcurrent,  // reuse routing only
    GroupsFormed,
    BatchesEmitted,
};

/** Number of PassCounter values. */
inline constexpr std::size_t kNumPassCounters = 27;

/** The stable name of one counter and the pass that feeds it. */
struct PassCounterInfo
{
    std::string_view name;
    PassId pass;
};

/** Indexed by PassCounter. */
inline constexpr std::array<PassCounterInfo, kNumPassCounters> kPassCounters =
    {{
        {"qubits_placed", PassId::Placement},
        {"initial_weighted_dist_x1000", PassId::Placement},
        {"refined_weighted_dist_x1000", PassId::Placement},
        {"refine_sweeps", PassId::Placement},
        {"refine_moves", PassId::Placement},
        {"gates", PassId::StagePartition},
        {"stages_produced", PassId::StagePartition},
        {"stages_ordered", PassId::StageOrder},
        {"moves_planned", PassId::Routing},
        {"qubits_parked", PassId::Routing},
        {"qubits_evicted", PassId::Routing},
        {"qubits_held", PassId::Routing},
        {"moves_saved", PassId::Routing},
        {"lookahead_hits", PassId::Routing},
        {"lookahead_misses", PassId::Routing},
        {"parked_no_reuse", PassId::Routing},
        {"window_misses", PassId::Routing},
        {"reuse_relocations", PassId::Routing},
        {"holds_denied", PassId::Routing},
        {"orderings_evaluated", PassId::Routing},
        {"window_wins", PassId::Routing},
        {"residency_holds_started", PassId::Routing},
        {"residency_holds_ended", PassId::Routing},
        {"residency_resident_stages", PassId::Routing},
        {"residency_max_concurrent", PassId::Routing},
        {"groups_formed", PassId::CollMoveOrder},
        {"batches_emitted", PassId::AodBatch},
    }};

/** The timing of one pass accumulated over a compilation. */
struct PassProfile
{
    PassId pass = PassId::Placement;
    /** Total wall time spent inside the pass. */
    Duration wall_time = Duration::micros(0.0);
    /** Times the pass ran (per block or per stage for inner passes). */
    std::size_t invocations = 0;
};

/**
 * Every pass's timing and every counter of one compilation, or the sum
 * of several. Iterating visits all kNumPasses passes in pipeline order;
 * a pass that never ran has zero invocations. A counter is "touched"
 * once fed, so strategy-specific counters stay untouched unless their
 * strategy ran. All zeros when profiling is off
 * (CompilerOptions::profile_passes) or the compiler is not the pass
 * pipeline (the Enola baseline).
 */
struct PassProfiles
{
    /** Indexed by PassId. */
    std::array<PassProfile, kNumPasses> passes = {{
        {PassId::Placement},
        {PassId::StagePartition},
        {PassId::StageOrder},
        {PassId::Routing},
        {PassId::CollMoveOrder},
        {PassId::AodBatch},
    }};
    /** Indexed by PassCounter. */
    std::array<std::uint64_t, kNumPassCounters> counters{};
    /** Bit c is set once counter c was fed. */
    std::uint32_t touched = 0;

    const PassProfile *begin() const { return passes.data(); }
    const PassProfile *end() const { return passes.data() + kNumPasses; }

    const PassProfile &
    operator[](PassId pass) const
    {
        return passes[static_cast<std::size_t>(pass)];
    }

    std::uint64_t
    operator[](PassCounter counter) const
    {
        return counters[static_cast<std::size_t>(counter)];
    }

    bool
    isTouched(PassCounter counter) const
    {
        return (touched >> static_cast<unsigned>(counter)) & 1u;
    }

    /** True when no pass ran. */
    bool empty() const;

    void
    add(PassCounter counter, std::uint64_t delta)
    {
        counters[static_cast<std::size_t>(counter)] += delta;
        touched |= 1u << static_cast<unsigned>(counter);
    }

    /** Index-wise sum: wall times, invocations, counters, touched bits. */
    PassProfiles &operator+=(const PassProfiles &other);

    /** Calls @p visit(info, value) per touched counter of @p pass. */
    template <typename Visit>
    void
    forEachCounter(PassId pass, Visit &&visit) const
    {
        for (std::size_t c = 0; c < kNumPassCounters; ++c)
            if (kPassCounters[c].pass == pass &&
                isTouched(static_cast<PassCounter>(c)))
                visit(kPassCounters[c], counters[c]);
    }
};

static_assert(kNumPassCounters <= 32, "PassProfiles::touched is 32 bits");

/**
 * RAII scope adding its wall time and one invocation to one pass of
 * @p profiles; a no-op (no clock read) when @p profiles is null.
 */
class [[nodiscard]] PassTiming
{
  public:
    PassTiming(PassProfiles *profiles, PassId pass)
        : profiles_(profiles), pass_(pass)
    {
        if (profiles_ != nullptr)
            start_ = std::chrono::steady_clock::now();
    }

    ~PassTiming()
    {
        if (profiles_ == nullptr)
            return;
        PassProfile &profile =
            profiles_->passes[static_cast<std::size_t>(pass_)];
        profile.wall_time =
            profile.wall_time +
            Duration::micros(std::chrono::duration<double, std::micro>(
                                 std::chrono::steady_clock::now() - start_)
                                 .count());
        ++profile.invocations;
    }

    PassTiming(const PassTiming &) = delete;
    PassTiming &operator=(const PassTiming &) = delete;

  private:
    PassProfiles *profiles_;
    PassId pass_;
    std::chrono::steady_clock::time_point start_;
};

} // namespace powermove

#endif // POWERMOVE_COMPILER_PROFILE_HPP
