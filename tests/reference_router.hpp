/**
 * @file
 * Reference routers: test oracles for route/router and
 * route/windowed_router.
 *
 * reference::ContinuousRouter is the straightforward implementation of
 * the paper's Sec. 5 continuous router that the incremental production
 * router replaced. Every transition rebuilds its state from the layout:
 * it recounts planned occupancy over every site, relabels every qubit,
 * and scans every qubit for idle compute-zone residents, so it costs
 * O(qubits + sites) per transition. reference::WindowedRouter is the
 * windowed search as first written: each candidate ordering is routed
 * by a reference::ContinuousRouter on a scratch copy of the layout,
 * which costs O(qubits) per candidate before any routing starts.
 *
 * Both make the same decisions, in the same order, with the same RNG
 * draws as their production counterparts, which is what the
 * differential tests assert plan by plan. compileSchedule() runs the
 * production pipeline's passes with these routers in place of the
 * production ones, for whole-program comparisons.
 */

#ifndef POWERMOVE_TESTS_REFERENCE_ROUTER_HPP
#define POWERMOVE_TESTS_REFERENCE_ROUTER_HPP

#include <cstdint>
#include <optional>
#include <vector>

#include "arch/layout.hpp"
#include "arch/machine.hpp"
#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "compiler/options.hpp"
#include "isa/machine_schedule.hpp"
#include "route/free_site_index.hpp"
#include "route/router.hpp"
#include "schedule/stage.hpp"

namespace powermove::reference {

/** Plans direct layout-to-layout transitions (paper Sec. 5). */
class ContinuousRouter
{
  public:
    ContinuousRouter(const Machine &machine, RouterOptions options = {});

    /**
     * Uses @p rng for the randomized mobile/static choice instead of an
     * internally seeded stream (options.seed is then ignored). The
     * pipeline threads its PipelineContext RNG through here so every
     * randomized decision of a compilation draws from one stream.
     * @p rng must outlive the router.
     */
    ContinuousRouter(const Machine &machine, RouterOptions options, Rng &rng);

    // rng_ may point at own_rng_, so a defaulted copy/move would leave
    // the new object drawing from the source's (possibly dead) stream.
    ContinuousRouter(const ContinuousRouter &) = delete;
    ContinuousRouter &operator=(const ContinuousRouter &) = delete;

    /**
     * Plans the transition bringing @p layout into a configuration that
     * executes @p stage, and applies it to @p layout. Holds no state
     * between calls besides the RNG stream, so @p layout may change
     * freely in between.
     */
    TransitionPlan planStageTransition(Layout &layout, const Stage &stage);

    const RouterOptions &options() const { return options_; }

  private:
    /**
     * Nearest compute site that will be empty once all planned departures
     * and arrivals settle (Sec. 5.2 step 3); fatal when the zone is full.
     */
    SiteId findEmptyComputeSite(SiteId origin,
                                const std::vector<int> &planned) const;

    const Machine &machine_;
    RouterOptions options_;
    Rng own_rng_;  // used unless an external stream was supplied
    Rng *rng_;     // &own_rng_ or the caller's stream
    StorageSlotIndex storage_index_; // incremental Sec. 5.2 step 1 search

    // Scratch buffers reused across transitions to keep the planning
    // pass allocation-free (the compile-time story of Sec. 7.2 depends
    // on the router staying near-linear per stage).
    std::vector<QubitId> partner_;
    std::vector<int> planned_;
    std::vector<SiteId> target_;
    std::vector<MoveLabel> label_;
    std::vector<bool> labeled_;
    std::vector<int> statics_at_;
    std::vector<QubitId> follower_;
    std::vector<QubitId> first_idle_at_;
    std::vector<QubitId> idle_in_compute_;
    std::vector<QubitId> undecided_order_;
    std::vector<QubitId> evicted_;
};

/** Best-of-window search over gate orderings, on a scratch layout. */
class WindowedRouter
{
  public:
    /**
     * Evaluates @p window candidate orderings per transition; draws one
     * value per transition from @p rng, exactly like the production
     * WindowedRouter. @p rng must outlive the router.
     */
    WindowedRouter(const Machine &machine, RouterOptions options,
                   std::uint32_t window, Rng &rng);

    WindowedRouter(const WindowedRouter &) = delete;
    WindowedRouter &operator=(const WindowedRouter &) = delete;

    /** Plans the best-of-window transition and applies it. */
    TransitionPlan planStageTransition(Layout &layout, const Stage &stage);

    const RouterOptions &options() const { return options_; }
    std::uint32_t window() const { return window_; }

    /** Shuffled orderings that beat the incumbent, over all transitions. */
    std::size_t windowWins() const { return window_wins_; }

  private:
    const Machine &machine_;
    RouterOptions options_;
    std::uint32_t window_;
    Rng *rng_; // the pipeline stream; one draw per transition

    // The inner router draws its randomized decisions from
    // candidate_rng_, reseeded before every candidate so each ordering
    // is routed under an independent, reproducible stream.
    Rng candidate_rng_;
    ContinuousRouter inner_;
    std::optional<Layout> scratch_; // sized lazily to the circuit width
    Stage candidate_stage_;         // reused gate-permutation buffer
    std::size_t window_wins_ = 0;
};

/**
 * Compiles @p circuit through the production pipeline's passes, except
 * that stage transitions are routed by the reference routers: the
 * continuous strategy (and the reuse strategy's storage-free fallback)
 * by reference::ContinuousRouter, the windowed strategy by
 * reference::WindowedRouter. Reuse with storage routes through the
 * production ReuseAwareRouter, which has no reference. Returns the
 * emitted schedule.
 */
MachineSchedule compileSchedule(const Machine &machine, const Circuit &circuit,
                                const CompilerOptions &options);

} // namespace powermove::reference

#endif // POWERMOVE_TESTS_REFERENCE_ROUTER_HPP
