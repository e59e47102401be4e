/**
 * @file
 * Windowed high-quality routing (opt-in, --routing=windowed).
 *
 * In the spirit of Stade et al., "Search Smarter, Not Harder" (see
 * PAPERS.md): the continuous router's plan quality depends on the order
 * it examines a stage's gates — the order fixes which qubit of a
 * compute-compute pair stays static, which sites fill first, and hence
 * how far the remaining movers travel. Instead of committing to the
 * partition's order, the windowed router evaluates a bounded window of
 * candidate gate orderings per stage transition — the original order
 * plus window-1 random shuffles — and commits the plan with the
 * smallest total move distance (ties broken toward fewer moves, then
 * the earliest candidate, so the search is deterministic given the
 * pipeline RNG stream).
 *
 * Each candidate is planned by the incremental continuous router on the
 * live layout, scored, and reverted in O(moves); the winner's stored
 * moves are then applied. A transition therefore costs window x the
 * incremental router's transition, with no per-candidate layout copy.
 * Planned-move quality is what the extra time buys. The window size
 * lives in CompilerOptions::routing_window and is part of the job
 * fingerprint.
 */

#ifndef POWERMOVE_ROUTE_WINDOWED_ROUTER_HPP
#define POWERMOVE_ROUTE_WINDOWED_ROUTER_HPP

#include <cstdint>

#include "arch/layout.hpp"
#include "arch/machine.hpp"
#include "common/rng.hpp"
#include "route/router.hpp"
#include "schedule/stage.hpp"

namespace powermove {

/** Bounded search over gate orderings around ContinuousRouter. */
class WindowedRouter
{
  public:
    /**
     * Evaluates @p window candidate orderings per transition
     * (window >= 1; window == 1 degenerates to the continuous router
     * on the original order). Draws exactly one value per transition
     * from @p rng — the pipeline stream — to seed the candidate
     * shuffles and the per-candidate routing randomness, so results
     * are reproducible from CompilerOptions::seed alone. @p rng must
     * outlive the router.
     */
    WindowedRouter(const Machine &machine, RouterOptions options,
                   std::uint32_t window, Rng &rng);

    WindowedRouter(const WindowedRouter &) = delete;
    WindowedRouter &operator=(const WindowedRouter &) = delete;

    /**
     * Plans the best-of-window transition into @p stage and applies it
     * to @p layout. Like ContinuousRouter, requires that the layout is
     * not mutated outside this router between calls.
     */
    TransitionPlan planStageTransition(Layout &layout, const Stage &stage);

    const RouterOptions &options() const { return options_; }
    std::uint32_t window() const { return window_; }

    /**
     * Shuffled orderings that beat the incumbent, summed over all
     * transitions (each transition evaluates window() orderings).
     */
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
    Stage candidate_stage_; // reused gate-permutation buffer
    std::size_t window_wins_ = 0;
};

} // namespace powermove

#endif // POWERMOVE_ROUTE_WINDOWED_ROUTER_HPP
