#include "route/windowed_router.hpp"

#include <limits>
#include <utility>

#include "common/error.hpp"

namespace powermove {

WindowedRouter::WindowedRouter(const Machine &machine, RouterOptions options,
                               std::uint32_t window, Rng &rng)
    : machine_(machine), options_(options), window_(window), rng_(&rng),
      candidate_rng_(options.seed), inner_(machine, options, candidate_rng_)
{
    PM_ASSERT(window_ >= 1, "routing window must be at least 1");
}

TransitionPlan
WindowedRouter::planStageTransition(Layout &layout, const Stage &stage)
{
    // One draw from the pipeline stream per transition, independent of
    // the window size: all per-candidate randomness (the shuffles and
    // the inner router's mobile/static coin flips) derives from it, so
    // a window change alters candidate quality, never how much of the
    // shared stream later passes consume.
    std::uint64_t derive_state = rng_->next();

    TransitionPlan best;
    double best_distance = std::numeric_limits<double>::infinity();
    std::size_t best_moves = 0;
    bool have_best = false;

    for (std::uint32_t k = 0; k < window_; ++k) {
        const std::uint64_t route_seed = splitMix64(derive_state);
        const std::uint64_t shuffle_seed = splitMix64(derive_state);

        candidate_stage_.gates = stage.gates;
        if (k > 0) {
            Rng shuffle_rng(shuffle_seed);
            shuffle_rng.shuffle(candidate_stage_.gates);
        }

        // Plan on the live layout, then take the plan back: every
        // candidate starts from the same pre-transition state.
        candidate_rng_ = Rng(route_seed);
        TransitionPlan plan =
            inner_.planStageTransition(layout, candidate_stage_);
        inner_.revert(layout, plan);

        double distance = 0.0;
        for (const auto &move : plan.moves)
            distance += machine_.distanceBetween(move.from, move.to).microns();

        const bool better =
            !have_best || distance < best_distance ||
            (distance == best_distance && plan.moves.size() < best_moves);
        if (better) {
            if (have_best && k > 0)
                ++window_wins_;
            best = std::move(plan);
            best_distance = distance;
            best_moves = best.moves.size();
            have_best = true;
        }
    }

    // The winner was planned from exactly the state every revert
    // restored, so replaying its moves lands where its planning did.
    inner_.apply(layout, best);
    return best;
}

} // namespace powermove
