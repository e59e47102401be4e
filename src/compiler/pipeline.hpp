/**
 * @file
 * The explicit pass pipeline behind PowerMoveCompiler (paper Fig. 1b).
 *
 * One compilation is a walk over the circuit's moments driven by
 * Pipeline::run(), threading a PipelineContext (layout, schedule in
 * progress, RNG, counters) through six named passes:
 *
 *   PlacementPass      initial layout (strategy-selected)        [once]
 *   StagePartitionPass stage partition (Sec. 4.1 coloring by a   [per block]
 *                      graph-free linear scan, or balanced)
 *   StageOrderPass     zone-aware stage ordering (Sec. 4.2)      [per block]
 *   RoutingPass        layout transitions: continuous (Sec. 5),  [per stage]
 *                      reuse-aware (src/reuse/) or windowed
 *   CollMoveOrderPass  grouping + storage-dwell order (5.3/6.1)  [per stage]
 *   AodBatchPass       multi-AOD parallel batching (Sec. 6.2)    [per stage]
 *
 * A pass with more than one algorithm switches on its CompilerOptions
 * enum and calls the selected algorithm directly (placeRowMajor,
 * partitionIntoStages, orderStages, orderCollMoves, ...); the routing
 * pass owns a strategy-selected router. A new strategy from the
 * related literature — e.g. routing-aware placement — is one enum value
 * plus one case in its pass. Each pass invocation is timed and counted
 * into the context's PassProfiles (see compiler/profile.hpp).
 *
 * With default options the pipeline reproduces the pre-pipeline
 * monolithic compiler bit-for-bit (pipeline_test.cpp locks this in
 * against an inline legacy reference across the Table 2 suite).
 */

#ifndef POWERMOVE_COMPILER_PIPELINE_HPP
#define POWERMOVE_COMPILER_PIPELINE_HPP

#include <memory>
#include <optional>
#include <vector>

#include "arch/layout.hpp"
#include "arch/machine.hpp"
#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "compiler/options.hpp"
#include "compiler/profile.hpp"
#include "compiler/result.hpp"
#include "isa/machine_schedule.hpp"
#include "reuse/router.hpp"
#include "route/router.hpp"
#include "route/windowed_router.hpp"
#include "schedule/stage.hpp"

namespace powermove {

/** Everything a pass may read or mutate during one compilation. */
struct PipelineContext
{
    const Machine &machine;
    const CompilerOptions &options;
    const Circuit &circuit;
    /** Qubit occupancy; created unplaced, owned by the PlacementPass on. */
    Layout layout;
    /** Engaged by the PlacementPass once initial sites are known. */
    std::optional<MachineSchedule> schedule;
    /** The compilation's single randomized-decision stream. */
    Rng rng;
    /**
     * Per-pass wall times and counters, returned as
     * CompileResult::pass_profiles; all zero unless
     * options.profile_passes.
     */
    PassProfiles profiles{};
    std::size_t num_stages = 0;
    std::size_t num_coll_moves = 0;
    std::size_t block_index = 0;

    /** Times one invocation of @p pass into profiles. */
    PassTiming
    time(PassId pass)
    {
        return PassTiming(options.profile_passes ? &profiles : nullptr, pass);
    }

    /** Adds @p delta to @p counter in profiles. */
    void
    count(PassCounter counter, std::uint64_t delta)
    {
        if (options.profile_passes)
            profiles.add(counter, delta);
    }
};

// ------------------------------------------------------------------- passes

/**
 * Builds the initial layout per options.placement (into storage when
 * options.use_storage, else into the compute zone) and engages
 * ctx.schedule with the resulting per-qubit sites.
 */
class PlacementPass
{
  public:
    void run(PipelineContext &ctx) const;
};

/**
 * Partitions one CZ block into disjoint-qubit stages (Algorithm 1) per
 * options.stage_partition: the graph-free scan that reproduces the
 * paper's edge coloring, or its width-balanced variant.
 */
class StagePartitionPass
{
  public:
    std::vector<Stage> run(PipelineContext &ctx, const CzBlock &block) const;
};

/** Orders the stages of one block per options.stage_order. */
class StageOrderPass
{
  public:
    std::vector<Stage> run(PipelineContext &ctx,
                           std::vector<Stage> stages) const;
};

/**
 * Plans and applies one layout transition per stage through the
 * strategy selected by CompilerOptions::routing: the paper's continuous
 * router (route/router.hpp), the reuse-aware router (reuse/), or the
 * windowed best-of-orderings search (route/windowed_router.hpp). Owns
 * the routers (and through them the scratch buffers); randomized
 * decisions draw from ctx.rng. The reuse strategy requires the storage
 * zone, so the storage-free configuration always routes continuously.
 */
class RoutingPass
{
  public:
    explicit RoutingPass(PipelineContext &ctx);

    /**
     * Announces the ordered stages of the next block before its first
     * transition is routed (the reuse strategy's lookahead scans them;
     * a no-op for the other strategies).
     */
    void beginBlock(PipelineContext &ctx, const std::vector<Stage> &stages);

    TransitionPlan run(PipelineContext &ctx, const Stage &stage);

    /**
     * Called once after the program's last transition: publishes the
     * reuse and windowed routers' accumulated counters (when at least
     * one stage was routed), closes residency spans surviving the final
     * block (they used to leak — the stats only settled in the next
     * beginBlock(), which never comes for the last block) and publishes
     * the residency lifetime counters. A no-op for the continuous
     * strategy.
     */
    void endProgram(PipelineContext &ctx);

  private:
    // Exactly one router is engaged: the reuse router for Reuse with
    // storage, the windowed router for Windowed, else the continuous one.
    std::optional<ContinuousRouter> router_;
    std::unique_ptr<ReuseAwareRouter> reuse_router_;
    std::unique_ptr<WindowedRouter> windowed_router_;
};

/**
 * Groups a transition's moves into Coll-Moves and orders them per
 * options.coll_move_order.
 */
class CollMoveOrderPass
{
  public:
    std::vector<CollMove> run(PipelineContext &ctx,
                              std::vector<QubitMove> moves) const;
};

/** Splits ordered Coll-Moves into parallel multi-AOD batches. */
class AodBatchPass
{
  public:
    std::vector<AodBatch> run(PipelineContext &ctx,
                              std::vector<CollMove> groups) const;
};

// ------------------------------------------------------------------- driver

/** The pass-pipeline compiler core. */
class Pipeline
{
  public:
    /**
     * @param machine target machine; must outlive the pipeline and every
     *                CompileResult it produces
     * @param options pipeline configuration (num_aods must be positive)
     */
    Pipeline(const Machine &machine, CompilerOptions options);

    /** Runs every pass over @p circuit, then validates and scores it. */
    CompileResult run(const Circuit &circuit) const;

    const CompilerOptions &options() const { return options_; }

  private:
    const Machine &machine_;
    CompilerOptions options_;
};

} // namespace powermove

#endif // POWERMOVE_COMPILER_PIPELINE_HPP
