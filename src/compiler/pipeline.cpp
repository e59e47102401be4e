#include "compiler/pipeline.hpp"

#include <chrono>
#include <cmath>
#include <utility>

#include "collsched/intra_stage.hpp"
#include "collsched/multi_aod.hpp"
#include "common/error.hpp"
#include "isa/validator.hpp"
#include "placement/routing_aware.hpp"
#include "route/grouping.hpp"
#include "schedule/stage_order.hpp"
#include "schedule/stage_partition.hpp"

namespace powermove {

namespace {

/**
 * Places every unplaced qubit of ctx.layout into @p zone per
 * options.placement. The routing-aware placement publishes its
 * strategy-specific measurements as PassId::Placement counters; the
 * simple layouts feed no counter.
 */
void
placeBy(PipelineContext &ctx, ZoneKind zone)
{
    switch (ctx.options.placement) {
    case PlacementStrategy::RowMajor:
        placeRowMajor(ctx.layout, zone);
        return;
    case PlacementStrategy::ColumnInterleaved:
        placeColumnInterleaved(ctx.layout, zone);
        return;
    case PlacementStrategy::UsageFrequency: {
        // Weight = CZ-gate count: each CZ forces the qubit toward the
        // compute zone, so heavy qubits should start nearest to it.
        std::vector<std::size_t> weights(ctx.circuit.numQubits(), 0);
        for (const Moment &moment : ctx.circuit.moments()) {
            const auto *block = std::get_if<CzBlock>(&moment);
            if (block == nullptr)
                continue;
            for (const CzGate &gate : block->gates) {
                ++weights[gate.a];
                ++weights[gate.b];
            }
        }
        placeByUsageFrequency(ctx.layout, zone, weights);
        return;
    }
    case PlacementStrategy::RoutingAware: {
        RoutingAwarePlacementReport report;
        placeRoutingAware(ctx.layout, zone, ctx.circuit,
                          {ctx.options.placement_refine_iters}, &report);
        // Strategy-specific counters (kept off the default profile, as
        // with the reuse routing counters): the weighted interaction
        // distance before and after refinement, x1000 to survive the
        // integer counter format, plus the local-search effort.
        ctx.count(PassCounter::InitialWeightedDistX1000,
                  static_cast<std::uint64_t>(std::llround(
                      report.initial_weighted_distance * 1000.0)));
        ctx.count(PassCounter::RefinedWeightedDistX1000,
                  static_cast<std::uint64_t>(std::llround(
                      report.refined_weighted_distance * 1000.0)));
        ctx.count(PassCounter::RefineSweeps, report.refine_sweeps);
        ctx.count(PassCounter::RefineMoves, report.refine_moves);
        return;
    }
    }
    fatal("unknown placement strategy");
}

std::vector<Stage>
partitionBy(StagePartitionStrategy strategy, const CzBlock &block,
            std::size_t num_qubits)
{
    switch (strategy) {
    case StagePartitionStrategy::Linear:
        return partitionIntoStages(block, num_qubits);
    case StagePartitionStrategy::Balanced:
        return partitionIntoStagesBalanced(block, num_qubits);
    }
    fatal("unknown stage-partition strategy");
}

std::vector<CollMove>
orderCollMovesBy(CollMoveOrderStrategy strategy, const Machine &machine,
                 std::vector<CollMove> groups)
{
    switch (strategy) {
    case CollMoveOrderStrategy::AsGrouped:
        return groups;
    case CollMoveOrderStrategy::StorageDwell:
        return orderCollMoves(machine, std::move(groups));
    }
    fatal("unknown coll-move-order strategy");
}

} // namespace

// ------------------------------------------------------------------- passes

void
PlacementPass::run(PipelineContext &ctx) const
{
    const auto timing = ctx.time(PassId::Placement);
    // The initial layout sits entirely in storage (Sec. 4.2) so that no
    // qubit is exposed to the first excitations; without a storage zone
    // everything starts in the compute zone instead.
    const ZoneKind zone =
        ctx.options.use_storage ? ZoneKind::Storage : ZoneKind::Compute;
    ctx.count(PassCounter::QubitsPlaced, ctx.circuit.numQubits());
    placeBy(ctx, zone);

    std::vector<SiteId> initial_sites(ctx.circuit.numQubits());
    for (QubitId q = 0; q < ctx.circuit.numQubits(); ++q)
        initial_sites[q] = ctx.layout.siteOf(q);
    ctx.schedule.emplace(ctx.machine, std::move(initial_sites));
}

std::vector<Stage>
StagePartitionPass::run(PipelineContext &ctx, const CzBlock &block) const
{
    const auto timing = ctx.time(PassId::StagePartition);
    auto stages = partitionBy(ctx.options.stage_partition, block,
                              ctx.circuit.numQubits());
    ctx.count(PassCounter::Gates, block.gates.size());
    ctx.count(PassCounter::StagesProduced, stages.size());
    return stages;
}

std::vector<Stage>
StageOrderPass::run(PipelineContext &ctx, std::vector<Stage> stages) const
{
    const auto timing = ctx.time(PassId::StageOrder);
    ctx.count(PassCounter::StagesOrdered, stages.size());
    switch (ctx.options.stage_order) {
    case StageOrderStrategy::AsPartitioned:
        return stages;
    case StageOrderStrategy::ZoneAware:
        return orderStages(std::move(stages),
                           StageOrderOptions{ctx.options.stage_order_alpha});
    }
    fatal("unknown stage-order strategy");
}

RoutingPass::RoutingPass(PipelineContext &ctx)
{
    // Atom reuse trades storage round trips for compute-zone residency,
    // which only exists as a trade when there is a storage zone to
    // round-trip to; storage-free configurations route continuously.
    if (ctx.options.routing == RoutingStrategy::Reuse &&
        ctx.options.use_storage) {
        if (ctx.options.reuse_lookahead == 0)
            fatal("reuse routing requires a lookahead window >= 1 stage");
        reuse_router_ = std::make_unique<ReuseAwareRouter>(
            ctx.machine,
            ReuseRouterOptions{ctx.options.reuse_lookahead,
                               ctx.options.seed, ctx.options.residency},
            ctx.rng);
    } else if (ctx.options.routing == RoutingStrategy::Windowed) {
        if (ctx.options.routing_window == 0)
            fatal("windowed routing requires a window >= 1 ordering");
        windowed_router_ = std::make_unique<WindowedRouter>(
            ctx.machine,
            RouterOptions{ctx.options.use_storage, ctx.options.seed},
            ctx.options.routing_window, ctx.rng);
    } else {
        router_.emplace(ctx.machine,
                        RouterOptions{ctx.options.use_storage,
                                      ctx.options.seed},
                        ctx.rng);
    }
}

void
RoutingPass::beginBlock(PipelineContext &ctx, const std::vector<Stage> &stages)
{
    if (reuse_router_ == nullptr)
        return;
    // Deliberately untimed: the O(block gates) lookahead scan is noise
    // next to the per-stage planning, and opening a timing scope here
    // would inflate the routing row's invocation count past the
    // documented one-per-stage semantics.
    const bool final_block =
        ctx.block_index + 1 == ctx.circuit.numBlocks();
    reuse_router_->beginBlock(stages, ctx.circuit.numQubits(), final_block);
}

TransitionPlan
RoutingPass::run(PipelineContext &ctx, const Stage &stage)
{
    const auto timing = ctx.time(PassId::Routing);
    TransitionPlan plan =
        reuse_router_ != nullptr
            ? reuse_router_->planStageTransition(ctx.layout, stage)
        : windowed_router_ != nullptr
            ? windowed_router_->planStageTransition(ctx.layout, stage)
            : router_->planStageTransition(ctx.layout, stage);
    ctx.count(PassCounter::MovesPlanned, plan.moves.size());
    ctx.count(PassCounter::QubitsParked, plan.num_parked);
    ctx.count(PassCounter::QubitsEvicted, plan.num_evicted);
    return plan;
}

void
RoutingPass::endProgram(PipelineContext &ctx)
{
    // A strategy's own counters appear only once it routed a stage, so
    // the default --profile output carries none of them.
    const bool routed = ctx.num_stages > 0;
    if (windowed_router_ != nullptr && routed) {
        // Every transition evaluates exactly the window's orderings.
        ctx.count(PassCounter::OrderingsEvaluated,
                  ctx.num_stages * windowed_router_->window());
        ctx.count(PassCounter::WindowWins, windowed_router_->windowWins());
    }
    if (reuse_router_ == nullptr)
        return;
    if (routed) {
        const ReuseStats &reuse = reuse_router_->reuseStats();
        ctx.count(PassCounter::QubitsHeld, reuse.held);
        // A hold that stays put skips its park move outright; a
        // relocated hold still emits one compute-zone move, so it only
        // trades the park (it saves the storage round trip's transfers
        // and the later retrieval, not a move).
        ctx.count(PassCounter::MovesSaved, reuse.held - reuse.relocated);
        ctx.count(PassCounter::LookaheadHits, reuse.hits);
        ctx.count(PassCounter::LookaheadMisses,
                  reuse.parked_no_reuse + reuse.window_misses);
        ctx.count(PassCounter::ParkedNoReuse, reuse.parked_no_reuse);
        ctx.count(PassCounter::WindowMisses, reuse.window_misses);
        ctx.count(PassCounter::ReuseRelocations, reuse.relocated);
        ctx.count(PassCounter::HoldsDenied, reuse.hold_denied);
    }
    // Settle residency spans still open after the last transition so
    // the lifetime stats balance (holds_started == holds_ended); they
    // used to leak for the final block, whose spans were only closed by
    // a beginBlock() that never came.
    reuse_router_->endProgram();
    const ResidencyStats &stats = reuse_router_->residencyStats();
    ctx.count(PassCounter::ResidencyHoldsStarted, stats.holds_started);
    ctx.count(PassCounter::ResidencyHoldsEnded, stats.holds_ended);
    ctx.count(PassCounter::ResidencyResidentStages, stats.resident_stages);
    ctx.count(PassCounter::ResidencyMaxConcurrent, stats.max_concurrent);
}

std::vector<CollMove>
CollMoveOrderPass::run(PipelineContext &ctx,
                       std::vector<QubitMove> moves) const
{
    const auto timing = ctx.time(PassId::CollMoveOrder);
    auto groups =
        orderCollMovesBy(ctx.options.coll_move_order, ctx.machine,
                         groupMoves(ctx.machine, std::move(moves)));
    ctx.count(PassCounter::GroupsFormed, groups.size());
    return groups;
}

std::vector<AodBatch>
AodBatchPass::run(PipelineContext &ctx, std::vector<CollMove> groups) const
{
    const auto timing = ctx.time(PassId::AodBatch);
    auto batches =
        batchForAods(ctx.machine, std::move(groups), ctx.options.num_aods,
                     ctx.options.aod_batch_policy);
    ctx.count(PassCounter::BatchesEmitted, batches.size());
    return batches;
}

// ------------------------------------------------------------------- driver

Pipeline::Pipeline(const Machine &machine, CompilerOptions options)
    : machine_(machine), options_(options)
{
    if (options_.num_aods == 0)
        fatal("compiler requires at least one AOD array");
}

CompileResult
Pipeline::run(const Circuit &circuit) const
{
    const auto start = std::chrono::steady_clock::now();

    PipelineContext ctx{machine_,
                        options_,
                        circuit,
                        Layout(machine_, circuit.numQubits()),
                        std::nullopt,
                        Rng(options_.seed)};

    const PlacementPass placement;
    const StagePartitionPass partition;
    const StageOrderPass stage_order;
    RoutingPass routing(ctx);
    const CollMoveOrderPass coll_move_order;
    const AodBatchPass aod_batch;

    placement.run(ctx);

    for (const auto &moment : circuit.moments()) {
        if (const auto *one_q = std::get_if<OneQLayer>(&moment)) {
            ctx.schedule->addOneQLayer(one_q->gates.size(),
                                       one_q->depth(circuit.numQubits()));
            continue;
        }
        const auto &block = std::get<CzBlock>(moment);

        // Stage Scheduler: partition, then strategy-selected ordering.
        auto stages = stage_order.run(ctx, partition.run(ctx, block));

        // The routing strategy sees the whole ordered block up front
        // (the reuse lookahead scans it; continuous ignores it).
        routing.beginBlock(ctx, stages);

        for (const auto &stage : stages) {
            // Continuous Router: direct transition into the stage layout.
            TransitionPlan plan = routing.run(ctx, stage);

            // Coll-Move grouping/ordering, then AOD batching.
            auto groups = coll_move_order.run(ctx, std::move(plan.moves));
            ctx.num_coll_moves += groups.size();
            for (auto &batch : aod_batch.run(ctx, std::move(groups)))
                ctx.schedule->addMoveBatch(std::move(batch));

            ctx.schedule->addRydberg(stage.gates, ctx.block_index);
            ++ctx.num_stages;
        }
        ++ctx.block_index;
    }

    // Publish the routing strategy's totals and close residency spans
    // surviving the final block.
    routing.endProgram(ctx);

    const auto stop = std::chrono::steady_clock::now();
    const double elapsed_us =
        std::chrono::duration<double, std::micro>(stop - start).count();

    CompileResult result{std::move(*ctx.schedule),
                         {},
                         Duration::micros(elapsed_us),
                         ctx.num_stages,
                         ctx.num_coll_moves,
                         ctx.profiles};
    result.metrics = validateAgainstCircuit(result.schedule, circuit);
    return result;
}

} // namespace powermove
