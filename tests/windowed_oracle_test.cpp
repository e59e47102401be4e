/** @file Differential lock: WindowedRouter == reference::WindowedRouter.
 *
 * The production windowed router plans every candidate ordering on the
 * live layout through the incremental continuous router and reverts it;
 * the reference oracle (tests/reference_router.hpp) routes each
 * candidate on a scratch copy of the layout with the per-transition
 * reference router. Both must commit the same plan at every transition:
 * same moves in the same order, same labels, same candidate accounting,
 * and the same layout afterwards. Coverage: every Table 2 program, at
 * windows {1, 2, 8}, with and without the storage zone — plan by plan
 * over the stage sequence the pipeline routes, and end to end through
 * the full pipeline.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "compiler/powermove.hpp"
#include "isa/json.hpp"
#include "reference_router.hpp"
#include "route/windowed_router.hpp"
#include "schedule/stage_order.hpp"
#include "schedule/stage_partition.hpp"
#include "workloads/suite.hpp"

namespace powermove {
namespace {

constexpr std::uint32_t kWindows[] = {1, 2, 8};

/** Every stage the default pipeline routes for @p circuit, in order. */
std::vector<Stage>
pipelineStages(const Circuit &circuit)
{
    std::vector<Stage> stages;
    for (const CzBlock *block : circuit.blocks()) {
        auto ordered = orderStages(
            partitionIntoStages(*block, circuit.numQubits()),
            StageOrderOptions{});
        stages.insert(stages.end(), ordered.begin(), ordered.end());
    }
    return stages;
}

TEST(WindowedOracleTest, Table2PlansMatchReferencePlanByPlan)
{
    for (const BenchmarkSpec &spec : table2Suite()) {
        const Machine machine(spec.machine_config);
        const Circuit circuit = spec.build();
        const std::vector<Stage> stages = pipelineStages(circuit);
        for (const std::uint32_t window : kWindows) {
            for (const bool use_storage : {true, false}) {
                const std::string where =
                    spec.name + " window " + std::to_string(window) +
                    (use_storage ? " with" : " without") + " storage";
                const RouterOptions options{use_storage, 17};
                Rng ref_stream(23), prod_stream(23);
                reference::WindowedRouter reference(machine, options, window,
                                                    ref_stream);
                WindowedRouter production(machine, options, window,
                                          prod_stream);
                Layout ref_layout(machine, circuit.numQubits());
                placeRowMajor(ref_layout, use_storage ? ZoneKind::Storage
                                                      : ZoneKind::Compute);
                Layout prod_layout(machine, circuit.numQubits());
                prod_layout.assignFrom(ref_layout);

                for (std::size_t s = 0; s < stages.size(); ++s) {
                    const TransitionPlan ref_plan =
                        reference.planStageTransition(ref_layout, stages[s]);
                    const TransitionPlan prod_plan =
                        production.planStageTransition(prod_layout,
                                                       stages[s]);
                    ASSERT_EQ(ref_plan.moves, prod_plan.moves)
                        << where << ", stage " << s;
                    ASSERT_EQ(ref_plan.labels, prod_plan.labels)
                        << where << ", stage " << s;
                    ASSERT_EQ(ref_plan.num_parked, prod_plan.num_parked);
                    ASSERT_EQ(ref_plan.num_evicted, prod_plan.num_evicted);
                    ASSERT_EQ(reference.windowWins(), production.windowWins())
                        << where << ", stage " << s;
                }
                for (QubitId q = 0; q < circuit.numQubits(); ++q) {
                    ASSERT_EQ(ref_layout.siteOf(q), prod_layout.siteOf(q))
                        << where << ": final layouts differ at qubit " << q;
                }
                if (window == 1) {
                    EXPECT_EQ(production.windowWins(), 0u) << where;
                }
                EXPECT_EQ(ref_stream.next(), prod_stream.next())
                    << where << ": pipeline streams diverged";
            }
        }
    }
}

TEST(WindowedOracleTest, Table2PipelineMatchesReferenceBitForBit)
{
    for (const BenchmarkSpec &spec : table2Suite()) {
        const Machine machine(spec.machine_config);
        const Circuit circuit = spec.build();
        for (const std::uint32_t window : kWindows) {
            for (const bool use_storage : {true, false}) {
                CompilerOptions options;
                options.use_storage = use_storage;
                options.routing = RoutingStrategy::Windowed;
                options.routing_window = window;
                const auto production =
                    PowerMoveCompiler(machine, options).compile(circuit);
                EXPECT_EQ(scheduleToJson(production.schedule),
                          scheduleToJson(reference::compileSchedule(
                              machine, circuit, options)))
                    << spec.name << " window " << window
                    << (use_storage ? " with" : " without") << " storage";
            }
        }
    }
}

} // namespace
} // namespace powermove
