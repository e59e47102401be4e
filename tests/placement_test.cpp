/** @file Tests for the Enola simulated-annealing placement and the
 * routing-aware placement subsystem (src/placement/). */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"
#include "compiler/powermove.hpp"
#include "enola/placement.hpp"
#include "isa/json.hpp"
#include "isa/validator.hpp"
#include "placement/cost_model.hpp"
#include "placement/interaction_graph.hpp"
#include "placement/routing_aware.hpp"
#include "workloads/qaoa.hpp"
#include "workloads/suite.hpp"

namespace powermove {
namespace {

TEST(PlacementCostTest, SumsGateDistances)
{
    const Machine machine(MachineConfig::forQubits(9));
    Circuit circuit(3);
    circuit.append(CzGate{0, 1});
    circuit.append(CzGate{1, 2});
    // Homes on one row: 0 at (0,0), 1 at (1,0), 2 at (2,0).
    const std::vector<SiteId> home = {0, 1, 2};
    EXPECT_DOUBLE_EQ(placementCost(machine, circuit, home), 30.0);
}

TEST(AnnealPlacementTest, ProducesDistinctComputeHomes)
{
    const Machine machine(MachineConfig::forQubits(16));
    const Circuit circuit = makeQaoaRegular(16, 3, 1, 5);
    Rng rng(1);
    const auto home = annealPlacement(machine, circuit, rng);

    ASSERT_EQ(home.size(), 16u);
    for (const SiteId site : home)
        EXPECT_EQ(machine.zoneOf(site), ZoneKind::Compute);
    auto sorted = home;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                sorted.end());
}

TEST(AnnealPlacementTest, ImprovesOnRowMajorCost)
{
    const Machine machine(MachineConfig::forQubits(30));
    const Circuit circuit = makeQaoaRegular(30, 3, 1, 7);
    std::vector<SiteId> row_major(30);
    for (QubitId q = 0; q < 30; ++q)
        row_major[q] = q;

    Rng rng(3);
    const auto annealed = annealPlacement(machine, circuit, rng);
    EXPECT_LT(placementCost(machine, circuit, annealed),
              placementCost(machine, circuit, row_major));
}

TEST(AnnealPlacementTest, ZeroIterationsKeepsRowMajor)
{
    const Machine machine(MachineConfig::forQubits(9));
    Circuit circuit(4);
    circuit.append(CzGate{0, 3});
    Rng rng(2);
    PlacementOptions options;
    options.iterations = 0;
    const auto home = annealPlacement(machine, circuit, rng, options);
    for (QubitId q = 0; q < 4; ++q)
        EXPECT_EQ(home[q], q);
}

TEST(AnnealPlacementTest, RejectsOversizedCircuit)
{
    const Machine machine(MachineConfig::forQubits(4));
    const Circuit circuit(9);
    Rng rng(2);
    EXPECT_THROW(annealPlacement(machine, circuit, rng), ConfigError);
}

TEST(AnnealPlacementTest, DeterministicForFixedSeed)
{
    const Machine machine(MachineConfig::forQubits(16));
    const Circuit circuit = makeQaoaRegular(16, 3, 1, 5);
    Rng rng_a(9);
    Rng rng_b(9);
    EXPECT_EQ(annealPlacement(machine, circuit, rng_a),
              annealPlacement(machine, circuit, rng_b));
}

// ------------------------------------------------ routing-aware placement

TEST(InteractionGraphTest, AggregatesPairsAcrossGateOrder)
{
    Circuit circuit(4);
    circuit.append(CzGate{0, 1});
    circuit.append(CzGate{1, 0}); // same pair, reversed endpoints
    circuit.append(CzGate{2, 3});

    const InteractionGraph graph = InteractionGraph::build(circuit);
    ASSERT_EQ(graph.edges().size(), 2u);
    EXPECT_EQ(graph.edges()[0].a, 0u);
    EXPECT_EQ(graph.edges()[0].b, 1u);
    EXPECT_DOUBLE_EQ(graph.edges()[0].weight, 2.0);
    EXPECT_DOUBLE_EQ(graph.edges()[1].weight, 1.0);
    EXPECT_DOUBLE_EQ(graph.incidentWeight(1), 2.0);
}

TEST(InteractionGraphTest, LaterBlocksWeighLess)
{
    Circuit circuit(4);
    circuit.append(CzGate{0, 1}); // block 0: weight 1
    circuit.barrier();
    circuit.append(CzGate{2, 3}); // block 1: weight 1/2

    const InteractionGraph graph = InteractionGraph::build(circuit);
    ASSERT_EQ(graph.edges().size(), 2u);
    EXPECT_GT(graph.edges()[0].weight, graph.edges()[1].weight);
    EXPECT_DOUBLE_EQ(graph.edges()[1].weight, 0.5);
}

TEST(CostModelTest, SwapAndRelocateDeltasMatchRecomputation)
{
    const Machine machine(MachineConfig::forQubits(16));
    const Circuit circuit = makeQaoaRegular(16, 3, 1, 11);
    const InteractionGraph graph = InteractionGraph::build(circuit);
    const PlacementCostModel model(machine, ZoneKind::Storage);

    std::vector<std::uint32_t> slot_of(16);
    for (std::uint32_t q = 0; q < 16; ++q)
        slot_of[q] = q;
    const double before = model.weightedDistance(graph, slot_of);

    const double swap_delta = model.swapDelta(graph, slot_of, 2, 9);
    std::swap(slot_of[2], slot_of[9]);
    EXPECT_NEAR(model.weightedDistance(graph, slot_of), before + swap_delta,
                1e-9);

    const double mid = model.weightedDistance(graph, slot_of);
    const std::uint32_t free_slot = 20; // 16 qubits, 32 storage slots
    const double reloc_delta = model.relocateDelta(graph, slot_of, 5,
                                                   free_slot);
    slot_of[5] = free_slot;
    EXPECT_NEAR(model.weightedDistance(graph, slot_of), mid + reloc_delta,
                1e-9);
}

TEST(RoutingAwareTest, CzFreeCircuitReproducesRowMajor)
{
    const Machine machine(MachineConfig::forQubits(9));
    Circuit circuit(6);
    circuit.append(OneQGate{OneQKind::H, 0, 0.0});

    const auto assignment =
        routingAwareAssignment(machine, ZoneKind::Storage, circuit);
    const auto sites = machine.storageSites();
    for (QubitId q = 0; q < 6; ++q)
        EXPECT_EQ(assignment[q], sites[q]);
}

TEST(RoutingAwareTest, RefinementNeverIncreasesWeightedDistance)
{
    const Machine machine(MachineConfig::forQubits(30));
    const Circuit circuit = makeQaoaRegular(30, 3, 1, 7);
    RoutingAwarePlacementReport report;
    routingAwareAssignment(machine, ZoneKind::Storage, circuit, {}, &report);

    EXPECT_LE(report.refined_weighted_distance,
              report.initial_weighted_distance);
    double previous = report.initial_weighted_distance;
    ASSERT_FALSE(report.sweep_costs.empty());
    for (const double cost : report.sweep_costs) {
        EXPECT_LE(cost, previous);
        previous = cost;
    }
    EXPECT_DOUBLE_EQ(report.sweep_costs.back(),
                     report.refined_weighted_distance);
}

TEST(RoutingAwareTest, ZeroRefineItersKeepsGreedyLayout)
{
    const Machine machine(MachineConfig::forQubits(16));
    const Circuit circuit = makeQaoaRegular(16, 3, 1, 5);
    RoutingAwarePlacementOptions options;
    options.refine_iters = 0;
    RoutingAwarePlacementReport report;
    routingAwareAssignment(machine, ZoneKind::Storage, circuit, options,
                           &report);
    EXPECT_EQ(report.refine_sweeps, 0u);
    EXPECT_EQ(report.refine_moves, 0u);
    EXPECT_DOUBLE_EQ(report.refined_weighted_distance,
                     report.initial_weighted_distance);
}

TEST(RoutingAwareTest, ImprovesWeightedDistanceOverRowMajor)
{
    const Machine machine(MachineConfig::forQubits(30));
    const Circuit circuit = makeQaoaRegular(30, 3, 1, 9);
    const InteractionGraph graph = InteractionGraph::build(circuit);
    const PlacementCostModel model(machine, ZoneKind::Storage);

    std::vector<std::uint32_t> row_major(30);
    for (std::uint32_t q = 0; q < 30; ++q)
        row_major[q] = q;

    RoutingAwarePlacementReport report;
    routingAwareAssignment(machine, ZoneKind::Storage, circuit, {}, &report);
    EXPECT_LT(report.refined_weighted_distance,
              model.weightedDistance(graph, row_major));
}

TEST(RoutingAwareTest, AssignmentUsesDistinctZoneSites)
{
    const Machine machine(MachineConfig::forQubits(24));
    const Circuit circuit = makeQaoaRegular(24, 3, 1, 3);
    const auto assignment =
        routingAwareAssignment(machine, ZoneKind::Storage, circuit);

    ASSERT_EQ(assignment.size(), 24u);
    auto sorted = assignment;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                sorted.end());
    for (const SiteId site : assignment)
        EXPECT_EQ(machine.zoneOf(site), ZoneKind::Storage);
}

TEST(RoutingAwareTest, RejectsOversizedCircuit)
{
    const Machine machine(MachineConfig::forQubits(4));
    const Circuit circuit(20);
    EXPECT_THROW(routingAwareAssignment(machine, ZoneKind::Compute, circuit),
                 ConfigError);
}

TEST(RoutingAwareTest, CompiledScheduleIsDeterministicForFixedSeed)
{
    const BenchmarkSpec spec = findBenchmark("QAOA-regular3-30");
    const Machine machine(spec.machine_config);
    const Circuit circuit = spec.build();
    CompilerOptions options;
    options.placement = PlacementStrategy::RoutingAware;
    options.seed = 99;

    const auto a = PowerMoveCompiler(machine, options).compile(circuit);
    const auto b = PowerMoveCompiler(machine, options).compile(circuit);
    EXPECT_EQ(scheduleToJson(a.schedule), scheduleToJson(b.schedule));
}

TEST(RoutingAwareTest, CompiledScheduleValidatesUnderBothRoutings)
{
    const BenchmarkSpec spec = findBenchmark("QAOA-regular4-30");
    const Machine machine(spec.machine_config);
    const Circuit circuit = spec.build();
    for (const RoutingStrategy routing :
         {RoutingStrategy::Continuous, RoutingStrategy::Reuse}) {
        CompilerOptions options;
        options.placement = PlacementStrategy::RoutingAware;
        options.routing = routing;
        const auto result =
            PowerMoveCompiler(machine, options).compile(circuit);
        EXPECT_NO_THROW(validateAgainstCircuit(result.schedule, circuit));
    }
}

TEST(RoutingAwareTest, DefaultOptionsStayBitIdenticalToRowMajor)
{
    // The default path must not change when the routing-aware method is
    // merely *available* (the pipeline_test legacy reference locks the
    // whole suite; this is the placement-local spot check).
    const BenchmarkSpec spec = findBenchmark("QSIM-rand-0.3-10");
    const Machine machine(spec.machine_config);
    const Circuit circuit = spec.build();

    const auto defaults = PowerMoveCompiler(machine, {}).compile(circuit);
    CompilerOptions explicit_row_major;
    explicit_row_major.placement = PlacementStrategy::RowMajor;
    const auto row_major =
        PowerMoveCompiler(machine, explicit_row_major).compile(circuit);
    EXPECT_EQ(scheduleToJson(defaults.schedule),
              scheduleToJson(row_major.schedule));
}

TEST(RoutingAwareTest, PlacementCountersReportRefinement)
{
    const BenchmarkSpec spec = findBenchmark("QAOA-regular3-30");
    const Machine machine(spec.machine_config);
    const Circuit circuit = spec.build();
    CompilerOptions options;
    options.placement = PlacementStrategy::RoutingAware;
    const auto result = PowerMoveCompiler(machine, options).compile(circuit);

    const PassProfiles &profiles = result.pass_profiles;
    const std::uint64_t initial =
        profiles[PassCounter::InitialWeightedDistX1000];
    const std::uint64_t refined =
        profiles[PassCounter::RefinedWeightedDistX1000];
    EXPECT_TRUE(profiles.isTouched(PassCounter::RefineSweeps));
    EXPECT_GT(initial, 0u);
    EXPECT_LE(refined, initial);
}

} // namespace
} // namespace powermove
