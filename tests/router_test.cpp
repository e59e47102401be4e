/** @file Tests for the Continuous Router (Sec. 5.2).
 *
 * Every behavioural test runs against both the production router and
 * the reference oracle (tests/reference_router.hpp), so the two are
 * held to the same paper rules, not merely to each other.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "reference_router.hpp"
#include "route/router.hpp"

namespace powermove {
namespace {

Stage
stageOf(std::initializer_list<CzGate> gates)
{
    Stage stage;
    for (const auto &gate : gates)
        stage.gates.push_back(gate.canonical());
    return stage;
}

/** Checks the router's layout post-conditions for one stage. */
void
checkStageLayout(const Machine &machine, const Layout &layout,
                 const Stage &stage, bool use_storage)
{
    std::vector<bool> interacting(layout.numQubits(), false);
    for (const auto &gate : stage.gates) {
        EXPECT_EQ(layout.siteOf(gate.a), layout.siteOf(gate.b));
        EXPECT_EQ(layout.zoneOf(gate.a), ZoneKind::Compute);
        interacting[gate.a] = true;
        interacting[gate.b] = true;
    }
    // Non-pair qubits may not share a site with anyone.
    std::map<SiteId, std::vector<QubitId>> by_site;
    for (QubitId q = 0; q < layout.numQubits(); ++q)
        by_site[layout.siteOf(q)].push_back(q);
    for (const auto &[site, occupants] : by_site) {
        ASSERT_LE(occupants.size(), 2u);
        if (occupants.size() == 2) {
            EXPECT_TRUE(interacting[occupants[0]]);
            EXPECT_TRUE(interacting[occupants[1]]);
            EXPECT_EQ(machine.zoneOf(site), ZoneKind::Compute);
        }
    }
    if (use_storage) {
        for (QubitId q = 0; q < layout.numQubits(); ++q) {
            if (!interacting[q]) {
                EXPECT_EQ(layout.zoneOf(q), ZoneKind::Storage)
                    << "idle qubit " << q << " left outside storage";
            }
        }
    }
}

template <typename Router>
class RouterTest : public ::testing::Test
{
  protected:
    RouterTest() : machine_(MachineConfig::forQubits(16)) {}

    Layout
    storageLayout(std::size_t n)
    {
        Layout layout(machine_, n);
        placeRowMajor(layout, ZoneKind::Storage);
        return layout;
    }

    Layout
    computeLayout(std::size_t n)
    {
        Layout layout(machine_, n);
        placeRowMajor(layout, ZoneKind::Compute);
        return layout;
    }

    Machine machine_;
};

using RouterTypes =
    ::testing::Types<ContinuousRouter, reference::ContinuousRouter>;
TYPED_TEST_SUITE(RouterTest, RouterTypes);

TYPED_TEST(RouterTest, BothInStorageGetMobileAndUndecided)
{
    TypeParam router(this->machine_, {true, 1});
    auto layout = this->storageLayout(4);
    const auto stage = stageOf({{0, 1}});
    const auto plan = router.planStageTransition(layout, stage);

    // Fig. 4(b): one endpoint mobile, the other undecided.
    ASSERT_EQ(plan.labels.size(), 2u);
    EXPECT_EQ(plan.labels[0].second, MoveLabel::Mobile);
    EXPECT_EQ(plan.labels[1].second, MoveLabel::Undecided);
    checkStageLayout(this->machine_, layout, stage, true);
}

TYPED_TEST(RouterTest, StorageComputeCaseKeepsComputeQubitStatic)
{
    TypeParam router(this->machine_, {true, 1});
    auto layout = this->storageLayout(4);
    // Stage 1 brings 0 and 1 into the compute zone.
    router.planStageTransition(layout, stageOf({{0, 1}}));
    // Stage 2 interacts 0 (compute) with 2 (storage): Fig. 4(c) case 1.
    const auto stage = stageOf({{0, 2}});
    const SiteId site_before = layout.siteOf(0);
    const auto plan = router.planStageTransition(layout, stage);

    bool q0_static = false;
    for (const auto &[q, label] : plan.labels) {
        if (q == 0)
            q0_static = label == MoveLabel::Static;
        if (q == 2) {
            EXPECT_EQ(label, MoveLabel::Mobile);
        }
    }
    EXPECT_TRUE(q0_static);
    EXPECT_EQ(layout.siteOf(0), site_before);
    EXPECT_EQ(layout.siteOf(2), site_before);
    checkStageLayout(this->machine_, layout, stage, true);
}

TYPED_TEST(RouterTest, RepeatedGateNeedsNoMoves)
{
    TypeParam router(this->machine_, {true, 1});
    auto layout = this->storageLayout(4);
    router.planStageTransition(layout, stageOf({{0, 1}}));
    const SiteId site = layout.siteOf(0);

    const auto plan = router.planStageTransition(layout, stageOf({{0, 1}}));
    EXPECT_TRUE(plan.moves.empty());
    EXPECT_EQ(layout.siteOf(0), site);
    EXPECT_EQ(layout.siteOf(1), site);
    for (const auto &[q, label] : plan.labels)
        EXPECT_EQ(label, MoveLabel::Static);
}

TYPED_TEST(RouterTest, IdleQubitsAreParkedInStorage)
{
    TypeParam router(this->machine_, {true, 1});
    auto layout = this->storageLayout(6);
    router.planStageTransition(layout, stageOf({{0, 1}, {2, 3}}));
    EXPECT_EQ(layout.countInZone(ZoneKind::Compute), 4u);

    // Next stage idles 2 and 3: both must be parked.
    const auto plan = router.planStageTransition(layout, stageOf({{0, 1}}));
    EXPECT_EQ(plan.num_parked, 2u);
    EXPECT_EQ(layout.countInZone(ZoneKind::Compute), 2u);
    EXPECT_EQ(layout.zoneOf(2), ZoneKind::Storage);
    EXPECT_EQ(layout.zoneOf(3), ZoneKind::Storage);
}

TYPED_TEST(RouterTest, ParkedQubitPrefersOwnColumn)
{
    TypeParam router(this->machine_, {true, 1});
    auto layout = this->storageLayout(2);
    router.planStageTransition(layout, stageOf({{0, 1}}));
    const auto column = this->machine_.coordOf(layout.siteOf(0)).x;

    const auto plan = router.planStageTransition(layout, stageOf({}));
    EXPECT_EQ(plan.num_parked, 2u);
    // The pair shared one site; at least one lands in the same column.
    const bool same_column =
        this->machine_.coordOf(layout.siteOf(0)).x == column ||
        this->machine_.coordOf(layout.siteOf(1)).x == column;
    EXPECT_TRUE(same_column);
}

TYPED_TEST(RouterTest, NonStorageEvictsStalePairs)
{
    TypeParam router(this->machine_, {false, 1});
    auto layout = this->computeLayout(6);
    router.planStageTransition(layout, stageOf({{0, 1}}));
    EXPECT_EQ(layout.siteOf(0), layout.siteOf(1));

    // 0 and 1 both idle now: the stale pair must split.
    const auto stage = stageOf({{2, 3}});
    const auto plan = router.planStageTransition(layout, stage);
    EXPECT_EQ(plan.num_evicted, 1u);
    EXPECT_NE(layout.siteOf(0), layout.siteOf(1));
    checkStageLayout(this->machine_, layout, stage, false);
}

TYPED_TEST(RouterTest, NonStorageEvictsIdleAtStaticSite)
{
    TypeParam router(this->machine_, {false, 7});
    auto layout = this->computeLayout(6);
    // Pair up (0,1); afterwards 1 idles co-located with 0 which stays
    // interacting: 1 must be evicted from the interaction site.
    router.planStageTransition(layout, stageOf({{0, 1}}));
    const auto stage = stageOf({{0, 2}});
    router.planStageTransition(layout, stage);
    EXPECT_NE(layout.siteOf(1), layout.siteOf(0));
    checkStageLayout(this->machine_, layout, stage, false);
}

TYPED_TEST(RouterTest, NonStorageNeverUsesStorage)
{
    TypeParam router(this->machine_, {false, 1});
    auto layout = this->computeLayout(8);
    for (const auto &stage :
         {stageOf({{0, 1}, {2, 3}}), stageOf({{1, 2}, {4, 5}}),
          stageOf({{0, 7}, {3, 6}})}) {
        router.planStageTransition(layout, stage);
        EXPECT_EQ(layout.countInZone(ZoneKind::Storage), 0u);
    }
}

TYPED_TEST(RouterTest, MovesDepartFromTruePositions)
{
    TypeParam router(this->machine_, {true, 1});
    auto layout = this->storageLayout(8);
    Layout before = layout;
    const auto plan =
        router.planStageTransition(layout, stageOf({{0, 5}, {2, 7}}));
    for (const auto &move : plan.moves) {
        EXPECT_EQ(move.from, before.siteOf(move.qubit));
        EXPECT_EQ(layout.siteOf(move.qubit), move.to);
        EXPECT_NE(move.from, move.to);
    }
}

TYPED_TEST(RouterTest, EachQubitMovesAtMostOncePerTransition)
{
    TypeParam router(this->machine_, {true, 1});
    auto layout = this->storageLayout(10);
    const auto plan = router.planStageTransition(
        layout, stageOf({{0, 9}, {1, 8}, {2, 7}}));
    std::vector<QubitId> movers;
    for (const auto &move : plan.moves)
        movers.push_back(move.qubit);
    std::sort(movers.begin(), movers.end());
    EXPECT_TRUE(std::adjacent_find(movers.begin(), movers.end()) ==
                movers.end());
}

TYPED_TEST(RouterTest, DeterministicForFixedSeed)
{
    const RouterOptions options{true, 1234};
    TypeParam router_a(this->machine_, options);
    TypeParam router_b(this->machine_, options);
    auto layout_a = this->storageLayout(8);
    auto layout_b = this->storageLayout(8);
    for (const auto &stage :
         {stageOf({{0, 1}, {2, 3}}), stageOf({{1, 2}}), stageOf({{0, 3}})}) {
        const auto plan_a = router_a.planStageTransition(layout_a, stage);
        const auto plan_b = router_b.planStageTransition(layout_b, stage);
        EXPECT_EQ(plan_a.moves, plan_b.moves);
    }
}

TYPED_TEST(RouterTest, RequiresPlacedLayout)
{
    TypeParam router(this->machine_, {true, 1});
    Layout layout(this->machine_, 4);
    EXPECT_THROW(router.planStageTransition(layout, stageOf({{0, 1}})),
                 InternalError);
}

TYPED_TEST(RouterTest, RejectsOverlappingStage)
{
    TypeParam router(this->machine_, {true, 1});
    auto layout = this->storageLayout(4);
    Stage bad;
    bad.gates = {CzGate{0, 1}, CzGate{1, 2}};
    EXPECT_THROW(router.planStageTransition(layout, bad), InternalError);
}

/** Routes 25 random stages, checking the post-conditions after each. */
template <typename Router>
void
checkRandomStageSequence(bool use_storage, std::uint64_t seed)
{
    const std::size_t n = 20;
    const Machine machine(MachineConfig::forQubits(n));
    Router router(machine, {use_storage, seed});
    Layout layout(machine, n);
    placeRowMajor(layout,
                  use_storage ? ZoneKind::Storage : ZoneKind::Compute);

    Rng rng(seed * 31 + 7);
    for (int step = 0; step < 25; ++step) {
        // Random matching over a random subset of qubits.
        std::vector<QubitId> qubits(n);
        for (QubitId q = 0; q < n; ++q)
            qubits[q] = q;
        rng.shuffle(qubits);
        const std::size_t pairs = 1 + rng.nextBelow(n / 2);
        Stage stage;
        for (std::size_t p = 0; p < pairs; ++p)
            stage.gates.push_back(
                CzGate{qubits[2 * p], qubits[2 * p + 1]}.canonical());

        router.planStageTransition(layout, stage);
        checkStageLayout(machine, layout, stage, use_storage);
    }
}

/** Multi-stage randomized property sweep. */
class RouterProperty
    : public ::testing::TestWithParam<std::tuple<bool, std::uint64_t>>
{};

TEST_P(RouterProperty, InvariantsHoldOverRandomStageSequences)
{
    const auto [use_storage, seed] = GetParam();
    checkRandomStageSequence<ContinuousRouter>(use_storage, seed);
    checkRandomStageSequence<reference::ContinuousRouter>(use_storage, seed);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, RouterProperty,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)));

} // namespace
} // namespace powermove
