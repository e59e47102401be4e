/** @file Property test for the continuous router's incremental structures.
 *
 * The router keeps planned occupancy, free-site bitmasks, a
 * qubit-to-site mirror, and a compute-resident list alive across
 * transitions instead of rebuilding them. This test churns the router
 * through long random park/retrieve/move sequences and, after every
 * single transition, asks auditAgainstLayout() to rebuild each
 * structure from scratch and compare — so any drift (a stale bit, a
 * missed resident swap, an occupancy leak) is caught at the transition
 * that introduced it, not stages later when it corrupts a plan. The
 * same audit backs revert() and apply(), the plan/undo pair the
 * windowed router scores its candidates with.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "route/router.hpp"
#include "schedule/stage.hpp"

namespace powermove {
namespace {

/**
 * A stage built to churn: gate pairs are drawn from a shuffled pool so
 * successive stages retrieve previously parked qubits, park previously
 * interacting ones, and re-pair compute residents in new combinations.
 */
Stage
churnStage(Rng &rng, std::size_t num_qubits)
{
    std::vector<QubitId> qubits(num_qubits);
    for (QubitId q = 0; q < num_qubits; ++q)
        qubits[q] = q;
    rng.shuffle(qubits);
    // Anywhere from one pair (mass parking) to saturation (mass
    // retrieval); both extremes stress different structures.
    const std::size_t pairs = 1 + rng.nextBelow(num_qubits / 2);
    Stage stage;
    for (std::size_t p = 0; p < pairs; ++p)
        stage.gates.push_back(
            CzGate{qubits[2 * p], qubits[2 * p + 1]}.canonical());
    return stage;
}

class FastRouterStateTest
    : public ::testing::TestWithParam<std::tuple<bool, std::uint64_t>>
{};

TEST_P(FastRouterStateTest, IncrementalStateMatchesRebuildAfterEveryChurn)
{
    const auto [use_storage, seed] = GetParam();
    const std::size_t n = 30;
    const Machine machine(MachineConfig::forQubits(n));
    ContinuousRouter router(machine, RouterOptions{use_storage, seed});

    Layout layout(machine, n);
    placeRowMajor(layout,
                  use_storage ? ZoneKind::Storage : ZoneKind::Compute);

    Rng stage_rng(seed ^ 0x636875726eULL); // "churn"
    std::string why;
    for (int step = 0; step < 60; ++step) {
        const Stage stage = churnStage(stage_rng, n);
        router.planStageTransition(layout, stage);
        ASSERT_TRUE(router.auditAgainstLayout(layout, &why))
            << "step " << step << ": " << why;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Churn, FastRouterStateTest,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(11, 22, 33, 44)));

/** Tiny machine: parking pressure keeps every structure near full. */
TEST(FastRouterStatePressureTest, SmallMachineStaysConsistent)
{
    const std::size_t n = 8;
    const Machine machine(MachineConfig::forQubits(n));
    ContinuousRouter router(machine, RouterOptions{true, 5});
    Layout layout(machine, n);
    placeRowMajor(layout, ZoneKind::Storage);

    Rng stage_rng(123);
    std::string why;
    for (int step = 0; step < 80; ++step) {
        const Stage stage = churnStage(stage_rng, n);
        router.planStageTransition(layout, stage);
        ASSERT_TRUE(router.auditAgainstLayout(layout, &why))
            << "step " << step << ": " << why;
    }
}

/**
 * reset() is the documented escape hatch for external layout mutation:
 * after moving a qubit behind the router's back and resetting, the
 * next transition must rebuild and the audits must hold again.
 */
TEST(FastRouterStateResetTest, AuditHoldsAfterResetFromExternalChange)
{
    const std::size_t n = 16;
    const Machine machine(MachineConfig::forQubits(n));
    ContinuousRouter router(machine, RouterOptions{true, 9});
    Layout layout(machine, n);
    placeRowMajor(layout, ZoneKind::Storage);

    Rng stage_rng(77);
    std::string why;
    for (int step = 0; step < 10; ++step) {
        router.planStageTransition(layout, churnStage(stage_rng, n));
        ASSERT_TRUE(router.auditAgainstLayout(layout, &why)) << why;
    }

    // External mutation: stash one idle qubit somewhere else. Pick a
    // storage-resident qubit and a free storage site so the move is
    // legal at the Layout level.
    QubitId moved = n;
    for (QubitId q = 0; q < n; ++q) {
        if (machine.zoneOf(layout.siteOf(q)) == ZoneKind::Storage) {
            moved = q;
            break;
        }
    }
    ASSERT_LT(moved, n);
    SiteId free_site = kInvalidSite;
    for (const SiteId site : machine.storageSites()) {
        if (layout.occupancy(site) == 0) {
            free_site = site;
            break;
        }
    }
    ASSERT_NE(free_site, kInvalidSite);
    layout.moveTo(moved, free_site);

    router.reset();
    for (int step = 0; step < 10; ++step) {
        router.planStageTransition(layout, churnStage(stage_rng, n));
        ASSERT_TRUE(router.auditAgainstLayout(layout, &why))
            << "post-reset: " << why;
    }
}

/** Every qubit's site in @p layout, for before/after comparisons. */
std::vector<SiteId>
sitesOf(const Layout &layout)
{
    std::vector<SiteId> sites(layout.numQubits());
    for (QubitId q = 0; q < layout.numQubits(); ++q)
        sites[q] = layout.siteOf(q);
    return sites;
}

/**
 * Plans a churn stage, reverts it, and checks that both the layout and
 * every incremental structure are back at the pre-plan state; then
 * re-applies the plan (alternately: reverted, or kept as planned) and
 * checks the state again before the next churn stage.
 */
void
churnWithReverts(const Machine &machine, std::size_t n, bool use_storage,
                 std::uint64_t seed, int steps)
{
    ContinuousRouter router(machine, RouterOptions{use_storage, seed});
    Layout layout(machine, n);
    placeRowMajor(layout,
                  use_storage ? ZoneKind::Storage : ZoneKind::Compute);

    Rng stage_rng(seed ^ 0x726576657274ULL); // "revert"
    std::string why;
    for (int step = 0; step < steps; ++step) {
        const Stage stage = churnStage(stage_rng, n);
        const std::vector<SiteId> before = sitesOf(layout);
        const TransitionPlan plan = router.planStageTransition(layout, stage);
        const std::vector<SiteId> planned = sitesOf(layout);

        router.revert(layout, plan);
        ASSERT_TRUE(router.auditAgainstLayout(layout, &why))
            << "after revert, step " << step << ": " << why;
        ASSERT_EQ(sitesOf(layout), before)
            << "revert left the layout changed at step " << step;

        // Continue from the reverted plan re-applied (the windowed
        // router's commit path) or from a fresh plan of the next stage
        // straight off the reverted state.
        if (step % 2 == 0) {
            router.apply(layout, plan);
            ASSERT_TRUE(router.auditAgainstLayout(layout, &why))
                << "after apply, step " << step << ": " << why;
            ASSERT_EQ(sitesOf(layout), planned)
                << "apply diverged from the planned layout at step "
                << step;
        }
    }
}

class RouterRevertTest
    : public ::testing::TestWithParam<std::tuple<bool, std::uint64_t>>
{};

TEST_P(RouterRevertTest, RevertRestoresLayoutAndStateAfterEveryChurn)
{
    const auto [use_storage, seed] = GetParam();
    const std::size_t n = 30;
    const Machine machine(MachineConfig::forQubits(n));
    churnWithReverts(machine, n, use_storage, seed, 60);
}

INSTANTIATE_TEST_SUITE_P(
    Churn, RouterRevertTest,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(11, 22, 33, 44)));

/** Tiny machine: revert under parking pressure, in both zone modes. */
TEST(RouterRevertPressureTest, SmallMachineRevertsCleanly)
{
    const std::size_t n = 8;
    const Machine machine(MachineConfig::forQubits(n));
    churnWithReverts(machine, n, true, 5, 80);
    churnWithReverts(machine, n, false, 5, 80);
}

/**
 * Storage-free evictions: a stale pair left co-located must scatter, and
 * reverting the eviction must put both atoms back on their shared site.
 */
TEST(RouterRevertEvictionTest, RevertUndoesStorageFreeEvictions)
{
    const std::size_t n = 6;
    const Machine machine(MachineConfig::forQubits(16));
    Rng stream(1);
    ContinuousRouter router(machine, RouterOptions{false, 1}, stream);
    Layout layout(machine, n);
    placeRowMajor(layout, ZoneKind::Compute);
    router.planStageTransition(layout, Stage{{CzGate{0, 1}}});
    ASSERT_EQ(layout.siteOf(0), layout.siteOf(1));

    const std::vector<SiteId> before = sitesOf(layout);
    const Rng saved = stream;
    const TransitionPlan plan =
        router.planStageTransition(layout, Stage{{CzGate{2, 3}}});
    ASSERT_EQ(plan.num_evicted, 1u);
    router.revert(layout, plan);
    std::string why;
    ASSERT_TRUE(router.auditAgainstLayout(layout, &why)) << why;
    EXPECT_EQ(sitesOf(layout), before);
    EXPECT_EQ(layout.siteOf(0), layout.siteOf(1));

    // From the reverted state and the same RNG position, the same
    // transition plans identically.
    stream = saved;
    const TransitionPlan again =
        router.planStageTransition(layout, Stage{{CzGate{2, 3}}});
    EXPECT_EQ(again.moves, plan.moves);
}

} // namespace
} // namespace powermove
