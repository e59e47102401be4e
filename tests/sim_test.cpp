/** @file Unit tests for the state-vector simulator. */

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "statevector.hpp"

namespace powermove {
namespace {

constexpr double kEps = 1e-12;

TEST(StateVectorTest, InitialStateIsZeroKet)
{
    const StateVector state(3);
    EXPECT_EQ(state.dimension(), 8u);
    EXPECT_NEAR(std::norm(state.amplitude(0)), 1.0, kEps);
    for (std::size_t i = 1; i < 8; ++i)
        EXPECT_NEAR(std::norm(state.amplitude(i)), 0.0, kEps);
}

TEST(StateVectorTest, SizeLimitsEnforced)
{
    EXPECT_THROW(StateVector(0), ConfigError);
    EXPECT_THROW(StateVector(21), ConfigError);
}

TEST(StateVectorTest, HadamardCreatesEqualSuperposition)
{
    StateVector state(1);
    state.apply(OneQGate{OneQKind::H, 0, 0.0});
    EXPECT_NEAR(std::norm(state.amplitude(0)), 0.5, kEps);
    EXPECT_NEAR(std::norm(state.amplitude(1)), 0.5, kEps);
    // HH = I.
    state.apply(OneQGate{OneQKind::H, 0, 0.0});
    EXPECT_NEAR(std::norm(state.amplitude(0)), 1.0, kEps);
}

TEST(StateVectorTest, XFlipsBasisState)
{
    StateVector state(2);
    state.apply(OneQGate{OneQKind::X, 1, 0.0});
    EXPECT_NEAR(std::norm(state.amplitude(0b10)), 1.0, kEps);
    EXPECT_NEAR(state.probabilityOfOne(1), 1.0, kEps);
    EXPECT_NEAR(state.probabilityOfOne(0), 0.0, kEps);
}

TEST(StateVectorTest, CzPhasesOnlyTheOneOneComponent)
{
    StateVector state(2);
    state.apply(OneQGate{OneQKind::H, 0, 0.0});
    state.apply(OneQGate{OneQKind::H, 1, 0.0});
    state.apply(CzGate{0, 1});
    EXPECT_NEAR(state.amplitude(0b11).real(), -0.5, kEps);
    EXPECT_NEAR(state.amplitude(0b01).real(), 0.5, kEps);
    EXPECT_NEAR(state.norm(), 1.0, kEps);
}

TEST(StateVectorTest, SSquaredIsZ)
{
    StateVector s_twice(1);
    s_twice.apply(OneQGate{OneQKind::H, 0, 0.0});
    s_twice.apply(OneQGate{OneQKind::S, 0, 0.0});
    s_twice.apply(OneQGate{OneQKind::S, 0, 0.0});

    StateVector z_once(1);
    z_once.apply(OneQGate{OneQKind::H, 0, 0.0});
    z_once.apply(OneQGate{OneQKind::Z, 0, 0.0});
    EXPECT_NEAR(StateVector::overlap(s_twice, z_once), 1.0, kEps);
}

TEST(StateVectorTest, TSquaredIsS)
{
    StateVector t_twice(1);
    t_twice.apply(OneQGate{OneQKind::H, 0, 0.0});
    t_twice.apply(OneQGate{OneQKind::T, 0, 0.0});
    t_twice.apply(OneQGate{OneQKind::T, 0, 0.0});

    StateVector s_once(1);
    s_once.apply(OneQGate{OneQKind::H, 0, 0.0});
    s_once.apply(OneQGate{OneQKind::S, 0, 0.0});
    EXPECT_NEAR(StateVector::overlap(t_twice, s_once), 1.0, kEps);
}

TEST(StateVectorTest, RotationsInvertWithNegatedAngle)
{
    Rng rng(5);
    for (const auto kind : {OneQKind::Rx, OneQKind::Ry, OneQKind::Rz}) {
        StateVector state = StateVector::random(3, rng);
        const StateVector before = state;
        state.apply(OneQGate{kind, 1, 0.77});
        state.apply(OneQGate{kind, 1, -0.77});
        EXPECT_NEAR(StateVector::overlap(state, before), 1.0, kEps);
    }
}

TEST(StateVectorTest, BellStateViaHadamardConjugatedCz)
{
    // H(1); CZ(0,1); H(1) after H(0) = CX(0,1) on |00>: Bell state.
    StateVector state(2);
    state.apply(OneQGate{OneQKind::H, 0, 0.0});
    state.apply(OneQGate{OneQKind::H, 1, 0.0});
    state.apply(CzGate{0, 1});
    state.apply(OneQGate{OneQKind::H, 1, 0.0});
    EXPECT_NEAR(std::norm(state.amplitude(0b00)), 0.5, kEps);
    EXPECT_NEAR(std::norm(state.amplitude(0b11)), 0.5, kEps);
    EXPECT_NEAR(std::norm(state.amplitude(0b01)), 0.0, kEps);
    EXPECT_NEAR(std::norm(state.amplitude(0b10)), 0.0, kEps);
}

TEST(StateVectorTest, RandomStateIsNormalized)
{
    Rng rng(11);
    const StateVector state = StateVector::random(5, rng);
    EXPECT_NEAR(state.norm(), 1.0, kEps);
}

TEST(StateVectorTest, OverlapBoundsAndSelfOverlap)
{
    Rng rng(13);
    const StateVector a = StateVector::random(4, rng);
    const StateVector b = StateVector::random(4, rng);
    EXPECT_NEAR(StateVector::overlap(a, a), 1.0, kEps);
    const double cross = StateVector::overlap(a, b);
    EXPECT_GE(cross, 0.0);
    EXPECT_LE(cross, 1.0 + kEps);
}

TEST(StateVectorTest, GlobalPhaseInsensitivity)
{
    // Rz(2pi) = -I: a pure global phase; overlap must still be 1.
    Rng rng(17);
    StateVector state = StateVector::random(2, rng);
    const StateVector before = state;
    state.apply(OneQGate{OneQKind::Rz, 0, 2.0 * std::numbers::pi});
    EXPECT_NEAR(StateVector::overlap(state, before), 1.0, kEps);
}

TEST(StateVectorTest, UnitarityPreservedOverRandomCircuit)
{
    Rng rng(19);
    StateVector state = StateVector::random(4, rng);
    for (int i = 0; i < 50; ++i) {
        const auto q = static_cast<QubitId>(rng.nextBelow(4));
        state.apply(OneQGate{OneQKind::Ry, q, rng.nextDouble()});
        const auto p = static_cast<QubitId>(rng.nextBelow(4));
        if (p != q)
            state.apply(CzGate{p, q});
    }
    EXPECT_NEAR(state.norm(), 1.0, 1e-9);
}

} // namespace
} // namespace powermove
