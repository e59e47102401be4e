/** @file Semantic-equivalence tests via exact simulation.
 *
 * These tests prove unitary equivalence (not just matching gate counts)
 * for the circuit transformation passes, the QASM decompositions, and
 * the writer round trip, by comparing state evolution on random input
 * states.
 */

#include <gtest/gtest.h>

#include "circuit/fuse.hpp"
#include "circuit/transform.hpp"
#include "common/rng.hpp"
#include "qasm/converter.hpp"
#include "qasm/writer.hpp"
#include "statevector.hpp"

namespace powermove {
namespace {

constexpr double kEps = 1e-9;

/** |<psi|A|x> vs <psi|B|x>| agreement on random states. */
void
expectEquivalent(const Circuit &a, const Circuit &b, std::uint64_t seed,
                 int trials = 4)
{
    ASSERT_EQ(a.numQubits(), b.numQubits());
    Rng rng(seed);
    for (int t = 0; t < trials; ++t) {
        StateVector sa = StateVector::random(a.numQubits(), rng);
        StateVector sb = sa;
        sa.applyCircuit(a);
        sb.applyCircuit(b);
        EXPECT_NEAR(StateVector::overlap(sa, sb), 1.0, kEps)
            << "trial " << t;
    }
}

Circuit
randomCircuit(std::size_t num_qubits, std::uint64_t seed)
{
    Rng rng(seed);
    Circuit circuit(num_qubits);
    for (int m = 0; m < 30; ++m) {
        if (rng.nextBool(0.5)) {
            static const OneQKind kinds[] = {
                OneQKind::H,  OneQKind::X,   OneQKind::Z, OneQKind::S,
                OneQKind::T,  OneQKind::Rz,  OneQKind::Rx};
            circuit.append(OneQGate{
                kinds[rng.nextBelow(7)],
                static_cast<QubitId>(rng.nextBelow(num_qubits)),
                rng.nextDouble() * 3.0});
        } else {
            const auto a = static_cast<QubitId>(rng.nextBelow(num_qubits));
            const auto b = static_cast<QubitId>(rng.nextBelow(num_qubits));
            if (a != b)
                circuit.append(CzGate{a, b});
        }
    }
    return circuit;
}

// ---- transformation passes -------------------------------------------

class PassSemantics : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(PassSemantics, BlockFusionPreservesUnitary)
{
    const Circuit circuit = randomCircuit(5, GetParam());
    expectEquivalent(circuit, fuseCommutableBlocks(circuit),
                     GetParam() * 3 + 1);
}

TEST_P(PassSemantics, CancellationPreservesUnitary)
{
    const Circuit circuit = randomCircuit(5, GetParam());
    expectEquivalent(circuit, cancelAdjacentOneQ(circuit),
                     GetParam() * 5 + 2);
}

TEST_P(PassSemantics, InverseUndoesTheCircuit)
{
    const Circuit circuit = randomCircuit(4, GetParam());
    Rng rng(GetParam() * 7 + 3);
    StateVector state = StateVector::random(4, rng);
    const StateVector before = state;
    state.applyCircuit(circuit);
    state.applyCircuit(inverseCircuit(circuit));
    EXPECT_NEAR(StateVector::overlap(state, before), 1.0, kEps);
}

TEST_P(PassSemantics, WriterRoundTripPreservesUnitary)
{
    const Circuit circuit = randomCircuit(5, GetParam());
    const Circuit reparsed = qasm::loadQasm(qasm::writeQasm(circuit)).circuit;
    expectEquivalent(circuit, reparsed, GetParam() * 11 + 4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PassSemantics,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// ---- QASM decompositions ---------------------------------------------

TEST(DecompositionSemantics, CxActsAsControlledX)
{
    const auto cx = qasm::loadQasm("qreg q[2]; cx q[0],q[1];").circuit;
    // On |10> (control set) the target flips to give |11>.
    StateVector state(2);
    state.apply(OneQGate{OneQKind::X, 0, 0.0});
    state.applyCircuit(cx);
    EXPECT_NEAR(std::norm(state.amplitude(0b11)), 1.0, kEps);
    // On |01> (control clear) nothing happens.
    StateVector idle(2);
    idle.apply(OneQGate{OneQKind::X, 1, 0.0});
    idle.applyCircuit(cx);
    EXPECT_NEAR(std::norm(idle.amplitude(0b10)), 1.0, kEps);
}

TEST(DecompositionSemantics, SwapExchangesStates)
{
    const auto swap = qasm::loadQasm("qreg q[2]; swap q[0],q[1];").circuit;
    StateVector state(2);
    state.apply(OneQGate{OneQKind::X, 0, 0.0}); // |01> (qubit 0 set)
    state.applyCircuit(swap);
    EXPECT_NEAR(std::norm(state.amplitude(0b10)), 1.0, kEps);
}

TEST(DecompositionSemantics, ToffoliOnBasisStates)
{
    const auto ccx =
        qasm::loadQasm("qreg q[3]; ccx q[0],q[1],q[2];").circuit;
    // Both controls set: target flips.
    StateVector both(3);
    both.apply(OneQGate{OneQKind::X, 0, 0.0});
    both.apply(OneQGate{OneQKind::X, 1, 0.0});
    both.applyCircuit(ccx);
    EXPECT_NEAR(std::norm(both.amplitude(0b111)), 1.0, kEps);
    // One control set: nothing flips.
    StateVector one(3);
    one.apply(OneQGate{OneQKind::X, 0, 0.0});
    one.applyCircuit(ccx);
    EXPECT_NEAR(std::norm(one.amplitude(0b001)), 1.0, kEps);
}

TEST(DecompositionSemantics, CpMatchesDirectPhaseApplication)
{
    const double lambda = 0.93;
    const auto cp = qasm::loadQasm("qreg q[2]; cp(0.93) q[0],q[1];").circuit;

    Rng rng(31);
    StateVector via_decomposition = StateVector::random(2, rng);
    StateVector expected = via_decomposition;
    via_decomposition.applyCircuit(cp);

    // Reference: multiply the |11> amplitude by e^{i lambda} directly.
    StateVector reference(2);
    for (std::size_t i = 0; i < 4; ++i) {
        // Build reference from expected's amplitudes.
        (void)reference;
    }
    // Compare phases via overlap with a manually phased copy: construct
    // the reference by applying rz decomposition identity instead.
    const auto rzz = qasm::loadQasm(
        "qreg q[2]; rz(0.465) q[0]; rz(0.465) q[1]; rzz(-0.465) q[0],q[1];")
                         .circuit;
    // cp(l) = e^{il/4} * rz(l/2) rz(l/2) exp(-i l/4 ZZ); global phase
    // cancels in the overlap.
    expected.applyCircuit(rzz);
    EXPECT_NEAR(StateVector::overlap(via_decomposition, expected), 1.0,
                kEps)
        << "lambda=" << lambda;
}

TEST(DecompositionSemantics, GhzPreparation)
{
    const auto ghz = qasm::loadQasm(
        "qreg q[4]; h q[0]; cx q[0],q[1]; cx q[1],q[2]; cx q[2],q[3];")
                         .circuit;
    StateVector state(4);
    state.applyCircuit(ghz);
    EXPECT_NEAR(std::norm(state.amplitude(0b0000)), 0.5, kEps);
    EXPECT_NEAR(std::norm(state.amplitude(0b1111)), 0.5, kEps);
}

TEST(DecompositionSemantics, UserGateExpansionMatchesInline)
{
    const auto via_gate = qasm::loadQasm(
        "qreg q[2];\n"
        "gate zz(g) a,b { cx a,b; rz(2*g) b; cx a,b; }\n"
        "zz(0.35) q[0],q[1];\n").circuit;
    const auto inline_form = qasm::loadQasm(
        "qreg q[2]; cx q[0],q[1]; rz(0.7) q[1]; cx q[0],q[1];").circuit;
    expectEquivalent(via_gate, inline_form, 41);
}

} // namespace
} // namespace powermove
