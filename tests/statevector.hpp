/**
 * @file
 * A dense state-vector simulator.
 *
 * Small (intended for <= ~14 qubits) but exact: used by the test suite
 * to prove that circuit transformations (block fusion, 1Q cancellation,
 * inversion), QASM decompositions (CX/CP/SWAP/CCX/RZZ) and write/parse
 * round trips preserve circuit *semantics*, not merely gate counts.
 *
 * Conventions: qubit q occupies bit q of the amplitude index (little
 * endian); the generic one-pulse gate U(theta) is u3(theta, 0, 0), i.e.
 * Ry(theta), matching the writer's emission.
 */

#ifndef POWERMOVE_TESTS_STATEVECTOR_HPP
#define POWERMOVE_TESTS_STATEVECTOR_HPP

#include <complex>
#include <vector>

#include "circuit/circuit.hpp"

namespace powermove {

class Rng;

/** An exact quantum state over a small register. */
class StateVector
{
  public:
    using Amplitude = std::complex<double>;

    /** Initializes |0...0> over @p num_qubits qubits. */
    explicit StateVector(std::size_t num_qubits);

    /** A random normalized state (for equivalence testing). */
    static StateVector random(std::size_t num_qubits, Rng &rng);

    std::size_t numQubits() const { return num_qubits_; }
    std::size_t dimension() const { return amplitudes_.size(); }

    /** Amplitude of basis state @p index. */
    Amplitude amplitude(std::size_t index) const;

    /** Squared norm (1 up to rounding for unitary evolution). */
    double norm() const;

    /** Probability of measuring qubit @p q as 1. */
    double probabilityOfOne(QubitId q) const;

    /** Applies a single-qubit gate. */
    void apply(const OneQGate &gate);

    /** Applies a CZ gate. */
    void apply(const CzGate &gate);

    /** Applies every gate of @p circuit in moment order. */
    void applyCircuit(const Circuit &circuit);

    /**
     * |<a|b>|^2 — state fidelity, insensitive to global phase. Both
     * states must have equal dimension.
     */
    static double overlap(const StateVector &a, const StateVector &b);

  private:
    void applyMatrix(QubitId q, Amplitude m00, Amplitude m01, Amplitude m10,
                     Amplitude m11);

    std::size_t num_qubits_;
    std::vector<Amplitude> amplitudes_;
};

} // namespace powermove

#endif // POWERMOVE_TESTS_STATEVECTOR_HPP
