#include "statevector.hpp"

#include <cmath>
#include <numbers>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace powermove {

namespace {

constexpr std::size_t kMaxSimQubits = 20;
const std::complex<double> kI{0.0, 1.0};

} // namespace

StateVector::StateVector(std::size_t num_qubits) : num_qubits_(num_qubits)
{
    if (num_qubits == 0 || num_qubits > kMaxSimQubits)
        fatal("state-vector simulation supports 1.." +
              std::to_string(kMaxSimQubits) + " qubits");
    amplitudes_.assign(std::size_t{1} << num_qubits, {0.0, 0.0});
    amplitudes_[0] = {1.0, 0.0};
}

StateVector
StateVector::random(std::size_t num_qubits, Rng &rng)
{
    StateVector state(num_qubits);
    double norm_sq = 0.0;
    for (auto &amplitude : state.amplitudes_) {
        // Gaussian-ish amplitudes via sums of uniforms are fine here.
        const double re = rng.nextDouble() - 0.5 + rng.nextDouble() - 0.5;
        const double im = rng.nextDouble() - 0.5 + rng.nextDouble() - 0.5;
        amplitude = {re, im};
        norm_sq += std::norm(amplitude);
    }
    const double scale = 1.0 / std::sqrt(norm_sq);
    for (auto &amplitude : state.amplitudes_)
        amplitude *= scale;
    return state;
}

StateVector::Amplitude
StateVector::amplitude(std::size_t index) const
{
    PM_ASSERT(index < amplitudes_.size(), "basis index out of range");
    return amplitudes_[index];
}

double
StateVector::norm() const
{
    double total = 0.0;
    for (const auto &amplitude : amplitudes_)
        total += std::norm(amplitude);
    return total;
}

double
StateVector::probabilityOfOne(QubitId q) const
{
    PM_ASSERT(q < num_qubits_, "qubit out of range");
    const std::size_t bit = std::size_t{1} << q;
    double probability = 0.0;
    for (std::size_t index = 0; index < amplitudes_.size(); ++index) {
        if (index & bit)
            probability += std::norm(amplitudes_[index]);
    }
    return probability;
}

void
StateVector::applyMatrix(QubitId q, Amplitude m00, Amplitude m01,
                         Amplitude m10, Amplitude m11)
{
    PM_ASSERT(q < num_qubits_, "qubit out of range");
    const std::size_t bit = std::size_t{1} << q;
    for (std::size_t base = 0; base < amplitudes_.size(); ++base) {
        if (base & bit)
            continue;
        const Amplitude a0 = amplitudes_[base];
        const Amplitude a1 = amplitudes_[base | bit];
        amplitudes_[base] = m00 * a0 + m01 * a1;
        amplitudes_[base | bit] = m10 * a0 + m11 * a1;
    }
}

void
StateVector::apply(const OneQGate &gate)
{
    const double inv_sqrt2 = 1.0 / std::numbers::sqrt2;
    const double half = gate.angle / 2.0;
    switch (gate.kind) {
      case OneQKind::H:
        applyMatrix(gate.qubit, inv_sqrt2, inv_sqrt2, inv_sqrt2, -inv_sqrt2);
        return;
      case OneQKind::X:
        applyMatrix(gate.qubit, 0.0, 1.0, 1.0, 0.0);
        return;
      case OneQKind::Y:
        applyMatrix(gate.qubit, 0.0, -kI, kI, 0.0);
        return;
      case OneQKind::Z:
        applyMatrix(gate.qubit, 1.0, 0.0, 0.0, -1.0);
        return;
      case OneQKind::S:
        applyMatrix(gate.qubit, 1.0, 0.0, 0.0, kI);
        return;
      case OneQKind::Sdg:
        applyMatrix(gate.qubit, 1.0, 0.0, 0.0, -kI);
        return;
      case OneQKind::T:
        applyMatrix(gate.qubit, 1.0, 0.0, 0.0, std::exp(kI * (std::numbers::pi / 4.0)));
        return;
      case OneQKind::Tdg:
        applyMatrix(gate.qubit, 1.0, 0.0, 0.0, std::exp(-kI * (std::numbers::pi / 4.0)));
        return;
      case OneQKind::Rx:
        applyMatrix(gate.qubit, std::cos(half), -kI * std::sin(half),
                    -kI * std::sin(half), std::cos(half));
        return;
      case OneQKind::Ry:
      case OneQKind::U: // U(theta) = u3(theta, 0, 0) = Ry(theta)
        applyMatrix(gate.qubit, std::cos(half), -std::sin(half),
                    std::sin(half), std::cos(half));
        return;
      case OneQKind::Rz:
        applyMatrix(gate.qubit, std::exp(-kI * half), 0.0, 0.0,
                    std::exp(kI * half));
        return;
    }
    panic("unknown 1Q gate kind in simulation");
}

void
StateVector::apply(const CzGate &gate)
{
    PM_ASSERT(gate.a < num_qubits_ && gate.b < num_qubits_,
              "qubit out of range");
    PM_ASSERT(gate.a != gate.b, "CZ endpoints must differ");
    const std::size_t mask =
        (std::size_t{1} << gate.a) | (std::size_t{1} << gate.b);
    for (std::size_t index = 0; index < amplitudes_.size(); ++index) {
        if ((index & mask) == mask)
            amplitudes_[index] = -amplitudes_[index];
    }
}

void
StateVector::applyCircuit(const Circuit &circuit)
{
    PM_ASSERT(circuit.numQubits() == num_qubits_,
              "circuit width must match the register");
    for (const auto &moment : circuit.moments()) {
        if (const auto *layer = std::get_if<OneQLayer>(&moment)) {
            for (const auto &gate : layer->gates)
                apply(gate);
        } else {
            for (const auto &gate : std::get<CzBlock>(moment).gates)
                apply(gate);
        }
    }
}

double
StateVector::overlap(const StateVector &a, const StateVector &b)
{
    PM_ASSERT(a.dimension() == b.dimension(),
              "states must have equal dimension");
    Amplitude inner{0.0, 0.0};
    for (std::size_t index = 0; index < a.amplitudes_.size(); ++index)
        inner += std::conj(a.amplitudes_[index]) * b.amplitudes_[index];
    return std::norm(inner);
}

} // namespace powermove
