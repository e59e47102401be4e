/**
 * @file
 * Per-instruction reference evaluator: a test oracle for the Eq. (1)
 * scoring folded into isa/validator.
 *
 * This is the straightforward replay the production scorer replaced. At
 * every move batch it records which qubits sit in storage and then
 * charges the batch's duration to every qubit not stored both before
 * and after it; at every Rydberg pulse it marks the gate qubits and
 * scans every qubit for excitation exposure and idle time. So it costs
 * O(num_qubits) per instruction, and it adds each qubit's idle time
 * instruction by instruction, where the production replay charges it
 * per compute-zone residency. Counts, execution time and the 1Q, 2Q,
 * excitation and transfer factors agree bit for bit; idle sums may
 * differ in rounding, which is what the differential tests bound.
 *
 * It checks no hardware rule: a schedule it scores must be legal.
 */

#ifndef POWERMOVE_TESTS_REFERENCE_EVALUATOR_HPP
#define POWERMOVE_TESTS_REFERENCE_EVALUATOR_HPP

#include "fidelity/breakdown.hpp"
#include "isa/machine_schedule.hpp"

namespace powermove::reference {

/** Replays @p schedule and computes its fidelity/time breakdown. */
FidelityBreakdown evaluateSchedule(const MachineSchedule &schedule);

} // namespace powermove::reference

#endif // POWERMOVE_TESTS_REFERENCE_EVALUATOR_HPP
