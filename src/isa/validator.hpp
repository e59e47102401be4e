/**
 * @file
 * Machine-schedule validation and Eq. (1) scoring.
 *
 * The validator replays a compiled program against the machine model and
 * enforces every hardware rule the compilers must respect:
 *
 *  - each Coll-Move is AOD-compatible (no row/column order changes);
 *  - every relocation starts from the qubit's actual current site;
 *  - a qubit moves at most once per parallel batch;
 *  - at every Rydberg pulse: gates act on disjoint qubits, every gate
 *    pair shares one compute-zone site, every co-located pair *is* a
 *    gate of that pulse (no unwanted blockade), compute sites hold at
 *    most two qubits and storage sites at most one.
 *
 * Site capacity is enforced at pulse boundaries and at program end;
 * transient co-residence while atoms ride an AOD mid-transition is
 * allowed (atoms in mobile traps hover independently of SLM occupancy).
 * Every gate qubit and every move's qubit and sites are range-checked
 * before use, so a corrupt schedule fails with ValidationError.
 *
 * The same replay scores each instruction that passes its checks into
 * the Eq. (1) breakdown. Timing (paper Table 1, Sec. 6.2): a 1Q layer
 * takes depth * t_1q, a move batch 2 * t_transfer plus its slowest move,
 * a pulse t_cz. A pulse excites every compute-zone qubit it does not
 * gate. A qubit idles through every instruction in which it neither
 * executes a gate nor stays in storage (in storage both before and
 * after: transit is unprotected).
 *
 * Cost: one O(sites) census at program start, O(moves + gates) per
 * instruction, O(num_qubits) at the end. Occupancy counts keep tallies
 * of over-capacity sites, two-atom compute sites and compute-zone atoms.
 * As a pulse's gates sit on distinct two-atom compute sites, it has no
 * unwanted blockade exactly when the pair tally equals the gate count,
 * and it excites the atom tally minus twice the gate count. Idle time is
 * charged per compute-zone residency from two global clocks (summed
 * move-batch time, pulse count) stamped at entry, read at exit. An
 * O(sites) scan runs only on a failure path, to report the lowest
 * offending site, so the first error and its text match a full census.
 *
 * validateCompleteness() proves, without a replay, that the pulses
 * execute exactly the source circuit's CZ gates, block by block and in
 * block order, and that the 1Q gate count matches;
 * validateAgainstCircuit() runs both. Each result is checked once, where
 * it comes into being: the compilers call validateAgainstCircuit(), a
 * disk-cache decode validateSchedule(), and JobService
 * validateCompleteness() on a disk hit.
 */

#ifndef POWERMOVE_ISA_VALIDATOR_HPP
#define POWERMOVE_ISA_VALIDATOR_HPP

#include "circuit/circuit.hpp"
#include "fidelity/breakdown.hpp"
#include "isa/machine_schedule.hpp"

namespace powermove {

/**
 * Replays @p schedule and returns its fidelity/time breakdown; throws
 * ValidationError on any hardware violation.
 */
FidelityBreakdown validateSchedule(const MachineSchedule &schedule);

/** Throws ValidationError unless @p schedule executes @p circuit. */
void validateCompleteness(const MachineSchedule &schedule,
                          const Circuit &circuit);

/**
 * Validates hardware legality and completeness against the source
 * circuit and returns the schedule's breakdown; throws ValidationError
 * on any mismatch.
 */
FidelityBreakdown validateAgainstCircuit(const MachineSchedule &schedule,
                                         const Circuit &circuit);

} // namespace powermove

#endif // POWERMOVE_ISA_VALIDATOR_HPP
