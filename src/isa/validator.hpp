/**
 * @file
 * Machine-schedule validation.
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
 * Cost: the replay takes one O(sites) census at program start, then
 * O(moves + gates) per instruction. Occupancy counts keep tallies of
 * over-capacity sites and of two-atom compute sites current, and since
 * a pulse's gates sit on distinct two-atom compute sites, there is no
 * unwanted blockade exactly when the pair tally equals the gate count.
 * An O(sites) scan runs only on a failure path, to report the lowest
 * offending site, so the first error and its text match a full census.
 *
 * validateAgainstCircuit() additionally proves completeness: the pulses
 * execute exactly the source circuit's CZ gates, block by block and in
 * block order, and the 1Q gate count matches.
 */

#ifndef POWERMOVE_ISA_VALIDATOR_HPP
#define POWERMOVE_ISA_VALIDATOR_HPP

#include "circuit/circuit.hpp"
#include "isa/machine_schedule.hpp"

namespace powermove {

/** Replays @p schedule; throws ValidationError on any hardware violation. */
void validateSchedule(const MachineSchedule &schedule);

/**
 * Validates hardware legality and completeness against the source
 * circuit; throws ValidationError on any mismatch.
 */
void validateAgainstCircuit(const MachineSchedule &schedule,
                            const Circuit &circuit);

} // namespace powermove

#endif // POWERMOVE_ISA_VALIDATOR_HPP
