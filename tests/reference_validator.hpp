/**
 * @file
 * Census-based reference validator: a test oracle for isa/validator.
 *
 * This is the straightforward replay the production validator replaced.
 * At every Rydberg pulse it builds a full occupancy census (one occupant
 * list per machine site) and scans every site for capacity and every
 * compute site for unwanted pairs, so it costs O(sites) per pulse. It
 * enforces the same hardware rules and reports the same first error
 * with the same message, which is what the differential tests assert.
 *
 * It trusts gate and move operands to lie in range (an out-of-range
 * gate qubit is read past the end of the position table); the
 * production validator's typed errors for such schedules are tested
 * directly, not against this oracle.
 */

#ifndef POWERMOVE_TESTS_REFERENCE_VALIDATOR_HPP
#define POWERMOVE_TESTS_REFERENCE_VALIDATOR_HPP

#include "circuit/circuit.hpp"
#include "isa/machine_schedule.hpp"

namespace powermove::reference {

/** Replays @p schedule; throws ValidationError on any hardware violation. */
void validateSchedule(const MachineSchedule &schedule);

/**
 * Validates hardware legality and completeness against the source
 * circuit; throws ValidationError on any mismatch.
 */
void validateAgainstCircuit(const MachineSchedule &schedule,
                            const Circuit &circuit);

} // namespace powermove::reference

#endif // POWERMOVE_TESTS_REFERENCE_VALIDATOR_HPP
