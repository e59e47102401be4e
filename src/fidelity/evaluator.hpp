/**
 * @file
 * The schedule evaluator. Scoring is part of the validator's replay
 * (isa/validator.hpp states the timing and idle model), so a schedule
 * that breaks a hardware rule throws ValidationError. For callers that
 * hold a bare schedule; the compilers and the disk cache call the
 * validator directly.
 */

#ifndef POWERMOVE_FIDELITY_EVALUATOR_HPP
#define POWERMOVE_FIDELITY_EVALUATOR_HPP

#include "isa/validator.hpp"

namespace powermove {

/** Replays @p schedule and computes its fidelity/time breakdown. */
inline FidelityBreakdown
evaluateSchedule(const MachineSchedule &schedule)
{
    return validateSchedule(schedule);
}

} // namespace powermove

#endif // POWERMOVE_FIDELITY_EVALUATOR_HPP
