/**
 * @file
 * The outcome of one compilation run.
 */

#ifndef POWERMOVE_COMPILER_RESULT_HPP
#define POWERMOVE_COMPILER_RESULT_HPP

#include "compiler/profile.hpp"
#include "fidelity/breakdown.hpp"
#include "isa/machine_schedule.hpp"

namespace powermove {

/** A compiled program plus its metrics. */
struct CompileResult
{
    /** The executable machine program. */
    MachineSchedule schedule;
    /** Fidelity and execution-time breakdown (Eq. 1). */
    FidelityBreakdown metrics;
    /** Wall-clock compilation time (T_comp), excluding evaluation. */
    Duration compile_time;
    /** Rydberg stages executed. */
    std::size_t num_stages = 0;
    /** Coll-Moves emitted. */
    std::size_t num_coll_moves = 0;
    /**
     * Per-pass wall time and counters. empty() when the producing
     * compiler does not profile (CompilerOptions::profile_passes off, or
     * the Enola baseline).
     */
    PassProfiles pass_profiles;
};

} // namespace powermove

#endif // POWERMOVE_COMPILER_RESULT_HPP
