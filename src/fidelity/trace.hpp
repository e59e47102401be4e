/**
 * @file
 * Timeline traces of compiled programs.
 *
 * Where the evaluator reduces a schedule to the Eq. (1) scalars, the
 * trace keeps the time axis: per-instruction start times and durations,
 * per-qubit storage dwell, and movement statistics. The schedule-export
 * example prints it; no bench or production path calls it.
 */

#ifndef POWERMOVE_FIDELITY_TRACE_HPP
#define POWERMOVE_FIDELITY_TRACE_HPP

#include <cstdint>
#include <vector>

#include "isa/machine_schedule.hpp"

namespace powermove {

/** Kind tags for traced instructions. */
enum class TraceKind : std::uint8_t { OneQ, Move, Rydberg };

/** One instruction on the wall-clock axis. */
struct InstructionTrace
{
    TraceKind kind = TraceKind::OneQ;
    Duration start;
    Duration duration;
    /** Moved qubits (Move) or touched qubits (Rydberg); empty for 1Q. */
    std::size_t involved = 0;
};

/** A full program timeline. */
struct ScheduleTrace
{
    std::vector<InstructionTrace> instructions;
    /** Wall time per qubit spent inside the storage zone. */
    std::vector<Duration> storage_dwell;
    /** End-to-end makespan. */
    Duration total;
    /** Wall time spent moving atoms (sum of batch durations). */
    Duration moving;
    /** Summed point-to-point distance over all relocations. */
    Distance total_move_distance;
    /** Largest number of qubits carried by one batch. */
    std::size_t max_batch_moves = 0;

    /** Mean fraction of the makespan spent in storage, over qubits. */
    double storageUtilization() const;
    /** Fraction of the makespan spent on movement. */
    double movementShare() const;
};

/** Replays @p schedule and extracts its timeline. */
ScheduleTrace traceSchedule(const MachineSchedule &schedule);

} // namespace powermove

#endif // POWERMOVE_FIDELITY_TRACE_HPP
