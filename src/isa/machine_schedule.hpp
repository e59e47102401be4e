/**
 * @file
 * The compiled machine program.
 *
 * A MachineSchedule couples an initial qubit placement with the ordered
 * instruction stream produced by a compiler. It is the single artifact
 * the validator replays, checking hardware legality (and circuit
 * completeness) while it scores fidelity and time, so both compilers —
 * PowerMove and the Enola baseline — are scored by the same machinery.
 */

#ifndef POWERMOVE_ISA_MACHINE_SCHEDULE_HPP
#define POWERMOVE_ISA_MACHINE_SCHEDULE_HPP

#include <vector>

#include "arch/machine.hpp"
#include "isa/instruction.hpp"

namespace powermove {

/** An executable neutral-atom program. */
class MachineSchedule
{
  public:
    /**
     * @param machine       the target machine (must outlive the schedule)
     * @param initial_sites per-qubit starting site
     */
    MachineSchedule(const Machine &machine, std::vector<SiteId> initial_sites);

    const Machine &machine() const { return *machine_; }
    std::size_t numQubits() const { return initial_sites_.size(); }
    const std::vector<SiteId> &initialSites() const { return initial_sites_; }

    /** Appends a 1Q layer. */
    void addOneQLayer(std::size_t gate_count, std::size_t depth);
    /** Appends a parallel movement batch (empty batches are dropped). */
    void addMoveBatch(AodBatch batch);
    /** Appends a Rydberg pulse for stage @p gates of block @p block. */
    void addRydberg(std::vector<CzGate> gates, std::size_t block);

    const std::vector<Instruction> &instructions() const
    {
        return instructions_;
    }

    /** Number of Rydberg pulses (= executed stages). */
    std::size_t numPulses() const { return num_pulses_; }
    /** Number of individual qubit relocations. */
    std::size_t numQubitMoves() const { return num_qubit_moves_; }
    /** Number of trap transfers (pickup + drop per relocation). */
    std::size_t numTransfers() const { return 2 * num_qubit_moves_; }
    /** Number of movement batches. */
    std::size_t numMoveBatches() const { return num_batches_; }
    /** Total CZ gates executed. */
    std::size_t numCzGates() const { return num_cz_; }
    /** Total 1Q gates executed. */
    std::size_t numOneQGates() const { return num_one_q_; }

  private:
    const Machine *machine_;
    std::vector<SiteId> initial_sites_;
    std::vector<Instruction> instructions_;
    std::size_t num_pulses_ = 0;
    std::size_t num_qubit_moves_ = 0;
    std::size_t num_batches_ = 0;
    std::size_t num_cz_ = 0;
    std::size_t num_one_q_ = 0;
};

} // namespace powermove

#endif // POWERMOVE_ISA_MACHINE_SCHEDULE_HPP
