#include "isa/validator.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "route/conflict.hpp"

namespace powermove {

namespace {

[[noreturn]] void
fail(const std::string &message)
{
    throw ValidationError("schedule validation failed: " + message);
}

/** Steady-state capacity of @p site: compute 2, storage 1. */
std::size_t
capacityOf(const Machine &machine, SiteId site)
{
    return machine.zoneOf(site) == ZoneKind::Compute ? 2 : 1;
}

/** Integer power of a fidelity factor, numerically stable in log space. */
double
fidelityPower(double base, std::size_t exponent)
{
    if (exponent == 0)
        return 1.0;
    return std::exp(static_cast<double>(exponent) * std::log(base));
}

/**
 * Site occupancy and Eq. (1) score of a schedule being replayed; the
 * file comment of isa/validator.hpp explains its tallies and clocks.
 */
class Replay
{
  public:
    Replay(const Machine &machine, std::vector<SiteId> positions)
        : machine_(machine), params_(machine.params()),
          positions_(std::move(positions)), count_(machine.numSites(), 0),
          mark_(positions_.size(), 0), residency_(positions_.size())
    {
        for (QubitId q = 0; q < positions_.size(); ++q) {
            const SiteId site = positions_[q];
            if (site >= machine.numSites())
                fail("qubit " + std::to_string(q) + " is off the lattice");
            enter(site);
        }
    }

    /** Enforces steady-state capacity: compute <= 2, storage <= 1. */
    void
    checkCapacity() const
    {
        if (over_capacity_ == 0)
            return;
        for (SiteId site = 0; site < count_.size(); ++site) {
            const std::size_t cap = capacityOf(machine_, site);
            if (count_[site] > cap) {
                std::ostringstream os;
                os << "site " << machine_.coordOf(site) << " holds "
                   << count_[site] << " qubits (capacity " << cap << ")";
                fail(os.str());
            }
        }
    }

    void
    applyPulse(const RydbergOp &pulse)
    {
        if (pulse.gates.empty())
            fail("empty Rydberg pulse");
        for (const auto &gate : pulse.gates) {
            if (gate.a >= positions_.size() || gate.b >= positions_.size()) {
                std::ostringstream os;
                os << "gate (" << gate.a << "," << gate.b
                   << ") addresses an unknown qubit";
                fail(os.str());
            }
        }

        checkCapacity();

        // Gates act on pairwise disjoint qubits.
        ++epoch_;
        for (const auto &gate : pulse.gates) {
            for (const QubitId q : {gate.a, gate.b}) {
                if (mark_[q] == epoch_)
                    fail("a Rydberg pulse touches a qubit twice");
                mark_[q] = epoch_;
            }
        }

        // Every gate pair is co-located at a compute site.
        for (const auto &gate : pulse.gates) {
            const SiteId sa = positions_[gate.a];
            const SiteId sb = positions_[gate.b];
            if (sa != sb) {
                std::ostringstream os;
                os << "gate (" << gate.a << "," << gate.b
                   << ") pair is not co-located at pulse time";
                fail(os.str());
            }
            if (machine_.zoneOf(sa) != ZoneKind::Compute)
                fail("gate pair parked outside the compute zone at pulse "
                     "time");
        }

        // The gates sit on distinct compute sites holding exactly two
        // atoms (disjoint qubits, capacity two), so every co-located
        // compute pair is a gate iff the pair count equals the gate
        // count; any other pair is an unwanted blockade interaction.
        if (pairs_ != pulse.gates.size())
            reportUnwantedPair(pulse);

        // The global pulse excites every compute-zone atom it does not
        // gate; a gated qubit is busy, not idle, so its stamp skips it.
        score_.exec_time += params_.t_cz;
        ++score_.pulses;
        score_.cz_gates += pulse.gates.size();
        score_.excitation_exposures += compute_atoms_ - 2 * pulse.gates.size();
        for (const auto &gate : pulse.gates) {
            ++residency_[gate.a].pulse_stamp;
            ++residency_[gate.b].pulse_stamp;
        }
        ++pulse_clock_;
    }

    /** Raman layers address every qubit in parallel: no idle time. */
    void
    applyOneQLayer(const OneQLayerOp &layer)
    {
        score_.exec_time += params_.t_one_q * static_cast<double>(layer.depth);
        score_.one_q_gates += layer.gate_count;
    }

    void
    applyMoveBatch(const MoveBatchOp &op)
    {
        ++epoch_;
        for (const auto &group : op.batch.groups) {
            if (group.moves.empty())
                fail("empty Coll-Move inside a batch");
            for (const auto &move : group.moves) {
                if (move.qubit >= positions_.size())
                    fail("move addresses an unknown qubit");
                if (move.from >= machine_.numSites())
                    fail("move departs from a non-existent site");
                if (move.to >= machine_.numSites())
                    fail("move targets a non-existent site");
            }
            if (!isValidCollMove(machine_, group))
                fail("Coll-Move violates AOD row/column order constraints");
            for (const auto &move : group.moves) {
                if (mark_[move.qubit] == epoch_)
                    fail("qubit moved twice within one parallel batch");
                mark_[move.qubit] = epoch_;
                if (positions_[move.qubit] != move.from) {
                    std::ostringstream os;
                    os << "move of qubit " << move.qubit << " departs from "
                       << machine_.coordOf(move.from)
                       << " but the qubit is at "
                       << machine_.coordOf(positions_[move.qubit]);
                    fail(os.str());
                }
            }
        }
        // A mover into the compute zone idles from this batch's start,
        // a mover out of it until the batch's end.
        const Duration t = op.batch.duration(machine_);
        const double start_us = move_clock_us_;
        move_clock_us_ += t.micros();
        for (const auto &group : op.batch.groups) {
            for (const auto &move : group.moves) {
                if (isCompute(move.from) && !isCompute(move.to)) {
                    closeResidency(move.qubit);
                } else if (!isCompute(move.from) && isCompute(move.to)) {
                    residency_[move.qubit].move_stamp_us = start_us;
                    residency_[move.qubit].pulse_stamp = pulse_clock_;
                }
                leave(move.from);
                enter(move.to);
                positions_[move.qubit] = move.to;
            }
        }
        score_.exec_time += t;
        score_.transfers += 2 * op.batch.numMoves();
    }

    /** Closes the residencies open at program end; call once, last. */
    FidelityBreakdown
    finish()
    {
        FidelityBreakdown result = score_;
        result.one_q_factor =
            fidelityPower(params_.f_one_q, score_.one_q_gates);
        result.two_q_factor = fidelityPower(params_.f_cz, score_.cz_gates);
        result.excitation_factor =
            fidelityPower(params_.f_excitation, score_.excitation_exposures);
        result.transfer_factor =
            fidelityPower(params_.f_transfer, score_.transfers);
        double total_idle_us = 0.0;
        for (QubitId q = 0; q < positions_.size(); ++q) {
            if (isCompute(positions_[q]))
                closeResidency(q);
            total_idle_us += residency_[q].idle_us;
            result.decoherence_factor *= std::max(
                0.0, 1.0 - residency_[q].idle_us / params_.t2.micros());
        }
        result.total_idle = Duration::micros(total_idle_us);
        return result;
    }

  private:
    bool
    isCompute(SiteId site) const
    {
        return machine_.zoneOf(site) == ZoneKind::Compute;
    }

    /** Charges qubit @p q the clocks' run since its residency began. */
    void
    closeResidency(QubitId q)
    {
        Residency &r = residency_[q];
        r.idle_us += (move_clock_us_ - r.move_stamp_us) +
                     static_cast<double>(pulse_clock_ - r.pulse_stamp) *
                         params_.t_cz.micros();
    }

    void
    enter(SiteId site)
    {
        const std::size_t now = ++count_[site];
        if (now == capacityOf(machine_, site) + 1)
            ++over_capacity_;
        if (isCompute(site)) {
            ++compute_atoms_;
            if (now == 2)
                ++pairs_;
            else if (now == 3)
                --pairs_;
        }
    }

    void
    leave(SiteId site)
    {
        const std::size_t was = count_[site]--;
        if (was == capacityOf(machine_, site) + 1)
            --over_capacity_;
        if (isCompute(site)) {
            --compute_atoms_;
            if (was == 2)
                --pairs_;
            else if (was == 3)
                ++pairs_;
        }
    }

    /** Failure path: names the lowest compute pair that is not a gate. */
    [[noreturn]] void
    reportUnwantedPair(const RydbergOp &pulse) const
    {
        std::vector<std::vector<QubitId>> occupants(
            machine_.numComputeSites());
        for (QubitId q = 0; q < positions_.size(); ++q) {
            if (positions_[q] < occupants.size())
                occupants[positions_[q]].push_back(q);
        }
        std::vector<CzGate> sorted_gates;
        sorted_gates.reserve(pulse.gates.size());
        for (const auto &gate : pulse.gates)
            sorted_gates.push_back(gate.canonical());
        std::sort(sorted_gates.begin(), sorted_gates.end());
        for (const auto &pair : occupants) {
            if (pair.size() != 2)
                continue;
            const CzGate found = CzGate{pair[0], pair[1]}.canonical();
            if (!std::binary_search(sorted_gates.begin(), sorted_gates.end(),
                                    found)) {
                std::ostringstream os;
                os << "qubits " << found.a << " and " << found.b
                   << " are co-located during a pulse without a scheduled "
                      "gate";
                fail(os.str());
            }
        }
        panic("pair tally disagrees with the occupancy census");
    }

    const Machine &machine_;
    const HardwareParams &params_;
    std::vector<SiteId> positions_;
    std::vector<std::size_t> count_;
    /** Sites holding more atoms than their capacity. */
    std::size_t over_capacity_ = 0;
    /** Compute sites holding exactly two atoms. */
    std::size_t pairs_ = 0;
    /** Per-qubit stamp: equals epoch_ once seen in the current check. */
    std::vector<std::size_t> mark_;
    std::size_t epoch_ = 0;

    /** Atoms in the compute zone. */
    std::size_t compute_atoms_ = 0;
    /** Counts and execution time, summed in instruction order. */
    FidelityBreakdown score_;
    /** The idle clocks: summed move-batch time and pulse count so far. */
    double move_clock_us_ = 0.0;
    std::size_t pulse_clock_ = 0;
    /**
     * Per qubit: idle time of its closed compute-zone residencies, and
     * the clocks when the open one began (gated pulses advance the
     * pulse stamp).
     */
    struct Residency
    {
        double idle_us = 0.0;
        double move_stamp_us = 0.0;
        std::size_t pulse_stamp = 0;
    };
    std::vector<Residency> residency_;
};

} // namespace

FidelityBreakdown
validateSchedule(const MachineSchedule &schedule)
{
    if (schedule.initialSites().empty())
        fail("schedule has no qubits");

    Replay replay(schedule.machine(), schedule.initialSites());
    replay.checkCapacity();

    for (const auto &instruction : schedule.instructions()) {
        if (const auto *pulse = std::get_if<RydbergOp>(&instruction)) {
            replay.applyPulse(*pulse);
        } else if (const auto *batch = std::get_if<MoveBatchOp>(&instruction)) {
            replay.applyMoveBatch(*batch);
        } else {
            replay.applyOneQLayer(std::get<OneQLayerOp>(instruction));
        }
    }

    replay.checkCapacity();
    return replay.finish();
}

void
validateCompleteness(const MachineSchedule &schedule, const Circuit &circuit)
{
    if (schedule.numQubits() != circuit.numQubits())
        fail("schedule and circuit disagree on qubit count");
    if (schedule.numOneQGates() != circuit.numOneQGates())
        fail("schedule drops or invents single-qubit gates");
    if (schedule.numCzGates() != circuit.numCzGates())
        fail("schedule drops or invents CZ gates");

    // Group pulse gates by source block and compare multisets.
    std::map<std::size_t, std::vector<CzGate>> by_block;
    std::size_t last_block = 0;
    for (const auto &instruction : schedule.instructions()) {
        const auto *pulse = std::get_if<RydbergOp>(&instruction);
        if (pulse == nullptr)
            continue;
        if (pulse->block_index < last_block)
            fail("Rydberg pulses execute blocks out of order");
        last_block = pulse->block_index;
        auto &bucket = by_block[pulse->block_index];
        for (const auto &gate : pulse->gates)
            bucket.push_back(gate.canonical());
    }

    const auto blocks = circuit.blocks();
    if (by_block.size() != blocks.size())
        fail("schedule executes a different number of CZ blocks");
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        const auto it = by_block.find(b);
        if (it == by_block.end())
            fail("block " + std::to_string(b) + " never executed");
        std::vector<CzGate> expected;
        expected.reserve(blocks[b]->gates.size());
        for (const auto &gate : blocks[b]->gates)
            expected.push_back(gate.canonical());
        std::sort(expected.begin(), expected.end());
        auto actual = it->second;
        std::sort(actual.begin(), actual.end());
        if (actual != expected)
            fail("block " + std::to_string(b) +
                 " executes a different gate multiset than the circuit");
    }
}

FidelityBreakdown
validateAgainstCircuit(const MachineSchedule &schedule, const Circuit &circuit)
{
    const FidelityBreakdown breakdown = validateSchedule(schedule);
    validateCompleteness(schedule, circuit);
    return breakdown;
}

} // namespace powermove
