/** @file Differential test of the hardware validator against its oracle.
 *
 * The production validator replays a schedule incrementally; the
 * census-based reference validator (tests/reference_validator.hpp)
 * rebuilds full site occupancy at every pulse. Over the Table 2 suite,
 * QFT-100 and QAOA-regular3-200, each compiled schedule and a set of
 * seeded single mutations of it go through both validators, which must
 * agree on the verdict and on the exact error text.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "compiler/powermove.hpp"
#include "isa/validator.hpp"
#include "reference_validator.hpp"
#include "workloads/suite.hpp"

namespace powermove {
namespace {

/** "ok", or the exception type and what() text of a rejection. */
template <typename ValidateFn>
std::string
verdictOf(ValidateFn &&validate)
{
    try {
        validate();
        return "ok";
    } catch (const ValidationError &e) {
        return std::string("ValidationError: ") + e.what();
    } catch (const std::exception &e) {
        return std::string("other: ") + e.what();
    }
}

/** An editable copy of a schedule. */
struct Program
{
    std::vector<SiteId> initial;
    std::vector<Instruction> instructions;

    MachineSchedule
    assemble(const Machine &machine) const
    {
        MachineSchedule schedule(machine, initial);
        for (const auto &instruction : instructions) {
            if (const auto *layer = std::get_if<OneQLayerOp>(&instruction))
                schedule.addOneQLayer(layer->gate_count, layer->depth);
            else if (const auto *op = std::get_if<MoveBatchOp>(&instruction))
                schedule.addMoveBatch(op->batch);
            else
                schedule.addRydberg(std::get<RydbergOp>(instruction).gates,
                                    std::get<RydbergOp>(instruction)
                                        .block_index);
        }
        return schedule;
    }

    /** Qubit sites just before instruction @p end executes. */
    std::vector<SiteId>
    positionsAt(std::size_t end) const
    {
        std::vector<SiteId> positions = initial;
        for (std::size_t i = 0; i < end; ++i) {
            if (const auto *op = std::get_if<MoveBatchOp>(&instructions[i])) {
                for (const auto &group : op->batch.groups)
                    for (const auto &move : group.moves)
                        positions[move.qubit] = move.to;
            }
        }
        return positions;
    }

    /** Indices of the instructions holding alternative @p T. */
    template <typename T>
    std::vector<std::size_t>
    indicesOf() const
    {
        std::vector<std::size_t> found;
        for (std::size_t i = 0; i < instructions.size(); ++i)
            if (std::holds_alternative<T>(instructions[i]))
                found.push_back(i);
        return found;
    }

    /** Index of the first pulse after @p index, or the program end. */
    std::size_t
    nextPulseAfter(std::size_t index) const
    {
        for (std::size_t i = index + 1; i < instructions.size(); ++i)
            if (std::holds_alternative<RydbergOp>(instructions[i]))
                return i;
        return instructions.size();
    }
};

enum class Mutation
{
    DropMove,
    RetargetMove,
    DropPulse,
    SwapPulseGate,
    CorruptBlockIndex,
    InflateOneQCount,
    WrongInitialSite,
    ThirdAtomOnGateSite,
    RetargetOntoOccupiedStorage,
    RetargetOntoOccupiedCompute,
    DuplicateMove,
};

constexpr Mutation kMutations[] = {
    Mutation::DropMove,
    Mutation::RetargetMove,
    Mutation::DropPulse,
    Mutation::SwapPulseGate,
    Mutation::CorruptBlockIndex,
    Mutation::InflateOneQCount,
    Mutation::WrongInitialSite,
    Mutation::ThirdAtomOnGateSite,
    Mutation::RetargetOntoOccupiedStorage,
    Mutation::RetargetOntoOccupiedCompute,
    Mutation::DuplicateMove,
};

template <typename T>
const T &
pick(Rng &rng, const std::vector<T> &values)
{
    return values[rng.nextBelow(values.size())];
}

/** A random move of the batch at @p index. */
QubitMove &
pickMove(Rng &rng, Program &program, std::size_t index)
{
    auto &groups = std::get<MoveBatchOp>(program.instructions[index])
                       .batch.groups;
    auto &moves = groups[rng.nextBelow(groups.size())].moves;
    return moves[rng.nextBelow(moves.size())];
}

/**
 * Retargets a move onto a site of @p zone that one other qubit occupies
 * from the move's batch until the next pulse. The mover stays put until
 * that pulse and takes no gate in it, so the pulse sees the intruder.
 * False when no batch offers such a move and site.
 */
bool
retargetOntoOccupied(Rng &rng, const Machine &machine, Program &program,
                     ZoneKind zone)
{
    const auto batches = program.indicesOf<MoveBatchOp>();
    for (int attempt = 0; attempt < 32 && !batches.empty(); ++attempt) {
        const std::size_t index = pick(rng, batches);
        const std::size_t pulse = program.nextPulseAfter(index);
        const auto after = program.positionsAt(index + 1);
        const auto at_pulse = program.positionsAt(pulse);
        std::vector<std::size_t> count(machine.numSites(), 0);
        for (const SiteId site : at_pulse)
            ++count[site];
        std::vector<bool> gated(after.size(), false);
        if (pulse < program.instructions.size()) {
            for (const auto &gate :
                 std::get<RydbergOp>(program.instructions[pulse]).gates)
                gated[gate.a] = gated[gate.b] = true;
        }

        std::vector<QubitMove *> movers;
        for (auto &group : std::get<MoveBatchOp>(program.instructions[index])
                               .batch.groups) {
            for (auto &move : group.moves)
                if (at_pulse[move.qubit] == move.to && !gated[move.qubit])
                    movers.push_back(&move);
        }
        if (movers.empty())
            continue;
        QubitMove *move = pick(rng, movers);
        std::vector<SiteId> sites;
        for (QubitId q = 0; q < after.size(); ++q) {
            if (q != move->qubit && after[q] == at_pulse[q] &&
                count[after[q]] == 1 && machine.zoneOf(after[q]) == zone)
                sites.push_back(after[q]);
        }
        if (sites.empty())
            continue;
        move->to = pick(rng, sites);
        return true;
    }
    return false;
}

/** Applies @p kind to @p program; false when it has no target. */
bool
mutate(Rng &rng, const Machine &machine, Program &program, Mutation kind)
{
    const auto batches = program.indicesOf<MoveBatchOp>();
    const auto pulses = program.indicesOf<RydbergOp>();
    const auto layers = program.indicesOf<OneQLayerOp>();
    const std::size_t num_qubits = program.initial.size();
    switch (kind) {
      case Mutation::DropMove: {
        if (batches.empty())
            return false;
        auto &groups =
            std::get<MoveBatchOp>(program.instructions[pick(rng, batches)])
                .batch.groups;
        auto &moves = groups[rng.nextBelow(groups.size())].moves;
        moves.erase(moves.begin() +
                    static_cast<std::ptrdiff_t>(rng.nextBelow(moves.size())));
        return true;
      }
      case Mutation::RetargetMove:
        if (batches.empty())
            return false;
        pickMove(rng, program, pick(rng, batches)).to =
            static_cast<SiteId>(rng.nextBelow(machine.numSites()));
        return true;
      case Mutation::DropPulse:
        if (pulses.empty())
            return false;
        program.instructions.erase(
            program.instructions.begin() +
            static_cast<std::ptrdiff_t>(pick(rng, pulses)));
        return true;
      case Mutation::SwapPulseGate: {
        if (pulses.empty())
            return false;
        auto &gates =
            std::get<RydbergOp>(program.instructions[pick(rng, pulses)]).gates;
        CzGate &gate = gates[rng.nextBelow(gates.size())];
        QubitId other = gate.a;
        while (other == gate.a || other == gate.b)
            other = static_cast<QubitId>(rng.nextBelow(num_qubits));
        gate.b = other;
        return true;
      }
      case Mutation::CorruptBlockIndex:
        if (pulses.empty())
            return false;
        std::get<RydbergOp>(program.instructions[pick(rng, pulses)])
            .block_index += 1000;
        return true;
      case Mutation::InflateOneQCount:
        if (layers.empty())
            return false;
        ++std::get<OneQLayerOp>(program.instructions[pick(rng, layers)])
              .gate_count;
        return true;
      case Mutation::WrongInitialSite: {
        SiteId &site = program.initial[rng.nextBelow(num_qubits)];
        site = static_cast<SiteId>((site + 1 + rng.nextBelow(
                                                   machine.numSites() - 1)) %
                                   machine.numSites());
        return true;
      }
      case Mutation::ThirdAtomOnGateSite: {
        if (pulses.empty())
            return false;
        const std::size_t index = pick(rng, pulses);
        const auto &gates =
            std::get<RydbergOp>(program.instructions[index]).gates;
        const CzGate gate = gates[rng.nextBelow(gates.size())];
        const auto positions = program.positionsAt(index);
        QubitId third = gate.a;
        while (third == gate.a || third == gate.b)
            third = static_cast<QubitId>(rng.nextBelow(num_qubits));
        AodBatch batch;
        batch.groups.push_back(
            CollMove{{{third, positions[third], positions[gate.a]}}});
        program.instructions.emplace(
            program.instructions.begin() +
                static_cast<std::ptrdiff_t>(index),
            std::in_place_type<MoveBatchOp>, std::move(batch));
        return true;
      }
      case Mutation::RetargetOntoOccupiedStorage:
        return retargetOntoOccupied(rng, machine, program,
                                    ZoneKind::Storage);
      case Mutation::RetargetOntoOccupiedCompute:
        return retargetOntoOccupied(rng, machine, program,
                                    ZoneKind::Compute);
      case Mutation::DuplicateMove: {
        if (batches.empty())
            return false;
        const std::size_t index = pick(rng, batches);
        const QubitMove copy = pickMove(rng, program, index);
        std::get<MoveBatchOp>(program.instructions[index])
            .batch.groups.push_back(CollMove{{copy}});
        return true;
      }
    }
    return false;
}

/**
 * Runs @p compiled and its seeded mutations through both validators,
 * collecting each hardware verdict in @p verdicts; returns how many
 * schedules ran.
 */
std::size_t
compareOnMutations(const Machine &machine, const Circuit &circuit,
                   const Program &compiled, std::set<std::string> &verdicts)
{
    constexpr int kSeedsPerKind = 2;
    std::vector<std::pair<std::string, Program>> cases{
        {"as compiled", compiled}};
    for (const Mutation kind : kMutations) {
        for (int seed = 0; seed < kSeedsPerKind; ++seed) {
            Rng rng(1000 * static_cast<std::uint64_t>(kind) +
                    static_cast<std::uint64_t>(seed));
            Program program = compiled;
            if (mutate(rng, machine, program, kind))
                cases.emplace_back("mutation " +
                                       std::to_string(static_cast<int>(kind)) +
                                       " seed " + std::to_string(seed),
                                   std::move(program));
        }
    }

    for (const auto &[label, program] : cases) {
        SCOPED_TRACE(label);
        const MachineSchedule schedule = program.assemble(machine);
        const std::string hardware =
            verdictOf([&] { validateSchedule(schedule); });
        EXPECT_EQ(hardware,
                  verdictOf([&] { reference::validateSchedule(schedule); }));
        const std::string complete =
            verdictOf([&] { validateAgainstCircuit(schedule, circuit); });
        EXPECT_EQ(complete, verdictOf([&] {
                      reference::validateAgainstCircuit(schedule, circuit);
                  }));
        if (label == "as compiled") {
            EXPECT_EQ(complete, "ok");
        }
        verdicts.insert(hardware);
    }
    return cases.size();
}

TEST(ValidatorOracleTest, AgreesOnCompiledAndMutatedSchedules)
{
    std::vector<BenchmarkSpec> specs = table2Suite();
    specs.push_back(makeFamilyInstance("QFT", 100));
    specs.push_back(makeFamilyInstance("QAOA-regular3", 200));
    std::size_t checked = 0;
    std::set<std::string> verdicts;
    for (const auto &spec : specs) {
        const Machine machine(spec.machine_config);
        const Circuit circuit = spec.build();
        // Idle atoms park in storage when it is used and stay in the
        // compute zone when it is not, so only the second has lone
        // compute atoms to intrude on.
        for (const bool use_storage : {true, false}) {
            SCOPED_TRACE(spec.name +
                         (use_storage ? "" : " without storage"));
            const auto result = PowerMoveCompiler(machine, {use_storage, 1})
                                    .compile(circuit);
            checked += compareOnMutations(
                machine, circuit,
                Program{result.schedule.initialSites(),
                        result.schedule.instructions()},
                verdicts);
        }
    }
    EXPECT_GT(checked, 2u * 25u * 10u);

    // The corpus reaches every pulse-time rule, not just departure
    // mismatches.
    const auto reached = [&](const std::string &fragment) {
        for (const auto &verdict : verdicts)
            if (verdict.find(fragment) != std::string::npos)
                return true;
        return false;
    };
    EXPECT_TRUE(reached("(capacity 1)"));
    EXPECT_TRUE(reached("(capacity 2)"));
    EXPECT_TRUE(reached("without a scheduled gate"));
    EXPECT_TRUE(reached("is not co-located"));
    EXPECT_TRUE(reached("departs from"));
    EXPECT_TRUE(reached("moved twice"));
}

} // namespace
} // namespace powermove
