#include "isa_check.hpp"

#include <vector>

#include "arch/machine.hpp"
#include "fidelity/evaluator.hpp"
#include "isa/machine_schedule.hpp"
#include "isa/validator.hpp"

namespace perfbench {

using namespace powermove;

namespace {

std::int32_t
asCoordinate(const JsonValue &value)
{
    const long long v = value.asInt();
    if (v < -(1LL << 30) || v > (1LL << 30))
        throw JsonError("coordinate out of range");
    return static_cast<std::int32_t>(v);
}

SiteId
siteOf(const Machine &machine, const JsonValue &pair)
{
    if (pair.items().size() != 2)
        throw JsonError("a site is an [x, y] pair");
    const SiteCoord coord{asCoordinate(pair.at(std::size_t{0})),
                          asCoordinate(pair.at(std::size_t{1}))};
    if (!machine.isSite(coord))
        throw JsonError("[" + std::to_string(coord.x) + "," +
                        std::to_string(coord.y) + "] is not a trap site");
    return machine.siteAt(coord);
}

QubitId
qubitOf(const JsonValue &value, std::size_t num_qubits)
{
    const std::size_t q = value.asIndex();
    if (q >= num_qubits)
        throw JsonError("qubit " + std::to_string(q) + " out of range");
    return static_cast<QubitId>(q);
}

/** Rebuilds the schedule; the machine must outlive the result. */
MachineSchedule
rebuildSchedule(const JsonValue &doc, const Machine &machine)
{
    const std::size_t num_qubits = doc.at("qubits").asIndex();
    std::vector<SiteId> initial;
    for (const JsonValue &pair : doc.at("initial_sites").items())
        initial.push_back(siteOf(machine, pair));
    if (initial.size() != num_qubits)
        throw JsonError("initial_sites does not list every qubit");

    MachineSchedule schedule(machine, std::move(initial));
    for (const JsonValue &op : doc.at("instructions").items()) {
        const std::string &kind = op.at("op").asString();
        if (kind == "1q") {
            schedule.addOneQLayer(op.at("gates").asIndex(),
                                  op.at("depth").asIndex());
        } else if (kind == "move") {
            AodBatch batch;
            for (const JsonValue &group : op.at("groups").items()) {
                CollMove coll;
                for (const JsonValue &move : group.items())
                    coll.moves.push_back(
                        QubitMove{qubitOf(move.at("q"), num_qubits),
                                  siteOf(machine, move.at("from")),
                                  siteOf(machine, move.at("to"))});
                batch.groups.push_back(std::move(coll));
            }
            schedule.addMoveBatch(std::move(batch));
        } else if (kind == "rydberg") {
            std::vector<CzGate> gates;
            for (const JsonValue &pair : op.at("gates").items()) {
                if (pair.items().size() != 2)
                    throw JsonError("a gate is an [a, b] pair");
                gates.push_back(CzGate{qubitOf(pair.at(std::size_t{0}),
                                               num_qubits),
                                       qubitOf(pair.at(std::size_t{1}),
                                               num_qubits)});
            }
            schedule.addRydberg(std::move(gates), op.at("block").asIndex());
        } else {
            throw JsonError("unknown op '" + kind + "'");
        }
    }
    return schedule;
}

/** The first instruction of kind @p op, if any. */
JsonValue *
firstOp(JsonValue &doc, const std::string &op, std::size_t skip = 0)
{
    for (JsonValue &instruction : doc.at("instructions").array)
        if (instruction.at("op").asString() == op && skip-- == 0)
            return &instruction;
    return nullptr;
}

} // namespace

ProgramCheck
checkIsaDocument(const JsonValue &doc, const Circuit &circuit)
{
    ProgramCheck check;
    try {
        // The CLI sizes the machine with the paper's rule; the document
        // must describe exactly that machine.
        const MachineConfig expected =
            MachineConfig::forQubits(circuit.numQubits());
        const JsonValue &shape = doc.at("machine");
        if (shape.at("compute").at(std::size_t{0}).asInt() !=
                expected.compute_cols ||
            shape.at("compute").at(std::size_t{1}).asInt() !=
                expected.compute_rows ||
            shape.at("storage").at(std::size_t{0}).asInt() !=
                expected.storage_cols ||
            shape.at("storage").at(std::size_t{1}).asInt() !=
                expected.storage_rows ||
            shape.at("gap_rows").asInt() != expected.gap_rows ||
            shape.at("pitch_um").number !=
                expected.params.site_pitch.microns())
            throw JsonError("machine shape differs from the sizing rule");

        const Machine machine(expected);
        const MachineSchedule schedule = rebuildSchedule(doc, machine);
        validateAgainstCircuit(schedule, circuit);
        const FidelityBreakdown metrics = evaluateSchedule(schedule);
        check.fidelity = metrics.fidelity();
        check.t_exe_us = metrics.exec_time.micros();
        check.transfers = schedule.numTransfers();
        check.ok = true;
    } catch (const std::exception &e) {
        check.error = e.what();
    }
    return check;
}

ProgramCheck
checkIsaJson(std::string_view text, const Circuit &circuit)
{
    try {
        return checkIsaDocument(parseJson(text), circuit);
    } catch (const std::exception &e) {
        ProgramCheck check;
        check.error = e.what();
        return check;
    }
}

std::string
runMutationTest(const JsonValue &document, const Circuit &circuit)
{
    const ProgramCheck clean = checkIsaDocument(document, circuit);
    if (!clean.ok)
        return "the unmutated document fails: " + clean.error;

    // Each mutation goes through the same bytes-in path as real output.
    const auto rejects = [&](const JsonValue &mutated) {
        return !checkIsaJson(writeJson(mutated), circuit).ok;
    };

    // 1. A dropped Rydberg gate.
    JsonValue dropped = document;
    JsonValue *pulse = firstOp(dropped, "rydberg");
    if (pulse == nullptr || pulse->at("gates").array.empty())
        return "the document has no Rydberg gate to drop";
    pulse->at("gates").array.pop_back();
    if (!rejects(dropped))
        return "a dropped Rydberg gate was accepted";

    // 2. An atom moved from a site it is not on: the first move claims
    //    to start from another qubit's initial site.
    JsonValue misplaced = document;
    JsonValue *batch = firstOp(misplaced, "move");
    if (batch == nullptr)
        return "the document has no move to misplace";
    JsonValue &move = batch->at("groups").array.at(0).array.at(0);
    const JsonValue original = move.at("from");
    for (const JsonValue &site : misplaced.at("initial_sites").array) {
        if (writeJson(site) != writeJson(original)) {
            move.at("from") = site;
            break;
        }
    }
    if (!rejects(misplaced))
        return "a move from the wrong site was accepted";

    // 3. A wrong block index on a pulse in the middle of the program.
    JsonValue reblocked = document;
    std::size_t pulses = 0;
    for (const JsonValue &op : reblocked.at("instructions").array)
        pulses += op.at("op").asString() == "rydberg" ? 1 : 0;
    JsonValue *middle = firstOp(reblocked, "rydberg", pulses / 2);
    middle->at("block").number += 1;
    if (!rejects(reblocked))
        return "a wrong block index was accepted";
    return {};
}

} // namespace perfbench
