/** @file Tests for the machine schedule and the hardware validator. */

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "isa/validator.hpp"

namespace powermove {
namespace {

class IsaTest : public ::testing::Test
{
  protected:
    IsaTest() : machine_(MachineConfig::forQubits(9)) {}

    /** One-group batch holding the given moves. */
    static AodBatch
    batchOf(std::vector<QubitMove> moves)
    {
        AodBatch batch;
        batch.groups.push_back(CollMove{std::move(moves)});
        return batch;
    }

    /** The ValidationError text @p schedule is rejected with, or "". */
    static std::string
    rejectionOf(const MachineSchedule &schedule)
    {
        try {
            validateSchedule(schedule);
        } catch (const ValidationError &e) {
            return e.what();
        }
        return "";
    }

    Machine machine_;
};

TEST_F(IsaTest, ScheduleCounters)
{
    MachineSchedule schedule(machine_, {0, 1, 2, 3});
    EXPECT_EQ(schedule.numQubits(), 4u);
    schedule.addOneQLayer(4, 1);
    schedule.addMoveBatch(batchOf({{1, 1, 0}}));
    schedule.addRydberg({CzGate{0, 1}}, 0);
    EXPECT_EQ(schedule.numOneQGates(), 4u);
    EXPECT_EQ(schedule.numQubitMoves(), 1u);
    EXPECT_EQ(schedule.numTransfers(), 2u);
    EXPECT_EQ(schedule.numMoveBatches(), 1u);
    EXPECT_EQ(schedule.numPulses(), 1u);
    EXPECT_EQ(schedule.numCzGates(), 1u);
    EXPECT_EQ(schedule.instructions().size(), 3u);
}

TEST_F(IsaTest, EmptyLayersAndBatchesDropped)
{
    MachineSchedule schedule(machine_, {0});
    schedule.addOneQLayer(0, 0);
    schedule.addMoveBatch(AodBatch{});
    EXPECT_TRUE(schedule.instructions().empty());
}

TEST_F(IsaTest, EmptyPulseRejected)
{
    MachineSchedule schedule(machine_, {0});
    EXPECT_THROW(schedule.addRydberg({}, 0), InternalError);
}

TEST_F(IsaTest, InitialSitesValidated)
{
    EXPECT_THROW(MachineSchedule(machine_, {9999}), InternalError);
}

TEST_F(IsaTest, ValidSimpleProgram)
{
    MachineSchedule schedule(machine_, {0, 1, 2, 3});
    schedule.addMoveBatch(batchOf({{1, 1, 0}})); // 1 joins 0
    schedule.addRydberg({CzGate{0, 1}}, 0);
    schedule.addMoveBatch(batchOf({{1, 0, 1}})); // and returns
    EXPECT_NO_THROW(validateSchedule(schedule));
}

TEST_F(IsaTest, DetectsWrongDepartureSite)
{
    MachineSchedule schedule(machine_, {0, 1});
    schedule.addMoveBatch(batchOf({{1, 2, 0}})); // qubit 1 is at 1, not 2
    EXPECT_THROW(validateSchedule(schedule), ValidationError);
}

TEST_F(IsaTest, DetectsDoubleMoveInOneBatch)
{
    MachineSchedule schedule(machine_, {0, 1});
    AodBatch batch;
    batch.groups.push_back(CollMove{{{1, 1, 2}}});
    batch.groups.push_back(CollMove{{{1, 2, 3}}});
    schedule.addMoveBatch(batch);
    EXPECT_THROW(validateSchedule(schedule), ValidationError);
}

TEST_F(IsaTest, DoubleMoveRejectedEvenFromTheRightSite)
{
    // Both moves depart from qubit 1's actual site, so only the
    // once-per-batch rule can reject the second.
    MachineSchedule schedule(machine_, {0, 1});
    AodBatch batch;
    batch.groups.push_back(CollMove{{{1, 1, 2}}});
    batch.groups.push_back(CollMove{{{1, 1, 4}}});
    schedule.addMoveBatch(batch);
    EXPECT_EQ(rejectionOf(schedule),
              "schedule validation failed: qubit moved twice within one "
              "parallel batch");
}

TEST_F(IsaTest, DetectsAodConflictInsideGroup)
{
    // Sites 0 and 2 sit in one row; their moves swap x-order: crossing.
    MachineSchedule schedule(machine_, {0, 2});
    schedule.addMoveBatch(batchOf({{0, 0, 5}, {1, 2, 3}}));
    EXPECT_THROW(validateSchedule(schedule), ValidationError);
}

TEST_F(IsaTest, ConflictingGroupsMayShareOneBatch)
{
    // The same two moves are legal on *distinct* AODs of one batch.
    MachineSchedule schedule(machine_, {0, 2});
    AodBatch batch;
    batch.groups.push_back(CollMove{{{0, 0, 5}}});
    batch.groups.push_back(CollMove{{{1, 2, 3}}});
    schedule.addMoveBatch(batch);
    EXPECT_NO_THROW(validateSchedule(schedule));
}

TEST_F(IsaTest, DetectsSeparatedGatePair)
{
    MachineSchedule schedule(machine_, {0, 1});
    schedule.addRydberg({CzGate{0, 1}}, 0);
    EXPECT_THROW(validateSchedule(schedule), ValidationError);
}

TEST_F(IsaTest, DetectsGateInStorageZone)
{
    const SiteId storage = machine_.storageSites()[0];
    MachineSchedule schedule(machine_, {storage, 1});
    schedule.addMoveBatch(batchOf({{1, 1, storage}}));
    // Two qubits on one storage site is already a capacity violation,
    // and the gate would also fire outside the compute zone.
    schedule.addRydberg({CzGate{0, 1}}, 0);
    EXPECT_THROW(validateSchedule(schedule), ValidationError);
}

TEST_F(IsaTest, DetectsUnwantedCoLocation)
{
    // Qubits 2,3 share a site during a pulse without a scheduled gate.
    MachineSchedule schedule(machine_, {0, 1, 2, 3});
    schedule.addMoveBatch(batchOf({{1, 1, 0}}));
    schedule.addMoveBatch(batchOf({{3, 3, 2}}));
    schedule.addRydberg({CzGate{0, 1}}, 0);
    EXPECT_THROW(validateSchedule(schedule), ValidationError);
}

TEST_F(IsaTest, DetectsPulseTouchingQubitTwice)
{
    MachineSchedule schedule(machine_, {0, 0, 1});
    schedule.addRydberg({CzGate{0, 1}, CzGate{1, 2}}, 0);
    EXPECT_THROW(validateSchedule(schedule), ValidationError);
}

TEST_F(IsaTest, DetectsFinalCapacityViolation)
{
    // Three qubits stacked on one compute site at program end.
    MachineSchedule schedule(machine_, {0, 1, 2});
    schedule.addMoveBatch(batchOf({{1, 1, 0}}));
    AodBatch second;
    second.groups.push_back(CollMove{{{2, 2, 0}}});
    schedule.addMoveBatch(second);
    EXPECT_THROW(validateSchedule(schedule), ValidationError);
}

TEST_F(IsaTest, StorageCapacityOneEnforced)
{
    const auto storage = machine_.storageSites();
    MachineSchedule schedule(machine_, {0, 1});
    schedule.addMoveBatch(batchOf({{0, 0, storage[0]}}));
    AodBatch second;
    second.groups.push_back(CollMove{{{1, 1, storage[0]}}});
    schedule.addMoveBatch(second);
    EXPECT_THROW(validateSchedule(schedule), ValidationError);
}

TEST_F(IsaTest, OutOfRangeGateQubitRejected)
{
    MachineSchedule schedule(machine_, {0, 0});
    schedule.addRydberg({CzGate{0, 7}}, 0); // only qubits 0 and 1 exist
    EXPECT_EQ(rejectionOf(schedule),
              "schedule validation failed: gate (0,7) addresses an "
              "unknown qubit");
}

TEST_F(IsaTest, OutOfRangeMoveOperandsRejected)
{
    // Each corrupt move shares its group with a valid one, so the AOD
    // order check would compare it against a neighbour.
    const SiteId nowhere = static_cast<SiteId>(machine_.numSites());
    const std::vector<std::pair<QubitMove, std::string>> cases{
        {{5, 1, 4}, "move addresses an unknown qubit"},
        {{1, nowhere, 4}, "move departs from a non-existent site"},
        {{1, 1, nowhere}, "move targets a non-existent site"},
    };
    for (const auto &[corrupt, message] : cases) {
        MachineSchedule schedule(machine_, {0, 1});
        schedule.addMoveBatch(batchOf({{0, 0, 3}, corrupt}));
        EXPECT_EQ(rejectionOf(schedule),
                  "schedule validation failed: " + message);
    }
}

TEST_F(IsaTest, TransientOverflowBetweenPulsesAllowed)
{
    // Site 0 holds three atoms between two batches; the third leaves
    // before the pulse.
    MachineSchedule schedule(machine_, {0, 1, 2});
    schedule.addMoveBatch(batchOf({{1, 1, 0}}));
    schedule.addMoveBatch(batchOf({{2, 2, 0}}));
    schedule.addMoveBatch(batchOf({{2, 0, 2}}));
    schedule.addRydberg({CzGate{0, 1}}, 0);
    EXPECT_NO_THROW(validateSchedule(schedule));
}

TEST_F(IsaTest, OverflowSurvivingToNextPulseRejectedThere)
{
    // The overflow appears after the first pulse and is gone by program
    // end, so only the second pulse can catch it.
    MachineSchedule schedule(machine_, {0, 1, 2});
    schedule.addMoveBatch(batchOf({{1, 1, 0}}));
    schedule.addRydberg({CzGate{0, 1}}, 0);
    schedule.addMoveBatch(batchOf({{2, 2, 0}}));
    schedule.addRydberg({CzGate{0, 1}}, 1);
    schedule.addMoveBatch(batchOf({{2, 0, 2}}));
    const std::string message = rejectionOf(schedule);
    EXPECT_NE(message.find("holds 3 qubits (capacity 2)"), std::string::npos)
        << message;
}

TEST_F(IsaTest, RepartneredComputeSiteRejected)
{
    // Site 0 goes pair (0,1) -> single (0) -> pair (0,2); the second
    // pulse only schedules (1,3), elsewhere.
    MachineSchedule schedule(machine_, {0, 1, 2, 3});
    schedule.addMoveBatch(batchOf({{1, 1, 0}}));
    schedule.addRydberg({CzGate{0, 1}}, 0);
    schedule.addMoveBatch(batchOf({{1, 0, 1}}));
    schedule.addMoveBatch(batchOf({{2, 2, 0}}));
    schedule.addMoveBatch(batchOf({{3, 3, 1}}));
    schedule.addRydberg({CzGate{1, 3}}, 1);
    EXPECT_EQ(rejectionOf(schedule),
              "schedule validation failed: qubits 0 and 2 are co-located "
              "during a pulse without a scheduled gate");
}

TEST_F(IsaTest, ValidateAgainstCircuitAcceptsFaithfulSchedule)
{
    Circuit circuit(2);
    circuit.append(OneQGate{OneQKind::H, 0, 0.0});
    circuit.append(CzGate{0, 1});

    MachineSchedule schedule(machine_, {0, 1});
    schedule.addOneQLayer(1, 1);
    schedule.addMoveBatch(batchOf({{1, 1, 0}}));
    schedule.addRydberg({CzGate{0, 1}}, 0);
    EXPECT_NO_THROW(validateAgainstCircuit(schedule, circuit));
}

TEST_F(IsaTest, ValidateAgainstCircuitDetectsMissingGate)
{
    Circuit circuit(4);
    circuit.append(CzGate{0, 1});
    circuit.append(CzGate{2, 3});

    MachineSchedule schedule(machine_, {0, 1, 2, 3});
    schedule.addMoveBatch(batchOf({{1, 1, 0}}));
    schedule.addRydberg({CzGate{0, 1}}, 0); // drops gate (2,3)
    EXPECT_THROW(validateAgainstCircuit(schedule, circuit), ValidationError);
}

TEST_F(IsaTest, ValidateAgainstCircuitDetectsWrongGateMultiset)
{
    Circuit circuit(4);
    circuit.append(CzGate{0, 1});

    MachineSchedule schedule(machine_, {0, 1, 2, 3});
    schedule.addMoveBatch(batchOf({{3, 3, 2}}));
    schedule.addRydberg({CzGate{2, 3}}, 0); // executes a different gate
    EXPECT_THROW(validateAgainstCircuit(schedule, circuit), ValidationError);
}

TEST_F(IsaTest, ValidateAgainstCircuitDetectsOneQMismatch)
{
    Circuit circuit(2);
    circuit.append(OneQGate{OneQKind::H, 0, 0.0});
    circuit.append(OneQGate{OneQKind::H, 1, 0.0});
    circuit.append(CzGate{0, 1});

    MachineSchedule schedule(machine_, {0, 1});
    schedule.addOneQLayer(1, 1); // only one of the two H gates
    schedule.addMoveBatch(batchOf({{1, 1, 0}}));
    schedule.addRydberg({CzGate{0, 1}}, 0);
    EXPECT_THROW(validateAgainstCircuit(schedule, circuit), ValidationError);
}

TEST_F(IsaTest, ValidateAgainstCircuitDetectsBlockOrderViolation)
{
    Circuit circuit(4);
    circuit.append(CzGate{0, 1});
    circuit.append(OneQGate{OneQKind::H, 0, 0.0});
    circuit.append(CzGate{2, 3});

    MachineSchedule schedule(machine_, {0, 1, 2, 3});
    schedule.addOneQLayer(1, 1);
    schedule.addMoveBatch(batchOf({{3, 3, 2}}));
    schedule.addRydberg({CzGate{2, 3}}, 1); // block 1 first
    schedule.addMoveBatch(batchOf({{1, 1, 0}}));
    schedule.addRydberg({CzGate{0, 1}}, 0); // then block 0: out of order
    EXPECT_THROW(validateAgainstCircuit(schedule, circuit), ValidationError);
}

} // namespace
} // namespace powermove
