/** @file Tests for the Eq. (1) fidelity evaluator. */

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "fidelity/evaluator.hpp"

namespace powermove {
namespace {

class FidelityTest : public ::testing::Test
{
  protected:
    FidelityTest() : machine_(MachineConfig::forQubits(9)) {}

    static AodBatch
    batchOf(std::vector<QubitMove> moves)
    {
        AodBatch batch;
        batch.groups.push_back(CollMove{std::move(moves)});
        return batch;
    }

    Machine machine_;
};

TEST_F(FidelityTest, EmptyScheduleIsPerfect)
{
    MachineSchedule schedule(machine_, {0, 1});
    const auto result = evaluateSchedule(schedule);
    EXPECT_DOUBLE_EQ(result.fidelity(), 1.0);
    EXPECT_DOUBLE_EQ(result.fidelity(true), 1.0);
    EXPECT_DOUBLE_EQ(result.exec_time.micros(), 0.0);
    EXPECT_DOUBLE_EQ(result.total_idle.micros(), 0.0);
}

TEST_F(FidelityTest, TwoQubitFactorPerGate)
{
    MachineSchedule schedule(machine_, {0, 0, 2, 2});
    schedule.addRydberg({CzGate{0, 1}, CzGate{2, 3}}, 0);
    const auto result = evaluateSchedule(schedule);
    EXPECT_EQ(result.cz_gates, 2u);
    EXPECT_NEAR(result.two_q_factor, 0.995 * 0.995, 1e-12);
    // Everybody interacts: no excitation exposure.
    EXPECT_EQ(result.excitation_exposures, 0u);
    EXPECT_DOUBLE_EQ(result.exec_time.micros(), 0.27);
}

TEST_F(FidelityTest, ExcitationCountsIdleComputeQubits)
{
    // Qubits 2 and 3 idle in the compute zone during the pulse.
    MachineSchedule schedule(machine_, {0, 0, 2, 3});
    schedule.addRydberg({CzGate{0, 1}}, 0);
    const auto result = evaluateSchedule(schedule);
    EXPECT_EQ(result.excitation_exposures, 2u);
    EXPECT_NEAR(result.excitation_factor, 0.9975 * 0.9975, 1e-12);
}

TEST_F(FidelityTest, StorageShieldsFromExcitation)
{
    const auto storage = machine_.storageSites();
    MachineSchedule schedule(machine_, {0, 0, storage[0], storage[1]});
    schedule.addRydberg({CzGate{0, 1}}, 0);
    const auto result = evaluateSchedule(schedule);
    EXPECT_EQ(result.excitation_exposures, 0u);
    EXPECT_DOUBLE_EQ(result.excitation_factor, 1.0);
}

TEST_F(FidelityTest, TransferCountsTwoPerMove)
{
    // Two single-move Coll-Moves in one batch (one Coll-Move carrying
    // both would reverse their column order).
    MachineSchedule schedule(machine_, {0, 1, 2});
    AodBatch batch;
    batch.groups.push_back(CollMove{{{1, 1, 0}}});
    batch.groups.push_back(CollMove{{{2, 2, 5}}});
    schedule.addMoveBatch(batch);
    const auto result = evaluateSchedule(schedule);
    EXPECT_EQ(result.transfers, 4u);
    EXPECT_NEAR(result.transfer_factor, std::pow(0.999, 4), 1e-12);
}

TEST_F(FidelityTest, AodIllegalScheduleThrows)
{
    // Qubit 1 moves left of qubit 2's column while qubit 2 moves right:
    // one AOD cannot carry both.
    MachineSchedule schedule(machine_, {0, 1, 2});
    schedule.addMoveBatch(batchOf({{1, 1, 0}, {2, 2, 5}}));
    EXPECT_THROW(evaluateSchedule(schedule), ValidationError);
}

TEST_F(FidelityTest, MoveBatchTimeAndIdleAccounting)
{
    MachineSchedule schedule(machine_, {0, 1, 2});
    schedule.addMoveBatch(batchOf({{1, 1, 4}})); // 15um*sqrt(2) diagonal
    const auto result = evaluateSchedule(schedule);

    const double move_us =
        machine_.params()
            .moveDuration(machine_.distanceBetween(1, 4))
            .micros();
    const double expected = 30.0 + move_us;
    EXPECT_NEAR(result.exec_time.micros(), expected, 1e-9);
    // All three qubits are in the compute zone: all idle for the batch.
    EXPECT_NEAR(result.total_idle.micros(), 3 * expected, 1e-9);
    EXPECT_LT(result.decoherence_factor, 1.0);
}

TEST_F(FidelityTest, StorageResidentsDoNotDecohere)
{
    const auto storage = machine_.storageSites();
    MachineSchedule schedule(machine_, {0, 1, storage[0]});
    schedule.addMoveBatch(batchOf({{1, 1, 3}}));
    const auto result = evaluateSchedule(schedule);
    // Only the two compute-zone qubits accrue idle time.
    const double batch_us = result.exec_time.micros();
    EXPECT_NEAR(result.total_idle.micros(), 2 * batch_us, 1e-9);
}

TEST_F(FidelityTest, MovingIntoStorageStillCostsTransitTime)
{
    const auto storage = machine_.storageSites();
    MachineSchedule schedule(machine_, {0});
    schedule.addMoveBatch(batchOf({{0, 0, storage[0]}}));
    const auto result = evaluateSchedule(schedule);
    // In transit toward storage: unprotected during the move itself.
    EXPECT_GT(result.total_idle.micros(), 0.0);
}

TEST_F(FidelityTest, StorageToStorageMoverAccruesNoIdleTime)
{
    const auto storage = machine_.storageSites();
    MachineSchedule schedule(machine_, {storage[0]});
    schedule.addMoveBatch(batchOf({{0, storage[0], storage[1]}}));
    const auto result = evaluateSchedule(schedule);
    EXPECT_GT(result.exec_time.micros(), 0.0);
    EXPECT_DOUBLE_EQ(result.total_idle.micros(), 0.0);
    EXPECT_DOUBLE_EQ(result.decoherence_factor, 1.0);
}

TEST_F(FidelityTest, StorageToComputeMoverIsChargedForItsOwnBatch)
{
    const auto storage = machine_.storageSites();
    MachineSchedule schedule(machine_, {storage[0], storage[1]});
    schedule.addMoveBatch(batchOf({{0, storage[0], 0}}));
    const auto result = evaluateSchedule(schedule);
    // Unprotected for the whole batch that brings it out; the qubit left
    // in storage accrues nothing.
    EXPECT_DOUBLE_EQ(result.total_idle.micros(), result.exec_time.micros());
}

TEST_F(FidelityTest, ComputeQubitGatedInSomePulsesIdlesInTheRest)
{
    // Qubit 0 stays on compute site 0 through four pulses and is gated
    // only in the first; qubits 2 and 3 are gated in all four; qubit 1
    // leaves for storage after the first pulse.
    const auto storage = machine_.storageSites();
    ASSERT_EQ(machine_.zoneOf(2), ZoneKind::Compute);
    MachineSchedule schedule(machine_, {0, 0, 2, 2});
    schedule.addRydberg({CzGate{0, 1}, CzGate{2, 3}}, 0);
    const AodBatch away = batchOf({{1, 0, storage[0]}});
    schedule.addMoveBatch(away);
    for (int pulse = 0; pulse < 3; ++pulse)
        schedule.addRydberg({CzGate{2, 3}}, 0);
    const auto result = evaluateSchedule(schedule);

    const double batch_us = away.duration(machine_).micros();
    const double t_cz = machine_.params().t_cz.micros();
    // Every qubit is unprotected during the batch; qubit 0 also idles
    // through the three pulses that do not gate it.
    EXPECT_EQ(result.excitation_exposures, 3u);
    EXPECT_NEAR(result.total_idle.micros(), 4 * batch_us + 3 * t_cz, 1e-9);
}

TEST_F(FidelityTest, OneQLayerTimeUsesDepth)
{
    MachineSchedule schedule(machine_, {0, 1});
    schedule.addOneQLayer(5, 3);
    const auto result = evaluateSchedule(schedule);
    EXPECT_EQ(result.one_q_gates, 5u);
    EXPECT_DOUBLE_EQ(result.exec_time.micros(), 3.0);
    EXPECT_NEAR(result.one_q_factor, std::pow(0.9999, 5), 1e-12);
    // 1Q layers are excluded from comparisons by default.
    EXPECT_DOUBLE_EQ(result.fidelity(), 1.0);
    EXPECT_LT(result.fidelity(true), 1.0);
}

TEST_F(FidelityTest, DecoherenceMatchesClosedForm)
{
    MachineSchedule schedule(machine_, {0, 1});
    schedule.addMoveBatch(batchOf({{1, 1, 4}}));
    const auto result = evaluateSchedule(schedule);
    const double per_qubit_idle = result.exec_time.micros();
    const double t2 = machine_.params().t2.micros();
    const double expected = (1.0 - per_qubit_idle / t2) *
                            (1.0 - per_qubit_idle / t2);
    EXPECT_NEAR(result.decoherence_factor, expected, 1e-12);
}

TEST_F(FidelityTest, FidelityIsProductOfFactors)
{
    MachineSchedule schedule(machine_, {0, 0, 2, 3});
    schedule.addOneQLayer(4, 1);
    schedule.addMoveBatch(batchOf({{2, 2, 5}}));
    schedule.addRydberg({CzGate{0, 1}}, 0);
    const auto result = evaluateSchedule(schedule);
    EXPECT_NEAR(result.fidelity(),
                result.two_q_factor * result.excitation_factor *
                    result.transfer_factor * result.decoherence_factor,
                1e-12);
    EXPECT_NEAR(result.fidelity(true),
                result.fidelity() * result.one_q_factor, 1e-12);
}

TEST_F(FidelityTest, BreakdownToStringMentionsKeyFields)
{
    MachineSchedule schedule(machine_, {0, 0});
    schedule.addRydberg({CzGate{0, 1}}, 0);
    const auto text = evaluateSchedule(schedule).toString();
    EXPECT_NE(text.find("fidelity="), std::string::npos);
    EXPECT_NE(text.find("T_exe="), std::string::npos);
    EXPECT_NE(text.find("pulses=1"), std::string::npos);
}

} // namespace
} // namespace powermove
