/** @file Scale regression guard.
 *
 * Compiles well beyond the paper's 100-qubit ceiling and checks both
 * correctness (full validation) and that compile time stays in the
 * near-linear regime the paper claims — catching accidental quadratic
 * regressions in the router's search structures.
 */

#include <gtest/gtest.h>

#include <ctime>

#include "compiler/powermove.hpp"
#include "enola/enola.hpp"
#include "isa/validator.hpp"
#include "workloads/qaoa.hpp"

namespace powermove {
namespace {

TEST(ScaleTest, CompilesAndValidates256Qubits)
{
    const std::size_t n = 256;
    const Machine machine(MachineConfig::forQubits(n));
    const Circuit circuit = makeQaoaRegular(n, 3, 1, 77);

    const auto result = PowerMoveCompiler(machine, {true, 1}).compile(circuit);
    EXPECT_NO_THROW(validateAgainstCircuit(result.schedule, circuit));
    EXPECT_EQ(result.metrics.excitation_exposures, 0u);
    EXPECT_GT(result.metrics.fidelity(), 0.0);
}

TEST(ScaleTest, CompilesAndValidates400QubitsNonStorage)
{
    const std::size_t n = 400;
    const Machine machine(MachineConfig::forQubits(n));
    const Circuit circuit = makeQaoaRegular(n, 3, 1, 78);
    const auto result =
        PowerMoveCompiler(machine, {false, 2}).compile(circuit);
    EXPECT_NO_THROW(validateAgainstCircuit(result.schedule, circuit));
}

TEST(ScaleTest, EnolaValidatesAtScale)
{
    const std::size_t n = 256;
    const Machine machine(MachineConfig::forQubits(n));
    const Circuit circuit = makeQaoaRegular(n, 3, 1, 79);
    const auto result = EnolaCompiler(machine).compile(circuit);
    EXPECT_NO_THROW(validateAgainstCircuit(result.schedule, circuit));
}

/**
 * CPU time the calling thread has used, in microseconds. Unlike wall
 * time it does not grow while the thread waits for a core, so a
 * compile that outlasts its scheduler slice on a loaded machine is not
 * billed for the other processes' turns.
 */
double
threadCpuMicros()
{
    timespec now{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
    return static_cast<double>(now.tv_sec) * 1e6 +
           static_cast<double>(now.tv_nsec) / 1e3;
}

TEST(ScaleTest, CompileTimeGrowsSubQuadratically)
{
    // Min-of-7 compile CPU times at n and 4n: a clean quadratic would
    // give a 16x ratio; require comfortably less (the grouping pass is
    // the only super-linear component and its constant is tiny). The
    // two sizes alternate round by round, so a slow spell on a shared
    // machine lands on both sides of the ratio instead of skewing one.
    struct Size
    {
        Machine machine;
        Circuit circuit;
        double best = 1e300;
    };
    const auto sized = [](std::size_t n) {
        return Size{Machine(MachineConfig::forQubits(n)),
                    makeQaoaRegular(n, 3, 1, 80)};
    };
    Size small = sized(100);
    Size large = sized(400);
    for (int round = 0; round < 7; ++round) {
        for (Size *size : {&small, &large}) {
            const PowerMoveCompiler compiler(size->machine, {true, 1});
            const double start = threadCpuMicros();
            compiler.compile(size->circuit);
            size->best = std::min(size->best, threadCpuMicros() - start);
        }
    }
    EXPECT_LT(large.best, small.best * 13.0)
        << "compile time scaled by " << large.best / small.best
        << " over a 4x input";
}

TEST(ScaleTest, DeepCircuitManyStages)
{
    // 60 sequential blocks of one gate each: stresses per-transition
    // bookkeeping reuse.
    const std::size_t n = 64;
    const Machine machine(MachineConfig::forQubits(n));
    Circuit circuit(n, "deep");
    for (QubitId q = 0; q + 1 < n; ++q) {
        circuit.append(CzGate{q, static_cast<QubitId>(q + 1)});
        circuit.append(OneQGate{OneQKind::H, q, 0.0});
    }
    const auto result = PowerMoveCompiler(machine, {true, 1}).compile(circuit);
    EXPECT_NO_THROW(validateAgainstCircuit(result.schedule, circuit));
    EXPECT_EQ(result.num_stages, static_cast<std::size_t>(n - 1));
}

} // namespace
} // namespace powermove
