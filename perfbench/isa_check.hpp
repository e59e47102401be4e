/**
 * @file
 * The benchmark's output checker.
 *
 * Reads an ISA JSON document as the `powermove` CLI wrote it, rebuilds
 * it into a MachineSchedule through the public Machine/MachineSchedule
 * API, validates it against the circuit the benchmark generated (not
 * the one the CLI parsed), and scores it with the Eq. (1) evaluator.
 * The quality numbers therefore describe the bytes a user receives.
 */

#ifndef PERFBENCH_ISA_CHECK_HPP
#define PERFBENCH_ISA_CHECK_HPP

#include <cstddef>
#include <string>
#include <string_view>

#include "circuit/circuit.hpp"
#include "json_value.hpp"

namespace perfbench {

/** The verdict and quality figures for one emitted program. */
struct ProgramCheck
{
    bool ok = false;
    /** Why the program failed; empty when ok. */
    std::string error;
    /** Eq. (1) fidelity of the rebuilt schedule. */
    double fidelity = 0.0;
    /** Modelled execution time (paper Sec. 6.2), microseconds. */
    double t_exe_us = 0.0;
    std::size_t transfers = 0;
};

/** Checks the ISA JSON @p text against @p circuit. Never throws. */
ProgramCheck checkIsaJson(std::string_view text,
                          const powermove::Circuit &circuit);

/** The same check on an already parsed document. */
ProgramCheck checkIsaDocument(const JsonValue &document,
                              const powermove::Circuit &circuit);

/**
 * The checker's ground-truth test. Takes a valid document and confirms
 * that the clean copy passes and that each of three mutations fails:
 * a dropped Rydberg gate, a move from a site the atom is not on, and a
 * wrong block index. Returns an empty string on success, otherwise a
 * description of the first mutation the checker let through.
 */
std::string runMutationTest(const JsonValue &document,
                            const powermove::Circuit &circuit);

} // namespace perfbench

#endif // PERFBENCH_ISA_CHECK_HPP
