/**
 * @file
 * The benchmark's input programs, generated from a workload seed.
 *
 * A program name is `<Family>-<n>` (a Table 2 family at width n),
 * optionally followed by `@<salt>`. Seed 0 without a salt yields the
 * exact Table 2 instance (the suite's own per-entry seed); any other
 * seed or salt draws a fresh instance of the same family and width
 * from the randomized generators. QFT has no randomness, so QFT
 * programs are identical under every seed. The `@table2` list entry
 * expands to the 23 Table 2 names in paper order.
 */

#ifndef PERFBENCH_PROGRAMS_HPP
#define PERFBENCH_PROGRAMS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"

namespace perfbench {

/** Expands `@table2` entries; other names pass through in order. */
std::vector<std::string>
expandProgramList(const std::vector<std::string> &list);

/** @p list with repeated names dropped, first occurrence kept. */
std::vector<std::string> distinctNames(const std::vector<std::string> &list);

/** Builds program @p name for @p workload_seed; throws on a bad name. */
powermove::Circuit buildProgram(const std::string &name,
                                std::uint64_t workload_seed);

} // namespace perfbench

#endif // PERFBENCH_PROGRAMS_HPP
