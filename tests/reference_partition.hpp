/**
 * @file
 * Reference stage partition: the test oracle for schedule/stage_partition.
 *
 * reference::partitionIntoStages is the paper's Sec. 4.1 Algorithm 1 as
 * written: it materializes the gate-conflict graph of a CZ block (one
 * vertex per gate, a clique per qubit, so O(k^2) edges for a qubit used
 * in k gates) and colors it greedily in descending vertex-degree order
 * (Welsh-Powell). The production partitioner computes the same coloring
 * by a graph-free qubit scan; the differential tests hold the two to
 * the same stages, gate for gate, and bench/micro_partition times them
 * side by side.
 */

#ifndef POWERMOVE_TESTS_REFERENCE_PARTITION_HPP
#define POWERMOVE_TESTS_REFERENCE_PARTITION_HPP

#include <cstdint>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/graph.hpp"
#include "schedule/stage.hpp"

namespace powermove::reference {

/**
 * Builds the interaction graph of a CZ block: one vertex per gate, one
 * edge between every two gates sharing at least one qubit. Gate pairs
 * sharing *both* qubits are deduplicated up front (the pair is expanded
 * only from its lower shared qubit), so every conflict reaches
 * Graph::addEdge exactly once.
 */
Graph buildInteractionGraph(const CzBlock &block, std::size_t num_qubits);

/** Vertices sorted by descending degree (ties by ascending index). */
std::vector<Graph::Vertex> verticesByDegreeDesc(const Graph &graph);

/**
 * Greedy coloring that processes vertices in the given order, assigning
 * each the smallest color unused among its neighbors (core of paper
 * Alg. 1).
 *
 * @return one color per vertex, colors are dense starting at 0.
 */
std::vector<std::uint32_t> greedyColoring(
    const Graph &graph, const std::vector<Graph::Vertex> &order);

/** Number of distinct colors in a coloring. */
std::uint32_t numColors(const std::vector<std::uint32_t> &coloring);

/** True if no edge of @p graph joins two equal colors. */
bool isProperColoring(const Graph &graph,
                      const std::vector<std::uint32_t> &coloring);

/**
 * Partitions a commutable CZ block into stages (Algorithm 1) via the
 * materialized conflict graph.
 *
 * @return stages of disjoint-qubit gates, one per color, gates in block
 *         order within each stage.
 */
std::vector<Stage> partitionIntoStages(const CzBlock &block,
                                       std::size_t num_qubits);

} // namespace powermove::reference

#endif // POWERMOVE_TESTS_REFERENCE_PARTITION_HPP
