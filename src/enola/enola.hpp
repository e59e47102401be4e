/**
 * @file
 * The Enola baseline compiler (Tan, Lin, Cong 2024), reimplemented.
 *
 * Enola is the strongest prior NAQC compiler and the paper's primary
 * baseline (Sec. 3, Sec. 7). Its pipeline:
 *
 *  1. a fixed *home* layout in the compute zone, found by simulated
 *     annealing;
 *  2. edge-coloring gate scheduling into stages (same near-optimal
 *     scheme PowerMove uses);
 *  3. per stage, one endpoint of every gate travels from its home to its
 *     partner's home site, the pulse fires, and the movers travel back —
 *     the "revert to initial layout" scheme whose clustering rationale
 *     Fig. 3 illustrates;
 *  4. movement batching via repeated maximum-independent-set extraction
 *     on the conflict graph.
 *
 * No storage zone is used, so every idle qubit is exposed to every
 * Rydberg excitation. Both the two movement legs per stage and the MIS
 * batching reproduce Enola's fidelity/time/compile-time scaling shape.
 */

#ifndef POWERMOVE_ENOLA_ENOLA_HPP
#define POWERMOVE_ENOLA_ENOLA_HPP

#include <cstdint>

#include "arch/machine.hpp"
#include "circuit/circuit.hpp"
#include "compiler/result.hpp"
#include "enola/placement.hpp"

namespace powermove {

/** How the baseline batches qubit movements. */
enum class EnolaMovement : std::uint8_t
{
    /**
     * One relocation per Coll-Move. This matches the movement costs the
     * paper measures for Enola (e.g. VQE-50's ~10 ms across 98
     * near-adjacent relocations is only consistent with unbatched
     * moves) and reflects that Coll-Move grouping is PowerMove's own
     * contribution (Sec. 5.3).
     */
    Sequential,
    /** Batch compatible moves via iterated MIS: an upgraded baseline. */
    Mis,
};

/** Enola pipeline knobs. */
struct EnolaOptions
{
    /** Movement batching flavor (see EnolaMovement). */
    EnolaMovement movement = EnolaMovement::Sequential;

    /**
     * The paper's Example 2 (Fig. 3e/f): what Enola's revert scheme
     * would look like *with* a storage zone. The home layout lives
     * entirely in storage and, for every stage, both endpoints of every
     * gate shuttle to a compute-zone interaction site and back. This
     * eliminates excitation errors but pays two inter-zone legs per
     * qubit per stage — the overhead the paper's Stage Scheduler and
     * Continuous Router exist to avoid. Off by default (the measured
     * Enola has no storage zone).
     */
    bool use_storage = false;
    /**
     * Anneal the home layout against the whole gate list. Off by
     * default: the paper depicts Enola's initial layout as the plain
     * row-major grid (Fig. 3e) and PowerMove *adopts* that same initial
     * layout (Sec. 4.2); a statically gate-aware home layout would also
     * grant the baseline a joint optimization the original tool does
     * not perform. Enable for ablation studies.
     */
    bool anneal_placement = false;
    /** Placement annealing schedule (used when anneal_placement). */
    PlacementOptions placement;
    /** Seed for placement annealing. */
    std::uint64_t seed = 0xE401A;
    /** Number of AOD arrays (the paper evaluates Enola with one). */
    std::size_t num_aods = 1;
};

/** The revert-style baseline compiler. */
class EnolaCompiler
{
  public:
    explicit EnolaCompiler(const Machine &machine, EnolaOptions options = {});

    /** Compiles @p circuit with the Enola scheme, validated and scored. */
    CompileResult compile(const Circuit &circuit) const;

    const EnolaOptions &options() const { return options_; }

  private:
    const Machine &machine_;
    EnolaOptions options_;
};

} // namespace powermove

#endif // POWERMOVE_ENOLA_ENOLA_HPP
