/**
 * @file
 * The Continuous Router (paper Sec. 5).
 *
 * Instead of reverting to a fixed home layout between Rydberg stages (as
 * Enola does), the continuous router transitions the current layout
 * *directly* into a layout executing the next stage. For one transition
 * it decides a single 1Q move per affected qubit:
 *
 *  - Step 1: qubits idle in the next stage are parked in the storage
 *    zone, farthest-from-storage qubits choosing first, each taking the
 *    closest empty storage site below its column (Sec. 5.2 step 1).
 *  - Step 2: interacting qubits get labels (static / mobile / undecided)
 *    following the four current-location cases of Fig. 4.
 *  - Step 3: undecided qubits claim the nearest compute site that will
 *    be empty after all planned departures; their partners follow.
 *
 * In the storage-free configuration (paper's "non-storage" rows) no
 * parking happens; instead idle qubits that would be co-located with a
 * static qubit or with another idle qubit during the pulse are evicted
 * to the nearest free compute site, which is exactly the clustering
 * hazard of Fig. 3 that forces Enola to revert.
 *
 * The router is incremental: every per-transition O(qubits) or O(sites)
 * rebuild of the straightforward implementation is replaced by state
 * maintained across transitions.
 *
 *  - The planned-occupancy array persists across transitions. After a
 *    transition settles, planned occupancy equals the applied layout's
 *    occupancy (every mover was decremented at its origin and
 *    incremented at its destination), so the next transition starts
 *    from it directly instead of re-counting every qubit.
 *  - Free-site bitmasks (one word-packed row per compute row, one
 *    column per storage column) are kept in lockstep with the planned
 *    array, turning both free-site searches — the expanding-ring
 *    nearest-compute-site scan and the storage-slot column walk of
 *    free_site_index.hpp — into a handful of bit scans over contiguous
 *    words. The nearest-site search evaluates the *same* euclidean
 *    doubles with the same comparator as findNearestFreeComputeSite,
 *    so the chosen site is identical, not merely equivalent (the row
 *    pruning bound carries a two-ulp slack to stay conservative under
 *    floating-point rounding).
 *  - A resident list of compute-zone qubits replaces the O(qubits)
 *    idle scan of parking step 1: in storage mode the compute zone only
 *    ever holds the previous stage's interacting qubits, so the scan is
 *    O(previous stage width), not O(circuit width).
 *  - Per-qubit and per-site scratch (partner, labels, targets, statics
 *    counts) is epoch-stamped instead of re-assigned, so a transition
 *    touches only the entries it actually writes.
 *  - Site coordinates and physical positions are mirrored into SoA
 *    arrays at construction, keeping the hot loops free of the
 *    assertion-checked Machine lookups.
 *
 * Because the state is incremental, a plan can also be taken back:
 * revert() restores the pre-plan layout and state in O(moves), and
 * apply() replays a reverted plan. The windowed router
 * (route/windowed_router.hpp) scores candidate plans this way on the
 * live layout.
 *
 * The mirrors assume the layout is mutated only through this router
 * between calls (the pipeline guarantees this: placement runs before
 * the first transition and nothing else moves qubits). Call reset()
 * if the layout was changed externally; auditAgainstLayout() verifies
 * every incremental structure against a from-scratch rebuild and backs
 * the churn property test (fast_router_state_test.cpp). The
 * straightforward per-transition implementation lives on as a test
 * oracle (tests/reference_router.hpp); differential tests hold this
 * router to it plan by plan.
 */

#ifndef POWERMOVE_ROUTE_ROUTER_HPP
#define POWERMOVE_ROUTE_ROUTER_HPP

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "arch/layout.hpp"
#include "arch/machine.hpp"
#include "common/rng.hpp"
#include "route/move.hpp"
#include "schedule/stage.hpp"

namespace powermove {

/** Continuous-router knobs. */
struct RouterOptions
{
    /** Park idle qubits in the storage zone (zoned-architecture mode). */
    bool use_storage = true;
    /** Seed for the random mobile/static choice in Fig. 4 case (d). */
    std::uint64_t seed = 0xC0FFEE;
};

/** The planned transition into one stage. */
struct TransitionPlan
{
    /** All 1Q moves of the transition, in decision order. */
    std::vector<QubitMove> moves;
    /** Labels assigned to interacting qubits, in assignment order. */
    std::vector<std::pair<QubitId, MoveLabel>> labels;
    /** Idle qubits parked into storage (step 1). */
    std::size_t num_parked = 0;
    /** Idle qubits evicted to dodge clustering (storage-free mode). */
    std::size_t num_evicted = 0;
};

/** Plans direct layout-to-layout transitions (paper Sec. 5). */
class ContinuousRouter
{
  public:
    ContinuousRouter(const Machine &machine, RouterOptions options = {});

    /**
     * Uses @p rng for the randomized mobile/static choice instead of an
     * internally seeded stream (options.seed is then ignored). The
     * pipeline threads its PipelineContext RNG through here so every
     * randomized decision of a compilation draws from one stream.
     * @p rng must outlive the router.
     */
    ContinuousRouter(const Machine &machine, RouterOptions options, Rng &rng);

    // rng_ may point at own_rng_, so a defaulted copy/move would leave
    // the new object drawing from the source's (possibly dead) stream.
    ContinuousRouter(const ContinuousRouter &) = delete;
    ContinuousRouter &operator=(const ContinuousRouter &) = delete;

    /**
     * Plans the transition bringing @p layout into a configuration that
     * executes @p stage, and applies it to @p layout. The first call (or
     * the first after reset()) initializes the incremental state from
     * @p layout; later calls require that the layout was not mutated
     * outside this router in between.
     *
     * Post-conditions (validated downstream): every gate pair of the
     * stage shares one compute site; no other two qubits share a site;
     * in storage mode every idle qubit sits in the storage zone.
     */
    TransitionPlan planStageTransition(Layout &layout, const Stage &stage);

    /**
     * Undoes @p plan, which must be the last plan applied to @p layout
     * through this router: moves every mover back, and restores planned
     * occupancy, the free bitmasks, the site mirror and the resident
     * list. Costs O(moves). RNG draws made while planning are not
     * returned to the stream.
     */
    void revert(Layout &layout, const TransitionPlan &plan);

    /**
     * Re-applies @p plan, which this router planned from the current
     * state of @p layout and then reverted; lands in exactly the state
     * planStageTransition() left. Costs O(moves).
     */
    void apply(Layout &layout, const TransitionPlan &plan);

    /** Drops the incremental state; the next plan rebuilds it. */
    void reset() { initialized_ = false; }

    /**
     * Debug/property-test hook: rebuilds planned occupancy, the free
     * bitmasks, the site mirror, and the resident list from @p layout
     * and compares them to the incrementally maintained versions.
     * Returns false (and fills @p why) on the first divergence.
     */
    bool auditAgainstLayout(const Layout &layout,
                            std::string *why = nullptr) const;

    const RouterOptions &options() const { return options_; }

  private:
    void initGeometry();
    void initFrom(const Layout &layout);

    // planned-occupancy maintenance; keeps the free bitmasks in sync.
    void plannedInc(SiteId site);
    void plannedDec(SiteId site);
    void setFreeBit(SiteId site);
    void clearFreeBit(SiteId site);
    bool freeBit(SiteId site) const;

    /** First planned-free storage row of @p column, or -1. */
    std::int32_t firstFreeStorageRow(std::int32_t column) const;

    /**
     * Bitmask reimplementation of StorageSlotIndex::claimSlot for the
     * continuous router's monotonic parking phase: the lexicographic
     * (|dx|, y, x) minimum over planned-free storage slots. Identical
     * to the cursor-based search because storage occupancy only grows
     * while parking runs. Fatal when the zone is full.
     */
    SiteId claimStorageSlot(std::int32_t origin_x) const;

    /**
     * Bitmask replacement for findNearestFreeComputeSite: the unique
     * (euclidean distance, y, x) argmin over planned-free compute
     * sites, computed from the same doubles with the same comparator.
     * Returns kInvalidSite when the compute zone has no free site.
     */
    SiteId findNearestFreeCompute(SiteId origin) const;

    // resident-list maintenance (compute-zone qubits).
    void addResident(QubitId qubit);
    void removeResident(QubitId qubit);

    /**
     * Moves every qubit of @p moves transactionally (all departures,
     * then all arrivals) — from->to, or to->from when @p backward — and
     * keeps the site mirror and the resident list in sync. Planned
     * occupancy is the caller's to update.
     */
    void moveQubits(Layout &layout, const std::vector<QubitMove> &moves,
                    bool backward);

    static constexpr std::size_t kNpos = ~std::size_t{0};

    const Machine &machine_;
    RouterOptions options_;
    Rng own_rng_; // used unless an external stream was supplied
    Rng *rng_;    // &own_rng_ or the caller's stream

    // Immutable geometry mirrors (SoA; filled once at construction).
    std::int32_t compute_cols_ = 0;
    std::int32_t compute_rows_ = 0;
    std::int32_t storage_cols_ = 0;
    std::int32_t storage_rows_ = 0;
    std::int32_t storage_top_row_ = 0;
    std::size_t num_compute_ = 0;
    std::size_t num_sites_ = 0;
    std::vector<std::int32_t> coord_x_; // site -> lattice x
    std::vector<std::int32_t> coord_y_; // site -> lattice y
    std::vector<double> phys_x_;        // site -> physical x (um)
    std::vector<double> phys_y_;        // site -> physical y (um)

    // Persistent incremental state (valid while initialized_).
    bool initialized_ = false;
    std::vector<int> planned_;            // site -> settled occupancy
    std::vector<std::uint64_t> free_rows_; // compute: per-row free bits
    std::vector<std::uint64_t> free_cols_; // storage: per-col free bits
    std::size_t row_words_ = 0;
    std::size_t col_words_ = 0;
    std::vector<SiteId> site_of_;         // qubit -> site mirror
    std::vector<QubitId> residents_;      // compute-zone qubits
    std::vector<std::size_t> resident_pos_; // qubit -> residents_ index

    // Epoch-stamped per-transition scratch (entry valid iff its stamp
    // equals epoch_; bumping the epoch "clears" every array in O(1)).
    std::uint64_t epoch_ = 0;
    std::vector<std::uint64_t> partner_epoch_;
    std::vector<QubitId> partner_;
    std::vector<std::uint64_t> labeled_epoch_;
    std::vector<std::uint64_t> target_epoch_;
    std::vector<SiteId> target_;
    std::vector<std::uint64_t> follower_epoch_;
    std::vector<QubitId> follower_;
    std::vector<std::uint64_t> statics_epoch_;
    std::vector<int> statics_at_;
    std::vector<std::uint64_t> first_idle_epoch_;

    // Plain per-transition scratch.
    std::vector<std::uint64_t> idle_keys_; // packed (y, x, qubit)
    std::vector<QubitId> undecided_order_;
    std::vector<QubitId> evicted_;
};

} // namespace powermove

#endif // POWERMOVE_ROUTE_ROUTER_HPP
