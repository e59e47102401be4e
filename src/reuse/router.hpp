/**
 * @file
 * The reuse-aware router: gate-aware atom reuse across stage transitions.
 *
 * The continuous router (route/router.hpp) parks *every* idle qubit in
 * the storage zone at every stage transition. Lin et al. ("Reuse-Aware
 * Compilation for Zoned Quantum Architectures Based on Neutral Atoms")
 * observe that when a qubit interacts again within a few stages, the
 * round trip to storage — two transfers out, two transfers back, plus
 * two shuttle legs across the inter-zone gap — costs more fidelity and
 * time than simply leaving the atom parked in the compute zone, where
 * it merely absorbs one excitation exposure per intervening pulse.
 *
 * Per stage transition this router:
 *
 *  - Step 1: hands the idle-in-compute qubits to the configured
 *    residency policy (reuse/policy.hpp), which partitions them into
 *    hold candidates and releases — the cache replacement decision.
 *    The default lookahead policy holds exactly the qubits whose next
 *    interaction lies within the window; the rest park in storage
 *    exactly like the continuous router's step 1.
 *  - Step 2: labels the interacting qubits (static / mobile /
 *    undecided) following the same Fig. 4 cases and the same RNG
 *    stream discipline as the continuous router. Interactions have
 *    priority: they are planned as if the holds were invisible.
 *  - Step 3: resolves undecided qubits onto planned-empty compute
 *    sites (held sites are planned-occupied, so they are never taken).
 *  - Step 4: settles the holds. A candidate whose site ends the
 *    transition alone keeps it without moving; one displaced by an
 *    interaction (or sharing a site with another idle atom, which
 *    would blockade during the pulse) relocates to the nearest
 *    planned-free compute site; if none survives, it is released to
 *    storage after all.
 *
 * The emitted TransitionPlan is consumed by the unchanged Coll-Move
 * grouping / ordering / AOD batching machinery; held qubits end every
 * transition alone at a compute site, which the hardware validator
 * accepts (a lone atom during a pulse is an excitation exposure, not
 * an illegal blockade pair).
 *
 * This strategy requires the storage zone; the pipeline falls back to
 * the continuous router in the storage-free configuration.
 */

#ifndef POWERMOVE_REUSE_ROUTER_HPP
#define POWERMOVE_REUSE_ROUTER_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "arch/layout.hpp"
#include "arch/machine.hpp"
#include "common/rng.hpp"
#include "compiler/strategies.hpp"
#include "reuse/analysis.hpp"
#include "reuse/occupancy.hpp"
#include "reuse/policy.hpp"
#include "route/free_site_index.hpp"
#include "route/router.hpp"
#include "schedule/stage.hpp"

namespace powermove {

/** Reuse-aware router knobs. */
struct ReuseRouterOptions
{
    /**
     * Hold an idle qubit only if it interacts again within this many
     * stages (>= 1). Larger windows hold more atoms — saving more
     * storage round trips but accruing more excitation exposures.
     */
    std::size_t lookahead = 4;
    /** Seed for the randomized mobile/static choice (Fig. 4 case d). */
    std::uint64_t seed = 0xC0FFEE;
    /** Cache replacement policy answering the hold/release question. */
    ResidencyPolicy residency = ResidencyPolicy::Lookahead;
};

/** Reuse accounting summed over every transition a router planned. */
struct ReuseStats
{
    /** Idle qubits kept resident in the compute zone. */
    std::size_t held = 0;
    /** Held qubits relocated within the compute zone to dodge a pair. */
    std::size_t relocated = 0;
    /** Hold candidates denied a surviving site, released to storage. */
    std::size_t hold_denied = 0;
    /** Interacting qubits that entered their stage already held resident. */
    std::size_t hits = 0;
    /**
     * Idle qubits the residency policy released to storage, split into
     * those with no further use in the block (parking is simply
     * correct) and genuine misses whose next use the policy declined to
     * wait for (window too small, pressure eviction, or cost model said
     * park).
     */
    std::size_t parked_no_reuse = 0;
    std::size_t window_misses = 0;
};

/** Plans stage transitions with gate-aware atom reuse. */
class ReuseAwareRouter
{
  public:
    ReuseAwareRouter(const Machine &machine, ReuseRouterOptions options = {});

    /** Draws randomized decisions from @p rng (must outlive the router). */
    ReuseAwareRouter(const Machine &machine, ReuseRouterOptions options,
                     Rng &rng);

    // rng_ may point at own_rng_, so a defaulted copy/move would leave
    // the new object drawing from the source's (possibly dead) stream.
    ReuseAwareRouter(const ReuseAwareRouter &) = delete;
    ReuseAwareRouter &operator=(const ReuseAwareRouter &) = delete;

    /**
     * Announces the ordered stages of the next block. Must be called
     * before routing the block's first stage; subsequent
     * planStageTransition() calls consume the stages in this order.
     * @p final_block marks the program's last block, where program end
     * acts as a virtual reuse event (see ReuseAnalysis::beginBlock).
     */
    void beginBlock(const std::vector<Stage> &stages, std::size_t num_qubits,
                    bool final_block = false);

    /**
     * Closes every still-open residency span at the current global
     * stage so the lifetime stats settle (holds_started ==
     * holds_ended). Must be called once after the program's last
     * transition; without it, spans surviving the final block would
     * never be credited (they used to leak until the next
     * beginBlock(), which never comes for the last block).
     */
    void endProgram();

    /**
     * Plans the transition bringing @p layout into a configuration
     * executing @p stage — which must be the next announced stage —
     * and applies it to @p layout.
     *
     * Post-conditions: every gate pair of the stage shares one compute
     * site; every held idle qubit sits alone at a compute site; every
     * other idle qubit sits in the storage zone.
     */
    TransitionPlan planStageTransition(Layout &layout, const Stage &stage);

    const ReuseRouterOptions &options() const { return options_; }

    /** Residency lifetime counters accumulated across all transitions. */
    const ResidencyStats &residencyStats() const { return occupancy_.stats(); }

    /** Hold and release counts accumulated across all transitions. */
    const ReuseStats &reuseStats() const { return reuse_stats_; }

    /** Number of currently resident (held) qubits. */
    std::size_t numResidents() const { return occupancy_.numResidents(); }

    /** True if @p qubit is currently held resident in the compute zone. */
    bool isResident(QubitId qubit) const { return occupancy_.isResident(qubit); }

  private:
    const Machine &machine_;
    ReuseRouterOptions options_;
    Rng own_rng_; // used unless an external stream was supplied
    Rng *rng_;    // &own_rng_ or the caller's stream

    ZoneOccupancy occupancy_;
    ReuseAnalysis analysis_;
    StorageSlotIndex storage_index_;
    std::unique_ptr<ResidencyPolicyImpl> policy_;
    ReuseStats reuse_stats_;
    std::size_t num_compute_sites_ = 0;
    std::size_t stage_cursor_ = 0;
    // Program-global transition counter: residency spans are stamped
    // with it so persistent policies can hold across block boundaries
    // without violating the span arithmetic (block-local indices would
    // run backwards at each block start).
    std::size_t global_stage_ = 0;
    std::size_t num_qubits_ = 0;
    bool residency_sized_ = false; // first beginBlock() sizes the tables

    // Scratch buffers reused across transitions (allocation-free
    // planning, matching the continuous router's compile-time story).
    std::vector<QubitId> partner_;
    std::vector<SiteId> target_;
    std::vector<MoveLabel> label_;
    std::vector<bool> labeled_;
    std::vector<int> statics_at_;
    std::vector<QubitId> follower_;
    std::vector<QubitId> undecided_order_;
    std::vector<QubitId> candidates_;
    std::vector<QubitId> holds_;
    std::vector<int> holds_at_; // per site: hold candidates parked there
    std::vector<QubitId> releases_;
    std::vector<QubitId> relocated_;
    std::vector<QubitId> denied_;
};

} // namespace powermove

#endif // POWERMOVE_REUSE_ROUTER_HPP
