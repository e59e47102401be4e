/**
 * @file
 * Free-site searches of the reuse-aware router (reuse/router.hpp). The
 * continuous router keeps bitmask versions of both that return the
 * same sites (route/router.hpp).
 *
 * Every router repeatedly asks "which planned-free site is closest?"
 * against a planned-occupancy array that settles once per stage
 * transition. Two searches exist:
 *
 *  - StorageSlotIndex answers the storage-parking query (Sec. 5.2
 *    step 1: minimal column distance, then shallowest row) with one
 *    forward-only cursor per storage column. Within a transition the
 *    storage zone only ever gains planned occupants while parking runs,
 *    so a row found occupied stays occupied and the cursor never
 *    rewinds; the per-call row rescan this replaces was flagged by
 *    bench/micro_passes as part of the routing hot path.
 *  - findNearestFreeComputeSite keeps the expanding Chebyshev-ring
 *    search for the euclidean-nearest planned-empty compute site.
 */

#ifndef POWERMOVE_ROUTE_FREE_SITE_INDEX_HPP
#define POWERMOVE_ROUTE_FREE_SITE_INDEX_HPP

#include <cstdint>
#include <vector>

#include "arch/machine.hpp"

namespace powermove {

/**
 * Incremental first-free-row index over the storage zone.
 *
 * Cursors are reset per transition and only advance past rows observed
 * occupied, so a burst of parkings costs O(storage sites) row visits per
 * transition in total instead of per parked qubit. A slot freed *after*
 * its row was skipped in the same transition (possible only on the
 * reuse router's fallback-release path, which runs after storage
 * departures are planned) may make the index return a deeper slot,
 * never an occupied one — claimSlot() re-checks planned occupancy at
 * the cursor on every call, and rewinds every cursor for one full
 * rescan before declaring the zone full.
 */
class StorageSlotIndex
{
  public:
    explicit StorageSlotIndex(const Machine &machine);

    /** Rewinds every column cursor; call once per stage transition. */
    void beginTransition();

    /**
     * Closest planned-empty storage slot for a qubit at @p origin:
     * lexicographic minimum of (|dx|, y, x), exactly the Sec. 5.2
     * step 1 order. The caller records the claim in @p planned; fatal
     * when the storage zone has no planned-free slot.
     */
    SiteId claimSlot(SiteCoord origin, const std::vector<int> &planned);

  private:
    /** First planned-free row of @p column, or -1; advances the cursor. */
    std::int32_t firstFreeRow(std::int32_t column,
                              const std::vector<int> &planned);

    const Machine &machine_;
    std::vector<std::int32_t> cursor_; // per column: first maybe-free row
};

/**
 * Expanding-ring search for the euclidean-nearest planned-empty compute
 * site as seen from @p origin (ties broken by (y, x)); @p origin may lie
 * in either zone. Returns kInvalidSite when the compute zone has no
 * planned-free site.
 */
SiteId findNearestFreeComputeSite(const Machine &machine, SiteId origin,
                                  const std::vector<int> &planned);

} // namespace powermove

#endif // POWERMOVE_ROUTE_FREE_SITE_INDEX_HPP
