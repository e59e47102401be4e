/**
 * @file
 * Zoned machine geometry: compute zone, inter-zone gap, storage zone.
 *
 * The trap plane is a lattice with 15 um pitch. The compute zone occupies
 * the top rows (smaller y), the storage zone the bottom rows, separated by
 * a 30 um gap (two empty rows). The paper's default configuration for an
 * n-qubit program is a ceil(sqrt(n)) x ceil(sqrt(n)) compute grid and a
 * ceil(sqrt(n)) x 2*ceil(sqrt(n)) storage grid (Sec. 7.1, Table 2).
 */

#ifndef POWERMOVE_ARCH_MACHINE_HPP
#define POWERMOVE_ARCH_MACHINE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "arch/params.hpp"
#include "common/geometry.hpp"

namespace powermove {

/** The two functional zones of the machine. */
enum class ZoneKind : std::uint8_t { Compute, Storage };

/** Short human-readable zone name. */
std::string zoneKindName(ZoneKind kind);

/** Static machine shape. */
struct MachineConfig
{
    /** Compute zone width, in sites. */
    std::int32_t compute_cols = 0;
    /** Compute zone height, in sites. */
    std::int32_t compute_rows = 0;
    /** Storage zone width, in sites. */
    std::int32_t storage_cols = 0;
    /** Storage zone height, in sites. */
    std::int32_t storage_rows = 0;
    /** Empty lattice rows between the zones (2 rows = 30 um). */
    std::int32_t gap_rows = 2;
    /** Physical parameters. */
    HardwareParams params;

    /**
     * Largest program forQubits() sizes a machine for: a 1024 x 1024
     * compute grid over three million sites, far beyond any array the
     * paper models. Front ends reject larger programs with a typed
     * error before allocating anything for them.
     */
    static constexpr std::size_t kMaxQubits = std::size_t{1} << 20;

    /**
     * The paper's default zone shape for an @p num_qubits-qubit program:
     * compute ceil(sqrt(n))^2 sites, storage ceil(sqrt(n)) * 2ceil(sqrt(n)).
     * Throws ConfigError for 0 or more than kMaxQubits qubits.
     */
    static MachineConfig forQubits(std::size_t num_qubits);

    /** Compute zone footprint in um^2 (e.g. "90 x 90" for n = 30). */
    std::string computeZoneExtent() const;
    /** Inter-zone footprint in um^2. */
    std::string interZoneExtent() const;
    /** Storage zone footprint in um^2. */
    std::string storageZoneExtent() const;
};

/** Dense identifier of a trap site. */
using SiteId = std::uint32_t;

/** Sentinel for "no site". */
inline constexpr SiteId kInvalidSite = ~SiteId{0};

/**
 * The zoned trap lattice. Provides site <-> coordinate mapping, zone
 * classification, and physical distances. Sites are immutable; dynamic
 * occupancy lives in Layout.
 */
class Machine
{
  public:
    explicit Machine(MachineConfig config);

    const MachineConfig &config() const { return config_; }
    const HardwareParams &params() const { return config_.params; }

    /** Total number of sites (compute + storage). */
    std::size_t numSites() const { return sites_.size(); }
    /** Number of compute-zone sites. */
    std::size_t numComputeSites() const { return num_compute_sites_; }
    /** Number of storage-zone sites. */
    std::size_t numStorageSites() const
    {
        return sites_.size() - num_compute_sites_;
    }

    /** Zone containing @p site. */
    ZoneKind
    zoneOf(SiteId site) const
    {
        return site < num_compute_sites_ ? ZoneKind::Compute : ZoneKind::Storage;
    }

    /** Lattice coordinate of @p site. */
    SiteCoord coordOf(SiteId site) const;

    /** Physical position of @p site in micrometers. */
    PhysCoord physOf(SiteId site) const;

    /** True if a site exists at @p coord. */
    bool isSite(SiteCoord coord) const;

    /** Site at @p coord; must exist. */
    SiteId siteAt(SiteCoord coord) const;

    /** Euclidean physical distance between two sites. */
    Distance distanceBetween(SiteId a, SiteId b) const;

    /** All compute-zone sites, row-major (top-left first). */
    std::vector<SiteId> computeSites() const;
    /** All storage-zone sites, row-major (closest-to-compute row first). */
    std::vector<SiteId> storageSites() const;

    /** First lattice row of the storage zone. */
    std::int32_t storageTopRow() const { return storage_top_row_; }
    /** One past the last compute row. */
    std::int32_t computeBottomRow() const { return config_.compute_rows; }

  private:
    MachineConfig config_;
    std::vector<SiteCoord> sites_;       // site id -> coordinate
    std::size_t num_compute_sites_ = 0;
    std::int32_t storage_top_row_ = 0;
    // coord -> site id lookup, row-major over the bounding box
    std::vector<SiteId> coord_to_site_;
    std::int32_t bbox_cols_ = 0;
    std::int32_t bbox_rows_ = 0;

    std::size_t bboxIndex(SiteCoord coord) const;
};

} // namespace powermove

#endif // POWERMOVE_ARCH_MACHINE_HPP
