#include "arch/machine.hpp"

#include <cmath>
#include <sstream>

#include "common/error.hpp"

namespace powermove {

std::string
zoneKindName(ZoneKind kind)
{
    return kind == ZoneKind::Compute ? "compute" : "storage";
}

MachineConfig
MachineConfig::forQubits(std::size_t num_qubits)
{
    if (num_qubits == 0)
        fatal("machine requires at least one qubit");
    if (num_qubits > kMaxQubits)
        fatal("machine ceiling is " + std::to_string(kMaxQubits) +
              " qubits, got " + std::to_string(num_qubits));
    const auto side = static_cast<std::int32_t>(
        std::ceil(std::sqrt(static_cast<double>(num_qubits))));
    MachineConfig config;
    config.compute_cols = side;
    config.compute_rows = side;
    config.storage_cols = side;
    config.storage_rows = 2 * side;
    config.gap_rows = 2;
    return config;
}

namespace {

std::string
extentString(double w_um, double h_um)
{
    std::ostringstream os;
    os << w_um << " x " << h_um;
    return os.str();
}

} // namespace

std::string
MachineConfig::computeZoneExtent() const
{
    const double pitch = params.site_pitch.microns();
    return extentString(pitch * compute_cols, pitch * compute_rows);
}

std::string
MachineConfig::interZoneExtent() const
{
    const double pitch = params.site_pitch.microns();
    return extentString(pitch * compute_cols, pitch * gap_rows);
}

std::string
MachineConfig::storageZoneExtent() const
{
    const double pitch = params.site_pitch.microns();
    return extentString(pitch * storage_cols, pitch * storage_rows);
}

Machine::Machine(MachineConfig config) : config_(config)
{
    if (config_.compute_cols <= 0 || config_.compute_rows <= 0)
        fatal("machine compute zone must be non-empty");
    if (config_.storage_cols < 0 || config_.storage_rows < 0 ||
        config_.gap_rows < 0) {
        fatal("machine zone dimensions must be non-negative");
    }

    storage_top_row_ = config_.compute_rows + config_.gap_rows;
    bbox_cols_ = std::max(config_.compute_cols, config_.storage_cols);
    bbox_rows_ = storage_top_row_ + config_.storage_rows;
    coord_to_site_.assign(
        static_cast<std::size_t>(bbox_cols_) * static_cast<std::size_t>(bbox_rows_),
        kInvalidSite);

    // Compute sites first (ids 0 .. C-1), row-major from the top.
    for (std::int32_t y = 0; y < config_.compute_rows; ++y) {
        for (std::int32_t x = 0; x < config_.compute_cols; ++x) {
            const SiteCoord coord{x, y};
            coord_to_site_[bboxIndex(coord)] =
                static_cast<SiteId>(sites_.size());
            sites_.push_back(coord);
        }
    }
    num_compute_sites_ = sites_.size();

    // Storage sites below the gap, row-major; the first storage row is the
    // one nearest to the compute zone.
    for (std::int32_t r = 0; r < config_.storage_rows; ++r) {
        const std::int32_t y = storage_top_row_ + r;
        for (std::int32_t x = 0; x < config_.storage_cols; ++x) {
            const SiteCoord coord{x, y};
            coord_to_site_[bboxIndex(coord)] =
                static_cast<SiteId>(sites_.size());
            sites_.push_back(coord);
        }
    }
}

std::size_t
Machine::bboxIndex(SiteCoord coord) const
{
    PM_ASSERT(coord.x >= 0 && coord.x < bbox_cols_ && coord.y >= 0 &&
                  coord.y < bbox_rows_,
              "coordinate outside machine bounding box");
    return static_cast<std::size_t>(coord.y) *
               static_cast<std::size_t>(bbox_cols_) +
           static_cast<std::size_t>(coord.x);
}

SiteCoord
Machine::coordOf(SiteId site) const
{
    PM_ASSERT(site < sites_.size(), "site id out of range");
    return sites_[site];
}

PhysCoord
Machine::physOf(SiteId site) const
{
    const auto coord = coordOf(site);
    const double pitch = config_.params.site_pitch.microns();
    double y_um = coord.y * pitch;
    if (coord.y >= storage_top_row_) {
        // The gap between zones is zone_gap um regardless of how many
        // lattice rows it nominally spans.
        y_um = config_.compute_rows * pitch + config_.params.zone_gap.microns() +
               (coord.y - storage_top_row_) * pitch;
    }
    return PhysCoord{coord.x * pitch, y_um};
}

bool
Machine::isSite(SiteCoord coord) const
{
    if (coord.x < 0 || coord.x >= bbox_cols_ || coord.y < 0 ||
        coord.y >= bbox_rows_) {
        return false;
    }
    return coord_to_site_[bboxIndex(coord)] != kInvalidSite;
}

SiteId
Machine::siteAt(SiteCoord coord) const
{
    PM_ASSERT(isSite(coord), "no site at requested coordinate");
    return coord_to_site_[bboxIndex(coord)];
}

Distance
Machine::distanceBetween(SiteId a, SiteId b) const
{
    return euclidean(physOf(a), physOf(b));
}

std::vector<SiteId>
Machine::computeSites() const
{
    std::vector<SiteId> sites(num_compute_sites_);
    for (SiteId s = 0; s < num_compute_sites_; ++s)
        sites[s] = s;
    return sites;
}

std::vector<SiteId>
Machine::storageSites() const
{
    std::vector<SiteId> sites;
    sites.reserve(numStorageSites());
    for (SiteId s = static_cast<SiteId>(num_compute_sites_); s < sites_.size();
         ++s) {
        sites.push_back(s);
    }
    return sites;
}

} // namespace powermove
