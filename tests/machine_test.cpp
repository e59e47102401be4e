/** @file Tests for the zoned machine geometry. */

#include <gtest/gtest.h>

#include "arch/machine.hpp"
#include "common/error.hpp"

namespace powermove {
namespace {

TEST(MachineConfigTest, ForQubitsMatchesPaperSizingRule)
{
    // Table 2 cross-checks: compute 15*ceil(sqrt(n)) square, storage
    // double-height, 30um gap.
    const auto c30 = MachineConfig::forQubits(30);
    EXPECT_EQ(c30.compute_cols, 6);
    EXPECT_EQ(c30.compute_rows, 6);
    EXPECT_EQ(c30.storage_cols, 6);
    EXPECT_EQ(c30.storage_rows, 12);
    EXPECT_EQ(c30.computeZoneExtent(), "90 x 90");
    EXPECT_EQ(c30.interZoneExtent(), "90 x 30");
    EXPECT_EQ(c30.storageZoneExtent(), "90 x 180");

    EXPECT_EQ(MachineConfig::forQubits(40).computeZoneExtent(), "105 x 105");
    EXPECT_EQ(MachineConfig::forQubits(50).computeZoneExtent(), "120 x 120");
    EXPECT_EQ(MachineConfig::forQubits(60).computeZoneExtent(), "120 x 120");
    EXPECT_EQ(MachineConfig::forQubits(80).computeZoneExtent(), "135 x 135");
    EXPECT_EQ(MachineConfig::forQubits(100).computeZoneExtent(), "150 x 150");
    EXPECT_EQ(MachineConfig::forQubits(14).computeZoneExtent(), "60 x 60");
    EXPECT_EQ(MachineConfig::forQubits(14).storageZoneExtent(), "60 x 120");
    EXPECT_EQ(MachineConfig::forQubits(18).computeZoneExtent(), "75 x 75");
    EXPECT_EQ(MachineConfig::forQubits(29).computeZoneExtent(), "90 x 90");
}

TEST(MachineConfigTest, ZeroQubitsRejected)
{
    EXPECT_THROW(MachineConfig::forQubits(0), ConfigError);
    // Past the ceiling is just as typed an error, not an allocation.
    EXPECT_EQ(MachineConfig::forQubits(MachineConfig::kMaxQubits).compute_cols,
              1024);
    EXPECT_THROW(MachineConfig::forQubits(MachineConfig::kMaxQubits + 1),
                 ConfigError);
}

TEST(MachineTest, SiteCountsByZone)
{
    const Machine machine(MachineConfig::forQubits(30));
    EXPECT_EQ(machine.numComputeSites(), 36u);
    EXPECT_EQ(machine.numStorageSites(), 72u);
    EXPECT_EQ(machine.numSites(), 108u);
}

TEST(MachineTest, ZoneClassification)
{
    const Machine machine(MachineConfig::forQubits(30));
    EXPECT_EQ(machine.zoneOf(0), ZoneKind::Compute);
    EXPECT_EQ(machine.zoneOf(35), ZoneKind::Compute);
    EXPECT_EQ(machine.zoneOf(36), ZoneKind::Storage);
    EXPECT_EQ(machine.zoneOf(107), ZoneKind::Storage);
}

TEST(MachineTest, CoordSiteRoundTrip)
{
    const Machine machine(MachineConfig::forQubits(30));
    for (SiteId site = 0; site < machine.numSites(); ++site) {
        const auto coord = machine.coordOf(site);
        EXPECT_TRUE(machine.isSite(coord));
        EXPECT_EQ(machine.siteAt(coord), site);
    }
}

TEST(MachineTest, GapRowsHoldNoSites)
{
    const Machine machine(MachineConfig::forQubits(30));
    // Compute rows are 0..5; gap rows 6..7; storage rows 8..19.
    EXPECT_FALSE(machine.isSite(SiteCoord{0, 6}));
    EXPECT_FALSE(machine.isSite(SiteCoord{5, 7}));
    EXPECT_TRUE(machine.isSite(SiteCoord{0, 5}));
    EXPECT_TRUE(machine.isSite(SiteCoord{0, 8}));
    EXPECT_EQ(machine.storageTopRow(), 8);
    EXPECT_EQ(machine.computeBottomRow(), 6);
}

TEST(MachineTest, OutOfBoundsCoordinates)
{
    const Machine machine(MachineConfig::forQubits(30));
    EXPECT_FALSE(machine.isSite(SiteCoord{-1, 0}));
    EXPECT_FALSE(machine.isSite(SiteCoord{0, -1}));
    EXPECT_FALSE(machine.isSite(SiteCoord{6, 0}));
    EXPECT_FALSE(machine.isSite(SiteCoord{0, 20}));
}

TEST(MachineTest, PhysicalPitchWithinZones)
{
    const Machine machine(MachineConfig::forQubits(30));
    const auto a = machine.physOf(machine.siteAt(SiteCoord{0, 0}));
    const auto b = machine.physOf(machine.siteAt(SiteCoord{1, 0}));
    const auto c = machine.physOf(machine.siteAt(SiteCoord{0, 1}));
    EXPECT_DOUBLE_EQ(euclidean(a, b).microns(), 15.0);
    EXPECT_DOUBLE_EQ(euclidean(a, c).microns(), 15.0);
}

TEST(MachineTest, InterZoneGapIs30Microns)
{
    const Machine machine(MachineConfig::forQubits(30));
    // Last compute row is y=5 (physical 75um); first storage row should
    // sit at 90 (compute height) + 30 (gap) = 120um.
    const auto bottom_compute = machine.physOf(machine.siteAt(SiteCoord{0, 5}));
    const auto top_storage = machine.physOf(machine.siteAt(SiteCoord{0, 8}));
    EXPECT_DOUBLE_EQ(bottom_compute.y, 75.0);
    EXPECT_DOUBLE_EQ(top_storage.y, 120.0);
    EXPECT_DOUBLE_EQ(top_storage.y - bottom_compute.y, 45.0);
}

TEST(MachineTest, DistanceBetweenZones)
{
    const Machine machine(MachineConfig::forQubits(30));
    const SiteId compute = machine.siteAt(SiteCoord{2, 5});
    const SiteId storage = machine.siteAt(SiteCoord{2, 8});
    EXPECT_DOUBLE_EQ(machine.distanceBetween(compute, storage).microns(), 45.0);
    EXPECT_DOUBLE_EQ(machine.distanceBetween(compute, compute).microns(), 0.0);
}

TEST(MachineTest, ComputeAndStorageSiteLists)
{
    const Machine machine(MachineConfig::forQubits(30));
    const auto compute = machine.computeSites();
    const auto storage = machine.storageSites();
    EXPECT_EQ(compute.size(), 36u);
    EXPECT_EQ(storage.size(), 72u);
    EXPECT_EQ(compute.front(), 0u);
    EXPECT_EQ(storage.front(), 36u);
    // Storage list starts at the row nearest the compute zone.
    EXPECT_EQ(machine.coordOf(storage.front()).y, machine.storageTopRow());
}

TEST(MachineTest, ZoneKindNames)
{
    EXPECT_EQ(zoneKindName(ZoneKind::Compute), "compute");
    EXPECT_EQ(zoneKindName(ZoneKind::Storage), "storage");
}

TEST(MachineTest, StoragelessMachineIsLegal)
{
    MachineConfig config;
    config.compute_cols = 4;
    config.compute_rows = 4;
    config.storage_cols = 0;
    config.storage_rows = 0;
    const Machine machine(config);
    EXPECT_EQ(machine.numStorageSites(), 0u);
    EXPECT_EQ(machine.numSites(), 16u);
}

TEST(MachineTest, InvalidConfigsRejected)
{
    MachineConfig config;
    config.compute_cols = 0;
    config.compute_rows = 4;
    EXPECT_THROW(Machine{config}, ConfigError);

    MachineConfig negative = MachineConfig::forQubits(4);
    negative.gap_rows = -1;
    EXPECT_THROW(Machine{negative}, ConfigError);
}

} // namespace
} // namespace powermove
