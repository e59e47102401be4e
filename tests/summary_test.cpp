/** @file Tests for the ratio summary aggregator. */

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "report/summary.hpp"

namespace powermove {
namespace {

TEST(RatioSummaryTest, EmptySummary)
{
    const RatioSummary summary;
    EXPECT_TRUE(summary.empty());
    EXPECT_EQ(summary.count(), 0u);
    EXPECT_EQ(summary.toString(), "(no data)");
    EXPECT_THROW(summary.min(), InternalError);
    EXPECT_THROW(summary.geometricMean(), InternalError);
}

TEST(RatioSummaryTest, SingleValue)
{
    RatioSummary summary;
    summary.add(2.5);
    EXPECT_DOUBLE_EQ(summary.min(), 2.5);
    EXPECT_DOUBLE_EQ(summary.max(), 2.5);
    EXPECT_DOUBLE_EQ(summary.geometricMean(), 2.5);
    EXPECT_DOUBLE_EQ(summary.arithmeticMean(), 2.5);
}

TEST(RatioSummaryTest, MinMaxAndMeans)
{
    RatioSummary summary;
    summary.add(1.0);
    summary.add(4.0);
    summary.add(16.0);
    EXPECT_DOUBLE_EQ(summary.min(), 1.0);
    EXPECT_DOUBLE_EQ(summary.max(), 16.0);
    EXPECT_DOUBLE_EQ(summary.geometricMean(), 4.0);
    EXPECT_DOUBLE_EQ(summary.arithmeticMean(), 7.0);
    EXPECT_EQ(summary.count(), 3u);
}

TEST(RatioSummaryTest, GeometricMeanResistsOutliers)
{
    // One enormous improvement (QFT-29-style) should not dominate.
    RatioSummary summary;
    summary.add(1.5);
    summary.add(2.0);
    summary.add(1e6);
    EXPECT_LT(summary.geometricMean(), 200.0);
    EXPECT_GT(summary.arithmeticMean(), 3e5);
}

TEST(RatioSummaryTest, RejectsNonPositive)
{
    RatioSummary summary;
    EXPECT_THROW(summary.add(0.0), ConfigError);
    EXPECT_THROW(summary.add(-1.0), ConfigError);
}

TEST(RatioSummaryTest, ToStringMentionsAllStatistics)
{
    RatioSummary summary;
    summary.add(2.0);
    summary.add(8.0);
    const auto text = summary.toString();
    EXPECT_NE(text.find("2.00x"), std::string::npos);
    EXPECT_NE(text.find("8.00x"), std::string::npos);
    EXPECT_NE(text.find("geomean 4.00x"), std::string::npos);
    EXPECT_NE(text.find("mean 5.00x"), std::string::npos);
    EXPECT_NE(text.find("2 benchmarks"), std::string::npos);
}

TEST(PassProfileFormatTest, EmptyProfilesSayNoData)
{
    EXPECT_EQ(formatPassProfiles({}), "(no pass profiles)\n");
}

TEST(PassProfileFormatTest, TableListsPassesSharesAndCounters)
{
    PassProfiles profiles;
    PassProfile &placement =
        profiles.passes[static_cast<std::size_t>(PassId::Placement)];
    placement.wall_time = Duration::micros(1.0);
    placement.invocations = 1;
    profiles.add(PassCounter::QubitsPlaced, 30);

    PassProfile &routing =
        profiles.passes[static_cast<std::size_t>(PassId::Routing)];
    routing.wall_time = Duration::micros(3.0);
    routing.invocations = 5;

    const auto text = formatPassProfiles(profiles);
    EXPECT_NE(text.find("placement"), std::string::npos);
    EXPECT_NE(text.find("routing"), std::string::npos);
    EXPECT_NE(text.find("qubits_placed=30"), std::string::npos);
    EXPECT_NE(text.find("75%"), std::string::npos); // routing share of 4 us
    EXPECT_NE(text.find("25%"), std::string::npos);
    // Passes that never ran get no row.
    EXPECT_EQ(text.find("stage-order"), std::string::npos);
}

} // namespace
} // namespace powermove
