/**
 * @file
 * Tests for the trace collector's Chrome trace-event JSON and the
 * service-layer span stitching (appendJobTrace).
 */

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "compiler/profile.hpp"
#include "obs/trace.hpp"
#include "service/observe.hpp"
#include "service/timeline.hpp"

namespace powermove::service {
namespace {

using obs::TraceCollector;
using obs::TraceEvent;
using Clock = TraceCollector::Clock;

std::size_t
countOccurrences(const std::string &haystack, const std::string &needle)
{
    std::size_t count = 0;
    for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
         pos = haystack.find(needle, pos + needle.size()))
        ++count;
    return count;
}

TEST(TraceCollectorTest, RecordsCompleteAndInstantEvents)
{
    TraceCollector trace;
    const Clock::time_point base = Clock::now();
    trace.addComplete("phase", "job", 7, base,
                      base + std::chrono::microseconds(250),
                      {{"detail", "memory"}});
    trace.addInstant("done", "job", 7, base + std::chrono::microseconds(250));
    EXPECT_EQ(trace.size(), 2u);

    const std::string json = trace.toChromeTraceJson();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"phase\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"tid\":7"), std::string::npos);
    EXPECT_NE(json.find("\"detail\":\"memory\""), std::string::npos);
}

TEST(TraceCollectorTest, EventsAreSortedByTimestamp)
{
    TraceCollector trace;
    const Clock::time_point base = Clock::now();
    trace.addInstant("later", "job", 1,
                     base + std::chrono::microseconds(500));
    trace.addInstant("earlier", "job", 1, base);

    const std::string json = trace.toChromeTraceJson();
    const std::size_t earlier = json.find("\"earlier\"");
    const std::size_t later = json.find("\"later\"");
    ASSERT_NE(earlier, std::string::npos);
    ASSERT_NE(later, std::string::npos);
    EXPECT_LT(earlier, later);
}

TEST(TraceCollectorTest, TsOfMeasuresAgainstEpoch)
{
    TraceCollector trace;
    const Clock::time_point now = Clock::now();
    EXPECT_GE(trace.tsOf(now + std::chrono::microseconds(100)),
              trace.tsOf(now) + 99.0);
}

/** A finished compiled-job timeline with known spacing. */
Timeline
compiledTimeline(const Clock::time_point base)
{
    Timeline timeline;
    timeline.record(JobState::Queued, base);
    timeline.record(JobState::Admitted, base + std::chrono::microseconds(10));
    timeline.record(JobState::Running, base + std::chrono::microseconds(30));
    timeline.record(JobState::Done, base + std::chrono::microseconds(90));
    return timeline;
}

TEST(AppendJobTraceTest, StitchesLifecycleSpansAndTerminalMarker)
{
    TraceCollector trace;
    const Clock::time_point base = Clock::now();
    appendJobTrace(trace, 42, compiledTimeline(base), nullptr, "compiled");

    // Three non-terminal spans + one terminal instant.
    EXPECT_EQ(trace.size(), 4u);
    const std::string json = trace.toChromeTraceJson();
    EXPECT_NE(json.find("\"name\":\"queued\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"admitted\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"running\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"done\""), std::string::npos);
    EXPECT_NE(json.find("\"source\":\"compiled\""), std::string::npos);
    EXPECT_EQ(countOccurrences(json, "\"tid\":42"), 4u);
}

TEST(AppendJobTraceTest, EmptySourceOmitsTheSourceArg)
{
    TraceCollector trace;
    Timeline timeline;
    const Clock::time_point base = Clock::now();
    timeline.record(JobState::Queued, base);
    timeline.record(JobState::Rejected,
                    base + std::chrono::microseconds(5));
    appendJobTrace(trace, 3, timeline, nullptr, {});

    const std::string json = trace.toChromeTraceJson();
    EXPECT_NE(json.find("\"name\":\"rejected\""), std::string::npos);
    EXPECT_EQ(json.find("\"source\""), std::string::npos);
}

TEST(AppendJobTraceTest, CachedDetailAnnotatesTheSpan)
{
    TraceCollector trace;
    Timeline timeline;
    const Clock::time_point base = Clock::now();
    timeline.record(JobState::Queued, base);
    timeline.record(JobState::Cached, base + std::chrono::microseconds(2),
                    "memory");
    appendJobTrace(trace, 9, timeline, nullptr, "memory");

    const std::string json = trace.toChromeTraceJson();
    EXPECT_NE(json.find("\"detail\":\"memory\""), std::string::npos);
    EXPECT_NE(json.find("\"source\":\"memory\""), std::string::npos);
}

TEST(AppendJobTraceTest, PassSpansLaidOutSequentiallyInsideRunning)
{
    TraceCollector trace;
    const Clock::time_point base = Clock::now();
    const Timeline timeline = compiledTimeline(base);

    PassProfiles passes;
    for (PassProfile &profile : passes.passes) {
        profile.wall_time = Duration::micros(10.0);
        profile.invocations = 1;
    }
    passes.add(PassCounter::QubitsPlaced, 12);

    appendJobTrace(trace, 5, timeline, &passes, "compiled");

    // 4 lifecycle events + one span per pipeline pass.
    EXPECT_EQ(trace.size(), 4u + kNumPasses);
    const std::string json = trace.toChromeTraceJson();
    for (std::size_t p = 0; p < kNumPasses; ++p) {
        const std::string name(passName(static_cast<PassId>(p)));
        EXPECT_NE(json.find("\"name\":\"" + name + "\""),
                  std::string::npos)
            << name;
    }
    EXPECT_EQ(countOccurrences(json, "\"cat\":\"pass\""), kNumPasses);
    EXPECT_NE(json.find("\"offsets\":\"synthetic\""), std::string::npos);
    EXPECT_NE(json.find("\"qubits_placed\":\"12\""), std::string::npos);
    // Untouched counters stay off the spans.
    EXPECT_EQ(json.find("\"moves_planned\""), std::string::npos);
}

TEST(AppendJobTraceTest, DiskIoBecomesRealTimestampedSpans)
{
    TraceCollector trace;
    const Clock::time_point base = Clock::now();
    Timeline timeline;
    timeline.record(JobState::Queued, base);
    timeline.record(JobState::Admitted, base + std::chrono::microseconds(5));
    timeline.record(JobState::Cached, base + std::chrono::microseconds(40),
                    "disk");

    JobTraceIo io;
    io.read = true;
    io.read_start = base + std::chrono::microseconds(6);
    io.read_end = base + std::chrono::microseconds(20);
    io.read_hit = true;
    io.write = true;
    io.write_start = base + std::chrono::microseconds(21);
    io.write_end = base + std::chrono::microseconds(30);

    appendJobTrace(trace, 11, timeline, nullptr, "disk", &io);

    const std::string json = trace.toChromeTraceJson();
    EXPECT_NE(json.find("\"name\":\"disk-read\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"disk-write\""), std::string::npos);
    EXPECT_NE(json.find("\"hit\":\"true\""), std::string::npos);
    EXPECT_EQ(countOccurrences(json, "\"cat\":\"cache\""), 2u);
}

TEST(ObserveHelpersTest, TierNames)
{
    EXPECT_EQ(tierName(TierIndex::Coalesced), "coalesced");
    EXPECT_EQ(tierName(TierIndex::Memory), "memory");
    EXPECT_EQ(tierName(TierIndex::Disk), "disk");
    EXPECT_EQ(tierName(TierIndex::Miss), "miss");
}

} // namespace
} // namespace powermove::service
