#include "report/summary.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "report/table.hpp"

namespace powermove {

void
RatioSummary::add(double ratio)
{
    if (!(ratio > 0.0))
        fatal("ratio summaries require positive values");
    ratios_.push_back(ratio);
}

double
RatioSummary::min() const
{
    PM_ASSERT(!ratios_.empty(), "empty summary has no minimum");
    return *std::min_element(ratios_.begin(), ratios_.end());
}

double
RatioSummary::max() const
{
    PM_ASSERT(!ratios_.empty(), "empty summary has no maximum");
    return *std::max_element(ratios_.begin(), ratios_.end());
}

double
RatioSummary::geometricMean() const
{
    PM_ASSERT(!ratios_.empty(), "empty summary has no mean");
    double log_sum = 0.0;
    for (const double ratio : ratios_)
        log_sum += std::log(ratio);
    return std::exp(log_sum / static_cast<double>(ratios_.size()));
}

double
RatioSummary::arithmeticMean() const
{
    PM_ASSERT(!ratios_.empty(), "empty summary has no mean");
    double sum = 0.0;
    for (const double ratio : ratios_)
        sum += ratio;
    return sum / static_cast<double>(ratios_.size());
}

std::string
RatioSummary::toString() const
{
    if (ratios_.empty())
        return "(no data)";
    std::ostringstream os;
    os << formatRatio(min()) << " to " << formatRatio(max()) << " (geomean "
       << formatRatio(geometricMean()) << ", mean "
       << formatRatio(arithmeticMean()) << ") over " << ratios_.size()
       << " benchmarks";
    return os.str();
}

std::string
formatPassProfiles(const PassProfiles &profiles)
{
    if (profiles.empty())
        return "(no pass profiles)\n";

    double total_micros = 0.0;
    for (const PassProfile &profile : profiles)
        total_micros += profile.wall_time.micros();

    TextTable table({"Pass", "Calls", "Time (us)", "Share", "Counters"});
    for (const PassProfile &profile : profiles) {
        if (profile.invocations == 0)
            continue;
        const double micros = profile.wall_time.micros();
        const double share = total_micros > 0.0 ? micros / total_micros : 0.0;
        std::vector<std::string> counters;
        profiles.forEachCounter(
            profile.pass,
            [&](const PassCounterInfo &info, std::uint64_t value) {
                counters.push_back(std::string(info.name) + "=" +
                                   std::to_string(value));
            });
        table.addRow({std::string(passName(profile.pass)),
                      std::to_string(profile.invocations),
                      formatGeneral(micros, 4),
                      formatGeneral(share * 100.0, 3) + "%",
                      counters.empty() ? "-" : join(counters, " ")});
    }
    return table.toString();
}

} // namespace powermove
