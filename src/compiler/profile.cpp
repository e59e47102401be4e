#include "compiler/profile.hpp"

namespace powermove {

std::string_view
passName(PassId pass)
{
    switch (pass) {
    case PassId::Placement:
        return "placement";
    case PassId::StagePartition:
        return "stage-partition";
    case PassId::StageOrder:
        return "stage-order";
    case PassId::Routing:
        return "routing";
    case PassId::CollMoveOrder:
        return "coll-move-order";
    case PassId::AodBatch:
        return "aod-batch";
    }
    return "unknown";
}

bool
PassProfiles::empty() const
{
    for (const PassProfile &profile : passes)
        if (profile.invocations != 0)
            return false;
    return true;
}

PassProfiles &
PassProfiles::operator+=(const PassProfiles &other)
{
    for (std::size_t p = 0; p < kNumPasses; ++p) {
        passes[p].wall_time = passes[p].wall_time + other.passes[p].wall_time;
        passes[p].invocations += other.passes[p].invocations;
    }
    for (std::size_t c = 0; c < kNumPassCounters; ++c)
        counters[c] += other.counters[c];
    touched |= other.touched;
    return *this;
}

} // namespace powermove
