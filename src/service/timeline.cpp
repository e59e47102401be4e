#include "service/timeline.hpp"

namespace powermove::service {

std::string_view
jobStateName(JobState state)
{
    switch (state) {
    case JobState::Queued:
        return "queued";
    case JobState::Admitted:
        return "admitted";
    case JobState::Running:
        return "running";
    case JobState::Cached:
        return "cached";
    case JobState::Done:
        return "done";
    case JobState::Failed:
        return "failed";
    case JobState::Rejected:
        return "rejected";
    }
    return "unknown";
}

bool
jobStateIsTerminal(JobState state)
{
    switch (state) {
    case JobState::Cached:
    case JobState::Done:
    case JobState::Failed:
    case JobState::Rejected:
        return true;
    case JobState::Queued:
    case JobState::Admitted:
    case JobState::Running:
        return false;
    }
    return false;
}

void
Timeline::record(JobState state, std::string detail)
{
    record(state, std::chrono::steady_clock::now(), std::move(detail));
}

void
Timeline::record(JobState state, std::chrono::steady_clock::time_point at,
                 std::string detail)
{
    events_.push_back(TimelineEvent{state, at, std::move(detail)});
}

const TimelineEvent *
Timeline::find(JobState state) const
{
    for (const TimelineEvent &event : events_)
        if (event.state == state)
            return &event;
    return nullptr;
}

JobState
Timeline::current() const
{
    return events_.empty() ? JobState::Queued : events_.back().state;
}

bool
Timeline::finished() const
{
    return !events_.empty() && jobStateIsTerminal(events_.back().state);
}

Duration
Timeline::between(JobState from, JobState to) const
{
    const TimelineEvent *start = nullptr;
    for (const TimelineEvent &event : events_) {
        if (start == nullptr) {
            if (event.state == from)
                start = &event;
        } else if (event.state == to) {
            return Duration::micros(
                std::chrono::duration<double, std::micro>(event.at - start->at)
                    .count());
        }
    }
    return Duration::micros(0.0);
}

Duration
Timeline::total() const
{
    if (events_.size() < 2)
        return Duration::micros(0.0);
    return Duration::micros(std::chrono::duration<double, std::micro>(
                                events_.back().at - events_.front().at)
                                .count());
}

} // namespace powermove::service
