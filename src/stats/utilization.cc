#include "stats/utilization.hh"

#include <algorithm>

#include "common/logging.hh"

namespace neu10
{

UtilizationTracker::UtilizationTracker(double capacity)
    : capacity_(capacity)
{
    NEU10_ASSERT(capacity > 0.0, "capacity must be positive");
}

void
UtilizationTracker::setBusy(Cycles time, double busy)
{
    NEU10_ASSERT(time >= lastTime_, "utilization updates must be ordered");
    NEU10_ASSERT(busy >= -1e-9, "busy count cannot be negative");
    integral_ += busy_ * (time - lastTime_);
    lastTime_ = time;
    busy_ = busy < 0.0 ? 0.0 : busy;

    if (hasSegment_) {
        if (busy_ == segValue_)
            return; // same value: the open segment extends
        const Cycles start = std::max(segStart_, 0.0);
        if (time > start)
            closedSum_ += segValue_ * (time - start);
    }
    hasSegment_ = true;
    segStart_ = time;
    segValue_ = busy_;
}

double
UtilizationTracker::busyIntegral(Cycles time) const
{
    double integral = integral_;
    if (time > lastTime_)
        integral += busy_ * (time - lastTime_);
    return integral;
}

double
UtilizationTracker::utilization(Cycles end) const
{
    NEU10_ASSERT(end >= lastTime_,
                 "utilization window end %g precedes the last update %g",
                 end, lastTime_);
    if (!hasSegment_ || end <= 0.0)
        return 0.0;
    // The busy count before the first update is implicitly zero.
    double weighted = closedSum_;
    const Cycles start = std::max(segStart_, 0.0);
    if (end > start)
        weighted += segValue_ * (end - start);
    return weighted / end / capacity_;
}

} // namespace neu10
