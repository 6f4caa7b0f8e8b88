#include "src/faults/error_log.hh"

#include <algorithm>

namespace sam {

double
ErrorLog::leaked(const Bucket &b, Cycle now) const
{
    if (now <= b.last || window_ == 0)
        return b.level;
    const double dt = static_cast<double>(now - b.last);
    const double leak = dt * threshold_ / static_cast<double>(window_);
    return b.level > leak ? b.level - leak : 0.0;
}

ErrorLog::Verdict
ErrorLog::record(Addr line, Cycle now, bool corrected)
{
    ++total_;
    if (events_.size() < kMaxEvents)
        events_.push_back(Event{line, now, corrected});

    Bucket &b = *buckets_.tryEmplace(line, Bucket{}).first;
    b.level = leaked(b, now) + 1.0;
    b.last = std::max(b.last, now);
    if (b.permanent)
        return Verdict::Permanent;
    if (b.level > threshold_) {
        b.permanent = true;
        return Verdict::NewlyPermanent;
    }
    return Verdict::Transient;
}

bool
ErrorLog::isPermanent(Addr line) const
{
    const Bucket *b = buckets_.find(line);
    return b != nullptr && b->permanent;
}

double
ErrorLog::bucketLevel(Addr line, Cycle now) const
{
    const Bucket *b = buckets_.find(line);
    return b != nullptr ? leaked(*b, now) : 0.0;
}

} // namespace sam
