/**
 * @file
 * Per-rank error log with a leaky-bucket threshold per line, the
 * standard server-RAS mechanism for telling a permanent fault from
 * background transients: every ECC event on a line adds to its bucket,
 * the bucket leaks over time, and an overflow classifies the line as a
 * repeat offender (permanent), which the RAS engine then retires.
 */

#ifndef SAM_FAULTS_ERROR_LOG_HH
#define SAM_FAULTS_ERROR_LOG_HH

#include <cstdint>
#include <vector>

#include "src/common/addr_map.hh"
#include "src/common/types.hh"

namespace sam {

class ErrorLog
{
  public:
    /** One logged ECC event. */
    struct Event
    {
        Addr line = 0;
        Cycle at = 0;
        bool corrected = false;  ///< false = uncorrectable.
    };

    /**
     * @param threshold Bucket level that classifies a line permanent.
     * @param window Cycles for a full bucket to leak back to empty.
     */
    ErrorLog(double threshold, Cycle window)
        : threshold_(threshold), window_(window)
    {}

    /** A line's classification after an event, as record() left it. */
    enum class Verdict {
        Transient,       ///< Bucket at or under the threshold.
        NewlyPermanent,  ///< This event pushed it over (once per line).
        Permanent,       ///< Classified permanent by an earlier event.
    };

    /**
     * Record an ECC event on `line` at time `now` and return the
     * line's classification, from one lookup of its bucket.
     * NewlyPermanent is returned exactly once per line: when the event
     * pushes the bucket over the threshold.
     */
    Verdict record(Addr line, Cycle now, bool corrected);

    /** Whether the leaky bucket has classified `line` as permanent. */
    bool isPermanent(Addr line) const;

    /** Recent events, oldest first (bounded; see totalEvents()). */
    const std::vector<Event> &events() const { return events_; }

    /** Total events recorded, including any beyond the event cap. */
    std::uint64_t totalEvents() const { return total_; }

    /** Current bucket level of a line (0 when never seen). */
    double bucketLevel(Addr line, Cycle now) const;

  private:
    struct Bucket
    {
        double level = 0.0;
        Cycle last = 0;
        bool permanent = false;
    };

    /** Leak `b` down to time `now` (clock resets leak nothing). */
    double leaked(const Bucket &b, Cycle now) const;

    static constexpr std::size_t kMaxEvents = 1024;

    double threshold_;
    Cycle window_;
    AddrMap<Bucket> buckets_;
    std::vector<Event> events_;
    std::uint64_t total_ = 0;
};

} // namespace sam

#endif // SAM_FAULTS_ERROR_LOG_HH
