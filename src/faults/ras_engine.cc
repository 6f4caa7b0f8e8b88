#include "src/faults/ras_engine.hh"

namespace sam {

void
RasStats::registerIn(StatGroup &group) const
{
    group.addCounter("correctedErrors", correctedErrors,
                     "corrected-error events");
    group.addCounter("uncorrectableErrors", uncorrectableErrors,
                     "accesses that decoded uncorrectable");
    group.addCounter("scrubWritebacks", scrubWritebacks,
                     "corrected lines written back");
    group.addCounter("scrubsSuppressed", scrubsSuppressed,
                     "scrubs skipped on permanent-classified lines");
    group.addCounter("retriesAttempted", retriesAttempted,
                     "uncorrectable re-read attempts");
    group.addCounter("retriesExhausted", retriesExhausted,
                     "retry budgets exhausted");
    group.addCounter("poisonedReads", poisonedReads,
                     "reads returned poisoned");
    group.addCounter("linesRetired", linesRetired,
                     "lines remapped to spares");
    group.addCounter("spareExhausted", spareExhausted,
                     "retirements denied for lack of spares");
}

RasEngine::RasEngine(const RasConfig &config)
    : config_(config),
      log_(config.bucketThreshold, config.bucketWindow)
{
}

Addr
RasEngine::resolve(Addr line) const
{
    if (remap_.empty())
        return line;
    auto it = remap_.find(line);
    return it != remap_.end() ? it->second : line;
}

RasPolicy::CorrectedDirective
RasEngine::onCorrected(Addr line, Cycle now)
{
    ++stats_.correctedErrors;
    const ErrorLog::Verdict verdict = log_.record(line, now, true);
    CorrectedDirective d;
    d.retire = verdict == ErrorLog::Verdict::NewlyPermanent;
    if (config_.scrubEnabled) {
        if (verdict == ErrorLog::Verdict::Permanent) {
            // A dead cell re-corrupts immediately; rewriting it would
            // just burn write bandwidth forever.
            ++stats_.scrubsSuppressed;
        } else {
            d.scrub = true;
            ++stats_.scrubWritebacks;
        }
    }
    return d;
}

bool
RasEngine::onUncorrectable(Addr line, Cycle now, unsigned attempt)
{
    if (attempt == 0) {
        ++stats_.uncorrectableErrors;
        log_.record(line, now, false);
    }
    if (attempt < config_.maxRetries) {
        ++stats_.retriesAttempted;
        return true;
    }
    ++stats_.retriesExhausted;
    return false;
}

void
RasEngine::onPoisoned(Addr line)
{
    (void)line;
    ++stats_.poisonedReads;
}

Addr
RasEngine::retireLine(Addr line)
{
    auto it = remap_.find(line);
    if (it != remap_.end())
        return it->second;
    if (sparesUsed_ >= config_.maxSpareLines) {
        ++stats_.spareExhausted;
        return line;
    }
    const Addr spare =
        config_.spareBase + Addr{sparesUsed_} * kCachelineBytes;
    ++sparesUsed_;
    remap_.emplace(line, spare);
    ++stats_.linesRetired;
    return spare;
}

} // namespace sam
