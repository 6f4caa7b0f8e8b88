/**
 * @file
 * sambench: the repository benchmark's C++ half.
 *
 * One `sambench` process is one repetition of one workload. It warms a
 * shared TableCache (the set-up metric), then either runs timed passes
 * that drive the library the way CampaignRunner::run does, or one
 * traced pass that composes System::runQuery out of public layer calls
 * and times each layer. run.py launches the processes, measures their
 * peak RSS, and aggregates the reports.
 */

#ifndef SAMBENCH_SAMBENCH_HH
#define SAMBENCH_SAMBENCH_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/json.hh"
#include "src/runner/campaign.hh"
#include "src/sim/table_cache.hh"

namespace sambench {

// ----- workloads.cc ---------------------------------------------------

/** The generated input of one workload. */
struct Workload
{
    std::string name;
    /** Every run of a pass. */
    std::vector<sam::RunSpec> specs;
    /** Pass execution order: a seeded permutation of spec indices. */
    std::vector<std::size_t> order;
    unsigned jobs = 1;
    /** Timed passes per repetition. */
    unsigned passes = 1;
    /** The seed only shuffles run order, so sim_digest ignores it. */
    bool digestSeedFree = false;
    /** The full Fig 12 grid: the paper-error figure applies. */
    bool paperGrid = false;
    /**
     * Runs that fail deterministically at the parent commit and are
     * therefore kept out of the timed passes; the traced pass probes
     * them once and reports how many still fail.
     */
    std::vector<sam::RunSpec> knownFailures;
};

const std::vector<std::string> &workloadNames();

/**
 * Build workload `name` from `seed`. `smoke` shrinks every table to a
 * few hundred records (a seconds-long functional check).
 */
Workload makeWorkload(const std::string &name, std::uint64_t seed,
                      bool smoke);

/**
 * Mean |gmean(Q1..Q12 speedup) - paper| / paper over the seven
 * accelerators of EXPERIMENTS.md Fig 12, in percent. `cycles` maps
 * run ids ("SAM-en/Q3") to simulated cycles.
 */
double paperErrorPct(const std::map<std::string, sam::Cycle> &cycles);

// ----- pipeline.cc ----------------------------------------------------

/** Milliseconds on the steady clock since the process started. */
double nowMs();

/** Cold materialization of every distinct table pair of a workload. */
struct SetupReport
{
    double seconds = 0.0;
    /** Build time of each distinct table pair. */
    std::vector<double> pairMs;
    /** Summed snapshot footprint (slot arena plus address index). */
    double snapshotMb = 0.0;
};

/**
 * Build the Tables of every spec the way System::tablesFor does (same
 * layout index, span, and gather factor; the Ideal design's per-query
 * layout) and materialize each distinct pair into `cache`.
 */
SetupReport warmTableCache(const std::vector<sam::RunSpec> &specs,
                           sam::TableCache &cache);

/** One timed interval of the traced pass. */
struct Span
{
    std::string name;
    double startMs = 0.0;
    double endMs = 0.0;
    int parent = -1;  ///< Index of the enclosing span, -1 at the root.
    int run = -1;     ///< Index into the workload's specs, -1 outside.
};

/** In-memory span store, written out once when the process ends. */
class SpanLog
{
  public:
    int begin(std::string name, int run, int parent);
    void end(int span);
    double durationMs(int span) const
    {
        return spans_[span].endMs - spans_[span].startMs;
    }

    /** Chrome trace-event document ("X" events, one per span). */
    sam::Json chromeTrace(const std::string &workload,
                          const std::vector<sam::RunSpec> &specs) const;

  private:
    std::vector<Span> spans_;
};

/** Times one span; on close adds its duration to `total`, if given. */
class SpanScope
{
  public:
    SpanScope(SpanLog &log, const char *name, int run, int parent,
              double *total = nullptr)
        : log_(log), total_(total), span_(log.begin(name, run, parent))
    {
    }

    ~SpanScope()
    {
        log_.end(span_);
        if (total_ != nullptr)
            *total_ += log_.durationMs(span_);
    }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    int id() const { return span_; }

  private:
    SpanLog &log_;
    double *total_;
    int span_;
};

/** Per-layer host time (ms) and counts, summed over the traced pass. */
struct LayerTotals
{
    double installMs = 0, portBuildMs = 0, execMs = 0, flushMs = 0;
    double replayBuildMs = 0, replayMs = 0, checkMs = 0;
    double telemetryFinishMs = 0, powerMs = 0;
    double replayNoTelemetryMs = 0;
    double composeMs = 0;

    std::uint64_t cacheHits[3] = {0, 0, 0};
    std::uint64_t cacheMisses[3] = {0, 0, 0};
    std::uint64_t dirtyEvictions = 0;
    std::uint64_t traceEntries = 0;
    std::uint64_t linesChecked = 0, correctedLines = 0, uncorrectable = 0;
    std::uint64_t scrubWritebacks = 0, retries = 0;
    std::uint64_t cycles = 0, commands = 0;
    std::uint64_t requests = 0, rowHitPicks = 0, fcfsPicks = 0;
    std::uint64_t readsServed = 0;
    double readLatencyCycles = 0;
    std::uint64_t activates = 0, refreshes = 0, modeSwitches = 0;
    std::uint64_t busBusyCycles = 0, violations = 0;
    /** Runs whose telemetry-off replay drifted from the traced one. */
    std::uint64_t telemetryCycleMismatches = 0;
};

/**
 * System::runQuery composed from public layer calls, each wrapped in a
 * span under `parent`. Returns what Session::run would return for the
 * spec (statsText and telemetry excepted).
 */
sam::RunStats composeRun(const sam::RunSpec &spec, sam::TableCache &cache,
                         int run, int parent, SpanLog &log,
                         LayerTotals &totals);

} // namespace sambench

#endif // SAMBENCH_SAMBENCH_HH
