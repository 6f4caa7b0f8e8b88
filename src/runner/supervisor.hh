/**
 * @file
 * Supervised campaign execution: retries, timeouts, process isolation.
 *
 * The Supervisor is the one campaign executor: samcampaign, the figure
 * benches and `samsim --compare --jobs` all run their RunSpecs through
 * it. Each attempt runs one spec in a fresh Session; a run that
 * crashes, hangs, or returns garbage is retried, classified, and -- if
 * it keeps failing -- recorded as FAILED while every other run's work
 * is kept. Two isolation modes:
 *
 *   Thread   runs execute on the in-process work-stealing pool and
 *            share one TableCache; exceptions are caught and retried,
 *            but a hard crash still takes the process down (the
 *            journal preserves completed work even then)
 *   Process  each attempt executes in a forked worker that reports
 *            its result record over a pipe; the parent classifies
 *            crash (signal), hang (deadline exceeded → SIGKILL),
 *            error (non-zero exit), and corrupt-result (unparseable
 *            report) failures, so no worker misbehaviour — including
 *            chaos-injected SIGKILL — can corrupt campaign state
 *
 * A failed attempt is retried at once, up to maxAttempts: a run is a
 * pure function of its spec and workers share no contended resource,
 * so pacing the retries would buy nothing. The parent in Process mode
 * is a single-threaded poll() event loop: workers are forked only
 * from a thread-less process, which keeps fork() safe, and up to
 * `jobs` children run concurrently.
 *
 * With a CampaignJournal attached, every outcome is written ahead
 * (append + fsync) before the in-memory report advances, and a
 * JournalState from a previous attempt short-circuits already-done
 * specs whose identity hash still matches. Results come back in spec
 * order regardless of isolation, jobs count, retries, or resume —
 * the campaign output stays bit-identical (wall-clock excepted).
 */

#ifndef SAM_RUNNER_SUPERVISOR_HH
#define SAM_RUNNER_SUPERVISOR_HH

#include <memory>
#include <string>
#include <vector>

#include "src/runner/campaign.hh"
#include "src/runner/chaos.hh"
#include "src/runner/journal.hh"
#include "src/common/thread_pool.hh"
#include "src/sim/table_cache.hh"

namespace sam {

enum class Isolation { Thread, Process };

/** Why an attempt (or a run, once retries exhaust) failed. */
enum class FailureKind { None, Crash, Hang, Error, Corrupt };

const char *failureKindName(FailureKind kind);

struct SupervisorConfig
{
    Isolation isolation = Isolation::Thread;
    /** Concurrent workers; 0 picks the host's core count. */
    unsigned jobs = 0;
    /** Per-attempt deadline in ms; 0 disables (Process mode only). */
    std::uint64_t timeoutMs = 0;
    /** Total attempts per run (1 = no retry). */
    unsigned maxAttempts = 3;
    /** Fault injection; requires Process isolation when enabled. */
    ChaosConfig chaos;
    /** Write-ahead journal; optional, not owned. */
    CampaignJournal *journal = nullptr;
    /** Prior journal contents for --resume; optional, not owned. */
    const JournalState *resume = nullptr;
};

/** Outcome of one supervised spec. */
struct SupervisedRun
{
    enum class Outcome { Done, FromJournal, Failed };

    /** Numeric stats restored/collected; meaningless when Failed. */
    RunResult result;
    /** The BENCH runs[] record, verbatim (null when Failed). */
    Json record;
    Outcome outcome = Outcome::Failed;
    FailureKind failure = FailureKind::None;
    unsigned attempts = 0;
    std::string error;

    bool succeeded() const { return outcome != Outcome::Failed; }
};

struct SupervisorReport
{
    /** One entry per spec, in spec order. */
    std::vector<SupervisedRun> runs;
    unsigned executed = 0;    ///< Specs simulated this invocation.
    unsigned fromJournal = 0; ///< Specs skipped via resume.
    unsigned failed = 0;      ///< Specs that exhausted retries.
    unsigned retries = 0;     ///< Extra attempts beyond the first.
    unsigned launches = 0;    ///< Worker launches (Process mode).

    bool allDone() const { return failed == 0; }
};

class Supervisor
{
  public:
    explicit Supervisor(SupervisorConfig config);

    unsigned jobs() const { return jobs_; }

    /** Table cache shared by Thread-mode runs (lazily created). */
    const std::shared_ptr<TableCache> &tableCache() const
    {
        return tables_;
    }

    /**
     * Execute every spec under supervision and return outcomes in
     * spec order. Never throws for per-run failures — check
     * SupervisorReport::allDone().
     */
    SupervisorReport run(const std::vector<RunSpec> &specs);

  private:
    struct Slot; // Process-mode bookkeeping (defined in the .cc).

    bool resumeHit(const RunSpec &spec, std::uint64_t hash,
                   SupervisedRun &out) const;
    void runThreaded(const std::vector<RunSpec> &specs,
                     SupervisorReport &report);
    void runForked(const std::vector<RunSpec> &specs,
                   SupervisorReport &report);
    void finishRun(const RunSpec &spec, std::uint64_t hash,
                   unsigned attempts, RunResult result,
                   Json record, Json power, SupervisedRun &out);
    void failRun(const RunSpec &spec, std::uint64_t hash,
                 unsigned attempts, FailureKind kind,
                 const std::string &error, SupervisedRun &out);

    SupervisorConfig config_;
    unsigned jobs_;
    std::shared_ptr<TableCache> tables_;
    std::unique_ptr<ThreadPool> pool_; ///< Thread mode only, lazy.
};

} // namespace sam

#endif // SAM_RUNNER_SUPERVISOR_HH
