/**
 * @file
 * Write-ahead campaign journal (sam-journal-v1).
 *
 * A campaign's completed work must survive the campaign process: if a
 * run crashes, hangs the host, or the machine reboots, everything
 * already simulated is worth keeping. The journal is an append-only
 * JSONL file; line 1 is a header record pinning the schema, campaign
 * name, and scale, and every subsequent line is one run outcome:
 *
 *   {"schema":"sam-journal-v1","campaign":"fig12","scale":"quick",...}
 *   {"spec":"SAM-en/Q1","hash":"9f2c...","status":"done",
 *    "attempts":1,"ts_ms":...,"run":{...},"power":{...}}
 *   {"spec":"SAM-en/Q2","hash":"03ab...","status":"failed",
 *    "attempts":3,"ts_ms":...,"failure":"crash","error":"signal 9"}
 *
 * Each append is a single write(2) of one complete line to an
 * O_APPEND descriptor followed by fsync, so a crash can lose at most
 * a partial final line — which the loader detects and discards. The
 * "run" member is the exact BENCH runs[] record of the completed run;
 * on `--resume` it is re-emitted verbatim, which is what makes a
 * resumed campaign's merged JSON bit-identical (wall-clock fields
 * excepted) to an uninterrupted one. "hash" is a stable digest of the
 * RunSpec's identity (design, query, geometry, fault/ECC config…); a
 * journal entry whose hash no longer matches the spec is stale — the
 * configuration changed — and the run is re-executed.
 */

#ifndef SAM_RUNNER_JOURNAL_HH
#define SAM_RUNNER_JOURNAL_HH

#include <cstdint>
#include <map>
#include <string>

#include "src/common/json.hh"
#include "src/common/thread_annotations.hh"
#include "src/runner/campaign.hh"

namespace sam {

/** Journal header record (line 1 of the JSONL file). */
struct JournalHeader
{
    std::string campaign;    ///< e.g. "fig12".
    std::string scale;       ///< "quick", "full", or "paper".
    bool verify = false;     ///< Runs check against the reference.
    bool telemetry = true;   ///< Runs carry latency histograms.
};

/** One replayed journal line (the latest record wins per spec id). */
struct JournalEntry
{
    std::string id;
    std::uint64_t hash = 0;
    bool completed = false;   ///< status "done" vs "failed".
    unsigned attempts = 0;
    std::string failure;      ///< Failure class ("crash", "hang", …).
    std::string error;        ///< Human-readable failure detail.
    Json run;                 ///< BENCH runs[] record, verbatim.
    Json power;               ///< Power breakdown for derived metrics.
};

/** Parsed journal contents, keyed by spec id. */
struct JournalState
{
    JournalHeader header;
    std::map<std::string, JournalEntry> entries;
    /** Partial trailing lines discarded (crash mid-append). */
    unsigned truncatedLines = 0;
};

/**
 * Append side of the journal. Thread-safe: supervisor workers record
 * outcomes from any thread; each record is appended and fsynced before
 * the call returns ("write-ahead": durable before the campaign's
 * in-memory bookkeeping advances).
 */
class CampaignJournal
{
  public:
    static constexpr const char *kSchema = "sam-journal-v1";

    /**
     * Open `path` for appending. When `resume` is false the file is
     * truncated and a fresh header written; when true it must already
     * carry a matching header (verified by the caller via
     * loadJournal) and new records are appended after the old.
     * Panics on I/O failure.
     */
    CampaignJournal(std::string path, const JournalHeader &header,
                    bool resume);
    ~CampaignJournal();

    CampaignJournal(const CampaignJournal &) = delete;
    CampaignJournal &operator=(const CampaignJournal &) = delete;

    const std::string &path() const { return path_; }

    /** Record a completed run: its BENCH record + power breakdown. */
    void recordDone(const std::string &id, std::uint64_t hash,
                    unsigned attempts, const Json &run,
                    const Json &power);

    /** Record a run that exhausted its retries. */
    void recordFailed(const std::string &id, std::uint64_t hash,
                      unsigned attempts, const std::string &failure,
                      const std::string &error);

  private:
    void appendLine(const std::string &line) SAM_REQUIRES(mutex_);

    std::string path_;
    Mutex mutex_;
    int fd_ SAM_GUARDED_BY(mutex_) = -1;
};

/**
 * Parse a journal file. Returns false with a one-line diagnostic when
 * the file is unreadable or its header is not a sam-journal-v1 record;
 * a torn final line (crash mid-append) is tolerated and counted, and
 * duplicate spec ids keep the latest record (a retried run re-journals
 * its outcome).
 */
bool loadJournal(const std::string &path, JournalState &out,
                 std::string &error);

/**
 * Stable identity digest of a RunSpec: FNV-1a over the canonical
 * serialization of everything that changes simulated results (design,
 * query shape, table geometry, ECC/fault/RAS config, verify flag).
 * Telemetry and scheduling knobs are deliberately excluded — they do
 * not affect the simulated counters, so flipping them must not
 * invalidate completed journal entries' cycles.
 */
std::uint64_t specHash(const RunSpec &spec);

/** 16-digit lowercase hex rendering used in journal records. */
std::string hashHex(std::uint64_t hash);

/** Power-breakdown record journaled alongside each completed run. */
Json powerJson(const PowerBreakdown &power);

/**
 * Reconstruct a RunResult from a journaled "done" entry: the numeric
 * RunStats fields (cycles, counters, power) that derived-metric
 * computation reads are restored; statsText and the telemetry
 * snapshot are not (the BENCH record already embeds the rendered
 * latency histograms, and nothing downstream re-renders statsText).
 */
RunResult restoreRunResult(const JournalEntry &entry);

} // namespace sam

#endif // SAM_RUNNER_JOURNAL_HH
