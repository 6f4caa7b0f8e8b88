/**
 * @file
 * Campaign vocabulary.
 *
 * A campaign is a list of independent simulation runs -- (design,
 * query, config) points. A RunSpec names one run and a RunResult holds
 * what it measured; runResultJson is the run's record in the BENCH_*
 * documents (src/runner/figures.hh). The Supervisor
 * (src/runner/supervisor.hh) executes RunSpecs, each in a fresh
 * single-threaded Session, so results are bit-identical for any jobs
 * count.
 */

#ifndef SAM_RUNNER_CAMPAIGN_HH
#define SAM_RUNNER_CAMPAIGN_HH

#include <string>

#include "src/common/json.hh"
#include "src/imdb/query.hh"
// Kept for code that reaches ThreadPool through this header.
#include "src/common/thread_pool.hh"
#include "src/sim/system.hh"

namespace sam {

/** One independent simulation in a campaign. */
struct RunSpec
{
    /** Stable identifier emitted in reports, e.g. "sam_en/Q3". */
    std::string id;
    SimConfig config;
    Query query;
    /** Check the functional result against the reference executor. */
    bool verify = false;
};

/** Everything measured for one campaign run. */
struct RunResult
{
    std::string id;
    DesignKind design = DesignKind::Baseline;
    std::string query;
    RunStats stats;
    /** Host wall time of this run, milliseconds. */
    double wallMs = 0.0;
    /** Table-A records the run scanned (throughput denominator). */
    std::uint64_t records = 0;
};

/** Per-run JSON record (the "runs" array element of BENCH_*.json). */
Json runResultJson(const RunResult &result);

} // namespace sam

#endif // SAM_RUNNER_CAMPAIGN_HH
