/**
 * @file
 * Shared helpers for the figure-reproduction benches: the scale and
 * jobs knobs, result printing, and the campaign run.
 *
 * Every bench prints the same rows/series as the corresponding paper
 * figure. Set SAM_SCALE=quick|full|paper to pick the benchmark scale
 * (table sizes in src/runner/figures.hh): quick for smoke runs
 * (smaller tables; same shapes, less wall time), full for the
 * committed-baseline scale, paper for the paper's 10M records per
 * table (Table 2). SAM_QUICK=1 is a compatibility alias for
 * SAM_SCALE=quick. Set SAM_JOBS=N to fan the independent simulations
 * across N worker threads (0 or unset = one per host core); the
 * printed tables are byte-identical for any jobs count. Set
 * SAM_BENCH_JSON=<dir> to also write the campaign's BENCH_<name>.json
 * into that directory: the same document samcampaign writes.
 */

#ifndef SAM_BENCH_BENCH_COMMON_HH
#define SAM_BENCH_BENCH_COMMON_HH

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "src/common/logging.hh"
#include "src/common/table_printer.hh"
#include "src/core/session.hh"
#include "src/runner/figures.hh"

namespace sam::bench {

/**
 * The scale selected by the environment, resolved once: SAM_SCALE
 * wins, SAM_QUICK=1 is a compatibility alias for quick, default is
 * full. An unknown SAM_SCALE value is a usage error (one-line
 * diagnostic, exit 2) rather than a silent full-scale run.
 */
inline Scale
scaleMode()
{
    static const Scale scale = [] {
        const char *s = std::getenv("SAM_SCALE");
        if (s != nullptr && s[0] != '\0') {
            Scale parsed = Scale::Full;
            if (parseScale(s, parsed))
                return parsed;
            std::fprintf(stderr,
                         "SAM_SCALE wants quick, full, or paper; got "
                         "'%s'\n",
                         s);
            std::exit(2);
        }
        const char *q = std::getenv("SAM_QUICK");
        return q != nullptr && q[0] != '0' ? Scale::Quick
                                           : Scale::Full;
    }();
    return scale;
}

inline bool
quickMode()
{
    return scaleMode() == Scale::Quick;
}

/** SAM_JOBS worker-thread count for the campaigns; 0 = host cores. */
inline unsigned
jobsCount()
{
    static const unsigned jobs = [] {
        const char *j = std::getenv("SAM_JOBS");
        return j != nullptr
            ? static_cast<unsigned>(std::strtoul(j, nullptr, 10))
            : 0u;
    }();
    return jobs;
}

inline void
printHeader(const std::string &title, const std::string &what)
{
    std::cout << "\n==== " << title << " ====\n" << what << "\n";
    if (quickMode())
        std::cout << "(SAM_QUICK reduced scale)\n";
    else if (scaleMode() == Scale::Paper)
        std::cout << "(paper scale: 10M records per table)\n";
    std::cout << "\n";
}

/**
 * Run a bench's campaign the way samcampaign runs one -- Supervisor
 * thread mode on SAM_JOBS workers -- with one attempt per run, then
 * call `print_tables()` to print the figure from the results. When
 * SAM_BENCH_JSON names a directory, the campaign's BENCH document goes
 * there afterwards. A failed run is named with its error instead, and
 * the bench's exit status becomes 1. Returns the exit status.
 */
template <typename PrintTables>
int
runBench(FigureCampaign &camp, bool verified, PrintTables &&print_tables)
{
    SupervisorConfig cfg;
    cfg.jobs = jobsCount();
    cfg.maxAttempts = 1;
    Supervisor supervisor(cfg);
    const auto t0 = std::chrono::steady_clock::now();
    camp.report = supervisor.run(camp.specs);
    const auto t1 = std::chrono::steady_clock::now();
    if (!camp.report.allDone()) {
        std::cout << failureLines(camp);
        return 1;
    }
    print_tables();

    const char *dir = std::getenv("SAM_BENCH_JSON");
    if (dir == nullptr || dir[0] == '\0')
        return 0;
    const double wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    const std::string path =
        std::string(dir) + "/BENCH_" + camp.name + ".json";
    writeJsonFile(path, benchDocument(camp, supervisor.jobs(),
                                      scaleMode(), verified, wall_ms));
    std::cout << "wrote " << path << "\n";
    return 0;
}

} // namespace sam::bench

#endif // SAM_BENCH_BENCH_COMMON_HH
