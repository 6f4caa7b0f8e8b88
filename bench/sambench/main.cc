/**
 * @file
 * sambench -- one repetition of one benchmark workload.
 *
 *   sambench --workload <name> --seed <n> [--traced] [--smoke]
 *            [--trace-out <file>]
 *
 * Timed mode (default): warm the shared TableCache (setup_s), then run
 * the workload's timed passes exactly as CampaignRunner::run drives the
 * library -- a fresh Session per RunSpec on a ThreadPool of `jobs`
 * workers -- with the benchmark's own try/catch and timestamps around
 * each run. Results are checked against the reference executor after
 * each pass, outside the timed region.
 *
 * Traced mode: the same set-up, one timed pass on the pool when the
 * workload has more than one worker (for the runner metrics), then one
 * serial pass that times Session::run and composes the same run from
 * public layer calls (pipeline.cc), checks that both agree, and reports
 * per-layer host time and counts. --trace-out writes the spans as
 * Chrome trace events.
 *
 * Either mode prints one JSON document on stdout; run.py aggregates.
 */

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <numeric>
#include <optional>
#include <thread>

#include "bench/sambench/sambench.hh"
#include "src/common/logging.hh"
#include "src/core/session.hh"

namespace {

using namespace sam;
using namespace sambench;

[[noreturn]] void
usageError(const std::string &message)
{
    std::fprintf(stderr,
                 "sambench: %s\n"
                 "usage: sambench --workload <name> --seed <n> [--traced] "
                 "[--smoke] [--trace-out <file>]\n",
                 message.c_str());
    std::exit(2);
}

/** FNV-1a over the simulated fields of a pass, for sim_digest. */
class Fnv1a
{
  public:
    void
    bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= p[i];
            h_ *= 0x100000001b3ULL;
        }
    }

    void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof(buf), "%016" PRIx64, h_);
        return buf;
    }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** The outcome of every run of one pass, in spec order. */
struct Pass
{
    std::vector<RunStats> stats;
    /** Empty when the run succeeded and matched the reference. */
    std::vector<std::string> errors;
    std::vector<double> runMs;
    double wallMs = 0.0;
    double tailMs = 0.0;

    explicit Pass(std::size_t n) : stats(n), errors(n), runMs(n) {}

    std::size_t
    failed() const
    {
        return static_cast<std::size_t>(std::count_if(
            errors.begin(), errors.end(),
            [](const std::string &e) { return !e.empty(); }));
    }

    std::uint64_t
    commands() const
    {
        std::uint64_t n = 0;
        for (std::size_t i = 0; i < stats.size(); ++i) {
            if (errors[i].empty())
                n += stats[i].checkedCommands;
        }
        return n;
    }
};

/**
 * The simulated outputs of one run (result, counters, energy bits):
 * what sim_digest hashes and what a composed run must reproduce.
 */
std::vector<std::uint64_t>
simFields(const RunStats &s)
{
    std::vector<std::uint64_t> fields = {
        s.cycles, s.result.rows, s.result.aggregate, s.result.checksum,
        s.result.poisonedRows, s.memReads, s.memWrites, s.strideReads,
        s.strideWrites, s.activates, s.rowHits, s.rowMisses,
        s.modeSwitches, s.eccCorrectedLines, s.eccUncorrectable,
        s.checkedCommands, s.scrubWritebacks, s.readRetries,
        s.poisonedReads, s.linesRetired};
    for (double v : {s.power.actEnergyPj, s.power.rdwrEnergyPj,
                     s.power.backgroundEnergyPj, s.power.refreshEnergyPj,
                     s.power.elapsedNs}) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        fields.push_back(bits);
    }
    return fields;
}

/** Sorted-by-id FNV-1a of every run's simulated fields. */
std::string
simDigest(const Workload &w, const Pass &pass)
{
    std::vector<std::size_t> idx(w.specs.size());
    std::iota(idx.begin(), idx.end(), 0);
    std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
        return w.specs[a].id < w.specs[b].id;
    });
    Fnv1a f;
    for (std::size_t i : idx) {
        f.bytes(w.specs[i].id.data(), w.specs[i].id.size());
        if (!pass.errors[i].empty()) {
            f.u64(~std::uint64_t{0});
            continue;
        }
        for (std::uint64_t v : simFields(pass.stats[i]))
            f.u64(v);
    }
    return f.hex();
}

/** Empty when `got` is the reference result, else a one-line reason. */
std::string
resultError(const QueryResult &got, const QueryResult &want)
{
    if (got == want && !got.degraded())
        return {};
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "result differs from referenceResult: rows %" PRIu64
                  " vs %" PRIu64 ", aggregate %" PRIu64 " vs %" PRIu64
                  ", checksum %" PRIu64 " vs %" PRIu64
                  ", poisoned rows %" PRIu64,
                  got.rows, want.rows, got.aggregate, want.aggregate,
                  got.checksum, want.checksum, got.poisonedRows);
    return buf;
}

std::vector<QueryResult>
referenceResults(const Workload &w)
{
    std::vector<QueryResult> refs;
    for (const RunSpec &s : w.specs) {
        const SimConfig &c = s.config;
        refs.push_back(referenceResult(
            s.query, TableSchema{"Ta", c.taFields, c.taRecords},
            TableSchema{"Tb", c.tbFields, c.tbRecords}));
    }
    return refs;
}

/**
 * One timed pass, the way CampaignRunner::run drives the library: a
 * fresh Session per spec on the shared cache, fanned over `pool`.
 */
Pass
timedPass(const Workload &w, const std::shared_ptr<TableCache> &cache,
          ThreadPool &pool, const std::vector<QueryResult> &refs)
{
    const std::size_t n = w.specs.size();
    Pass pass(n);
    std::vector<double> ends(n, 0.0);
    std::vector<std::thread::id> workers(n);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(n);
    for (std::size_t i : w.order) {
        tasks.push_back([&, i] {
            const RunSpec &spec = w.specs[i];
            const double t0 = nowMs();
            try {
                Session session(spec.config, cache);
                pass.stats[i] = session.run(spec.config.design, spec.query);
            } catch (const std::exception &e) {
                pass.errors[i] = e.what()[0] ? e.what() : "exception";
            }
            const double t1 = nowMs();
            pass.runMs[i] = t1 - t0;
            ends[i] = t1;
            workers[i] = std::this_thread::get_id();
        });
    }
    const double b0 = nowMs();
    pool.run(std::move(tasks));
    const double b1 = nowMs();
    pass.wallMs = b1 - b0;

    // The tail starts when the first worker runs out of work.
    std::map<std::thread::id, double> last_end;
    for (std::size_t i = 0; i < n; ++i)
        last_end[workers[i]] = std::max(last_end[workers[i]], ends[i]);
    double first_idle = b1;
    for (const auto &[worker, end] : last_end)
        first_idle = std::min(first_idle, end);
    if (last_end.size() < pool.workers())
        first_idle = b0;
    pass.tailMs = b1 - first_idle;

    for (std::size_t i = 0; i < n; ++i) {
        if (pass.errors[i].empty())
            pass.errors[i] = resultError(pass.stats[i].result, refs[i]);
        // Latency histograms are not benchmark outputs; free them.
        pass.stats[i].telemetry.reset();
    }
    return pass;
}

Json
failuresJson(const Workload &w, const Pass &pass)
{
    Json out = Json::array();
    for (std::size_t i = 0; i < pass.errors.size(); ++i) {
        if (pass.errors[i].empty())
            continue;
        Json f = Json::object();
        f.set("id", w.specs[i].id);
        f.set("error", pass.errors[i]);
        out.push(std::move(f));
    }
    return out;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Cold set-ups per process; setup_s is their median. */
constexpr int kSetupRepeats = 3;

/**
 * Warm a fresh cache kSetupRepeats times (each from cold, the previous
 * cache freed first so only one is ever resident) and keep the last.
 * Returns the median set-up time in seconds.
 */
double
coldSetup(const Workload &w, std::shared_ptr<TableCache> &cache,
          SetupReport &last)
{
    std::vector<double> seconds;
    for (int k = 0; k < kSetupRepeats; ++k) {
        cache.reset();
        cache = std::make_shared<TableCache>();
        last = warmTableCache(w.specs, *cache);
        seconds.push_back(last.seconds);
    }
    return median(seconds);
}

Json
runTimed(const Workload &w, std::uint64_t seed)
{
    const std::vector<QueryResult> refs = referenceResults(w);
    std::shared_ptr<TableCache> cache;
    SetupReport setup;
    const double setup_s = coldSetup(w, cache, setup);
    const std::uint64_t setup_misses = cache->misses();
    ThreadPool pool(w.jobs);

    Json passes = Json::array();
    std::map<std::string, Cycle> cycles;
    bool all_ok = true;
    for (unsigned p = 0; p < w.passes; ++p) {
        const Pass pass = timedPass(w, cache, pool, refs);
        Json run_ms = Json::array();
        for (double ms : pass.runMs)
            run_ms.push(ms);
        Json pj = Json::object();
        pj.set("wall_ms", pass.wallMs);
        pj.set("tail_ms", pass.tailMs);
        pj.set("commands", pass.commands());
        pj.set("run_ms", std::move(run_ms));
        pj.set("failures", failuresJson(w, pass));
        pj.set("sim_digest", simDigest(w, pass));
        passes.push(std::move(pj));
        all_ok = all_ok && pass.failed() == 0;
        for (std::size_t i = 0; i < w.specs.size(); ++i)
            cycles[w.specs[i].id] = pass.stats[i].cycles;
    }

    Json doc = Json::object();
    doc.set("mode", "timed");
    doc.set("workload", w.name);
    doc.set("seed", seed);
    doc.set("jobs", w.jobs);
    doc.set("digest_seed_free", w.digestSeedFree);
    doc.set("setup_s", setup_s);
    doc.set("table_misses_timed", cache->misses() - setup_misses);
    doc.set("passes", std::move(passes));
    if (w.paperGrid && all_ok)
        doc.set("paper_err_pct", paperErrorPct(cycles));
    return doc;
}

Json
runTraced(const Workload &w, std::uint64_t seed,
          const std::string &trace_out)
{
    const std::vector<QueryResult> refs = referenceResults(w);
    std::shared_ptr<TableCache> cache;
    SpanLog log;
    SetupReport setup;
    {
        SpanScope s(log, "setup", -1, -1);
        coldSetup(w, cache, setup);
    }
    const std::uint64_t setup_misses = cache->misses();
    const std::size_t n = w.specs.size();

    // A pooled workload's runner metrics need one timed pass on its
    // pool; a one-worker workload's come from the serial pass below.
    std::optional<Pass> timed;
    if (w.jobs > 1) {
        SpanScope s(log, "timed_pass", -1, -1);
        ThreadPool pool(w.jobs);
        timed.emplace(timedPass(w, cache, pool, refs));
    }

    // The traced pass: serial, Session::run then its composition, so the
    // two are compared milliseconds apart and host drift cancels. With
    // the compositions cut out it is a one-worker pass, timed as
    // timedPass times one: a run spans its Session's whole life.
    LayerTotals t;
    Pass serial(n);
    double core_setup_ms = 0.0;
    double core_run_ms = 0.0;
    double composing_ms = 0.0;
    double last_compose_ms = 0.0;
    double last_end = 0.0;
    std::uint64_t mismatches = 0;
    const double b0 = nowMs();
    for (std::size_t i : w.order) {
        const RunSpec &spec = w.specs[i];
        const int run = static_cast<int>(i);
        SpanScope run_span(log, "run", run, -1);
        bool session_threw = false;
        const double t0 = nowMs();
        {
            std::optional<Session> session;
            {
                SpanScope s(log, "session.setup", run, run_span.id(),
                            &core_setup_ms);
                session.emplace(spec.config, cache);
                session->system(spec.config.design);
            }
            SpanScope s(log, "session.run", run, run_span.id(),
                        &core_run_ms);
            try {
                serial.stats[i] =
                    session->run(spec.config.design, spec.query);
            } catch (const std::exception &e) {
                serial.errors[i] = e.what()[0] ? e.what() : "exception";
                session_threw = true;
            }
        }
        last_end = nowMs();
        serial.runMs[i] = last_end - t0;
        if (serial.errors[i].empty())
            serial.errors[i] = resultError(serial.stats[i].result, refs[i]);

        // The composition must reproduce Session::run exactly, or its
        // spans would time a different program.
        const double c0 = nowMs();
        const std::uint64_t violations = t.violations;
        try {
            const RunStats composed =
                composeRun(spec, *cache, run, run_span.id(), log, t);
            // A Session::run that threw must be one whose command
            // stream the checker rejects.
            if (session_threw
                    ? t.violations == violations
                    : simFields(composed) != simFields(serial.stats[i]))
                ++mismatches;
        } catch (const std::exception &) {
            ++mismatches;
        }
        last_compose_ms = nowMs() - c0;
        composing_ms += last_compose_ms;
    }
    const double b1 = nowMs();
    serial.wallMs = b1 - b0 - composing_ms;
    serial.tailMs = b1 - last_end - last_compose_ms;
    mismatches += t.telemetryCycleMismatches;
    const std::uint64_t timed_misses = cache->misses() - setup_misses;

    const std::string serial_digest = simDigest(w, serial);
    Json failures = failuresJson(w, serial);
    if (timed) {
        const Json timed_failures = failuresJson(w, *timed);
        for (std::size_t i = 0; i < timed_failures.size(); ++i)
            failures.push(timed_failures.at(i));
        const std::string timed_digest = simDigest(w, *timed);
        if (timed_digest != serial_digest) {
            Json f = Json::object();
            f.set("id", "sim_digest");
            f.set("error", "parallel timed pass " + timed_digest +
                               " != serial traced pass " + serial_digest);
            failures.push(std::move(f));
        }
    }
    const Pass &runner = timed ? *timed : serial;

    // Runs excluded from the timed passes for failing at the parent
    // commit: count how many still fail.
    std::uint64_t known_failures = 0;
    for (const RunSpec &spec : w.knownFailures) {
        try {
            Session session(spec.config, cache);
            session.run(spec.config.design, spec.query);
        } catch (const std::exception &) {
            ++known_failures;
        }
    }

    const double busy_ms =
        std::accumulate(runner.runMs.begin(), runner.runMs.end(), 0.0);
    double build_max = 0.0;
    for (double ms : setup.pairMs)
        build_max = std::max(build_max, ms);
    const double commands = static_cast<double>(t.commands);

    Json m = Json::object();
    m.set("table.build_ms", setup.seconds * 1e3);
    m.set("table.build_ms_max", build_max);
    m.set("table.snapshot_mb", setup.snapshotMb);
    m.set("table.install_ms", t.installMs);
    m.set("table.misses_timed", timed_misses);
    m.set("core.setup_ms", core_setup_ms);
    m.set("core.run_ms", core_run_ms);
    m.set("cache.port_build_ms", t.portBuildMs);
    m.set("cache.flush_ms", t.flushMs);
    const char *levels[3] = {"cache.l1_hit_ratio", "cache.l2_hit_ratio",
                             "cache.llc_hit_ratio"};
    for (unsigned lvl = 0; lvl < 3; ++lvl) {
        m.set(levels[lvl],
              ratio(static_cast<double>(t.cacheHits[lvl]),
                    static_cast<double>(t.cacheHits[lvl] +
                                        t.cacheMisses[lvl])));
    }
    m.set("cache.dirty_evictions", t.dirtyEvictions);
    m.set("imdb.exec_ms", t.execMs);
    m.set("imdb.trace_entries", t.traceEntries);
    m.set("imdb.exec_ns_per_entry",
          ratio(t.execMs * 1e6, static_cast<double>(t.traceEntries)));
    m.set("ecc.lines_checked", t.linesChecked);
    m.set("ecc.corrected_lines", t.correctedLines);
    m.set("ecc.uncorrectable", t.uncorrectable);
    m.set("ras.scrub_writebacks", t.scrubWritebacks);
    m.set("ras.retries", t.retries);
    m.set("sim.replay_build_ms", t.replayBuildMs);
    m.set("sim.replay_ms", t.replayMs);
    m.set("sim.replay_ns_per_cmd", ratio(t.replayMs * 1e6, commands));
    m.set("sim.cycles", t.cycles);
    m.set("controller.requests", t.requests);
    m.set("controller.row_hit_pick_ratio",
          ratio(static_cast<double>(t.rowHitPicks),
                static_cast<double>(t.rowHitPicks + t.fcfsPicks)));
    m.set("controller.avg_read_latency_cycles",
          ratio(t.readLatencyCycles, static_cast<double>(t.readsServed)));
    m.set("dram.commands", t.commands);
    m.set("dram.activates", t.activates);
    m.set("dram.refreshes", t.refreshes);
    m.set("dram.mode_switches", t.modeSwitches);
    m.set("dram.bus_busy_frac",
          ratio(static_cast<double>(t.busBusyCycles),
                static_cast<double>(t.cycles)));
    m.set("check.ms", t.checkMs);
    m.set("check.ns_per_cmd", ratio(t.checkMs * 1e6, commands));
    m.set("check.violations", t.violations);
    m.set("check.known_failures", known_failures);
    m.set("telemetry.replay_overhead_ms",
          t.replayMs - t.replayNoTelemetryMs);
    m.set("telemetry.finish_ms", t.telemetryFinishMs);
    m.set("power.ms", t.powerMs);
    m.set("runner.parallel_efficiency",
          ratio(busy_ms, w.jobs * runner.wallMs));
    m.set("runner.tail_ms", runner.tailMs);
    m.set("runner.contention_slowdown",
          ratio(median(runner.runMs), median(serial.runMs)));
    m.set("trace.overhead_pct", 100.0 * (ratio(t.composeMs, core_run_ms) -
                                         1.0));
    m.set("trace.composition_mismatches", mismatches);

    if (!trace_out.empty())
        writeJsonFile(trace_out, log.chromeTrace(w.name, w.specs));

    Json doc = Json::object();
    doc.set("mode", "traced");
    doc.set("workload", w.name);
    doc.set("seed", seed);
    doc.set("jobs", w.jobs);
    doc.set("attempted", static_cast<std::uint64_t>((timed ? 2 : 1) * n));
    doc.set("failures", std::move(failures));
    doc.set("sim_digest", serial_digest);
    doc.set("metrics", std::move(m));
    return doc;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuietLogging(true);
    std::string workload;
    std::optional<std::uint64_t> seed;
    bool traced = false;
    bool smoke = false;
    std::string trace_out;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usageError(a + " wants a value");
            return argv[++i];
        };
        if (a == "--workload") {
            workload = value();
        } else if (a == "--seed") {
            const std::string v = value();
            char *end = nullptr;
            errno = 0;
            const unsigned long long s = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end != '\0' || errno != 0 || v[0] == '-')
                usageError("--seed wants a non-negative integer, got '" +
                           v + "'");
            seed = s;
        } else if (a == "--traced") {
            traced = true;
        } else if (a == "--smoke") {
            smoke = true;
        } else if (a == "--trace-out") {
            trace_out = value();
        } else {
            usageError("unknown option '" + a + "'");
        }
    }
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), workload) == names.end())
        usageError("--workload wants one of grid_quick, grid_full_par, "
                   "sweep_long, ras_chipkill; got '" + workload + "'");
    if (!seed)
        usageError("--seed is required");

    try {
        const Workload w = makeWorkload(workload, *seed, smoke);
        const Json doc = traced ? runTraced(w, *seed, trace_out)
                                : runTimed(w, *seed);
        std::printf("%s\n", doc.dump(0).c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "sambench: %s\n", e.what());
        return 1;
    }
    return 0;
}
