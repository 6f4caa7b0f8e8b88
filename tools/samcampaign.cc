/**
 * @file
 * samcampaign -- parallel figure-campaign driver with machine-readable
 * output.
 *
 * Fans the independent simulations of the paper's figure campaigns
 * (fig12 speedup, fig13 power, fig15 sweeps) across a work-stealing
 * thread pool and writes one BENCH_<fig>.json per campaign: the raw
 * per-run counters (cycles, energy, ECC events, wall time) plus the
 * figure's derived metrics. tools/bench_diff.py consumes these files
 * to flag cycle regressions against a committed baseline.
 *
 * Per-run results are bit-identical for any --jobs value: every run
 * executes in a fresh single-threaded Session, sharing only the
 * immutable materialized-table cache.
 *
 * Execution is crash-safe: every completed run is appended (and
 * fsynced) to a write-ahead journal before the campaign advances, so
 * `--resume <journal>` after a crash re-emits the already-done runs
 * verbatim and simulates only what is missing — the merged BENCH JSON
 * is bit-identical to an uninterrupted campaign (wall-clock fields
 * excepted). `--isolate proc` runs every spec in a forked worker with
 * a per-run deadline and bounded retries, so a crashing, hanging, or
 * garbage-reporting run is classified and recorded as FAILED without
 * losing the rest of the campaign. `--chaos <spec>` injects such
 * faults deterministically (see src/runner/chaos.hh for the grammar).
 *
 * Examples:
 *   samcampaign --fig 12 --jobs 8 --out bench-results
 *   samcampaign --fig all --quick --verify
 *   SAM_QUICK=1 samcampaign --fig 12        # same as --quick
 *   samcampaign --fig 12 --quick --isolate proc --chaos seed=7,die@5
 *   samcampaign --fig 12 --quick --resume ./JOURNAL_fig12.jsonl
 */

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_common.hh"
#include "src/common/logging.hh"
#include "src/runner/campaign.hh"
#include "src/runner/supervisor.hh"

namespace {

using namespace sam;
using namespace sam::bench;

[[noreturn]] void
usage(int code)
{
    std::fprintf(
        code == 0 ? stdout : stderr,
        "usage: samcampaign [options]\n"
        "  --fig <12|13|15|all>   campaign(s) to run (default 12)\n"
        "  --jobs <n>             concurrent workers (default: host\n"
        "                         cores; results are identical for any\n"
        "                         value)\n"
        "  --out <dir>            output directory (default .)\n"
        "  --quick                reduced scale (same as SAM_QUICK=1)\n"
        "  --scale <quick|full|paper>  benchmark scale; paper is the\n"
        "                         source paper's 10M records per table\n"
        "  --verify               check results against the reference\n"
        "                         executor\n"
        "  --no-telemetry         drop the per-run latency histograms\n"
        "                         from the BENCH JSON\n"
        "  --ta <n> / --tb <n>    override table record counts (tiny\n"
        "                         campaigns for smoke tests)\n"
        "  --only <s1,s2,...>     keep only runs whose id contains one\n"
        "                         of the substrings (skips the derived\n"
        "                         metrics; smoke/debug use)\n"
        "crash safety:\n"
        "  --isolate <thread|proc>  thread: in-process pool (default);\n"
        "                         proc: one forked worker per attempt\n"
        "  --timeout <sec>        per-attempt deadline, SIGKILL +\n"
        "                         retry on expiry (proc mode only)\n"
        "  --retries <n>          attempts per run before FAILED\n"
        "                         (default 3)\n"
        "  --journal <path>       write-ahead journal location\n"
        "                         (default <out>/JOURNAL_<fig>.jsonl;\n"
        "                         single --fig only)\n"
        "  --resume <journal>     skip runs already completed in\n"
        "                         <journal>, append new outcomes to it\n"
        "                         (single --fig only)\n"
        "  --chaos <spec>         deterministic fault injection, e.g.\n"
        "                         seed=7,die@5 or kill%%25,hang@spec:0\n"
        "                         (implies/requires proc isolation)\n");
    std::exit(code);
}

/** One-line usage diagnostic; exit 2 (bench_diff.py convention). */
[[noreturn]] void
usageError(const std::string &message)
{
    std::fprintf(stderr, "samcampaign: %s\n", message.c_str());
    std::exit(2);
}

/** Strict bounded integer flag parser: garbage and 0/negative die. */
unsigned
parseCount(const char *flag, const char *text, unsigned lo, unsigned hi)
{
    char *end = nullptr;
    errno = 0;
    const long long v = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0' || errno != 0 || v < lo ||
        v > static_cast<long long>(hi))
        usageError(std::string(flag) + " wants an integer in [" +
                   std::to_string(lo) + ", " + std::to_string(hi) +
                   "], got '" + text + "'");
    return static_cast<unsigned>(v);
}

/** A campaign's specs plus an id -> result index. */
struct Book
{
    std::vector<RunSpec> specs;
    std::map<std::string, std::size_t> index;
    std::vector<RunResult> results;

    void
    add(std::string id, const SimConfig &cfg, const Query &q,
        bool verify)
    {
        if (index.count(id))
            return;
        index.emplace(id, specs.size());
        specs.push_back(RunSpec{std::move(id), cfg, q, verify});
    }

    void
    add(DesignKind d, const SimConfig &base, const Query &q, bool verify)
    {
        SimConfig cfg = base;
        cfg.design = d;
        add(designName(d) + "/" + q.name, cfg, q, verify);
    }

    const RunResult &
    at(const std::string &id) const
    {
        auto it = index.find(id);
        sam_assert(it != index.end(), "no campaign run '", id, "'");
        return results.at(it->second);
    }

    double
    speedup(const std::string &design_id,
            const std::string &base_id) const
    {
        const Cycle d = at(design_id).stats.cycles;
        const Cycle b = at(base_id).stats.cycles;
        sam_assert(d > 0 && b > 0, "run produced no work");
        return static_cast<double>(b) / static_cast<double>(d);
    }
};

std::vector<Query>
allQueries()
{
    auto qs = benchmarkQQueries();
    const auto more = benchmarkQsQueries();
    qs.insert(qs.end(), more.begin(), more.end());
    return qs;
}

// ----- fig12: speedup grid ------------------------------------------

Book
buildFig12(bool verify)
{
    Book book;
    const SimConfig cfg = benchConfig();
    for (const Query &q : allQueries()) {
        book.add(DesignKind::Baseline, cfg, q, false);
        for (DesignKind d : figureDesigns())
            book.add(d, cfg, q, verify);
    }
    return book;
}

Json
derivedFig12(const Book &book)
{
    Json derived = Json::object();
    Json speedups = Json::object();
    Json gmean_q = Json::object();
    Json gmean_qs = Json::object();
    const auto qq = benchmarkQQueries();
    const auto qs = benchmarkQsQueries();
    for (DesignKind d : figureDesigns()) {
        Json per_query = Json::object();
        std::vector<double> sp_q, sp_qs;
        for (const Query &q : qq) {
            const double sp = book.speedup(
                designName(d) + "/" + q.name, "baseline/" + q.name);
            per_query.set(q.name, sp);
            sp_q.push_back(sp);
        }
        for (const Query &q : qs) {
            const double sp = book.speedup(
                designName(d) + "/" + q.name, "baseline/" + q.name);
            per_query.set(q.name, sp);
            sp_qs.push_back(sp);
        }
        speedups.set(designName(d), std::move(per_query));
        gmean_q.set(designName(d), geometricMean(sp_q));
        gmean_qs.set(designName(d), geometricMean(sp_qs));
    }
    derived.set("speedup", std::move(speedups));
    derived.set("gmean_q", std::move(gmean_q));
    derived.set("gmean_qs", std::move(gmean_qs));
    return derived;
}

// ----- fig13: power by category -------------------------------------

Book
buildFig13(bool verify)
{
    Book book;
    const SimConfig cfg = benchConfig();
    for (const Query &q : allQueries()) {
        book.add(DesignKind::Baseline, cfg, q, false);
        for (DesignKind d : figureDesigns()) {
            if (d != DesignKind::Ideal)
                book.add(d, cfg, q, verify);
        }
    }
    return book;
}

Json
derivedFig13(const Book &book)
{
    const auto qq = benchmarkQQueries();
    const auto qs = benchmarkQsQueries();
    std::vector<std::pair<std::string, std::vector<Query>>> cats(4);
    cats[0].first = "read_q";
    cats[1].first = "write_q";
    cats[2].first = "read_qs";
    cats[3].first = "write_qs";
    for (std::size_t i = 0; i < qq.size(); ++i)
        cats[i < 10 ? 0 : 1].second.push_back(qq[i]);
    for (std::size_t i = 0; i < qs.size(); ++i)
        cats[i < 4 ? 2 : 3].second.push_back(qs[i]);

    auto aggregate = [&](DesignKind d,
                         const std::vector<Query> &queries) {
        PowerBreakdown sum;
        for (const Query &q : queries) {
            const PowerBreakdown &p =
                book.at(designName(d) + "/" + q.name).stats.power;
            sum.actEnergyPj += p.actEnergyPj;
            sum.rdwrEnergyPj += p.rdwrEnergyPj;
            sum.backgroundEnergyPj += p.backgroundEnergyPj;
            sum.refreshEnergyPj += p.refreshEnergyPj;
            sum.elapsedNs += p.elapsedNs;
        }
        return sum;
    };

    Json derived = Json::object();
    for (const auto &[cat_name, queries] : cats) {
        Json cat = Json::object();
        const PowerBreakdown base =
            aggregate(DesignKind::Baseline, queries);
        for (DesignKind d : figureDesigns()) {
            if (d == DesignKind::Ideal)
                continue;
            const PowerBreakdown p = aggregate(d, queries);
            Json row = Json::object();
            row.set("total_mw", p.totalPowerMw());
            row.set("energy_eff", p.totalEnergyPj() > 0
                                      ? base.totalEnergyPj() /
                                            p.totalEnergyPj()
                                      : 0.0);
            cat.set(designName(d), std::move(row));
        }
        derived.set(cat_name, std::move(cat));
    }
    return derived;
}

// ----- fig15: parameterized sweeps ----------------------------------

const std::vector<DesignKind> kSweepDesigns = {
    DesignKind::RcNvmWord, DesignKind::GsDramEcc, DesignKind::SamEn,
    DesignKind::Ideal};

std::string
pointId(const char *kind, unsigned proj, double sel)
{
    return std::string(kind) + "/p" + std::to_string(proj) + "/s" +
           std::to_string(static_cast<unsigned>(sel * 100 + 0.5));
}

void
addSweepPoint(Book &book, const SimConfig &cfg, const std::string &point,
              const Query &q, bool verify)
{
    SimConfig bcfg = cfg;
    bcfg.design = DesignKind::Baseline;
    book.add(point + "/baseline", bcfg, q, false);
    for (DesignKind d : kSweepDesigns) {
        SimConfig dcfg = cfg;
        dcfg.design = d;
        book.add(point + "/" + designName(d), dcfg, q, verify);
    }
}

Book
buildFig15(bool verify)
{
    Book book;
    SimConfig cfg = benchConfig();
    cfg.taRecords = quickMode() ? 2048 : 8192;
    cfg.tbRecords = 2048;
    const unsigned nf = cfg.taFields;
    const std::vector<double> sels = {0.1, 0.2, 0.3, 0.4, 0.5,
                                      0.6, 0.7, 0.8, 0.9, 1.0};
    const std::vector<unsigned> projs = {2, 4, 8, 16, 32, 64, nf};
    for (unsigned proj : {8u, 64u, nf})
        for (double sel : sels)
            addSweepPoint(book, cfg, pointId("arith", proj, sel),
                          arithQuery(proj, sel, nf), verify);
    for (double sel : {0.1, 0.5, 1.0})
        for (unsigned proj : projs)
            addSweepPoint(book, cfg, pointId("arith", proj, sel),
                          arithQuery(proj, sel, nf), verify);
    for (double sel : sels)
        addSweepPoint(book, cfg, pointId("aggr", 8, sel),
                      aggrQuery(8, sel, nf), verify);
    for (unsigned proj : projs)
        addSweepPoint(book, cfg, pointId("aggr", proj, 1.0),
                      aggrQuery(proj, 1.0, nf), verify);
    return book;
}

Json
derivedFig15(const Book &book)
{
    Json speedups = Json::object();
    for (const auto &[id, idx] : book.index) {
        (void)idx;
        const auto slash = id.rfind('/');
        const std::string design = id.substr(slash + 1);
        if (design == "baseline")
            continue;
        const std::string point = id.substr(0, slash);
        speedups.set(id, book.speedup(id, point + "/baseline"));
    }
    Json derived = Json::object();
    derived.set("speedup", std::move(speedups));
    return derived;
}

// ----- driver -------------------------------------------------------

struct CampaignDef
{
    std::string name;
    Book (*build)(bool verify);
    Json (*derived)(const Book &);
};

const std::vector<CampaignDef> kCampaigns = {
    {"fig12", buildFig12, derivedFig12},
    {"fig13", buildFig13, derivedFig13},
    {"fig15", buildFig15, derivedFig15},
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace sam;
    setQuietLogging(true);

    std::vector<std::string> figs;
    unsigned jobs = 0;
    std::string out_dir = ".";
    bool verify = false;
    bool telemetry = true;
    unsigned ta_override = 0;
    unsigned tb_override = 0;
    std::vector<std::string> only;
    Isolation isolation = Isolation::Thread;
    bool isolation_given = false;
    std::uint64_t timeout_ms = 0;
    unsigned retries = 3;
    std::string journal_flag;
    std::string resume_flag;
    ChaosConfig chaos;

    auto next_arg = [&](int &i, const char *flag) -> const char * {
        if (i + 1 >= argc)
            usageError(std::string(flag) + " wants a value");
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--help" || a == "-h")
            usage(0);
        else if (a == "--fig") {
            const std::string f = next_arg(i, "--fig");
            if (f == "all") {
                figs.clear();
                for (const CampaignDef &c : kCampaigns)
                    figs.push_back(c.name);
            } else {
                bool known = false;
                for (const CampaignDef &c : kCampaigns)
                    known = known || c.name == "fig" + f;
                if (!known)
                    usageError("unknown campaign 'fig" + f +
                               "' (want 12, 13, 15, or all)");
                figs.push_back("fig" + f);
            }
        } else if (a == "--jobs")
            jobs = parseCount("--jobs", next_arg(i, "--jobs"), 1,
                              4096);
        else if (a == "--out")
            out_dir = next_arg(i, "--out");
        else if (a == "--quick") {
            // Must precede the first (cached) scaleMode() call.
            setenv("SAM_SCALE", "quick", 1);
        } else if (a == "--scale") {
            const std::string s = next_arg(i, "--scale");
            if (s != "quick" && s != "full" && s != "paper")
                usageError("--scale wants quick, full, or paper, got "
                           "'" + s + "'");
            // Must precede the first (cached) scaleMode() call.
            setenv("SAM_SCALE", s.c_str(), 1);
        } else if (a == "--verify")
            verify = true;
        else if (a == "--no-telemetry")
            telemetry = false;
        else if (a == "--ta")
            ta_override = parseCount("--ta", next_arg(i, "--ta"), 16,
                                     1u << 24);
        else if (a == "--tb")
            tb_override = parseCount("--tb", next_arg(i, "--tb"), 16,
                                     1u << 24);
        else if (a == "--only") {
            const std::string list = next_arg(i, "--only");
            std::size_t pos = 0;
            while (pos <= list.size()) {
                std::size_t comma = list.find(',', pos);
                if (comma == std::string::npos)
                    comma = list.size();
                if (comma > pos)
                    only.push_back(list.substr(pos, comma - pos));
                pos = comma + 1;
            }
            if (only.empty())
                usageError("--only wants a comma-separated list of "
                           "run-id substrings");
        }
        else if (a == "--isolate") {
            const std::string mode = next_arg(i, "--isolate");
            if (mode == "proc" || mode == "process")
                isolation = Isolation::Process;
            else if (mode == "thread")
                isolation = Isolation::Thread;
            else
                usageError("--isolate wants 'thread' or 'proc', got '" +
                           mode + "'");
            isolation_given = true;
        } else if (a == "--timeout")
            timeout_ms = 1000ull * parseCount("--timeout",
                                              next_arg(i, "--timeout"),
                                              1, 86400);
        else if (a == "--retries")
            retries = parseCount("--retries",
                                 next_arg(i, "--retries"), 1, 100);
        else if (a == "--journal")
            journal_flag = next_arg(i, "--journal");
        else if (a == "--resume")
            resume_flag = next_arg(i, "--resume");
        else if (a == "--chaos") {
            std::string error;
            if (!parseChaosSpec(next_arg(i, "--chaos"), chaos, error))
                usageError(error);
        } else
            usageError("unknown option '" + a + "' (try --help)");
    }
    if (figs.empty())
        figs.push_back("fig12");

    if (chaos.enabled()) {
        if (isolation_given && isolation == Isolation::Thread)
            usageError("--chaos requires --isolate proc");
        isolation = Isolation::Process;
    }
    if (timeout_ms != 0 && isolation == Isolation::Thread)
        usageError("--timeout requires --isolate proc");
    if (figs.size() > 1 &&
        (!journal_flag.empty() || !resume_flag.empty()))
        usageError("--journal/--resume apply to a single --fig");
    if (!resume_flag.empty() && !journal_flag.empty())
        usageError("--resume already names the journal; drop "
                   "--journal");

    const std::string scale = sam::bench::scaleName();
    bool any_failed = false;

    try {
        std::printf("samcampaign: %u worker(s), %s scale, %s "
                    "isolation\n",
                    jobs != 0 ? jobs : ThreadPool::defaultWorkers(),
                    scale.c_str(),
                    isolation == Isolation::Process ? "process"
                                                    : "thread");
        for (const std::string &fig : figs) {
            const CampaignDef *def = nullptr;
            for (const CampaignDef &c : kCampaigns) {
                if (c.name == fig)
                    def = &c;
            }
            sam_assert(def != nullptr, "campaign vanished");

            Book book = def->build(verify);
            if (!only.empty()) {
                Book filtered;
                for (const RunSpec &spec : book.specs) {
                    for (const std::string &pat : only) {
                        if (spec.id.find(pat) != std::string::npos) {
                            filtered.add(spec.id, spec.config,
                                         spec.query, spec.verify);
                            break;
                        }
                    }
                }
                if (filtered.specs.empty())
                    usageError("--only matched no " + def->name +
                               " runs");
                book = std::move(filtered);
            }
            // Latency histograms ride along in every run; the collector
            // is passive, so cycles are identical either way. The
            // gem5-style stats text never reaches the BENCH JSON, so
            // campaigns skip formatting it.
            for (RunSpec &spec : book.specs) {
                spec.config.telemetry.enabled = telemetry;
                spec.config.collectStatsText = false;
                if (ta_override != 0)
                    spec.config.taRecords = ta_override;
                if (tb_override != 0)
                    spec.config.tbRecords = tb_override;
            }

            // Load the prior journal (resume) and open the write side.
            const bool resuming = !resume_flag.empty();
            const std::string journal_path =
                resuming ? resume_flag
                : !journal_flag.empty()
                    ? journal_flag
                    : out_dir + "/JOURNAL_" + def->name + ".jsonl";
            JournalState prior;
            if (resuming) {
                std::string error;
                if (!loadJournal(journal_path, prior, error))
                    usageError(error);
                if (prior.header.campaign != def->name ||
                    prior.header.scale != scale ||
                    prior.header.verify != verify ||
                    prior.header.telemetry != telemetry)
                    usageError(
                        "journal '" + journal_path + "' was written "
                        "by campaign '" + prior.header.campaign +
                        "' at " + prior.header.scale + " scale "
                        "(verify=" +
                        (prior.header.verify ? "on" : "off") +
                        ", telemetry=" +
                        (prior.header.telemetry ? "on" : "off") +
                        "); flags must match to resume");
                if (prior.truncatedLines != 0)
                    std::printf("%s: journal had %u torn trailing "
                                "line(s) (crash mid-append); "
                                "discarded\n",
                                def->name.c_str(),
                                prior.truncatedLines);
            }
            JournalHeader header;
            header.campaign = def->name;
            header.scale = scale;
            header.verify = verify;
            header.telemetry = telemetry;
            CampaignJournal journal(journal_path, header, resuming);

            SupervisorConfig scfg;
            scfg.isolation = isolation;
            scfg.jobs = jobs;
            scfg.timeoutMs = timeout_ms;
            scfg.retry.maxAttempts = retries;
            scfg.retry.seed = chaos.seed;
            scfg.chaos = chaos;
            scfg.journal = &journal;
            scfg.resume = resuming ? &prior : nullptr;
            Supervisor supervisor(std::move(scfg));

            const auto t0 = std::chrono::steady_clock::now();
            SupervisorReport report = supervisor.run(book.specs);
            const auto t1 = std::chrono::steady_clock::now();
            const double wall_ms =
                std::chrono::duration<double, std::milli>(t1 - t0)
                    .count();

            // The BENCH runs[] array re-emits each journal/worker
            // record verbatim -- that, plus spec-order results, is
            // what keeps resumed output bit-identical.
            double run_ms = 0.0;
            book.results.resize(book.specs.size());
            Json runs = Json::array();
            Json failed = Json::array();
            for (std::size_t i = 0; i < report.runs.size(); ++i) {
                SupervisedRun &run = report.runs[i];
                if (run.succeeded()) {
                    book.results[i] = std::move(run.result);
                    run_ms += book.results[i].wallMs;
                    runs.push(std::move(run.record));
                } else {
                    Json row = Json::object();
                    row.set("id", book.specs[i].id);
                    row.set("failure", failureKindName(run.failure));
                    row.set("error", run.error);
                    row.set("attempts", run.attempts);
                    failed.push(std::move(row));
                    std::printf("%s: FAILED %s after %u attempt(s): "
                                "%s (%s)\n",
                                def->name.c_str(),
                                book.specs[i].id.c_str(),
                                run.attempts, run.error.c_str(),
                                failureKindName(run.failure));
                }
            }

            Json doc = Json::object();
            doc.set("schema", "sam-campaign-v1");
            doc.set("campaign", def->name);
            doc.set("jobs", supervisor.jobs());
            doc.set("runs", std::move(runs));
            doc.set("scale", scale);
            doc.set("verified", verify);
            doc.set("wall_ms", wall_ms);
            doc.set("run_wall_ms_total", run_ms);
            // Campaign throughput in records/second of wall time --
            // wall-derived, so exempt from bench_diff and resume
            // bit-identity (like wall_ms).
            std::uint64_t total_records = 0;
            for (const RunSpec &spec : book.specs)
                total_records += spec.config.taRecords;
            doc.set("throughput",
                    wall_ms > 0
                        ? static_cast<double>(total_records) * 1e3 /
                              wall_ms
                        : 0.0);
            if (report.allDone() && only.empty())
                doc.set("derived", def->derived(book));
            if (!report.allDone())
                doc.set("failed", std::move(failed));
            const std::string path =
                out_dir + "/BENCH_" + def->name + ".json";
            writeJsonFile(path, doc);
            std::printf("%s: %zu runs (%u executed, %u from journal, "
                        "%u failed, %u retries), wall %.1fs, per-run "
                        "total %.1fs, wrote %s\n",
                        def->name.c_str(), book.specs.size(),
                        report.executed, report.fromJournal,
                        report.failed, report.retries, wall_ms / 1e3,
                        run_ms / 1e3, path.c_str());
            any_failed = any_failed || !report.allDone();
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
    return any_failed ? 1 : 0;
}
