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
 * The grids, their derived metrics and the BENCH document come from
 * src/runner/figures.hh, which the fig12/13/15 benches share. The
 * scale comes from --scale or --quick only (default full).
 *
 * Examples:
 *   samcampaign --fig 12 --jobs 8 --out bench-results
 *   samcampaign --fig all --quick --verify
 *   samcampaign --fig 12 --quick --isolate proc --chaos seed=7,die@5
 *   samcampaign --fig 12 --quick --resume ./JOURNAL_fig12.jsonl
 */

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/logging.hh"
#include "src/runner/figures.hh"

namespace {

using namespace sam;

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
        "  --quick                reduced scale (same as --scale quick)\n"
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

} // namespace

int
main(int argc, char **argv)
{
    using namespace sam;
    setQuietLogging(true);

    std::vector<std::string> figs;
    Scale scale = Scale::Full;
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
                figs = figureNames();
            } else {
                bool known = false;
                for (const std::string &name : figureNames())
                    known = known || name == "fig" + f;
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
        else if (a == "--quick")
            scale = Scale::Quick;
        else if (a == "--scale") {
            const std::string s = next_arg(i, "--scale");
            if (!parseScale(s, scale))
                usageError("--scale wants quick, full, or paper, got "
                           "'" + s + "'");
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

    const std::string scale_name = scaleName(scale);
    bool any_failed = false;

    try {
        std::printf("samcampaign: %u worker(s), %s scale, %s "
                    "isolation\n",
                    jobs != 0 ? jobs : ThreadPool::defaultWorkers(),
                    scale_name.c_str(),
                    isolation == Isolation::Process ? "process"
                                                    : "thread");
        for (const std::string &name : figs) {
            FigureCampaign camp = buildFigure(name, scale, verify);
            if (!only.empty()) {
                FigureCampaign filtered;
                filtered.name = camp.name;
                for (const RunSpec &spec : camp.specs) {
                    for (const std::string &pat : only) {
                        if (spec.id.find(pat) != std::string::npos) {
                            filtered.add(spec.id, spec.config,
                                         spec.query, spec.verify);
                            break;
                        }
                    }
                }
                if (filtered.specs.empty())
                    usageError("--only matched no " + name + " runs");
                camp = std::move(filtered);
            }
            for (RunSpec &spec : camp.specs) {
                spec.config.telemetry.enabled = telemetry;
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
                    : out_dir + "/JOURNAL_" + name + ".jsonl";
            JournalState prior;
            if (resuming) {
                std::string error;
                if (!loadJournal(journal_path, prior, error))
                    usageError(error);
                if (prior.header.campaign != name ||
                    prior.header.scale != scale_name ||
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
                                name.c_str(), prior.truncatedLines);
            }
            JournalHeader header;
            header.campaign = name;
            header.scale = scale_name;
            header.verify = verify;
            header.telemetry = telemetry;
            CampaignJournal journal(journal_path, header, resuming);

            SupervisorConfig scfg;
            scfg.isolation = isolation;
            scfg.jobs = jobs;
            scfg.timeoutMs = timeout_ms;
            scfg.maxAttempts = retries;
            scfg.chaos = chaos;
            scfg.journal = &journal;
            scfg.resume = resuming ? &prior : nullptr;
            Supervisor supervisor(std::move(scfg));

            const auto t0 = std::chrono::steady_clock::now();
            camp.report = supervisor.run(camp.specs);
            const auto t1 = std::chrono::steady_clock::now();
            const double wall_ms =
                std::chrono::duration<double, std::milli>(t1 - t0)
                    .count();

            std::fputs(failureLines(camp).c_str(), stdout);
            const Json doc = benchDocument(camp, supervisor.jobs(), scale,
                                           verify, wall_ms);
            const std::string path = out_dir + "/BENCH_" + name + ".json";
            writeJsonFile(path, doc);
            const SupervisorReport &report = camp.report;
            std::printf("%s: %zu runs (%u executed, %u from journal, "
                        "%u failed, %u retries), wall %.1fs, per-run "
                        "total %.1fs, wrote %s\n",
                        name.c_str(), camp.specs.size(), report.executed,
                        report.fromJournal, report.failed,
                        report.retries, wall_ms / 1e3,
                        doc.find("run_wall_ms_total")->asDouble() / 1e3,
                        path.c_str());
            any_failed = any_failed || !report.allDone();
        }
    } catch (const std::exception &e) {
        reportUncaught(e);
        return 1;
    }
    return any_failed ? 1 : 0;
}
