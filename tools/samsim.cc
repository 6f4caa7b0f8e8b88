/**
 * @file
 * samsim -- command-line driver for the SAM simulator.
 *
 * Run any benchmark query (or a parameterized arithmetic/aggregate
 * query) on any design, optionally comparing against the row-store
 * baseline, injecting faults, or dumping detailed statistics.
 *
 * Examples:
 *   samsim --list
 *   samsim --design SAM-en --query Q3
 *   samsim --design SAM-IO --query Q1 --compare --ta 8192
 *   samsim --design SAM-en --query arith --proj 16 --sel 0.4
 *   samsim --design SAM-en --query Q3 --fail-chip 5 --ecc SSC
 *   samsim --design RC-NVM-wd --query Qs3 --stats
 */

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "src/common/json.hh"
#include "src/common/logging.hh"
#include "src/core/session.hh"
#include "src/designs/design.hh"
#include "src/runner/figures.hh"
#include "src/sim/system.hh"
#include "src/telemetry/perfetto.hh"

namespace {

using namespace sam;

[[noreturn]] void
usage(int code)
{
    std::fprintf(
        code == 0 ? stdout : stderr,
        "usage: samsim [options]\n"
        "  --list                 list designs, queries, ECC schemes\n"
        "  --design <name>        design to simulate (default SAM-en)\n"
        "  --query <name>         Q1..Q12, Qs1..Qs6, arith, aggr\n"
        "  --proj <n> --sel <f>   arith/aggr parameters\n"
        "  --ecc <scheme>         SSC-DSD (default), SSC, SSC-32,\n"
        "                         Bamboo-72, SEC-DED, none\n"
        "  --tech <DRAM|RRAM>     substrate override\n"
        "  --ta <n> --tb <n>      record counts (default 16384/16384)\n"
        "  --scale <quick|full|paper>  table scale preset; paper is\n"
        "                         the source paper's 10M records per\n"
        "                         table (explicit --ta/--tb win)\n"
        "  --cores <n>            cores (default 4)\n"
        "  --mshrs <n>            outstanding misses/core (default 8)\n"
        "  --fail-chip <c>        chip c dies at cycle 0 (chipkill) on\n"
        "                         the design run only; cannot be\n"
        "                         combined with --fault-model or\n"
        "                         --chipkill-at\n"
        "  --fault-model <name>   live faults: none, transient,\n"
        "                         stuckat, chipkill\n"
        "  --fit <f>              transient flips per Mcycle (def. 10)\n"
        "  --chipkill-at <cycle>  kill a chip mid-run (implies\n"
        "                         --fault-model chipkill)\n"
        "  --chipkill-chip <c>    which chip dies (default 5)\n"
        "  --fault-seed <n>       fault injector RNG seed\n"
        "  --compare              also run the row-store baseline\n"
        "  --jobs <n>             with --compare: run design and\n"
        "                         baseline in parallel (default 1)\n"
        "  --no-verify            skip the reference-result check\n"
        "  --check                print a protocol-checker summary\n"
        "  --no-check             disable the protocol-checker oracle\n"
        "  --stats                print detailed statistics\n"
        "  --telemetry <file>     write a sam-telemetry-v1 summary\n"
        "                         (latency histograms + time series)\n"
        "  --perfetto <file>      write a Chrome/Perfetto trace-event\n"
        "                         JSON of the DRAM command stream\n"
        "                         (open in ui.perfetto.dev)\n"
        "  --telemetry-window <n> time-series window width in cycles\n"
        "                         (default 4096)\n");
    std::exit(code);
}

/** One-line usage diagnostic; exit 2 (bench_diff.py convention). */
[[noreturn]] void
usageError(const std::string &message)
{
    std::fprintf(stderr, "samsim: %s\n", message.c_str());
    std::exit(2);
}

/** Strict bounded integer flag parser: garbage and 0/negative die. */
std::uint64_t
parseCount(const char *flag, const char *text, std::uint64_t lo,
           std::uint64_t hi)
{
    char *end = nullptr;
    errno = 0;
    const long long v = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0' || errno != 0 || v < 0 ||
        static_cast<std::uint64_t>(v) < lo ||
        static_cast<std::uint64_t>(v) > hi)
        usageError(std::string(flag) + " wants an integer in [" +
                   std::to_string(lo) + ", " + std::to_string(hi) +
                   "], got '" + text + "'");
    return static_cast<std::uint64_t>(v);
}

/** Strict bounded float flag parser. */
double
parseFraction(const char *flag, const char *text, double lo, double hi)
{
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno != 0 || v < lo || v > hi)
        usageError(std::string(flag) + " wants a number in [" +
                   std::to_string(lo) + ", " + std::to_string(hi) +
                   "], got '" + text + "'");
    return v;
}

DesignKind
parseDesign(const std::string &name)
{
    for (DesignKind d :
         {DesignKind::Baseline, DesignKind::RcNvmBit,
          DesignKind::RcNvmWord, DesignKind::GsDram,
          DesignKind::GsDramEcc, DesignKind::SamSub, DesignKind::SamIo,
          DesignKind::SamEn, DesignKind::Ideal}) {
        if (designName(d) == name)
            return d;
    }
    fatal("unknown design '", name, "' (try --list)");
}

EccScheme
parseEcc(const std::string &name)
{
    for (EccScheme e :
         {EccScheme::None, EccScheme::SecDed, EccScheme::Ssc,
          EccScheme::SscDsd, EccScheme::Ssc32, EccScheme::Bamboo72}) {
        if (eccSchemeName(e) == name)
            return e;
    }
    fatal("unknown ECC scheme '", name, "' (try --list)");
}

Query
parseQuery(const std::string &name, unsigned proj, double sel,
           unsigned ta_fields)
{
    if (name == "arith")
        return arithQuery(proj, sel, ta_fields);
    if (name == "aggr")
        return aggrQuery(proj, sel, ta_fields);
    for (const Query &q : benchmarkQQueries()) {
        if (q.name == name)
            return q;
    }
    for (const Query &q : benchmarkQsQueries()) {
        if (q.name == name)
            return q;
    }
    fatal("unknown query '", name, "' (try --list)");
}

void
listEverything()
{
    std::printf("designs:");
    for (DesignKind d :
         {DesignKind::Baseline, DesignKind::RcNvmBit,
          DesignKind::RcNvmWord, DesignKind::GsDram,
          DesignKind::GsDramEcc, DesignKind::SamSub, DesignKind::SamIo,
          DesignKind::SamEn, DesignKind::Ideal}) {
        std::printf(" %s", designName(d).c_str());
    }
    std::printf("\nqueries:");
    for (const Query &q : benchmarkQQueries())
        std::printf(" %s", q.name.c_str());
    for (const Query &q : benchmarkQsQueries())
        std::printf(" %s", q.name.c_str());
    std::printf(" arith aggr\necc:");
    for (EccScheme e :
         {EccScheme::None, EccScheme::SecDed, EccScheme::Ssc,
          EccScheme::SscDsd, EccScheme::Ssc32, EccScheme::Bamboo72}) {
        std::printf(" %s", eccSchemeName(e).c_str());
    }
    std::printf("\n");
}

void
printRun(const char *label, const RunStats &r)
{
    std::printf("%-10s %10llu cycles  %8.1f mW  rows %llu  "
                "hit %.0f%%  rd %llu  srd %llu  wr %llu  swr %llu\n",
                label, static_cast<unsigned long long>(r.cycles),
                r.power.totalPowerMw(),
                static_cast<unsigned long long>(r.result.rows),
                r.rowHitRate() * 100.0,
                static_cast<unsigned long long>(r.memReads),
                static_cast<unsigned long long>(r.strideReads),
                static_cast<unsigned long long>(r.memWrites),
                static_cast<unsigned long long>(r.strideWrites));
}

void
printStats(const RunStats &r)
{
    std::printf("\ndetailed statistics:\n");
    std::printf("  activates            %12llu\n",
                static_cast<unsigned long long>(r.activates));
    std::printf("  row hits / misses    %12llu / %llu\n",
                static_cast<unsigned long long>(r.rowHits),
                static_cast<unsigned long long>(r.rowMisses));
    std::printf("  I/O mode switches    %12llu\n",
                static_cast<unsigned long long>(r.modeSwitches));
    std::printf("  ECC corrected lines  %12llu\n",
                static_cast<unsigned long long>(r.eccCorrectedLines));
    std::printf("  ECC uncorrectable    %12llu\n",
                static_cast<unsigned long long>(r.eccUncorrectable));
    std::printf("  RAS scrub writebacks %12llu\n",
                static_cast<unsigned long long>(r.scrubWritebacks));
    std::printf("  RAS read retries     %12llu\n",
                static_cast<unsigned long long>(r.readRetries));
    std::printf("  RAS poisoned reads   %12llu\n",
                static_cast<unsigned long long>(r.poisonedReads));
    std::printf("  RAS lines retired    %12llu\n",
                static_cast<unsigned long long>(r.linesRetired));
    std::printf("  energy (uJ)          %15.3f\n",
                r.power.totalEnergyPj() / 1e6);
    std::printf("    activation         %15.3f\n",
                r.power.actEnergyPj / 1e6);
    std::printf("    read/write bursts  %15.3f\n",
                r.power.rdwrEnergyPj / 1e6);
    std::printf("    background         %15.3f\n",
                r.power.backgroundEnergyPj / 1e6);
    std::printf("    refresh            %15.3f\n",
                r.power.refreshEnergyPj / 1e6);
    std::printf("\nraw counters:\n%s", r.statsText.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace sam;
    setQuietLogging(true);

    SimConfig cfg;
    std::string design_name = "SAM-en";
    std::string query_name = "Q1";
    std::string ecc_name = "SSC-DSD";
    std::string tech_name;
    unsigned proj = 8;
    double sel = 0.25;
    int fail_chip = -1;
    unsigned jobs = 1;
    bool scale_given = false;
    Scale scale = Scale::Full;
    bool ta_given = false;
    bool tb_given = false;
    bool compare = false;
    bool verify = true;
    bool stats = false;
    bool check_summary = false;
    std::string telemetry_path;
    std::string perfetto_path;

    auto next_arg = [&](int &i, const char *flag) -> const char * {
        if (i + 1 >= argc)
            usageError(std::string(flag) + " wants a value");
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--help" || a == "-h")
            usage(0);
        else if (a == "--list") {
            listEverything();
            return 0;
        } else if (a == "--design")
            design_name = next_arg(i, "--design");
        else if (a == "--query")
            query_name = next_arg(i, "--query");
        else if (a == "--ecc")
            ecc_name = next_arg(i, "--ecc");
        else if (a == "--tech")
            tech_name = next_arg(i, "--tech");
        else if (a == "--proj")
            proj = static_cast<unsigned>(parseCount(
                "--proj", next_arg(i, "--proj"), 1, 4096));
        else if (a == "--sel")
            sel = parseFraction("--sel", next_arg(i, "--sel"), 0.0,
                                1.0);
        else if (a == "--ta") {
            cfg.taRecords = parseCount("--ta", next_arg(i, "--ta"),
                                       16, 1ull << 32);
            ta_given = true;
        } else if (a == "--tb") {
            cfg.tbRecords = parseCount("--tb", next_arg(i, "--tb"),
                                       16, 1ull << 32);
            tb_given = true;
        } else if (a == "--scale") {
            const std::string s = next_arg(i, "--scale");
            if (!parseScale(s, scale))
                usageError("--scale wants quick, full, or paper, got "
                           "'" + s + "'");
            scale_given = true;
        }
        else if (a == "--cores")
            cfg.cores = static_cast<unsigned>(parseCount(
                "--cores", next_arg(i, "--cores"), 1, 1024));
        else if (a == "--mshrs")
            cfg.mshrsPerCore = static_cast<unsigned>(parseCount(
                "--mshrs", next_arg(i, "--mshrs"), 1, 1024));
        else if (a == "--fail-chip")
            fail_chip = static_cast<int>(parseCount(
                "--fail-chip", next_arg(i, "--fail-chip"), 0, 1024));
        else if (a == "--fault-model")
            cfg.faults.model =
                parseFaultModel(next_arg(i, "--fault-model"));
        else if (a == "--fit")
            cfg.faults.fitPerMcycle = parseFraction(
                "--fit", next_arg(i, "--fit"), 0.0, 1e9);
        else if (a == "--chipkill-at") {
            cfg.faults.model = FaultModel::Chipkill;
            // NOLINTNEXTLINE(sam-cycle-accounting): pre-run config.
            cfg.faults.chipkillAt = parseCount(
                "--chipkill-at", next_arg(i, "--chipkill-at"), 0,
                ~0ull);
        } else if (a == "--chipkill-chip")
            cfg.faults.chipkillChip = static_cast<unsigned>(
                parseCount("--chipkill-chip",
                           next_arg(i, "--chipkill-chip"), 0, 1024));
        else if (a == "--fault-seed")
            cfg.faults.seed = parseCount(
                "--fault-seed", next_arg(i, "--fault-seed"), 0, ~0ull);
        else if (a == "--jobs")
            jobs = static_cast<unsigned>(parseCount(
                "--jobs", next_arg(i, "--jobs"), 1, 4096));
        else if (a == "--compare")
            compare = true;
        else if (a == "--no-verify")
            verify = false;
        else if (a == "--check")
            check_summary = true;
        else if (a == "--no-check")
            cfg.check = false;
        else if (a == "--stats")
            stats = true;
        else if (a == "--telemetry") {
            telemetry_path = next_arg(i, "--telemetry");
            cfg.telemetry.enabled = true;
        } else if (a == "--perfetto") {
            perfetto_path = next_arg(i, "--perfetto");
            cfg.telemetry.enabled = true;
            cfg.telemetry.commandTrace = true;
        } else if (a == "--telemetry-window")
            // NOLINTNEXTLINE(sam-cycle-accounting): pre-run config.
            cfg.telemetry.windowCycles = parseCount(
                "--telemetry-window",
                next_arg(i, "--telemetry-window"), 16, 1ull << 32);
        else
            usageError("unknown option '" + a + "' (try --help)");
    }

    if (fail_chip >= 0 && cfg.faults.model != FaultModel::None)
        usageError("--fail-chip cannot be combined with --fault-model "
                   "or --chipkill-at");

    // Scale presets fill in whatever --ta/--tb did not pin explicitly.
    if (scale_given) {
        const SimConfig preset = campaignConfig(scale);
        if (!ta_given)
            cfg.taRecords = preset.taRecords;
        if (!tb_given)
            cfg.tbRecords = preset.tbRecords;
    }

    try {
        cfg.ecc = parseEcc(ecc_name);
        if (!tech_name.empty()) {
            cfg.overrideTech = true;
            cfg.tech = tech_name == "RRAM" ? MemTech::RRAM
                                           : MemTech::DRAM;
        }
        const DesignKind design = parseDesign(design_name);
        const Query query =
            parseQuery(query_name, proj, sel, cfg.taFields);

        // --fail-chip kills the chip from the first read on, on the
        // design run only: the baseline stays fault-free. The kill
        // cycle keeps its default, 0 (--chipkill-at was rejected).
        SimConfig dcfg = cfg;
        dcfg.design = design;
        if (fail_chip >= 0) {
            dcfg.faults.model = FaultModel::Chipkill;
            dcfg.faults.chipkillChip = static_cast<unsigned>(fail_chip);
        }

        // The scheme the design runs, which can differ from --ecc
        // (GS-DRAM and GS-DRAM-ecc run unprotected).
        const EccScheme ecc =
            makeDesign(design, cfg.ecc, cfg.tech, cfg.overrideTech).ecc;
        std::printf("%s on %s (%s, Ta=%llu Tb=%llu records)\n",
                    query.name.c_str(), design_name.c_str(),
                    eccSchemeName(ecc).c_str(),
                    static_cast<unsigned long long>(cfg.taRecords),
                    static_cast<unsigned long long>(cfg.tbRecords));
        if (fail_chip >= 0)
            std::printf("injected whole-chip failure on chip %d\n",
                        fail_chip);

        RunStats run;
        RunStats base;
        if (compare) {
            // The design and baseline runs go through the Supervisor,
            // each in a fresh Session sharing the materialized-table
            // cache, so every --jobs prints the same numbers.
            SupervisorConfig scfg;
            scfg.jobs = jobs;
            scfg.maxAttempts = 1;
            Supervisor supervisor(scfg);
            SimConfig bcfg = cfg;
            bcfg.design = DesignKind::Baseline;
            std::vector<RunSpec> specs;
            specs.push_back(RunSpec{design_name, dcfg, query, false});
            specs.push_back(RunSpec{"baseline", bcfg, query, false});
            SupervisorReport report = supervisor.run(specs);
            // A failed run's worker has already printed its error.
            if (!report.allDone())
                return 1;
            run = std::move(report.runs[0].result.stats);
            base = std::move(report.runs[1].result.stats);
        } else {
            run = Session(dcfg).run(design, query);
        }
        printRun(design_name.c_str(), run);

        if (check_summary) {
            // A violation would have aborted the run inside runQuery;
            // reaching this point means the stream validated clean.
            if (cfg.check) {
                std::printf("protocol check: %llu commands validated, "
                            "0 violations\n",
                            static_cast<unsigned long long>(
                                run.checkedCommands));
            } else {
                std::printf("protocol check: disabled (--no-check)\n");
            }
        }

        if (verify) {
            const QueryResult expect = referenceResult(
                query,
                TableSchema{"Ta", cfg.taFields, cfg.taRecords},
                TableSchema{"Tb", cfg.tbFields, cfg.tbRecords});
            if (run.result.degraded()) {
                std::printf("result: DEGRADED -- %llu rows poisoned "
                            "(graceful failure; no silent "
                            "corruption)\n",
                            static_cast<unsigned long long>(
                                run.result.poisonedRows));
            } else if (run.result == expect) {
                std::printf("result: VERIFIED against reference "
                            "executor\n");
            } else {
                std::printf("result: MISMATCH (rows %llu vs %llu, "
                            "checksum %llu vs %llu)%s\n",
                            static_cast<unsigned long long>(
                                run.result.rows),
                            static_cast<unsigned long long>(expect.rows),
                            static_cast<unsigned long long>(
                                run.result.checksum),
                            static_cast<unsigned long long>(
                                expect.checksum),
                            fail_chip >= 0 ? "  [expected: injected "
                                             "fault on unprotected "
                                             "config?]"
                                           : "");
            }
        }

        if (compare) {
            printRun("baseline", base);
            std::printf("speedup: %.2fx   energy efficiency: %.2fx\n",
                        static_cast<double>(base.cycles) /
                            static_cast<double>(run.cycles),
                        base.power.totalEnergyPj() /
                            run.power.totalEnergyPj());
        }
        if (stats)
            printStats(run);

        if (run.telemetry) {
            if (!telemetry_path.empty()) {
                writeJsonFile(telemetry_path,
                              run.telemetry->summaryJson());
                std::printf("telemetry summary written to %s\n",
                            telemetry_path.c_str());
            }
            if (!perfetto_path.empty()) {
                writeJsonFile(perfetto_path,
                              perfettoTraceJson(*run.telemetry));
                std::printf("perfetto trace written to %s "
                            "(open in ui.perfetto.dev)\n",
                            perfetto_path.c_str());
            }
        }
    } catch (const std::exception &e) {
        reportUncaught(e);
        return 1;
    }
    return 0;
}
