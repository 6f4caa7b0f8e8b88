/**
 * @file
 * Offline model checker for the protocol timing specification.
 *
 * Explores every reachable command sequence of a bounded depth (up to
 * state equivalence) over a configurable geometry and cross-examines
 * the declarative rule table the Device schedules from
 * (src/dram/timing_rules, through src/check/spec_model) against the
 * imperative ProtocolChecker at every step: agreement at the earliest
 * legal cycle and one cycle before it, state-rule agreement, deadlock
 * freedom, upward-closure of legality in time (the monotonicity
 * property the event-driven scheduler relies on), and agreement of the
 * evaluator's forward bound with its rules read one by one.
 *
 * Exit status: 0 when every probe agreed, 1 on any disagreement,
 * 2 on usage errors.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/check/spec_model.hh"
#include "src/dram/timing.hh"

namespace {

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--preset ddr4|rram] [--depth N] [--max-nodes N]\n"
        "          [--ranks N] [--groups N] [--banks N] [--rows N]\n"
        "          [--no-monotone] [--print-table]\n"
        "\n"
        "Cross-checks the declarative timing spec table against the\n"
        "runtime ProtocolChecker by bounded exhaustive exploration.\n"
        "  --preset      timing preset to verify (default ddr4)\n"
        "  --depth       commands per explored sequence (default 3)\n"
        "  --max-nodes   exploration cap (default 200000)\n"
        "  --ranks       ranks in the probe geometry (default 2)\n"
        "  --groups      bank groups per rank (default 2)\n"
        "  --banks       banks per group (default 1)\n"
        "  --rows        row alphabet per bank (default 2)\n"
        "  --no-monotone skip the upward-closure probes\n"
        "  --print-table print the rule table and exit\n",
        argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string preset = "ddr4";
    sam::VerifyOptions opt;
    opt.depth = 3;
    opt.maxNodes = 200000;
    sam::Geometry geom;
    geom.channels = 1;
    geom.ranks = 2;
    geom.bankGroups = 2;
    geom.banksPerGroup = 1;
    bool print_table = false;

    const auto num = [&](int &i) -> unsigned long {
        if (i + 1 >= argc) {
            usage(argv[0]);
            std::exit(2);
        }
        return std::strtoul(argv[++i], nullptr, 10);
    };
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (!std::strcmp(arg, "--preset")) {
            if (i + 1 >= argc) {
                usage(argv[0]);
                return 2;
            }
            preset = argv[++i];
        } else if (!std::strcmp(arg, "--depth")) {
            opt.depth = static_cast<unsigned>(num(i));
        } else if (!std::strcmp(arg, "--max-nodes")) {
            opt.maxNodes = num(i);
        } else if (!std::strcmp(arg, "--ranks")) {
            geom.ranks = static_cast<unsigned>(num(i));
        } else if (!std::strcmp(arg, "--groups")) {
            geom.bankGroups = static_cast<unsigned>(num(i));
        } else if (!std::strcmp(arg, "--banks")) {
            geom.banksPerGroup = static_cast<unsigned>(num(i));
        } else if (!std::strcmp(arg, "--rows")) {
            opt.probeRows = static_cast<unsigned>(num(i));
        } else if (!std::strcmp(arg, "--no-monotone")) {
            opt.monotone = false;
        } else if (!std::strcmp(arg, "--print-table")) {
            print_table = true;
        } else if (!std::strcmp(arg, "--help") ||
                   !std::strcmp(arg, "-h")) {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown option: %s\n", arg);
            usage(argv[0]);
            return 2;
        }
    }

    sam::TimingParams timing;
    if (preset == "ddr4") {
        timing = sam::ddr4Timing();
    } else if (preset == "rram") {
        timing = sam::rramTiming();
    } else {
        std::fprintf(stderr, "unknown preset: %s\n", preset.c_str());
        return 2;
    }

    if (print_table) {
        std::fputs(sam::describeRuleTable(timing).c_str(), stdout);
        return 0;
    }

    std::printf("samverify: preset=%s depth=%u geometry=%uch/%urk/"
                "%ubg/%ubk rows=%u\n",
                preset.c_str(), opt.depth, geom.channels, geom.ranks,
                geom.bankGroups, geom.banksPerGroup, opt.probeRows);
    const sam::VerifyStats stats =
        sam::verifySpecAgainstChecker(geom, timing, opt);
    std::printf("%s\n", stats.summary().c_str());
    for (const std::string &f : stats.failures)
        std::printf("FAIL: %s\n", f.c_str());
    if (!stats.ok())
        return 1;
    if (!stats.exhausted)
        std::printf("note: exploration capped at --max-nodes; rerun "
                    "with a larger cap for full coverage\n");
    return 0;
}
