/**
 * @file
 * Tests for the protocol-checker oracle (src/check): hand-built illegal
 * command streams must each be rejected with the correct constraint
 * named, and legal streams -- hand-built, random Device traffic, and
 * full-system replays on every design -- must validate clean. The
 * order of replay is pinned too: violation indices, messages, and
 * report order must not depend on the order commands were observed in.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <random>
#include <set>
#include <stdexcept>
#include <vector>

#include "src/check/protocol_checker.hh"
#include "src/designs/design.hh"
#include "src/dram/device.hh"
#include "src/dram/timing.hh"
#include "src/imdb/query.hh"
#include "src/sim/system.hh"

namespace sam {
namespace {

// --------------------------------------------------------------------
// Hand-built command streams
// --------------------------------------------------------------------

Command
cmd(CmdKind kind, Cycle at, unsigned bg, unsigned bank,
    std::uint64_t row, AccessMode mode = AccessMode::Regular)
{
    Command c;
    c.kind = kind;
    c.at = at;
    c.addr.rank = 0;
    c.addr.bankGroup = bg;
    c.addr.bank = bank;
    c.addr.row = row;
    c.mode = mode;
    return c;
}

Command
rankCmd(CmdKind kind, Cycle at, unsigned rank,
        AccessMode mode = AccessMode::Regular)
{
    Command c;
    c.kind = kind;
    c.at = at;
    c.addr.rank = rank;
    c.mode = mode;
    return c;
}

class CheckerTest : public ::testing::Test
{
  protected:
    std::set<std::string>
    constraintsOf(ProtocolChecker &checker)
    {
        std::set<std::string> names;
        for (const Violation &v : checker.violations())
            names.insert(v.constraint);
        return names;
    }

    void
    expectSingle(ProtocolChecker &checker, const std::string &name)
    {
        EXPECT_EQ(checker.violations().size(), 1u) << checker.report();
        EXPECT_TRUE(constraintsOf(checker).count(name))
            << "expected " << name << "\n"
            << checker.report();
    }

    Geometry geom;
    TimingParams timing = ddr4Timing();
};

TEST_F(CheckerTest, CleanHandBuiltStreamPasses)
{
    ProtocolChecker checker(geom, timing);
    checker.observe(cmd(CmdKind::Act, 0, 0, 0, 1));
    checker.observe(cmd(CmdKind::Rd, 17, 0, 0, 1));
    checker.observe(cmd(CmdKind::Rd, 23, 0, 0, 1));
    checker.observe(cmd(CmdKind::Pre, 62, 0, 0, 1));
    checker.observe(cmd(CmdKind::Act, 79, 0, 0, 2));
    checker.observe(cmd(CmdKind::Wr, 96, 0, 0, 2));
    checker.observe(cmd(CmdKind::Rd, 121, 0, 0, 2));
    checker.observe(
        cmd(CmdKind::ModeSwitch, 125, 0, 0, 2, AccessMode::Stride));
    checker.observe(cmd(CmdKind::Rd, 127, 0, 0, 2, AccessMode::Stride));
    EXPECT_TRUE(checker.clean()) << checker.report();
    EXPECT_EQ(checker.commandCount(), 9u);
}

TEST_F(CheckerTest, FifthActivateInsideTfawDetected)
{
    ProtocolChecker checker(geom, timing);
    // Four ACTs spaced by tRRD_L across bank groups, then a fifth only
    // 24 cycles after the first -- inside the tFAW = 26 window.
    checker.observe(cmd(CmdKind::Act, 0, 0, 0, 1));
    checker.observe(cmd(CmdKind::Act, 6, 1, 0, 1));
    checker.observe(cmd(CmdKind::Act, 12, 2, 0, 1));
    checker.observe(cmd(CmdKind::Act, 18, 3, 0, 1));
    checker.observe(cmd(CmdKind::Act, 24, 0, 1, 1));
    expectSingle(checker, "tFAW");
}

TEST_F(CheckerTest, PrechargeBeforeTrasDetected)
{
    ProtocolChecker checker(geom, timing);
    checker.observe(cmd(CmdKind::Act, 0, 0, 0, 5));
    checker.observe(cmd(CmdKind::Pre, 10, 0, 0, 5));
    expectSingle(checker, "tRAS");
}

TEST_F(CheckerTest, ReadInsideTwtrLDetected)
{
    ProtocolChecker checker(geom, timing);
    checker.observe(cmd(CmdKind::Act, 0, 0, 0, 1));
    checker.observe(cmd(CmdKind::Wr, 17, 0, 0, 1));
    // Write data ends at 17 + CWL + tBL = 33. A read at 37 satisfies
    // the rank-wide tWTR_S = 3 but not the same-group tWTR_L = 9.
    checker.observe(cmd(CmdKind::Rd, 37, 0, 0, 1));
    expectSingle(checker, "tWTR_L");
    EXPECT_FALSE(constraintsOf(checker).count("tWTR_S"));
}

TEST_F(CheckerTest, CasInsideModeSwitchTrtrDetected)
{
    ProtocolChecker checker(geom, timing);
    checker.observe(cmd(CmdKind::Act, 0, 0, 0, 1));
    checker.observe(
        cmd(CmdKind::ModeSwitch, 20, 0, 0, 1, AccessMode::Stride));
    checker.observe(cmd(CmdKind::Rd, 21, 0, 0, 1, AccessMode::Stride));
    expectSingle(checker, "tRTR(mode)");
}

TEST_F(CheckerTest, DoubleActivateDetected)
{
    ProtocolChecker checker(geom, timing);
    checker.observe(cmd(CmdKind::Act, 0, 0, 0, 1));
    checker.observe(cmd(CmdKind::Act, 100, 0, 0, 2));
    expectSingle(checker, "bank-state");
}

TEST_F(CheckerTest, ReadToClosedBankDetected)
{
    ProtocolChecker checker(geom, timing);
    checker.observe(cmd(CmdKind::Rd, 0, 0, 0, 1));
    expectSingle(checker, "bank-state");
}

TEST_F(CheckerTest, ReadToWrongRowDetected)
{
    ProtocolChecker checker(geom, timing);
    checker.observe(cmd(CmdKind::Act, 0, 0, 0, 1));
    checker.observe(cmd(CmdKind::Rd, 17, 0, 0, 2));
    expectSingle(checker, "bank-state");
}

TEST_F(CheckerTest, RefreshWithOpenRowDetected)
{
    ProtocolChecker checker(geom, timing);
    checker.observe(cmd(CmdKind::Act, 0, 0, 0, 1));
    checker.observe(rankCmd(CmdKind::Ref, 100, 0));
    expectSingle(checker, "bank-state");
}

TEST_F(CheckerTest, RefreshWithinTrpOfPrechargeDetected)
{
    // The bank is closed, but its precharge completes only at
    // 39 + tRP = 56: a REF one cycle earlier is flagged, at 56 clean.
    for (const Cycle ref_at : {Cycle{55}, Cycle{56}}) {
        ProtocolChecker checker(geom, timing);
        checker.observe(cmd(CmdKind::Act, 0, 0, 0, 1));
        checker.observe(cmd(CmdKind::Pre, 39, 0, 0, 1));
        checker.observe(rankCmd(CmdKind::Ref, ref_at, 0));
        if (ref_at < 39 + timing.tRP)
            expectSingle(checker, "tRP");
        else
            EXPECT_TRUE(checker.clean()) << checker.report();
    }
}

TEST_F(CheckerTest, CasModeMismatchDetected)
{
    ProtocolChecker checker(geom, timing);
    checker.observe(cmd(CmdKind::Act, 0, 0, 0, 1));
    // Stride CAS while the rank never left regular mode.
    checker.observe(cmd(CmdKind::Rd, 17, 0, 0, 1, AccessMode::Stride));
    expectSingle(checker, "mode-state");
}

TEST_F(CheckerTest, ModeSwitchAtLastCasDetected)
{
    ProtocolChecker checker(geom, timing);
    checker.observe(cmd(CmdKind::Act, 0, 0, 0, 1));
    checker.observe(cmd(CmdKind::Rd, 17, 0, 0, 1));
    // A switch in the same cycle as the rank's last CAS would
    // retroactively change that CAS's I/O mode.
    checker.observe(
        cmd(CmdKind::ModeSwitch, 17, 0, 0, 1, AccessMode::Stride));
    expectSingle(checker, "mode-state");
}

TEST_F(CheckerTest, DataBusOverlapAcrossRanksDetected)
{
    ProtocolChecker checker(geom, timing);
    Command act1 = cmd(CmdKind::Act, 0, 0, 0, 1);
    Command rd = cmd(CmdKind::Rd, 17, 0, 0, 1); // data [34, 38)
    Command act2 = rankCmd(CmdKind::Act, 0, 1);
    act2.addr.row = 1;
    Command wr = rankCmd(CmdKind::Wr, 24, 1); // data [36, 40)
    wr.addr.row = 1;
    checker.observe(act1);
    checker.observe(rd);
    checker.observe(act2);
    checker.observe(wr);
    expectSingle(checker, "bus-overlap");
}

TEST_F(CheckerTest, RankSwitchWithoutBubbleDetected)
{
    ProtocolChecker checker(geom, timing);
    Command act1 = cmd(CmdKind::Act, 0, 0, 0, 1);
    Command rd1 = cmd(CmdKind::Rd, 17, 0, 0, 1); // data [34, 38)
    Command act2 = rankCmd(CmdKind::Act, 0, 1);
    act2.addr.row = 1;
    Command rd2 = rankCmd(CmdKind::Rd, 22, 1); // data [39, 43)
    rd2.addr.row = 1;
    checker.observe(act1);
    checker.observe(rd1);
    checker.observe(act2);
    checker.observe(rd2);
    expectSingle(checker, "tRTR(bus)");
}

TEST_F(CheckerTest, ReadToWriteTurnaroundDetected)
{
    ProtocolChecker checker(geom, timing);
    checker.observe(cmd(CmdKind::Act, 0, 0, 0, 1));
    checker.observe(cmd(CmdKind::Rd, 17, 0, 0, 1)); // data [34, 38)
    // Write data at 27 + CWL = 39 follows read data without the
    // 2-cycle driver-turnaround bubble.
    checker.observe(cmd(CmdKind::Wr, 27, 0, 0, 1)); // data [39, 43)
    expectSingle(checker, "rd-wr-turnaround");
}

TEST_F(CheckerTest, CommandDuringRefreshBlackoutDetected)
{
    ProtocolChecker checker(geom, timing);
    checker.observe(rankCmd(CmdKind::Ref, 0, 0));
    checker.observe(cmd(CmdKind::Act, 100, 0, 0, 1)); // < tRFC = 420
    expectSingle(checker, "tRFC");
}

TEST_F(CheckerTest, RefreshPostponedPastDeadlineDetected)
{
    ProtocolChecker checker(geom, timing);
    // DDR4 allows postponing at most 8 refresh intervals.
    checker.observe(
        rankCmd(CmdKind::Ref, Cycle{9} * timing.tREFI + 1, 0));
    expectSingle(checker, "tREFI");
}

TEST_F(CheckerTest, RefreshOnRramIsIllegal)
{
    ProtocolChecker checker(geom, rramTiming());
    checker.observe(rankCmd(CmdKind::Ref, 0, 0));
    expectSingle(checker, "tREFI");
}

TEST_F(CheckerTest, OutOfGeometryBankRejectedOnObserve)
{
    ProtocolChecker checker(geom, timing);
    EXPECT_THROW(checker.observe(cmd(CmdKind::Rd, 17, 99, 0, 1)),
                 std::logic_error);
    EXPECT_THROW(checker.observe(cmd(CmdKind::Act, 0, 0, 99, 1)),
                 std::logic_error);
    EXPECT_THROW(
        checker.observe(cmd(CmdKind::Pre, 0, geom.bankGroups, 0, 1)),
        std::logic_error);
    EXPECT_THROW(
        checker.observe(cmd(CmdKind::Wr, 0, 0, geom.banksPerGroup, 1)),
        std::logic_error);
    // Bank coordinates mean nothing on rank-level commands.
    Command ref = rankCmd(CmdKind::Ref, 0, 0);
    ref.addr.bankGroup = 99;
    checker.observe(ref);
    EXPECT_EQ(checker.commandCount(), 1u);
    EXPECT_TRUE(checker.clean()) << checker.report();
}

TEST_F(CheckerTest, PanickedCheckIsRerunNotReportedClean)
{
    ProtocolChecker checker(geom, timing);
    Command bad = cmd(CmdKind::Act, 0, 0, 0, 1);
    bad.kind = static_cast<CmdKind>(99);
    checker.observe(bad);
    EXPECT_THROW(checker.clean(), std::logic_error);
    EXPECT_THROW(checker.clean(), std::logic_error);
}

// --------------------------------------------------------------------
// Replay order: violation indices, messages, and report order
// --------------------------------------------------------------------

/** The checker's equal-cycle tie-break (PRE, ACT, REF, CAS, switch). */
int
tiePriority(CmdKind kind)
{
    switch (kind) {
      case CmdKind::Pre:        return 0;
      case CmdKind::Act:        return 1;
      case CmdKind::Ref:        return 2;
      case CmdKind::Rd:
      case CmdKind::Wr:         return 3;
      case CmdKind::ModeSwitch: return 4;
    }
    return 5;
}

/**
 * Seeded random accesses (a quarter writes, an eighth stride-mode)
 * with idle gaps that force refresh catch-up bursts.
 */
void
driveRandomTraffic(Device &device, const Geometry &geom, unsigned seed,
                   int accesses)
{
    std::mt19937 rng(seed);
    Cycle t = 0;
    for (int i = 0; i < accesses; ++i) {
        DeviceAccess acc;
        acc.addr.rank = rng() % geom.ranks;
        acc.addr.bankGroup = rng() % geom.bankGroups;
        acc.addr.bank = rng() % geom.banksPerGroup;
        acc.addr.row = rng() % 64;
        acc.addr.column = rng() % geom.linesPerRow();
        acc.isWrite = rng() % 4 == 0;
        acc.mode = rng() % 8 == 0 ? AccessMode::Stride
                                  : AccessMode::Regular;
        acc.extraBursts = rng() % 16 == 0 ? 1 : 0;
        device.access(acc, t);
        t += rng() % 20;
        if (rng() % 128 == 0)
            t += 5000; // idle gap: forces refresh catch-up bursts
    }
}

void
expectSameViolations(ProtocolChecker &a, ProtocolChecker &b)
{
    const std::vector<Violation> &va = a.violations();
    const std::vector<Violation> &vb = b.violations();
    ASSERT_EQ(va.size(), vb.size());
    for (std::size_t i = 0; i < va.size(); ++i) {
        SCOPED_TRACE("violation " + std::to_string(i));
        EXPECT_EQ(va[i].constraint, vb[i].constraint);
        EXPECT_EQ(va[i].message, vb[i].message);
        EXPECT_EQ(va[i].index, vb[i].index);
        EXPECT_EQ(va[i].cmd.str(), vb[i].cmd.str());
        EXPECT_EQ(va[i].cmd.mode, vb[i].cmd.mode);
    }
    EXPECT_EQ(a.report(va.size()), b.report(vb.size()));
}

TEST_F(CheckerTest, ViolationsIndependentOfObservationOrder)
{
    std::vector<Command> stream;
    Device device(geom, timing);
    device.addCommandObserver(
        &stream, [&stream](const Command &c) { stream.push_back(c); });
    driveRandomTraffic(device, geom, /*seed=*/7, /*accesses=*/3000);
    // Pull every 97th command 3 cycles early so several rules fire.
    for (std::size_t i = 0; i < stream.size(); i += 97)
        stream[i].at = stream[i].at >= 3 ? stream[i].at - 3 : 0;

    ProtocolChecker commit_order(geom, timing);
    for (const Command &c : stream)
        commit_order.observe(c);

    // A seeded shuffle, then each (cycle, priority) class is put back
    // in commit order over the positions the shuffle gave it.
    std::vector<std::size_t> perm(stream.size());
    std::iota(perm.begin(), perm.end(), 0);
    std::mt19937 rng(2024);
    std::shuffle(perm.begin(), perm.end(), rng);
    std::map<std::pair<Cycle, int>, std::vector<std::size_t>> classes;
    for (std::size_t i = 0; i < stream.size(); ++i)
        classes[{stream[i].at, tiePriority(stream[i].kind)}].push_back(i);
    std::map<std::pair<Cycle, int>, std::size_t> next;
    ProtocolChecker shuffled(geom, timing);
    for (const std::size_t p : perm) {
        const std::pair<Cycle, int> key{stream[p].at,
                                        tiePriority(stream[p].kind)};
        shuffled.observe(stream[classes[key][next[key]++]]);
    }

    std::set<std::string> fired;
    for (const Violation &v : commit_order.violations())
        fired.insert(v.constraint);
    EXPECT_GE(fired.size(), 10u) << commit_order.report();
    expectSameViolations(commit_order, shuffled);
}

TEST_F(CheckerTest, DataBusOrderReportPinned)
{
    Command act1 = rankCmd(CmdKind::Act, 0, 1);
    act1.addr.row = 1;
    Command wr = rankCmd(CmdKind::Wr, 22, 1); // data [34, 38)
    wr.addr.row = 1;
    Command wr2 = rankCmd(CmdKind::Wr, 65, 1); // data [77, 81)
    wr2.addr.row = 1;
    std::vector<Command> stream = {
        cmd(CmdKind::Act, 0, 0, 0, 1),
        act1,
        // Write data lands before the earlier read's data.
        cmd(CmdKind::Rd, 20, 0, 0, 1), // data [37, 41)
        wr,
        // Equal data starts go in stream order, not observation order.
        cmd(CmdKind::Rd, 60, 0, 0, 1), // data [77, 81)
        wr2,
    };
    ProtocolChecker checker(geom, timing);
    for (auto it = stream.rbegin(); it != stream.rend(); ++it)
        checker.observe(*it);
    EXPECT_EQ(
        checker.report(100),
        "ProtocolChecker: 2 violation(s) over 6 commands\n"
        "  [2] bus-overlap: RD ch0 rk0 bg0 bk0 row1 col0 @20: data [37, 41) "
        "overlaps previous burst ending @38\n"
        "  [5] bus-overlap: WR ch0 rk1 bg0 bk0 row1 col0 @65: data [77, 81) "
        "overlaps previous burst ending @81");
}

TEST_F(CheckerTest, SameCycleTieBreakReportPinned)
{
    std::vector<Command> stream = {
        cmd(CmdKind::Act, 0, 0, 0, 1),
        cmd(CmdKind::Rd, 17, 0, 0, 1),
        // One cycle, five kinds: sorted PRE, ACT, REF, RD, switch.
        cmd(CmdKind::Pre, 30, 0, 0, 1),
        cmd(CmdKind::Act, 30, 1, 0, 2),
        rankCmd(CmdKind::Ref, 30, 0),
        cmd(CmdKind::Rd, 30, 1, 0, 2),
        cmd(CmdKind::ModeSwitch, 30, 0, 0, 0, AccessMode::Stride),
        // Two RDs on one cycle keep their observation order.
        cmd(CmdKind::Rd, 60, 1, 0, 2, AccessMode::Stride),
        cmd(CmdKind::Rd, 60, 2, 0, 3, AccessMode::Stride),
    };
    stream[8].addr.column = 5;
    ProtocolChecker checker(geom, timing);
    for (auto it = stream.rbegin(); it != stream.rend(); ++it)
        checker.observe(*it);
    // Observed in reverse, the col5 RD @60 comes first and takes [7].
    EXPECT_EQ(
        checker.report(100),
        "ProtocolChecker: 12 violation(s) over 9 commands\n"
        "  [2] tRAS: PRE ch0 rk0 bg0 bk0 row1 @30: only 30 cycles after "
        "ACT @0, need 39\n"
        "  [4] bank-state: REF ch0 rk0 @30: REF with bank 4 open (row 2)\n"
        "  [4] tRP: REF ch0 rk0 @30: only 0 cycles after rank PRE @30, "
        "need 17\n"
        "  [5] tRFC: RD ch0 rk0 bg1 bk0 row2 col0 @30: issued during "
        "refresh blackout [30, 450)\n"
        "  [5] tRCD: RD ch0 rk0 bg1 bk0 row2 col0 @30: only 0 cycles "
        "after ACT @30, need 17\n"
        "  [6] tRFC: MODE ch0 rk0 ->stride @30: issued during refresh "
        "blackout [30, 450)\n"
        "  [6] mode-state: MODE ch0 rk0 ->stride @30: mode switch at or "
        "before the rank's last CAS @30\n"
        "  [7] tRFC: RD ch0 rk0 bg2 bk0 row3 col5 (stride) @60: issued "
        "during refresh blackout [30, 450)\n"
        "  [7] bank-state: RD ch0 rk0 bg2 bk0 row3 col5 (stride) @60: RD "
        "to a closed bank\n"
        "  [8] tRFC: RD ch0 rk0 bg1 bk0 row2 col0 (stride) @60: issued "
        "during refresh blackout [30, 450)\n"
        "  [8] tCCD_S: RD ch0 rk0 bg1 bk0 row2 col0 (stride) @60: only 0 "
        "cycles after rank CAS @60, need 4\n"
        "  [8] bus-overlap: RD ch0 rk0 bg1 bk0 row2 col0 (stride) @60: "
        "data [77, 81) overlaps previous burst ending @81");
}

// --------------------------------------------------------------------
// Legal streams from the real timing engine
// --------------------------------------------------------------------

void
expectDeviceStreamClean(const TimingParams &timing)
{
    const Geometry geom;
    Device device(geom, timing);
    ProtocolChecker checker(geom, timing);
    checker.attach(device);

    driveRandomTraffic(device, geom, /*seed=*/42, /*accesses=*/2000);
    EXPECT_TRUE(checker.clean()) << checker.report();
    EXPECT_GT(checker.commandCount(), 2000u);
    if (timing.tREFI > 0) {
        EXPECT_GT(device.stats().refreshes.value(), 0u);
    }
}

class RandomTrafficTest : public ::testing::TestWithParam<MemTech>
{
};

TEST_P(RandomTrafficTest, DeviceStreamValidatesClean)
{
    expectDeviceStreamClean(timingFor(GetParam()));
}

TEST_P(RandomTrafficTest, DeratedDeviceStreamValidatesClean)
{
    // These designs run the technology's timings derated by their area
    // overhead (Section 6.1); every other design's derating rounds to
    // the plain preset (SAM-en's does on DDR4, not on RRAM). The Device
    // schedules from whatever rule table the derated timings give.
    for (const DesignKind kind :
         {DesignKind::RcNvmBit, DesignKind::RcNvmWord, DesignKind::SamSub,
          DesignKind::SamEn}) {
        const double overhead = makeDesign(kind).areaOverhead;
        SCOPED_TRACE(designName(kind) + " derated by " +
                     std::to_string(overhead));
        expectDeviceStreamClean(timingFor(GetParam()).derated(overhead));
    }
}

INSTANTIATE_TEST_SUITE_P(BothTechs, RandomTrafficTest,
                         ::testing::Values(MemTech::DRAM,
                                           MemTech::RRAM));

class DesignCheckTest : public ::testing::TestWithParam<DesignKind>
{
};

TEST_P(DesignCheckTest, SystemReplayValidatesClean)
{
    SimConfig cfg;
    cfg.design = GetParam();
    cfg.taRecords = 1024;
    cfg.tbRecords = 2048;
    ASSERT_TRUE(cfg.check); // checking is the default
    System sys(cfg);
    // A protocol violation panics inside runQuery; surviving the calls
    // with a non-empty validated stream is the assertion.
    const RunStats arith = sys.runQuery(arithQuery(8, 0.25, cfg.taFields));
    EXPECT_GT(arith.checkedCommands, 0u);
    const RunStats join = sys.runQuery(benchmarkQsQueries().front());
    EXPECT_GT(join.checkedCommands, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllDesigns, DesignCheckTest,
    ::testing::Values(DesignKind::Baseline, DesignKind::RcNvmBit,
                      DesignKind::RcNvmWord, DesignKind::GsDram,
                      DesignKind::GsDramEcc, DesignKind::SamSub,
                      DesignKind::SamIo, DesignKind::SamEn,
                      DesignKind::Ideal),
    [](const ::testing::TestParamInfo<DesignKind> &info) {
        std::string name = designName(info.param);
        std::erase(name, '-');
        return name;
    });

} // namespace
} // namespace sam
