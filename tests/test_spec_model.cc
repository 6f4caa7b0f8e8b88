/**
 * @file
 * Tests for the timing rule table (src/dram/timing_rules) and the
 * model checker that proves it (src/check/spec_model).
 *
 * The golden tests pin the full rendered rule table for both timing
 * presets: any change to a derived gap, a rule's scope, or the rule
 * set itself must show up as a reviewed golden diff here. The unit
 * tests cross-check earliestLegal/bindingRules against hand-built
 * ProtocolChecker streams at the exact legality boundary, and the
 * verifier tests run the bounded exhaustive exploration in-process.
 */

#include <gtest/gtest.h>

#include "src/check/protocol_checker.hh"
#include "src/check/spec_model.hh"
#include "src/designs/design.hh"
#include "src/dram/timing.hh"

namespace sam {
namespace {

Geometry
smallGeom(unsigned ranks = 2, unsigned groups = 2, unsigned banks = 1)
{
    Geometry g;
    g.channels = 1;
    g.ranks = ranks;
    g.bankGroups = groups;
    g.banksPerGroup = banks;
    return g;
}

SpecModel::Cand
cand(CmdKind kind, unsigned rank, unsigned group = 0,
     std::uint64_t row = 0, AccessMode mode = AccessMode::Regular)
{
    SpecModel::Cand c;
    c.kind = kind;
    c.addr.rank = rank;
    c.addr.bankGroup = group;
    c.addr.row = row;
    c.mode = mode;
    return c;
}

Command
cmdAt(CmdKind kind, Cycle at, unsigned rank, unsigned group = 0,
      std::uint64_t row = 0, AccessMode mode = AccessMode::Regular)
{
    Command c;
    c.kind = kind;
    c.at = at;
    c.addr.rank = rank;
    c.addr.bankGroup = group;
    c.addr.row = row;
    c.mode = mode;
    return c;
}

std::vector<Violation>
replay(const Geometry &geom, const TimingParams &timing,
       const std::vector<Command> &cmds)
{
    ProtocolChecker pc(geom, timing);
    for (const Command &c : cmds)
        pc.observe(c);
    return pc.violations();
}

bool
flags(const std::vector<Violation> &vs, const std::string &constraint)
{
    for (const Violation &v : vs) {
        if (v.constraint == constraint)
            return true;
    }
    return false;
}

TEST(SpecRuleTable, GoldenDdr4)
{
    EXPECT_EQ(describeRuleTable(ddr4Timing()),
              "PRE->ACT bank any gap=17 tRP\n"
              "ACT->ACT bank any gap=56 tRC\n"
              "ACT->PRE bank any gap=39 tRAS\n"
              "RD->PRE bank any gap=9 tRTP\n"
              "WR->PRE bank any gap=34 tWR\n"
              "ACT->RD bank any gap=17 tRCD\n"
              "ACT->WR bank any gap=17 tRCD\n"
              "ACT->ACT rank any gap=4 tRRD_S\n"
              "ACT->ACT group any gap=6 tRRD_L\n"
              "RD->RD rank any gap=4 tCCD_S\n"
              "RD->WR rank any gap=4 tCCD_S\n"
              "WR->RD rank any gap=4 tCCD_S\n"
              "WR->WR rank any gap=4 tCCD_S\n"
              "RD->RD group any gap=6 tCCD_L\n"
              "RD->WR group any gap=6 tCCD_L\n"
              "WR->RD group any gap=6 tCCD_L\n"
              "WR->WR group any gap=6 tCCD_L\n"
              "WR->RD rank any gap=19 tWTR_S\n"
              "WR->RD group any gap=25 tWTR_L\n"
              "MSW->RD rank any gap=2 tRTR(mode)\n"
              "MSW->WR rank any gap=2 tRTR(mode)\n"
              "MSW->MSW rank any gap=2 tRTR(mode)\n"
              "RD->MSW rank any gap=1 mode-state\n"
              "WR->MSW rank any gap=1 mode-state\n"
              "REF->REF rank any gap=420 tRFC\n"
              "REF->ACT rank any gap=420 tRFC\n"
              "REF->RD rank any gap=420 tRFC\n"
              "REF->WR rank any gap=420 tRFC\n"
              "REF->MSW rank any gap=420 tRFC\n"
              "RD->REF rank any gap=1 tRFC\n"
              "WR->REF rank any gap=1 tRFC\n"
              "MSW->REF rank any gap=1 tRFC\n"
              "PRE->REF rank any gap=17 tRP\n"
              "RD->RD channel same gap=4 bus-overlap\n"
              "RD->RD channel diff gap=6 tRTR(bus)\n"
              "RD->WR channel same gap=9 bus-overlap\n"
              "RD->WR channel same gap=11 rd-wr-turnaround\n"
              "RD->WR channel diff gap=11 tRTR(bus)\n"
              "WR->RD channel diff gap=1 tRTR(bus)\n"
              "WR->WR channel same gap=4 bus-overlap\n"
              "WR->WR channel diff gap=6 tRTR(bus)\n"
              "# tFAW: 5th ACT >= oldest-of-last-4-ACTs + 26 "
              "(rank window)\n"
              "# state: ACT needs bank closed; PRE needs bank open; "
              "RD/WR need open row and matching mode; REF needs all "
              "banks in rank closed\n"
              "# refresh: k-th REF due by (k+9)*9360 "
              "(tREFI, 8 postponements)\n");
}

TEST(SpecRuleTable, GoldenRram)
{
    EXPECT_EQ(describeRuleTable(rramTiming()),
              "PRE->ACT bank any gap=1 tRP\n"
              "ACT->ACT bank any gap=7 tRC\n"
              "ACT->PRE bank any gap=6 tRAS\n"
              "RD->PRE bank any gap=9 tRTP\n"
              "WR->PRE bank any gap=136 tWR\n"
              "ACT->RD bank any gap=35 tRCD\n"
              "ACT->WR bank any gap=35 tRCD\n"
              "ACT->ACT rank any gap=4 tRRD_S\n"
              "ACT->ACT group any gap=6 tRRD_L\n"
              "RD->RD rank any gap=4 tCCD_S\n"
              "RD->WR rank any gap=4 tCCD_S\n"
              "WR->RD rank any gap=4 tCCD_S\n"
              "WR->WR rank any gap=4 tCCD_S\n"
              "RD->RD group any gap=6 tCCD_L\n"
              "RD->WR group any gap=6 tCCD_L\n"
              "WR->RD group any gap=6 tCCD_L\n"
              "WR->WR group any gap=6 tCCD_L\n"
              "WR->RD rank any gap=28 tWTR_S\n"
              "WR->RD group any gap=40 tWTR_L\n"
              "MSW->RD rank any gap=2 tRTR(mode)\n"
              "MSW->WR rank any gap=2 tRTR(mode)\n"
              "MSW->MSW rank any gap=2 tRTR(mode)\n"
              "RD->MSW rank any gap=1 mode-state\n"
              "WR->MSW rank any gap=1 mode-state\n"
              "RD->RD channel same gap=4 bus-overlap\n"
              "RD->RD channel diff gap=6 tRTR(bus)\n"
              "RD->WR channel same gap=9 bus-overlap\n"
              "RD->WR channel same gap=11 rd-wr-turnaround\n"
              "RD->WR channel diff gap=11 tRTR(bus)\n"
              "WR->RD channel diff gap=1 tRTR(bus)\n"
              "WR->WR channel same gap=4 bus-overlap\n"
              "WR->WR channel diff gap=6 tRTR(bus)\n"
              "# tFAW: 5th ACT >= oldest-of-last-4-ACTs + 26 "
              "(rank window)\n"
              "# state: ACT needs bank closed; PRE needs bank open; "
              "RD/WR need open row and matching mode; REF needs all "
              "banks in rank closed\n"
              "# refresh: REF illegal (tREFI=0)\n");
}

TEST(SpecModel, ActToCasBoundaryMatchesChecker)
{
    const Geometry geom = smallGeom();
    const TimingParams t = ddr4Timing();
    SpecModel m(geom, t);
    m.apply(cand(CmdKind::Act, 0), 100);

    const SpecModel::Cand rd = cand(CmdKind::Rd, 0);
    ASSERT_TRUE(m.stateLegal(rd));
    const Cycle e = m.earliestLegal(rd, m.lastIssue());
    EXPECT_EQ(e, 100 + t.tRCD);
    EXPECT_EQ(m.bindingRules(rd, e),
              std::vector<std::string>{"tRCD"});
    EXPECT_TRUE(m.legalAt(rd, e));
    EXPECT_FALSE(m.legalAt(rd, e - 1));

    const std::vector<Command> ok = {cmdAt(CmdKind::Act, 100, 0),
                                     cmdAt(CmdKind::Rd, e, 0)};
    EXPECT_TRUE(replay(geom, t, ok).empty());
    const std::vector<Command> bad = {cmdAt(CmdKind::Act, 100, 0),
                                      cmdAt(CmdKind::Rd, e - 1, 0)};
    EXPECT_TRUE(flags(replay(geom, t, bad), "tRCD"));
}

TEST(SpecModel, WriteRecoveryFoldsDataOffset)
{
    const Geometry geom = smallGeom();
    const TimingParams t = ddr4Timing();
    SpecModel m(geom, t);
    m.apply(cand(CmdKind::Act, 0), 0);
    m.apply(cand(CmdKind::Wr, 0), t.tRCD);

    const SpecModel::Cand pre = cand(CmdKind::Pre, 0);
    const Cycle e = m.earliestLegal(pre, m.lastIssue());
    // tWR counts from write-data end: issue + CWL + tBL + tWR.
    EXPECT_EQ(e, t.tRCD + t.cwl + t.tBL + t.tWR);
    EXPECT_EQ(m.bindingRules(pre, e),
              std::vector<std::string>{"tWR"});

    const std::vector<Command> ok = {cmdAt(CmdKind::Act, 0, 0),
                                     cmdAt(CmdKind::Wr, t.tRCD, 0),
                                     cmdAt(CmdKind::Pre, e, 0)};
    EXPECT_TRUE(replay(geom, t, ok).empty());
    const std::vector<Command> bad = {cmdAt(CmdKind::Act, 0, 0),
                                      cmdAt(CmdKind::Wr, t.tRCD, 0),
                                      cmdAt(CmdKind::Pre, e - 1, 0)};
    EXPECT_TRUE(flags(replay(geom, t, bad), "tWR"));
}

TEST(SpecModel, TfawWindowBindsOnFifthAct)
{
    // Five banks on one rank so the 5th ACT is limited by the window
    // (with four banks, recycling a bank makes tRP dominate).
    const Geometry geom = smallGeom(1, 5, 1);
    const TimingParams t = ddr4Timing();
    SpecModel m(geom, t);
    std::vector<Command> cmds;
    for (unsigned i = 0; i < 4; ++i) {
        const Cycle at = i * t.tRRD_S;
        m.apply(cand(CmdKind::Act, 0, i), at);
        cmds.push_back(cmdAt(CmdKind::Act, at, 0, i));
    }
    const SpecModel::Cand fifth = cand(CmdKind::Act, 0, 4);
    const Cycle e = m.earliestLegal(fifth, m.lastIssue());
    EXPECT_EQ(e, t.tFAW); // Window opened at cycle 0.
    EXPECT_EQ(m.bindingRules(fifth, e),
              std::vector<std::string>{"tFAW"});

    cmds.push_back(cmdAt(CmdKind::Act, e, 0, 4));
    EXPECT_TRUE(replay(geom, t, cmds).empty());
    cmds.back().at = e - 1;
    EXPECT_TRUE(flags(replay(geom, t, cmds), "tFAW"));
}

TEST(SpecModel, RefreshBlackoutAndTiedSwitch)
{
    const Geometry geom = smallGeom();
    const TimingParams t = ddr4Timing();
    SpecModel m(geom, t);
    m.apply(cand(CmdKind::ModeSwitch, 0, 0, 0, AccessMode::Stride), 10);

    // REF must serialize strictly after the switch: an equal-time REF
    // sorts first and retroactively swallows the switch.
    const SpecModel::Cand ref = cand(CmdKind::Ref, 0);
    EXPECT_EQ(m.earliestLegal(ref, m.lastIssue()), 11);
    const std::vector<Command> tied = {
        cmdAt(CmdKind::ModeSwitch, 10, 0, 0, 0, AccessMode::Stride),
        cmdAt(CmdKind::Ref, 10, 0)};
    EXPECT_TRUE(flags(replay(geom, t, tied), "tRFC"));

    m.apply(ref, 11);
    const SpecModel::Cand act = cand(CmdKind::Act, 0);
    const Cycle e = m.earliestLegal(act, m.lastIssue());
    EXPECT_EQ(e, 11 + t.tRFC);
    EXPECT_EQ(m.bindingRules(act, e),
              std::vector<std::string>{"tRFC"});
}

TEST(SpecModel, StateRules)
{
    const Geometry geom = smallGeom();
    SpecModel m(geom, ddr4Timing());
    EXPECT_FALSE(m.stateLegal(cand(CmdKind::Pre, 0))); // Closed bank.
    EXPECT_TRUE(m.stateLegal(cand(CmdKind::Ref, 0)));
    m.apply(cand(CmdKind::Act, 0, 0, 7), 0);
    EXPECT_FALSE(m.stateLegal(cand(CmdKind::Act, 0))); // Open bank.
    EXPECT_FALSE(m.stateLegal(cand(CmdKind::Ref, 0))); // Open bank.
    EXPECT_FALSE(m.stateLegal(cand(CmdKind::Rd, 0, 0, 3))); // Row.
    EXPECT_FALSE(m.stateLegal(
        cand(CmdKind::Rd, 0, 0, 7, AccessMode::Stride))); // Mode.
    EXPECT_TRUE(m.stateLegal(cand(CmdKind::Rd, 0, 0, 7)));

    SpecModel rram(geom, rramTiming());
    EXPECT_FALSE(rram.stateLegal(cand(CmdKind::Ref, 0))); // tREFI=0.
}

TEST(SpecModel, LegalityIsUpwardClosed)
{
    const Geometry geom = smallGeom();
    const TimingParams t = ddr4Timing();
    SpecModel m(geom, t);
    m.apply(cand(CmdKind::Act, 0), 0);
    m.apply(cand(CmdKind::Rd, 0), t.tRCD);
    for (CmdKind kind : {CmdKind::Pre, CmdKind::Rd}) {
        const SpecModel::Cand c = cand(kind, 0);
        const Cycle e = m.earliestLegal(c, m.lastIssue());
        for (Cycle delta = 0; delta < 4; ++delta)
            EXPECT_TRUE(m.legalAt(c, e + delta));
    }
}

TEST(SpecModel, RefDeadlinePostponesEightIntervals)
{
    const TimingParams t = ddr4Timing();
    SpecModel m(smallGeom(), t);
    EXPECT_EQ(m.refDeadline(0, 0), Cycle{9} * t.tREFI);
    m.apply(cand(CmdKind::Ref, 0), 100);
    EXPECT_EQ(m.refDeadline(0, 0), Cycle{10} * t.tREFI);
}

TEST(SpecVerifier, ExhaustiveAgreementDdr4)
{
    VerifyOptions opt;
    opt.depth = 2;
    opt.maxNodes = 5000;
    const VerifyStats stats =
        verifySpecAgainstChecker(smallGeom(), ddr4Timing(), opt);
    EXPECT_TRUE(stats.ok()) << stats.summary()
                            << (stats.failures.empty()
                                    ? ""
                                    : "\n" + stats.failures.front());
    EXPECT_TRUE(stats.exhausted);
    EXPECT_GT(stats.boundaryProbes, 0u);
    EXPECT_GT(stats.stateProbes, 0u);
    EXPECT_GT(stats.monotoneProbes, 0u);
}

TEST(SpecVerifier, ExhaustiveAgreementRram)
{
    VerifyOptions opt;
    opt.depth = 2;
    opt.maxNodes = 5000;
    const VerifyStats stats =
        verifySpecAgainstChecker(smallGeom(), rramTiming(), opt);
    EXPECT_TRUE(stats.ok()) << stats.summary()
                            << (stats.failures.empty()
                                    ? ""
                                    : "\n" + stats.failures.front());
    EXPECT_TRUE(stats.exhausted);
}

/** A design whose area overhead derates its technology's timings. */
struct DeratedPreset
{
    MemTech tech;
    DesignKind design;
};

class DeratedSpecVerifier : public ::testing::TestWithParam<DeratedPreset>
{
};

TEST_P(DeratedSpecVerifier, ExhaustiveAgreement)
{
    // The Device runs whatever table the derated timings give, so each
    // derating the designs use must pass the same proof as the presets.
    const DeratedPreset p = GetParam();
    const TimingParams timing =
        timingFor(p.tech).derated(makeDesign(p.design).areaOverhead);
    VerifyOptions opt;
    opt.depth = 2;
    opt.maxNodes = 5000;
    const VerifyStats stats =
        verifySpecAgainstChecker(smallGeom(), timing, opt);
    EXPECT_TRUE(stats.ok()) << stats.summary()
                            << (stats.failures.empty()
                                    ? ""
                                    : "\n" + stats.failures.front());
    EXPECT_TRUE(stats.exhausted);
}

// RC-NVM-bit, RC-NVM-wd and SAM-sub derate by 0.15, 0.33 and 0.0721.
// SAM-en's 0.0071 moves only RRAM's tWR (120 -> 121); every other
// design's derating rounds to the plain preset.
INSTANTIATE_TEST_SUITE_P(
    DesignDeratings, DeratedSpecVerifier,
    ::testing::Values(DeratedPreset{MemTech::DRAM, DesignKind::RcNvmBit},
                      DeratedPreset{MemTech::DRAM, DesignKind::RcNvmWord},
                      DeratedPreset{MemTech::DRAM, DesignKind::SamSub},
                      DeratedPreset{MemTech::RRAM, DesignKind::RcNvmBit},
                      DeratedPreset{MemTech::RRAM, DesignKind::RcNvmWord},
                      DeratedPreset{MemTech::RRAM, DesignKind::SamSub},
                      DeratedPreset{MemTech::RRAM, DesignKind::SamEn}),
    [](const ::testing::TestParamInfo<DeratedPreset> &info) {
        std::string name =
            std::string(info.param.tech == MemTech::DRAM ? "ddr4_"
                                                         : "rram_") +
            designName(info.param.design);
        std::erase(name, '-');
        return name;
    });

TEST(SpecVerifier, DetectsInjectedSpecLooseness)
{
    // Sanity-check the harness itself: loosen one parameter on the
    // spec side only and the cross-examination must notice.
    VerifyOptions opt;
    opt.depth = 1;
    opt.maxNodes = 200;
    TimingParams loose = ddr4Timing();
    loose.tRCD = 16; // Spec table built from this...
    const Geometry geom = smallGeom();
    // ...but replay the probes against the real checker by hand.
    SpecModel m(geom, loose);
    m.apply(cand(CmdKind::Act, 0), 0);
    const Cycle e =
        m.earliestLegal(cand(CmdKind::Rd, 0), m.lastIssue());
    EXPECT_EQ(e, 16);
    const std::vector<Command> probe = {cmdAt(CmdKind::Act, 0, 0),
                                        cmdAt(CmdKind::Rd, e, 0)};
    EXPECT_TRUE(flags(replay(geom, ddr4Timing(), probe), "tRCD"));
}

} // namespace
} // namespace sam
