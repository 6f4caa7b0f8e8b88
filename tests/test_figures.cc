/**
 * @file
 * Tests for the figure-campaign module: the scale table, and the
 * paper's Figure 12 shape claims (DESIGN.md §3) asserted on the quick
 * fig12 campaign's BENCH document.
 */

#include <algorithm>
#include <gtest/gtest.h>

#include "src/runner/figures.hh"

namespace sam {
namespace {

TEST(FigureScaleTest, ScaleTableHasTheDocumentedSizes)
{
    const SimConfig quick = campaignConfig(Scale::Quick);
    EXPECT_EQ(quick.taRecords, 4096u);
    EXPECT_EQ(quick.tbRecords, 8192u);
    const SimConfig full = campaignConfig(Scale::Full);
    EXPECT_EQ(full.taRecords, 16384u);
    EXPECT_EQ(full.tbRecords, 65536u);
    const SimConfig paper = campaignConfig(Scale::Paper);
    EXPECT_EQ(paper.taRecords, 10'000'000u);
    EXPECT_EQ(paper.tbRecords, 10'000'000u);
    // Campaign runs carry latency histograms, not the stats text.
    EXPECT_TRUE(full.telemetry.enabled);
    EXPECT_FALSE(full.collectStatsText);

    for (Scale s : {Scale::Quick, Scale::Full, Scale::Paper}) {
        Scale parsed = s == Scale::Full ? Scale::Quick : Scale::Full;
        EXPECT_TRUE(parseScale(scaleName(s), parsed)) << scaleName(s);
        EXPECT_EQ(parsed, s);
    }
    Scale untouched = Scale::Paper;
    EXPECT_FALSE(parseScale("huge", untouched));
    EXPECT_EQ(untouched, Scale::Paper);
}

TEST(FigureScaleTest, GridsHaveTheDocumentedRunCounts)
{
    EXPECT_EQ(buildFigure("fig12", Scale::Quick, false).specs.size(),
              162u);
    EXPECT_EQ(buildFigure("fig13", Scale::Quick, false).specs.size(),
              144u);
    EXPECT_EQ(buildFigure("fig15", Scale::Quick, false).specs.size(),
              290u);
}

/**
 * DESIGN.md §3's Figure 12 shapes that hold at quick scale, read from
 * the `derived` block of the campaign's BENCH document. The comments
 * quote the quick-scale values. Two §3 claims do not hold at quick
 * scale and are left out (ROADMAP item 2): RC-NVM-bit being the
 * weakest accelerator, and the 30-58% Qs loss band.
 */
TEST(FigureClaimsTest, Fig12ShapesHoldAtQuickScale)
{
    FigureCampaign fig = buildFigure("fig12", Scale::Quick, true);
    SupervisorConfig cfg;
    cfg.maxAttempts = 1;
    Supervisor supervisor(cfg);
    fig.report = supervisor.run(fig.specs);
    ASSERT_TRUE(fig.report.allDone()) << failureLines(fig);

    const Json doc =
        benchDocument(fig, supervisor.jobs(), Scale::Quick, true, 0.0);
    const Json *derived = doc.find("derived");
    ASSERT_NE(derived, nullptr);
    const auto gmean = [&](const char *block, DesignKind d) {
        const Json *v = derived->find(block)->find(designName(d));
        EXPECT_NE(v, nullptr) << block << " " << designName(d);
        return v != nullptr ? v->asDouble() : 0.0;
    };
    const auto q = [&](DesignKind d) { return gmean("gmean_q", d); };
    const auto qs = [&](DesignKind d) { return gmean("gmean_qs", d); };
    // The derived block and the printed tables share one gmean.
    EXPECT_EQ(q(DesignKind::SamEn),
              fig12Gmean(fig, DesignKind::SamEn, benchmarkQQueries()));

    // gmean(Q): SAM-en 4.165 >= SAM-IO 4.164 > max(SAM-sub 3.080,
    // RC-NVM-wd 3.085).
    EXPECT_GE(q(DesignKind::SamEn), q(DesignKind::SamIo));
    EXPECT_GT(q(DesignKind::SamIo),
              std::max(q(DesignKind::SamSub), q(DesignKind::RcNvmWord)));
    // GS-DRAM stays within 5% of SAM-en (0.996x).
    EXPECT_NEAR(q(DesignKind::GsDram) / q(DesignKind::SamEn), 1.0, 0.05);
    // GS-DRAM-ecc is distinctly lower: at most 0.7x SAM-en (0.548x).
    EXPECT_LE(q(DesignKind::GsDramEcc) / q(DesignKind::SamEn), 0.7);
    // On Qs, SAM-IO and SAM-en lose under 1% (both 1.000).
    EXPECT_GE(qs(DesignKind::SamIo), 0.99);
    EXPECT_GE(qs(DesignKind::SamEn), 0.99);
    // On Qs, the other accelerators lose at least 30% (all <= 0.616).
    for (DesignKind d : {DesignKind::SamSub, DesignKind::RcNvmBit,
                         DesignKind::RcNvmWord, DesignKind::GsDramEcc})
        EXPECT_LE(qs(d), 0.7) << designName(d);
}

} // namespace
} // namespace sam
