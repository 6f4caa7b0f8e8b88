/**
 * @file
 * Figure 13 reproduction: memory power (mW, split into
 * Background / RD-WR / ACT like the paper's stacked bars) and
 * normalized energy efficiency, for the four query categories:
 * read-type Q (Q1-Q10), write-type Q (Q11-Q12), read-type Qs
 * (Qs1-Qs4), write-type Qs (Qs5-Qs6).
 *
 * The grid is samcampaign's fig13 campaign (src/runner/figures.hh);
 * the campaign pool executes its runs in parallel and the category
 * aggregation happens on the collected per-run power breakdowns.
 *
 * Paper reference points: SAM-IO read-Q power ~1.8x baseline but
 * energy efficiency 2.4x; SAM-en power near baseline; NVM designs show
 * low read power (no background) but high write power; on Qs all
 * DRAM-based designs look like the baseline (regular mode).
 */

#include "bench/bench_common.hh"

int
main()
{
    using namespace sam;
    using namespace sam::bench;
    setQuietLogging(true);

    printHeader("Figure 13",
                "Power (mW) and energy efficiency (normalized to "
                "row-store) by query category");

    FigureCampaign camp =
        buildFigure("fig13", scaleMode(), /*verify=*/false);

    return runBench(camp, /*verified=*/false, [&] {
        for (const PowerCategory &cat : powerCategories()) {
            std::cout << "-- " << cat.title << " --\n";
            TablePrinter tp;
            tp.header({"design", "background mW", "RD/WR mW", "ACT mW",
                       "total mW", "energy eff."});
            const PowerBreakdown base =
                categoryPower(camp, DesignKind::Baseline, cat.queries);
            tp.row({"baseline", fmtNum(base.backgroundPowerMw(), 1),
                    fmtNum(base.rdwrPowerMw(), 1),
                    fmtNum(base.actPowerMw(), 1),
                    fmtNum(base.totalPowerMw(), 1), fmtNum(1.0)});
            for (DesignKind d : powerDesigns()) {
                const PowerBreakdown p =
                    categoryPower(camp, d, cat.queries);
                tp.row({designName(d), fmtNum(p.backgroundPowerMw(), 1),
                        fmtNum(p.rdwrPowerMw(), 1),
                        fmtNum(p.actPowerMw(), 1),
                        fmtNum(p.totalPowerMw(), 1),
                        fmtNum(energyEfficiency(base, p))});
            }
            tp.print(std::cout);
            std::cout << "\n";
        }
    });
}
