/**
 * @file
 * Figure 12 reproduction: speedup (normalized to the row-store
 * baseline) of every design on the Q1-Q12 (column-preferring) and
 * Qs1-Qs6 (row-preferring) benchmark queries, with geometric means.
 *
 * The grid is samcampaign's fig12 campaign (src/runner/figures.hh);
 * its independent (design x query) simulations fan out across the
 * SAM_JOBS campaign pool, and the table is printed from the collected
 * results, byte-identical for any jobs count.
 *
 * Paper reference points (gmean over Q / degradation on Qs):
 *   SAM-sub 3.8x / -30%, SAM-IO 4.1x / <1%, SAM-en 4.2x / <1%,
 *   GS-DRAM-ecc 2.7x / -41%, RC-NVM-bit 2.6x / -58%,
 *   RC-NVM-wd 3.4x / -46%.
 */

#include "bench/bench_common.hh"

int
main()
{
    using namespace sam;
    using namespace sam::bench;
    setQuietLogging(true);

    printHeader("Figure 12",
                "Speedup (normalized to row-store) of all designs on "
                "the Table 3 queries");

    FigureCampaign camp =
        buildFigure("fig12", scaleMode(), /*verify=*/true);

    auto print_block = [&](const std::vector<Query> &queries,
                           const std::string &gmean_label) {
        TablePrinter tp;
        std::vector<std::string> head{"query"};
        for (DesignKind d : figureDesigns())
            head.push_back(designName(d));
        tp.header(head);
        for (const Query &q : queries) {
            std::vector<std::string> row{q.name};
            for (DesignKind d : figureDesigns())
                row.push_back(fmtNum(fig12Speedup(camp, d, q)));
            tp.row(row);
        }
        tp.separator();
        std::vector<std::string> gm{gmean_label};
        for (DesignKind d : figureDesigns())
            gm.push_back(fmtNum(fig12Gmean(camp, d, queries)));
        tp.row(gm);
        tp.print(std::cout);
        std::cout << "\n";
    };

    return runBench(camp, /*verified=*/true, [&] {
        print_block(benchmarkQQueries(), "Gmean(Q)");
        print_block(benchmarkQsQueries(), "Gmean(Qs)");
        std::cout << "Every result above was verified against the pure "
                     "reference executor.\n";
    });
}
