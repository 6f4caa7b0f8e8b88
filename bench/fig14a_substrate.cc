/**
 * @file
 * Figure 14(a) reproduction: performance of the RC-NVM and SAM designs
 * when both are built on the NVM (RRAM) substrate vs the DRAM
 * substrate; gmean speedup over all queries (Q and Qs).
 *
 * The (design x substrate x query) grid plus the DRAM baseline runs
 * fan out across the SAM_JOBS campaign pool.
 *
 * Paper reference: RC-NVM-wd and SAM-sub are nearly equal on the same
 * substrate; RC-NVM always falls behind SAM-IO / SAM-en regardless of
 * substrate; DRAM beats RRAM for every design (writes especially).
 */

#include "bench/bench_common.hh"

int
main()
{
    using namespace sam;
    using namespace sam::bench;
    setQuietLogging(true);

    printHeader("Figure 14(a)",
                "Gmean speedup of RC-NVM / SAM designs on NVM vs DRAM "
                "substrates (all queries, normalized to row-store "
                "DRAM)");

    const SimConfig base_cfg = campaignConfig(scaleMode());

    auto all_queries = benchmarkQQueries();
    const auto qs = benchmarkQsQueries();
    all_queries.insert(all_queries.end(), qs.begin(), qs.end());

    const std::vector<DesignKind> designs = {
        DesignKind::RcNvmWord, DesignKind::SamSub, DesignKind::SamIo,
        DesignKind::SamEn};
    const std::vector<MemTech> techs = {MemTech::RRAM, MemTech::DRAM};

    FigureCampaign camp;
    camp.name = "fig14a";
    for (const Query &q : all_queries) {
        // Baseline: commodity DRAM row-store (no substrate override).
        camp.add(DesignKind::Baseline, base_cfg, q, false);
        for (DesignKind d : designs) {
            for (MemTech tech : techs) {
                SimConfig cfg = base_cfg;
                cfg.design = d;
                cfg.overrideTech = true;
                cfg.tech = tech;
                camp.add(designName(d) + "/" + memTechName(tech) + "/" +
                             q.name,
                         cfg, q, false);
            }
        }
    }

    return runBench(camp, /*verified=*/false, [&] {
        TablePrinter tp;
        tp.header({"design", "NVM substrate", "DRAM substrate"});
        for (DesignKind d : designs) {
            std::vector<std::string> row{designName(d)};
            for (MemTech tech : techs) {
                std::vector<double> sp;
                for (const Query &q : all_queries) {
                    sp.push_back(camp.speedup(
                        designName(d) + "/" + memTechName(tech) + "/" +
                            q.name,
                        "baseline/" + q.name));
                }
                row.push_back(fmtNum(geometricMean(sp)));
            }
            tp.row(row);
        }
        tp.print(std::cout);
    });
}
