/**
 * @file
 * Figure 14(b) reproduction: gmean speedup of RC-NVM-wd, GS-DRAM-ecc,
 * and SAM-en on the Q queries under different strided granularities:
 * 16-bit (SSC-32, 32B chunks, G=2), 8-bit (SSC, 16B chunks, G=4), and
 * 4-bit (SSC-DSD, 8B chunks, G=8, the default).
 *
 * Each (scheme x design x query) run -- including the per-scheme
 * baselines -- is independent and fans out across the campaign pool.
 *
 * Paper reference: finer granularity improves bandwidth utilization
 * and speedup for every design; SAM-en leads at every granularity.
 */

#include "bench/bench_common.hh"

int
main()
{
    using namespace sam;
    using namespace sam::bench;
    setQuietLogging(true);

    printHeader("Figure 14(b)",
                "Gmean speedup on Q queries vs strided granularity "
                "(chipkill symbol size)");

    const SimConfig base_cfg = campaignConfig(scaleMode());
    const auto queries = benchmarkQQueries();
    const std::vector<DesignKind> designs = {
        DesignKind::RcNvmWord, DesignKind::GsDramEcc, DesignKind::SamEn};
    const std::vector<EccScheme> schemes = {
        EccScheme::Ssc32, EccScheme::Ssc, EccScheme::SscDsd};

    auto run_id = [](EccScheme ecc, const std::string &design,
                     const Query &q) {
        return eccSchemeName(ecc) + "/" + design + "/" + q.name;
    };

    FigureCampaign camp;
    camp.name = "fig14b";
    for (EccScheme ecc : schemes) {
        for (const Query &q : queries) {
            SimConfig bcfg = base_cfg;
            bcfg.ecc = ecc;
            bcfg.design = DesignKind::Baseline;
            camp.add(run_id(ecc, "baseline", q), bcfg, q, false);
            for (DesignKind d : designs) {
                SimConfig cfg = base_cfg;
                cfg.ecc = ecc;
                cfg.design = d;
                camp.add(run_id(ecc, designName(d), q), cfg, q, false);
            }
        }
    }

    return runBench(camp, /*verified=*/false, [&] {
        TablePrinter tp;
        tp.header({"granularity", "chunk", "G", "RC-NVM-wd", "GS-DRAM-ecc",
                   "SAM-en"});
        for (EccScheme ecc : schemes) {
            std::vector<std::string> row{
                std::to_string(strideGranularityBits(ecc)) + "-bit (" +
                    eccSchemeName(ecc) + ")",
                std::to_string(strideUnitBytes(ecc)) + "B",
                std::to_string(gatherFactor(ecc))};
            for (DesignKind d : designs) {
                std::vector<double> sp;
                for (const Query &q : queries) {
                    sp.push_back(camp.speedup(run_id(ecc, designName(d), q),
                                              run_id(ecc, "baseline", q)));
                }
                row.push_back(fmtNum(geometricMean(sp)));
            }
            tp.row(row);
        }
        tp.print(std::cout);
    });
}
