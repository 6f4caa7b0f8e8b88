/**
 * @file
 * Integration tests: the full system simulator end to end. Every
 * benchmark query on every design must (a) produce functionally exact
 * results (checked against the pure reference executor -- the data
 * really flowed through layouts, gathers, codewords, and caches), and
 * (b) land in the paper's qualitative performance ordering. Also
 * covers chipkill failure injection during live queries and run
 * determinism.
 */

#include <gtest/gtest.h>

#include "src/core/session.hh"
#include "src/imdb/executor.hh"
#include "src/imdb/query.hh"
#include "src/sim/system.hh"

namespace sam {
namespace {

SimConfig
smallConfig()
{
    SimConfig cfg;
    cfg.taRecords = 1024;
    cfg.tbRecords = 2048;
    return cfg;
}

std::string
ident(const std::string &s)
{
    std::string out = s;
    std::erase(out, '-');
    return out;
}

// --------------------------------------------------------------------
// Functional exactness on every design x every query
// --------------------------------------------------------------------

class DesignQueryTest : public ::testing::TestWithParam<DesignKind>
{
};

TEST_P(DesignQueryTest, AllBenchmarkQueriesMatchReference)
{
    SimConfig cfg = smallConfig();
    cfg.design = GetParam();
    System sys(cfg);
    auto queries = benchmarkQQueries();
    const auto qs = benchmarkQsQueries();
    queries.insert(queries.end(), qs.begin(), qs.end());
    for (const auto &q : queries) {
        const RunStats r = sys.runQuery(q);
        const QueryResult expect =
            referenceResult(q, sys.taSchema(), sys.tbSchema());
        EXPECT_TRUE(r.result == expect)
            << designName(GetParam()) << " " << q.name << ": rows "
            << r.result.rows << "/" << expect.rows << " agg "
            << r.result.aggregate << "/" << expect.aggregate
            << " cksum " << r.result.checksum << "/" << expect.checksum;
        EXPECT_GT(r.cycles, 0u) << q.name;
        EXPECT_GT(r.power.totalPowerMw(), 0.0) << q.name;
    }
}

TEST_P(DesignQueryTest, ArithAndAggrMatchReference)
{
    SimConfig cfg = smallConfig();
    cfg.design = GetParam();
    System sys(cfg);
    for (const Query &q :
         {arithQuery(8, 0.3, cfg.taFields),
          aggrQuery(16, 0.6, cfg.taFields)}) {
        const RunStats r = sys.runQuery(q);
        const QueryResult expect =
            referenceResult(q, sys.taSchema(), sys.tbSchema());
        EXPECT_TRUE(r.result == expect)
            << designName(GetParam()) << " " << q.name;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllDesigns, DesignQueryTest,
    ::testing::Values(DesignKind::Baseline, DesignKind::RcNvmBit,
                      DesignKind::RcNvmWord, DesignKind::GsDram,
                      DesignKind::GsDramEcc, DesignKind::SamSub,
                      DesignKind::SamIo, DesignKind::SamEn,
                      DesignKind::Ideal),
    [](const auto &info) { return ident(designName(info.param)); });

// SAM-sub and ideal run the joins late-materialized, keeping one match
// list per core: more cores than any fixed bound must still be exact.
TEST(SystemCores, LateMaterializedJoinsRunOnSeventeenCores)
{
    for (DesignKind design : {DesignKind::SamSub, DesignKind::Ideal}) {
        SimConfig cfg = smallConfig();
        cfg.design = design;
        cfg.cores = 17;
        System sys(cfg);
        for (const Query &q : benchmarkQQueries()) {
            if (q.kind != QueryKind::Join)
                continue;
            const RunStats r = sys.runQuery(q);
            EXPECT_TRUE(r.result ==
                        referenceResult(q, sys.taSchema(), sys.tbSchema()))
                << designName(design) << " " << q.name;
        }
    }
}

// --------------------------------------------------------------------
// Paper-shape properties
// --------------------------------------------------------------------

class ShapeTest : public ::testing::Test
{
  protected:
    static Session &
    session()
    {
        static Session s([] {
            SimConfig cfg;
            cfg.taRecords = 4096;
            cfg.tbRecords = 4096;
            return cfg;
        }());
        return s;
    }
};

TEST_F(ShapeTest, SamAcceleratesColumnScans)
{
    const Query q1 = benchmarkQQueries()[0];
    const auto c = session().compare(DesignKind::SamEn, q1);
    EXPECT_GT(c.speedup, 2.0);
    EXPECT_GT(c.design.strideReads, 0u);
    EXPECT_EQ(c.baseline.strideReads, 0u);
}

TEST_F(ShapeTest, SamDoesNotDegradeRowScans)
{
    // Paper: < 1% degradation on Qs queries for SAM-IO / SAM-en.
    for (const auto &q : benchmarkQsQueries()) {
        const auto c = session().compare(DesignKind::SamEn, q);
        EXPECT_GT(c.speedup, 0.95) << q.name;
        EXPECT_EQ(c.design.strideReads, 0u) << q.name; // regular mode
    }
}

TEST_F(ShapeTest, ColumnSubarrayDesignsDegradeRowScans)
{
    // Paper: SAM-sub / RC-NVM lose 30-58% on Qs queries.
    const Query qs3 = benchmarkQsQueries()[2];
    for (DesignKind d : {DesignKind::SamSub, DesignKind::RcNvmWord}) {
        const auto c = session().compare(d, qs3);
        EXPECT_LT(c.speedup, 0.9) << designName(d);
        EXPECT_GT(c.speedup, 0.2) << designName(d);
    }
}

TEST_F(ShapeTest, GmeanOrderingMatchesFigure12)
{
    std::map<DesignKind, double> gmean;
    for (DesignKind d :
         {DesignKind::RcNvmBit, DesignKind::RcNvmWord,
          DesignKind::GsDramEcc, DesignKind::SamSub, DesignKind::SamIo,
          DesignKind::SamEn}) {
        std::vector<double> sp;
        for (const auto &q : benchmarkQQueries()) {
            if (q.kind == QueryKind::Join)
                continue; // joins are noisy at test scale
            sp.push_back(session().compare(d, q).speedup);
        }
        gmean[d] = geometricMean(sp);
    }
    // SAM-IO/SAM-en lead; SAM-sub beats RC-NVM-wd; GS-DRAM-ecc and
    // RC-NVM-bit trail (Figure 12 discussion).
    EXPECT_GE(gmean[DesignKind::SamEn], gmean[DesignKind::SamSub]);
    EXPECT_GE(gmean[DesignKind::SamIo], gmean[DesignKind::SamSub]);
    EXPECT_GE(gmean[DesignKind::SamSub], gmean[DesignKind::RcNvmWord]);
    EXPECT_GT(gmean[DesignKind::RcNvmWord],
              gmean[DesignKind::RcNvmBit]);
    EXPECT_GT(gmean[DesignKind::SamEn], gmean[DesignKind::GsDramEcc]);
    EXPECT_GT(gmean[DesignKind::SamEn], 2.0);
}

TEST_F(ShapeTest, SamIoDrawsMoreStridePowerThanSamEn)
{
    // Figure 13: SAM-IO's wide internal fetch raises read power; SAM-en
    // avoids it via fine-grained activation.
    const Query q5 = benchmarkQQueries()[4];
    const auto io = session().run(DesignKind::SamIo, q5);
    const auto en = session().run(DesignKind::SamEn, q5);
    EXPECT_GT(io.power.rdwrPowerMw(), en.power.rdwrPowerMw() * 1.5);
}

TEST_F(ShapeTest, EnergyEfficiencyImprovesWithSam)
{
    const Query q3 = benchmarkQQueries()[2];
    const auto c = session().compare(DesignKind::SamEn, q3);
    EXPECT_GT(c.energyEfficiency, 1.5);
}

TEST_F(ShapeTest, ModeSwitchesAreRare)
{
    // Section 5.3: "the mode switch does not happen frequently".
    const Query q1 = benchmarkQQueries()[0];
    const auto r = session().run(DesignKind::SamEn, q1);
    EXPECT_LT(r.modeSwitches * 20, r.strideReads + 1);
}

TEST_F(ShapeTest, RramSubstrateSlowsWrites)
{
    // Figure 14(a) mechanism: the same design on RRAM pays on writes.
    SimConfig cfg;
    cfg.taRecords = 1024;
    cfg.tbRecords = 1024;
    cfg.design = DesignKind::SamEn;
    System dram_sys(cfg);
    cfg.overrideTech = true;
    cfg.tech = MemTech::RRAM;
    System rram_sys(cfg);
    const Query qs6 = benchmarkQsQueries()[5]; // insert-heavy
    const auto dram_run = dram_sys.runQuery(qs6);
    const auto rram_run = rram_sys.runQuery(qs6);
    EXPECT_GT(rram_run.cycles, dram_run.cycles);
}

// --------------------------------------------------------------------
// Reliability: chipkill during live queries
// --------------------------------------------------------------------

TEST(SystemReliability, ChipFailureDuringQueryIsCorrected)
{
    SimConfig cfg = smallConfig();
    cfg.design = DesignKind::SamEn; // SSC-DSD chipkill
    System sys(cfg);
    const Query q3 = benchmarkQQueries()[2];
    // Warm run materializes tables; then fail a chip and re-run.
    sys.runQuery(q3);
    sys.dataPath().failChip(5);
    const RunStats r = sys.runQuery(q3);
    EXPECT_TRUE(r.result ==
                referenceResult(q3, sys.taSchema(), sys.tbSchema()));
    EXPECT_GT(r.eccCorrectedLines, 0u);
    EXPECT_EQ(r.eccUncorrectable, 0u);
}

TEST(SystemReliability, GsDramHasNoProtection)
{
    SimConfig cfg = smallConfig();
    cfg.design = DesignKind::GsDram; // EccScheme::None
    System sys(cfg);
    const Query q3 = benchmarkQQueries()[2];
    sys.runQuery(q3);
    sys.dataPath().failChip(5);
    const RunStats r = sys.runQuery(q3);
    // The corrupted data flows straight into the query result.
    EXPECT_FALSE(r.result ==
                 referenceResult(q3, sys.taSchema(), sys.tbSchema()));
    EXPECT_EQ(r.eccCorrectedLines, 0u);
}

// --------------------------------------------------------------------
// Determinism and Session API
// --------------------------------------------------------------------

TEST(SystemDeterminism, IdenticalRunsProduceIdenticalCycles)
{
    const Query q1 = benchmarkQQueries()[0];
    SimConfig cfg = smallConfig();
    cfg.design = DesignKind::SamIo;
    System a(cfg);
    System b(cfg);
    const auto ra = a.runQuery(q1);
    const auto rb = b.runQuery(q1);
    EXPECT_EQ(ra.cycles, rb.cycles);
    EXPECT_EQ(ra.activates, rb.activates);
    EXPECT_TRUE(ra.result == rb.result);
}

TEST(SessionApi, CompareComputesPaperMetrics)
{
    Session session(smallConfig());
    const Query q1 = benchmarkQQueries()[0];
    const auto c = session.compare(DesignKind::SamEn, q1);
    EXPECT_NEAR(c.speedup,
                static_cast<double>(c.baseline.cycles) /
                    static_cast<double>(c.design.cycles),
                1e-9);
    EXPECT_GT(c.energyEfficiency, 0.0);
    EXPECT_NO_THROW(session.checkResult(q1, c.design));
}

TEST(SessionApi, SystemsAreCachedPerDesign)
{
    Session session(smallConfig());
    System &a = session.system(DesignKind::SamEn);
    System &b = session.system(DesignKind::SamEn);
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(a.spec().kind, DesignKind::SamEn);
}

TEST(SessionApi, GeometricMeanBasics)
{
    EXPECT_DOUBLE_EQ(geometricMean({4.0, 1.0}), 2.0);
    EXPECT_NEAR(geometricMean({2.0, 2.0, 2.0}), 2.0, 1e-12);
    EXPECT_THROW(geometricMean({}), std::logic_error);
    EXPECT_THROW(geometricMean({1.0, 0.0}), std::logic_error);
}

TEST(SystemConfig, GranularityChangesGatherFactor)
{
    SimConfig cfg = smallConfig();
    cfg.ecc = EccScheme::Ssc; // 8-bit granularity: G = 4
    cfg.design = DesignKind::SamEn;
    System sys(cfg);
    EXPECT_EQ(sys.strideUnit(), 16u);
    const Query q3 = benchmarkQQueries()[2];
    const auto r = sys.runQuery(q3);
    EXPECT_TRUE(r.result ==
                referenceResult(q3, sys.taSchema(), sys.tbSchema()));
}

} // namespace
} // namespace sam
