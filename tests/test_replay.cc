/**
 * @file
 * Tests for the timing-replay machinery and cross-cutting system
 * properties: barrier epochs, MSHR limiting, stats plumbing
 * (StatGroup registration), chip I/O beat serialization equivalence,
 * and scale monotonicity.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "src/common/random.hh"
#include "src/dram/io_buffer.hh"
#include "src/imdb/query.hh"
#include "src/sim/system.hh"

namespace sam {
namespace {

// --------------------------------------------------------------------
// Stats plumbing
// --------------------------------------------------------------------

TEST(StatsPlumbing, DeviceStatsRegisterAndDump)
{
    Geometry geom;
    Device dev(geom, ddr4Timing());
    DeviceAccess acc;
    acc.addr.row = 3;
    dev.access(acc, 0);
    acc.addr.column = 1;
    dev.access(acc, 100);

    StatGroup group("device");
    dev.stats().registerIn(group);
    EXPECT_EQ(group.counterValue("activates"), 1u);
    EXPECT_EQ(group.counterValue("rowHits"), 1u);
    EXPECT_EQ(group.counterValue("reads"), 2u);

    std::ostringstream oss;
    group.dump(oss);
    EXPECT_NE(oss.str().find("device.activates"), std::string::npos);
    EXPECT_NE(oss.str().find("row activations"), std::string::npos);
}

TEST(StatsPlumbing, EccAndCacheStatsRegister)
{
    DataPath dp(EccScheme::Ssc);
    std::uint8_t line[kCachelineBytes];
    std::fill(line, line + kCachelineBytes, std::uint8_t{1});
    dp.writeLine(0x0, line);
    dp.readLineInto(0x0, line);
    StatGroup ecc_group("ecc");
    dp.stats().registerIn(ecc_group);
    EXPECT_EQ(ecc_group.counterValue("linesChecked"), 1u);

    SectorCache cache({1024, 2, 16, 1});
    cache.lookup(0x40, 0x1);
    StatGroup cache_group("l1");
    cache.stats().registerIn(cache_group);
    EXPECT_EQ(cache_group.counterValue("misses"), 1u);
}

// --------------------------------------------------------------------
// Chip I/O serialization property
// --------------------------------------------------------------------

TEST(IoSerialization, BeatBitsReconstructPayload)
{
    // Property: collecting bit `beat` of every active DQ over the 8
    // beats must reconstruct exactly the burst payload bytes, in every
    // mode (the serializer is just a transpose).
    Rng rng(77);
    for (int trial = 0; trial < 50; ++trial) {
        ChipIoPath io;
        for (unsigned b = 0; b < 4; ++b)
            io.loadBuffer(b, static_cast<std::uint32_t>(rng.next()));
        for (unsigned mode = 0; mode < 5; ++mode) {
            if (mode < 4)
                io.setMode(IoMode::Sx4, mode);
            else
                io.setMode(IoMode::X16);
            const auto payload = io.burstPayload();
            std::vector<std::uint8_t> rebuilt(payload.size(), 0);
            for (unsigned beat = 0; beat < kBurstLength; ++beat) {
                const std::uint16_t bits_now = io.beatBits(beat);
                for (std::size_t dq = 0; dq < payload.size(); ++dq) {
                    if (bits_now & (1u << dq))
                        rebuilt[dq] |= static_cast<std::uint8_t>(
                            1u << beat);
                }
            }
            EXPECT_EQ(rebuilt, payload) << "mode " << mode;
        }
    }
}

// --------------------------------------------------------------------
// Replay / epoch semantics via the System
// --------------------------------------------------------------------

SimConfig
tinyConfig(DesignKind design)
{
    SimConfig cfg;
    cfg.taRecords = 512;
    cfg.tbRecords = 512;
    cfg.design = design;
    return cfg;
}

TEST(Replay, FieldMajorQueriesTakeLongerThanTheirParts)
{
    // A field-major aggregate issues one epoch per projected field;
    // epochs are barriers, so more projected fields means strictly
    // more cycles.
    System sys(tinyConfig(DesignKind::SamSub));
    const auto r2 = sys.runQuery(aggrQuery(2, 1.0, 128));
    const auto r8 = sys.runQuery(aggrQuery(8, 1.0, 128));
    EXPECT_GT(r8.cycles, r2.cycles);
}

TEST(Replay, MoreMshrsNeverHurtMuch)
{
    const Query q3 = benchmarkQQueries()[2];
    SimConfig a = tinyConfig(DesignKind::Baseline);
    a.mshrsPerCore = 2;
    SimConfig b = a;
    b.mshrsPerCore = 16;
    const Cycle slow = System(a).runQuery(q3).cycles;
    const Cycle fast = System(b).runQuery(q3).cycles;
    // Deeper MLP can only help (small scheduling noise tolerated).
    EXPECT_LT(fast, slow * 11 / 10);
}

TEST(Replay, CyclesScaleRoughlyWithRecords)
{
    const Query q3 = benchmarkQQueries()[2];
    SimConfig small = tinyConfig(DesignKind::Baseline);
    SimConfig big = small;
    big.taRecords = 2048;
    big.tbRecords = 2048;
    const Cycle c1 = System(small).runQuery(q3).cycles;
    const Cycle c4 = System(big).runQuery(q3).cycles;
    const double ratio = static_cast<double>(c4) /
                         static_cast<double>(c1);
    EXPECT_GT(ratio, 2.0);
    EXPECT_LT(ratio, 8.0);
}

TEST(Replay, WriteQueriesGenerateWriteTraffic)
{
    System sys(tinyConfig(DesignKind::Baseline));
    const Query q11 = benchmarkQQueries()[10];
    const auto r = sys.runQuery(q11);
    EXPECT_GT(r.memWrites, 0u);
}

TEST(Replay, StrideWritesAppearForSamUpdates)
{
    System sys(tinyConfig(DesignKind::SamEn));
    const Query q11 = benchmarkQQueries()[10];
    const auto r = sys.runQuery(q11);
    EXPECT_GT(r.strideWrites, 0u); // sstore write-through path
    EXPECT_GT(r.strideReads, 0u);
}

TEST(Replay, SubsequentQueriesSeeUpdatedData)
{
    // An UPDATE dirties the tables; the next query must observe the
    // rebuilt (re-materialized) state and still verify.
    System sys(tinyConfig(DesignKind::SamEn));
    const Query q11 = benchmarkQQueries()[10];
    const Query q4 = benchmarkQQueries()[3]; // SUM over Tb
    sys.runQuery(q11);
    const auto r = sys.runQuery(q4);
    EXPECT_TRUE(r.result ==
                referenceResult(q4, sys.taSchema(), sys.tbSchema()));
}

TEST(Replay, RefreshAppearsOnLongDramRuns)
{
    // A Ta full scan at this scale runs past tREFI: the DRAM device
    // must log refreshes; an RRAM build of the same design must not.
    SimConfig cfg = tinyConfig(DesignKind::Baseline);
    cfg.taRecords = 4096;
    System dram_sys(cfg);
    const Query qs3 = benchmarkQsQueries()[2];
    const auto r = dram_sys.runQuery(qs3);
    if (r.cycles > ddr4Timing().tREFI) {
        SimConfig rcfg = cfg;
        rcfg.overrideTech = true;
        rcfg.tech = MemTech::RRAM;
        System rram_sys(rcfg);
        // No refresh counter surfaces in RunStats; assert via power:
        // RRAM refresh energy must be zero.
        const auto rr = rram_sys.runQuery(qs3);
        EXPECT_DOUBLE_EQ(rr.power.refreshEnergyPj, 0.0);
        EXPECT_GT(r.power.refreshEnergyPj, 0.0);
    }
}

TEST(Replay, StatsTextCoversAllComponents)
{
    System sys(tinyConfig(DesignKind::SamEn));
    const auto r = sys.runQuery(benchmarkQQueries()[2]);
    EXPECT_NE(r.statsText.find("device.strideReads"),
              std::string::npos);
    EXPECT_NE(r.statsText.find("controller.strideReadsServed"),
              std::string::npos);
    EXPECT_NE(r.statsText.find("ecc.linesChecked"), std::string::npos);
    EXPECT_NE(r.statsText.find("core0.l1.hits"), std::string::npos);
    EXPECT_NE(r.statsText.find("core3.l3.misses"), std::string::npos);
}

TEST(Replay, ResultsIndependentOfCoreCount)
{
    // Functional results must not depend on the degree of morsel
    // parallelism.
    const Query q1 = benchmarkQQueries()[0];
    SimConfig one = tinyConfig(DesignKind::SamEn);
    one.cores = 1;
    SimConfig four = tinyConfig(DesignKind::SamEn);
    four.cores = 4;
    const auto r1 = System(one).runQuery(q1);
    const auto r4 = System(four).runQuery(q1);
    EXPECT_TRUE(r1.result == r4.result);
    // And parallelism should help the bigger scans.
    EXPECT_LT(r4.cycles, r1.cycles);
}

// --------------------------------------------------------------------
// Bamboo-72 through the full system
// --------------------------------------------------------------------

TEST(Replay, Bamboo72SystemSurvivesChipFailure)
{
    SimConfig cfg = tinyConfig(DesignKind::SamEn);
    cfg.ecc = EccScheme::Bamboo72;
    cfg.faults.model = FaultModel::Chipkill;
    cfg.faults.chipkillAt = 0;
    cfg.faults.chipkillChip = 11;
    System sys(cfg);
    const Query q3 = benchmarkQQueries()[2];
    const auto r = sys.runQuery(q3);
    EXPECT_TRUE(r.result ==
                referenceResult(q3, sys.taSchema(), sys.tbSchema()));
    EXPECT_GT(r.eccCorrectedLines, 0u);
    EXPECT_EQ(r.eccUncorrectable, 0u);
}

} // namespace
} // namespace sam
