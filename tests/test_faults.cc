/**
 * @file
 * RAS pipeline tests: live fault injection, demand scrubbing, bounded
 * re-read retry, leaky-bucket line retirement, poison propagation, and
 * graceful query degradation. The headline acceptance scenario is a
 * chipkill firing mid-query: chipkill-capable schemes (SSC, SSC-DSD,
 * SSC-32, Bamboo-72) must complete with exact results plus nonzero
 * scrub traffic on every design that runs them, while SEC-DED must
 * fail *loudly* -- poisoned rows flagged in the query result, never
 * silent corruption.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/common/random.hh"
#include "src/dram/backing_store.hh"
#include "src/dram/data_path.hh"
#include "src/faults/error_log.hh"
#include "src/faults/fault_injector.hh"
#include "src/faults/ras_engine.hh"
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

std::vector<std::uint8_t>
patternLine(std::uint8_t tag)
{
    std::vector<std::uint8_t> line(kCachelineBytes);
    for (unsigned i = 0; i < kCachelineBytes; ++i)
        line[i] = static_cast<std::uint8_t>(tag ^ i);
    return line;
}

/** Read one line back; its flags land in `flags`. */
std::vector<std::uint8_t>
readBack(DataPath &dp, Addr line, ReadFlags &flags)
{
    std::vector<std::uint8_t> data(kCachelineBytes);
    flags = dp.readLineInto(line, data.data());
    return data;
}

// --------------------------------------------------------------------
// Satellite: corruptLine on never-written lines
// --------------------------------------------------------------------

TEST(BackingStoreFaults, CorruptLineMaterializesUntouchedLines)
{
    BackingStore store(kCachelineBytes);
    const Addr line = 0x1000;
    ASSERT_FALSE(store.contains(line));

    std::vector<std::uint8_t> mask(kCachelineBytes, 0);
    mask[3] = 0x80;
    store.corruptLine(line, mask);

    // The fault landed: the line now exists, zero-filled except for
    // the flipped bit, instead of the injection being a silent no-op.
    EXPECT_TRUE(store.contains(line));
    EXPECT_EQ(store.lineCount(), 1u);
    const auto blob = store.readLine(line);
    ASSERT_EQ(blob.size(), kCachelineBytes);
    for (unsigned i = 0; i < kCachelineBytes; ++i)
        EXPECT_EQ(blob[i], i == 3 ? 0x80 : 0x00) << "byte " << i;
}

// --------------------------------------------------------------------
// Deterministic injection
// --------------------------------------------------------------------

TEST(FaultInjection, DeterministicUnderFixedSeed)
{
    SimConfig cfg = smallConfig();
    cfg.design = DesignKind::SamEn; // SSC-DSD: flips are correctable
    cfg.faults.model = FaultModel::Transient;
    cfg.faults.fitPerMcycle = 2000.0; // scaled-up rate for test budget
    cfg.faults.seed = 0xD15EA5E;

    const Query q3 = benchmarkQQueries()[2];
    System a(cfg);
    System b(cfg);
    const RunStats ra = a.runQuery(q3);
    const RunStats rb = b.runQuery(q3);

    ASSERT_NE(a.injector(), nullptr);
    EXPECT_GT(a.injector()->stats().storedFlips.value(), 0u);
    EXPECT_EQ(a.injector()->stats().storedFlips.value(),
              b.injector()->stats().storedFlips.value());
    EXPECT_TRUE(ra.result == rb.result);
    EXPECT_EQ(ra.cycles, rb.cycles);
    EXPECT_EQ(ra.eccCorrectedLines, rb.eccCorrectedLines);
    EXPECT_EQ(ra.scrubWritebacks, rb.scrubWritebacks);
    EXPECT_EQ(ra.poisonedReads, rb.poisonedReads);
}

// --------------------------------------------------------------------
// Transient victims over table padding: the injector samples every
// line slot of the store uniformly, padding included. A VerticalGroup
// table is ~99% padding at this scale, so a snapshot build that
// dropped or renumbered padding slots would still compute exact
// results but corrupt different lines -- these counts, recorded with
// every padding line stored, pin the victim sequence.
// --------------------------------------------------------------------

TEST(FaultInjection, TransientTargetsOverPaddingArePinned)
{
    struct Expect
    {
        Cycle cycles;
        std::uint64_t corrected;
        std::uint64_t uncorrectable;
        std::uint64_t scrubs;
    };
    const std::vector<std::pair<DesignKind, std::vector<Expect>>> pins = {
        {DesignKind::SamSub,
         {{3502, 23, 0, 23}, {7475, 64, 1, 64}, {4697, 45, 0, 45}}},
        {DesignKind::RcNvmWord,
         {{6009, 23, 0, 23}, {14252, 64, 1, 64}, {11208, 45, 0, 45}}},
    };
    for (const auto &[design, expect] : pins) {
        SimConfig cfg = smallConfig();
        cfg.design = design;
        cfg.faults.model = FaultModel::Transient;
        cfg.faults.fitPerMcycle = 1e8; // ~1e5 flips per query
        cfg.faults.seed = 0xD15EA5E;
        System sys(cfg);
        // Flips persist in the store, so Q1..Q3 on one system see the
        // victims of every earlier run too.
        for (std::size_t i = 0; i < expect.size(); ++i) {
            const Query q = benchmarkQQueries()[i];
            const RunStats r = sys.runQuery(q);
            const std::string where = designName(design) + "/" + q.name;
            EXPECT_EQ(r.cycles, expect[i].cycles) << where;
            EXPECT_EQ(r.eccCorrectedLines, expect[i].corrected) << where;
            EXPECT_EQ(r.eccUncorrectable, expect[i].uncorrectable)
                << where;
            EXPECT_EQ(r.scrubWritebacks, expect[i].scrubs) << where;
        }
    }
}

// --------------------------------------------------------------------
// Chipkill mid-query under chipkill-capable ECC: corrected + scrubbed
// --------------------------------------------------------------------

/**
 * One chip-tolerant (design, scheme) pair under the mid-query kill,
 * with the counters recorded from the decoder this suite guards.
 */
struct ChipkillPin
{
    DesignKind design;
    EccScheme scheme;
    Cycle cycles;
    std::uint64_t correctedLines;
    std::uint64_t scrubWritebacks;
};

// Every design that honours cfg.ecc x every chip-tolerant scheme.
// Bamboo-72 corrects four symbols per line, so its rows are the only
// System runs that reach Berlekamp-Massey.
// {design, scheme, cycles, correctedLines, scrubWritebacks}
const ChipkillPin kChipkillPins[] = {
    {DesignKind::Baseline, EccScheme::Ssc, 14130, 1014, 1014},
    {DesignKind::Baseline, EccScheme::SscDsd, 14148, 1014, 1014},
    {DesignKind::Baseline, EccScheme::Ssc32, 14120, 1014, 1014},
    {DesignKind::Baseline, EccScheme::Bamboo72, 14130, 1014, 1014},
    {DesignKind::RcNvmBit, EccScheme::Ssc, 331805, 1672, 1672},
    {DesignKind::RcNvmBit, EccScheme::SscDsd, 376560, 1912, 1912},
    {DesignKind::RcNvmBit, EccScheme::Ssc32, 287468, 1432, 1432},
    {DesignKind::RcNvmBit, EccScheme::Bamboo72, 331805, 1672, 1672},
    {DesignKind::RcNvmWord, EccScheme::Ssc, 379679, 1672, 1672},
    {DesignKind::RcNvmWord, EccScheme::SscDsd, 431849, 1912, 1912},
    {DesignKind::RcNvmWord, EccScheme::Ssc32, 327399, 1432, 1432},
    {DesignKind::RcNvmWord, EccScheme::Bamboo72, 379679, 1672, 1672},
    {DesignKind::SamSub, EccScheme::Ssc, 129392, 1672, 1672},
    {DesignKind::SamSub, EccScheme::SscDsd, 145974, 1912, 1912},
    {DesignKind::SamSub, EccScheme::Ssc32, 113379, 1432, 1432},
    {DesignKind::SamSub, EccScheme::Bamboo72, 129392, 1672, 1672},
    {DesignKind::SamIo, EccScheme::Ssc, 13979, 1672, 1672},
    {DesignKind::SamIo, EccScheme::SscDsd, 14428, 1904, 1904},
    {DesignKind::SamIo, EccScheme::Ssc32, 10414, 1008, 1008},
    {DesignKind::SamIo, EccScheme::Bamboo72, 13979, 1672, 1672},
    {DesignKind::SamEn, EccScheme::Ssc, 14015, 1672, 1672},
    {DesignKind::SamEn, EccScheme::SscDsd, 14178, 1904, 1904},
    {DesignKind::SamEn, EccScheme::Ssc32, 10414, 1008, 1008},
    {DesignKind::SamEn, EccScheme::Bamboo72, 14015, 1672, 1672},
    {DesignKind::Ideal, EccScheme::Ssc, 3303, 241, 241},
    {DesignKind::Ideal, EccScheme::SscDsd, 3303, 241, 241},
    {DesignKind::Ideal, EccScheme::Ssc32, 3303, 241, 241},
    {DesignKind::Ideal, EccScheme::Bamboo72, 3303, 241, 241},
};

/** Kills chip 5 mid-query under one scheme, on every design above. */
class ChipkillCapableTest : public ::testing::TestWithParam<EccScheme>
{
};

TEST_P(ChipkillCapableTest, MidQueryKillIsCorrectedAndScrubbed)
{
    const Query q3 = benchmarkQQueries()[2];
    unsigned designs = 0;
    for (const ChipkillPin &pin : kChipkillPins) {
        if (pin.scheme != GetParam())
            continue;
        ++designs;
        SCOPED_TRACE(designName(pin.design) + " " +
                     eccSchemeName(pin.scheme));
        SimConfig cfg = smallConfig();
        cfg.design = pin.design;
        cfg.ecc = pin.scheme;

        // Clean reference run: same system, no fault source.
        System clean(cfg);
        const RunStats base = clean.runQuery(q3);

        // The phase-1 functional clock at this table scale spans a few
        // hundred cycles, so cycle 50 lands mid-query: reads before it
        // are clean, everything after sees the dead chip.
        cfg.faults.model = FaultModel::Chipkill;
        cfg.faults.chipkillAt = 50;
        cfg.faults.chipkillChip = 5;
        System sys(cfg);
        const RunStats r = sys.runQuery(q3);

        ASSERT_NE(sys.injector(), nullptr);
        EXPECT_TRUE(sys.injector()->chipkillFired());
        EXPECT_EQ(sys.injector()->stats().chipKills.value(), 1u);

        // Exact results, zero silent corruption, zero poison: the dead
        // chip is reconstructed on every read.
        EXPECT_TRUE(r.result ==
                    referenceResult(q3, sys.taSchema(), sys.tbSchema()));
        EXPECT_EQ(r.result.poisonedRows, 0u);
        EXPECT_EQ(r.poisonedReads, 0u);
        EXPECT_EQ(r.eccUncorrectable, 0u);
        EXPECT_GT(r.eccCorrectedLines, 0u);

        // Demand scrubbing is live and costs real write bandwidth in
        // the timed replay.
        EXPECT_GT(r.scrubWritebacks, 0u);
        EXPECT_GT(r.memWrites, base.memWrites);

        // The decoder's outcomes, pinned: a change to correction moves
        // the corrected and scrubbed counts, and with them the cycles.
        const bool pinned = r.cycles == pin.cycles &&
                            r.eccCorrectedLines == pin.correctedLines &&
                            r.scrubWritebacks == pin.scrubWritebacks;
        EXPECT_TRUE(pinned) << "diverged from its pin; actual {"
                            << r.cycles << ", " << r.eccCorrectedLines
                            << ", " << r.scrubWritebacks << "}";
    }
    EXPECT_EQ(designs, 7u);
}

std::string
schemeTestName(const ::testing::TestParamInfo<EccScheme> &info)
{
    std::string name = eccSchemeName(info.param);
    name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
    return name;
}

INSTANTIATE_TEST_SUITE_P(SscSchemes, ChipkillCapableTest,
                         ::testing::Values(EccScheme::Ssc,
                                           EccScheme::SscDsd),
                         schemeTestName);
INSTANTIATE_TEST_SUITE_P(VariantSchemes, ChipkillCapableTest,
                         ::testing::Values(EccScheme::Ssc32,
                                           EccScheme::Bamboo72),
                         schemeTestName);

// --------------------------------------------------------------------
// Same chipkill under SEC-DED: poisoned, degraded, never silent
// --------------------------------------------------------------------

TEST(SystemFaults, ChipkillUnderSecDedPoisonsAndDegradesGracefully)
{
    SimConfig cfg = smallConfig();
    cfg.design = DesignKind::Baseline;
    cfg.ecc = EccScheme::SecDed;
    cfg.faults.model = FaultModel::Chipkill;
    cfg.faults.chipkillAt = 50; // mid-query at this scale
    // A dead chip whose bit positions SEC-DED *detects* (some chips
    // alias to a zero/single-bit syndrome and corrupt silently --
    // see DataPath.SecDedCannotProtectAgainstChipFailure).
    cfg.faults.chipkillChip = 0;

    const Query q3 = benchmarkQQueries()[2];
    System sys(cfg);
    const RunStats r = sys.runQuery(q3);

    // SEC-DED detects the 4-bit-per-codeword chip failure but cannot
    // correct it: the read path retries (useless against a dead chip),
    // exhausts the budget, and poisons. The executor flags every row
    // whose field reads were poisoned instead of using the garbage.
    EXPECT_GT(r.readRetries, 0u);
    EXPECT_GT(r.poisonedReads, 0u);
    EXPECT_GT(r.eccUncorrectable, 0u);
    EXPECT_TRUE(r.result.degraded());
    EXPECT_GT(r.result.poisonedRows, 0u);
    EXPECT_EQ(r.scrubWritebacks, 0u); // nothing correctable to scrub

    // Graceful failure contract: a result that differs from the
    // fault-free reference MUST carry the degradation flag.
    const QueryResult expect =
        referenceResult(q3, sys.taSchema(), sys.tbSchema());
    EXPECT_TRUE(r.result == expect || r.result.degraded());
}

// --------------------------------------------------------------------
// The same SEC-DED chipkill on every plan: the Q and Qs suites plus
// one Figure 15 arithmetic and aggregate point, on designs that run
// the record-major, stride, field-major, late-materialization and
// column-store plans. The counters are pinned, so a change to the
// executor must flag the same rows and keep the same partial sums.
// --------------------------------------------------------------------

struct DegradedPin
{
    DesignKind design;
    const char *query;
    std::uint64_t rows;
    std::uint64_t aggregate;
    std::uint64_t checksum;
    std::uint64_t poisonedRows;
};

/** A suite query by name; "arith"/"aggr" are the p8/s50 sweep point. */
Query
pinnedQuery(const std::string &name, unsigned ta_fields)
{
    if (name == "arith")
        return arithQuery(8, 0.5, ta_fields);
    if (name == "aggr")
        return aggrQuery(8, 0.5, ta_fields);
    for (const auto &suite : {benchmarkQQueries(), benchmarkQsQueries()}) {
        for (const Query &q : suite) {
            if (q.name == name)
                return q;
        }
    }
    ADD_FAILURE() << "no query named " << name;
    return Query{};
}

class DegradedResultTest : public ::testing::TestWithParam<DegradedPin>
{
};

TEST_P(DegradedResultTest, PoisonedRowsArePinned)
{
    const DegradedPin &pin = GetParam();
    SimConfig cfg = smallConfig();
    cfg.design = pin.design;
    cfg.ecc = EccScheme::SecDed;
    cfg.faults.model = FaultModel::Chipkill;
    cfg.faults.chipkillAt = 50;
    cfg.faults.chipkillChip = 0;
    const Query q = pinnedQuery(pin.query, cfg.taFields);
    System sys(cfg);
    const RunStats r = sys.runQuery(q);

    const QueryResult expect =
        referenceResult(q, sys.taSchema(), sys.tbSchema());
    EXPECT_TRUE(r.result == expect || r.result.degraded());
    EXPECT_EQ(r.result.rows, pin.rows);
    EXPECT_EQ(r.result.aggregate, pin.aggregate);
    EXPECT_EQ(r.result.checksum, pin.checksum);
    EXPECT_EQ(r.result.poisonedRows, pin.poisonedRows);
}

// {design, query, rows, aggregate, checksum, poisonedRows}
const DegradedPin kDegradedPins[] = {
    {DesignKind::Baseline, "Q1", 1, 0, 510, 1015},
    {DesignKind::Baseline, "Q2", 0, 0, 0, 2038},
    {DesignKind::Baseline, "Q3", 1, 490, 0, 1014},
    {DesignKind::Baseline, "Q4", 1, 490, 0, 2038},
    {DesignKind::Baseline, "Q5", 1, 933, 0, 1015},
    {DesignKind::Baseline, "Q6", 1, 933, 0, 2039},
    {DesignKind::Baseline, "Q7", 0, 0, 0, 3062},
    {DesignKind::Baseline, "Q8", 0, 0, 0, 3062},
    {DesignKind::Baseline, "Q9", 1, 0, 1434, 1017},
    {DesignKind::Baseline, "Q10", 2, 0, 2294, 1016},
    {DesignKind::Baseline, "Q11", 1, 0, 524, 2038},
    {DesignKind::Baseline, "Q12", 1, 0, 497, 2038},
    {DesignKind::Baseline, "Qs1", 1024, 0, 9981, 1024},
    {DesignKind::Baseline, "Qs2", 1024, 0, 11278, 1023},
    {DesignKind::Baseline, "Qs3", 1, 0, 8714, 1022},
    {DesignKind::Baseline, "Qs4", 1, 0, 8714, 2045},
    {DesignKind::Baseline, "Qs5", 128, 0, 8222405, 0},
    {DesignKind::Baseline, "Qs6", 256, 0, 2063383, 0},
    {DesignKind::Baseline, "arith", 2, 3576, 0, 1021},
    {DesignKind::Baseline, "aggr", 2, 4530, 0, 1021},
    {DesignKind::SamEn, "Q1", 2, 0, 1049, 1008},
    {DesignKind::SamEn, "Q2", 1, 0, 4006, 2029},
    {DesignKind::SamEn, "Q3", 2, 950, 0, 1004},
    {DesignKind::SamEn, "Q4", 4, 0, 0, 2024},
    {DesignKind::SamEn, "Q5", 2, 1580, 0, 1004},
    {DesignKind::SamEn, "Q6", 4, 0, 0, 2024},
    {DesignKind::SamEn, "Q7", 0, 0, 0, 3044},
    {DesignKind::SamEn, "Q8", 0, 0, 0, 3044},
    {DesignKind::SamEn, "Q9", 2, 0, 2696, 1012},
    {DesignKind::SamEn, "Q10", 4, 0, 4920, 1012},
    {DesignKind::SamEn, "Q11", 4, 0, 3674, 2036},
    {DesignKind::SamEn, "Q12", 4, 0, 1415, 2036},
    {DesignKind::SamEn, "Qs1", 1024, 0, 9981, 1024},
    {DesignKind::SamEn, "Qs2", 1024, 0, 11278, 1023},
    {DesignKind::SamEn, "Qs3", 1, 0, 8714, 1022},
    {DesignKind::SamEn, "Qs4", 1, 0, 8714, 2045},
    {DesignKind::SamEn, "Qs5", 128, 0, 8222405, 0},
    {DesignKind::SamEn, "Qs6", 256, 0, 2063383, 0},
    {DesignKind::SamEn, "arith", 3, 7346, 0, 1019},
    {DesignKind::SamEn, "aggr", 16, 0, 0, 1012},
    {DesignKind::SamSub, "Q1", 4, 0, 0, 1000},
    {DesignKind::SamSub, "Q2", 1, 0, 4006, 2029},
    {DesignKind::SamSub, "Q3", 4, 0, 0, 1000},
    {DesignKind::SamSub, "Q4", 4, 0, 0, 2024},
    {DesignKind::SamSub, "Q5", 4, 0, 0, 1000},
    {DesignKind::SamSub, "Q6", 4, 0, 0, 2024},
    {DesignKind::SamSub, "Q7", 0, 0, 0, 3044},
    {DesignKind::SamSub, "Q8", 0, 0, 0, 3044},
    {DesignKind::SamSub, "Q9", 0, 0, 0, 1012},
    {DesignKind::SamSub, "Q10", 0, 0, 0, 1012},
    {DesignKind::SamSub, "Q11", 4, 0, 3674, 2036},
    {DesignKind::SamSub, "Q12", 4, 0, 1415, 2036},
    {DesignKind::SamSub, "Qs1", 1024, 0, 9981, 1024},
    {DesignKind::SamSub, "Qs2", 1024, 0, 11278, 1023},
    {DesignKind::SamSub, "Qs3", 1, 0, 8714, 1022},
    {DesignKind::SamSub, "Qs4", 1, 0, 8714, 2045},
    {DesignKind::SamSub, "Qs5", 128, 0, 8222405, 0},
    {DesignKind::SamSub, "Qs6", 256, 0, 2063383, 0},
    {DesignKind::SamSub, "arith", 11, 0, 0, 1007},
    {DesignKind::SamSub, "aggr", 11, 0, 0, 1007},
    {DesignKind::Ideal, "Q1", 3, 0, 0, 1003},
    {DesignKind::Ideal, "Q2", 1, 0, 0, 2025},
    {DesignKind::Ideal, "Q3", 3, 0, 0, 1003},
    {DesignKind::Ideal, "Q4", 3, 0, 0, 2027},
    {DesignKind::Ideal, "Q5", 3, 0, 0, 1003},
    {DesignKind::Ideal, "Q6", 3, 0, 0, 2027},
    {DesignKind::Ideal, "Q7", 0, 0, 0, 3048},
    {DesignKind::Ideal, "Q8", 0, 0, 0, 3048},
    {DesignKind::Ideal, "Q9", 0, 0, 0, 1013},
    {DesignKind::Ideal, "Q10", 0, 0, 0, 1013},
    {DesignKind::Ideal, "Q11", 3, 0, 2111, 2024},
    {DesignKind::Ideal, "Q12", 3, 0, 1110, 2024},
    {DesignKind::Ideal, "Qs1", 1024, 0, 9981, 1024},
    {DesignKind::Ideal, "Qs2", 1024, 0, 11278, 1023},
    {DesignKind::Ideal, "Qs3", 1, 0, 8714, 1022},
    {DesignKind::Ideal, "Qs4", 1, 0, 8714, 2045},
    {DesignKind::Ideal, "Qs5", 128, 0, 8222405, 0},
    {DesignKind::Ideal, "Qs6", 256, 0, 2063383, 0},
    {DesignKind::Ideal, "arith", 9, 0, 0, 1009},
    {DesignKind::Ideal, "aggr", 9, 0, 0, 1009},
};

INSTANTIATE_TEST_SUITE_P(SecDedChipkill, DegradedResultTest,
                         ::testing::ValuesIn(kDegradedPins),
                         [](const auto &info) {
                             std::string name =
                                 designName(info.param.design) + "_" +
                                 info.param.query;
                             name.erase(std::remove(name.begin(),
                                                    name.end(), '-'),
                                        name.end());
                             return name;
                         });

// --------------------------------------------------------------------
// Bounded re-read retry clears transient bus faults
// --------------------------------------------------------------------

TEST(RasPipeline, RetryClearsTransientBusFault)
{
    DataPath dp(EccScheme::SecDed);
    RasEngine ras;
    dp.setRasPolicy(&ras);
    FaultConfig fc; // model None: only the armed test fault fires
    FaultInjector inj(fc);
    dp.setFaultHook(&inj);

    const auto original = patternLine(0x5A);
    dp.writeLine(0x40, original.data());

    // Two flipped bits in one codeword: uncorrectable for SEC-DED on
    // the first attempt, gone on the re-read (in-flight fault only).
    inj.armBusFault({0, 9}, 1);
    ReadFlags out;
    const auto data = readBack(dp, 0x40, out);

    EXPECT_EQ(out.retries, 1u);
    EXPECT_FALSE(out.uncorrectable);
    EXPECT_FALSE(out.poisoned);
    EXPECT_EQ(data, original);
    EXPECT_EQ(inj.stats().busFaults.value(), 1u);
    EXPECT_EQ(ras.stats().retriesAttempted.value(), 1u);
    EXPECT_EQ(ras.stats().poisonedReads.value(), 0u);
    // Final-failure counter stays clean: the retry rescued the read.
    EXPECT_EQ(dp.stats().uncorrectable.value(), 0u);
}

TEST(RasPipeline, RetryBudgetExhaustionPoisons)
{
    DataPath dp(EccScheme::SecDed);
    RasConfig rc;
    rc.maxRetries = 2;
    RasEngine ras(rc);
    dp.setRasPolicy(&ras);
    FaultConfig fc;
    FaultInjector inj(fc);
    dp.setFaultHook(&inj);

    dp.writeLine(0x80, patternLine(0x3C).data());

    // The bus fault outlives the whole retry budget.
    inj.armBusFault({0, 9}, 100);
    ReadFlags out;
    readBack(dp, 0x80, out);

    EXPECT_EQ(out.retries, 2u);
    EXPECT_TRUE(out.uncorrectable);
    EXPECT_TRUE(out.poisoned);
    EXPECT_EQ(out.poisonBits, 1u);
    EXPECT_EQ(ras.stats().retriesExhausted.value(), 1u);
    EXPECT_EQ(ras.stats().poisonedReads.value(), 1u);
    EXPECT_EQ(dp.stats().uncorrectable.value(), 1u);
}

// --------------------------------------------------------------------
// Leaky-bucket retirement of repeat offenders
// --------------------------------------------------------------------

TEST(RasPipeline, LeakyBucketRetiresRepeatOffender)
{
    DataPath dp(EccScheme::Ssc);
    RasConfig rc;
    rc.bucketThreshold = 3.0;
    rc.bucketWindow = 1'000'000;
    RasEngine ras(rc);
    dp.setRasPolicy(&ras);

    const Addr line = 0x80;
    const auto original = patternLine(0x77);
    dp.writeLine(line, original.data());
    // Hard fault: chip 5 dies at cycle 0, so every read needs
    // correction.
    FaultConfig fc;
    fc.model = FaultModel::Chipkill;
    fc.chipkillAt = 0;
    fc.chipkillChip = 5;
    FaultInjector inj(fc);
    dp.setFaultHook(&inj);

    for (int i = 0; i < 5; ++i) {
        dp.setNow(1000 * static_cast<Cycle>(i + 1));
        ReadFlags out;
        EXPECT_EQ(readBack(dp, line, out), original) << "read " << i;
        EXPECT_FALSE(out.uncorrectable) << "read " << i;
    }

    // The third corrected event crossed the threshold: classified
    // permanent and remapped to a spare.
    EXPECT_TRUE(ras.errorLog().isPermanent(line));
    EXPECT_EQ(ras.stats().linesRetired.value(), 1u);
    EXPECT_EQ(ras.retiredLineCount(), 1u);
    EXPECT_NE(ras.resolve(line), line);
    EXPECT_GE(ras.resolve(line), ras.config().spareBase);

    // Scrubbing a known-dead line buys nothing; after classification
    // the writebacks stop even though corrections continue. (The
    // bucket leaks a little between reads, so the crossing lands on
    // the third or fourth event.)
    EXPECT_GE(ras.stats().scrubWritebacks.value(), 3u);
    EXPECT_LE(ras.stats().scrubWritebacks.value(), 4u);
    EXPECT_GT(ras.stats().scrubsSuppressed.value(), 0u);
    EXPECT_GE(ras.errorLog().totalEvents(), 5u);
}

TEST(RasPipeline, IsolatedErrorIsScrubbedNotRetired)
{
    DataPath dp(EccScheme::Ssc);
    RasEngine ras;
    dp.setRasPolicy(&ras);

    const Addr line = 0x140;
    const auto original = patternLine(0x21);
    dp.writeLine(line, original.data());

    // One stored single-bit flip: corrected once, scrubbed, and the
    // stored copy is healed -- the next read is clean.
    std::vector<std::uint8_t> mask(dp.store().blobBytes(), 0);
    mask[7] = 0x01;
    dp.store().corruptLine(line, mask);

    ReadFlags first;
    EXPECT_EQ(readBack(dp, line, first), original);
    EXPECT_TRUE(first.corrected);
    EXPECT_TRUE(first.scrubbed);
    ASSERT_EQ(dp.lastScrubbedLines().size(), 1u);
    EXPECT_EQ(dp.lastScrubbedLines()[0], line);

    ReadFlags second;
    EXPECT_EQ(readBack(dp, line, second), original);
    EXPECT_FALSE(second.corrected);
    EXPECT_EQ(ras.stats().scrubWritebacks.value(), 1u);
    EXPECT_EQ(ras.stats().linesRetired.value(), 0u);
    EXPECT_EQ(ras.resolve(line), line);
}

// --------------------------------------------------------------------
// The flat error log against a reference map
// --------------------------------------------------------------------

TEST(ErrorLogTest, MatchesReferenceMap)
{
    constexpr double kThreshold = 4.0;
    constexpr Cycle kWindow = 2'000;
    ErrorLog log(kThreshold, kWindow);

    struct RefBucket
    {
        double level = 0.0;
        Cycle last = 0;
        bool permanent = false;
    };
    std::map<Addr, RefBucket> ref;
    std::map<Addr, unsigned> newly;
    const auto leaked = [](const RefBucket &b, Cycle now) {
        if (now <= b.last)
            return b.level;
        const double leak = static_cast<double>(now - b.last) *
                            kThreshold / static_cast<double>(kWindow);
        return b.level > leak ? b.level - leak : 0.0;
    };

    // 3000 lines (the table grows through several doublings), bursts
    // on a few hot lines so buckets overflow, and clock rewinds like a
    // new run's, which leak nothing.
    Rng rng(0xE4406);
    Cycle now = 0;
    for (unsigned i = 0; i < 40'000; ++i) {
        if (i % 9'000 == 8'999)
            now = rng.below(100);
        now += rng.below(40);
        const Addr line = rng.below(4) == 0
            ? rng.below(8) * kCachelineBytes
            : (8 + rng.below(2'992)) * kCachelineBytes;
        const bool corrected = rng.below(5) != 0;

        RefBucket &b = ref[line];
        b.level = leaked(b, now) + 1.0;
        b.last = std::max(b.last, now);
        ErrorLog::Verdict want = ErrorLog::Verdict::Transient;
        if (b.permanent) {
            want = ErrorLog::Verdict::Permanent;
        } else if (b.level > kThreshold) {
            b.permanent = true;
            want = ErrorLog::Verdict::NewlyPermanent;
            ++newly[line];
        }
        ASSERT_EQ(log.record(line, now, corrected), want) << "event " << i;
    }
    EXPECT_EQ(log.totalEvents(), 40'000u);
    EXPECT_EQ(log.events().size(), 1024u);

    unsigned permanent = 0;
    for (Addr l = 0; l < 3'100; ++l) {
        const Addr line = l * kCachelineBytes;
        auto it = ref.find(line);
        const double want_level =
            it == ref.end() ? 0.0 : leaked(it->second, now + 500);
        EXPECT_DOUBLE_EQ(log.bucketLevel(line, now + 500), want_level);
        const bool want_permanent =
            it != ref.end() && it->second.permanent;
        EXPECT_EQ(log.isPermanent(line), want_permanent);
        if (want_permanent) {
            ++permanent;
            EXPECT_EQ(newly[line], 1u) << "line " << line;
        }
    }
    EXPECT_GE(permanent, 8u); // the hot lines all crossed
}

// --------------------------------------------------------------------
// The hook's "will not touch" answer
// --------------------------------------------------------------------

/**
 * DataPath skips beforeDecode() (and the blob it would need) on a
 * clean line when the hook says it would leave the read untouched.
 * Two injectors with one config see the same ticks and reads: `full`
 * is consulted on every read, `lazy` only when it does not promise to
 * leave the read alone. Whenever `lazy` is skipped, `full` must report
 * the read untouched and leave the blob as it was; and the two must
 * agree on everything after -- stored flips, corrupted blobs, counters
 * -- so a skip never moves the RNG.
 */
class HookUntouchedTest : public ::testing::TestWithParam<FaultModel>
{
};

TEST_P(HookUntouchedTest, AgreesWithBeforeDecodeAndKeepsRngState)
{
    const FaultModel model = GetParam();
    FaultConfig fc;
    fc.model = model;
    fc.seed = 0xC0FFEE;
    fc.fitPerMcycle = 20'000.0;
    fc.stuckProbability = 0.3;
    fc.chipkillAt = 6'000;
    FaultInjector full(fc);
    FaultInjector lazy(fc);
    const EccEngine ecc(EccScheme::SscDsd);
    BackingStore full_store(kCachelineBytes + 8);
    BackingStore lazy_store(kCachelineBytes + 8);
    constexpr unsigned kLines = 48;
    for (unsigned i = 0; i < kLines; ++i) {
        const auto blob = ecc.encodeLine(patternLine(
            static_cast<std::uint8_t>(i)));
        full_store.writeLine(i * kCachelineBytes, blob, true);
        lazy_store.writeLine(i * kCachelineBytes, blob, true);
    }

    unsigned skipped = 0;
    unsigned consulted = 0;
    for (unsigned step = 0; step < 3'000; ++step) {
        if (step == 400 || step == 2'500) {
            full.armBusFault({5, 300}, 3);
            lazy.armBusFault({5, 300}, 3);
        }
        const Cycle now = Cycle{step} * 5;
        full.tick(now, full_store, ecc);
        lazy.tick(now, lazy_store, ecc);
        const Addr line = ((step * 7) % kLines) * kCachelineBytes;
        std::vector<std::uint8_t> full_blob = full_store.readLine(line);
        std::vector<std::uint8_t> lazy_blob = lazy_store.readLine(line);
        ASSERT_EQ(full_blob, lazy_blob) << "stored state, step " << step;

        const bool untouched = lazy.leavesNextReadUntouched();
        ASSERT_EQ(full.leavesNextReadUntouched(), untouched);
        const std::vector<std::uint8_t> before = full_blob;
        const bool touched = full.beforeDecode(line, full_blob, ecc);
        if (untouched) {
            ++skipped;
            ASSERT_FALSE(touched) << "step " << step;
            ASSERT_EQ(full_blob, before) << "step " << step;
        } else {
            ++consulted;
            ASSERT_EQ(lazy.beforeDecode(line, lazy_blob, ecc), touched);
            ASSERT_EQ(lazy_blob, full_blob) << "step " << step;
        }
    }
    EXPECT_EQ(full.stats().storedFlips.value(),
              lazy.stats().storedFlips.value());
    EXPECT_EQ(full.stats().busFaults.value(),
              lazy.stats().busFaults.value());
    EXPECT_EQ(full.stats().chipKills.value(),
              lazy.stats().chipKills.value());

    switch (model) {
      case FaultModel::None:
      case FaultModel::Transient:
        // Only the armed reads are consulted.
        EXPECT_EQ(consulted, 6u);
        break;
      case FaultModel::StuckAt:
        // Its draw is per read: never skipped.
        EXPECT_EQ(skipped, 0u);
        EXPECT_GT(full.stats().busFaults.value(), 6u);
        break;
      case FaultModel::Chipkill:
        // Reads before the kill (cycle 6000, step 1200) are skipped,
        // every one after it is consulted.
        EXPECT_EQ(skipped, 1'200u - 3u);
        EXPECT_EQ(consulted, 3'000u - skipped);
        break;
    }
    if (model == FaultModel::Transient) {
        EXPECT_GT(full.stats().storedFlips.value(), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(AllModels, HookUntouchedTest,
                         ::testing::Values(FaultModel::None,
                                           FaultModel::Transient,
                                           FaultModel::StuckAt,
                                           FaultModel::Chipkill),
                         [](const auto &info) {
                             return faultModelName(info.param);
                         });

// --------------------------------------------------------------------
// Clean-line fast path: observationally equivalent to full decode
// --------------------------------------------------------------------

/**
 * Differential check of the clean-line decode fast path: the same
 * seeded fault-injection workload, once with the fast path enabled
 * and once forced through the full decoder, must produce identical
 * decoded bytes, poison masks, and per-scheme ECC counters.
 */
class FastPathDifferentialTest
    : public ::testing::TestWithParam<std::tuple<EccScheme, FaultModel>>
{
  protected:
    struct Observed
    {
        std::vector<std::uint8_t> bytes;
        std::vector<std::uint32_t> flags;
        EccStats pathStats;
        EccEngineStats engineStats;
        FaultStats faultStats;
    };

    static std::uint32_t packFlags(const ReadFlags &f)
    {
        return (f.corrected ? 1u : 0u) | (f.uncorrectable ? 2u : 0u) |
               (f.poisoned ? 4u : 0u) | (f.scrubbed ? 8u : 0u) |
               (f.retries << 4) | (f.poisonBits << 8);
    }

    static Observed runWorkload(EccScheme scheme, FaultModel model,
                                bool fast_path)
    {
        DataPath dp(scheme);
        dp.setCleanFastPath(fast_path);

        FaultConfig fc;
        fc.model = model;
        fc.seed = 0x5EEDED;
        fc.fitPerMcycle = 5000.0; // rates scaled up so faults fire
        fc.stuckProbability = 0.3;
        fc.chipkillAt = 5'000;
        FaultInjector inj(fc);
        dp.setFaultHook(&inj);

        constexpr unsigned kLines = 64;
        std::vector<std::uint8_t> line(kCachelineBytes);
        for (unsigned i = 0; i < kLines; ++i) {
            for (unsigned b = 0; b < kCachelineBytes; ++b)
                line[b] = static_cast<std::uint8_t>(i * 7 + b);
            dp.writeLine(i * kCachelineBytes, line.data());
        }

        Observed out;
        std::uint8_t data[kCachelineBytes];
        Addr gather[8];
        for (unsigned step = 0; step < 400; ++step) {
            dp.setNow(Cycle{step} * 100);
            ReadFlags f;
            if (step % 3 == 0) {
                for (unsigned g = 0; g < 8; ++g)
                    gather[g] = ((step * 5 + g * 3) % kLines) *
                                kCachelineBytes;
                f = dp.strideReadInto(gather, 8, step % 8, 8, data);
            } else {
                f = dp.readLineInto(
                    ((step * 11) % kLines) * kCachelineBytes, data);
            }
            out.bytes.insert(out.bytes.end(), data,
                             data + kCachelineBytes);
            out.flags.push_back(packFlags(f));
            if (step % 17 == 0) {
                // Interleave writes so clean tags are re-earned after
                // the injector has dirtied lines.
                for (unsigned b = 0; b < kCachelineBytes; ++b)
                    line[b] = static_cast<std::uint8_t>(step + b);
                dp.writeLine(((step * 13) % kLines) * kCachelineBytes,
                             line.data());
            }
        }
        out.pathStats = dp.stats();
        out.engineStats = dp.ecc().stats();
        out.faultStats = inj.stats();
        return out;
    }
};

TEST_P(FastPathDifferentialTest, MatchesFullDecodeExactly)
{
    const auto [scheme, model] = GetParam();
    const Observed fast = runWorkload(scheme, model, true);
    const Observed slow = runWorkload(scheme, model, false);

    EXPECT_EQ(fast.bytes, slow.bytes);
    EXPECT_EQ(fast.flags, slow.flags);

    EXPECT_EQ(fast.pathStats.linesChecked.value(),
              slow.pathStats.linesChecked.value());
    EXPECT_EQ(fast.pathStats.correctedLines.value(),
              slow.pathStats.correctedLines.value());
    EXPECT_EQ(fast.pathStats.correctedSymbols.value(),
              slow.pathStats.correctedSymbols.value());
    EXPECT_EQ(fast.pathStats.uncorrectable.value(),
              slow.pathStats.uncorrectable.value());

    EXPECT_EQ(fast.engineStats.linesDecoded.value(),
              slow.engineStats.linesDecoded.value());
    EXPECT_EQ(fast.engineStats.codewordsCorrected.value(),
              slow.engineStats.codewordsCorrected.value());
    EXPECT_EQ(fast.engineStats.codewordsDetected.value(),
              slow.engineStats.codewordsDetected.value());
    EXPECT_EQ(fast.engineStats.symbolsCorrected.value(),
              slow.engineStats.symbolsCorrected.value());

    // The injector's RNG draws are part of the deterministic replay
    // surface, so both paths must consume them identically.
    EXPECT_EQ(fast.faultStats.storedFlips.value(),
              slow.faultStats.storedFlips.value());
    EXPECT_EQ(fast.faultStats.busFaults.value(),
              slow.faultStats.busFaults.value());
    EXPECT_EQ(fast.faultStats.chipKills.value(),
              slow.faultStats.chipKills.value());
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemesAllModels, FastPathDifferentialTest,
    ::testing::Combine(::testing::Values(EccScheme::None,
                                         EccScheme::SecDed,
                                         EccScheme::Ssc,
                                         EccScheme::SscDsd,
                                         EccScheme::Ssc32,
                                         EccScheme::Bamboo72),
                       ::testing::Values(FaultModel::Transient,
                                         FaultModel::StuckAt,
                                         FaultModel::Chipkill)));

} // namespace
} // namespace sam
