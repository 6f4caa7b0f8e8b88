/**
 * @file
 * Seeded differential fuzzing. A deterministic generator draws random
 * queries (all kinds, random fields, predicates, selectivities, limits)
 * and random ECC schemes, then every design executes the same sequence
 * with the protocol-checker oracle armed (SimConfig::check, on by
 * default, panics the run on any DDR timing/state violation). Results
 * are compared against the pure functional reference executor, and
 * across designs, so a divergence pinpoints the offending design and
 * query shape from the seed alone.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/random.hh"
#include "src/ecc/ecc_engine.hh"
#include "src/imdb/executor.hh"
#include "src/imdb/query.hh"
#include "src/sim/system.hh"

namespace sam {
namespace {

SimConfig
fuzzConfig()
{
    SimConfig cfg;
    cfg.taRecords = 512;
    cfg.tbRecords = 512;
    return cfg;
}

std::vector<unsigned>
randomFields(Rng &rng, unsigned num_fields, unsigned max_take)
{
    const unsigned take = 1 + static_cast<unsigned>(rng.below(max_take));
    std::vector<unsigned> fields;
    for (unsigned i = 0; i < take; ++i) {
        const unsigned f = static_cast<unsigned>(rng.below(num_fields));
        bool dup = false;
        for (unsigned g : fields)
            dup = dup || g == f;
        if (!dup)
            fields.push_back(f);
    }
    return fields;
}

double
randomSelectivity(Rng &rng)
{
    // Includes the degenerate 0%/100% endpoints worth fuzzing.
    static constexpr double kChoices[] = {0.0, 0.05, 0.25, 0.5,
                                          0.75, 0.95, 1.0};
    return kChoices[rng.below(std::size(kChoices))];
}

/**
 * One random query. The generator only promises queries that are legal
 * against the fuzzConfig() schemas (field indices in range).
 */
Query
randomQuery(Rng &rng, unsigned trial, const SimConfig &cfg)
{
    Query q;
    q.name = "fuzz" + std::to_string(trial);
    q.table = rng.below(2) ? TableRef::Tb : TableRef::Ta;
    const unsigned num_fields =
        q.table == TableRef::Ta ? cfg.taFields : cfg.tbFields;

    switch (rng.below(6)) {
      case 0:
        q.kind = QueryKind::Select;
        q.fields = randomFields(rng, num_fields, 8);
        break;
      case 1:
        q.kind = QueryKind::SelectStar;
        q.limit = rng.below(2) ? 1 + rng.below(64) : 0;
        break;
      case 2:
        q.kind = QueryKind::Aggregate;
        q.fields = randomFields(rng, num_fields, 4);
        q.fieldMajor = rng.below(2) != 0;
        break;
      case 3:
        q.kind = QueryKind::Update;
        q.fields = randomFields(rng, num_fields, 4);
        break;
      case 4:
        q.kind = QueryKind::Insert;
        q.table = TableRef::Tb; // inserts target the narrow table
        q.insertCount = 1 + rng.below(64);
        break;
      default: {
        q.kind = QueryKind::Join;
        q.table = TableRef::Ta;
        // The join checksum projects fields[0] from Ta and fields[1]
        // from Tb, so exactly two in-range-for-both fields are needed.
        const unsigned fa = static_cast<unsigned>(rng.below(cfg.tbFields));
        const unsigned fb = static_cast<unsigned>(rng.below(cfg.tbFields));
        q.fields = {fa, fb};
        q.joinField = static_cast<unsigned>(rng.below(cfg.tbFields));
        q.joinSelectivity = randomSelectivity(rng);
        q.joinExtraFilter = rng.below(2) != 0;
        break;
      }
    }

    if (q.kind != QueryKind::Insert && q.kind != QueryKind::Join &&
        rng.below(4) != 0) {
        q.hasPredicate = true;
        q.predField = static_cast<unsigned>(rng.below(num_fields));
        q.selectivity = randomSelectivity(rng);
        if (rng.below(4) == 0) {
            q.hasPredicate2 = true;
            q.predField2 = static_cast<unsigned>(rng.below(num_fields));
            q.selectivity2 = randomSelectivity(rng);
        }
    }
    if (rng.below(4) == 0)
        q.rowPreferred = true;
    return q;
}

EccScheme
randomScheme(Rng &rng)
{
    static constexpr EccScheme kSchemes[] = {
        EccScheme::None,   EccScheme::SecDed, EccScheme::Ssc,
        EccScheme::SscDsd, EccScheme::Ssc32,  EccScheme::Bamboo72,
    };
    return kSchemes[rng.below(std::size(kSchemes))];
}

std::string
ident(const std::string &s)
{
    std::string out = s;
    std::erase(out, '-');
    return out;
}

class FuzzDesignTest : public ::testing::TestWithParam<DesignKind>
{
};

TEST_P(FuzzDesignTest, RandomQueriesMatchReferenceUnderChecker)
{
    // One seed drives both the query shapes and the ECC scheme, so the
    // identical sequence replays on every design (and in isolation when
    // a failure needs debugging). check=true means the protocol oracle
    // re-validates the full command stream of each run and panics --
    // i.e. fails this test -- on any timing violation.
    Rng rng(0xf0220 + 1); // same stream for every design
    SimConfig cfg = fuzzConfig();
    cfg.design = GetParam();
    cfg.ecc = randomScheme(rng);
    System sys(cfg);
    ASSERT_TRUE(cfg.check);

    for (unsigned trial = 0; trial < 10; ++trial) {
        const Query q = randomQuery(rng, trial, cfg);
        const RunStats r = sys.runQuery(q);
        const QueryResult expect =
            referenceResult(q, sys.taSchema(), sys.tbSchema());
        ASSERT_TRUE(r.result == expect)
            << designName(GetParam()) << " trial " << trial << " kind "
            << static_cast<int>(q.kind) << ": rows " << r.result.rows
            << "/" << expect.rows << " agg " << r.result.aggregate << "/"
            << expect.aggregate << " cksum " << r.result.checksum << "/"
            << expect.checksum;
        EXPECT_GT(r.cycles, 0u) << q.name;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllDesigns, FuzzDesignTest,
    ::testing::Values(DesignKind::Baseline, DesignKind::RcNvmBit,
                      DesignKind::RcNvmWord, DesignKind::GsDram,
                      DesignKind::GsDramEcc, DesignKind::SamSub,
                      DesignKind::SamIo, DesignKind::SamEn,
                      DesignKind::Ideal),
    [](const auto &info) { return ident(designName(info.param)); });

TEST(FuzzDifferential, AllDesignsAgreeOnTheSameRandomSequence)
{
    // Cross-design differential check: the *simulated* machines differ
    // wildly (layouts, gathers, codeword reassembly, caches) but the
    // data they return must be bit-identical.
    static constexpr DesignKind kDesigns[] = {
        DesignKind::Baseline, DesignKind::RcNvmBit, DesignKind::RcNvmWord,
        DesignKind::GsDram,   DesignKind::GsDramEcc, DesignKind::SamSub,
        DesignKind::SamIo,    DesignKind::SamEn,    DesignKind::Ideal,
    };

    for (unsigned round = 0; round < 3; ++round) {
        std::vector<QueryResult> results;
        for (DesignKind design : kDesigns) {
            Rng rng(0xd1ff + round); // same stream for every design
            SimConfig cfg = fuzzConfig();
            cfg.design = design;
            cfg.ecc = randomScheme(rng);
            System sys(cfg);
            const Query q = randomQuery(rng, round, cfg);
            results.push_back(sys.runQuery(q).result);
        }
        for (std::size_t i = 1; i < results.size(); ++i) {
            EXPECT_TRUE(results[i] == results[0])
                << "round " << round << ": " << designName(kDesigns[i])
                << " diverges from " << designName(kDesigns[0]);
        }
    }
}

// --------------------------------------------------------------------
// Random system shapes: random design/geometry/fault configs replay
// to pinned cycles under the protocol checker
// --------------------------------------------------------------------

/**
 * One random system shape: design, ECC scheme, core count and MSHR
 * depth (the knobs the replay loop schedules around), table
 * geometry, cache scale, and a random fault model -- including
 * chipkill at a random cycle T.
 */
SimConfig
randomSystemConfig(Rng &rng)
{
    SimConfig cfg;
    static constexpr DesignKind kDesigns[] = {
        DesignKind::Baseline, DesignKind::RcNvmBit, DesignKind::RcNvmWord,
        DesignKind::GsDram,   DesignKind::GsDramEcc, DesignKind::SamSub,
        DesignKind::SamIo,    DesignKind::SamEn,    DesignKind::Ideal,
    };
    cfg.design = kDesigns[rng.below(std::size(kDesigns))];
    cfg.ecc = randomScheme(rng);
    cfg.cores = 1 + static_cast<unsigned>(rng.below(8));
    cfg.mshrsPerCore = 1 + static_cast<unsigned>(rng.below(16));
    // Multiples of 256 keep every design's gather factor dividing the
    // record count (a materialization precondition).
    cfg.taRecords = 256 * (1 + rng.below(3));
    cfg.tbRecords = 256 * (1 + rng.below(3));
    if (rng.below(2)) {
        // Tiny caches force far more replay traffic per query.
        cfg.caches.l1 = CacheParams{4 * 1024, 2, 64, 1};
        cfg.caches.l2 = CacheParams{16 * 1024, 4, 64, 2};
        cfg.caches.llc = CacheParams{64 * 1024, 8, 64, 4};
    }
    switch (rng.below(4)) {
      case 0:
        break; // no fault source
      case 1:
        cfg.faults.model = FaultModel::Transient;
        break;
      case 2:
        cfg.faults.model = FaultModel::StuckAt;
        break;
      default:
        cfg.faults.model = FaultModel::Chipkill;
        cfg.faults.chipkillAt = 10 + rng.below(500);
        cfg.faults.chipkillChip = static_cast<unsigned>(rng.below(18));
        break;
    }
    return cfg;
}

/** One random system shape's pinned replay outcome. */
struct ShapePin
{
    Cycle cycles;
    std::uint64_t checkedCommands;
};

/**
 * Shape k of a seed set: Rng(seedBase + k) draws the system shape and
 * then query k.
 */
struct ShapeCase
{
    std::uint64_t seedBase;
    unsigned k;
    ShapePin pin;
};

template <std::size_t N>
std::vector<ShapeCase>
shapeCases(std::uint64_t seed_base, const ShapePin (&pins)[N])
{
    std::vector<ShapeCase> cases;
    for (unsigned k = 0; k < N; ++k)
        cases.push_back({seed_base, k, pins[k]});
    return cases;
}

constexpr ShapePin kRandomConfigPins[] = {
    {37040, 2017},
    {16193, 763},
    {10898, 1895},
    {1299, 296},
    {11358, 1776},
    {47727, 7543},
    {1492, 89},
    {40310, 1935},
    {15373, 767},
    {6481, 970},
    {3067, 483},
    {615, 101},
};

// The chaos harness's seed convention (0xc405 + k) drives its
// kill-point schedule; the configs it replays are pinned too.
constexpr ShapePin kChaosSeedPins[] = {
    {1549, 352},
    {3153, 632},
    {15634, 2987},
    {1683, 101},
};

/**
 * Run one seed's shape once, protocol checker armed, and compare its
 * cycles and checked-command count with the pin. These are the only
 * tests that vary cores, MSHR depth, and cache size, the knobs that
 * decide how often the replay loop's MSHR-stall skip fires. Fresh
 * System per shape: fault injectors and RAS logs are stateful.
 */
class FuzzSystemShapes : public ::testing::TestWithParam<ShapeCase>
{
};

TEST_P(FuzzSystemShapes, MatchesPinUnderChecker)
{
    const ShapeCase &c = GetParam();
    Rng rng(c.seedBase + c.k);
    const SimConfig shape = randomSystemConfig(rng);
    const Query q = randomQuery(rng, c.k, shape);
    ASSERT_TRUE(shape.check);
    System sys(shape);
    const RunStats rs = sys.runQuery(q);
    EXPECT_TRUE(rs.cycles == c.pin.cycles &&
                rs.checkedCommands == c.pin.checkedCommands)
        << "seed 0x" << std::hex << c.seedBase + c.k << std::dec << " "
        << designName(shape.design) << " cores=" << shape.cores
        << " mshrs=" << shape.mshrsPerCore << " fault="
        << static_cast<int>(shape.faults.model) << ": pinned {"
        << c.pin.cycles << ", " << c.pin.checkedCommands << "}, actual {"
        << rs.cycles << ", " << rs.checkedCommands << "}";
}

/** Names a case by its seed, e.g. seed_e7e, so a failure replays. */
std::string
seedName(const ::testing::TestParamInfo<ShapeCase> &info)
{
    std::ostringstream os;
    os << "seed_" << std::hex << info.param.seedBase + info.param.k;
    return os.str();
}

INSTANTIATE_TEST_SUITE_P(RandomConfigs, FuzzSystemShapes,
                         ::testing::ValuesIn(shapeCases(
                             0xe7e, kRandomConfigPins)),
                         seedName);

INSTANTIATE_TEST_SUITE_P(ChaosSeeds, FuzzSystemShapes,
                         ::testing::ValuesIn(shapeCases(
                             0xc405, kChaosSeedPins)),
                         seedName);

TEST(FuzzDifferential, SequenceIsDeterministicAcrossRuns)
{
    // The same seed must reproduce the same queries and the same
    // simulated timing -- the property that makes fuzz failures
    // replayable from their seed.
    auto once = [] {
        Rng rng(0xbeef);
        SimConfig cfg = fuzzConfig();
        cfg.design = DesignKind::SamEn;
        System sys(cfg);
        std::vector<Cycle> cycles;
        for (unsigned trial = 0; trial < 3; ++trial)
            cycles.push_back(sys.runQuery(randomQuery(rng, trial, cfg))
                                 .cycles);
        return cycles;
    };
    EXPECT_EQ(once(), once());
}

} // namespace
} // namespace sam
