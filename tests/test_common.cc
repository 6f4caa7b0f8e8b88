/**
 * @file
 * Unit tests for the common infrastructure: bit ops, RNG, stats,
 * type helpers, and table printing.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "src/common/addr_map.hh"
#include "src/common/bitops.hh"
#include "src/common/logging.hh"
#include "src/common/random.hh"
#include "src/common/stats.hh"
#include "src/common/table_printer.hh"
#include "src/common/types.hh"

namespace sam {
namespace {

TEST(BitOps, ExtractBasic)
{
    EXPECT_EQ(bits(0xdeadbeefULL, 0, 8), 0xefu);
    EXPECT_EQ(bits(0xdeadbeefULL, 8, 8), 0xbeu);
    EXPECT_EQ(bits(0xdeadbeefULL, 4, 4), 0xeu);
    EXPECT_EQ(bits(0xffULL, 0, 0), 0u);
    EXPECT_EQ(bits(~0ULL, 0, 64), ~0ULL);
}

TEST(BitOps, InsertRoundTrips)
{
    const std::uint64_t base = 0x123456789abcdef0ULL;
    for (unsigned first = 0; first < 60; first += 7) {
        for (unsigned len = 1; len <= 4; ++len) {
            const std::uint64_t field = bits(base, first, len);
            const std::uint64_t out = insertBits(0, first, len, field);
            EXPECT_EQ(bits(out, first, len), field);
        }
    }
}

TEST(BitOps, InsertPreservesOtherBits)
{
    const std::uint64_t v = insertBits(~0ULL, 8, 8, 0);
    EXPECT_EQ(v, ~0ULL & ~0xff00ULL);
}

TEST(BitOps, Log2AndPow2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(4096), 12u);
    EXPECT_TRUE(isPowerOf2(64));
    EXPECT_FALSE(isPowerOf2(96));
    EXPECT_FALSE(isPowerOf2(0));
}

TEST(BitOps, Rounding)
{
    EXPECT_EQ(roundUp(65, 64), 128u);
    EXPECT_EQ(roundUp(64, 64), 64u);
    EXPECT_EQ(roundDown(127, 64), 64u);
    EXPECT_EQ(divCeil(10, 3), 4u);
    EXPECT_EQ(divCeil(9, 3), 3u);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer)
{
    Rng a(1), b(2);
    EXPECT_NE(a.next(), b.next());
}

TEST(Rng, BelowInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BetweenInclusive)
{
    Rng rng(7);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        const std::int64_t v = rng.between(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u); // all values hit
}

TEST(Rng, UniformCoversUnitInterval)
{
    Rng rng(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng rng(13);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.chance(0.25);
    EXPECT_NEAR(hits / 10000.0, 0.25, 0.02);
}

TEST(Stats, CounterAndAccum)
{
    Counter c;
    ++c;
    c += 5;
    EXPECT_EQ(c.value(), 6u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);

    Accum a;
    a += 1.5;
    a += 2.5;
    EXPECT_DOUBLE_EQ(a.value(), 4.0);
}

TEST(Stats, GroupDumpAndLookup)
{
    Counter reads;
    Accum energy;
    reads += 3;
    energy += 12.5;

    StatGroup group("mem");
    group.addCounter("reads", reads, "number of reads");
    group.addAccum("energy", energy);

    EXPECT_EQ(group.counterValue("reads"), 3u);
    EXPECT_DOUBLE_EQ(group.accumValue("energy"), 12.5);
    EXPECT_EQ(group.counterValue("missing"), 0u);

    std::ostringstream oss;
    group.dump(oss);
    EXPECT_NE(oss.str().find("mem.reads"), std::string::npos);
    EXPECT_NE(oss.str().find("number of reads"), std::string::npos);
}

TEST(Types, DesignNamesMatchPaper)
{
    EXPECT_EQ(designName(DesignKind::SamEn), "SAM-en");
    EXPECT_EQ(designName(DesignKind::GsDramEcc), "GS-DRAM-ecc");
    EXPECT_EQ(designName(DesignKind::RcNvmBit), "RC-NVM-bit");
}

TEST(Types, StrideGranularityGeometry)
{
    // Section 4.4: SSC -> 8-bit symbols -> 16B strided unit, G = 4;
    // SSC-DSD -> 4-bit -> 8B unit, G = 8; SSC-32 -> 16-bit -> 32B, G = 2.
    EXPECT_EQ(strideUnitBytes(EccScheme::Ssc), 16u);
    EXPECT_EQ(gatherFactor(EccScheme::Ssc), 4u);
    EXPECT_EQ(strideUnitBytes(EccScheme::SscDsd), 8u);
    EXPECT_EQ(gatherFactor(EccScheme::SscDsd), 8u);
    EXPECT_EQ(strideUnitBytes(EccScheme::Ssc32), 32u);
    EXPECT_EQ(gatherFactor(EccScheme::Ssc32), 2u);
}

// AddrMap against std::map under seeded insert / find / erase churn
// over a fixed key set.
void
addrMapChurn(const std::vector<Addr> &keys, unsigned ops,
             std::uint64_t seed)
{
    AddrMap<std::uint64_t> map;
    std::map<Addr, std::uint64_t> ref;
    Rng rng(seed);
    for (unsigned i = 0; i < ops; ++i) {
        const Addr k = keys[rng.below(keys.size())];
        switch (rng.below(4)) {
          case 0:
          case 1: {
            const std::uint64_t v = rng.next();
            auto [value, inserted] = map.tryEmplace(k, v);
            const bool ref_inserted = ref.emplace(k, v).second;
            ASSERT_EQ(inserted, ref_inserted);
            ASSERT_EQ(*value, ref[k]);
            *value += 1; // the pointer aliases the stored value
            ref[k] += 1;
            break;
          }
          case 2:
            ASSERT_EQ(map.erase(k), ref.erase(k) == 1);
            break;
          default: {
            const std::uint64_t *v = map.find(k);
            auto it = ref.find(k);
            ASSERT_EQ(v != nullptr, it != ref.end());
            if (v) {
                ASSERT_EQ(*v, it->second);
            }
          }
        }
        ASSERT_EQ(map.size(), ref.size());
    }
    for (Addr k : keys) {
        const std::uint64_t *v = map.find(k);
        auto it = ref.find(k);
        ASSERT_EQ(v != nullptr, it != ref.end()) << k;
        if (v) {
            EXPECT_EQ(*v, it->second);
        }
    }
}

// Runs of consecutive lines, some 1 GiB apart, so probe runs collide
// and the table grows from 16 slots through several doublings.
TEST(AddrMapTest, MatchesStdMapOnLineRuns)
{
    std::vector<Addr> keys;
    for (Addr hi = 0; hi < 3; ++hi) {
        for (Addr line = 0; line < 700; ++line)
            keys.push_back(line * kCachelineBytes | hi << 30);
    }
    addrMapChurn(keys, 60'000, 0xADD);
    AddrMap<int> map;
    EXPECT_THROW(map.tryEmplace(~Addr{0}, 1), std::logic_error);
}

// Twelve scattered lines keep the table at its 16 minimum slots and up
// to three-quarters full, so probe runs wrap around the table's end
// and erase shifts entries back across it.
TEST(AddrMapTest, MatchesStdMapWhenProbesWrap)
{
    Rng rng(0xADE);
    for (unsigned set = 0; set < 16; ++set) {
        std::vector<Addr> keys;
        for (unsigned i = 0; i < 12; ++i)
            keys.push_back((rng.next() >> 24) * kCachelineBytes);
        addrMapChurn(keys, 10'000, rng.next());
        if (HasFatalFailure())
            return;
    }
}

TEST(Logging, PanicThrows)
{
    EXPECT_THROW(panic("boom"), std::logic_error);
    EXPECT_THROW(fatal("bad config"), std::runtime_error);
}

TEST(Logging, AssertMacro)
{
    EXPECT_NO_THROW(sam_assert(1 + 1 == 2, "math"));
    EXPECT_THROW(sam_assert(false, "expected failure ", 42),
                 std::logic_error);
}

TEST(TablePrinter, AlignsColumns)
{
    TablePrinter tp;
    tp.header({"design", "speedup"});
    tp.row({"SAM-en", fmtNum(4.2)});
    tp.row({"baseline", fmtNum(1.0)});
    std::ostringstream oss;
    tp.print(oss);
    const std::string out = oss.str();
    EXPECT_NE(out.find("SAM-en"), std::string::npos);
    EXPECT_NE(out.find("4.20"), std::string::npos);
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TablePrinter, Formatting)
{
    EXPECT_EQ(fmtNum(3.14159, 3), "3.142");
    EXPECT_EQ(fmtPercent(0.072, 1), "7.2%");
}

} // namespace
} // namespace sam
