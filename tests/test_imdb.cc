/**
 * @file
 * Tests for the IMDB substrate: deterministic data generation, every
 * layout's addressing/materialization consistency, gather planning,
 * the Table 3 query definitions, and the executor's functional
 * equivalence with the pure reference executor.
 */

#include <gtest/gtest.h>

#include <set>
#include <tuple>
#include <vector>

#include "src/common/logging.hh"
#include "src/controller/address_mapping.hh"
#include "src/dram/data_path.hh"
#include "src/ecc/ecc_engine.hh"
#include "src/imdb/executor.hh"
#include "src/imdb/query.hh"
#include "src/imdb/table.hh"
#include "src/sim/table_cache.hh"

namespace sam {
namespace {

// --------------------------------------------------------------------
// Data generation
// --------------------------------------------------------------------

TEST(FieldValues, DeterministicAndBounded)
{
    for (std::uint64_t r = 0; r < 200; ++r) {
        for (unsigned f = 0; f < 16; ++f) {
            const auto v = fieldValue(r, f);
            EXPECT_LT(v, 1000u);
            EXPECT_EQ(v, fieldValue(r, f));
        }
    }
    EXPECT_NE(fieldValue(1, 2), fieldValue(2, 1));
}

TEST(FieldValues, SelectivityIsAccurate)
{
    const std::uint64_t t25 = selectivityThreshold(0.25);
    std::uint64_t hits = 0;
    const std::uint64_t n = 100000;
    for (std::uint64_t r = 0; r < n; ++r)
        hits += passesPredicate(r, 10, t25);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
    EXPECT_EQ(selectivityThreshold(1.0), 1000u);
    EXPECT_EQ(selectivityThreshold(0.0), 0u);
}

// --------------------------------------------------------------------
// Table layouts
// --------------------------------------------------------------------

class LayoutTest : public ::testing::TestWithParam<LayoutKind>
{
  protected:
    Geometry geom;
};

TEST_P(LayoutTest, FieldAddressesAreDisjoint)
{
    TableSchema sch{"T", 16, 512};
    Table t(sch, Addr{1} << 30, GetParam(), 8, geom);
    std::set<Addr> seen;
    for (std::uint64_t r = 0; r < sch.numRecords; ++r) {
        for (unsigned f = 0; f < sch.numFields; ++f) {
            const Addr a = t.fieldAddr(r, f);
            EXPECT_EQ(a % 8, 0u);
            EXPECT_TRUE(seen.insert(a).second)
                << "aliased rec " << r << " f " << f;
            EXPECT_GE(a, t.base());
            EXPECT_LT(a, t.base() + t.footprintBytes());
        }
    }
}

TEST_P(LayoutTest, MaterializeMatchesFieldAddr)
{
    // The layout inversion in buildLine() must agree with fieldAddr(),
    // and the snapshot's padding elision must keep every record line:
    // every field of an installed table snapshot reads back its
    // generated value.
    TableSchema sch{"T", 16, 512};
    Table t(sch, Addr{1} << 30, GetParam(), 8, geom);
    Table other(TableSchema{"U", 8, 256}, Addr{2} << 30, GetParam(), 8,
                geom);
    TableCache cache(1);
    DataPath dp(EccScheme::SscDsd);
    dp.store().install(cache.materialized(t, other, EccScheme::SscDsd));
    for (std::uint64_t r = 0; r < sch.numRecords; r += 7) {
        for (unsigned f = 0; f < sch.numFields; f += 3) {
            const Addr a = t.fieldAddr(r, f);
            const auto line = dp.readLine(a & ~Addr{63}).data;
            std::uint64_t v = 0;
            const unsigned off = static_cast<unsigned>(a % 64);
            for (int i = 7; i >= 0; --i)
                v = (v << 8) | line[off + i];
            ASSERT_EQ(v, fieldValue(r, f))
                << layoutName(GetParam()) << " rec " << r << " f " << f;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllLayouts, LayoutTest,
    ::testing::Values(LayoutKind::RowStore, LayoutKind::ColumnStore,
                      LayoutKind::SamAligned, LayoutKind::VerticalGroup,
                      LayoutKind::GsSegmented),
    [](const auto &info) {
        std::string name = layoutName(info.param);
        std::erase(name, '-');
        return name;
    });

// --------------------------------------------------------------------
// Table snapshots elide padding lines
// --------------------------------------------------------------------

/**
 * A small rank (4 banks, 64-row subarrays) so a VerticalGroup band is
 * 2 MiB and every slot of a snapshot can be checked. The schemas give
 * VerticalGroup a full band followed by a partial one, partial last
 * vertical runs, several column slots per row, and 32-byte records
 * that share a line.
 */
class SnapshotElisionTest
    : public ::testing::TestWithParam<std::tuple<LayoutKind, EccScheme>>
{
  protected:
    static Geometry smallRank()
    {
        Geometry g;
        g.ranks = 1;
        g.bankGroups = 2;
        g.banksPerGroup = 2;
        g.rowsPerBank = 64 * g.subarraysPerBank;
        return g;
    }

    const Geometry geom = smallRank();
    const Table ta{TableSchema{"Ta", 128, 2600}, Addr{1} << 30,
                   std::get<0>(GetParam()), 8, geom};
    const Table tb{TableSchema{"Tb", 4, 520}, Addr{2} << 30,
                   std::get<0>(GetParam()), 8, geom};
};

TEST_P(SnapshotElisionTest, EverySlotReadsTheEncodedTableLine)
{
    const auto [layout, scheme] = GetParam();
    TableCache cache(1);
    const auto snap = cache.materialized(ta, tb, scheme);
    const EccEngine ecc(scheme);
    const unsigned blob_bytes =
        kCachelineBytes + EccEngine::parityBytesFor(scheme);
    BackingStore store(blob_bytes);
    store.setParityEncoder(&ecc);
    store.install(snap);

    const std::uint64_t slots =
        (ta.footprintBytes() + tb.footprintBytes()) / kCachelineBytes;
    EXPECT_EQ(store.lineCount(), slots);
    ASSERT_EQ(snap->size(), slots);

    std::vector<std::uint8_t> line(kCachelineBytes);
    std::vector<std::uint8_t> ref(blob_bytes);
    const std::vector<std::uint8_t> zeros(blob_bytes, 0);
    Addr padding = kInvalidAddr;
    Addr data = kInvalidAddr;
    std::uint64_t record_lines = 0;
    for (const Table *t : {&ta, &tb}) {
        const std::vector<LineRun> runs = t->recordLineRuns();
        std::size_t run = 0;
        for (std::uint64_t i = 0; i < t->footprintBytes() / kCachelineBytes;
             ++i) {
            while (run < runs.size() &&
                   runs[run].first + runs[run].count <= i)
                ++run;
            const bool holds_records =
                run < runs.size() && runs[run].first <= i;
            const Addr addr = t->base() + i * kCachelineBytes;
            t->buildLine(i * kCachelineBytes, line.data());
            ecc.encodeLineInto(line.data(), ref.data());
            if (holds_records) {
                ++record_lines;
                if (data == kInvalidAddr)
                    data = addr;
            } else {
                ASSERT_EQ(ref, zeros) << "padding line " << i
                                      << " holds record bytes";
                if (padding == kInvalidAddr)
                    padding = addr;
            }
            ASSERT_EQ(store.readLine(addr), ref)
                << layoutName(layout) << " " << t->schema().name
                << " line " << i;
        }
    }

    // Only the record lines own arena bytes; layouts without padding
    // keep one arena slot per line.
    EXPECT_EQ(snap->arena.size(), record_lines * blob_bytes);
    const bool pads = layout == LayoutKind::VerticalGroup ||
                      layout == LayoutKind::ColumnStore;
    EXPECT_EQ(record_lines < slots, pads) << layoutName(layout);

    // Faults land on padding and data slots alike, on top of the
    // codeword the slot reads as.
    std::vector<std::uint8_t> mask(blob_bytes, 0);
    mask[3] = 0x10;
    mask[blob_bytes - 1] = 0x81;
    for (const Addr addr : {padding, data}) {
        if (addr == kInvalidAddr)
            continue;
        const Table &t = addr < tb.base() ? ta : tb;
        t.buildLine(addr - t.base(), line.data());
        ecc.encodeLineInto(line.data(), ref.data());
        for (unsigned b = 0; b < blob_bytes; ++b)
            ref[b] ^= mask[b];
        store.corruptLine(addr, mask);
        EXPECT_EQ(store.readLine(addr), ref) << "line " << addr;
    }
    EXPECT_EQ(padding != kInvalidAddr, pads) << layoutName(layout);
    EXPECT_EQ(store.lineCount(), slots);
}

INSTANTIATE_TEST_SUITE_P(
    AllLayouts, SnapshotElisionTest,
    ::testing::Combine(
        ::testing::Values(LayoutKind::RowStore, LayoutKind::ColumnStore,
                          LayoutKind::SamAligned,
                          LayoutKind::VerticalGroup,
                          LayoutKind::GsSegmented),
        ::testing::Values(EccScheme::None, EccScheme::SscDsd)),
    [](const auto &info) {
        std::string name = layoutName(std::get<0>(info.param)) + "_" +
                           eccSchemeName(std::get<1>(info.param));
        std::erase(name, '-');
        return name;
    });

TEST(TableTest, GatherPlanCoversAllRecordsOfGroup)
{
    Geometry geom;
    TableSchema sch{"Ta", 128, 1024};
    for (LayoutKind layout :
         {LayoutKind::SamAligned, LayoutKind::VerticalGroup,
          LayoutKind::GsSegmented}) {
        Table t(sch, Addr{1} << 30, layout, 8, geom);
        ASSERT_TRUE(t.strideUsable());
        for (std::uint64_t g = 0; g < 8; ++g) {
            const auto plan = t.gatherPlan(g, 10, 8);
            ASSERT_EQ(plan.lines.size(), 8u);
            for (unsigned i = 0; i < 8; ++i) {
                // The chunk of record g*8+i must live in line i of the
                // plan at the plan's sector.
                const Addr want = t.fieldAddr(g * 8 + i, 10);
                EXPECT_EQ(plan.lines[i], want & ~Addr{63})
                    << layoutName(layout);
                EXPECT_EQ(plan.sector,
                          static_cast<unsigned>((want % 64) / 8))
                    << layoutName(layout);
            }
        }
    }
}

TEST(TableTest, SamAlignedGatherStaysInOneRow)
{
    Geometry geom;
    TableSchema sch{"Ta", 128, 1024};
    Table t(sch, Addr{1} << 30, LayoutKind::SamAligned, 8, geom);
    for (std::uint64_t g = 0; g < t.numGroups(); g += 13) {
        const auto plan = t.gatherPlan(g, 3, 8);
        const Addr row0 = plan.lines[0] / geom.rowBytes;
        for (Addr l : plan.lines)
            EXPECT_EQ(l / geom.rowBytes, row0);
    }
}

TEST(TableTest, VerticalGroupGatherSpansRowsOfOneBank)
{
    // The gather's source lines sit in G *consecutive rows of one
    // physical bank* -- the column-wise subarray requirement.
    Geometry geom;
    AddressMapping map(geom);
    TableSchema sch{"Ta", 128, 4096};
    Table t(sch, Addr{1} << 30, LayoutKind::VerticalGroup, 8, geom);
    const auto plan = t.gatherPlan(3, 7, 8);
    const MappedAddr first = map.decompose(plan.lines[0]);
    for (unsigned i = 1; i < 8; ++i) {
        const MappedAddr m = map.decompose(plan.lines[i]);
        EXPECT_TRUE(m.sameBank(first)) << i;
        EXPECT_EQ(m.row, first.row + i);
        EXPECT_EQ(m.column, first.column);
    }
}

TEST(TableTest, StrideUsableRules)
{
    Geometry geom;
    TableSchema wide{"T", 128, 512};   // 1KB records
    TableSchema narrow{"T", 4, 512};   // 32B records
    EXPECT_TRUE(Table(wide, Addr{1} << 30, LayoutKind::SamAligned, 8,
                      geom)
                    .strideUsable());
    EXPECT_FALSE(Table(narrow, Addr{1} << 30, LayoutKind::SamAligned, 8,
                       geom)
                     .strideUsable());
    EXPECT_FALSE(Table(wide, Addr{1} << 30, LayoutKind::RowStore, 8,
                       geom)
                     .strideUsable());
    EXPECT_TRUE(Table(narrow, Addr{1} << 30, LayoutKind::VerticalGroup,
                      8, geom)
                    .strideUsable());
}

TEST(TableTest, InvalidConfigsRejected)
{
    Geometry geom;
    TableSchema sch{"T", 16, 512};
    EXPECT_THROW(Table(sch, 0x123, LayoutKind::RowStore, 8, geom),
                 std::logic_error); // unaligned base
    TableSchema odd{"T", 16, 513};  // not a gather multiple
    EXPECT_THROW(Table(odd, Addr{1} << 30, LayoutKind::RowStore, 8,
                       geom),
                 std::logic_error);
}

// --------------------------------------------------------------------
// Query definitions (Table 3)
// --------------------------------------------------------------------

TEST(QueryDefs, TwelveQQueriesMatchTable3)
{
    const auto qs = benchmarkQQueries();
    ASSERT_EQ(qs.size(), 12u);
    EXPECT_EQ(qs[0].name, "Q1");
    EXPECT_EQ(qs[0].fields, (std::vector<unsigned>{3, 4}));
    EXPECT_EQ(qs[1].kind, QueryKind::SelectStar);
    EXPECT_LT(qs[1].selectivity, 0.05); // "f10 > x mostly false"
    EXPECT_EQ(qs[6].kind, QueryKind::Join);
    EXPECT_TRUE(qs[6].joinExtraFilter);  // Q7
    EXPECT_FALSE(qs[7].joinExtraFilter); // Q8
    EXPECT_TRUE(qs[8].hasPredicate2);    // Q9
    EXPECT_EQ(qs[10].kind, QueryKind::Update); // Q11
    for (const auto &q : qs)
        EXPECT_FALSE(q.rowPreferred);
}

TEST(QueryDefs, SixQsQueriesPreferRowStore)
{
    const auto qs = benchmarkQsQueries();
    ASSERT_EQ(qs.size(), 6u);
    EXPECT_EQ(qs[0].limit, 1024u);
    EXPECT_EQ(qs[4].kind, QueryKind::Insert);
    for (const auto &q : qs)
        EXPECT_TRUE(q.rowPreferred);
}

TEST(QueryDefs, ArithAndAggrParameterisation)
{
    const Query arith = arithQuery(8, 0.4, 128);
    EXPECT_EQ(arith.fields.size(), 8u);
    EXPECT_TRUE(arith.recordMajor);
    EXPECT_FALSE(arith.fieldMajor);
    EXPECT_DOUBLE_EQ(arith.selectivity, 0.4);
    for (unsigned f : arith.fields) {
        EXPECT_NE(f, 0u); // predicate field not projected
        EXPECT_LT(f, 128u);
    }

    const Query aggr = aggrQuery(128, 1.0, 128);
    EXPECT_EQ(aggr.fields.size(), 128u); // full projectivity
    EXPECT_TRUE(aggr.fieldMajor);
    EXPECT_FALSE(aggr.recordMajor);
}

TEST(QueryDefs, ReferenceResultsAreConsistent)
{
    const TableSchema ta{"Ta", 128, 1024};
    const TableSchema tb{"Tb", 16, 1024};
    for (const auto &q : benchmarkQQueries()) {
        const auto r = referenceResult(q, ta, tb);
        if (q.kind != QueryKind::Join) {
            EXPECT_GT(r.rows, 0u) << q.name;
        }
        // Re-running gives identical results (pure function).
        EXPECT_TRUE(r == referenceResult(q, ta, tb)) << q.name;
    }
}

TEST(QueryDefs, ReferenceSelectivityScalesRows)
{
    const TableSchema ta{"Ta", 128, 4096};
    const TableSchema tb{"Tb", 16, 4096};
    Query q = benchmarkQQueries()[0]; // Q1, sel 0.25
    const auto r25 = referenceResult(q, ta, tb);
    q.selectivity = 0.5;
    const auto r50 = referenceResult(q, ta, tb);
    EXPECT_GT(r50.rows, r25.rows);
    EXPECT_NEAR(static_cast<double>(r25.rows) / 4096.0, 0.25, 0.02);
    EXPECT_NEAR(static_cast<double>(r50.rows) / 4096.0, 0.50, 0.02);
}

} // namespace
} // namespace sam
