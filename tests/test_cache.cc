/**
 * @file
 * Unit tests for the sector cache and the three-level hierarchy:
 * sector valid/dirty tracking, LRU eviction, exclusive promotion,
 * stride fills, write-through sstores, write-combining allocation,
 * dirty-data coherence between the cache and memory, and the poison
 * state that travels with fetched data.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>

#include "src/cache/hierarchy.hh"
#include "src/cache/sector_cache.hh"
#include "src/common/random.hh"

namespace sam {
namespace {

std::vector<std::uint8_t>
pattern(std::uint8_t tag)
{
    std::vector<std::uint8_t> v(kCachelineBytes);
    for (unsigned i = 0; i < kCachelineBytes; ++i)
        v[i] = static_cast<std::uint8_t>(tag + i);
    return v;
}

// --------------------------------------------------------------------
// SectorCache
// --------------------------------------------------------------------

TEST(SectorCacheTest, MaskForCoversSpans)
{
    SectorCache cache({1024, 2, 16, 1});
    EXPECT_EQ(cache.sectorsPerLine(), 4u);
    EXPECT_EQ(cache.fullMask(), 0x0f);
    EXPECT_EQ(cache.maskFor(0, 8), 0x1);
    EXPECT_EQ(cache.maskFor(16, 16), 0x2);
    EXPECT_EQ(cache.maskFor(8, 16), 0x3);  // straddles sectors 0-1
    EXPECT_EQ(cache.maskFor(0, 64), 0x0f);
}

TEST(SectorCacheTest, MissThenFillThenHit)
{
    SectorCache cache({1024, 2, 16, 1});
    EXPECT_FALSE(cache.lookup(0x100, 0x1));
    const auto data = pattern(1);
    EXPECT_FALSE(cache.fill(0x100, 0x0f, data.data(), false));
    EXPECT_TRUE(cache.lookup(0x100, 0x0f));
    EXPECT_EQ(cache.stats().hits.value(), 1u);
    EXPECT_EQ(cache.stats().misses.value(), 1u);
}

TEST(SectorCacheTest, SectorMissOnPartialLine)
{
    SectorCache cache({1024, 2, 16, 1});
    const auto data = pattern(2);
    cache.fill(0x200, 0x2, data.data(), false); // only sector 1 valid
    EXPECT_TRUE(cache.lookup(0x200, 0x2));
    EXPECT_FALSE(cache.lookup(0x200, 0x1)); // sector 0 invalid
    EXPECT_EQ(cache.stats().sectorMisses.value(), 1u);
}

TEST(SectorCacheTest, ReadBytesReturnsFilledData)
{
    SectorCache cache({1024, 2, 16, 1});
    const auto data = pattern(3);
    cache.fill(0x300, 0x0f, data.data(), false);
    std::uint8_t out[8];
    cache.readBytes(0x300, 24, 8, out);
    EXPECT_EQ(0, std::memcmp(out, data.data() + 24, 8));
}

TEST(SectorCacheTest, WriteBytesSetsDirty)
{
    SectorCache cache({1024, 2, 16, 1});
    const auto data = pattern(4);
    cache.fill(0x400, 0x0f, data.data(), false);
    const std::uint8_t v[8] = {9, 9, 9, 9, 9, 9, 9, 9};
    cache.writeBytes(0x400, 16, 8, v);
    auto wb = cache.extract(0x400);
    ASSERT_TRUE(wb.has_value());
    EXPECT_EQ(wb->dirtyMask, 0x2);
    EXPECT_EQ(wb->data[16], 9);
}

TEST(SectorCacheTest, LruEvictsOldest)
{
    // 2-way, sector 64 (plain): two lines per set.
    SectorCache cache({128, 2, 64, 1});
    const auto d = pattern(0);
    cache.fill(0x0, 0x1, d.data(), false);
    cache.fill(0x80, 0x1, d.data(), false); // same set (2 sets of 2)
    cache.lookup(0x0, 0x1);                 // touch first
    // Insert third line into set 0: must evict 0x80 (LRU).
    cache.fill(0x100, 0x1, d.data(), false);
    EXPECT_TRUE(cache.lookup(0x0, 0x1));
    EXPECT_FALSE(cache.lookup(0x80, 0x1));
    EXPECT_EQ(cache.stats().evictions.value(), 1u);
}

TEST(SectorCacheTest, DirtyEvictionReturnsVictim)
{
    SectorCache cache({128, 2, 64, 1});
    const auto d = pattern(7);
    cache.fill(0x0, 0x1, d.data(), true);
    cache.fill(0x80, 0x1, d.data(), false);
    const auto victim = cache.fill(0x100, 0x1, d.data(), false);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->line, 0x0u);
    EXPECT_EQ(victim->dirtyMask, 0x1);
    EXPECT_EQ(cache.stats().dirtyEvictions.value(), 1u);
}

TEST(SectorCacheTest, MergeFillCombinesSectors)
{
    SectorCache cache({1024, 2, 16, 1});
    const auto a = pattern(1);
    const auto b = pattern(0x81);
    cache.fill(0x500, 0x1, a.data(), false);
    cache.fill(0x500, 0x4, b.data(), true);
    EXPECT_TRUE(cache.lookup(0x500, 0x5));
    auto wb = cache.extract(0x500);
    ASSERT_TRUE(wb.has_value());
    EXPECT_EQ(wb->validMask, 0x5);
    EXPECT_EQ(wb->dirtyMask, 0x4);
    EXPECT_EQ(wb->data[0], a[0]);
    EXPECT_EQ(wb->data[32], b[32]);
}

TEST(SectorCacheTest, FlushReturnsOnlyDirtyLines)
{
    SectorCache cache({1024, 4, 16, 1});
    const auto d = pattern(5);
    cache.fill(0x600, 0x0f, d.data(), false);
    cache.fill(0x640, 0x0f, d.data(), true);
    std::vector<Writeback> out;
    cache.flush(out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].line, 0x640u);
    EXPECT_FALSE(cache.lookup(0x600, 0x1)); // emptied
}

// --------------------------------------------------------------------
// CacheHierarchy with a scripted backend
// --------------------------------------------------------------------

class RecordingBackend : public MemBackend
{
  public:
    bool
    fetchLine(Addr line, std::uint8_t *out64) override
    {
        ++fetches;
        auto it = memory.find(line);
        if (it != memory.end())
            std::memcpy(out64, it->second.data(), kCachelineBytes);
        else
            std::memset(out64, 0, kCachelineBytes);
        return poisonedLines.count(line) != 0;
    }

    std::uint32_t
    fetchStride(const GatherPlan &plan, std::uint8_t *out64) override
    {
        ++strideFetches;
        const unsigned unit =
            kCachelineBytes / static_cast<unsigned>(plan.lines.size());
        std::uint8_t line[kCachelineBytes];
        std::uint32_t poison = 0;
        for (std::size_t i = 0; i < plan.lines.size(); ++i) {
            if (fetchLine(plan.lines[i], line))
                poison |= std::uint32_t{1} << i;
            --fetches; // internal
            std::memcpy(out64 + i * unit, line + plan.sector * unit,
                        unit);
        }
        return poison;
    }

    void
    writeback(const Writeback &wb) override
    {
        ++writebacks;
        auto &line = memory[wb.line];
        if (line.empty())
            line.assign(kCachelineBytes, 0);
        // Apply only dirty sectors (sector size known by test).
        for (unsigned s = 0; s < 8; ++s) {
            if (wb.dirtyMask & (1u << s)) {
                std::memcpy(line.data() + s * 8, wb.data.data() + s * 8,
                            8);
            }
        }
    }

    void
    writeStride(const GatherPlan &plan,
                const std::uint8_t *line64) override
    {
        ++strideWrites;
        const unsigned unit =
            kCachelineBytes / static_cast<unsigned>(plan.lines.size());
        for (std::size_t i = 0; i < plan.lines.size(); ++i) {
            auto &line = memory[plan.lines[i]];
            if (line.empty())
                line.assign(kCachelineBytes, 0);
            std::memcpy(line.data() + plan.sector * unit,
                        line64 + i * unit, unit);
        }
    }

    std::map<Addr, std::vector<std::uint8_t>> memory;
    /** Lines whose fetches come back RAS-poisoned. */
    std::set<Addr> poisonedLines;
    unsigned fetches = 0;
    unsigned strideFetches = 0;
    unsigned writebacks = 0;
    unsigned strideWrites = 0;
};

class HierarchyTest : public ::testing::Test
{
  protected:
    HierarchyTest()
        : hier({1024, 2, 8, 1}, {4096, 4, 8, 2}, {16384, 8, 8, 4},
               backend)
    {
    }

    std::uint8_t
    backendByte(Addr addr)
    {
        const Addr line = addr & ~Addr{63};
        auto it = backend.memory.find(line);
        if (it == backend.memory.end())
            return 0;
        return it->second[addr - line];
    }

    RecordingBackend backend;
    CacheHierarchy hier;
};

TEST_F(HierarchyTest, ReadMissFetchesOnceThenHits)
{
    backend.memory[0x1000] = pattern(0x10);
    std::uint8_t out[8];
    auto r1 = hier.read(0x1008, 8, out);
    EXPECT_TRUE(r1.memTouched);
    EXPECT_EQ(out[0], 0x18);
    auto r2 = hier.read(0x1010, 8, out);
    EXPECT_FALSE(r2.memTouched); // full-line fill covers all sectors
    EXPECT_EQ(backend.fetches, 1u);
}

TEST_F(HierarchyTest, WriteReadBackThroughCache)
{
    const std::uint8_t v[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    hier.write(0x2000, v, 8); // sector-aligned: no fetch
    EXPECT_EQ(backend.fetches, 0u);
    std::uint8_t out[8];
    hier.read(0x2000, 8, out);
    EXPECT_EQ(0, std::memcmp(out, v, 8));
}

TEST_F(HierarchyTest, PartialSectorWriteFetchesLine)
{
    backend.memory[0x3000] = pattern(0x30);
    const std::uint8_t v[4] = {9, 9, 9, 9};
    hier.write(0x3002, v, 4); // sub-sector: read-for-ownership
    EXPECT_EQ(backend.fetches, 1u);
    std::uint8_t out[8];
    hier.read(0x3000, 8, out);
    EXPECT_EQ(out[0], 0x30);
    EXPECT_EQ(out[2], 9);
}

TEST_F(HierarchyTest, FlushWritesDirtyDataBack)
{
    const std::uint8_t v[8] = {0xaa, 0xbb, 0xcc, 0xdd, 1, 2, 3, 4};
    hier.write(0x4000, v, 8);
    hier.flush();
    EXPECT_GE(backend.writebacks, 1u);
    ASSERT_TRUE(backend.memory.count(0x4000));
    EXPECT_EQ(backend.memory[0x4000][0], 0xaa);
}

TEST_F(HierarchyTest, StrideReadFillsSectors)
{
    GatherPlan plan;
    for (unsigned i = 0; i < 8; ++i) {
        const Addr a = 0x8000 + i * 64ull;
        backend.memory[a] = pattern(static_cast<std::uint8_t>(i));
        plan.lines.push_back(a);
    }
    plan.sector = 3;
    std::uint8_t out[kCachelineBytes];
    auto r = hier.strideRead(plan, 8, out);
    EXPECT_TRUE(r.memTouched);
    EXPECT_EQ(backend.strideFetches, 1u);
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_EQ(out[i * 8], static_cast<std::uint8_t>(i + 24));

    // Second stride read over the same chunks: all sectors cached.
    auto r2 = hier.strideRead(plan, 8, out);
    EXPECT_FALSE(r2.memTouched);
}

TEST_F(HierarchyTest, StrideReadHonoursDirtierCache)
{
    GatherPlan plan;
    for (unsigned i = 0; i < 8; ++i) {
        const Addr a = 0x9000 + i * 64ull;
        backend.memory[a] = pattern(0);
        plan.lines.push_back(a);
    }
    plan.sector = 0;
    // Dirty sector 0 of line 2 in the cache (newer than memory).
    const std::uint8_t v[8] = {0x77, 0x77, 0x77, 0x77, 0x77, 0x77,
                               0x77, 0x77};
    hier.write(0x9000 + 2 * 64, v, 8);
    std::uint8_t out[kCachelineBytes];
    hier.strideRead(plan, 8, out);
    EXPECT_EQ(out[2 * 8], 0x77); // cache wins
    EXPECT_EQ(out[3 * 8], 0x00); // memory elsewhere
}

TEST_F(HierarchyTest, StrideWriteGoesThroughImmediately)
{
    GatherPlan plan;
    for (unsigned i = 0; i < 8; ++i)
        plan.lines.push_back(0xa000 + i * 64ull);
    plan.sector = 2;
    std::uint8_t line[kCachelineBytes];
    for (unsigned i = 0; i < kCachelineBytes; ++i)
        line[i] = static_cast<std::uint8_t>(i);
    hier.strideWrite(plan, 8, line);
    EXPECT_EQ(backend.strideWrites, 1u);
    // Memory has the scattered chunks already (write-through).
    for (unsigned i = 0; i < 8; ++i) {
        ASSERT_TRUE(backend.memory.count(plan.lines[i]));
        EXPECT_EQ(backend.memory[plan.lines[i]][2 * 8],
                  static_cast<std::uint8_t>(i * 8));
    }
    // And the cached copies are clean: flushing writes nothing more.
    const unsigned wb_before = backend.writebacks;
    hier.flush();
    EXPECT_EQ(backend.writebacks, wb_before);
}

TEST_F(HierarchyTest, WriteAllocateSkipsFetch)
{
    const std::uint8_t v[8] = {5, 5, 5, 5, 5, 5, 5, 5};
    hier.writeAllocate(0xb000, v, 8);
    EXPECT_EQ(backend.fetches, 0u);
    std::uint8_t out[8];
    hier.read(0xb000, 8, out);
    EXPECT_EQ(out[0], 5);
    // Unwritten bytes of the allocated line read as zero.
    hier.read(0xb008, 8, out);
    EXPECT_EQ(out[0], 0);
}

TEST_F(HierarchyTest, EvictionCascadesThroughLevels)
{
    // Write enough distinct lines to overflow L1 (1KB = 16 lines) and
    // L2 (4KB = 64 lines); data must survive via LLC or memory.
    for (unsigned i = 0; i < 128; ++i) {
        const std::uint8_t v[8] = {static_cast<std::uint8_t>(i), 1, 2,
                                   3, 4, 5, 6, 7};
        hier.write(0x10000 + i * 64ull, v, 8);
    }
    for (unsigned i = 0; i < 128; ++i) {
        std::uint8_t out[8];
        hier.read(0x10000 + i * 64ull, 8, out);
        EXPECT_EQ(out[0], static_cast<std::uint8_t>(i)) << i;
    }
}

TEST_F(HierarchyTest, ResidentSectorsKeepTheirOwnPoisonState)
{
    // A poisoned line fetch taints only the sectors it supplies: a
    // dirty resident sector overlays the fetched bytes and stays sound.
    backend.memory[0xc000] = pattern(0xc0);
    backend.poisonedLines.insert(0xc000);
    const std::uint8_t v[8] = {0x11, 0x11, 0x11, 0x11,
                               0x11, 0x11, 0x11, 0x11};
    hier.write(0xc000, v, 8); // sector 0 resident, no fetch
    std::uint8_t out[8];
    const HierResult fetched = hier.read(0xc008, 8, out);
    EXPECT_TRUE(fetched.memTouched);
    EXPECT_TRUE(fetched.poisoned);
    const HierResult resident = hier.read(0xc000, 8, out);
    EXPECT_FALSE(resident.poisoned);
    EXPECT_EQ(out[0], 0x11);

    // And the other way round: a poisoned resident chunk (from a
    // poisoned stride fetch) stays poisoned under a clean line fetch.
    GatherPlan plan;
    for (unsigned i = 0; i < 8; ++i) {
        const Addr a = 0xc400 + i * 64ull;
        backend.memory[a] = pattern(static_cast<std::uint8_t>(i));
        backend.poisonedLines.insert(a);
        plan.lines.push_back(a);
    }
    plan.sector = 3;
    std::uint8_t line[kCachelineBytes];
    EXPECT_EQ(hier.strideRead(plan, 8, line).poisonBits, 0xffu);
    backend.poisonedLines.clear();
    const HierResult clean = hier.read(0xc400, 8, out);
    EXPECT_TRUE(clean.memTouched);
    EXPECT_FALSE(clean.poisoned);
    EXPECT_TRUE(hier.read(0xc400 + 3 * 8, 8, out).poisoned);
}

TEST_F(HierarchyTest, DirtyChunkWinsOverPoisonedStrideFetch)
{
    GatherPlan plan;
    for (unsigned i = 0; i < 8; ++i) {
        const Addr a = 0xe000 + i * 64ull;
        backend.memory[a] = pattern(0);
        backend.poisonedLines.insert(a);
        plan.lines.push_back(a);
    }
    plan.sector = 1;
    // Chunk 1 of line 2 is dirty in the cache: newer than memory, and
    // sound whatever the fetch reports.
    const std::uint8_t v[8] = {0x66, 0x66, 0x66, 0x66,
                               0x66, 0x66, 0x66, 0x66};
    hier.write(0xe000 + 2 * 64 + 8, v, 8);
    std::uint8_t out[kCachelineBytes];
    const HierResult r = hier.strideRead(plan, 8, out);
    EXPECT_EQ(backend.strideFetches, 1u);
    EXPECT_TRUE(r.poisoned);
    EXPECT_EQ(r.poisonBits, 0xffu & ~(1u << 2));
    EXPECT_EQ(out[2 * 8], 0x66);

    // The fill kept each chunk's state: a re-read that hits agrees.
    const HierResult again = hier.strideRead(plan, 8, out);
    EXPECT_FALSE(again.memTouched);
    EXPECT_EQ(again.poisonBits, r.poisonBits);
    EXPECT_EQ(out[2 * 8], 0x66);
}

TEST_F(HierarchyTest, WholeSectorStoreClearsPoison)
{
    backend.memory[0xd000] = pattern(0xd0);
    backend.poisonedLines.insert(0xd000);
    std::uint8_t out[8];
    EXPECT_TRUE(hier.read(0xd000, 8, out).poisoned);

    // Stores that cover a whole sector make it sound again; a store
    // into part of a sector leaves the rest of it poisoned.
    const std::uint8_t v[8] = {0x42, 0x42, 0x42, 0x42,
                               0x42, 0x42, 0x42, 0x42};
    hier.write(0xd000, v, 8);
    EXPECT_FALSE(hier.read(0xd000, 8, out).poisoned);
    EXPECT_EQ(out[0], 0x42);
    hier.write(0xd008, v, 4);
    EXPECT_TRUE(hier.read(0xd008, 8, out).poisoned);
    hier.writeAllocate(0xd010, v, 8);
    EXPECT_FALSE(hier.read(0xd010, 8, out).poisoned);
    EXPECT_TRUE(hier.read(0xd018, 8, out).poisoned);
}

TEST_F(HierarchyTest, RandomisedCoherenceAgainstReferenceModel)
{
    // Property test: arbitrary interleavings of reads/writes/stride
    // ops must always observe the latest written value.
    Rng rng(99);
    std::map<Addr, std::uint8_t> ref;
    const Addr base = 0x40000;
    for (int op = 0; op < 4000; ++op) {
        const Addr addr = base + rng.below(256) * 8;
        const unsigned kind = static_cast<unsigned>(rng.below(3));
        if (kind == 0) {
            const std::uint8_t v =
                static_cast<std::uint8_t>(rng.below(256));
            std::uint8_t buf[8];
            std::memset(buf, v, 8);
            hier.write(addr, buf, 8);
            ref[addr] = v;
        } else if (kind == 1) {
            std::uint8_t out[8];
            hier.read(addr, 8, out);
            const std::uint8_t expect =
                ref.count(addr) ? ref[addr] : backendByte(addr);
            EXPECT_EQ(out[0], expect) << "op " << op;
        } else {
            hier.flush();
            for (auto &[a, v] : ref)
                EXPECT_EQ(backendByte(a), v);
        }
    }
}

} // namespace
} // namespace sam
