/**
 * @file
 * Address-mapping property tests across geometry presets. The basic
 * decompose/compose behaviour on the paper's default geometry is pinned
 * in test_controller.cc; this file checks the properties hold on every
 * plausible geometry (multi-channel, single-rank, wide/narrow bank
 * configurations) and the stride-gather aliasing guarantees the SAM
 * designs rely on: a gather group never crosses a bank, the Figure 10
 * remap is a bijection within its group, and distinct groups never
 * alias.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "src/common/random.hh"
#include "src/common/types.hh"
#include "src/controller/address_mapping.hh"
#include "src/dram/timing.hh"

namespace sam {
namespace {

const char *const kPresetNames[] = {"paper_default", "two_channel",
                                    "four_channel_one_rank",
                                    "wide_groups", "tall_banks"};

/**
 * A geometry and its index in kPresetNames. gtest prints a parameter
 * that has no PrintTo as its raw bytes, and ctest names each case by
 * that print, so the parameter holds an index and no pointer: a name
 * pointer put a link address into every case name, and the names
 * changed from build to build.
 */
struct GeometryPreset
{
    std::uint64_t index;
    Geometry geom;
};

const char *
presetName(const GeometryPreset &preset)
{
    return kPresetNames[preset.index];
}

std::vector<GeometryPreset>
presets()
{
    std::vector<GeometryPreset> out;
    out.push_back({0, Geometry{}});

    Geometry two_channel;
    two_channel.channels = 2;
    out.push_back({1, two_channel});

    Geometry four_channel_one_rank;
    four_channel_one_rank.channels = 4;
    four_channel_one_rank.ranks = 1;
    out.push_back({2, four_channel_one_rank});

    Geometry wide_groups;
    wide_groups.bankGroups = 8;
    wide_groups.banksPerGroup = 2;
    out.push_back({3, wide_groups});

    Geometry tall_banks;
    tall_banks.bankGroups = 2;
    tall_banks.banksPerGroup = 8;
    tall_banks.ranks = 4;
    out.push_back({4, tall_banks});

    return out;
}

class PresetMappingTest
    : public ::testing::TestWithParam<GeometryPreset>
{
  protected:
    const Geometry &geom() const { return GetParam().geom; }
};

TEST_P(PresetMappingTest, DecomposeComposeRoundTrip)
{
    const AddressMapping map(geom());
    Rng rng(11);
    for (int i = 0; i < 2000; ++i) {
        const Addr addr =
            (rng.next() % geom().capacityBytes()) & ~Addr{63};
        const MappedAddr m = map.decompose(addr);
        EXPECT_EQ(map.compose(m), addr);
    }
}

TEST_P(PresetMappingTest, CoordinatesStayInRange)
{
    const AddressMapping map(geom());
    Rng rng(12);
    for (int i = 0; i < 2000; ++i) {
        const Addr addr = rng.next() % geom().capacityBytes();
        const MappedAddr m = map.decompose(addr);
        EXPECT_LT(m.channel, geom().channels);
        EXPECT_LT(m.rank, geom().ranks);
        EXPECT_LT(m.bankGroup, geom().bankGroups);
        EXPECT_LT(m.bank, geom().banksPerGroup);
        EXPECT_LT(m.column, geom().linesPerRow());
        EXPECT_LT(m.row, geom().rowsPerBank);
        EXPECT_LT(m.flatBank(geom()), geom().totalBanks());
    }
}

TEST_P(PresetMappingTest, FieldWidthsCoverTheCapacityExactly)
{
    const AddressMapping map(geom());
    const unsigned total = map.offsetBits() + map.columnBits() +
                           map.channelBits() + map.bankBits() +
                           map.groupBits() + map.rankBits();
    // row bits on top of this must span the capacity exactly.
    EXPECT_EQ((Addr{geom().rowsPerBank} << total),
              geom().capacityBytes());
}

TEST_P(PresetMappingTest, DistinctCoordinatesComposeToDistinctAddrs)
{
    const AddressMapping map(geom());
    Rng rng(13);
    std::set<Addr> seen;
    std::set<std::string> coords;
    for (int i = 0; i < 1500; ++i) {
        const Addr addr =
            (rng.next() % geom().capacityBytes()) & ~Addr{63};
        const MappedAddr m = map.decompose(addr);
        const std::string key =
            std::to_string(m.channel) + "." + std::to_string(m.rank) +
            "." + std::to_string(m.bankGroup) + "." +
            std::to_string(m.bank) + "." + std::to_string(m.row) + "." +
            std::to_string(m.column);
        // A new address must decompose to new coordinates and back.
        EXPECT_EQ(seen.insert(addr).second, coords.insert(key).second);
    }
}

TEST_P(PresetMappingTest, StrideRemapIsAnInvolutionEverywhere)
{
    const AddressMapping map(geom());
    Rng rng(14);
    for (unsigned unit : {8u, 16u, 32u}) {
        const unsigned g = 64 / unit;
        for (int i = 0; i < 400; ++i) {
            const Addr v = rng.next() % geom().capacityBytes();
            EXPECT_EQ(map.strideUnmap(map.strideRemap(v, g, unit), g,
                                      unit),
                      v);
        }
    }
}

TEST_P(PresetMappingTest, StrideRemapPermutesChunksWithinTheGroup)
{
    // Figure 10's bit swap must be a bijection on the chunk addresses
    // of one G-line gather group: nothing leaves the group, nothing
    // collides inside it.
    const AddressMapping map(geom());
    for (unsigned unit : {8u, 16u, 32u}) {
        const unsigned g = 64 / unit;
        const Addr group_bytes = Addr{g} * kCachelineBytes;
        const Addr base = Addr{3} << 16;
        std::set<Addr> images;
        for (Addr chunk = 0; chunk < group_bytes; chunk += unit) {
            const Addr p = map.strideRemap(base + chunk, g, unit);
            EXPECT_GE(p, base);
            EXPECT_LT(p, base + group_bytes);
            EXPECT_EQ(p % unit, 0u);
            EXPECT_TRUE(images.insert(p).second) << "collision at "
                                                 << chunk;
        }
        EXPECT_EQ(images.size(), group_bytes / unit);
    }
}

TEST_P(PresetMappingTest, StrideGatherNeverCrossesABank)
{
    // Every line of a gather plan must live in the same row of the
    // same bank: an sload costs one activation, never a cross-bank
    // (or worse, cross-channel) scatter.
    const AddressMapping map(geom());
    Rng rng(15);
    for (unsigned unit : {8u, 16u, 32u}) {
        const unsigned g = 64 / unit;
        const Addr group_bytes = Addr{g} * kCachelineBytes;
        for (int i = 0; i < 300; ++i) {
            const Addr group =
                (rng.next() % geom().capacityBytes()) / group_bytes *
                group_bytes;
            const unsigned vline = static_cast<unsigned>(rng.below(g));
            const auto plan = map.strideGather(
                group + vline * kCachelineBytes, g, unit);
            ASSERT_EQ(plan.lines.size(), g);
            EXPECT_EQ(plan.sector, vline);
            const MappedAddr first = map.decompose(plan.lines[0]);
            for (const Addr line : plan.lines) {
                const MappedAddr m = map.decompose(line);
                EXPECT_TRUE(m.sameRow(first))
                    << presetName(GetParam()) << " unit " << unit;
                EXPECT_EQ(m.channel, first.channel);
            }
        }
    }
}

TEST_P(PresetMappingTest, DistinctGatherGroupsNeverAlias)
{
    // Plans of different gather groups must touch disjoint line sets;
    // plans of different virtual lines in the *same* group touch the
    // same lines at different sectors.
    const AddressMapping map(geom());
    const unsigned unit = 8, g = 8;
    const Addr group_bytes = Addr{g} * kCachelineBytes;
    const Addr base = Addr{5} << 14;

    std::set<Addr> all_lines;
    for (unsigned grp = 0; grp < 16; ++grp) {
        const Addr group = base + grp * group_bytes;
        std::set<Addr> group_lines;
        std::set<unsigned> sectors;
        for (unsigned vline = 0; vline < g; ++vline) {
            const auto plan = map.strideGather(
                group + vline * kCachelineBytes, g, unit);
            group_lines.insert(plan.lines.begin(), plan.lines.end());
            sectors.insert(plan.sector);
        }
        // One group's plans reuse exactly its own g lines...
        EXPECT_EQ(group_lines.size(), g);
        EXPECT_EQ(sectors.size(), g); // ...one sector per virtual line
        for (const Addr line : group_lines) {
            EXPECT_TRUE(all_lines.insert(line).second)
                << "group " << grp << " aliases an earlier group";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPresets, PresetMappingTest, ::testing::ValuesIn(presets()),
    [](const auto &info) { return std::string(presetName(info.param)); });

} // namespace
} // namespace sam
