/**
 * @file
 * Unit tests for the DRAM substrate: timing parameters, the device
 * timing engine (row hits/misses, bank parallelism, tFAW, mode
 * switches, refresh), the chip I/O path, stride gather/scatter, and the
 * functional data path with chip-failure injection.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "src/common/random.hh"
#include "src/dram/data_path.hh"
#include "src/dram/device.hh"
#include "src/dram/io_buffer.hh"
#include "src/dram/timing.hh"

namespace sam {
namespace {

// --------------------------------------------------------------------
// Timing parameters
// --------------------------------------------------------------------

TEST(Timing, Ddr4MatchesTable2)
{
    const TimingParams t = ddr4Timing();
    EXPECT_EQ(t.cl, 17u);
    EXPECT_EQ(t.tRCD, 17u);
    EXPECT_EQ(t.tRP, 17u);
    EXPECT_EQ(t.tRTR, 2u);
    EXPECT_EQ(t.tCCD_S, 4u);
    EXPECT_EQ(t.tCCD_L, 6u);
}

TEST(Timing, RramMatchesTable2)
{
    const TimingParams t = rramTiming();
    EXPECT_EQ(t.cl, 17u);
    EXPECT_EQ(t.tRCD, 35u);
    EXPECT_EQ(t.tRP, 1u);
    EXPECT_EQ(t.tREFI, 0u); // non-volatile: no refresh
    EXPECT_GT(t.tWR, ddr4Timing().tWR); // slow writes
}

TEST(Timing, DeratingScalesArraySideOnly)
{
    const TimingParams base = ddr4Timing();
    const TimingParams d = base.derated(0.33);
    EXPECT_EQ(d.tRCD, 23u); // round(17 * 1.33)
    EXPECT_EQ(d.tRP, 23u);
    EXPECT_EQ(d.cl, base.cl);       // I/O side untouched
    EXPECT_EQ(d.tBL, base.tBL);
    EXPECT_EQ(d.tRTR, base.tRTR);
}

TEST(Timing, ZeroOverheadIsIdentity)
{
    const TimingParams base = ddr4Timing();
    const TimingParams d = base.derated(0.0);
    EXPECT_EQ(d.tRCD, base.tRCD);
    EXPECT_EQ(d.tRAS, base.tRAS);
}

TEST(Timing, Ddr4PresetInvariants)
{
    const TimingParams t = ddr4Timing();
    // Relationships every JEDEC-plausible DDR4 grade satisfies; the
    // protocol checker and the timing engine both rely on them.
    EXPECT_EQ(t.tRC(), Cycle{t.tRAS} + t.tRP);
    EXPECT_GE(t.tRAS, t.tRCD);         // row restore outlasts ACT->CAS
    EXPECT_GE(t.tCCD_L, t.tCCD_S);
    EXPECT_GE(t.tRRD_L, t.tRRD_S);
    EXPECT_GT(t.tWTR_L, t.tWTR_S);
    EXPECT_GE(t.tFAW, t.tRRD_S);       // window binds beyond pair rule
    EXPECT_GT(t.tREFI, t.tRFC);        // refresh fits in its interval
    EXPECT_GT(t.cl, t.cwl);            // DDR4: read latency > write
    EXPECT_GE(t.tCCD_S, t.tBL);        // back-to-back bursts fit
    // The mode-switch ordering rule (RD/WR->MSW rank gap=1 in the
    // timing rule table) is timing-neutral only while this holds.
    EXPECT_GE(t.tCCD_S, t.tRTR + 1);
}

TEST(Timing, RramPresetInvariants)
{
    const TimingParams r = rramTiming();
    const TimingParams d = ddr4Timing();
    EXPECT_EQ(r.tRP, 1u);         // non-destructive reads: no restore
    EXPECT_EQ(r.tREFI, 0u);       // non-volatile: refresh disabled...
    EXPECT_EQ(r.tRFC, 0u);        // ...and no refresh cycle time
    EXPECT_GT(r.tRCD, d.tRCD);    // slow cell activation
    EXPECT_LT(r.tRAS, d.tRAS);    // no restore phase
    EXPECT_GT(r.tWR, d.tWR);      // long write pulse
    EXPECT_GT(r.tWTR_S, d.tWTR_S);
    EXPECT_GT(r.tWTR_L, r.tWTR_S);
    // Interface-side parameters reuse the DDR4 bus.
    EXPECT_EQ(r.cl, d.cl);
    EXPECT_EQ(r.tBL, d.tBL);
    EXPECT_EQ(r.tCCD_S, d.tCCD_S);
    EXPECT_EQ(r.tRTR, d.tRTR);
    EXPECT_GE(r.tCCD_S, r.tRTR + 1);
}

TEST(Timing, DeratingLeavesIoSideUntouched)
{
    for (const TimingParams &base : {ddr4Timing(), rramTiming()}) {
        for (const double overhead : {0.02, 0.33, 1.0}) {
            const TimingParams d = base.derated(overhead);
            // Array-side parameters scale up (or round to equal).
            EXPECT_GE(d.tRCD, base.tRCD);
            EXPECT_GE(d.tRP, base.tRP);
            EXPECT_GE(d.tRAS, base.tRAS);
            EXPECT_GE(d.tRRD_S, base.tRRD_S);
            EXPECT_GE(d.tRRD_L, base.tRRD_L);
            EXPECT_GE(d.tFAW, base.tFAW);
            EXPECT_GE(d.tWR, base.tWR);
            EXPECT_GE(d.tRTP, base.tRTP);
            EXPECT_GT(Cycle{d.tRCD} + d.tRAS + d.tWR,
                      Cycle{base.tRCD} + base.tRAS + base.tWR);
            // I/O-side parameters must be bit-identical: the paper
            // keeps core frequency and interface pipelines unchanged.
            EXPECT_EQ(d.cl, base.cl);
            EXPECT_EQ(d.cwl, base.cwl);
            EXPECT_EQ(d.tBL, base.tBL);
            EXPECT_EQ(d.tCCD_S, base.tCCD_S);
            EXPECT_EQ(d.tCCD_L, base.tCCD_L);
            EXPECT_EQ(d.tRTR, base.tRTR);
            EXPECT_EQ(d.tWTR_S, base.tWTR_S);
            EXPECT_EQ(d.tWTR_L, base.tWTR_L);
            EXPECT_EQ(d.tREFI, base.tREFI);
            EXPECT_EQ(d.tRFC, base.tRFC);
            EXPECT_DOUBLE_EQ(d.tCkNs, base.tCkNs);
        }
    }
}

TEST(Timing, GeometryCapacity)
{
    const Geometry g;
    EXPECT_EQ(g.banksPerRank(), 16u);
    EXPECT_EQ(g.linesPerRow(), 128u);
    EXPECT_EQ(g.rowsPerSubarray(), 512u);
    // 2 ranks x 16 banks x 128K rows x 8KB = 32 GB.
    EXPECT_EQ(g.capacityBytes(), 32ull << 30);
}

// --------------------------------------------------------------------
// Device timing engine
// --------------------------------------------------------------------

MappedAddr
mkAddr(unsigned rank, unsigned bg, unsigned bank, std::uint64_t row,
       unsigned col)
{
    MappedAddr a;
    a.rank = rank;
    a.bankGroup = bg;
    a.bank = bank;
    a.row = row;
    a.column = col;
    return a;
}

DeviceAccess
rd(const MappedAddr &a)
{
    DeviceAccess acc;
    acc.addr = a;
    return acc;
}

DeviceAccess
wr(const MappedAddr &a)
{
    DeviceAccess acc;
    acc.addr = a;
    acc.isWrite = true;
    return acc;
}

class DeviceTest : public ::testing::Test
{
  protected:
    Geometry geom;
    TimingParams timing = ddr4Timing();
};

TEST_F(DeviceTest, FirstReadPaysActPlusCas)
{
    Device dev(geom, timing);
    const auto r = dev.access(rd(mkAddr(0, 0, 0, 5, 0)), 0);
    EXPECT_FALSE(r.rowHit);
    EXPECT_EQ(r.activates, 1u);
    // ACT at 0, CAS at tRCD, data at tRCD + CL, done + tBL.
    EXPECT_EQ(r.issue, timing.tRCD);
    EXPECT_EQ(r.dataStart, timing.tRCD + timing.cl);
    EXPECT_EQ(r.done, timing.tRCD + timing.cl + timing.tBL);
}

TEST_F(DeviceTest, RowHitSkipsActivation)
{
    Device dev(geom, timing);
    const auto first = dev.access(rd(mkAddr(0, 0, 0, 5, 0)), 0);
    const auto second = dev.access(rd(mkAddr(0, 0, 0, 5, 1)),
                                   first.issue + 1);
    EXPECT_TRUE(second.rowHit);
    EXPECT_EQ(second.activates, 0u);
    // Second CAS is only gated by tCCD_L within the same bank group.
    EXPECT_EQ(second.issue, first.issue + timing.tCCD_L);
}

TEST_F(DeviceTest, RowConflictPaysPreActCas)
{
    Device dev(geom, timing);
    const auto first = dev.access(rd(mkAddr(0, 0, 0, 5, 0)), 0);
    const auto second = dev.access(rd(mkAddr(0, 0, 0, 9, 0)), first.done);
    EXPECT_FALSE(second.rowHit);
    // Bank must honour tRAS before the precharge: ACT(0) -> PRE no
    // earlier than tRAS.
    const Cycle pre_at = std::max<Cycle>(first.done, timing.tRAS);
    EXPECT_EQ(second.issue, pre_at + timing.tRP + timing.tRCD);
    EXPECT_EQ(dev.stats().precharges.value(), 1u);
}

TEST_F(DeviceTest, DifferentBankGroupsUseShortCcd)
{
    Device dev(geom, timing);
    // Open both rows first.
    dev.access(rd(mkAddr(0, 0, 0, 5, 0)), 0);
    dev.access(rd(mkAddr(0, 1, 0, 5, 0)), 0);
    const auto a = dev.access(rd(mkAddr(0, 0, 0, 5, 1)), 1000);
    const auto b = dev.access(rd(mkAddr(0, 1, 0, 5, 1)), 1000);
    // Cross-bank-group CAS separation is tCCD_S < tCCD_L, but the data
    // bus (tBL = 4 = tCCD_S) is the binding constraint.
    EXPECT_EQ(b.dataStart - a.dataStart, std::max(timing.tCCD_S,
                                                  timing.tBL));
}

TEST_F(DeviceTest, BankParallelismOverlapsActivation)
{
    Device dev(geom, timing);
    const auto a = dev.access(rd(mkAddr(0, 0, 0, 5, 0)), 0);
    const auto b = dev.access(rd(mkAddr(0, 1, 1, 7, 0)), 0);
    // The second bank's ACT proceeds in parallel (only tRRD_S apart);
    // its data slot lands right behind the first on the bus.
    EXPECT_EQ(b.dataStart, a.done);
    EXPECT_LT(b.done, 2 * a.done);
}

TEST_F(DeviceTest, FawLimitsBurstsOfActivates)
{
    Device dev(geom, timing);
    // Five activates to distinct banks in different groups; ACT i at
    // i*tRRD_S until the window fills.
    std::vector<Cycle> issue;
    for (unsigned i = 0; i < 5; ++i) {
        const auto r =
            dev.access(rd(mkAddr(0, i % 4, i / 4, 3, 0)), 0);
        issue.push_back(r.issue - timing.tRCD); // recover ACT time
    }
    EXPECT_EQ(issue[1] - issue[0], timing.tRRD_S);
    EXPECT_EQ(issue[3] - issue[0], 3 * timing.tRRD_S);
    // The 5th ACT must wait for the tFAW window to roll past ACT 0.
    EXPECT_GE(issue[4] - issue[0], static_cast<Cycle>(timing.tFAW));
}

TEST_F(DeviceTest, RankSwitchInsertsBubble)
{
    Device dev(geom, timing);
    dev.access(rd(mkAddr(0, 0, 0, 5, 0)), 0);
    dev.access(rd(mkAddr(1, 0, 0, 5, 0)), 0);
    const auto a = dev.access(rd(mkAddr(0, 0, 0, 5, 1)), 500);
    const auto b = dev.access(rd(mkAddr(1, 0, 0, 5, 1)), 500);
    // Back-to-back bursts from different ranks are separated by tRTR.
    EXPECT_EQ(b.dataStart - a.dataStart, timing.tBL + timing.tRTR);
}

TEST_F(DeviceTest, ModeSwitchCostsTrtr)
{
    Device dev(geom, timing);
    dev.access(rd(mkAddr(0, 0, 0, 5, 0)), 0); // open row, Regular mode
    auto stride = rd(mkAddr(0, 0, 0, 5, 1));
    stride.mode = AccessMode::Stride;
    const auto r = dev.access(stride, 200);
    EXPECT_TRUE(r.modeSwitched);
    EXPECT_EQ(dev.stats().modeSwitches.value(), 1u);

    // Staying in stride mode afterwards costs nothing extra.
    auto stride2 = rd(mkAddr(0, 0, 0, 5, 2));
    stride2.mode = AccessMode::Stride;
    const auto r2 = dev.access(stride2, 400);
    EXPECT_FALSE(r2.modeSwitched);
}

TEST_F(DeviceTest, WriteBlocksPrechargeUntilRecovery)
{
    Device dev(geom, timing);
    const auto w = dev.access(wr(mkAddr(0, 0, 0, 5, 0)), 0);
    // Conflict read: the precharge must wait for tWR after write data.
    const auto r = dev.access(rd(mkAddr(0, 0, 0, 8, 0)), w.issue + 1);
    const Cycle wr_end = w.issue + timing.cwl + timing.tBL;
    EXPECT_GE(r.issue, wr_end + timing.tWR + timing.tRP + timing.tRCD);
}

TEST_F(DeviceTest, WriteToReadTurnaround)
{
    Device dev(geom, timing);
    dev.access(rd(mkAddr(0, 0, 0, 5, 0)), 0);
    const auto w = dev.access(wr(mkAddr(0, 0, 0, 5, 1)), 200);
    const auto r = dev.access(rd(mkAddr(0, 1, 0, 5, 0)), w.issue + 1);
    // Same-rank read CAS waits tWTR_S after write data end. The read
    // also pays its own ACT (different bank), so only assert the CAS
    // floor.
    EXPECT_GE(r.issue,
              w.issue + timing.cwl + timing.tBL + timing.tWTR_S);
}

TEST_F(DeviceTest, ExtraBurstsExtendOccupancy)
{
    Device dev(geom, timing);
    auto acc = rd(mkAddr(0, 0, 0, 5, 0));
    acc.extraBursts = 2;
    const auto r = dev.access(acc, 0);
    const auto plain = Device(geom, timing).access(
        rd(mkAddr(0, 0, 0, 5, 0)), 0);
    EXPECT_EQ(r.done - plain.done, 2 * timing.tCCD_L);
    EXPECT_EQ(dev.stats().extraBursts.value(), 2u);
}

TEST_F(DeviceTest, RefreshBlocksRank)
{
    Device dev(geom, timing);
    dev.access(rd(mkAddr(0, 0, 0, 5, 0)), 0);
    // Jump past a refresh interval: the access must see the row closed
    // and the rank blocked until tRFC completes.
    const auto r = dev.access(rd(mkAddr(0, 0, 0, 5, 1)),
                              timing.tREFI + 1);
    EXPECT_FALSE(r.rowHit); // refresh closed the row
    EXPECT_GE(r.issue, static_cast<Cycle>(timing.tREFI) + timing.tRFC);
    EXPECT_GE(dev.stats().refreshes.value(), 1u);
}

TEST_F(DeviceTest, NoRefreshForRram)
{
    Device dev(geom, rramTiming());
    dev.access(rd(mkAddr(0, 0, 0, 5, 0)), 0);
    const auto r = dev.access(rd(mkAddr(0, 0, 0, 5, 1)), 1u << 20);
    EXPECT_TRUE(r.rowHit);
    EXPECT_EQ(dev.stats().refreshes.value(), 0u);
}

TEST_F(DeviceTest, ReadDataFollowsCasByCl)
{
    Device dev(geom, timing);
    const auto r = dev.access(rd(mkAddr(0, 0, 0, 1, 0)), 0);
    EXPECT_EQ(r.dataStart, r.issue + timing.cl);
    EXPECT_EQ(r.done, r.dataStart + timing.tBL);
}

TEST_F(DeviceTest, WriteDataFollowsCasByCwl)
{
    Device dev(geom, timing);
    const auto w = dev.access(wr(mkAddr(0, 0, 0, 1, 0)), 0);
    EXPECT_EQ(w.dataStart, w.issue + timing.cwl);
}

TEST_F(DeviceTest, ExtraLatencyDelaysCompletionOnly)
{
    Device dev(geom, timing);
    auto acc = rd(mkAddr(0, 0, 0, 1, 0));
    acc.extraLatency = 8;
    const auto r = dev.access(acc, 0);
    EXPECT_EQ(r.done, r.dataStart + timing.tBL + 8);
    // The bus frees at burst end, not at the delayed completion: the
    // other rank's burst follows one tRTR bubble after it.
    const auto next = dev.access(rd(mkAddr(1, 0, 0, 1, 0)), 0);
    EXPECT_EQ(next.dataStart, r.dataStart + timing.tBL + timing.tRTR);
    EXPECT_LT(next.dataStart, r.done);
}

TEST_F(DeviceTest, ColumnActivatesCountedSeparately)
{
    Device dev(geom, timing);
    auto acc = rd(mkAddr(0, 0, 0, 5, 0));
    acc.columnActivate = true;
    acc.mode = AccessMode::Stride;
    dev.access(acc, 0);
    EXPECT_EQ(dev.stats().activates.value(), 1u);
    EXPECT_EQ(dev.stats().columnActivates.value(), 1u);
    // A hit to the same synthetic row performs no further activation.
    acc.addr.column = 1;
    dev.access(acc, 100);
    EXPECT_EQ(dev.stats().columnActivates.value(), 1u);
}

TEST_F(DeviceTest, RandomTrafficKeepsResourceInvariants)
{
    // Property: for any access sequence, per-access results are
    // causally ordered (issue <= dataStart <= done) and the data bus
    // never double-books (successive bursts at least tBL apart).
    Device dev(geom, timing);
    Rng rng(2024);
    std::vector<Cycle> data_starts;
    for (int i = 0; i < 2000; ++i) {
        DeviceAccess acc;
        acc.addr = mkAddr(static_cast<unsigned>(rng.below(2)),
                          static_cast<unsigned>(rng.below(4)),
                          static_cast<unsigned>(rng.below(4)),
                          rng.below(64),
                          static_cast<unsigned>(rng.below(128)));
        acc.isWrite = rng.chance(0.3);
        acc.mode = rng.chance(0.2) ? AccessMode::Stride
                                   : AccessMode::Regular;
        const auto r = dev.access(acc, rng.below(50000));
        ASSERT_LE(r.issue, r.dataStart);
        ASSERT_LE(r.dataStart + timing.tBL, r.done + 1);
        data_starts.push_back(r.dataStart);
    }
    // Bus slots may be scheduled out of wall-clock order but never
    // overlap.
    std::sort(data_starts.begin(), data_starts.end());
    for (std::size_t i = 1; i < data_starts.size(); ++i)
        ASSERT_GE(data_starts[i], data_starts[i - 1] + timing.tBL);
    // Conservation: every access classified exactly once.
    const auto &st = dev.stats();
    EXPECT_EQ(st.reads.value() + st.writes.value() +
                  st.strideReads.value() + st.strideWrites.value(),
              2000u);
    EXPECT_EQ(st.rowHits.value() + st.rowMisses.value(), 2000u);
}

TEST_F(DeviceTest, StatsCountRowHitsAndMisses)
{
    Device dev(geom, timing);
    dev.access(rd(mkAddr(0, 0, 0, 5, 0)), 0);
    dev.access(rd(mkAddr(0, 0, 0, 5, 1)), 100);
    dev.access(rd(mkAddr(0, 0, 0, 6, 0)), 200);
    EXPECT_EQ(dev.stats().rowHits.value(), 1u);
    EXPECT_EQ(dev.stats().rowMisses.value(), 2u);
    EXPECT_EQ(dev.stats().reads.value(), 3u);
}

// --------------------------------------------------------------------
// Chip I/O path (Figures 7-9)
// --------------------------------------------------------------------

TEST(ChipIoPath, DriverEnableTableMatchesFigure7)
{
    ChipIoPath io;
    io.setMode(IoMode::X4);
    EXPECT_EQ(io.enabledDrivers(), (std::vector<unsigned>{0, 1, 2, 3}));
    io.setMode(IoMode::X8);
    EXPECT_EQ(io.enabledDrivers().size(), 8u);
    io.setMode(IoMode::X16);
    EXPECT_EQ(io.enabledDrivers().size(), 16u);
    io.setMode(IoMode::Sx4, 0);
    EXPECT_EQ(io.enabledDrivers(), (std::vector<unsigned>{0, 4, 8, 12}));
    io.setMode(IoMode::Sx4, 3);
    EXPECT_EQ(io.enabledDrivers(), (std::vector<unsigned>{3, 7, 11, 15}));
}

TEST(ChipIoPath, X4UsesOnlyBufferZero)
{
    ChipIoPath io;
    io.setMode(IoMode::X4);
    io.loadBuffer(0, 0x44332211);
    io.loadBuffer(1, 0xdeadbeef); // must not leak into output
    const auto p = io.burstPayload();
    ASSERT_EQ(p.size(), 4u);
    EXPECT_EQ(p[0], 0x11);
    EXPECT_EQ(p[1], 0x22);
    EXPECT_EQ(p[2], 0x33);
    EXPECT_EQ(p[3], 0x44);
}

TEST(ChipIoPath, StrideModeSelectsLaneAcrossBuffers)
{
    ChipIoPath io;
    // Buffer b holds the chip's slice of gather-source line b.
    io.loadBuffer(0, 0x04030201);
    io.loadBuffer(1, 0x14131211);
    io.loadBuffer(2, 0x24232221);
    io.loadBuffer(3, 0x34333231);
    io.setMode(IoMode::Sx4, 2); // lane 2 = byte 2 of each slice
    const auto p = io.burstPayload();
    ASSERT_EQ(p.size(), 4u);
    EXPECT_EQ(p[0], 0x03);
    EXPECT_EQ(p[1], 0x13);
    EXPECT_EQ(p[2], 0x23);
    EXPECT_EQ(p[3], 0x33);
}

TEST(ChipIoPath, ColumnWiseMatchesStrideBytes)
{
    // SAM-en property: the 2-D buffer's yz-plane read returns the same
    // bytes as Sx4_n, just in the default layout order.
    ChipIoPath io;
    Rng rng(5);
    for (unsigned b = 0; b < 4; ++b)
        io.loadBuffer(b, static_cast<std::uint32_t>(rng.next()));
    for (unsigned n = 0; n < 4; ++n) {
        io.setMode(IoMode::Sx4, n);
        EXPECT_EQ(io.columnWisePayload(n), io.burstPayload());
    }
}

TEST(ChipIoPath, X16StreamsAllBuffers)
{
    ChipIoPath io;
    for (unsigned b = 0; b < 4; ++b)
        io.loadBuffer(b, 0x01010101u * (b + 1));
    io.setMode(IoMode::X16);
    const auto p = io.burstPayload();
    ASSERT_EQ(p.size(), 16u);
    EXPECT_EQ(p[0], 0x01);
    EXPECT_EQ(p[15], 0x04);
}

TEST(ChipIoPath, BeatSerializationLsbFirst)
{
    ChipIoPath io;
    io.setMode(IoMode::X4);
    io.loadBuffer(0, 0x00000001); // only lane 0 bit 0 set
    EXPECT_EQ(io.beatBits(0), 0x1);
    EXPECT_EQ(io.beatBits(1), 0x0);
    io.loadBuffer(0, 0x80000000); // lane 3, bit 7
    EXPECT_EQ(io.beatBits(7), 0x8);
}

TEST(ChipIoPath, InterleavedNibblesCoverAllSymbols)
{
    ChipIoPath io;
    io.loadBuffer(0, 0x000000a1);
    io.loadBuffer(1, 0x000000b2);
    io.loadBuffer(2, 0x000000c3);
    io.loadBuffer(3, 0x000000d4);
    // Low nibbles of lane 0 from buffer pairs (0,1) and (2,3).
    const auto p = io.interleavedNibblePayload(0, 0);
    EXPECT_EQ(p[0], 0x21); // buf0 low nibble 1, buf1 low nibble 2
    EXPECT_EQ(p[1], 0x43);
}

// --------------------------------------------------------------------
// Stride gather / scatter
// --------------------------------------------------------------------

std::vector<std::uint8_t>
patternLine(std::uint8_t tag)
{
    std::vector<std::uint8_t> line(kCachelineBytes);
    for (unsigned i = 0; i < kCachelineBytes; ++i)
        line[i] = static_cast<std::uint8_t>(tag ^ i);
    return line;
}

class GatherTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(GatherTest, GatherPullsSameSectorOfEachLine)
{
    const unsigned unit = GetParam();
    const unsigned g = kCachelineBytes / unit;
    std::vector<std::vector<std::uint8_t>> lines;
    for (unsigned i = 0; i < g; ++i)
        lines.push_back(patternLine(static_cast<std::uint8_t>(0x10 * i)));

    for (unsigned sector = 0; sector < g; ++sector) {
        const auto out = StrideGather::gather(lines, sector, unit);
        ASSERT_EQ(out.size(), kCachelineBytes);
        for (unsigned i = 0; i < g; ++i) {
            for (unsigned b = 0; b < unit; ++b) {
                EXPECT_EQ(out[i * unit + b],
                          lines[i][sector * unit + b]);
            }
        }
    }
}

TEST_P(GatherTest, ScatterInvertsGather)
{
    const unsigned unit = GetParam();
    const unsigned g = kCachelineBytes / unit;
    std::vector<std::vector<std::uint8_t>> lines;
    for (unsigned i = 0; i < g; ++i)
        lines.push_back(patternLine(static_cast<std::uint8_t>(7 * i + 1)));
    const auto originals = lines;

    const unsigned sector = g / 2;
    const auto gathered = StrideGather::gather(lines, sector, unit);
    StrideGather::scatter(gathered, lines, sector, unit);
    EXPECT_EQ(lines, originals);

    // Scattering new data updates exactly the selected chunk.
    std::vector<std::uint8_t> fresh(kCachelineBytes, 0xee);
    StrideGather::scatter(fresh, lines, sector, unit);
    for (unsigned i = 0; i < g; ++i) {
        for (unsigned b = 0; b < kCachelineBytes; ++b) {
            const bool in_chunk = b >= sector * unit &&
                                  b < (sector + 1) * unit;
            EXPECT_EQ(lines[i][b], in_chunk ? 0xee : originals[i][b]);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Granularities, GatherTest,
                         ::testing::Values(8u, 16u, 32u),
                         [](const auto &info) {
                             return "unit" + std::to_string(info.param);
                         });

TEST(GatherChipConsistency, RankGatherMatchesChipLanes)
{
    // Cross-check: the rank-level gather of 16B chunks equals what 16
    // chips would produce in Sx4_n mode, chip by chip (SSC layout:
    // chip c holds byte 16*j + c of sector j).
    const unsigned unit = 16; // SSC
    std::vector<std::vector<std::uint8_t>> lines;
    for (unsigned i = 0; i < 4; ++i)
        lines.push_back(patternLine(static_cast<std::uint8_t>(0x40 + i)));
    const unsigned sector = 2;
    const auto rank_out = StrideGather::gather(lines, sector, unit);

    for (unsigned chip = 0; chip < 16; ++chip) {
        ChipIoPath io;
        for (unsigned b = 0; b < 4; ++b) {
            // The chip's 4B slice of line b: byte `chip` of each sector.
            std::uint32_t slice = 0;
            for (unsigned s = 0; s < 4; ++s)
                slice |= static_cast<std::uint32_t>(
                             lines[b][16 * s + chip])
                         << (8 * s);
            io.loadBuffer(b, slice);
        }
        io.setMode(IoMode::Sx4, sector);
        const auto chip_payload = io.burstPayload();
        // Chip c's contribution to gathered chunk i is byte 16*i + c.
        for (unsigned i = 0; i < 4; ++i)
            EXPECT_EQ(chip_payload[i], rank_out[16 * i + chip])
                << "chip " << chip << " chunk " << i;
    }
}

// --------------------------------------------------------------------
// DataPath (functional reads/writes with ECC on the way)
// --------------------------------------------------------------------

TEST(DataPath, WriteReadRoundTrip)
{
    DataPath dp(EccScheme::Ssc);
    Rng rng(9);
    std::vector<std::uint8_t> line(kCachelineBytes);
    for (auto &b : line)
        b = static_cast<std::uint8_t>(rng.below(256));
    dp.writeLine(0x1000, line);
    const auto r = dp.readLine(0x1000);
    EXPECT_EQ(r.data, line);
    EXPECT_FALSE(r.corrected);
}

TEST(DataPath, UnwrittenLinesReadZero)
{
    DataPath dp(EccScheme::Ssc);
    const auto r = dp.readLine(0x2000);
    EXPECT_EQ(r.data, std::vector<std::uint8_t>(kCachelineBytes, 0));
    // All-zero data with all-zero parity is a valid RS codeword.
    EXPECT_FALSE(r.uncorrectable);
}

TEST(DataPath, StrideReadGathersAcrossLines)
{
    DataPath dp(EccScheme::Ssc); // 16B chunks, G = 4
    std::vector<Addr> addrs;
    for (unsigned i = 0; i < 4; ++i) {
        const Addr a = 0x4000 + i * kCachelineBytes;
        dp.writeLine(a, patternLine(static_cast<std::uint8_t>(i + 1)));
        addrs.push_back(a);
    }
    const auto r = dp.strideRead(addrs, 1, 16);
    for (unsigned i = 0; i < 4; ++i) {
        const auto expect = patternLine(static_cast<std::uint8_t>(i + 1));
        for (unsigned b = 0; b < 16; ++b)
            EXPECT_EQ(r.data[i * 16 + b], expect[16 + b]);
    }
}

TEST(DataPath, StrideWriteUpdatesOnlyTargetChunks)
{
    DataPath dp(EccScheme::SscDsd); // 8B chunks, G = 8
    std::vector<Addr> addrs;
    for (unsigned i = 0; i < 8; ++i) {
        const Addr a = 0x8000 + i * kCachelineBytes;
        dp.writeLine(a, patternLine(static_cast<std::uint8_t>(i)));
        addrs.push_back(a);
    }
    std::vector<std::uint8_t> stride_line(kCachelineBytes, 0xab);
    dp.strideWrite(addrs, 3, 8, stride_line);

    for (unsigned i = 0; i < 8; ++i) {
        const auto r = dp.readLine(addrs[i]);
        EXPECT_FALSE(r.uncorrectable);
        const auto expect = patternLine(static_cast<std::uint8_t>(i));
        for (unsigned b = 0; b < kCachelineBytes; ++b) {
            const bool in_chunk = b >= 24 && b < 32; // sector 3 of 8B
            EXPECT_EQ(r.data[b], in_chunk ? 0xab : expect[b]);
        }
    }
}

TEST(DataPath, ChipFailureCorrectedOnRegularAndStridePaths)
{
    // The paper's central reliability claim: strided accesses remain
    // chipkill-protected.
    DataPath dp(EccScheme::Ssc);
    std::vector<Addr> addrs;
    for (unsigned i = 0; i < 4; ++i) {
        const Addr a = 0x10000 + i * kCachelineBytes;
        dp.writeLine(a, patternLine(static_cast<std::uint8_t>(0x30 + i)));
        addrs.push_back(a);
    }
    dp.failChip(6);

    const auto reg = dp.readLine(addrs[0]);
    EXPECT_TRUE(reg.corrected);
    EXPECT_FALSE(reg.uncorrectable);
    EXPECT_EQ(reg.data, patternLine(0x30));

    const auto st = dp.strideRead(addrs, 2, 16);
    EXPECT_TRUE(st.corrected);
    EXPECT_FALSE(st.uncorrectable);
    for (unsigned i = 0; i < 4; ++i) {
        const auto expect =
            patternLine(static_cast<std::uint8_t>(0x30 + i));
        for (unsigned b = 0; b < 16; ++b)
            EXPECT_EQ(st.data[i * 16 + b], expect[32 + b]);
    }
    EXPECT_GE(dp.stats().correctedLines.value(), 5u);
}

TEST(DataPath, SecDedCannotProtectAgainstChipFailure)
{
    // A failed x4 chip flips 4 bits per SEC-DED codeword. Depending on
    // which bits, the syndrome either flags an uncorrectable error or
    // -- worse -- aliases to zero/a single bit and the corruption goes
    // through silently (positions 18^19^20^21 == 0). Either way the
    // data is NOT protected, which is the paper's motivation for
    // requiring chipkill compatibility.
    const auto original = patternLine(0x11);
    bool any_unprotected = false;
    for (unsigned chip = 0; chip < 16; ++chip) {
        DataPath dp(EccScheme::SecDed);
        dp.writeLine(0x0, original);
        dp.failChip(chip);
        const auto r = dp.readLine(0x0);
        const bool protected_read = !r.uncorrectable &&
                                    r.data == original;
        EXPECT_FALSE(protected_read) << "chip " << chip;
        any_unprotected = any_unprotected || !protected_read;
    }
    EXPECT_TRUE(any_unprotected);
}

TEST(BackingStoreTest, CorruptLineXorsMask)
{
    BackingStore store(72);
    std::vector<std::uint8_t> blob(72, 0x0f);
    store.writeLine(0x40, blob);
    std::vector<std::uint8_t> mask(72, 0);
    mask[3] = 0xf0;
    store.corruptLine(0x40, mask);
    EXPECT_EQ(store.readLine(0x40)[3], 0xff);
    EXPECT_EQ(store.readLine(0x40)[4], 0x0f);
    EXPECT_THROW(store.readLine(0x41), std::logic_error); // unaligned
}

// The overlay index against a reference map: first writes, rewrites,
// corruptLine on layer lines and on lines no layer holds, and the
// install() revert of every overlay line the snapshot covers.
TEST(BackingStoreTest, OverlayIndexMatchesReferenceMap)
{
    constexpr unsigned kBlob = 72;
    constexpr Addr kBase = Addr{1} << 20;
    constexpr std::size_t kLayerLines = 512;
    auto snap = std::make_shared<StoreSnapshot>();
    snap->blobBytes = kBlob;
    snap->appendRows(kBase, kLayerLines, {LineRun{0, kLayerLines}});
    const auto layer_blob = [](Addr line) {
        std::vector<std::uint8_t> b(kBlob);
        for (unsigned i = 0; i < kBlob; ++i)
            b[i] = static_cast<std::uint8_t>(line / kCachelineBytes + i);
        return b;
    };
    for (std::size_t s = 0; s < kLayerLines; ++s) {
        const auto b = layer_blob(kBase + s * kCachelineBytes);
        std::copy(b.begin(), b.end(), snap->mutableBlob(s));
    }
    const auto in_layer = [&](Addr line) {
        return line >= kBase &&
               line < kBase + kLayerLines * kCachelineBytes;
    };

    BackingStore store(kBlob);
    store.install(snap);
    struct RefLine
    {
        std::vector<std::uint8_t> blob;
        bool clean = false;
    };
    std::map<Addr, RefLine> overlay; // lines written since the install
    const auto expect_line = [&](Addr line) {
        auto it = overlay.find(line);
        std::vector<std::uint8_t> want(kBlob, 0);
        bool clean = true;
        if (it != overlay.end()) {
            want = it->second.blob;
            clean = it->second.clean;
        } else if (in_layer(line)) {
            want = layer_blob(line);
        }
        ASSERT_EQ(store.readLine(line), want) << line;
        const BackingStore::LineRef ref = store.refLine(line);
        ASSERT_EQ(ref.clean, clean) << line;
        ASSERT_EQ(store.contains(line),
                  it != overlay.end() || in_layer(line));
    };

    Rng rng(0x0E41A7);
    for (unsigned i = 0; i < 30'000; ++i) {
        // Half the lines in the layer, half beside it.
        const Addr line = rng.below(2) == 0
            ? kBase + rng.below(kLayerLines) * kCachelineBytes
            : rng.below(kLayerLines) * kCachelineBytes;
        const unsigned op = static_cast<unsigned>(rng.below(100));
        if (op < 45) {
            std::vector<std::uint8_t> blob(kBlob);
            for (auto &b : blob)
                b = static_cast<std::uint8_t>(rng.below(256));
            const bool clean = rng.below(2) == 0;
            store.writeLine(line, blob, clean);
            overlay[line] = RefLine{blob, clean};
        } else if (op < 70) {
            std::vector<std::uint8_t> mask(kBlob, 0);
            mask[rng.below(kBlob)] = 0x10;
            store.corruptLine(line, mask);
            RefLine &r = overlay[line];
            if (r.blob.empty()) {
                r.blob = in_layer(line) ? layer_blob(line)
                                        : std::vector<std::uint8_t>(
                                              kBlob, 0);
            }
            for (unsigned b = 0; b < kBlob; ++b)
                r.blob[b] ^= mask[b];
            r.clean = false;
        } else if (op == 70 && rng.below(40) == 0) {
            // Re-install: overlay lines the layer covers revert.
            store.install(snap);
            for (auto it = overlay.begin(); it != overlay.end();) {
                it = in_layer(it->first) ? overlay.erase(it)
                                         : std::next(it);
            }
        } else {
            expect_line(line);
        }
        if (HasFatalFailure())
            return;
    }
    std::size_t beside = 0;
    for (Addr l = 0; l < kLayerLines; ++l) {
        expect_line(kBase + l * kCachelineBytes);
        expect_line(l * kCachelineBytes);
        beside += overlay.count(l * kCachelineBytes);
    }
    EXPECT_EQ(store.lineCount(), kLayerLines + beside);
}

} // namespace
} // namespace sam
