/**
 * @file
 * Unit and property tests for the memory controller layer: address
 * mapping (bit slicing, Figure 10 stride remap),
 * FR-FCFS scheduling, write-drain watermarks, and timing-only mode.
 */

#include <gtest/gtest.h>

#include <array>
#include <set>

#include "src/common/random.hh"
#include "src/controller/address_mapping.hh"
#include "src/controller/controller.hh"
#include "src/controller/request_queue.hh"
#include "src/dram/data_path.hh"
#include "src/dram/device.hh"

namespace sam {
namespace {

// --------------------------------------------------------------------
// Address mapping
// --------------------------------------------------------------------

class MappingTest : public ::testing::Test
{
  protected:
    Geometry geom;
    AddressMapping map{geom};
};

TEST_F(MappingTest, FieldWidthsMatchGeometry)
{
    EXPECT_EQ(map.offsetBits(), 6u);
    EXPECT_EQ(map.columnBits(), 7u);   // 128 lines per 8KB row
    EXPECT_EQ(map.channelBits(), 0u);
    EXPECT_EQ(map.bankBits(), 2u);
    EXPECT_EQ(map.groupBits(), 2u);
    EXPECT_EQ(map.rankBits(), 1u);
    EXPECT_EQ(map.bankSelBits(), 5u);
}

TEST_F(MappingTest, DecomposeComposeRoundTrip)
{
    Rng rng(1);
    for (int i = 0; i < 2000; ++i) {
        const Addr addr =
            (rng.next() % geom.capacityBytes()) & ~Addr{63};
        const MappedAddr m = map.decompose(addr);
        EXPECT_EQ(map.compose(m), addr);
    }
}

TEST_F(MappingTest, CoordinatesInRange)
{
    Rng rng(2);
    for (int i = 0; i < 2000; ++i) {
        const Addr addr = rng.next() % geom.capacityBytes();
        const MappedAddr m = map.decompose(addr);
        EXPECT_LT(m.channel, geom.channels);
        EXPECT_LT(m.rank, geom.ranks);
        EXPECT_LT(m.bankGroup, geom.bankGroups);
        EXPECT_LT(m.bank, geom.banksPerGroup);
        EXPECT_LT(m.column, geom.linesPerRow());
        EXPECT_LT(m.row, geom.rowsPerBank);
    }
}

TEST_F(MappingTest, ConsecutiveLinesShareRow)
{
    // Column bits sit lowest: sequential lines fill a row (open-page
    // friendliness, Table 2).
    const Addr base = Addr{7} << 30;
    const MappedAddr first = map.decompose(base);
    for (unsigned i = 1; i < geom.linesPerRow(); ++i) {
        const MappedAddr m = map.decompose(base + i * 64ull);
        EXPECT_TRUE(m.sameRow(first)) << i;
        EXPECT_EQ(m.column, i);
    }
    // The next line after the row moves to another bank, same row id.
    const MappedAddr next =
        map.decompose(base + Addr{geom.rowBytes});
    EXPECT_FALSE(next.sameBank(first));
}

TEST_F(MappingTest, SameBankStrideIsTheFullBankSpan)
{
    // Consecutive DRAM rows of one bank are a full bank-span apart in
    // the flat address space (Table 2's rw:rk:bk:ch:cl order).
    const Addr a = Addr{1} << 30;
    const Addr b = a + (Addr{1} << 18); // +1 row, same selector bits
    const MappedAddr ma = map.decompose(a);
    const MappedAddr mb = map.decompose(b);
    EXPECT_EQ(mb.row, ma.row + 1);
    EXPECT_TRUE(ma.sameBank(mb));
}

TEST_F(MappingTest, StrideRemapIsInvolution)
{
    Rng rng(4);
    for (unsigned unit : {8u, 16u, 32u}) {
        const unsigned g = 64 / unit;
        for (int i = 0; i < 500; ++i) {
            const Addr v = rng.next() & ((Addr{1} << 40) - 1);
            EXPECT_EQ(map.strideRemap(map.strideRemap(v, g, unit), g,
                                      unit),
                      v);
        }
    }
}

TEST_F(MappingTest, StrideRemapWalksChunksAcrossLines)
{
    // Figure 10 semantics: a virtually-contiguous strided walk of 16B
    // chunks lands on chunk slot s of G consecutive physical lines.
    const unsigned unit = 16, g = 4;
    const Addr page = Addr{5} << 12;
    for (unsigned chunk = 0; chunk < g; ++chunk) {
        const Addr v = page + chunk * unit; // virtual chunk index
        const Addr p = map.strideRemap(v, g, unit);
        // Physical: line `chunk` of the group, chunk slot 0.
        EXPECT_EQ(p, page + chunk * kCachelineBytes);
    }
    // The second virtual line selects chunk slot 1 of each line.
    const Addr v2 = page + kCachelineBytes;
    EXPECT_EQ(map.strideRemap(v2, g, unit), page + unit);
}

TEST_F(MappingTest, StrideRemapPreservesPageBase)
{
    Rng rng(5);
    for (int i = 0; i < 300; ++i) {
        const Addr v = rng.next() & ((Addr{1} << 40) - 1);
        const Addr p = map.strideRemap(v, 8, 8);
        EXPECT_EQ(p & ~Addr{511}, v & ~Addr{511}); // same 512B group
    }
}

TEST_F(MappingTest, StrideGatherBuildsLinePlans)
{
    // The hardware view of an sload: G consecutive physical lines at
    // one chunk slot each, derived purely from the Figure 10 remap.
    for (unsigned unit : {8u, 16u, 32u}) {
        const unsigned g = 64 / unit;
        const Addr group_base = Addr{3} << 20;
        for (unsigned vline = 0; vline < g; ++vline) {
            const auto plan = map.strideGather(
                group_base + vline * kCachelineBytes, g, unit);
            ASSERT_EQ(plan.lines.size(), g);
            EXPECT_EQ(plan.sector, vline); // virtual line = chunk slot
            for (unsigned i = 0; i < g; ++i)
                EXPECT_EQ(plan.lines[i],
                          group_base + i * kCachelineBytes);
        }
    }
}

TEST_F(MappingTest, StrideGatherRoundTripsThroughData)
{
    // Scatter then gather through a DataPath using the ISA-level plan:
    // the virtual stride line reads back exactly.
    DataPath dp(EccScheme::SscDsd);
    const unsigned unit = 8, g = 8;
    const Addr base = Addr{9} << 20;
    std::vector<std::uint8_t> stride_line(kCachelineBytes);
    for (unsigned i = 0; i < kCachelineBytes; ++i)
        stride_line[i] = static_cast<std::uint8_t>(i * 3 + 1);
    const auto plan = map.strideGather(base + 2 * kCachelineBytes, g,
                                       unit);
    dp.strideWrite(plan.lines.data(), plan.lines.size(), plan.sector, unit,
                   stride_line.data());
    std::vector<std::uint8_t> back(kCachelineBytes);
    dp.strideReadInto(plan.lines.data(), plan.lines.size(), plan.sector,
                      unit, back.data());
    EXPECT_EQ(back, stride_line);
}

// --------------------------------------------------------------------
// FR-FCFS controller
// --------------------------------------------------------------------

class ControllerTest : public ::testing::Test
{
  protected:
    ControllerTest()
        : device(geom, ddr4Timing()), dataPath(EccScheme::Ssc),
          mapping(geom), ctrl(device, dataPath, mapping)
    {
    }

    MemRequest
    readReq(Addr line, Cycle arrival)
    {
        MemRequest r;
        r.type = AccessType::Read;
        r.addr = line;
        r.arrival = arrival;
        r.id = nextId++;
        r.setLine(line);
        r.device.addr = mapping.decompose(line);
        return r;
    }

    MemRequest
    writeReq(Addr line, Cycle arrival)
    {
        MemRequest r = readReq(line, arrival);
        r.type = AccessType::Write;
        r.device.isWrite = true;
        r.writeData.assign(kCachelineBytes, 0x5a);
        return r;
    }

    Geometry geom;
    Device device;
    DataPath dataPath;
    AddressMapping mapping;
    MemoryController ctrl;
    std::uint64_t nextId = 1;
};

TEST_F(ControllerTest, EmptyControllerReturnsNothing)
{
    EXPECT_FALSE(ctrl.serviceNext().has_value());
    EXPECT_FALSE(ctrl.hasPending());
}

TEST_F(ControllerTest, ServesSingleRead)
{
    std::array<std::uint8_t, kCachelineBytes> line;
    line.fill(0xab);
    dataPath.writeLine(0x1000, line.data());
    ctrl.push(readReq(0x1000, 0));
    const auto c = ctrl.serviceNext();
    ASSERT_TRUE(c.has_value());
    EXPECT_TRUE(c->isRead);
    EXPECT_GT(c->done, 0u);
    EXPECT_EQ(c->data, line);
}

TEST_F(ControllerTest, RowHitPreferredOverOlderConflict)
{
    // Open a row, then queue a conflicting request (older) and a
    // row-hit request (younger): FR-FCFS must pick the hit.
    ctrl.push(readReq(0x0, 0));
    ctrl.serviceNext(); // opens row of 0x0

    ctrl.push(readReq(Addr{geom.rowBytes} * 32, 1)); // same bank, other row
    ctrl.push(readReq(0x40, 2));                     // row hit
    const auto first = ctrl.serviceNext();
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->id, 3u); // the row hit (ids 1,2,3 in push order)
    EXPECT_GE(ctrl.stats().frRowHitPicks.value(), 1u);
}

TEST_F(ControllerTest, WritesDrainWhenReadsIdle)
{
    ctrl.push(writeReq(0x2000, 0));
    const auto c = ctrl.serviceNext();
    ASSERT_TRUE(c.has_value());
    EXPECT_FALSE(c->isRead);
    EXPECT_EQ(ctrl.stats().writesServed.value(), 1u);
    // The write landed functionally.
    std::uint8_t back[kCachelineBytes];
    dataPath.readLineInto(0x2000, back);
    EXPECT_EQ(back[0], 0x5a);
}

TEST_F(ControllerTest, ReadsPrioritisedUntilWriteWatermark)
{
    // Queue a few writes (below high watermark) and one read: the read
    // must be served first.
    for (int i = 0; i < 4; ++i)
        ctrl.push(writeReq(0x4000 + i * 64ull, 0));
    ctrl.push(readReq(0x8000, 0));
    const auto c = ctrl.serviceNext();
    ASSERT_TRUE(c.has_value());
    EXPECT_TRUE(c->isRead);
}

TEST_F(ControllerTest, WriteBurstTriggersDrainMode)
{
    // Fill beyond the high watermark: writes must start draining even
    // with reads present.
    for (int i = 0; i < 25; ++i)
        ctrl.push(writeReq(0x10000 + i * 64ull, 0));
    ctrl.push(readReq(0x20000, 0));
    const auto c = ctrl.serviceNext();
    ASSERT_TRUE(c.has_value());
    EXPECT_FALSE(c->isRead); // draining
}

TEST_F(ControllerTest, DrainAllCompletesEverything)
{
    for (int i = 0; i < 10; ++i) {
        ctrl.push(readReq(0x40000 + i * 4096ull, i));
        ctrl.push(writeReq(0x80000 + i * 4096ull, i));
    }
    const Cycle last = ctrl.drainAll();
    EXPECT_FALSE(ctrl.hasPending());
    EXPECT_GT(last, 0u);
    EXPECT_EQ(ctrl.stats().readsServed.value(), 10u);
    EXPECT_EQ(ctrl.stats().writesServed.value(), 10u);
}

TEST_F(ControllerTest, SequentialReadsPipelineOnOpenRow)
{
    // 16 sequential lines: one ACT, 15 hits; throughput near tBL.
    std::vector<Cycle> done;
    for (int i = 0; i < 16; ++i)
        ctrl.push(readReq(0x100000 + i * 64ull, 0));
    while (auto c = ctrl.serviceNext())
        done.push_back(c->done);
    ASSERT_EQ(done.size(), 16u);
    // Average spacing of completions close to the burst length.
    const double span =
        static_cast<double>(done.back() - done.front());
    EXPECT_LT(span / 15.0, ddr4Timing().tCCD_L + 1);
    EXPECT_EQ(device.stats().activates.value(), 1u);
}

TEST_F(ControllerTest, TimingOnlyModeSkipsData)
{
    MemoryController dry(device, dataPath, mapping, {}, false);
    MemRequest r = readReq(0x3000, 0);
    dry.push(std::move(r));
    const auto c = dry.serviceNext();
    ASSERT_TRUE(c.has_value());
    // No functional read: the data path checked no line.
    EXPECT_EQ(dataPath.stats().linesChecked.value(), 0u);
    // Timing-only writes need no payload.
    MemRequest w;
    w.type = AccessType::Write;
    w.addr = 0x3040;
    w.setLine(0x3040);
    w.device.addr = mapping.decompose(0x3040);
    w.device.isWrite = true;
    dry.push(std::move(w));
    EXPECT_NO_THROW(dry.serviceNext());
}

TEST_F(ControllerTest, StrideRequestGathersFunctionally)
{
    std::vector<Addr> lines;
    for (unsigned i = 0; i < 4; ++i) {
        const Addr a = 0x200000 + i * 64ull;
        std::vector<std::uint8_t> data(kCachelineBytes,
                                       static_cast<std::uint8_t>(i));
        dataPath.writeLine(a, data.data());
        lines.push_back(a);
    }
    MemRequest r;
    r.type = AccessType::StrideRead;
    r.addr = lines[0];
    r.sector = 1;
    r.strideUnit = 16;
    r.setLines(lines.data(), lines.size());
    r.device.addr = mapping.decompose(lines[0]);
    r.device.mode = AccessMode::Stride;
    r.id = 99;
    ctrl.push(std::move(r));
    const auto c = ctrl.serviceNext();
    ASSERT_TRUE(c.has_value());
    for (unsigned i = 0; i < 4; ++i) {
        for (unsigned b = 0; b < 16; ++b)
            EXPECT_EQ(c->data[i * 16 + b], i);
    }
    EXPECT_EQ(ctrl.stats().strideReadsServed.value(), 1u);
}

TEST_F(ControllerTest, ReadLatencyAccumulates)
{
    ctrl.push(readReq(0x5000, 0));
    ctrl.serviceNext();
    EXPECT_GT(ctrl.stats().totalReadLatency.value(), 0.0);
}

// The queue removes heap entries lazily and rebuilds its indexes once
// stale entries outnumber live ones (RequestQueue::maybeCompact). Churn
// through enough push/pop cycles to cross the rebuild budget
// (2 * live + 64) many times over while the live backlog stays small,
// and check the FR-FCFS pick order and size bookkeeping never drift.
// With no open rows in the device, every pick is rule 2: oldest
// insertion first.
TEST_F(ControllerTest, RequestQueueCompactionKeepsFcfsOrder)
{
    RequestQueue q(geom);
    bool row_hit = false;
    std::uint64_t expect_id = 1;

    // Sustained churn: grow the backlog to 96, then pop 64, for many
    // rounds. Spread requests over distinct rows so the row buckets
    // accumulate stale entries too.
    for (unsigned round = 0; round < 32; ++round) {
        for (unsigned i = 0; i < 96; ++i) {
            const Addr line =
                Addr{(round * 96 + i) % 1024} * geom.rowBytes +
                (i % 8) * kCachelineBytes;
            q.push(readReq(line, /*arrival=*/0));
        }
        for (unsigned i = 0; i < 64; ++i) {
            ASSERT_FALSE(q.empty());
            const MemRequest r = q.popBest(/*now=*/1, row_hit);
            EXPECT_FALSE(row_hit);
            ASSERT_EQ(r.id, expect_id++);
        }
    }
    // 32 * (96 - 64) requests remain; drain them in insertion order.
    EXPECT_EQ(q.size(), 32u * 32u);
    while (!q.empty()) {
        const MemRequest r = q.popBest(/*now=*/1, row_hit);
        ASSERT_EQ(r.id, expect_id++);
    }
    EXPECT_EQ(expect_id, nextId);
    EXPECT_EQ(q.size(), 0u);
}

// Same churn with future arrivals: requests promote from the pending
// heap as the clock advances, so compaction also runs against a queue
// whose eligible set is a moving subset of the backlog.
TEST_F(ControllerTest, RequestQueueCompactionWithStaggeredArrivals)
{
    RequestQueue q(geom);
    bool row_hit = false;
    // 1024 requests arriving at cycles 0, 10, 20, ...; each pop runs
    // at `now` just past its own request's arrival, so only a small
    // arrived window is eligible at any pick.
    for (unsigned i = 0; i < 1024; ++i) {
        q.push(readReq(Addr{i % 256} * geom.rowBytes,
                       /*arrival=*/Cycle{i} * 10));
    }
    std::uint64_t expect_id = nextId - 1024;
    for (unsigned i = 0; i < 1024; ++i) {
        const MemRequest r =
            q.popBest(/*now=*/Cycle{i} * 10 + 1, row_hit);
        ASSERT_EQ(r.id, expect_id++);
    }
    EXPECT_TRUE(q.empty());
}

// --------------------------------------------------------------------
// The indexed queue against the O(n) scan it replaced
// --------------------------------------------------------------------

/**
 * Reference FR-FCFS scheduler: rules 1-3 by a scan over every queued
 * request, against its own open-row image.
 */
class ScanQueue
{
  public:
    explicit ScanQueue(const Geometry &geom)
        : geom_(geom), openRow_(geom.totalBanks(), kClosed)
    {
    }

    void push(const MemRequest &req)
    {
        queued_.push_back({req.id, req.arrival, nextSeq_++,
                           req.device.addr.flatBank(geom_),
                           req.device.addr.row});
    }

    void opened(std::size_t fb, std::uint64_t row) { openRow_[fb] = row; }
    void closed(std::size_t fb) { openRow_[fb] = kClosed; }

    /** Id of the pick; `row_hit` tells whether rule 1 chose it. */
    std::uint64_t pick(Cycle now, bool &row_hit)
    {
        std::size_t best = queued_.size();
        const auto better = [&](std::size_t i, bool by_arrival) {
            if (best == queued_.size())
                return true;
            const Entry &a = queued_[i];
            const Entry &b = queued_[best];
            if (by_arrival && a.arrival != b.arrival)
                return a.arrival < b.arrival;
            return a.seq < b.seq;
        };
        for (std::size_t i = 0; i < queued_.size(); ++i) {
            const Entry &e = queued_[i];
            if (e.arrival <= now && openRow_[e.bank] == e.row &&
                better(i, false))
                best = i;
        }
        row_hit = best != queued_.size();
        for (std::size_t i = 0; !row_hit && i < queued_.size(); ++i) {
            if (queued_[i].arrival <= now && better(i, false))
                best = i;
        }
        if (best == queued_.size()) {
            for (std::size_t i = 0; i < queued_.size(); ++i) {
                if (better(i, true))
                    best = i;
            }
        }
        const std::uint64_t id = queued_[best].id;
        queued_.erase(queued_.begin() +
                      static_cast<std::ptrdiff_t>(best));
        return id;
    }

    std::size_t size() const { return queued_.size(); }

  private:
    static constexpr std::uint64_t kClosed = ~std::uint64_t{0};

    struct Entry
    {
        std::uint64_t id;
        Cycle arrival;
        std::uint64_t seq;
        std::size_t bank;
        std::uint64_t row;
    };

    Geometry geom_;
    std::vector<std::uint64_t> openRow_;
    std::vector<Entry> queued_;
    std::uint64_t nextSeq_ = 0;
};

/** One seeded traffic shape for the differential queue test. */
struct QueueShape
{
    const char *name;
    std::uint64_t seed;
    unsigned depth;         ///< Backlog the producer keeps up to.
    unsigned banks;         ///< Flat banks requests spread over.
    unsigned rowsPerBank;   ///< Distinct rows per bank (repeats).
    Cycle arrivalSpread;    ///< Arrivals land in [now, now + spread).
    unsigned rowEventPct;   ///< Per-step chance of a row transition.
};

void
PrintTo(const QueueShape &shape, std::ostream *os)
{
    *os << shape.name;
}

class QueueDifferentialTest : public ::testing::TestWithParam<QueueShape>
{
};

TEST_P(QueueDifferentialTest, PicksMatchScanOfRulesOneToThree)
{
    const QueueShape shape = GetParam();
    const Geometry geom;
    RequestQueue queue(geom);
    ScanQueue scan(geom);
    Rng rng(shape.seed);
    std::uint64_t id = 0;
    const auto make = [&](Cycle arrival) {
        MemRequest req;
        req.id = ++id;
        req.type = AccessType::Write;
        req.arrival = arrival;
        const unsigned fb =
            static_cast<unsigned>(rng.below(shape.banks)) * 7 %
            geom.totalBanks();
        MappedAddr &a = req.device.addr;
        a.rank = fb / geom.banksPerRank();
        a.bankGroup = fb % geom.banksPerRank() / geom.banksPerGroup;
        a.bank = fb % geom.banksPerGroup;
        a.row = 100 + rng.below(shape.rowsPerBank);
        req.device.isWrite = true;
        return req;
    };

    Cycle now = 0;
    unsigned row_hits = 0;
    unsigned picks = 0;
    for (unsigned step = 0; step < 6'000; ++step) {
        now += rng.below(4);
        // Refill toward the target depth in bursts, like a write
        // queue filling with scrubs.
        const unsigned burst = static_cast<unsigned>(rng.below(6));
        for (unsigned i = 0; i < burst && scan.size() < shape.depth;
             ++i) {
            const MemRequest req =
                make(now + rng.below(shape.arrivalSpread));
            scan.push(req);
            queue.push(req);
        }
        if (rng.below(100) < shape.rowEventPct) {
            const std::size_t fb = rng.below(geom.totalBanks());
            if (rng.below(3) == 0) {
                scan.closed(fb);
                queue.noteRowClosed(fb);
            } else {
                const std::uint64_t row = 100 + rng.below(
                    shape.rowsPerBank);
                scan.opened(fb, row);
                queue.noteRowOpened(fb, row);
            }
        }
        // Drain faster than the producer now and then, so the queue
        // also empties and the compaction budget is crossed often.
        const unsigned pops = rng.below(10) == 0 ? 8 : 1;
        for (unsigned p = 0; p < pops && scan.size() > 0; ++p) {
            bool want_hit = false;
            bool got_hit = false;
            const std::uint64_t want = scan.pick(now, want_hit);
            const MemRequest got = queue.popBest(now, got_hit);
            ASSERT_EQ(got.id, want) << "step " << step;
            ASSERT_EQ(got_hit, want_hit) << "step " << step;
            ASSERT_EQ(queue.size(), scan.size());
            row_hits += got_hit;
            ++picks;
            if (rng.below(4) != 0) {
                // Serving the pick opens its row, as the Device would.
                const std::size_t fb = got.device.addr.flatBank(geom);
                scan.opened(fb, got.device.addr.row);
                queue.noteRowOpened(fb, got.device.addr.row);
            }
        }
    }
    // Every shape exercises all three rules' paths.
    EXPECT_GT(row_hits, picks / 20);
    EXPECT_LT(row_hits, picks);
}

INSTANTIATE_TEST_SUITE_P(
    SeededShapes, QueueDifferentialTest,
    ::testing::Values(
        // A 256-deep write queue of scrubs to a few repeated rows.
        QueueShape{"scrub_storm_256", 0x5C2B, 256, 4, 3, 40, 20},
        // Deep queue, many rows per bank, future arrivals (rule 3).
        QueueShape{"deep_random_256", 0xD33B, 256, 32, 8, 200, 30},
        // Shallow queue, frequent row transitions.
        QueueShape{"shallow_churn", 0x5AA1, 24, 32, 4, 20, 80},
        // One bank, one row: every arrived request is a hit candidate.
        QueueShape{"one_row", 0x0E0E, 64, 1, 1, 10, 5}),
    [](const auto &info) { return std::string(info.param.name); });

} // namespace
} // namespace sam
