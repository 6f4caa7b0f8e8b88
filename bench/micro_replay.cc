/**
 * @file
 * google-benchmark microbenchmarks for the simulation hot paths this
 * perf work targets: arena trace append, the clean-line ECC read fast
 * path (on vs off), the allocation-free encode+store write path, the
 * corrected read of a dead-chip line, an end-to-end phase-1 + replay
 * run reported in records/second, FR-FCFS picks, and the protocol
 * oracle reported in commands/second.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "src/cache/sector_cache.hh"
#include "src/check/protocol_checker.hh"
#include "src/common/types.hh"
#include "src/controller/request_queue.hh"
#include "src/core/session.hh"
#include "src/dram/data_path.hh"
#include "src/dram/device.hh"
#include "src/ecc/ecc_engine.hh"
#include "src/faults/fault_injector.hh"
#include "src/faults/ras_engine.hh"
#include "src/imdb/query.hh"
#include "src/sim/trace.hh"

namespace {

using namespace sam;

void
BM_TraceAppend(benchmark::State &state)
{
    CoreTrace trace;
    std::uint64_t n = 0;
    for (auto _ : state) {
        if (trace.entries.size() >= (1u << 20)) {
            // Reset before the offset fields overflow; keep the
            // capacity so steady state stays allocation-free.
            trace.pool.clear();
            trace.entries.clear();
            trace.epochEnds.clear();
        }
        const std::size_t offset = trace.pool.size();
        for (unsigned g = 0; g < 8; ++g)
            trace.pool.push_back((n + g) * kCachelineBytes);
        trace.append(AccessType::StrideRead, 3, offset, 8, 2);
        ++n;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TraceAppend);

/** Gather 8 clean lines through the DataPath read path. */
void
strideReadBench(benchmark::State &state, bool fast_path)
{
    DataPath dp(EccScheme::SscDsd);
    dp.setCleanFastPath(fast_path);
    const unsigned kLines = 1024;
    std::vector<std::uint8_t> line(kCachelineBytes, 0xa5);
    for (unsigned i = 0; i < kLines; ++i)
        dp.writeLine(i * kCachelineBytes, line.data());
    Addr gather[8];
    std::uint8_t out[kCachelineBytes];
    std::uint64_t n = 0;
    for (auto _ : state) {
        for (unsigned g = 0; g < 8; ++g)
            gather[g] = ((n * 8 + g) % kLines) * kCachelineBytes;
        const ReadFlags f = dp.strideReadInto(gather, 8, 0, 8, out);
        benchmark::DoNotOptimize(f.uncorrectable);
        benchmark::DoNotOptimize(out[0]);
        ++n;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(n) * 8);
}

void
BM_CleanStrideRead(benchmark::State &state)
{
    strideReadBench(state, /*fast_path=*/true);
}
BENCHMARK(BM_CleanStrideRead);

void
BM_CleanStrideReadDecodePath(benchmark::State &state)
{
    strideReadBench(state, /*fast_path=*/false);
}
BENCHMARK(BM_CleanStrideReadDecodePath);

/** The encode+store write path (writebacks, strided RMW). */
void
BM_WriteLineEncoded(benchmark::State &state)
{
    DataPath dp(EccScheme::SscDsd);
    const unsigned kLines = 1024;
    std::vector<std::uint8_t> line(kCachelineBytes, 0x5a);
    std::uint64_t n = 0;
    for (auto _ : state) {
        line[0] = static_cast<std::uint8_t>(n);
        dp.writeLine((n % kLines) * kCachelineBytes, line.data());
        ++n;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_WriteLineEncoded);

/**
 * Corrected reads as a chipkill run makes them: SSC-DSD with chip 5
 * dead from cycle 0 (the injector's chipkill model), table lines in a
 * lazy-parity snapshot, and a fresh DataPath (with its overlay) and
 * RasEngine (with its error log) every kRunLines reads -- the size of
 * one run -- so table growth and teardown are timed too. A run sweeps
 * the table once and re-reads its start: first touches rebuild the
 * parity, later reads come from the scrubbed overlay line; every read
 * corrupts, decodes, logs and scrubs.
 */
void
BM_FaultedRead(benchmark::State &state)
{
    constexpr EccScheme kScheme = EccScheme::SscDsd;
    constexpr std::size_t kTableLines = 16384;
    constexpr std::uint64_t kRunLines = 20000;
    auto snap = std::make_shared<StoreSnapshot>();
    snap->blobBytes =
        kCachelineBytes + EccEngine::parityBytesFor(kScheme);
    snap->lazyParity = true;
    snap->appendRows(0, kTableLines, {LineRun{0, kTableLines}});
    for (std::size_t s = 0; s < kTableLines; ++s) {
        std::uint8_t *blob = snap->mutableBlob(s);
        for (unsigned b = 0; b < kCachelineBytes; ++b)
            blob[b] = static_cast<std::uint8_t>(s * 131 + b);
    }
    FaultConfig fc;
    fc.model = FaultModel::Chipkill;
    fc.chipkillAt = 0;
    fc.chipkillChip = 5;

    struct Run
    {
        DataPath dp{kScheme};
        RasEngine ras;
        FaultInjector injector;

        Run(const FaultConfig &faults,
            const std::shared_ptr<const StoreSnapshot> &table)
            : injector(faults)
        {
            dp.setRasPolicy(&ras);
            dp.setFaultHook(&injector);
            dp.store().install(table);
        }
    };
    std::unique_ptr<Run> run;
    std::uint8_t out[kCachelineBytes];
    std::uint64_t n = 0;
    for (auto _ : state) {
        const std::uint64_t i = n % kRunLines;
        if (i == 0) {
            run.reset();
            run = std::make_unique<Run>(fc, snap);
        }
        run->dp.setNow(i * 10);
        const ReadFlags f = run->dp.readLineInto(
            (i % kTableLines) * kCachelineBytes, out);
        benchmark::DoNotOptimize(f.corrected);
        benchmark::DoNotOptimize(out[0]);
        ++n;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FaultedRead);

/**
 * End-to-end phase-1 + MSHR-bounded replay of one design point,
 * reported in table-A records per second of host wall time (the
 * campaign `throughput` metric).
 */
void
BM_SessionReplay(benchmark::State &state)
{
    SimConfig cfg;
    cfg.taRecords = 2048;
    cfg.tbRecords = 8192;
    cfg.collectStatsText = false;
    const Query q = benchmarkQQueries()[0];
    // One shared table cache across iterations, as in a campaign:
    // tables are encoded once, each iteration simulates a fresh system.
    auto tables = std::make_shared<TableCache>();
    std::uint64_t n = 0;
    for (auto _ : state) {
        Session session(cfg, tables);
        RunStats stats = session.run(DesignKind::SamEn, q);
        benchmark::DoNotOptimize(stats.cycles);
        ++n;
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(n * cfg.taRecords));
}

BENCHMARK(BM_SessionReplay)->Unit(benchmark::kMillisecond);

/**
 * EccEngine construction: with the shared CodecRegistry this is a map
 * lookup, not a Reed-Solomon table build. Sessions, DataPaths, and
 * table-encode workers all construct engines freely.
 */
void
BM_EccEngineConstruct(benchmark::State &state)
{
    // Warm the registry so the bench measures the steady state, not
    // the one-time table build.
    { EccEngine warm(EccScheme::SscDsd); }
    for (auto _ : state) {
        EccEngine engine(EccScheme::SscDsd);
        benchmark::DoNotOptimize(engine.parityBytesPerLine());
    }
}
BENCHMARK(BM_EccEngineConstruct);

/**
 * Full Session construction against a warm TableCache: the per-design
 * setup cost a campaign pays before every replay.
 */
void
BM_SessionConstruct(benchmark::State &state)
{
    SimConfig cfg;
    cfg.taRecords = 2048;
    cfg.tbRecords = 8192;
    cfg.collectStatsText = false;
    auto tables = std::make_shared<TableCache>();
    for (auto _ : state) {
        Session session(cfg, tables);
        benchmark::DoNotOptimize(&session);
    }
}
BENCHMARK(BM_SessionConstruct);

/**
 * The sector-cache fill + extract pair on the arena-backed SoA
 * layout: the per-chunk path of every stride fill and exclusive
 * promotion, which must not allocate.
 */
void
BM_SectorCacheFillExtract(benchmark::State &state)
{
    CacheParams params;
    params.sectorBytes = 8;
    SectorCache cache(params);
    const unsigned kLines = 1024;
    std::uint8_t chunk[kCachelineBytes];
    for (unsigned i = 0; i < kCachelineBytes; ++i)
        chunk[i] = static_cast<std::uint8_t>(i);
    std::uint64_t n = 0;
    for (auto _ : state) {
        const Addr line = (n % kLines) * kCachelineBytes;
        cache.fill(line, 0x0f, chunk, /*dirty=*/true);
        auto wb = cache.extract(line);
        benchmark::DoNotOptimize(wb->dirtyMask);
        ++n;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SectorCacheFillExtract);

/**
 * FR-FCFS picks on a 256-bank geometry (every System runs the
 * default 32) where most banks hold an open row but only a few have
 * eligible row hits -- the shape the hot-bank index targets (the
 * former rule-1 scan was O(totalBanks) per pick).
 */
void
BM_PopBestOpenRowHeavy(benchmark::State &state)
{
    Geometry geom;
    geom.channels = 8;  // 8 x 2 ranks x 16 banks = 256 flat banks.
    RequestQueue queue(geom);
    const unsigned banks_per_rank = geom.banksPerRank();
    const unsigned total_banks = geom.totalBanks();

    // Every bank has a row open (a busy steady state); row 7 is the
    // open row everywhere.
    for (unsigned fb = 0; fb < total_banks; ++fb)
        queue.noteRowOpened(fb, 7);

    std::uint64_t id = 0;
    auto makeReq = [&](unsigned fb, std::uint64_t row) {
        MemRequest req;
        req.id = ++id;
        req.arrival = 0;
        MappedAddr &a = req.device.addr;
        a.channel = fb / (geom.ranks * banks_per_rank);
        const unsigned in_channel = fb % (geom.ranks * banks_per_rank);
        a.rank = in_channel / banks_per_rank;
        const unsigned in_rank = in_channel % banks_per_rank;
        a.bankGroup = in_rank / geom.banksPerGroup;
        a.bank = in_rank % geom.banksPerGroup;
        a.row = row;
        return req;
    };

    // Backlog of 64 requests round-robin over the banks; 1 in 8 is a
    // row hit, the rest target closed rows of open banks.
    const unsigned kDepth = 64;
    std::uint64_t n = 0;
    for (unsigned i = 0; i < kDepth; ++i)
        queue.push(makeReq(i * 37 % total_banks,
                           i % 8 == 0 ? 7 : 1000 + i));
    bool row_hit = false;
    for (auto _ : state) {
        const MemRequest req = queue.popBest(/*now=*/1, row_hit);
        benchmark::DoNotOptimize(req.id);
        ++n;
        queue.push(makeReq(n * 37 % total_banks,
                           n % 8 == 0 ? 7 : 1000 + n % 512));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PopBestOpenRowHeavy);

/**
 * FR-FCFS picks from a write queue held 256 deep by scrub writebacks,
 * the shape after a chip dies: writes to a few repeated rows per bank,
 * so an open row usually has several candidates and the row-hit index
 * holds long runs. Each pick opens its own row, as the Device would.
 */
void
BM_PopBestScrubHeavy(benchmark::State &state)
{
    const Geometry geom;
    RequestQueue queue(geom);
    const unsigned total_banks = geom.totalBanks();
    std::uint64_t id = 0;
    Cycle now = 0;
    auto makeScrub = [&](std::uint64_t k) {
        MemRequest req;
        req.id = ++id;
        req.type = AccessType::Write;
        req.isScrub = true;
        req.arrival = now + k % 3;
        const unsigned fb = static_cast<unsigned>(k * 5 % total_banks);
        MappedAddr &a = req.device.addr;
        a.rank = fb / geom.banksPerRank();
        a.bankGroup = fb % geom.banksPerRank() / geom.banksPerGroup;
        a.bank = fb % geom.banksPerGroup;
        a.row = 100 + k / 7 % 4;
        req.device.isWrite = true;
        return req;
    };
    const unsigned kDepth = 256;
    std::uint64_t n = 0;
    for (; n < kDepth; ++n)
        queue.push(makeScrub(n));
    bool row_hit = false;
    for (auto _ : state) {
        const MemRequest req = queue.popBest(now, row_hit);
        benchmark::DoNotOptimize(req.id);
        queue.noteRowOpened(req.device.addr.flatBank(geom),
                            req.device.addr.row);
        queue.push(makeScrub(n++));
        now += 2;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(n - kDepth));
}
BENCHMARK(BM_PopBestScrubHeavy);

/**
 * The protocol oracle over a ~100k-command stream of seeded random
 * Device traffic (a quarter writes, an eighth stride-mode, idle gaps
 * that force refresh bursts): observe, sort, and check every command,
 * the work each checked run pays after its replay. Items are commands.
 */
void
BM_ProtocolChecker(benchmark::State &state)
{
    const Geometry geom;
    const TimingParams timing = ddr4Timing();
    std::vector<Command> stream;
    {
        Device device(geom, timing);
        device.addCommandObserver(
            &stream, [&stream](const Command &c) { stream.push_back(c); });
        std::mt19937 rng(42);
        Cycle t = 0;
        for (int i = 0; i < 30000; ++i) {
            DeviceAccess acc;
            acc.addr.rank = rng() % geom.ranks;
            acc.addr.bankGroup = rng() % geom.bankGroups;
            acc.addr.bank = rng() % geom.banksPerGroup;
            acc.addr.row = rng() % 64;
            acc.addr.column = rng() % geom.linesPerRow();
            acc.isWrite = rng() % 4 == 0;
            acc.mode = rng() % 8 == 0 ? AccessMode::Stride
                                      : AccessMode::Regular;
            acc.extraBursts = rng() % 16 == 0 ? 1 : 0;
            device.access(acc, t);
            t += rng() % 20;
            if (rng() % 128 == 0)
                t += 5000;
        }
        device.removeCommandObserver(&stream);
    }
    for (auto _ : state) {
        ProtocolChecker checker(geom, timing);
        for (const Command &c : stream)
            checker.observe(c);
        benchmark::DoNotOptimize(checker.clean());
    }
    state.counters["commands"] = static_cast<double>(stream.size());
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * stream.size()));
}
BENCHMARK(BM_ProtocolChecker)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
