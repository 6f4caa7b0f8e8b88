#include "src/sim/table_cache.hh"

#include <algorithm>

#include "src/common/logging.hh"
#include "src/common/thread_pool.hh"
#include "src/ecc/ecc_engine.hh"

namespace sam {

namespace {

/** Record lines [first, last) of one table, built into the snapshot
 *  slots starting at `slot0 + first`. */
struct BuildPiece
{
    const Table *table;
    std::size_t slot0;
    std::uint64_t first;
    std::uint64_t last;
};

/** Build a piece's data bytes into its slots. The parity tail of each
 *  slot stays zero: the snapshot is lazy-parity, so the ECC encode --
 *  the dominant materialization cost -- is deferred to the rare
 *  consumer that actually observes a codeword. */
void
buildPiece(const BuildPiece &p, StoreSnapshot &snap)
{
    for (std::uint64_t i = p.first; i < p.last; ++i) {
        p.table->buildLine(i * kCachelineBytes,
                           snap.mutableBlob(p.slot0 + i));
    }
}

} // namespace

TableCache::TableCache(unsigned build_threads)
    : buildThreads_(build_threads ? build_threads
                                  : ThreadPool::defaultWorkers())
{
}

TableCache::~TableCache() = default;

StoreSnapshot
TableCache::buildSnapshot(const Table &ta, const Table &tb,
                          unsigned parity_bytes)
{
    // Lay out the slot structure up front (ta fully, then tb, both in
    // ascending address order, padding included), giving arena bytes
    // only to the lines that hold records, then build each of those
    // lines' data bytes independently into its slot. Parity stays
    // zero-filled: the snapshot is marked lazy-parity and the
    // installing store reconstructs codewords on demand.
    StoreSnapshot snap;
    snap.blobBytes = kCachelineBytes + parity_bytes;
    snap.lazyParity = parity_bytes > 0;
    const std::vector<LineRun> runs[2] = {ta.recordLineRuns(),
                                          tb.recordLineRuns()};
    const Table *tables[2] = {&ta, &tb};
    std::size_t slot0[2] = {0, 0};
    std::uint64_t total = 0;
    for (unsigned t = 0; t < 2; ++t) {
        const std::uint64_t footprint = tables[t]->footprintBytes();
        sam_assert(footprint % kCachelineBytes == 0,
                   "table footprint not line-aligned");
        slot0[t] = snap.appendRows(tables[t]->base(),
                                   footprint / kCachelineBytes, runs[t]);
        for (const LineRun &r : runs[t])
            total += r.count;
    }

    // Cut the record lines into pieces of at most `chunk` lines. Every
    // piece writes disjoint slots, so the result is byte-identical at
    // any thread count.
    const std::uint64_t chunk =
        std::max<std::uint64_t>(4096, total / (8 * buildThreads_));
    std::vector<BuildPiece> pieces;
    for (unsigned t = 0; t < 2; ++t) {
        for (const LineRun &r : runs[t]) {
            for (std::uint64_t first = r.first; first < r.first + r.count;
                 first += chunk) {
                pieces.push_back(BuildPiece{
                    tables[t], slot0[t], first,
                    std::min(r.first + r.count, first + chunk)});
            }
        }
    }

    // Small builds are not worth the fan-out overhead.
    constexpr std::uint64_t kMinParallelLines = 1 << 14;
    if (buildThreads_ <= 1 || total < kMinParallelLines) {
        for (const BuildPiece &p : pieces)
            buildPiece(p, snap);
        return snap;
    }

    // One task per about `chunk` lines of consecutive pieces (a
    // VerticalGroup table's partial band is thousands of short runs).
    std::vector<std::function<void()>> tasks;
    for (std::size_t begin = 0; begin < pieces.size();) {
        std::size_t end = begin;
        for (std::uint64_t lines = 0;
             end < pieces.size() && lines < chunk; ++end)
            lines += pieces[end].last - pieces[end].first;
        tasks.push_back([&pieces, &snap, begin, end] {
            for (std::size_t i = begin; i < end; ++i)
                buildPiece(pieces[i], snap);
        });
        begin = end;
    }
    MutexLock pool_lock(poolMutex_);
    if (!pool_)
        pool_ = std::make_unique<ThreadPool>(buildThreads_);
    pool_->run(std::move(tasks));
    return snap;
}

std::shared_ptr<const StoreSnapshot>
TableCache::materialized(const Table &ta, const Table &tb, EccScheme ecc)
{
    sam_assert(ta.layout() == tb.layout(),
               "table pair with mixed layouts");
    // Lazy-parity snapshots hold only data bytes, so the cached blobs
    // depend on the parity *size* (slot stride), not the ECC scheme:
    // every chipkill scheme with the same parity footprint shares one
    // build.
    const unsigned parity_bytes = EccEngine::parityBytesFor(ecc);
    const Key key{ta.layout(),          parity_bytes,
                  ta.gather(),          ta.base(),
                  ta.schema().numRecords, ta.schema().numFields,
                  tb.base(),            tb.schema().numRecords,
                  tb.schema().numFields};

    std::shared_ptr<Entry> entry;
    {
        MutexLock lock(mutex_);
        auto &slot = entries_[key];
        if (!slot)
            slot = std::make_shared<Entry>();
        entry = slot;
    }

    MutexLock build_lock(entry->build);
    if (entry->snap) {
        hits_.fetch_add(1);
        return entry->snap;
    }
    ++misses_;
    entry->snap = std::make_shared<const StoreSnapshot>(
        buildSnapshot(ta, tb, parity_bytes));
    return entry->snap;
}

} // namespace sam
