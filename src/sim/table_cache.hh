/**
 * @file
 * Process-wide cache of materialized benchmark tables.
 *
 * Materializing a table pair -- the dominant setup cost of building a
 * simulated system -- builds the data bytes of every line that holds
 * records (Table::recordLineRuns). Padding lines keep their snapshot
 * slots but get no arena bytes: they read as the snapshot's shared
 * all-zero blob, which is what they hold, so a mostly-padding
 * VerticalGroup table costs only its records. Snapshots are
 * lazy-parity (StoreSnapshot::lazyParity): slots hold real data but
 * zero parity, and the installing BackingStore reconstructs codewords
 * on demand for the rare consumers that observe one (fault
 * corruption, decode under injection, capture). The built bytes depend
 * only on (schema, layout, base address, gather factor, parity
 * footprint), not on the design or even the concrete ECC scheme, so a
 * campaign running many designs and sweep points builds each distinct
 * table pair once and shares the immutable blobs across all chipkill
 * schemes alike.
 *
 * Thread-safe: campaign workers share one cache. A key is materialized
 * under its own entry lock, so concurrent first touches of different
 * keys proceed in parallel while duplicate touches of the same key
 * wait and then share.
 */

#ifndef SAM_SIM_TABLE_CACHE_HH
#define SAM_SIM_TABLE_CACHE_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <tuple>

#include "src/common/thread_annotations.hh"
#include "src/dram/backing_store.hh"
#include "src/dram/timing.hh"
#include "src/imdb/table.hh"

namespace sam {

class ThreadPool;

class TableCache
{
  public:
    /**
     * @param build_threads Worker threads for cold table builds
     *        (0 picks the host's core count, 1 builds serially). The
     *        built bytes are identical at any thread count: the
     *        snapshot's slot layout is fixed up front and workers
     *        build disjoint line ranges in place.
     */
    explicit TableCache(unsigned build_threads = 0);
    ~TableCache();

    /**
     * The materialized contents of `ta` and `tb` under `ecc`, building
     * them on first touch. The snapshot has one slot per footprint
     * line, padding included, in ascending address order (ta fully,
     * then tb), so fault-target sampling over an installed snapshot is
     * deterministic and independent of which lines own bytes.
     */
    std::shared_ptr<const StoreSnapshot>
    materialized(const Table &ta, const Table &tb, EccScheme ecc);

    std::uint64_t hits() const { return hits_.load(); }
    std::uint64_t misses() const { return misses_.load(); }

  private:
    /**
     * Everything the built bytes depend on. Snapshots are lazy-parity
     * (data bytes only), so the second component is the parity byte
     * footprint rather than the ECC scheme -- all schemes with the
     * same slot stride share one build.
     */
    using Key = std::tuple<LayoutKind, unsigned, unsigned,  // parity, gather
                           Addr, std::uint64_t, unsigned,   // ta
                           Addr, std::uint64_t, unsigned>;  // tb

    struct Entry
    {
        Mutex build;
        std::shared_ptr<const StoreSnapshot> snap SAM_GUARDED_BY(build);
    };

    /** Build both tables' record lines into a fresh lazy-parity
     *  snapshot (cold path). */
    StoreSnapshot buildSnapshot(const Table &ta, const Table &tb,
                                unsigned parity_bytes);

    Mutex mutex_;
    std::map<Key, std::shared_ptr<Entry>> entries_ SAM_GUARDED_BY(mutex_);
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};

    unsigned buildThreads_;
    /** Lazily created on the first parallel cold build and held across
     *  run() (ThreadPool::run is not reentrant and not concurrently
     *  callable, so simultaneous cold builds of different keys
     *  serialize here -- each still encodes with all workers). */
    Mutex poolMutex_;
    std::unique_ptr<ThreadPool> pool_ SAM_GUARDED_BY(poolMutex_);
};

} // namespace sam

#endif // SAM_SIM_TABLE_CACHE_HH
