/**
 * @file
 * Per-core memory port: a private sector-cache hierarchy whose memory
 * side performs functional transfers against the DataPath and records
 * the trace that the timing replay later schedules.
 */

#ifndef SAM_SIM_CORE_PORT_HH
#define SAM_SIM_CORE_PORT_HH

#include <cstdint>

#include "src/cache/hierarchy.hh"
#include "src/dram/data_path.hh"
#include "src/imdb/executor.hh"
#include "src/sim/trace.hh"

namespace sam {

/**
 * Cache configuration of one core (paper Table 2). The latency field is
 * the *core-visible issue cost* of an access satisfied at that level,
 * not the load-to-use latency: an out-of-order core overlaps
 * independent loads, so only the issue/occupancy cost serialises the
 * instruction stream. Memory-bound completion latency is modelled by
 * the MSHR-bounded trace replay.
 */
struct CoreCacheConfig
{
    CacheParams l1{32 * 1024, 8, 64, 1};
    CacheParams l2{256 * 1024, 8, 64, 2};
    /** Per-core LLC slice (8MB shared / 4 cores). */
    CacheParams llc{2 * 1024 * 1024, 16, 64, 4};
};

class CorePort : public MemPort, public MemBackend
{
  public:
    CorePort(unsigned core_id, const CoreCacheConfig &cfg,
             unsigned stride_unit, DataPath &data_path);

    // ----- MemPort (executor side) ---------------------------------
    std::uint64_t load(Addr addr, unsigned bytes) override;
    void store(Addr addr, std::uint64_t value, unsigned bytes) override;
    void storeStream(Addr addr, std::uint64_t value,
                     unsigned bytes) override;
    void strideLoadInto(const GatherPlan &plan,
                        std::uint8_t *out64) override;
    void strideStore(const GatherPlan &plan,
                     const std::uint8_t *line64) override;
    void compute(Cycle cycles) override;
    bool lastAccessPoisoned() const override { return loadPoisoned_; }
    std::uint32_t strideLoadPoisonBits() const override
    {
        return strideLoadPoison_;
    }

    // ----- MemBackend (cache memory side) ---------------------------
    void fetchLine(Addr line, std::uint8_t *out64) override;
    void fetchStride(const GatherPlan &plan, std::uint8_t *out64) override;
    void writeback(const Writeback &wb) override;
    void writeStride(const GatherPlan &plan,
                     const std::uint8_t *line64) override;
    bool lastFetchPoisoned() const override { return fetchPoisoned_; }
    std::uint32_t lastStridePoisonBits() const override
    {
        return strideFetchPoison_;
    }

    /** Start a new barrier epoch. */
    void newEpoch();

    /** Flush caches (writebacks land in the current epoch). */
    void flushCaches() { hierarchy_.flush(); }

    const CoreTrace &trace() const { return trace_; }
    Cycle clock() const { return clock_; }
    unsigned coreId() const { return coreId_; }
    const CacheHierarchy &hierarchy() const { return hierarchy_; }

  private:
    /** Append one entry whose lines are already in the trace pool. */
    void record(AccessType type, std::size_t pool_offset,
                std::size_t count, unsigned sector);

    /** Record a single-line entry (regular read/write). */
    void recordLine(AccessType type, Addr line);

    /** Record a stride entry over the plan's line list. */
    void recordSpan(AccessType type, const GatherPlan &plan);

    /** Record demand-scrub writebacks the last read triggered. */
    void recordScrubs(const ReadFlags &flags);

    unsigned coreId_;
    unsigned strideUnit_;
    DataPath &dataPath_;
    CacheHierarchy hierarchy_;
    CoreTrace trace_;
    Cycle clock_ = 0;
    Cycle lastRecord_ = 0;
    // Poison state of the most recent memory-side fetches (MemBackend
    // queries) and core-side accesses (MemPort queries).
    bool fetchPoisoned_ = false;
    std::uint32_t strideFetchPoison_ = 0;
    bool loadPoisoned_ = false;
    std::uint32_t strideLoadPoison_ = 0;
};

} // namespace sam

#endif // SAM_SIM_CORE_PORT_HH
