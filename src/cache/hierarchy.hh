/**
 * @file
 * Three-level (L1/L2/LLC) exclusive write-back cache hierarchy with
 * sector support for stride-mode data (Section 5.1.1, paper Table 2).
 *
 * The hierarchy is purely functional plus hit-latency accounting: the
 * timing of memory-bound traffic is replayed later through the memory
 * controller. Fetches, stride gathers, and writebacks are delegated to
 * a MemBackend implemented by the system simulator, which performs the
 * functional memory operation and records the trace entry.
 */

#ifndef SAM_CACHE_HIERARCHY_HH
#define SAM_CACHE_HIERARCHY_HH

#include <array>
#include <cstdint>
#include <vector>

#include "src/common/gather.hh"
#include "src/cache/sector_cache.hh"

namespace sam {

/** Memory-side callbacks; implemented by the simulator's core port. */
class MemBackend
{
  public:
    virtual ~MemBackend() = default;

    /**
     * Fetch a full 64B line into `out64` (functional read + trace
     * record). Caller-provided buffer: the hot path allocates nothing.
     * Returns whether the fetched data is RAS-poisoned.
     */
    virtual bool fetchLine(Addr line, std::uint8_t *out64) = 0;

    /**
     * Fetch a stride gather (sload): writes the 64B strided line of G
     * chunks into `out64`. Returns the per-source-line poison bits
     * (bit i = source line i of the gather).
     */
    virtual std::uint32_t fetchStride(const GatherPlan &plan,
                                      std::uint8_t *out64) = 0;

    /** Write back a (possibly partially) dirty line. */
    virtual void writeback(const Writeback &wb) = 0;

    /**
     * Stride write-through (sstore): scatter the 64B stride line to
     * memory immediately (Section 5.1.2's sstore posts through the
     * controller's write queue rather than lingering as per-line dirty
     * state).
     */
    virtual void writeStride(const GatherPlan &plan,
                             const std::uint8_t *line64) = 0;
};

/** Outcome of a hierarchy access. */
struct HierResult
{
    Cycle delay = 0;        ///< Core-visible latency (hit path).
    bool memTouched = false;///< A memory request was generated.
    bool poisoned = false;  ///< Returned data includes poisoned bytes.
    /** Stride reads: bit i set when chunk i of the line is poisoned. */
    std::uint32_t poisonBits = 0;
};

class CacheHierarchy
{
  public:
    CacheHierarchy(const CacheParams &l1, const CacheParams &l2,
                   const CacheParams &llc, MemBackend &backend);

    /** Regular load of `bytes` (<= sector) at `addr`. */
    HierResult read(Addr addr, unsigned bytes, std::uint8_t *out);

    /** Regular store of `bytes` at `addr` (write-allocate). */
    HierResult write(Addr addr, const std::uint8_t *src, unsigned bytes);

    /**
     * Stride load: returns the 64B strided line (G chunks). Hits when
     * every source line's chunk sector is resident; otherwise issues
     * one stride fetch.
     */
    HierResult strideRead(const GatherPlan &plan, unsigned unit,
                          std::uint8_t *out64);

    /**
     * Stride store (sstore): writes through to memory as one strided
     * transfer and refreshes the cached copies clean.
     */
    HierResult strideWrite(const GatherPlan &plan, unsigned unit,
                           const std::uint8_t *src64);

    /**
     * Write-combining store: allocates the full line without a
     * read-for-ownership fetch (bulk-insert / non-temporal stores).
     * Unwritten bytes of a freshly allocated line read as zero.
     */
    HierResult writeAllocate(Addr addr, const std::uint8_t *src,
                             unsigned bytes);

    /** Write back all dirty lines and empty the hierarchy. */
    void flush();

    const SectorCache &level(unsigned i) const { return *levels_[i]; }

  private:
    /** Fill into level `lvl`, cascading evictions downward. */
    void fillLevel(unsigned lvl, Addr line, std::uint8_t mask,
                   const std::uint8_t *data64, std::uint8_t dirty_mask,
                   std::uint8_t poison_mask = 0);

    /**
     * Extract `line` from every level and merge into a single record
     * (upper levels win on overlap). Returns merged valid mask.
     * Sectors resident nowhere keep what `data64` held, so collecting
     * into a zero-filled buffer yields the merged line image.
     */
    std::uint8_t collect(Addr line, std::uint8_t &dirty_mask,
                         std::uint8_t *data64,
                         std::uint8_t *poison_mask = nullptr);

    /** Sector mask fully covered by a byte span of a line. */
    std::uint8_t fullCoverMask(unsigned offset, unsigned bytes) const;

    /**
     * Ensure the `mask` sectors of `line` are resident in L1.
     * `from_lvl` skips levels the caller has already probed (and
     * whose stats are therefore already counted) with a fused miss.
     */
    HierResult ensureLine(Addr line, std::uint8_t mask,
                          unsigned from_lvl = 0);

    std::array<SectorCache *, 3> levels_;
    SectorCache l1_;
    SectorCache l2_;
    SectorCache llc_;
    MemBackend &backend_;
};

} // namespace sam

#endif // SAM_CACHE_HIERARCHY_HH
