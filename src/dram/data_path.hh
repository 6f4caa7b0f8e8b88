/**
 * @file
 * Functional data path of one channel: ECC-encoded backing storage,
 * the fault and RAS hooks on the read path, and the stride
 * gather/scatter performed by the SAM I/O structures. Timing lives in
 * Device; this class moves the actual bytes so simulated queries
 * compute real results through real codewords.
 */

#ifndef SAM_DRAM_DATA_PATH_HH
#define SAM_DRAM_DATA_PATH_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/stats.hh"
#include "src/common/types.hh"
#include "src/dram/backing_store.hh"
#include "src/dram/ras_hooks.hh"
#include "src/ecc/ecc_engine.hh"

namespace sam {

/** ECC event counters for one channel. */
struct EccStats
{
    Counter linesChecked;
    Counter correctedLines;
    Counter correctedSymbols;
    Counter uncorrectable;

    void registerIn(StatGroup &group) const;
};

/**
 * Outcome of a functional read: the 64 data bytes land in the caller's
 * buffer and scrubbed addresses (rare) are parked in
 * DataPath::lastScrubbedLines(), so the hot path allocates nothing.
 */
struct ReadFlags
{
    bool corrected = false;
    bool uncorrectable = false;
    /** Uncorrectable survived the RAS retry budget: data is invalid. */
    bool poisoned = false;
    /** Re-read attempts spent across the access's source lines. */
    unsigned retries = 0;
    /**
     * Per-source-line poison bits: bit i set when source line i of a
     * stride gather is poisoned (bit 0 for regular reads).
     */
    std::uint32_t poisonBits = 0;
    /** lastScrubbedLines() is non-empty for this access. */
    bool scrubbed = false;
};

class DataPath
{
  public:
    explicit DataPath(EccScheme scheme);

    /** Non-movable: the store borrows a pointer to ecc_ (see ctor). */
    DataPath(const DataPath &) = delete;
    DataPath &operator=(const DataPath &) = delete;

    const EccEngine &ecc() const { return ecc_; }
    EccScheme scheme() const { return ecc_.scheme(); }

    /**
     * Read and ECC-check the 64B line at `line_addr` (64B aligned):
     * the corrected 64 data bytes are written to `out64`. Scrubbed
     * addresses are in lastScrubbedLines().
     */
    ReadFlags readLineInto(Addr line_addr, std::uint8_t *out64);

    /** Encode and store the full 64B line at `data64`. */
    void writeLine(Addr line_addr, const std::uint8_t *data64);

    /**
     * Stride-mode read: gather chunk `sector` of each of the `count`
     * source lines into one 64B strided line at `out64` (Section 4.2).
     * Sources are ECC-checked; a failed chip is corrected exactly as
     * in regular mode, which is SAM's chipkill-compatibility property.
     */
    ReadFlags strideReadInto(const Addr *line_addrs, std::size_t count,
                             unsigned sector, unsigned unit,
                             std::uint8_t *out64);

    /**
     * Stride-mode write: scatter the chunks of `stride_line` into chunk
     * slot `sector` of each source line (read-modify-write with
     * re-encode).
     */
    void strideWrite(const Addr *line_addrs, std::size_t count,
                     unsigned sector, unsigned unit,
                     const std::uint8_t *stride_line);

    /**
     * Partial line write (a sector-cache writeback with only some
     * sectors dirty): read-modify-write the masked sectors. `data64`
     * is a full 64B line image.
     */
    void writePartial(Addr line_addr, const std::uint8_t *data64,
                      std::uint8_t sector_mask, unsigned sector_bytes);

    const EccStats &stats() const { return stats_; }
    BackingStore &store() { return store_; }

    /**
     * Logical addresses scrubbed by the most recent readLineInto /
     * strideReadInto call (valid until the next read).
     */
    const std::vector<Addr> &lastScrubbedLines() const
    {
        return scrubbed_;
    }

    /**
     * Enable/disable the clean-line decode fast path (on by default).
     * Exists so tests can force the full decode and prove the fast
     * path is observation-equivalent.
     */
    void setCleanFastPath(bool on) { fastPath_ = on; }

    // ----- RAS integration ------------------------------------------
    /** Attach a live fault source (nullptr detaches). */
    void setFaultHook(FaultInjectionHook *hook) { faults_ = hook; }

    /** Attach the read-path RAS policy (nullptr detaches). */
    void setRasPolicy(RasPolicy *ras) { ras_ = ras; }

    /**
     * Advance the data path's notion of phase-1 time (drives the fault
     * injector and the error log's leaky buckets). Monotone within a
     * run; beginRun() rewinds it for the next run's core clocks.
     */
    void setNow(Cycle now) { now_ = std::max(now_, now); }

    /** Start a new query run: core clocks restart at zero. */
    void beginRun() { now_ = 0; }

    Cycle now() const { return now_; }

  private:
    /**
     * Fetch blob with failures applied, decode, account stats, and run
     * the RAS read path (inject / retry / scrub / retire / poison).
     * Writes the 64 corrected data bytes to `out64`; scrub addresses
     * are appended to scrubbed_ (the public entry points clear it).
     * `rmw` suppresses scrubbing: the caller immediately overwrites
     * the line, which heals it anyway.
     *
     * Fast path: a line whose stored blob carries the clean tag, with
     * a fault hook (if any) that will leave this read untouched,
     * provably decodes Clean -- its data bytes are copied, no blob is
     * built (so no lazy parity is rebuilt), and only the counters a
     * Clean decode would bump are advanced.
     */
    ReadFlags fetchInto(Addr line_addr, std::uint8_t *out64,
                        bool rmw = false);

    /** Current physical location of a logical line (RAS remap). */
    Addr resolved(Addr line_addr) const;

    EccEngine ecc_;
    BackingStore store_;
    EccStats stats_;
    FaultInjectionHook *faults_ = nullptr;
    RasPolicy *ras_ = nullptr;
    Cycle now_ = 0;
    bool fastPath_ = true;
    /** Reused decode scratch (blob bytes of the line being read). */
    Blob blobScratch_;
    /** Reused encode scratch (blob bytes of the line being written). */
    Blob encodeScratch_;
    /** Scrub addresses of the most recent read (usually empty). */
    std::vector<Addr> scrubbed_;
};

} // namespace sam

#endif // SAM_DRAM_DATA_PATH_HH
