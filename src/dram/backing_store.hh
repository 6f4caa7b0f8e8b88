/**
 * @file
 * Sparse functional byte storage for the simulated memory.
 *
 * Lines are stored ECC-encoded (data + parity blob) exactly as a real
 * rank would hold them, so chip-failure injection corrupts stored state
 * and the ECC engine's correction is exercised on the actual data path.
 *
 * The store is layered for campaign sharing: installed snapshots are
 * immutable base layers held by shared pointer (a materialized table is
 * encoded once and installed into many systems in O(1)), and every
 * write lands in a small per-store overlay checked first on reads.
 * Corruption copies-on-write into the overlay, so injected faults never
 * leak into sibling systems sharing the same snapshot.
 *
 * Every stored line carries a clean tag: set when the blob is known to
 * be intact encoder output (a DataPath write or a verified scrub),
 * cleared by corruptLine. The DataPath's clean-line fast path uses it
 * to skip ECC decode on lines no fault ever touched.
 */

#ifndef SAM_DRAM_BACKING_STORE_HH
#define SAM_DRAM_BACKING_STORE_HH

#include <bit>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/addr_map.hh"
#include "src/common/random.hh"
#include "src/common/types.hh"

namespace sam {

class EccEngine;

/** One stored line's encoded bytes (data + parity). */
using Blob = std::vector<std::uint8_t>;
using BlobPtr = std::shared_ptr<const Blob>;

/**
 * An immutable set of encoded lines in insertion (slot) order -- a
 * materialized table pair -- shareable across stores and threads.
 *
 * Table materialization appends rows in ascending address order (and
 * appendRows asserts it), so lookup is served by a handful of dense
 * extents (base + count -> slot range) instead of a per-line hash map
 * -- at paper scale the map alone would cost gigabytes. `find` is the
 * only lookup path.
 *
 * Every line, padding included, owns a slot (an entry of `addrs`),
 * so slot numbering -- and with it fault-target sampling --
 * does not depend on how the bytes are stored. Blob bytes live in one
 * flat arena rather than a heap vector per line. A table layout can
 * be mostly padding (a VerticalGroup table spans whole 128 MiB bands
 * however few records it holds), so appendRows() gives arena bytes
 * only to the lines that hold records: once a snapshot has any
 * padding slot, a stored-slot bitmap with a rank count per 64 slots
 * maps a slot to its arena bytes, and every padding slot reads as one
 * shared all-zero blob -- a valid codeword under every supported
 * (linear) scheme, and exactly what a padding line holds. A snapshot
 * without padding indexes the arena directly by slot. Every slot is
 * intact encoder output (or a valid all-zero codeword), so a snapshot
 * line is clean by construction: faults land in the store's overlay.
 */
struct StoreSnapshot
{
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    /** One run of consecutive 64B lines occupying consecutive slots. */
    struct Extent
    {
        Addr base = 0;
        std::size_t count = 0;
        std::size_t firstSlot = 0;
    };

    /** Line addresses in insertion (slot) order. */
    std::vector<Addr> addrs;
    /** Stored bytes per line (data + parity); set before appending. */
    unsigned blobBytes = 0;
    /**
     * Slots hold real data bytes but zero-filled parity: the builder
     * skipped the ECC encode (the dominant table-materialization cost)
     * because almost no line's parity is ever observed. Consumers that
     * do need the full codeword (fault corruption, decode under
     * injection) reconstruct it on demand through the owning store's
     * parity encoder -- the encoder is deterministic, so the
     * reconstructed bytes are identical to an eager encode.
     */
    bool lazyParity = false;
    /** Blob bytes of every stored (non-padding) slot, blobBytes
     *  apiece, in slot order. */
    std::vector<std::uint8_t> arena;

    std::size_t size() const { return addrs.size(); }

    /** Blob bytes of `slot` (the shared zero blob for padding). */
    const std::uint8_t *blob(std::size_t slot) const
    {
        const std::size_t i = arenaIndex(slot);
        return i == npos ? zeros_.data() : arena.data() + i * blobBytes;
    }

    /**
     * Append `count` consecutive clean lines starting at `base` in one
     * step and return the first slot. Only the lines in `stored`
     * (ascending, disjoint runs counted from `base`) get arena bytes,
     * zero-filled; every other line is padding. The bulk path behind
     * parallel table encode: the snapshot's slot structure is laid out
     * up front, then worker threads encode directly into the stored
     * slots via mutableBlob() -- byte-identical regardless of how the
     * work is divided among threads.
     */
    std::size_t appendRows(Addr base, std::size_t count,
                           const std::vector<LineRun> &stored);

    /** Mutable blob bytes of stored `slot` (parallel construction). */
    std::uint8_t *mutableBlob(std::size_t slot);

    /** Slot of `addr`, or npos if absent. */
    std::size_t find(Addr addr) const;

  private:
    /** Arena position of `slot`'s bytes, or npos for padding. */
    std::size_t arenaIndex(std::size_t slot) const
    {
        if (stored_.empty())
            return slot;
        const std::uint64_t word = stored_[slot / 64];
        const std::uint64_t bit = std::uint64_t{1} << (slot % 64);
        if ((word & bit) == 0)
            return npos;
        return rank_[slot / 64] +
               static_cast<std::size_t>(std::popcount(word & (bit - 1)));
    }

    /** Add `count` consecutive clean line slots at `base` (at or past
     *  the end of every earlier extent) to the lookup. */
    void layOut(Addr base, std::size_t count);
    /** Record whether slots [slot, slot + count) own arena bytes. */
    void classify(std::size_t slot, std::size_t count, bool stored);

    /** Ascending extents. */
    std::vector<Extent> extents_;
    /** Bit per slot, set when it owns arena bytes; empty until the
     *  first padding slot (every slot owns bytes until then). */
    std::vector<std::uint64_t> stored_;
    /** Stored slots before each 64-slot word of stored_. */
    std::vector<std::size_t> rank_;
    /** The shared blob of every padding slot: blobBytes zeros. */
    std::vector<std::uint8_t> zeros_;
};

/**
 * Sparse page-granular byte store addressed by flat physical address.
 * Unwritten bytes read as zero.
 */
class BackingStore
{
  public:
    /**
     * Borrowed view of one stored line. `data` points at the blob's
     * bytes (valid until the next store mutation) or is null for a
     * never-written line, which reads as all zero -- the all-zero blob
     * of every supported (linear) scheme is a valid codeword, so such
     * lines are clean by construction.
     */
    struct LineRef
    {
        const std::uint8_t *data = nullptr;
        bool clean = true;
        /**
         * The parity bytes of `data` are zero placeholders from a
         * lazy-parity snapshot layer; the first 64 data bytes are
         * real. Callers that consume the full codeword must re-encode
         * from the data bytes instead of trusting the tail.
         */
        bool lazyParity = false;
    };

    /** @param blob_bytes Stored bytes per 64B line (data + parity). */
    explicit BackingStore(unsigned blob_bytes)
        : blobBytes_(blob_bytes)
    {}

    unsigned blobBytes() const { return blobBytes_; }

    /**
     * Read the stored blob for the line containing `line_addr` (must be
     * 64B aligned in data-address space).
     */
    std::vector<std::uint8_t> readLine(Addr line_addr) const;

    /** Borrow the stored blob and clean tag without copying. */
    LineRef refLine(Addr line_addr) const;

    /**
     * Store a blob for an aligned line address. `clean` asserts the
     * blob is intact encoder output (enables the decode fast path);
     * raw byte stores must leave it false.
     */
    void writeLine(Addr line_addr, const std::vector<std::uint8_t> &blob,
                   bool clean = false);

    /**
     * Store a blob from a raw pointer of blobBytes() bytes,
     * allocation-free when the line is already in the overlay (the
     * blob is copied into the overlay arena). The hot write path.
     */
    void writeLine(Addr line_addr, const std::uint8_t *blob,
                   bool clean = false);

    /** True if the line was ever written. */
    bool contains(Addr line_addr) const;

    /**
     * XOR a mask into stored bytes of a line (error injection). A
     * never-written line is materialized zero-filled first, so faults
     * land on untouched addresses instead of being silently dropped
     * relative to the all-zero read value. Clears the clean tag.
     */
    void corruptLine(Addr line_addr,
                     const std::vector<std::uint8_t> &xor_mask);

    /** Number of distinct lines stored. */
    std::size_t lineCount() const;

    /**
     * Pick a uniformly random stored line address (fault-injection
     * target selection). lineCount() must be nonzero.
     */
    Addr sampleLine(Rng &rng) const;

    /**
     * Mount a snapshot as an immutable base layer (O(1): the blobs and
     * the index are shared, not copied). Re-installing a snapshot that
     * is already mounted reverts any overlay writes to its lines (the
     * dirty-table rebuild path). Layers are expected to cover disjoint
     * address ranges (each table layout has its own base address).
     */
    void install(std::shared_ptr<const StoreSnapshot> snap);

    /**
     * Encoder used to reconstruct the parity of lazy-parity layer
     * lines on demand (readLine, corruptLine). The pointer
     * is borrowed; the DataPath that owns this store installs its own
     * engine and outlives it. Required before any lazy-parity snapshot
     * line is materialized.
     */
    void setParityEncoder(const EccEngine *ecc) { parityEcc_ = ecc; }

  private:
    /** An overlay line's blob plus its clean tag. */
    struct OverlayLine
    {
        /** Byte offset of the blob in arena_. */
        std::size_t offset = 0;
        bool clean = false;
    };

    /**
     * Write the full codeword of a layer line into `dst` (blobBytes_
     * bytes), re-encoding the parity if the layer is lazy.
     */
    void materializeBlob(const StoreSnapshot &layer, std::size_t slot,
                         std::uint8_t *dst) const;

    /** The overlay line for `addr`, or null if untouched. */
    const OverlayLine *findOverlay(Addr addr) const;
    /** The layer slot for `addr`, or null if no layer holds it. */
    const StoreSnapshot *findLayer(Addr addr, std::size_t &slot) const;
    bool inAnyLayer(Addr addr) const;

    unsigned blobBytes_;
    /** Borrowed parity encoder for lazy-parity layers (may be null). */
    const EccEngine *parityEcc_ = nullptr;
    /** Immutable shared base layers, oldest first. */
    std::vector<std::shared_ptr<const StoreSnapshot>> layers_;
    /**
     * Lines written (or corrupted) in this store; checked first. A
     * flat table: a read probes it once, and a first write inserts
     * without a heap node.
     */
    AddrMap<OverlayLine> overlay_;
    /**
     * Blob bytes of every overlay line, blobBytes_ per slot. One flat
     * allocation instead of a heap vector per written line: the write
     * path (writebacks, strided RMW) is the hottest store mutation in
     * a campaign. Slots orphaned by install()'s overlay revert are
     * simply leaked until the store dies -- reverts are rare and the
     * arena is per-system scratch, not shared state.
     */
    std::vector<std::uint8_t> arena_;
    /**
     * Insertion order of every overlay line (the iteration view of
     * overlay_, which has none: hash order must never become
     * observable, see sam-determinism in tools/samlint).
     */
    std::vector<Addr> overlayAll_;
    /** Insertion order of overlay lines not covered by any layer. */
    std::vector<Addr> overlayOrder_;
};

} // namespace sam

#endif // SAM_DRAM_BACKING_STORE_HH
