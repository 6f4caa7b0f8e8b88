/**
 * @file
 * Rank-level ECC engine: encodes 64B lines into data+parity blobs laid
 * out across the chips of a chipkill rank, decodes/corrects on read, and
 * exposes chip-accurate error injection (Section 2.3, Figure 4).
 *
 * Geometry per scheme (all use 16 data chips worth of payload per line
 * and 8 parity bytes per 64B, i.e. the 2-in-18 chip overhead):
 *
 *  - SEC-DED : 8 x (72,64) extended Hamming codewords, one per 8B word.
 *              A chip failure spans 4 bits of every codeword, which
 *              SEC-DED cannot correct -- the motivating weakness.
 *  - SSC     : 4 x RS(18,16) over GF(2^8); chip c holds symbol c of every
 *              codeword (8 bits per chip per codeword, Figure 4(b)).
 *  - SSC-DSD : 2 x RS(36,32) over GF(2^8); each chip contributes one
 *              8-bit symbol built from two 4-bit beats. Decode policy is
 *              correct-one / detect-two symbols (chips).
 *  - SSC-32  : 2 x (2 interleaved RS(18,16)); 16-bit symbols, chip c
 *              holds both interleaves of symbol c.
 *  - Bamboo-72: one RS(72,64) codeword over the whole 512b line (the
 *              stronger large-codeword variant the paper cites [26]);
 *              chip c holds symbols {c, 18+c, 36+c, 54+c}, so a failed
 *              chip is 4 of the 8 correctable symbols.
 */

#ifndef SAM_ECC_ECC_ENGINE_HH
#define SAM_ECC_ECC_ENGINE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/random.hh"
#include "src/common/stats.hh"
#include "src/common/types.hh"
#include "src/ecc/reed_solomon.hh"

namespace sam {

/**
 * Per-scheme codeword-granular decode counters (finer than the
 * line-granular EccStats the DataPath keeps): one engine instance
 * serves one rank, so these are the rank's per-scheme corrected /
 * detected totals surfaced in stats dumps.
 */
struct EccEngineStats
{
    Counter linesDecoded;        ///< decodeLine() invocations.
    Counter codewordsCorrected;  ///< Codewords repaired in place.
    Counter codewordsDetected;   ///< Codewords detected-uncorrectable.
    Counter symbolsCorrected;    ///< Symbols/bits repaired in total.

    void registerIn(StatGroup &group) const;
};

/** Per-line decode outcome reported to the memory controller. */
struct EccLineResult
{
    bool clean = true;           ///< No errors present.
    bool corrected = false;      ///< At least one codeword corrected.
    bool uncorrectable = false;  ///< Detected-but-uncorrectable error.
    unsigned symbolsCorrected = 0;
};

/**
 * Encoder/decoder for one rank's ECC scheme. Stateless apart from
 * statistics; safe to share across banks of the same rank.
 *
 * The Reed-Solomon codec behind the RS schemes is borrowed from the
 * process-wide CodecRegistry, so constructing an engine is cheap (no
 * table building) -- a fresh engine per Session/DataPath/worker is
 * the intended usage.
 */
class EccEngine
{
  public:
    /** Tag selecting a privately constructed codec (test seam). */
    struct PrivateCodec
    {
    };

    explicit EccEngine(EccScheme scheme);

    /**
     * Engine whose codec is constructed privately instead of borrowed
     * from the CodecRegistry. Differential tests use this to pin the
     * shared codec byte- and stats-identical to an independent build.
     */
    EccEngine(EccScheme scheme, PrivateCodec);

    EccScheme scheme() const { return scheme_; }

    /** Parity bytes appended to each 64B line (0 or 8). */
    unsigned parityBytesPerLine() const;

    /** parityBytesPerLine() without constructing an engine. */
    static unsigned parityBytesFor(EccScheme scheme)
    {
        return scheme == EccScheme::None ? 0 : 8;
    }

    /** Total chips in the rank (data + parity) for injection purposes. */
    unsigned numChips() const;

    /** Data chips in the rank. */
    unsigned numDataChips() const;

    /**
     * Encode a 64B line; returns 64 data bytes followed by
     * parityBytesPerLine() parity bytes.
     */
    std::vector<std::uint8_t> encodeLine(
        const std::vector<std::uint8_t> &line) const;

    /** Encode 64 raw bytes (no intermediate vector at the caller). */
    std::vector<std::uint8_t> encodeLine(
        const std::uint8_t *data64) const;

    /**
     * Encode 64 raw bytes into a caller-provided blob of
     * 64 + parityBytesPerLine() bytes, allocation-free. Every
     * simulated write (writebacks, strided RMW, scrubs) lands here,
     * so this path must not touch the heap.
     */
    void encodeLineInto(const std::uint8_t *data64,
                        std::uint8_t *blob) const;

    /**
     * Decode a blob produced by encodeLine() in place (correcting
     * correctable errors) and report the outcome. On success the first
     * 64 bytes of `blob` are the corrected data.
     */
    EccLineResult decodeLine(std::vector<std::uint8_t> &blob) const;

    /**
     * Account a line the DataPath's clean fast path proved intact
     * without decoding: exactly the counters a decodeLine() returning
     * Clean would have bumped (linesDecoded only), so per-scheme stats
     * are bit-identical with the fast path on or off.
     */
    void noteCleanLine() const { ++stats_.linesDecoded; }

    /**
     * Flip every bit this chip contributes to the line -- models a
     * whole-chip (chipkill) failure.
     */
    void corruptChip(std::vector<std::uint8_t> &blob, unsigned chip) const;

    /**
     * Flip `nbits` random bits of the chip's contribution (partial chip
     * fault / transient errors).
     */
    void corruptChipBits(std::vector<std::uint8_t> &blob, unsigned chip,
                         unsigned nbits, Rng &rng) const;

    /** Flip a single absolute bit of the blob. */
    static void flipBit(std::vector<std::uint8_t> &blob,
                        std::size_t bit_index);

    /** Whether a whole-chip failure is correctable under this scheme. */
    bool toleratesChipFailure() const;

    const EccEngineStats &stats() const { return stats_; }

  private:
    /** One blob byte a chip drives, and which of its bits. */
    struct ChipByte
    {
        std::size_t index;
        std::uint8_t mask;
    };

    /** Blob bytes each chip drives: 8 x4 nibbles or 2-4 symbols. */
    unsigned chipBytesPerLine() const;

    /** The i-th blob byte chip `chip` drives, in blob order. */
    ChipByte chipByte(unsigned chip, unsigned i) const;

    EccScheme scheme_;
    /** Shared immutable codec (CodecRegistry), or ownedRs_.get(). */
    const ReedSolomon *rs_ = nullptr;
    /** Non-null only for the PrivateCodec test seam. */
    std::unique_ptr<const ReedSolomon> ownedRs_;
    /** Mutable: decodeLine() is logically const w.r.t. the codec. */
    mutable EccEngineStats stats_;
};

} // namespace sam

#endif // SAM_ECC_ECC_ENGINE_HH
