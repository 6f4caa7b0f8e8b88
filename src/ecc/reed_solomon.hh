/**
 * @file
 * Shortened systematic Reed-Solomon codec over GF(2^8).
 *
 * Chipkill SSC is RS(18,16) with t = 1 (corrects any single chip symbol);
 * the SSC-DSD operating point maps to RS(36,32) with t = 2 where each chip
 * contributes one 8-bit symbol formed from two 4-bit beats (see
 * DESIGN.md, Substitutions). The decoder computes syndromes, corrects
 * a single symbol error in closed form, and runs Berlekamp-Massey,
 * Chien search and Forney's algorithm for anything else, all in place
 * on fixed-size scratch.
 */

#ifndef SAM_ECC_REED_SOLOMON_HH
#define SAM_ECC_REED_SOLOMON_HH

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "src/ecc/gf256.hh"

namespace sam {

/** Outcome of an RS decode attempt. */
enum class DecodeStatus {
    Clean,          ///< No errors detected.
    Corrected,      ///< Errors found and corrected in place.
    Detected,       ///< Uncorrectable but detected (beyond t, within
                    ///< detection capability or failed correction).
};

/** Result of decoding one codeword. */
struct DecodeResult
{
    /** Most symbols any supported code corrects: t <= 32. */
    static constexpr unsigned kMaxCorrect = 32;

    DecodeStatus status = DecodeStatus::Clean;
    /** Symbols corrected; zero unless status is Corrected. */
    unsigned numCorrected = 0;
    /**
     * Codeword positions of the corrected symbols, ascending; the
     * first numCorrected entries are valid.
     */
    std::array<std::uint8_t, kMaxCorrect> positions{};
};

/**
 * A shortened RS(n, k) code over GF(2^8) with n - k = 2t check symbols.
 *
 * Codewords are laid out data-first: positions [0, k) are data symbols,
 * positions [k, n) are check symbols. Shortening from RS(255, 255-2t) is
 * implicit: absent leading symbols are treated as zero.
 */
class ReedSolomon
{
  public:
    /** Most check symbols a codec may have: the decoder's scratch. */
    static constexpr unsigned kMaxCheckSymbols =
        2 * DecodeResult::kMaxCorrect;

    /**
     * @param n Total symbols per codeword (data + check), n <= 255.
     * @param k Data symbols per codeword; (n - k) must be even and at
     *          most kMaxCheckSymbols.
     */
    ReedSolomon(unsigned n, unsigned k);

    unsigned n() const { return n_; }
    unsigned k() const { return k_; }
    unsigned numCheckSymbols() const { return n_ - k_; }
    /** Maximum number of correctable symbol errors. */
    unsigned t() const { return (n_ - k_) / 2; }

    /**
     * Systematically encode `data` (k symbols) into a full codeword of n
     * symbols (data followed by checks).
     */
    std::vector<std::uint8_t> encode(const std::vector<std::uint8_t> &data)
        const;

    /**
     * Compute the (n - k) check symbols of `data` (k symbols) into
     * `parity`, allocation-free. The hot encode path: a simulated
     * write re-encodes every touched codeword, so this runs millions
     * of times per campaign.
     */
    void encodeParity(const std::uint8_t *data,
                      std::uint8_t *parity) const;

    /**
     * Decode `codeword` (n symbols) in place, correcting up to t symbol
     * errors, allocation-free. The word is written only when the
     * result is Corrected. If `max_correct` is less than t, the decoder
     * refuses to correct more than `max_correct` symbols and reports
     * Detected instead (models SSC-DSD's correct-one/detect-two
     * policy).
     */
    DecodeResult decode(std::span<std::uint8_t> codeword,
                        unsigned max_correct = ~0u) const;

  private:
    /**
     * Syndromes S_i = c(alpha^i) of the n symbols at `cw` into
     * synd[0, 2t); false when every one is zero (a clean codeword).
     */
    bool syndromes(const std::uint8_t *cw, std::uint8_t *synd) const;

    /**
     * Berlekamp-Massey, Chien search and Forney for syndromes that are
     * not one symbol error, correcting at most `limit` symbols of `cw`
     * in place and re-verifying the result.
     */
    DecodeResult correctMany(std::uint8_t *cw, const std::uint8_t *synd,
                             unsigned limit) const;

    unsigned n_;
    unsigned k_;
    /** Generator polynomial, low-order coefficient first, degree 2t. */
    std::vector<std::uint8_t> generator_;
    /**
     * Sliced syndrome table: entry [j * 256 + v] packs the
     * contribution of symbol value v at codeword position j to all 2t
     * syndromes, syndrome i in byte i (2t <= 8 for every supported
     * memory-ECC code). Syndromes of a whole codeword are then one
     * table XOR per nonzero symbol, both for the clean check and for
     * re-verifying a corrected word.
     */
    std::vector<std::uint64_t> syndTable_;
    /** Data symbols the sliced encoder absorbs per step. */
    static constexpr unsigned kEncodeSlices = 8;
    /**
     * Sliced encoder tables (slicing-by-8, as for CRCs): slice s,
     * entry [s * 256 + v], is the LFSR remainder after absorbing
     * symbol v and then s zero symbols, packed with remainder byte b
     * at bits 8b (highest degree at byte 0). The remainder is linear
     * in the symbols, so eight symbols fold in as eight independent
     * lookups XORed together, not eight dependent shift-and-XOR steps.
     * Slice 0 alone is the byte-at-a-time LFSR. Built alongside
     * syndTable_ when 2t <= 8.
     */
    std::vector<std::uint64_t> encTable_;
};

} // namespace sam

#endif // SAM_ECC_REED_SOLOMON_HH
