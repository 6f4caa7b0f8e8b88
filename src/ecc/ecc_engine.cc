#include "src/ecc/ecc_engine.hh"

#include <bit>
#include <cstring>

#include "src/common/logging.hh"
#include "src/ecc/codec_registry.hh"
#include "src/ecc/secded.hh"

namespace sam {

namespace {

/** Little-endian load of an 8-byte word. */
std::uint64_t
load64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | p[i];
    return v;
}

void
store64(std::uint8_t *p, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        p[i] = static_cast<std::uint8_t>(v & 0xff);
        v >>= 8;
    }
}

} // namespace

void
EccEngineStats::registerIn(StatGroup &group) const
{
    group.addCounter("linesDecoded", linesDecoded,
                     "lines run through the decoder");
    group.addCounter("codewordsCorrected", codewordsCorrected,
                     "codewords repaired in place");
    group.addCounter("codewordsDetected", codewordsDetected,
                     "codewords detected-uncorrectable");
    group.addCounter("symbolsCorrected", symbolsCorrected,
                     "symbols/bits repaired in total");
}

namespace {

/** RS (n, k) of `scheme`, or (0, 0) for the non-RS schemes. */
std::pair<unsigned, unsigned>
rsParamsFor(EccScheme scheme)
{
    switch (scheme) {
      case EccScheme::Ssc:
      case EccScheme::Ssc32:
        return {18, 16};
      case EccScheme::SscDsd:
        return {36, 32};
      case EccScheme::Bamboo72:
        return {72, 64};
      case EccScheme::SecDed:
      case EccScheme::None:
        return {0, 0};
    }
    panic("unknown EccScheme");
}

/**
 * Decode the RS codeword whose k data symbols start at blob[data] and
 * whose check symbols start at blob[check], each `stride` bytes apart:
 * gather it into a stack array, decode it in place, and scatter it
 * back only when corrected.
 */
DecodeResult
decodeStrided(const ReedSolomon &rs, std::uint8_t *blob, unsigned data,
              unsigned check, unsigned stride, unsigned max_correct)
{
    const unsigned k = rs.k();
    const unsigned n = rs.n();
    std::uint8_t cw[72];
    for (unsigned s = 0; s < k; ++s)
        cw[s] = blob[data + stride * s];
    for (unsigned s = k; s < n; ++s)
        cw[s] = blob[check + stride * (s - k)];
    const DecodeResult r = rs.decode({cw, n}, max_correct);
    if (r.status == DecodeStatus::Corrected) {
        for (unsigned s = 0; s < k; ++s)
            blob[data + stride * s] = cw[s];
        for (unsigned s = k; s < n; ++s)
            blob[check + stride * (s - k)] = cw[s];
    }
    return r;
}

} // namespace

EccEngine::EccEngine(EccScheme scheme)
    : scheme_(scheme)
{
    const auto [n, k] = rsParamsFor(scheme_);
    if (n != 0)
        rs_ = &CodecRegistry::reedSolomon(n, k);
}

EccEngine::EccEngine(EccScheme scheme, PrivateCodec)
    : scheme_(scheme)
{
    const auto [n, k] = rsParamsFor(scheme_);
    if (n != 0) {
        ownedRs_ = CodecRegistry::makePrivate(n, k);
        rs_ = ownedRs_.get();
    }
}

unsigned
EccEngine::parityBytesPerLine() const
{
    return parityBytesFor(scheme_);
}

unsigned
EccEngine::numChips() const
{
    switch (scheme_) {
      case EccScheme::None:   return 16;
      case EccScheme::SscDsd: return 36;
      default:                return 18;
    }
}

unsigned
EccEngine::numDataChips() const
{
    return scheme_ == EccScheme::SscDsd ? 32 : 16;
}

std::vector<std::uint8_t>
EccEngine::encodeLine(const std::vector<std::uint8_t> &line) const
{
    sam_assert(line.size() == kCachelineBytes,
               "encodeLine expects a 64B line, got ", line.size());
    return encodeLine(line.data());
}

std::vector<std::uint8_t>
EccEngine::encodeLine(const std::uint8_t *data64) const
{
    std::vector<std::uint8_t> blob(kCachelineBytes +
                                       parityBytesPerLine(),
                                   0);
    encodeLineInto(data64, blob.data());
    return blob;
}

void
EccEngine::encodeLineInto(const std::uint8_t *data64,
                          std::uint8_t *blob) const
{
    const std::uint8_t *line = data64;
    std::memcpy(blob, line, kCachelineBytes);

    switch (scheme_) {
      case EccScheme::None:
        break;

      case EccScheme::SecDed:
        for (unsigned j = 0; j < 8; ++j)
            blob[64 + j] = SecDed::encode(load64(&blob[8 * j]));
        break;

      case EccScheme::Ssc:
        for (unsigned j = 0; j < 4; ++j)
            rs_->encodeParity(line + 16 * j, blob + 64 + 2 * j);
        break;

      case EccScheme::Bamboo72:
        rs_->encodeParity(line, blob + 64);
        break;

      case EccScheme::SscDsd:
        for (unsigned j = 0; j < 2; ++j)
            rs_->encodeParity(line + 32 * j, blob + 64 + 4 * j);
        break;

      case EccScheme::Ssc32:
        for (unsigned j = 0; j < 2; ++j) {
            for (unsigned i = 0; i < 2; ++i) {
                std::uint8_t data[16];
                std::uint8_t parity[2];
                for (unsigned s = 0; s < 16; ++s)
                    data[s] = line[32 * j + 2 * s + i];
                rs_->encodeParity(data, parity);
                blob[64 + 4 * j + i] = parity[0];
                blob[64 + 4 * j + 2 + i] = parity[1];
            }
        }
        break;
    }
}

EccLineResult
EccEngine::decodeLine(std::vector<std::uint8_t> &blob) const
{
    sam_assert(blob.size() == kCachelineBytes + parityBytesPerLine(),
               "decodeLine: wrong blob size ", blob.size());

    EccLineResult result;
    ++stats_.linesDecoded;
    auto note = [this, &result](DecodeStatus status, unsigned n_fixed) {
        switch (status) {
          case DecodeStatus::Clean:
            break;
          case DecodeStatus::Corrected:
            result.clean = false;
            result.corrected = true;
            result.symbolsCorrected += n_fixed;
            ++stats_.codewordsCorrected;
            stats_.symbolsCorrected += n_fixed;
            break;
          case DecodeStatus::Detected:
            result.clean = false;
            result.uncorrectable = true;
            ++stats_.codewordsDetected;
            break;
        }
    };

    switch (scheme_) {
      case EccScheme::None:
        break;

      case EccScheme::SecDed:
        for (unsigned j = 0; j < 8; ++j) {
            std::uint64_t data = load64(&blob[8 * j]);
            std::uint8_t check = blob[64 + j];
            const SecDedResult r = SecDed::decode(data, check);
            switch (r.status) {
              case SecDedResult::Status::Clean:
                break;
              case SecDedResult::Status::CorrectedData:
              case SecDedResult::Status::CorrectedCheck:
                store64(&blob[8 * j], data);
                blob[64 + j] = check;
                note(DecodeStatus::Corrected, 1);
                break;
              case SecDedResult::Status::Detected:
                note(DecodeStatus::Detected, 0);
                break;
            }
        }
        break;

      case EccScheme::Bamboo72: {
        const DecodeResult r =
            decodeStrided(*rs_, blob.data(), 0, 64, 1, ~0u);
        note(r.status, r.numCorrected);
        break;
      }

      case EccScheme::Ssc:
        for (unsigned j = 0; j < 4; ++j) {
            const DecodeResult r = decodeStrided(*rs_, blob.data(), 16 * j,
                                                 64 + 2 * j, 1, ~0u);
            note(r.status, r.numCorrected);
        }
        break;

      case EccScheme::SscDsd:
        // SSC-DSD policy: correct one chip symbol, detect two.
        for (unsigned j = 0; j < 2; ++j) {
            const DecodeResult r = decodeStrided(*rs_, blob.data(), 32 * j,
                                                 64 + 4 * j, 1, 1);
            note(r.status, r.numCorrected);
        }
        break;

      case EccScheme::Ssc32:
        // Interleave i of codeword pair j: every other byte.
        for (unsigned j = 0; j < 2; ++j) {
            for (unsigned i = 0; i < 2; ++i) {
                const DecodeResult r = decodeStrided(
                    *rs_, blob.data(), 32 * j + i, 64 + 4 * j + i, 2, ~0u);
                note(r.status, r.numCorrected);
            }
        }
        break;
    }
    return result;
}

unsigned
EccEngine::chipBytesPerLine() const
{
    switch (scheme_) {
      case EccScheme::None:
      case EccScheme::SecDed:   return 8;
      case EccScheme::SscDsd:   return 2;
      case EccScheme::Ssc:
      case EccScheme::Ssc32:
      case EccScheme::Bamboo72: return 4;
    }
    panic("unknown EccScheme");
}

EccEngine::ChipByte
EccEngine::chipByte(unsigned chip, unsigned i) const
{
    switch (scheme_) {
      case EccScheme::None:
      case EccScheme::SecDed:
        // x4 geometry: in 72-bit codeword i, data chip c drives data
        // bits [4c, 4c+4); the two parity chips drive the check byte's
        // nibbles.
        return {chip < 16 ? 8 * i + chip / 2 : 64 + i,
                static_cast<std::uint8_t>(0x0f << (4 * (chip % 2)))};
      case EccScheme::Ssc:
      case EccScheme::Bamboo72:
        // Symbol `chip` of RS(18,16) codeword (or Bamboo stripe) i.
        return {chip < 16 ? 16 * i + chip : 64 + 2 * i + (chip - 16),
                0xff};
      case EccScheme::SscDsd:
        return {chip < 32 ? 32 * i + chip : 64 + 4 * i + (chip - 32),
                0xff};
      case EccScheme::Ssc32: {
        // Both interleaves of the chip's 16-bit symbol in codeword
        // pair i / 2.
        const unsigned j = i / 2;
        return {(chip < 16 ? 32 * j + 2 * chip
                           : 64 + 4 * j + 2 * (chip - 16)) +
                    i % 2,
                0xff};
      }
    }
    panic("unknown EccScheme");
}

void
EccEngine::corruptChip(std::vector<std::uint8_t> &blob, unsigned chip) const
{
    sam_assert(chip < numChips(), "chip ", chip, " out of range");
    sam_assert(blob.size() == kCachelineBytes + parityBytesPerLine(),
               "corruptChip: wrong blob size ", blob.size());
    for (unsigned i = 0; i < chipBytesPerLine(); ++i) {
        const ChipByte b = chipByte(chip, i);
        blob[b.index] ^= b.mask;
    }
}

void
EccEngine::corruptChipBits(std::vector<std::uint8_t> &blob, unsigned chip,
                           unsigned nbits, Rng &rng) const
{
    sam_assert(chip < numChips(), "chip ", chip, " out of range");
    // The chip's bits in blob order: byte by byte, low bit first.
    const unsigned per_byte = std::popcount(chipByte(chip, 0).mask);
    const unsigned count = chipBytesPerLine() * per_byte;
    for (unsigned n = 0; n < nbits; ++n) {
        const std::uint64_t k = rng.below(count);
        const ChipByte b = chipByte(chip, static_cast<unsigned>(k / per_byte));
        flipBit(blob, 8 * b.index + std::countr_zero(b.mask) +
                          k % per_byte);
    }
}

void
EccEngine::flipBit(std::vector<std::uint8_t> &blob, std::size_t bit_index)
{
    sam_assert(bit_index / 8 < blob.size(), "flipBit out of range");
    blob[bit_index / 8] ^= static_cast<std::uint8_t>(1u << (bit_index % 8));
}

bool
EccEngine::toleratesChipFailure() const
{
    switch (scheme_) {
      case EccScheme::Ssc:
      case EccScheme::SscDsd:
      case EccScheme::Ssc32:
      case EccScheme::Bamboo72:
        return true;
      case EccScheme::SecDed:
      case EccScheme::None:
        return false;
    }
    panic("unknown EccScheme");
}

} // namespace sam
