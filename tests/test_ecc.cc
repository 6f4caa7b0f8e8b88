/**
 * @file
 * Unit and property tests for the ECC stack: GF(2^8) arithmetic, the
 * Reed-Solomon codec, SEC-DED, and the chipkill ECC engine (including
 * whole-chip failure injection, the paper's reliability argument).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "src/common/random.hh"
#include "src/common/types.hh"
#include "src/ecc/ecc_engine.hh"
#include "src/ecc/gf256.hh"
#include "src/ecc/reed_solomon.hh"
#include "src/ecc/secded.hh"
#include "tests/golden_ecc_vectors.hh"

namespace sam {
namespace {

// --------------------------------------------------------------------
// GF(2^8)
// --------------------------------------------------------------------

TEST(GF256, AddIsXor)
{
    EXPECT_EQ(GF256::add(0x57, 0x83), 0x57 ^ 0x83);
    EXPECT_EQ(GF256::sub(0x57, 0x83), 0x57 ^ 0x83);
}

/** Independent bitwise (shift-and-reduce) reference multiplier. */
std::uint8_t
refMul(std::uint8_t a, std::uint8_t b)
{
    unsigned acc = 0;
    unsigned aa = a;
    for (unsigned i = 0; i < 8; ++i) {
        if (b & (1u << i))
            acc ^= aa << i;
    }
    for (int d = 14; d >= 8; --d) {
        if (acc & (1u << d))
            acc ^= 0x11du << (d - 8);
    }
    return static_cast<std::uint8_t>(acc);
}

TEST(GF256, KnownProduct)
{
    EXPECT_EQ(GF256::mul(0x02, 0x80), 0x1d); // wraps through poly 0x11d
    EXPECT_EQ(GF256::mul(0x57, 0x83), refMul(0x57, 0x83));
}

TEST(GF256, MatchesBitwiseReferenceExhaustiveSample)
{
    Rng rng(17);
    for (int i = 0; i < 4000; ++i) {
        const auto a = static_cast<std::uint8_t>(rng.below(256));
        const auto b = static_cast<std::uint8_t>(rng.below(256));
        ASSERT_EQ(GF256::mul(a, b), refMul(a, b))
            << "a=" << int(a) << " b=" << int(b);
    }
}

TEST(GF256, MulIdentityAndZero)
{
    for (unsigned a = 0; a < 256; ++a) {
        EXPECT_EQ(GF256::mul(static_cast<std::uint8_t>(a), 1), a);
        EXPECT_EQ(GF256::mul(static_cast<std::uint8_t>(a), 0), 0);
    }
}

TEST(GF256, EveryNonZeroHasInverse)
{
    for (unsigned a = 1; a < 256; ++a) {
        const auto inv = GF256::inv(static_cast<std::uint8_t>(a));
        EXPECT_EQ(GF256::mul(static_cast<std::uint8_t>(a), inv), 1)
            << "a=" << a;
    }
}

TEST(GF256, MulCommutativeAssociativeSample)
{
    Rng rng(3);
    for (int i = 0; i < 500; ++i) {
        const auto a = static_cast<std::uint8_t>(rng.below(256));
        const auto b = static_cast<std::uint8_t>(rng.below(256));
        const auto c = static_cast<std::uint8_t>(rng.below(256));
        EXPECT_EQ(GF256::mul(a, b), GF256::mul(b, a));
        EXPECT_EQ(GF256::mul(GF256::mul(a, b), c),
                  GF256::mul(a, GF256::mul(b, c)));
        // Distributivity over addition.
        EXPECT_EQ(GF256::mul(a, GF256::add(b, c)),
                  GF256::add(GF256::mul(a, b), GF256::mul(a, c)));
    }
}

TEST(GF256, DivInvertsMul)
{
    Rng rng(4);
    for (int i = 0; i < 500; ++i) {
        const auto a = static_cast<std::uint8_t>(rng.below(256));
        const auto b = static_cast<std::uint8_t>(1 + rng.below(255));
        EXPECT_EQ(GF256::div(GF256::mul(a, b), b), a);
    }
}

TEST(GF256, PowMatchesRepeatedMul)
{
    const std::uint8_t a = 0x35;
    std::uint8_t acc = 1;
    for (unsigned n = 0; n < 300; ++n) {
        EXPECT_EQ(GF256::pow(a, n), acc) << "n=" << n;
        acc = GF256::mul(acc, a);
    }
}

TEST(GF256, AlphaOrder255)
{
    // alpha generates the multiplicative group: alpha^255 == 1 and no
    // smaller positive power is 1.
    EXPECT_EQ(GF256::alphaPow(255), 1);
    for (unsigned n = 1; n < 255; ++n)
        EXPECT_NE(GF256::alphaPow(n), 1) << "n=" << n;
}

TEST(GF256, ZeroOperandsPanic)
{
    EXPECT_THROW(GF256::inv(0), std::logic_error);
    EXPECT_THROW(GF256::div(5, 0), std::logic_error);
    EXPECT_THROW(GF256::log(0), std::logic_error);
}

// --------------------------------------------------------------------
// Reed-Solomon
// --------------------------------------------------------------------

/** The positions a decode reports as corrected. */
std::vector<unsigned>
positionsOf(const DecodeResult &r)
{
    return {r.positions.begin(), r.positions.begin() + r.numCorrected};
}

std::vector<std::uint8_t>
randomData(Rng &rng, unsigned k)
{
    std::vector<std::uint8_t> data(k);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.below(256));
    return data;
}

TEST(ReedSolomon, CleanRoundTrip)
{
    const ReedSolomon rs(18, 16);
    Rng rng(1);
    for (int i = 0; i < 50; ++i) {
        auto cw = rs.encode(randomData(rng, 16));
        const auto r = rs.decode(cw);
        EXPECT_EQ(r.status, DecodeStatus::Clean);
    }
}

TEST(ReedSolomon, SscCorrectsAnySingleSymbol)
{
    const ReedSolomon rs(18, 16);
    Rng rng(2);
    for (unsigned pos = 0; pos < 18; ++pos) {
        const auto data = randomData(rng, 16);
        auto cw = rs.encode(data);
        const auto original = cw;
        cw[pos] ^= static_cast<std::uint8_t>(1 + rng.below(255));
        const auto r = rs.decode(cw);
        ASSERT_EQ(r.status, DecodeStatus::Corrected) << "pos=" << pos;
        ASSERT_EQ(r.numCorrected, 1u);
        EXPECT_EQ(r.positions[0], pos);
        EXPECT_EQ(cw, original);
    }
}

TEST(ReedSolomon, SscDetectsDoubleSymbolErrors)
{
    const ReedSolomon rs(18, 16); // t = 1
    Rng rng(5);
    int detected = 0;
    const int trials = 200;
    for (int i = 0; i < trials; ++i) {
        auto cw = rs.encode(randomData(rng, 16));
        const unsigned p1 = static_cast<unsigned>(rng.below(18));
        unsigned p2;
        do {
            p2 = static_cast<unsigned>(rng.below(18));
        } while (p2 == p1);
        cw[p1] ^= static_cast<std::uint8_t>(1 + rng.below(255));
        cw[p2] ^= static_cast<std::uint8_t>(1 + rng.below(255));
        const auto r = rs.decode(cw);
        // A t=1 code cannot correct 2 errors; it must not mis-correct
        // into a *valid but wrong* codeword silently claiming success
        // with the original data. Detection is the expected outcome for
        // the vast majority of patterns.
        detected += (r.status == DecodeStatus::Detected);
    }
    EXPECT_GT(detected, trials * 3 / 4);
}

class RsParamTest : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(RsParamTest, CorrectsUpToTErrors)
{
    const auto [n, k] = GetParam();
    const ReedSolomon rs(n, k);
    Rng rng(42 + n);
    for (int trial = 0; trial < 40; ++trial) {
        const auto data = randomData(rng, k);
        auto cw = rs.encode(data);
        const auto original = cw;

        // Inject exactly t errors at distinct positions.
        std::vector<unsigned> positions;
        while (positions.size() < rs.t()) {
            const auto p = static_cast<unsigned>(rng.below(n));
            bool dup = false;
            for (unsigned q : positions)
                dup = dup || q == p;
            if (!dup)
                positions.push_back(p);
        }
        for (unsigned p : positions)
            cw[p] ^= static_cast<std::uint8_t>(1 + rng.below(255));

        const auto r = rs.decode(cw);
        ASSERT_EQ(r.status, DecodeStatus::Corrected);
        EXPECT_EQ(cw, original);
        EXPECT_EQ(r.numCorrected, rs.t());
    }
}

TEST_P(RsParamTest, DataPrefixIsSystematic)
{
    const auto [n, k] = GetParam();
    const ReedSolomon rs(n, k);
    Rng rng(7);
    const auto data = randomData(rng, k);
    const auto cw = rs.encode(data);
    for (int i = 0; i < k; ++i)
        EXPECT_EQ(cw[i], data[i]);
}

INSTANTIATE_TEST_SUITE_P(
    ChipkillGeometries, RsParamTest,
    ::testing::Values(std::pair{18, 16},   // SSC
                      std::pair{36, 32},   // SSC-DSD carrier
                      std::pair{72, 64},   // large-codeword variant [26]
                      std::pair{255, 223}, // classic deep-space code
                      std::pair{20, 12})); // t = 4 stress

TEST(ReedSolomon, MaxCorrectPolicyDowngradesToDetect)
{
    // RS(36,32) has t = 2; with max_correct = 1 a two-symbol error must
    // be *detected*, matching SSC-DSD correct-one/detect-two.
    const ReedSolomon rs(36, 32);
    Rng rng(9);
    auto cw = rs.encode(randomData(rng, 32));
    cw[3] ^= 0x55;
    cw[17] ^= 0xaa;
    const auto r = rs.decode(cw, 1);
    EXPECT_EQ(r.status, DecodeStatus::Detected);

    // But a single-symbol error is still corrected under the policy.
    auto cw2 = rs.encode(randomData(rng, 32));
    const auto orig2 = cw2;
    cw2[35] ^= 0x0f;
    const auto r2 = rs.decode(cw2, 1);
    EXPECT_EQ(r2.status, DecodeStatus::Corrected);
    EXPECT_EQ(cw2, orig2);
}

// Forney's zero denominator: five symbol errors on the all-zero
// RS(72,64) word drive Berlekamp-Massey to a locator whose derivative
// vanishes at one of its roots. The word is Detected, reports no
// corrected positions, and is left as it was read.
TEST(ReedSolomon, DetectedReportsNoPositions)
{
    const ReedSolomon rs(72, 64);
    std::vector<std::uint8_t> cw(72, 0);
    cw[64] = 0x04;
    cw[54] = 0x29;
    cw[50] = 0xd1;
    cw[57] = 0x16;
    cw[11] = 0x67;
    const auto received = cw;
    const auto r = rs.decode(cw);
    EXPECT_EQ(r.status, DecodeStatus::Detected);
    EXPECT_EQ(r.numCorrected, 0u);
    EXPECT_EQ(cw, received);
}

TEST(ReedSolomon, RejectsBadGeometry)
{
    EXPECT_THROW(ReedSolomon(16, 16), std::logic_error);
    EXPECT_THROW(ReedSolomon(19, 16), std::logic_error); // odd checks
    EXPECT_THROW(ReedSolomon(300, 200), std::logic_error);
}

// --------------------------------------------------------------------
// Sliced encoder against the byte-at-a-time LFSR
// --------------------------------------------------------------------

/**
 * Byte-at-a-time LFSR reference: synthetic division of m(x) * x^{2t}
 * by g(x) = prod (x + alpha^i), one data symbol per step with explicit
 * GF multiplies. Returns the 2t check symbols, highest degree first.
 */
std::vector<std::uint8_t>
referenceParity(unsigned n, unsigned k, const std::uint8_t *data)
{
    const unsigned two_t = n - k;
    std::vector<std::uint8_t> g{1};
    for (unsigned i = 0; i < two_t; ++i) {
        std::vector<std::uint8_t> next(g.size() + 1, 0);
        for (std::size_t j = 0; j < g.size(); ++j) {
            next[j + 1] ^= g[j];
            next[j] ^= GF256::mul(g[j], GF256::alphaPow(i));
        }
        g = std::move(next);
    }
    std::vector<std::uint8_t> rem(two_t, 0);
    for (unsigned j = 0; j < k; ++j) {
        const std::uint8_t coef = data[j] ^ rem[0];
        rem.erase(rem.begin());
        rem.push_back(0);
        for (unsigned i = 0; i < two_t; ++i)
            rem[two_t - 1 - i] ^= GF256::mul(coef, g[i]);
    }
    return rem;
}

/** Seeded messages plus the edge cases a slicing bug would miss. */
std::vector<std::vector<std::uint8_t>>
encodeMessages(unsigned k, std::uint64_t seed)
{
    std::vector<std::vector<std::uint8_t>> msgs;
    msgs.emplace_back(k, 0x00);
    msgs.emplace_back(k, 0xff);
    for (unsigned j = 0; j < k; ++j) {
        // One nonzero symbol at each position (each slice, each step).
        std::vector<std::uint8_t> m(k, 0);
        m[j] = static_cast<std::uint8_t>(j * 37 + 1);
        msgs.push_back(std::move(m));
    }
    Rng rng(seed);
    for (unsigned i = 0; i < 500; ++i) {
        std::vector<std::uint8_t> m(k);
        for (auto &b : m)
            b = static_cast<std::uint8_t>(rng.below(256));
        msgs.push_back(std::move(m));
    }
    return msgs;
}

class SlicedEncodeTest
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{
};

TEST_P(SlicedEncodeTest, MatchesByteAtATimeLfsr)
{
    const auto [n, k] = GetParam();
    const ReedSolomon rs(n, k);
    for (const auto &m : encodeMessages(k, 0x51ce + n)) {
        std::vector<std::uint8_t> parity(n - k, 0xa5);
        rs.encodeParity(m.data(), parity.data());
        ASSERT_EQ(parity, referenceParity(n, k, m.data()));
    }
}

INSTANTIATE_TEST_SUITE_P(
    ShippedGeometries, SlicedEncodeTest,
    ::testing::Values(std::make_pair(18u, 16u), std::make_pair(36u, 32u),
                      std::make_pair(72u, 64u)),
    [](const auto &info) {
        return "RS" + std::to_string(info.param.first) + "_" +
               std::to_string(info.param.second);
    });

// Every RS scheme's line layout, rebuilt from the reference: SSC's
// four RS(18,16) words, SSC-DSD's two RS(36,32), Bamboo-72's one
// RS(72,64), and SSC-32's two pairs of byte-interleaved RS(18,16)
// words (interleave i of pair j takes bytes 32j + 2s + i).
TEST(SlicedEncode, EngineLinesMatchReferenceLayout)
{
    Rng rng(0x55c32);
    for (EccScheme scheme : {EccScheme::Ssc, EccScheme::SscDsd,
                             EccScheme::Bamboo72, EccScheme::Ssc32}) {
        const EccEngine ecc(scheme);
        for (unsigned trial = 0; trial < 300; ++trial) {
            std::uint8_t line[kCachelineBytes];
            for (auto &b : line)
                b = static_cast<std::uint8_t>(rng.below(256));
            std::vector<std::uint8_t> want(line, line + kCachelineBytes);
            want.resize(kCachelineBytes + 8, 0);
            switch (scheme) {
              case EccScheme::Ssc:
              case EccScheme::SscDsd:
              case EccScheme::Bamboo72: {
                const unsigned k = scheme == EccScheme::Ssc ? 16
                    : scheme == EccScheme::SscDsd            ? 32
                                                             : 64;
                const unsigned two_t = k / 8;
                for (unsigned w = 0; w < kCachelineBytes / k; ++w) {
                    const auto p = referenceParity(k + two_t, k,
                                                   line + k * w);
                    std::copy(p.begin(), p.end(),
                              want.begin() + kCachelineBytes +
                                  two_t * w);
                }
                break;
              }
              case EccScheme::Ssc32:
                for (unsigned j = 0; j < 2; ++j) {
                    for (unsigned i = 0; i < 2; ++i) {
                        std::uint8_t word[16];
                        for (unsigned s = 0; s < 16; ++s)
                            word[s] = line[32 * j + 2 * s + i];
                        const auto p = referenceParity(18, 16, word);
                        want[64 + 4 * j + i] = p[0];
                        want[64 + 4 * j + 2 + i] = p[1];
                    }
                }
                break;
              default:
                FAIL() << "not an RS scheme";
            }
            std::vector<std::uint8_t> blob(kCachelineBytes + 8, 0x3c);
            ecc.encodeLineInto(line, blob.data());
            ASSERT_EQ(blob, want) << eccSchemeName(scheme);
        }
    }
}

// --------------------------------------------------------------------
// SEC-DED
// --------------------------------------------------------------------

TEST(SecDed, CleanWord)
{
    std::uint64_t data = 0x0123456789abcdefULL;
    std::uint8_t check = SecDed::encode(data);
    const auto r = SecDed::decode(data, check);
    EXPECT_EQ(r.status, SecDedResult::Status::Clean);
}

TEST(SecDed, CorrectsEverySingleDataBit)
{
    const std::uint64_t original = 0xfeedfacecafebeefULL;
    const std::uint8_t check = SecDed::encode(original);
    for (int bit = 0; bit < 64; ++bit) {
        std::uint64_t data = original ^ (std::uint64_t{1} << bit);
        std::uint8_t c = check;
        const auto r = SecDed::decode(data, c);
        ASSERT_EQ(r.status, SecDedResult::Status::CorrectedData)
            << "bit=" << bit;
        EXPECT_EQ(r.correctedBit, bit);
        EXPECT_EQ(data, original);
    }
}

TEST(SecDed, CorrectsEverySingleCheckBit)
{
    const std::uint64_t original = 0x5555aaaa3333ccccULL;
    const std::uint8_t check = SecDed::encode(original);
    for (int bit = 0; bit < 8; ++bit) {
        std::uint64_t data = original;
        std::uint8_t c = check ^ static_cast<std::uint8_t>(1u << bit);
        const auto r = SecDed::decode(data, c);
        ASSERT_EQ(r.status, SecDedResult::Status::CorrectedCheck)
            << "bit=" << bit;
        EXPECT_EQ(data, original);
        EXPECT_EQ(c, check);
    }
}

TEST(SecDed, DetectsDoubleBitErrors)
{
    const std::uint64_t original = 0x0011223344556677ULL;
    const std::uint8_t check = SecDed::encode(original);
    Rng rng(21);
    for (int trial = 0; trial < 300; ++trial) {
        const unsigned b1 = static_cast<unsigned>(rng.below(64));
        unsigned b2;
        do {
            b2 = static_cast<unsigned>(rng.below(64));
        } while (b2 == b1);
        std::uint64_t data = original ^ (std::uint64_t{1} << b1) ^
                             (std::uint64_t{1} << b2);
        std::uint8_t c = check;
        const auto r = SecDed::decode(data, c);
        EXPECT_EQ(r.status, SecDedResult::Status::Detected)
            << b1 << "," << b2;
    }
}

// --------------------------------------------------------------------
// EccEngine (rank-level, chip-accurate injection)
// --------------------------------------------------------------------

std::vector<std::uint8_t>
randomLine(Rng &rng)
{
    std::vector<std::uint8_t> line(kCachelineBytes);
    for (auto &b : line)
        b = static_cast<std::uint8_t>(rng.below(256));
    return line;
}

class EccEngineTest : public ::testing::TestWithParam<EccScheme>
{
};

TEST_P(EccEngineTest, EncodeDecodeRoundTrip)
{
    const EccEngine engine(GetParam());
    Rng rng(31);
    const auto line = randomLine(rng);
    auto blob = engine.encodeLine(line);
    EXPECT_EQ(blob.size(), kCachelineBytes + engine.parityBytesPerLine());
    const auto r = engine.decodeLine(blob);
    EXPECT_TRUE(r.clean);
    blob.resize(kCachelineBytes);
    EXPECT_EQ(blob, line);
}

// The backing store materialises absent lines as zeroed blobs, and the
// clean-read shortcut returns them without decoding. That is only
// sound if the all-zero blob is a valid (clean) codeword under every
// scheme -- pin it.
TEST_P(EccEngineTest, AllZeroLineIsACleanCodeword)
{
    const EccEngine engine(GetParam());
    const std::vector<std::uint8_t> zero(kCachelineBytes, 0);
    auto blob = engine.encodeLine(zero);
    for (const std::uint8_t b : blob)
        EXPECT_EQ(b, 0u);
    const auto r = engine.decodeLine(blob);
    EXPECT_TRUE(r.clean);
    EXPECT_FALSE(r.corrected);
    EXPECT_FALSE(r.uncorrectable);
}

// The allocation-free encode used on the simulated write path must
// produce byte-identical blobs to the allocating one.
TEST_P(EccEngineTest, EncodeLineIntoMatchesEncodeLine)
{
    const EccEngine engine(GetParam());
    Rng rng(47);
    for (unsigned trial = 0; trial < 16; ++trial) {
        const auto line = randomLine(rng);
        const auto blob = engine.encodeLine(line);
        std::vector<std::uint8_t> scratch(blob.size(), 0xff);
        engine.encodeLineInto(line.data(), scratch.data());
        EXPECT_EQ(scratch, blob);
    }
}

TEST_P(EccEngineTest, SingleBitErrorHandled)
{
    const EccEngine engine(GetParam());
    if (engine.scheme() == EccScheme::None)
        GTEST_SKIP() << "no ECC";
    Rng rng(33);
    const auto line = randomLine(rng);
    auto blob = engine.encodeLine(line);
    EccEngine::flipBit(blob, 5 * 8 + 3);
    const auto r = engine.decodeLine(blob);
    EXPECT_TRUE(r.corrected);
    EXPECT_FALSE(r.uncorrectable);
    blob.resize(kCachelineBytes);
    EXPECT_EQ(blob, line);
}

// Differential oracle for the shared CodecRegistry: an engine borrowing
// the process-wide codec must be byte- and stats-identical to one that
// builds its codec privately, across clean, correctable, and
// uncorrectable inputs. Any divergence here means the registry handed
// out the wrong (n, k) or shared mutable codec state.
TEST_P(EccEngineTest, RegistryCodecMatchesPrivateCodec)
{
    const EccEngine shared(GetParam());
    const EccEngine private_(GetParam(), EccEngine::PrivateCodec{});
    Rng rng(101);
    for (unsigned trial = 0; trial < 24; ++trial) {
        const auto line = randomLine(rng);
        auto blobA = shared.encodeLine(line);
        auto blobB = private_.encodeLine(line);
        ASSERT_EQ(blobA, blobB);

        if (shared.scheme() != EccScheme::None) {
            // Same fault into both copies: a single flipped bit, a
            // whole-chip failure, or two chip failures, cycling so
            // every scheme sees clean, corrected, and (for the weaker
            // codes) uncorrectable outcomes.
            switch (trial % 3) {
            case 0:
                EccEngine::flipBit(blobA, (trial * 37) % (64 * 8));
                EccEngine::flipBit(blobB, (trial * 37) % (64 * 8));
                break;
            case 1:
                shared.corruptChip(blobA, trial % shared.numChips());
                private_.corruptChip(blobB, trial % shared.numChips());
                break;
            case 2:
                shared.corruptChip(blobA, 2);
                shared.corruptChip(blobA, 9);
                private_.corruptChip(blobB, 2);
                private_.corruptChip(blobB, 9);
                break;
            }
        }

        const EccLineResult ra = shared.decodeLine(blobA);
        const EccLineResult rb = private_.decodeLine(blobB);
        EXPECT_EQ(ra.clean, rb.clean);
        EXPECT_EQ(ra.corrected, rb.corrected);
        EXPECT_EQ(ra.uncorrectable, rb.uncorrectable);
        EXPECT_EQ(ra.symbolsCorrected, rb.symbolsCorrected);
        EXPECT_EQ(blobA, blobB);
    }

    EXPECT_EQ(shared.stats().linesDecoded.value(),
              private_.stats().linesDecoded.value());
    EXPECT_EQ(shared.stats().codewordsCorrected.value(),
              private_.stats().codewordsCorrected.value());
    EXPECT_EQ(shared.stats().codewordsDetected.value(),
              private_.stats().codewordsDetected.value());
    EXPECT_EQ(shared.stats().symbolsCorrected.value(),
              private_.stats().symbolsCorrected.value());
}

// The registry hands back the same immutable codec on every call, so
// repeated engine construction is allocation-light and two engines for
// one scheme encode identically by construction.
TEST(EccEngine, RepeatedConstructionSharesBytes)
{
    Rng rng(7);
    const auto line = randomLine(rng);
    const EccEngine a(EccScheme::Bamboo72);
    const EccEngine b(EccScheme::Bamboo72);
    EXPECT_EQ(a.encodeLine(line), b.encodeLine(line));
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, EccEngineTest,
    ::testing::Values(EccScheme::None, EccScheme::SecDed, EccScheme::Ssc,
                      EccScheme::SscDsd, EccScheme::Ssc32,
                      EccScheme::Bamboo72),
    [](const auto &info) {
        std::string name = eccSchemeName(info.param);
        std::erase(name, '-');
        return name;
    });

TEST(EccEngine, ChipkillSchemesSurviveWholeChipFailure)
{
    // Section 2.3 / Table 1: SSC-family schemes must correct a whole
    // failed chip, for *every* chip in the rank.
    for (EccScheme scheme :
         {EccScheme::Ssc, EccScheme::SscDsd, EccScheme::Ssc32,
          EccScheme::Bamboo72}) {
        const EccEngine engine(scheme);
        EXPECT_TRUE(engine.toleratesChipFailure());
        Rng rng(55);
        const auto line = randomLine(rng);
        for (unsigned chip = 0; chip < engine.numChips(); ++chip) {
            auto blob = engine.encodeLine(line);
            engine.corruptChip(blob, chip);
            const auto r = engine.decodeLine(blob);
            EXPECT_TRUE(r.corrected)
                << eccSchemeName(scheme) << " chip " << chip;
            EXPECT_FALSE(r.uncorrectable)
                << eccSchemeName(scheme) << " chip " << chip;
            blob.resize(kCachelineBytes);
            EXPECT_EQ(blob, line) << eccSchemeName(scheme);
        }
    }
}

TEST(EccEngine, SecDedCannotSurviveChipFailure)
{
    // The motivation for chipkill: SEC-DED sees 4 flipped bits per
    // codeword when a chip dies -- beyond its correction capability.
    const EccEngine engine(EccScheme::SecDed);
    EXPECT_FALSE(engine.toleratesChipFailure());
    Rng rng(66);
    const auto line = randomLine(rng);
    auto blob = engine.encodeLine(line);
    engine.corruptChip(blob, 7);
    const auto r = engine.decodeLine(blob);
    // 4-bit (even) flips per word give even parity with a non-zero
    // syndrome: flagged as detected-uncorrectable, never silently wrong.
    EXPECT_TRUE(r.uncorrectable);
}

TEST(EccEngine, SscDsdDetectsTwoChipFailures)
{
    const EccEngine engine(EccScheme::SscDsd);
    Rng rng(77);
    const auto line = randomLine(rng);
    auto blob = engine.encodeLine(line);
    engine.corruptChip(blob, 3);
    engine.corruptChip(blob, 19);
    const auto r = engine.decodeLine(blob);
    EXPECT_TRUE(r.uncorrectable); // correct-one/detect-two policy
}

TEST(EccEngine, PartialChipFaultCorrected)
{
    const EccEngine engine(EccScheme::Ssc);
    Rng rng(88);
    const auto line = randomLine(rng);
    auto blob = engine.encodeLine(line);
    engine.corruptChipBits(blob, 11, 3, rng);
    const auto r = engine.decodeLine(blob);
    EXPECT_FALSE(r.uncorrectable);
    blob.resize(kCachelineBytes);
    EXPECT_EQ(blob, line);
}

TEST(EccEngine, Bamboo72SurvivesChipPlusTransient)
{
    // The large-codeword variant has t = 4: a whole failed chip (4
    // symbols) is correctable even with no margin to spare per stripe,
    // unlike SSC which dedicates its single correctable symbol per
    // codeword to the chip.
    const EccEngine engine(EccScheme::Bamboo72);
    Rng rng(123);
    const auto line = randomLine(rng);
    auto blob = engine.encodeLine(line);
    engine.corruptChip(blob, 9);
    const auto r = engine.decodeLine(blob);
    EXPECT_TRUE(r.corrected);
    EXPECT_EQ(r.symbolsCorrected, 4u);
    blob.resize(kCachelineBytes);
    EXPECT_EQ(blob, line);

    // Two whole chips = 8 symbol errors: beyond t = 4, detected.
    auto blob2 = engine.encodeLine(line);
    engine.corruptChip(blob2, 3);
    engine.corruptChip(blob2, 12);
    EXPECT_TRUE(engine.decodeLine(blob2).uncorrectable);
}

TEST(EccEngine, GeometryPerScheme)
{
    EXPECT_EQ(EccEngine(EccScheme::Ssc).numChips(), 18u);
    EXPECT_EQ(EccEngine(EccScheme::SscDsd).numChips(), 36u);
    EXPECT_EQ(EccEngine(EccScheme::None).numChips(), 16u);
    EXPECT_EQ(EccEngine(EccScheme::None).parityBytesPerLine(), 0u);
    EXPECT_EQ(EccEngine(EccScheme::Ssc).parityBytesPerLine(), 8u);
}

// --------------------------------------------------------------------
// Golden vectors (tests/golden_ecc_vectors.hh, independently derived
// by tools/gen_ecc_vectors.py from the published algebra)
// --------------------------------------------------------------------

template <std::size_t N>
std::vector<std::uint8_t>
vec(const std::uint8_t (&a)[N])
{
    return std::vector<std::uint8_t>(a, a + N);
}

TEST(GoldenVectors, Rs18EncodeMatchesReference)
{
    const ReedSolomon rs(18, 16);
    EXPECT_EQ(rs.encode(vec(golden::kRs18Data)),
              vec(golden::kRs18Codeword));
}

TEST(GoldenVectors, Rs36EncodeMatchesReference)
{
    const ReedSolomon rs(36, 32);
    EXPECT_EQ(rs.encode(vec(golden::kRs36Data)),
              vec(golden::kRs36Codeword));
}

TEST(GoldenVectors, Rs72EncodeMatchesReference)
{
    const ReedSolomon rs(72, 64);
    EXPECT_EQ(rs.encode(vec(golden::kRs72Data)),
              vec(golden::kRs72Codeword));
}

TEST(GoldenVectors, RsZeroDataEncodesToZeroCodeword)
{
    // Linearity: the zero message maps to the zero codeword, and the
    // committed vector pins that down byte-for-byte.
    const ReedSolomon rs(18, 16);
    const auto cw = rs.encode(std::vector<std::uint8_t>(16, 0));
    EXPECT_EQ(cw, vec(golden::kRs18ZeroCodeword));
    for (std::uint8_t b : cw)
        EXPECT_EQ(b, 0);
}

TEST(GoldenVectors, SecDedCheckBytesMatchReference)
{
    for (std::size_t i = 0; i < std::size(golden::kSecDedWords); ++i) {
        EXPECT_EQ(SecDed::encode(golden::kSecDedWords[i]),
                  golden::kSecDedChecks[i])
            << "word 0x" << std::hex << golden::kSecDedWords[i];
    }
}

TEST(GoldenVectors, SecDedGoldenWordsDecodeClean)
{
    for (std::size_t i = 0; i < std::size(golden::kSecDedWords); ++i) {
        std::uint64_t data = golden::kSecDedWords[i];
        std::uint8_t check = golden::kSecDedChecks[i];
        const auto r = SecDed::decode(data, check);
        EXPECT_EQ(r.status, SecDedResult::Status::Clean) << "i=" << i;
    }
}

struct GoldenBlobCase {
    EccScheme scheme;
    const std::uint8_t *blob;
    std::size_t size;
};

class GoldenBlobTest : public ::testing::TestWithParam<GoldenBlobCase>
{
protected:
    std::vector<std::uint8_t>
    goldenBlob() const
    {
        const auto &p = GetParam();
        return std::vector<std::uint8_t>(p.blob, p.blob + p.size);
    }
};

TEST_P(GoldenBlobTest, EncodeLineMatchesReference)
{
    const EccEngine engine(GetParam().scheme);
    EXPECT_EQ(engine.encodeLine(vec(golden::kEngineLine)), goldenBlob());
}

TEST_P(GoldenBlobTest, SingleSymbolErrorRestoresGoldenBlob)
{
    const EccEngine engine(GetParam().scheme);
    const auto pristine = goldenBlob();
    auto blob = pristine;
    // A single-bit flip is one symbol for the RS schemes and one data
    // bit for SEC-DED, so every scheme must fully recover.
    blob[21] ^= 0x04;
    const auto r = engine.decodeLine(blob);
    EXPECT_TRUE(r.corrected);
    EXPECT_FALSE(r.uncorrectable);
    EXPECT_EQ(blob, pristine);
}

TEST_P(GoldenBlobTest, ChipkillErasureAgainstGoldenBlob)
{
    const EccEngine engine(GetParam().scheme);
    const auto pristine = goldenBlob();
    auto blob = pristine;
    // Chip 7, not an arbitrary one: for SEC-DED a dead x4 chip flips an
    // aligned nibble per word, and some nibbles (e.g. chip 5's, data
    // bits 20-23 at Hamming positions 26,27,28,29) XOR to a *zero*
    // syndrome -- a silently undetectable failure. Chip 7's positions
    // (35,36,37,38) keep the syndrome non-zero, the case the existing
    // detection claim is about.
    engine.corruptChip(blob, 7);
    const auto r = engine.decodeLine(blob);
    if (engine.toleratesChipFailure()) {
        EXPECT_TRUE(r.corrected);
        EXPECT_FALSE(r.uncorrectable);
        EXPECT_EQ(blob, pristine);
    } else {
        EXPECT_TRUE(r.uncorrectable); // SEC-DED: detected, never silent
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, GoldenBlobTest,
    ::testing::Values(
        GoldenBlobCase{EccScheme::SecDed, golden::kSecDedBlob,
                       std::size(golden::kSecDedBlob)},
        GoldenBlobCase{EccScheme::Ssc, golden::kSscBlob,
                       std::size(golden::kSscBlob)},
        GoldenBlobCase{EccScheme::SscDsd, golden::kSscDsdBlob,
                       std::size(golden::kSscDsdBlob)},
        GoldenBlobCase{EccScheme::Ssc32, golden::kSsc32Blob,
                       std::size(golden::kSsc32Blob)},
        GoldenBlobCase{EccScheme::Bamboo72, golden::kBamboo72Blob,
                       std::size(golden::kBamboo72Blob)}),
    [](const auto &info) {
        std::string name = eccSchemeName(info.param.scheme);
        std::erase(name, '-');
        return name;
    });

TEST(GoldenVectors, SecDedChipFailureCanAliasToCleanSilently)
{
    // The flip side of the chipkill motivation: a whole-chip x4 failure
    // is not merely uncorrectable for SEC-DED -- for chips whose four
    // codeword positions XOR to zero it is *undetectable*. Chip 5
    // drives data bits 20-23, at Hamming positions 26^27^28^29 == 0
    // with even overall parity: the decoder reports clean and returns
    // corrupted data. This test pins that hazard so nobody "fixes" the
    // detection claim to cover all chips.
    const EccEngine engine(EccScheme::SecDed);
    std::vector<std::uint8_t> blob(
        golden::kSecDedBlob,
        golden::kSecDedBlob + std::size(golden::kSecDedBlob));
    engine.corruptChip(blob, 5);
    const auto r = engine.decodeLine(blob);
    EXPECT_FALSE(r.uncorrectable);
    EXPECT_FALSE(r.corrected);
    // ...and the data really is wrong.
    blob.resize(kCachelineBytes);
    EXPECT_NE(blob, vec(golden::kEngineLine));
}

TEST(GoldenVectors, SscDsdDetectOnlyBeyondPolicyOnGoldenBlob)
{
    // Two dead chips land two symbol errors in the same RS(36,32)
    // codeword; the correct-one/detect-two policy must refuse to
    // correct even though t = 2 could.
    const EccEngine engine(EccScheme::SscDsd);
    std::vector<std::uint8_t> blob(
        golden::kSscDsdBlob,
        golden::kSscDsdBlob + std::size(golden::kSscDsdBlob));
    engine.corruptChip(blob, 2);
    engine.corruptChip(blob, 9);
    const auto r = engine.decodeLine(blob);
    EXPECT_TRUE(r.uncorrectable);
    EXPECT_FALSE(r.corrected);
}

// --------------------------------------------------------------------
// Differential: the decoder against the one it replaced
// --------------------------------------------------------------------

/** What the reference decoder reports for one codeword. */
struct RefDecodeResult
{
    DecodeStatus status = DecodeStatus::Clean;
    std::vector<unsigned> positions;
};

/** Evaluate `poly` (coefficients low-order first) at x, by Horner. */
GF256::Elem
refEvalPoly(const std::vector<std::uint8_t> &poly, GF256::Elem x)
{
    GF256::Elem acc = 0;
    for (auto it = poly.rbegin(); it != poly.rend(); ++it)
        acc = GF256::add(GF256::mul(acc, x), *it);
    return acc;
}

/** S_i = c(alpha^i) by Horner; false when every syndrome is zero. */
bool
refSyndromes(const std::vector<std::uint8_t> &cw, unsigned two_t,
             std::vector<std::uint8_t> &synd)
{
    synd.assign(two_t, 0);
    for (const std::uint8_t c : cw) {
        for (unsigned i = 0; i < two_t; ++i)
            synd[i] = GF256::add(GF256::mul(synd[i], GF256::alphaPow(i)), c);
    }
    return std::any_of(synd.begin(), synd.end(),
                       [](std::uint8_t v) { return v != 0; });
}

/**
 * The textbook RS(n, k) decoder ReedSolomon::decode replaced, kept as
 * the oracle: Horner syndromes, Berlekamp-Massey on growing vectors,
 * Chien search over every position, Forney's algorithm, and a Horner
 * re-verification of a corrected copy. Only a Corrected result writes
 * `codeword`; a Detected result reports no positions.
 */
RefDecodeResult
refDecode(unsigned n, unsigned k, std::vector<std::uint8_t> &codeword,
          unsigned max_correct)
{
    const unsigned two_t = n - k;
    RefDecodeResult result;
    std::vector<std::uint8_t> synd;
    if (!refSyndromes(codeword, two_t, synd))
        return result;

    // Berlekamp-Massey: the error locator Lambda(x).
    std::vector<std::uint8_t> lambda{1};
    std::vector<std::uint8_t> prev{1};
    unsigned errors = 0;
    unsigned shift = 1;
    GF256::Elem prev_delta = 1;
    for (unsigned iter = 0; iter < two_t; ++iter) {
        GF256::Elem delta = synd[iter];
        for (unsigned i = 1; i <= errors && i < lambda.size(); ++i)
            delta = GF256::add(delta,
                               GF256::mul(lambda[i], synd[iter - i]));
        if (delta == 0) {
            ++shift;
            continue;
        }
        std::vector<std::uint8_t> candidate(lambda);
        const GF256::Elem scale = GF256::div(delta, prev_delta);
        if (candidate.size() < prev.size() + shift)
            candidate.resize(prev.size() + shift, 0);
        for (std::size_t i = 0; i < prev.size(); ++i)
            candidate[i + shift] ^= GF256::mul(scale, prev[i]);
        if (2 * errors <= iter) {
            prev = std::move(lambda);
            prev_delta = delta;
            errors = iter + 1 - errors;
            shift = 1;
        } else {
            ++shift;
        }
        lambda = std::move(candidate);
    }

    const unsigned limit = std::min(max_correct, two_t / 2);
    if (errors > limit) {
        result.status = DecodeStatus::Detected;
        return result;
    }

    // Omega(x) = S(x) * Lambda(x) mod x^{2t}.
    std::vector<std::uint8_t> omega(two_t, 0);
    for (unsigned i = 0; i < two_t; ++i) {
        for (std::size_t j = 0; j < lambda.size() && j <= i; ++j)
            omega[i] ^= GF256::mul(synd[i - j], lambda[j]);
    }
    std::vector<std::uint8_t> lambda_deriv;
    for (std::size_t i = 1; i < lambda.size(); i += 2) {
        lambda_deriv.resize(i, 0);
        lambda_deriv[i - 1] = lambda[i];
    }

    // Chien search and Forney: position j has locator alpha^{n-1-j}.
    std::vector<std::uint8_t> fixed(codeword);
    for (unsigned j = 0; j < n; ++j) {
        const GF256::Elem x = GF256::alphaPow(n - 1 - j);
        const GF256::Elem x_inv = GF256::inv(x);
        if (refEvalPoly(lambda, x_inv) != 0)
            continue;
        const GF256::Elem denom = refEvalPoly(lambda_deriv, x_inv);
        if (denom == 0)
            return {DecodeStatus::Detected, {}};
        fixed[j] ^= GF256::mul(
            x, GF256::div(refEvalPoly(omega, x_inv), denom));
        result.positions.push_back(j);
    }
    if (result.positions.size() != errors ||
        refSyndromes(fixed, two_t, synd))
        return {DecodeStatus::Detected, {}};

    codeword = std::move(fixed);
    result.status = DecodeStatus::Corrected;
    return result;
}

/** A word for the codec differential: `errors` random symbol errors
 *  on a random codeword, or (errors == ~0u) a fully random word. */
std::vector<std::uint8_t>
differentialWord(const ReedSolomon &rs, Rng &rng, unsigned errors)
{
    if (errors == ~0u)
        return randomData(rng, rs.n());
    auto cw = rs.encode(randomData(rng, rs.k()));
    std::vector<bool> hit(rs.n(), false);
    for (unsigned e = 0; e < errors;) {
        const auto p = static_cast<unsigned>(rng.below(rs.n()));
        if (hit[p])
            continue;
        hit[p] = true;
        cw[p] ^= static_cast<std::uint8_t>(1 + rng.below(255));
        ++e;
    }
    return cw;
}

class RsDifferentialTest
    : public ::testing::TestWithParam<std::pair<int, int>>
{
};

// 0..t+2 symbol errors plus fully random words, each decoded with no
// correction limit, with SSC-DSD's limit of one, and with none: status
// and bytes must match the reference, and positions on Corrected.
TEST_P(RsDifferentialTest, MatchesReferenceDecoder)
{
    const auto [n, k] = GetParam();
    const ReedSolomon rs(n, k);
    const unsigned kinds = rs.t() + 4; // 0..t+2 errors, random word
    Rng rng(9000 + n);
    unsigned outcomes[3] = {0, 0, 0};
    for (unsigned w = 0; w < 20000; ++w) {
        const unsigned kind = w % kinds;
        const auto word =
            differentialWord(rs, rng, kind + 1 == kinds ? ~0u : kind);
        for (const unsigned max_correct : {~0u, 1u, 0u}) {
            auto got = word;
            auto want = word;
            const auto r = rs.decode(got, max_correct);
            const RefDecodeResult ref =
                refDecode(rs.n(), rs.k(), want, max_correct);
            ASSERT_EQ(r.status, ref.status)
                << "RS(" << n << "," << k << ") word " << w
                << " max_correct " << max_correct;
            ASSERT_EQ(got, want) << "RS(" << n << "," << k << ") word "
                                 << w << " max_correct " << max_correct;
            if (r.status == DecodeStatus::Corrected) {
                ASSERT_EQ(positionsOf(r), ref.positions)
                    << "RS(" << n << "," << k << ") word " << w;
            }
            ++outcomes[static_cast<unsigned>(r.status)];
        }
    }
    // Every outcome is exercised, so the comparison is not vacuous.
    EXPECT_GT(outcomes[0], 0u);
    EXPECT_GT(outcomes[1], 0u);
    EXPECT_GT(outcomes[2], 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ChipkillGeometries, RsDifferentialTest,
    ::testing::Values(std::pair{18, 16}, std::pair{36, 32},
                      std::pair{72, 64}, std::pair{255, 223},
                      std::pair{20, 12}));

/** Little-endian 64-bit word of the blob, as the engine reads it. */
std::uint64_t
refLoad64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | p[i];
    return v;
}

/** Codeword-granular counters the reference line decoder keeps. */
struct RefEngineStats
{
    std::uint64_t linesDecoded = 0;
    std::uint64_t codewordsCorrected = 0;
    std::uint64_t codewordsDetected = 0;
    std::uint64_t symbolsCorrected = 0;
};

/**
 * EccEngine::decodeLine as it was before the in-place decoder: every
 * RS codeword gathered into a fresh vector, decoded by refDecode, and
 * scattered back only when corrected.
 */
EccLineResult
refDecodeLine(EccScheme scheme, std::vector<std::uint8_t> &blob,
              RefEngineStats &stats)
{
    EccLineResult result;
    ++stats.linesDecoded;
    auto note = [&](DecodeStatus status, unsigned n_fixed) {
        if (status == DecodeStatus::Corrected) {
            result.clean = false;
            result.corrected = true;
            result.symbolsCorrected += n_fixed;
            ++stats.codewordsCorrected;
            stats.symbolsCorrected += n_fixed;
        } else if (status == DecodeStatus::Detected) {
            result.clean = false;
            result.uncorrectable = true;
            ++stats.codewordsDetected;
        }
    };
    // Gather the codeword at blob offsets `at`, decode, scatter back.
    auto decodeAt = [&](unsigned n, unsigned k,
                        const std::vector<unsigned> &at,
                        unsigned max_correct) {
        std::vector<std::uint8_t> cw;
        for (unsigned i : at)
            cw.push_back(blob[i]);
        const RefDecodeResult r = refDecode(n, k, cw, max_correct);
        if (r.status == DecodeStatus::Corrected) {
            for (std::size_t s = 0; s < at.size(); ++s)
                blob[at[s]] = cw[s];
        }
        note(r.status, static_cast<unsigned>(r.positions.size()));
    };

    switch (scheme) {
      case EccScheme::None:
        break;
      case EccScheme::SecDed:
        for (unsigned j = 0; j < 8; ++j) {
            std::uint64_t data = refLoad64(&blob[8 * j]);
            std::uint8_t check = blob[64 + j];
            const SecDedResult r = SecDed::decode(data, check);
            if (r.status == SecDedResult::Status::Detected) {
                note(DecodeStatus::Detected, 0);
            } else if (r.status != SecDedResult::Status::Clean) {
                for (unsigned b = 0; b < 8; ++b)
                    blob[8 * j + b] =
                        static_cast<std::uint8_t>(data >> (8 * b));
                blob[64 + j] = check;
                note(DecodeStatus::Corrected, 1);
            }
        }
        break;
      case EccScheme::Bamboo72: {
        std::vector<unsigned> at(72);
        for (unsigned s = 0; s < 72; ++s)
            at[s] = s;
        decodeAt(72, 64, at, ~0u);
        break;
      }
      case EccScheme::Ssc:
        for (unsigned j = 0; j < 4; ++j) {
            std::vector<unsigned> at;
            for (unsigned s = 0; s < 16; ++s)
                at.push_back(16 * j + s);
            at.push_back(64 + 2 * j);
            at.push_back(64 + 2 * j + 1);
            decodeAt(18, 16, at, ~0u);
        }
        break;
      case EccScheme::SscDsd:
        for (unsigned j = 0; j < 2; ++j) {
            std::vector<unsigned> at;
            for (unsigned s = 0; s < 32; ++s)
                at.push_back(32 * j + s);
            for (unsigned p = 0; p < 4; ++p)
                at.push_back(64 + 4 * j + p);
            decodeAt(36, 32, at, 1);
        }
        break;
      case EccScheme::Ssc32:
        for (unsigned j = 0; j < 2; ++j) {
            for (unsigned i = 0; i < 2; ++i) {
                std::vector<unsigned> at;
                for (unsigned s = 0; s < 16; ++s)
                    at.push_back(32 * j + 2 * s + i);
                at.push_back(64 + 4 * j + i);
                at.push_back(64 + 4 * j + 2 + i);
                decodeAt(18, 16, at, ~0u);
            }
        }
        break;
    }
    return result;
}

/**
 * The blob bits a chip drives, as the engine enumerated them before it
 * stopped building the list: x4 nibbles per 72-bit word for SEC-DED
 * (and the unprotected layout), whole symbol bytes for the RS schemes.
 */
std::vector<std::size_t>
refChipBits(EccScheme scheme, unsigned chip)
{
    std::vector<std::size_t> bytes;
    std::vector<std::size_t> bits;
    switch (scheme) {
      case EccScheme::None:
      case EccScheme::SecDed:
        for (unsigned j = 0; j < 8; ++j) {
            for (unsigned b = 0; b < 4; ++b) {
                if (chip < 16)
                    bits.push_back(64 * j + 4 * chip + b);
                else
                    bits.push_back(8 * (64 + j) + 4 * (chip - 16) + b);
            }
        }
        return bits;
      case EccScheme::Ssc:
      case EccScheme::Bamboo72:
        for (unsigned j = 0; j < 4; ++j)
            bytes.push_back(chip < 16 ? 16 * j + chip
                                      : 64 + 2 * j + (chip - 16));
        break;
      case EccScheme::SscDsd:
        for (unsigned j = 0; j < 2; ++j)
            bytes.push_back(chip < 32 ? 32 * j + chip
                                      : 64 + 4 * j + (chip - 32));
        break;
      case EccScheme::Ssc32:
        for (unsigned j = 0; j < 2; ++j) {
            const std::size_t at = chip < 16 ? 32 * j + 2 * chip
                                             : 64 + 4 * j + 2 * (chip - 16);
            bytes.push_back(at);
            bytes.push_back(at + 1);
        }
        break;
    }
    for (std::size_t byte : bytes) {
        for (unsigned b = 0; b < 8; ++b)
            bits.push_back(8 * byte + b);
    }
    return bits;
}

class EccEngineDifferentialTest : public ::testing::TestWithParam<EccScheme>
{
};

// Every single-chip kill and random bit flips (alone and on top of a
// dead chip) on random lines: the chip corruption must flip the bits
// the chip drives, and decodeLine must match the reference line
// decoder in its result, its blob bytes, and its per-scheme counters.
TEST_P(EccEngineDifferentialTest, DecodeLineMatchesReference)
{
    const EccScheme scheme = GetParam();
    const EccEngine engine(scheme);
    RefEngineStats ref_stats;
    Rng rng(4242 + static_cast<unsigned>(scheme));
    const std::size_t blob_bits =
        8 * (kCachelineBytes + engine.parityBytesPerLine());

    auto check = [&](std::vector<std::uint8_t> blob,
                     const std::string &what) {
        auto want = blob;
        const EccLineResult r = engine.decodeLine(blob);
        const EccLineResult ref = refDecodeLine(scheme, want, ref_stats);
        ASSERT_EQ(r.clean, ref.clean) << what;
        ASSERT_EQ(r.corrected, ref.corrected) << what;
        ASSERT_EQ(r.uncorrectable, ref.uncorrectable) << what;
        ASSERT_EQ(r.symbolsCorrected, ref.symbolsCorrected) << what;
        ASSERT_EQ(blob, want) << what;
    };

    for (unsigned line_no = 0; line_no < 48; ++line_no) {
        const auto pristine = engine.encodeLine(randomLine(rng));
        for (unsigned chip = 0; chip < engine.numChips(); ++chip) {
            const std::string what =
                eccSchemeName(scheme) + " line " +
                std::to_string(line_no) + " chip " + std::to_string(chip);
            auto killed = pristine;
            engine.corruptChip(killed, chip);
            auto want = pristine;
            for (std::size_t bit : refChipBits(scheme, chip))
                EccEngine::flipBit(want, bit);
            ASSERT_EQ(killed, want) << what;
            check(killed, what);

            // A partial fault draws bits of the same chip: same RNG
            // stream, same bits as drawing from the reference list.
            auto partial = pristine;
            auto partial_want = pristine;
            Rng draw(line_no * 64 + chip);
            Rng ref_draw(line_no * 64 + chip);
            engine.corruptChipBits(partial, chip, 3, draw);
            const auto bits = refChipBits(scheme, chip);
            for (unsigned i = 0; i < 3; ++i)
                EccEngine::flipBit(partial_want,
                                   bits[ref_draw.below(bits.size())]);
            ASSERT_EQ(partial, partial_want) << what;
            check(partial, what + " partial");

            // The dead chip plus one flip elsewhere in the line.
            EccEngine::flipBit(killed, rng.below(blob_bits));
            check(killed, what + " + flip");
        }
        for (unsigned trial = 0; trial < 32; ++trial) {
            auto flipped = pristine;
            const unsigned flips = 1 + trial % 4;
            for (unsigned f = 0; f < flips; ++f)
                EccEngine::flipBit(flipped, rng.below(blob_bits));
            check(flipped, eccSchemeName(scheme) + " flips " +
                               std::to_string(trial));
        }
    }

    EXPECT_EQ(engine.stats().linesDecoded.value(), ref_stats.linesDecoded);
    EXPECT_EQ(engine.stats().codewordsCorrected.value(),
              ref_stats.codewordsCorrected);
    EXPECT_EQ(engine.stats().codewordsDetected.value(),
              ref_stats.codewordsDetected);
    EXPECT_EQ(engine.stats().symbolsCorrected.value(),
              ref_stats.symbolsCorrected);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, EccEngineDifferentialTest,
    ::testing::Values(EccScheme::None, EccScheme::SecDed, EccScheme::Ssc,
                      EccScheme::SscDsd, EccScheme::Ssc32,
                      EccScheme::Bamboo72),
    [](const auto &info) {
        std::string name = eccSchemeName(info.param);
        std::erase(name, '-');
        return name;
    });

} // namespace
} // namespace sam
