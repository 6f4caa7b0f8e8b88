#include "src/ecc/reed_solomon.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "src/common/logging.hh"

namespace sam {

ReedSolomon::ReedSolomon(unsigned n, unsigned k)
    : n_(n), k_(k)
{
    sam_assert(n > k && n <= 255, "invalid RS(n,k): n=", n, " k=", k);
    sam_assert((n - k) % 2 == 0, "RS check symbol count must be even");
    sam_assert(n - k <= kMaxCheckSymbols, "RS(", n, ",", k, "): ", n - k,
               " check symbols exceed the decoder's fixed scratch");

    // g(x) = prod_{i=0}^{2t-1} (x + alpha^i), low-order coefficient first.
    const unsigned two_t = n - k;
    generator_.assign(1, 1);
    for (unsigned i = 0; i < two_t; ++i) {
        std::vector<std::uint8_t> next(generator_.size() + 1, 0);
        const GF256::Elem root = GF256::alphaPow(i);
        for (std::size_t j = 0; j < generator_.size(); ++j) {
            next[j + 1] ^= generator_[j];                 // x * g
            next[j] ^= GF256::mul(generator_[j], root);   // root * g
        }
        generator_ = std::move(next);
    }
    sam_assert(generator_.size() == two_t + 1 && generator_[two_t] == 1,
               "generator polynomial must be monic of degree 2t");

    // Sliced syndrome table: all 2t syndromes of every memory-ECC
    // geometry (2t <= 8) pack into one 64-bit word, so the decode hot
    // path computes S(x) with one table XOR per nonzero symbol. Wider
    // codes (e.g. RS(255,223)) fall back to the generic Horner loop.
    if (two_t <= 8) {
        syndTable_.assign(std::size_t{n_} * 256, 0);
        for (unsigned j = 0; j < n_; ++j) {
            for (unsigned v = 1; v < 256; ++v) {
                std::uint64_t packed = 0;
                for (unsigned i = 0; i < two_t; ++i) {
                    // Position j carries the coefficient of x^{n-1-j},
                    // so its contribution to S_i = c(alpha^i) is
                    // v * alpha^{i * (n-1-j)}.
                    const GF256::Elem contrib = GF256::mul(
                        static_cast<GF256::Elem>(v),
                        GF256::alphaPow((i * (n_ - 1 - j)) % 255));
                    packed |= std::uint64_t{contrib} << (8 * i);
                }
                syndTable_[std::size_t{j} * 256 + v] = packed;
            }
        }
        // Sliced encoder tables, same packing: the LFSR remainder fits
        // one 64-bit word (byte b = rem[b], highest degree at byte 0).
        // Slice 0 turns absorbing one data symbol into shift + one
        // table XOR instead of 2t GF multiplies; slice s follows it
        // with s zero symbols.
        encTable_.assign(std::size_t{kEncodeSlices} * 256, 0);
        for (unsigned v = 1; v < 256; ++v) {
            std::uint64_t packed = 0;
            for (unsigned i = 0; i < two_t; ++i) {
                const GF256::Elem contrib =
                    GF256::mul(static_cast<GF256::Elem>(v),
                               generator_[i]);
                packed |= std::uint64_t{contrib}
                          << (8 * (two_t - 1 - i));
            }
            encTable_[v] = packed;
        }
        for (unsigned slice = 1; slice < kEncodeSlices; ++slice) {
            for (unsigned v = 1; v < 256; ++v) {
                const std::uint64_t prev =
                    encTable_[(slice - 1) * 256 + v];
                encTable_[slice * 256 + v] =
                    (prev >> 8) ^ encTable_[prev & 0xff];
            }
        }
    }
}

namespace {

/** Little-endian load of 8 bytes: p[i] lands at bits 8i. */
std::uint64_t
loadLe64(const std::uint8_t *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, sizeof v);
    if constexpr (std::endian::native == std::endian::big)
        v = __builtin_bswap64(v);
    return v;
}

} // namespace

void
ReedSolomon::encodeParity(const std::uint8_t *data,
                          std::uint8_t *parity) const
{
    const unsigned two_t = n_ - k_;
    if (!encTable_.empty()) {
        // Packed LFSR: byte b of `rem` is remainder coefficient
        // rem[b] with the highest degree at byte 0. Eight symbols at
        // a time: symbol i meets remainder byte i (2t <= 8, so every
        // remainder byte is consumed) and is then followed by 7 - i
        // more symbols, which slice 7 - i accounts for.
        static_assert(kEncodeSlices == 8,
                      "the unrolled step below absorbs 8 symbols");
        const std::uint64_t *t = encTable_.data();
        std::uint64_t rem = 0;
        unsigned j = 0;
        for (; j + kEncodeSlices <= k_; j += kEncodeSlices) {
            const std::uint64_t x = rem ^ loadLe64(data + j);
            rem = t[7 * 256 + (x & 0xff)] ^
                  t[6 * 256 + ((x >> 8) & 0xff)] ^
                  t[5 * 256 + ((x >> 16) & 0xff)] ^
                  t[4 * 256 + ((x >> 24) & 0xff)] ^
                  t[3 * 256 + ((x >> 32) & 0xff)] ^
                  t[2 * 256 + ((x >> 40) & 0xff)] ^
                  t[1 * 256 + ((x >> 48) & 0xff)] ^
                  t[x >> 56];
        }
        for (; j < k_; ++j) {
            const std::uint8_t coef =
                data[j] ^ static_cast<std::uint8_t>(rem);
            rem = (rem >> 8) ^ t[coef];
        }
        for (unsigned b = 0; b < two_t; ++b)
            parity[b] = static_cast<std::uint8_t>(rem >> (8 * b));
        return;
    }
    // Synthetic division of m(x) * x^{2t} by g(x); rem is kept
    // highest-degree-first so it lands in `parity` directly.
    std::uint8_t rem[kMaxCheckSymbols] = {0};
    for (unsigned j = 0; j < k_; ++j) {
        const std::uint8_t coef = data[j] ^ rem[0];
        std::memmove(rem, rem + 1, two_t - 1);
        rem[two_t - 1] = 0;
        if (coef != 0) {
            for (unsigned i = 0; i < two_t; ++i)
                rem[two_t - 1 - i] ^= GF256::mul(coef, generator_[i]);
        }
    }
    std::memcpy(parity, rem, two_t);
}

std::vector<std::uint8_t>
ReedSolomon::encode(const std::vector<std::uint8_t> &data) const
{
    sam_assert(data.size() == k_, "RS encode: expected ", k_,
               " data symbols, got ", data.size());

    std::vector<std::uint8_t> codeword(n_);
    std::copy(data.begin(), data.end(), codeword.begin());
    encodeParity(codeword.data(), codeword.data() + k_);
    return codeword;
}

namespace {

/** Evaluate `poly` (len coefficients, low-order first) at x, by Horner. */
GF256::Elem
evalPoly(const std::uint8_t *poly, unsigned len, GF256::Elem x)
{
    GF256::Elem acc = 0;
    for (unsigned i = len; i-- > 0;)
        acc = GF256::add(GF256::mul(acc, x), poly[i]);
    return acc;
}

} // namespace

bool
ReedSolomon::syndromes(const std::uint8_t *cw, std::uint8_t *synd) const
{
    const unsigned two_t = n_ - k_;
    if (!syndTable_.empty()) {
        // One 64-bit XOR per nonzero symbol via the sliced table.
        std::uint64_t packed = 0;
        for (unsigned j = 0; j < n_; ++j) {
            if (cw[j] != 0)
                packed ^= syndTable_[std::size_t{j} * 256 + cw[j]];
        }
        for (unsigned i = 0; i < two_t; ++i)
            synd[i] = static_cast<std::uint8_t>(packed >> (8 * i));
        return packed != 0;
    }
    // Horner for all 2t syndromes at once, symbol by symbol: the 2t
    // accumulators are independent, so their multiplies overlap.
    std::memset(synd, 0, two_t);
    for (unsigned j = 0; j < n_; ++j) {
        for (unsigned i = 0; i < two_t; ++i)
            synd[i] = GF256::add(GF256::mul(synd[i], GF256::alphaPow(i)),
                                 cw[j]);
    }
    bool any = false;
    for (unsigned i = 0; i < two_t; ++i)
        any = any || synd[i] != 0;
    return any;
}

DecodeResult
ReedSolomon::decode(std::span<std::uint8_t> codeword,
                    unsigned max_correct) const
{
    sam_assert(codeword.size() == n_, "RS decode: expected ", n_,
               " symbols, got ", codeword.size());

    std::uint8_t *cw = codeword.data();
    std::uint8_t synd[kMaxCheckSymbols];
    DecodeResult result;
    if (!syndromes(cw, synd))
        return result;

    result.status = DecodeStatus::Detected;
    const unsigned limit = std::min(max_correct, t());
    if (limit == 0)
        return result;

    // One symbol error e at position j has S_i = e * X^i with locator
    // X = alpha^{n-1-j}: S_0 is the magnitude and every syndrome is X
    // times the one before. That is exactly the length-1 LFSR that
    // Berlekamp-Massey, Chien and Forney would find, so its answer
    // follows in closed form, and the corrected word has all-zero
    // syndromes by construction. Every single-chip failure under SSC,
    // SSC-DSD and SSC-32 takes this path.
    const unsigned two_t = n_ - k_;
    if (synd[0] != 0 && synd[1] != 0) {
        const GF256::Elem x = GF256::div(synd[1], synd[0]);
        unsigned i = 2;
        while (i < two_t && synd[i] == GF256::mul(x, synd[i - 1]))
            ++i;
        if (i == two_t) {
            const unsigned log_x = GF256::log(x);
            if (log_x >= n_)
                return result; // locator outside the shortened code
            const unsigned j = n_ - 1 - log_x;
            cw[j] ^= synd[0];
            result.status = DecodeStatus::Corrected;
            result.numCorrected = 1;
            result.positions[0] = static_cast<std::uint8_t>(j);
            return result;
        }
    }
    // Any other nonzero syndrome needs a locator of degree >= 2 (or
    // has no valid root), which a limit of one never corrects.
    if (limit < 2)
        return result;
    return correctMany(cw, synd, limit);
}

DecodeResult
ReedSolomon::correctMany(std::uint8_t *cw, const std::uint8_t *synd,
                         unsigned limit) const
{
    const unsigned two_t = n_ - k_;
    DecodeResult result;
    result.status = DecodeStatus::Detected;

    // Berlekamp-Massey: the error locator Lambda(x), low order first.
    // Every polynomial it builds has degree <= its LFSR length
    // `errors` <= 2t, so 2t + 1 zero-padded coefficients hold it.
    std::uint8_t lambda[kMaxCheckSymbols + 1] = {1};
    std::uint8_t prev[kMaxCheckSymbols + 1] = {1};
    std::uint8_t saved[kMaxCheckSymbols + 1];
    unsigned errors = 0;  // current LFSR length L
    unsigned shift = 1;   // m: gap since last length change
    GF256::Elem prev_delta = 1;
    for (unsigned iter = 0; iter < two_t; ++iter) {
        GF256::Elem delta = synd[iter];
        for (unsigned i = 1; i <= errors; ++i)
            delta ^= GF256::mul(lambda[i], synd[iter - i]);
        if (delta == 0) {
            ++shift;
            continue;
        }
        // lambda -= (delta/prev_delta) * x^shift * prev
        const bool lengthen = 2 * errors <= iter;
        if (lengthen)
            std::memcpy(saved, lambda, two_t + 1);
        const GF256::Elem scale = GF256::div(delta, prev_delta);
        for (unsigned i = 0; i + shift <= two_t; ++i)
            lambda[i + shift] ^= GF256::mul(scale, prev[i]);
        if (lengthen) {
            std::memcpy(prev, saved, two_t + 1);
            prev_delta = delta;
            errors = iter + 1 - errors;
            shift = 1;
        } else {
            ++shift;
        }
    }
    if (errors > limit)
        return result;

    // Chien search: position j is a root when Lambda(Y_j) == 0 with
    // Y_j = alpha^{-(n-1-j)}. In the log domain, a nonzero lambda[i]
    // contributes alpha^{lt[i]}, and lt[i] steps by i per position.
    // lambda[0] is 1. A degree-L locator has at most L roots, and
    // L <= t, so `positions` holds them all.
    unsigned lt[DecodeResult::kMaxCorrect];
    unsigned step[DecodeResult::kMaxCorrect];
    unsigned terms = 0;
    const unsigned log_y0 = (255 - (n_ - 1) % 255) % 255;
    for (unsigned i = 1; i <= errors; ++i) {
        if (lambda[i] != 0) {
            lt[terms] = (GF256::log(lambda[i]) + log_y0 * i) % 255;
            step[terms++] = i;
        }
    }
    unsigned roots = 0;
    for (unsigned j = 0; j < n_; ++j) {
        GF256::Elem sum = 1;
        for (unsigned i = 0; i < terms; ++i) {
            sum ^= GF256::alphaPow(lt[i]);
            lt[i] += step[i];
            if (lt[i] >= 255)
                lt[i] -= 255;
        }
        if (sum == 0)
            result.positions[roots++] = static_cast<std::uint8_t>(j);
    }
    if (roots != errors)
        return result; // locator degree and root count disagree

    // Forney (first root b = 0): e = X * Omega(X^-1) / Lambda'(X^-1),
    // with Omega(x) = S(x) * Lambda(x) mod x^{2t} and Lambda' keeping
    // the odd-power terms (characteristic 2).
    std::uint8_t omega[kMaxCheckSymbols];
    for (unsigned i = 0; i < two_t; ++i) {
        omega[i] = 0;
        for (unsigned j = 0; j <= i && j <= errors; ++j)
            omega[i] ^= GF256::mul(synd[i - j], lambda[j]);
    }
    std::uint8_t magnitude[DecodeResult::kMaxCorrect];
    for (unsigned r = 0; r < roots; ++r) {
        const unsigned log_x = n_ - 1 - result.positions[r];
        const GF256::Elem y = GF256::alphaPow(255 - log_x);
        const GF256::Elem y2 = GF256::mul(y, y);
        GF256::Elem denom = 0;
        GF256::Elem y_pow = 1; // y^{i-1} for odd i
        for (unsigned i = 1; i <= errors; i += 2) {
            denom ^= GF256::mul(lambda[i], y_pow);
            y_pow = GF256::mul(y_pow, y2);
        }
        if (denom == 0)
            return result;
        magnitude[r] =
            GF256::mul(GF256::alphaPow(log_x),
                       GF256::div(evalPoly(omega, two_t, y), denom));
    }

    // Apply, then re-verify: the corrected word must have all-zero
    // syndromes, or the word is restored and reported Detected.
    for (unsigned r = 0; r < roots; ++r)
        cw[result.positions[r]] ^= magnitude[r];
    std::uint8_t check[kMaxCheckSymbols];
    if (syndromes(cw, check)) {
        for (unsigned r = 0; r < roots; ++r)
            cw[result.positions[r]] ^= magnitude[r];
        return result;
    }
    result.status = DecodeStatus::Corrected;
    result.numCorrected = roots;
    return result;
}

} // namespace sam
