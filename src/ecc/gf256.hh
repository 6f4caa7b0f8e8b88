/**
 * @file
 * Arithmetic over GF(2^8) with the AES-standard primitive polynomial
 * x^8 + x^4 + x^3 + x^2 + 1 (0x11d). Used by the Reed-Solomon chipkill
 * codecs.
 */

#ifndef SAM_ECC_GF256_HH
#define SAM_ECC_GF256_HH

#include <array>
#include <cstdint>

namespace sam {

namespace gf256_detail {

/** exp/log tables for generator alpha = 0x02 modulo 0x11d. */
struct Tables
{
    /** alpha^i, duplicated past 255 so mul() skips the mod-255. */
    std::array<std::uint8_t, 512> exp{};
    /** log_alpha(a); log[0] is never read (callers guard zero). */
    std::array<std::uint8_t, 256> log{};
};

constexpr Tables
buildTables()
{
    Tables t;
    unsigned x = 1;
    for (unsigned i = 0; i < 255; ++i) {
        t.exp[i] = static_cast<std::uint8_t>(x);
        t.log[x] = static_cast<std::uint8_t>(i);
        x <<= 1;
        if (x & 0x100)
            x ^= 0x11d;
    }
    for (unsigned i = 255; i < 512; ++i)
        t.exp[i] = t.exp[i - 255];
    return t;
}

/** Built at compile time: no initialization guard on the hot path. */
inline constexpr Tables kTables = buildTables();

} // namespace gf256_detail

/**
 * GF(2^8) arithmetic via compile-time log/antilog tables. All
 * operations are total: division by zero panics.
 */
class GF256
{
  public:
    using Elem = std::uint8_t;

    static Elem add(Elem a, Elem b) { return a ^ b; }
    static Elem sub(Elem a, Elem b) { return a ^ b; }

    static Elem mul(Elem a, Elem b)
    {
        if (a == 0 || b == 0)
            return 0;
        const auto &t = gf256_detail::kTables;
        return t.exp[t.log[a] + t.log[b]];
    }

    static Elem div(Elem a, Elem b);

    /** Multiplicative inverse; panics on zero. */
    static Elem inv(Elem a);

    /** a^n for n >= 0 (0^0 == 1 by convention). */
    static Elem pow(Elem a, unsigned n);

    /** The primitive element alpha = 0x02 raised to the power n. */
    static Elem alphaPow(unsigned n)
    {
        return gf256_detail::kTables.exp[n % 255];
    }

    /** Discrete log base alpha; panics on zero. */
    static unsigned log(Elem a);
};

} // namespace sam

#endif // SAM_ECC_GF256_HH
