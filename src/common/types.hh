/**
 * @file
 * Fundamental scalar types and enums shared across the SAM simulator.
 */

#ifndef SAM_COMMON_TYPES_HH
#define SAM_COMMON_TYPES_HH

#include <cstdint>
#include <string>

namespace sam {

/** A simulation time expressed in memory-bus clock cycles. */
using Cycle = std::uint64_t;

/** A physical byte address in the simulated memory space. */
using Addr = std::uint64_t;

/** An invalid/unset cycle sentinel. */
inline constexpr Cycle kInvalidCycle = ~Cycle{0};

/** An invalid/unset address sentinel. */
inline constexpr Addr kInvalidAddr = ~Addr{0};

/** Size of one cacheline / one full memory burst of data (bytes). */
inline constexpr unsigned kCachelineBytes = 64;

/** Number of beats in one DDR burst (BL8). */
inline constexpr unsigned kBurstLength = 8;

/** `count` consecutive 64B lines, starting `first` lines past a base. */
struct LineRun
{
    std::uint64_t first = 0;
    std::uint64_t count = 0;
};

/**
 * The memory designs evaluated in the paper (Section 6, Figure 12).
 *
 * Baseline is a commodity chipkill DRAM with a row-store database layout.
 * Ideal picks whichever of row-store / column-store the query prefers on
 * the same commodity DRAM.
 */
enum class DesignKind {
    Baseline,     ///< Commodity DRAM, row-store layout.
    RcNvmBit,     ///< RC-NVM with bit-level crossbar symmetry (RRAM).
    RcNvmWord,    ///< RC-NVM with reshaped 2D subarray (RRAM).
    GsDram,       ///< Gather-Scatter DRAM, no ECC.
    GsDramEcc,    ///< GS-DRAM enhanced with embedded ECC.
    SamSub,       ///< SAM with column-wise subarrays.
    SamIo,        ///< SAM exploiting common-die I/O buffers.
    SamEn,        ///< SAM-IO + fine-grained activation + 2D I/O buffer.
    Ideal,        ///< Row- or column-store, whichever the query prefers.
};

/** Human-readable design name, matching the paper's figures. */
std::string designName(DesignKind kind);

/** Memory technology of the storage array. */
enum class MemTech {
    DRAM,   ///< DDR4-2400 timing/power.
    RRAM,   ///< Crossbar resistive RAM timing/power (RC-NVM substrate).
};

std::string memTechName(MemTech tech);

/**
 * Chipkill ECC flavour configured on the rank (Section 2.3).
 *
 * The strided granularity of SAM follows the ECC symbol size: SSC uses
 * 8-bit symbols (16B strided unit), SSC-DSD uses 4-bit symbols (8B strided
 * unit). SSC32 models the 16-bit-granularity point of Figure 14(b).
 */
enum class EccScheme {
    None,       ///< No ECC (plain GS-DRAM operating point).
    SecDed,     ///< (72,64) Hamming, desktop-class.
    Ssc,        ///< Single-symbol-correct chipkill, 8-bit symbols.
    SscDsd,     ///< SSC + double-symbol-detect, 4-bit symbols.
    Ssc32,      ///< Coarse 16-bit-symbol variant (Figure 14(b) leftmost).
    Bamboo72,   ///< Large-codeword variant the paper cites ([26]): one
                ///< RS(72,64) codeword over the whole 512b line, 8-bit
                ///< symbols, 4 per chip -- corrects a whole chip with
                ///< margin, at higher decode complexity.
};

std::string eccSchemeName(EccScheme scheme);

/**
 * Strided granularity in bits contributed per data chip per codeword
 * (Section 4.4). Determines the strided unit: unit = granularity * 2
 * bytes for a 16-data-chip rank.
 */
unsigned strideGranularityBits(EccScheme scheme);

/** Bytes of one strided chunk (the per-codeword data payload). */
unsigned strideUnitBytes(EccScheme scheme);

/**
 * Gather factor G: how many strided chunks one 64B stride-mode transfer
 * returns (G = 64 / strideUnitBytes).
 */
unsigned gatherFactor(EccScheme scheme);

} // namespace sam

#endif // SAM_COMMON_TYPES_HH
