/**
 * @file
 * Functional model of the common-die I/O path of one x4 DRAM chip
 * (Figures 3, 7, 8, 9): four 32-bit I/O buffers, each split into four
 * 8-bit lanes, 16 drivers, and the 7-bit mode register that SAM-IO adds.
 *
 * In regular x4 mode one buffer feeds four DQs; x8/x16 enable two/four
 * buffers. SAM's stride modes Sx4_n load all four buffers (each with a
 * different cacheline's slice) and select lane n of every buffer, so one
 * burst returns strided data gathered from four lines. SAM-en adds a
 * second, column-wise set of serializers (the 2-D buffer of Figure 8)
 * preserving the default data layout and critical-word-first.
 */

#ifndef SAM_DRAM_IO_BUFFER_HH
#define SAM_DRAM_IO_BUFFER_HH

#include <array>
#include <cstdint>
#include <vector>

#include "src/common/types.hh"

namespace sam {

/** I/O configuration selected by the mode register (Figure 7 table). */
enum class IoMode {
    X4,     ///< Regular narrow mode: buffer 0, drivers [0:3].
    X8,     ///< Buffers 0-1, drivers [0:7].
    X16,    ///< All buffers, drivers [0:15].
    Sx4,    ///< Stride mode Sx4_n: lane n of all four buffers.
};

/**
 * One chip's I/O stage. Data flows: GIO gating loads 32-bit buffers from
 * the array; the serializer drains the selected lanes onto the DQs over
 * an 8-beat burst.
 */
class ChipIoPath
{
  public:
    static constexpr unsigned kNumBuffers = 4;
    static constexpr unsigned kLanesPerBuffer = 4;
    static constexpr unsigned kNumDrivers = 16;

    ChipIoPath() { reset(); }

    /** Clear all buffers (power-up state). */
    void reset();

    /**
     * Set the I/O mode. `lane` selects n for Sx4_n and is ignored
     * otherwise.
     */
    void setMode(IoMode mode, unsigned lane = 0);

    IoMode mode() const { return mode_; }

    /**
     * Load buffer `buf` with a 32-bit array fetch (the chip's 4B slice
     * of one cacheline). Regular x4 operation loads only buffer 0;
     * stride modes load all four.
     */
    void loadBuffer(unsigned buf, std::uint32_t data);

    /** Raw buffer contents (lane l = bits [8l, 8l+8)). */
    std::uint32_t buffer(unsigned buf) const;

    /**
     * Drivers enabled under the current mode, per the Figure 7 table:
     * X4 -> [0:3], X8 -> [0:7], X16 -> [0:15], Sx4_n -> {n, n+4, n+8,
     * n+12}.
     */
    std::vector<unsigned> enabledDrivers() const;

    /**
     * The 8-bit payload each active DQ transmits during one burst, in
     * DQ order. x4-width modes return 4 lanes; X8 returns 8; X16 all 16.
     *
     * In Sx4_n mode, DQ d carries lane n of buffer d: the strided
     * gather.
     */
    std::vector<std::uint8_t> burstPayload() const;

    /**
     * SAM-en's column-wise (yz-plane) read of the 2-D I/O buffer
     * (Figure 8(d)): returns the four bytes at column position `col`
     * across the four buffers in buffer order, i.e.\ the same strided
     * payload but stored in the default layout so critical-word-first
     * order is preserved.
     */
    std::vector<std::uint8_t> columnWisePayload(unsigned col) const;

    /**
     * Finer 4-bit granularity via the interleaved MUX (Figure 9(b)):
     * two 4-bit symbols from two same-ID lanes are steered to one
     * driver, so four symbols leave through two DQs. Returns the two
     * 8-bit DQ payloads for stride nibble `nibble` (0 or 1) of lane
     * pair `lane_pair` (0: lanes {0,1}, 1: lanes {2,3}).
     */
    std::array<std::uint8_t, 2> interleavedNibblePayload(
        unsigned lane_pair, unsigned nibble) const;

    /**
     * Serialize one beat of the burst in the current mode: bit `beat`
     * of each active lane, LSB-first, packed into the low bits of the
     * result (DQ0 = bit 0).
     */
    std::uint16_t beatBits(unsigned beat) const;

  private:
    std::uint8_t lane(unsigned buf, unsigned l) const;

    IoMode mode_ = IoMode::X4;
    unsigned lane_ = 0;
    std::array<std::uint32_t, kNumBuffers> buffers_;
};

/**
 * Rank-level stride gather/scatter semantics. A stride-mode burst
 * returns one 64B line assembled from `G` chunks: chunk i is bytes
 * [sector*unit, (sector+1)*unit) of source line i. This is the rank-wide
 * effect of every chip selecting the same lane (SAM-IO) or column
 * (SAM-en).
 */
class StrideGather
{
  public:
    /**
     * @param lines    The G decoded 64B source lines, in gather order.
     * @param sector   Which chunk-aligned slice of each line to take.
     * @param unit     Chunk size in bytes (strideUnitBytes of scheme).
     */
    static std::vector<std::uint8_t> gather(
        const std::vector<std::vector<std::uint8_t>> &lines,
        unsigned sector, unsigned unit);

    /**
     * Inverse of gather: split a 64B strided line into its G chunks and
     * overwrite slice `sector` of each source line in place.
     */
    static void scatter(const std::vector<std::uint8_t> &stride_line,
                        std::vector<std::vector<std::uint8_t>> &lines,
                        unsigned sector, unsigned unit);
};

} // namespace sam

#endif // SAM_DRAM_IO_BUFFER_HH
