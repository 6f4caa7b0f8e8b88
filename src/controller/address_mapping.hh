/**
 * @file
 * Physical address decomposition (Table 2: rw:rk:bk:ch:cl:offset) and
 * the stride-mode virtual-to-physical remap of Figure 10.
 */

#ifndef SAM_CONTROLLER_ADDRESS_MAPPING_HH
#define SAM_CONTROLLER_ADDRESS_MAPPING_HH

#include "src/common/gather.hh"
#include "src/common/types.hh"
#include "src/dram/address.hh"
#include "src/dram/timing.hh"

namespace sam {

/**
 * Bit-sliced address mapping. From MSB to LSB: row, rank, bank group,
 * bank, channel, column (line within row), byte offset. Putting column
 * bits lowest maximises row-buffer hits for sequential scans, matching
 * the open-page policy of Table 2.

 */
class AddressMapping
{
  public:
    explicit AddressMapping(const Geometry &geom);

    /** Decompose a flat physical byte address (line-aligned or not). */
    MappedAddr decompose(Addr addr) const;

    /** Inverse of decompose for a line-aligned address. */
    Addr compose(const MappedAddr &mapped) const;

    unsigned offsetBits() const { return offsetBits_; }
    unsigned columnBits() const { return columnBits_; }
    unsigned channelBits() const { return channelBits_; }
    unsigned bankBits() const { return bankBits_; }
    unsigned groupBits() const { return groupBits_; }
    unsigned rankBits() const { return rankBits_; }

    /** Width of the combined bank selector (bank+group+rank). */
    unsigned bankSelBits() const
    {
        return bankBits_ + groupBits_ + rankBits_;
    }

    const Geometry &geometry() const { return geom_; }

    /**
     * Figure 10 stride-mode remap: swap the low `swap_bits` of the
     * page-offset column field with the bits that select consecutive
     * lines, so that a contiguous virtual range walks chunk-wise across
     * the gather group. `swap_bits` = log2(G): 3 for 4-bit granularity,
     * 2 for 8-bit.
     *
     * Concretely: vaddr bits [u, u + swap) (line-within-group) exchange
     * with bits [u + swap, u + 2*swap) where u = log2(strideUnit)...
     * The returned address is the physical location the strided datum
     * occupies.
     */
    Addr strideRemap(Addr vaddr, unsigned gather, unsigned unit) const;

    /** Inverse of strideRemap (the swap is an involution). */
    Addr
    strideUnmap(Addr paddr, unsigned gather, unsigned unit) const
    {
        return strideRemap(paddr, gather, unit);
    }

    /**
     * The gather plan an sload at stride-space address `vaddr`
     * (64B-aligned) performs: the Figure 10 remap of each chunk of the
     * virtual line yields one chunk slot of each of G consecutive
     * physical lines. This is the hardware's view; the IMDB layer
     * computes the same plans from its layout knowledge
     * (Table::gatherPlan).
     */
    GatherPlan strideGather(Addr vaddr, unsigned gather,
                            unsigned unit) const;

  private:
    Geometry geom_;
    unsigned offsetBits_;
    unsigned columnBits_;
    unsigned channelBits_;
    unsigned bankBits_;
    unsigned groupBits_;
    unsigned rankBits_;
};

} // namespace sam

#endif // SAM_CONTROLLER_ADDRESS_MAPPING_HH
