/**
 * @file
 * Runtime request expansion for one design: translates logical line /
 * stride accesses into device-level requests with the design's timing
 * behaviour (same-row sub-row gathers vs column-wise subarray activates,
 * mode switches, RC-NVM-bit sub-field collection bursts, GS-DRAM-ecc
 * embedded-ECC bursts).
 */

#ifndef SAM_DESIGNS_DESIGN_MODEL_HH
#define SAM_DESIGNS_DESIGN_MODEL_HH

#include <array>
#include <cstdint>
#include <vector>

#include "src/common/gather.hh"
#include "src/controller/address_mapping.hh"
#include "src/controller/request.hh"
#include "src/designs/design.hh"

namespace sam {

class DesignModel
{
  public:
    DesignModel(const DesignSpec &spec, const AddressMapping &mapping,
                unsigned stride_unit);

    const DesignSpec &spec() const { return spec_; }
    unsigned strideUnit() const { return strideUnit_; }
    unsigned gatherFactor() const
    {
        return kCachelineBytes / strideUnit_;
    }

    /** Build a regular line-granular request. */
    MemRequest lineRequest(AccessType type, Addr line_addr,
                           Cycle arrival, unsigned core_id);

    /**
     * Build a stride request over a borrowed span of source-line
     * addresses (e.g. a trace-arena view). Requires
     * spec().supportsStride and count == gatherFactor().
     */
    MemRequest strideRequest(AccessType type, const Addr *lines,
                             std::size_t count, unsigned sector,
                             Cycle arrival, unsigned core_id);

    /**
     * Build a stride request from a gather plan. Requires
     * spec().supportsStride.
     */
    MemRequest strideRequest(AccessType type, const GatherPlan &plan,
                             Cycle arrival, unsigned core_id)
    {
        return strideRequest(type, plan.lines.data(), plan.lines.size(),
                             plan.sector, arrival, core_id);
    }

    /** Reset per-run controller-side state (ECC-line tracker). */
    void
    reset()
    {
        for (RecentEccLines &recent : recentEcc_)
            recent.count = 0;
        collectToggle_ = false;
    }

  private:
    /** ECC lines the controller holds per bank (GS-DRAM-ecc). */
    static constexpr unsigned kRecentEccLines = 4;

    /** One bank's recently fetched ECC lines, oldest first. */
    struct RecentEccLines
    {
        std::array<Addr, kRecentEccLines> lines{};
        unsigned count = 0;
    };

    /**
     * Extra bursts for GS-DRAM-ecc's embedded in-page ECC: one ECC-line
     * fetch whenever the access misses the bank's kRecentEccLines most
     * recently used ECC lines, plus an ECC update burst on writes.
     */
    unsigned embeddedEccBursts(const MappedAddr &m, Addr line_addr,
                               bool is_write);

    /**
     * Synthetic row id for a column-wise subarray opening (SAM-sub /
     * RC-NVM): all gathers of the same field column within the same
     * subarray share one "column row" and hit its buffer.
     */
    std::uint64_t columnRowId(const MappedAddr &m, unsigned sector) const;

    DesignSpec spec_;
    const AddressMapping &mapping_;
    unsigned strideUnit_;
    /** Per flat bank; empty unless the design embeds its ECC. */
    std::vector<RecentEccLines> recentEcc_;
    bool collectToggle_ = false;
};

} // namespace sam

#endif // SAM_DESIGNS_DESIGN_MODEL_HH
