#include "src/designs/design_model.hh"

#include "src/common/logging.hh"

namespace sam {

namespace {

/** High tag bit marking synthetic column-subarray rows. */
constexpr std::uint64_t kColRowTag = std::uint64_t{1} << 62;

/** Data lines covered by one embedded-ECC line (8 x 8B per 64B). */
constexpr unsigned kEccCoverage = 8;

} // namespace

DesignModel::DesignModel(const DesignSpec &spec,
                         const AddressMapping &mapping,
                         unsigned stride_unit)
    : spec_(spec), mapping_(mapping), strideUnit_(stride_unit)
{
    sam_assert(stride_unit > 0 && kCachelineBytes % stride_unit == 0,
               "bad stride unit ", stride_unit);
    if (spec_.embeddedEcc)
        recentEcc_.resize(mapping_.geometry().totalBanks());
}

unsigned
DesignModel::embeddedEccBursts(const MappedAddr &m, Addr line_addr,
                               bool is_write)
{
    if (!spec_.embeddedEcc)
        return 0;
    // The controller keeps a small per-bank cache of recently fetched
    // embedded-ECC lines (each covers 8 data lines); a miss costs one
    // extra burst, and writes cost an ECC write-back burst.
    const Addr ecc_line = line_addr / (kEccCoverage * kCachelineBytes);
    RecentEccLines &recent = recentEcc_[m.flatBank(mapping_.geometry())];
    // Find the line (a hit) or evict the oldest (a miss when full),
    // then move what follows down and make the line the newest.
    unsigned i = 0;
    while (i < recent.count && recent.lines[i] != ecc_line)
        ++i;
    const bool hit = i < recent.count;
    if (!hit && recent.count < kRecentEccLines)
        ++recent.count;
    else if (!hit)
        i = 0;
    for (; i + 1 < recent.count; ++i)
        recent.lines[i] = recent.lines[i + 1];
    recent.lines[recent.count - 1] = ecc_line;
    unsigned bursts = hit ? 0 : 1; // fetch the ECC line on a miss
    if (is_write)
        bursts += 1; // write the updated ECC back
    return bursts;
}

std::uint64_t
DesignModel::columnRowId(const MappedAddr &m, unsigned sector) const
{
    const Geometry &geom = mapping_.geometry();
    // The column-wise subarray buffers one field-chunk column of a
    // whole subarray: scanning down the subarray at a fixed chunk
    // column keeps hitting it; switching field (chunk column) or
    // crossing into the next subarray re-activates.
    const std::uint64_t subarray = m.row / geom.rowsPerSubarray();
    const std::uint64_t chunk_col =
        (static_cast<std::uint64_t>(m.column) * kCachelineBytes) /
            strideUnit_ + sector;
    return kColRowTag | (subarray << 24) | chunk_col;
}

MemRequest
DesignModel::lineRequest(AccessType type, Addr line_addr, Cycle arrival,
                         unsigned core_id)
{
    sam_assert(!isStride(type), "lineRequest given a stride type");
    sam_assert(line_addr % kCachelineBytes == 0, "unaligned line");

    MemRequest req;
    req.type = type;
    req.addr = line_addr;
    req.arrival = arrival;
    req.coreId = core_id;
    req.setLine(line_addr);
    req.device.addr = mapping_.decompose(line_addr);
    req.device.isWrite = isWrite(type);
    req.device.mode = AccessMode::Regular;
    req.device.extraBursts =
        embeddedEccBursts(req.device.addr, line_addr, isWrite(type));
    return req;
}

MemRequest
DesignModel::strideRequest(AccessType type, const Addr *lines,
                           std::size_t count, unsigned sector,
                           Cycle arrival, unsigned core_id)
{
    sam_assert(isStride(type), "strideRequest given a regular type");
    sam_assert(spec_.supportsStride,
               spec_.name(), " does not support stride accesses");
    sam_assert(count == gatherFactor(),
               "gather plan has ", count, " lines, expected ",
               gatherFactor());

    MemRequest req;
    req.type = type;
    req.addr = lines[0];
    req.sector = sector;
    req.strideUnit = strideUnit_;
    req.arrival = arrival;
    req.coreId = core_id;
    req.setLines(lines, count);
    req.device.isWrite = isWrite(type);

    MappedAddr m = mapping_.decompose(lines[0]);
    if (spec_.strideAcrossRows) {
        // SAM-sub / RC-NVM: the gather opens a column-wise subarray.
        // Synthesise its row id; the bank sees a distinct "row" per
        // (subarray, field column).
        req.device.columnActivate = true;
        m.row = columnRowId(m, sector);
    } else {
        // SAM-IO / SAM-en / GS-DRAM: all source lines live in one
        // physical row (sub-row alignment, Section 5.2).
        const MappedAddr last = mapping_.decompose(lines[count - 1]);
        sam_assert(last.sameRow(mapping_.decompose(lines[0])),
                   "sub-row gather crosses a DRAM row");
    }
    req.device.addr = m;
    // GS-DRAM's widened command interface avoids the mode register
    // round-trip; SAM pays tRTR on mode change (Section 5.3).
    req.device.mode = spec_.zeroModeSwitchCost ? AccessMode::Regular
                                               : AccessMode::Stride;
    // RC-NVM-bit's sub-field collection: the extra bit-column access
    // overlaps the burst transfer roughly half of the time, so charge
    // the collection burst on alternating gathers.
    unsigned collect = 0;
    if (spec_.strideCollectBursts > 0) {
        collectToggle_ = !collectToggle_;
        if (collectToggle_)
            collect = spec_.strideCollectBursts;
    }
    req.device.extraBursts = collect +
                             embeddedEccBursts(m, lines[0],
                                               isWrite(type));
    if (!isWrite(type))
        req.device.extraLatency = spec_.strideReadLatency;
    return req;
}

} // namespace sam
