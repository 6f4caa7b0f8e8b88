#include "src/imdb/table.hh"

#include <algorithm>
#include <cmath>

#include "src/common/bitops.hh"
#include "src/common/logging.hh"

namespace sam {

std::uint64_t
fieldValue(std::uint64_t record, unsigned field)
{
    // SplitMix64 scramble of (record, field); reduced to [0, 1000) so
    // `value < t` predicates give exact expected selectivity t/1000.
    std::uint64_t z = record * 0x9e3779b97f4a7c15ULL +
                      (static_cast<std::uint64_t>(field) << 32) +
                      0x632be59bd9b4e019ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z = z ^ (z >> 31);
    return z % 1000;
}

std::uint64_t
selectivityThreshold(double sel)
{
    sam_assert(sel >= 0.0 && sel <= 1.0, "selectivity out of range");
    return static_cast<std::uint64_t>(std::lround(sel * 1000.0));
}

bool
passesPredicate(std::uint64_t record, unsigned field,
                std::uint64_t threshold)
{
    return fieldValue(record, field) < threshold;
}

Table::Table(TableSchema schema, Addr base, LayoutKind layout,
             unsigned gather, const Geometry &geom)
    : schema_(std::move(schema)), base_(base), layout_(layout),
      gather_(gather), rowBytes_(geom.rowBytes)
{
    // DRAM-coordinate slicing for the VerticalGroup layout: bank bits
    // sit directly above the column bits, row bits above the banks
    // (Table 2 mapping rw:rk:bk:ch:cl).
    vgBankShift_ = floorLog2(rowBytes_);
    vgBanks_ = geom.channels * geom.ranks * geom.banksPerRank();
    vgRowShift_ = vgBankShift_ + floorLog2(vgBanks_);
    vgSpan_ = geom.rowsPerSubarray();
    sam_assert(vgSpan_ % gather_ == 0,
               "subarray height must be a gather multiple");
    sam_assert(base_ % (std::uint64_t{vgBanks_} << vgBankShift_) == 0,
               "table base must be bank-span aligned");
    sam_assert(gather_ > 0 && isPowerOf2(gather_), "bad gather factor");
    sam_assert(schema_.numRecords % gather_ == 0,
               "record count must be a multiple of the gather factor");
    sam_assert(isPowerOf2(schema_.recordBytes()),
               "record size must be a power of two");
    sam_assert(schema_.recordBytes() <= rowBytes_,
               "records larger than a DRAM row are unsupported");
    if (layout_ == LayoutKind::SamAligned ||
        layout_ == LayoutKind::GsSegmented) {
        sam_assert(static_cast<std::uint64_t>(gather_) *
                           schema_.recordBytes() <= rowBytes_ ||
                       schema_.recordBytes() < kCachelineBytes,
                   "gather group exceeds a DRAM row");
    }
}

std::uint64_t
Table::colSpan() const
{
    // An odd number of rows per column makes consecutive columns walk
    // all bank ids before repeating, so concurrent per-field scan
    // streams do not collide in a bank persistently.
    std::uint64_t rows = divCeil(schema_.numRecords *
                                     TableSchema::kFieldBytes,
                                 rowBytes_);
    if (rows % 2 == 0)
        ++rows;
    return rows * rowBytes_;
}

std::uint64_t
Table::morselGroups() const
{
    switch (layout_) {
      case LayoutKind::ColumnStore:
        // One morsel = one DRAM row of a field column.
        return rowBytes_ / (static_cast<std::uint64_t>(gather_) *
                            TableSchema::kFieldBytes);
      case LayoutKind::VerticalGroup:
        // One morsel = one vertical run (one bank's worth of rows).
        return vgSpan_ / gather_;
      default:
        // One morsel = the groups sharing one DRAM row.
        return std::max<std::uint64_t>(
            1, rowBytes_ / (static_cast<std::uint64_t>(gather_) *
                            schema_.recordBytes()));
    }
}

bool
Table::strideUsable() const
{
    switch (layout_) {
      case LayoutKind::SamAligned:
      case LayoutKind::GsSegmented:
        return schema_.recordBytes() >= kCachelineBytes;
      case LayoutKind::VerticalGroup:
        return true;
      case LayoutKind::RowStore:
      case LayoutKind::ColumnStore:
        return false;
    }
    panic("unknown LayoutKind");
}

Addr
Table::fieldAddr(std::uint64_t record, unsigned field) const
{
    sam_assert(record < schema_.numRecords, "record out of range");
    sam_assert(field < schema_.numFields, "field out of range");
    const unsigned rec_bytes = schema_.recordBytes();
    const unsigned byte_in_rec = field * TableSchema::kFieldBytes;

    switch (layout_) {
      case LayoutKind::RowStore:
      case LayoutKind::SamAligned:
        // SAM alignment is plain row-store with group/row alignment
        // guaranteed by the constructor checks: record groups nest in
        // sub-rows of one DRAM row (Figure 11(a)).
        return base_ + record * rec_bytes + byte_in_rec;

      case LayoutKind::ColumnStore:
        // Columns are padded to a row boundary plus one extra row of
        // stagger so concurrent column streams land in different banks
        // (standard column-store allocator behaviour).
        return base_ + static_cast<std::uint64_t>(field) * colSpan() +
               record * TableSchema::kFieldBytes;

      case LayoutKind::VerticalGroup: {
        // SAM-sub / RC-NVM alignment: records run *vertically*, one
        // record per row down a whole subarray (the paper's "aligned by
        // every N records with N in the magnitude of KB"), so a field
        // scan is a pure column access that keeps hitting the open
        // column-wise subarray buffer for a full subarray of rows.
        // Runs rotate over the banks for parallelism. Row scans, in
        // contrast, switch rows of one bank record after record -- the
        // design's documented weakness.
        const std::uint64_t slots_per_row = rowBytes_ / rec_bytes;
        const std::uint64_t run = record / vgSpan_;
        const std::uint64_t within = record % vgSpan_;
        const std::uint64_t bank_sel = run % vgBanks_;
        const std::uint64_t slot_idx = run / vgBanks_;
        const std::uint64_t band = slot_idx / slots_per_row;
        const std::uint64_t col_slot = slot_idx % slots_per_row;
        const std::uint64_t row = band * vgSpan_ + within;
        return base_ + (row << vgRowShift_) +
               (bank_sel << vgBankShift_) + col_slot * rec_bytes +
               byte_in_rec;
      }

      case LayoutKind::GsSegmented: {
        if (rec_bytes < kCachelineBytes)
            return base_ + record * rec_bytes + byte_in_rec;
        // 64B segments of a G-record group are transposed
        // (Figure 11(b)): segment s of record i is line s*G + i.
        const std::uint64_t group = record / gather_;
        const unsigned i = static_cast<unsigned>(record % gather_);
        const unsigned seg = byte_in_rec / kCachelineBytes;
        const unsigned off = byte_in_rec % kCachelineBytes;
        return base_ +
               group * static_cast<std::uint64_t>(gather_) * rec_bytes +
               (static_cast<std::uint64_t>(seg) * gather_ + i) *
                   kCachelineBytes +
               off;
      }
    }
    panic("unknown LayoutKind");
}

GatherPlan
Table::gatherPlan(std::uint64_t group, unsigned field,
                  unsigned unit) const
{
    GatherPlan plan;
    gatherPlanInto(group, field, unit, plan);
    return plan;
}

void
Table::gatherPlanInto(std::uint64_t group, unsigned field,
                      unsigned unit, GatherPlan &plan) const
{
    sam_assert(strideUsable(), "layout does not support stride access");
    sam_assert(group < numGroups(), "group out of range");
    const unsigned chunk_byte =
        (field * TableSchema::kFieldBytes / unit) * unit;

    plan.lines.clear();
    plan.lines.reserve(gather_);
    for (unsigned i = 0; i < gather_; ++i) {
        const std::uint64_t rec = group * gather_ + i;
        // Address the chunk through its first field so transposed
        // layouts (GS-segmented) resolve correctly.
        const Addr a =
            fieldAddr(rec, chunk_byte / TableSchema::kFieldBytes);
        plan.lines.push_back(a & ~Addr{kCachelineBytes - 1});
        if (i == 0)
            plan.sector = static_cast<unsigned>(
                (a % kCachelineBytes) / unit);
    }
}

std::uint64_t
Table::footprintBytes() const
{
    const unsigned rec_bytes = schema_.recordBytes();
    switch (layout_) {
      case LayoutKind::VerticalGroup: {
        const std::uint64_t slots_per_row = rowBytes_ / rec_bytes;
        const std::uint64_t runs = divCeil(schema_.numRecords, vgSpan_);
        const std::uint64_t bands =
            divCeil(runs, vgBanks_ * slots_per_row);
        return (bands * vgSpan_) << vgRowShift_;
      }
      case LayoutKind::ColumnStore:
        return static_cast<std::uint64_t>(schema_.numFields) * colSpan();
      default:
        return roundUp(schema_.sizeBytes(), kCachelineBytes);
    }
}

bool
Table::slotOwner(std::uint64_t off, std::uint64_t &rec,
                 unsigned &field) const
{
    const unsigned rec_bytes = schema_.recordBytes();
    switch (layout_) {
      case LayoutKind::RowStore:
      case LayoutKind::SamAligned:
        rec = off / rec_bytes;
        field = static_cast<unsigned>((off % rec_bytes) /
                                      TableSchema::kFieldBytes);
        return rec < schema_.numRecords;

      case LayoutKind::ColumnStore: {
        field = static_cast<unsigned>(off / colSpan());
        const std::uint64_t in_col = off % colSpan();
        rec = in_col / TableSchema::kFieldBytes;
        return field < schema_.numFields &&
               rec < schema_.numRecords;
      }

      case LayoutKind::VerticalGroup: {
        const std::uint64_t slots_per_row = rowBytes_ / rec_bytes;
        const std::uint64_t row = off >> vgRowShift_;
        const std::uint64_t bank_sel =
            (off >> vgBankShift_) & (vgBanks_ - 1);
        const std::uint64_t within = off % rowBytes_;
        const std::uint64_t col_slot = within / rec_bytes;
        const std::uint64_t band = row / vgSpan_;
        const std::uint64_t row_in = row % vgSpan_;
        const std::uint64_t slot_idx =
            band * slots_per_row + col_slot;
        const std::uint64_t run = slot_idx * vgBanks_ + bank_sel;
        rec = run * vgSpan_ + row_in;
        field = static_cast<unsigned>(
            (within % rec_bytes) / TableSchema::kFieldBytes);
        return rec < schema_.numRecords;
      }

      case LayoutKind::GsSegmented: {
        if (rec_bytes < kCachelineBytes) {
            rec = off / rec_bytes;
            field = static_cast<unsigned>(
                (off % rec_bytes) / TableSchema::kFieldBytes);
            return rec < schema_.numRecords;
        }
        const std::uint64_t group_bytes =
            static_cast<std::uint64_t>(gather_) * rec_bytes;
        const std::uint64_t g = off / group_bytes;
        const std::uint64_t r = off % group_bytes;
        const std::uint64_t line_idx = r / kCachelineBytes;
        const unsigned within =
            static_cast<unsigned>(r % kCachelineBytes);
        const std::uint64_t seg = line_idx / gather_;
        const unsigned i = static_cast<unsigned>(line_idx % gather_);
        rec = g * gather_ + i;
        field = static_cast<unsigned>(
            (seg * kCachelineBytes + within) /
            TableSchema::kFieldBytes);
        return rec < schema_.numRecords &&
               field < schema_.numFields;
      }
    }
    panic("unknown LayoutKind");
}

namespace {

inline void
putWord(std::uint8_t *line64, unsigned w, std::uint64_t value)
{
    for (unsigned b = 0; b < 8; ++b) {
        line64[w * 8 + b] =
            static_cast<std::uint8_t>((value >> (8 * b)) & 0xff);
    }
}

} // namespace

void
Table::buildLine(std::uint64_t off, std::uint8_t *line64) const
{
    // Invert the layout: find the (record, field) word occupying every
    // 8B slot. Calling slotOwner() per word costs two integer
    // divisions each -- the hot loop of table materialization -- so
    // exploit how every layout arranges a 64B-aligned line:
    //   - ColumnStore: the line lies inside one field column (colSpan
    //     is a multiple of the row size), records advancing one per
    //     word;
    //   - every other layout: the line is a run of record segments of
    //     min(recordBytes, 64) bytes, fields advancing one per word
    //     within each segment.
    // One slotOwner() call per column/segment pins the rest down.
    sam_assert(off % kCachelineBytes == 0, "unaligned line build");
    constexpr unsigned kWords = kCachelineBytes / 8;
    const unsigned rec_bytes = schema_.recordBytes();

    if (layout_ == LayoutKind::ColumnStore) {
        std::uint64_t rec = 0;
        unsigned field = 0;
        slotOwner(off, rec, field);
        const bool field_ok = field < schema_.numFields;
        for (unsigned w = 0; w < kWords; ++w) {
            const std::uint64_t r = rec + w;
            putWord(line64, w,
                    field_ok && r < schema_.numRecords
                        ? fieldValue(r, field)
                        : 0);
        }
        return;
    }

    const unsigned seg_words =
        std::min(rec_bytes, unsigned{kCachelineBytes}) / 8;
    for (unsigned w = 0; w < kWords;) {
        std::uint64_t rec = 0;
        unsigned field = 0;
        const bool valid = slotOwner(off + w * 8, rec, field);
        for (unsigned k = 0; k < seg_words; ++k, ++w) {
            // field + k stays in range for the intra-record layouts by
            // construction; the bound only bites for GS-segmented
            // lines, matching slotOwner()'s own check.
            putWord(line64, w,
                    valid && field + k < schema_.numFields
                        ? fieldValue(rec, field + k)
                        : 0);
        }
    }
}

std::vector<LineRun>
Table::recordLineRuns() const
{
    std::vector<LineRun> runs;
    // Add the lines covering bytes [off, off + bytes), merging with
    // the previous run when they touch.
    const auto add = [&runs](std::uint64_t off, std::uint64_t bytes) {
        if (bytes == 0)
            return;
        const std::uint64_t first = off / kCachelineBytes;
        const std::uint64_t count =
            divCeil(off + bytes, kCachelineBytes) - first;
        if (!runs.empty() &&
            runs.back().first + runs.back().count == first) {
            runs.back().count += count;
        } else {
            runs.push_back(LineRun{first, count});
        }
    };

    switch (layout_) {
      case LayoutKind::ColumnStore:
        for (unsigned f = 0; f < schema_.numFields; ++f) {
            add(f * colSpan(),
                schema_.numRecords * TableSchema::kFieldBytes);
        }
        break;

      case LayoutKind::VerticalGroup: {
        // Invert fieldAddr(): column slot c of (row, bank) holds run
        // (band * slots_per_row + c) * vgBanks_ + bank, at row_in of
        // that run. The occupied slots of a segment are a prefix.
        const std::uint64_t rec_bytes = schema_.recordBytes();
        const std::uint64_t slots_per_row = rowBytes_ / rec_bytes;
        const std::uint64_t rows = footprintBytes() >> vgRowShift_;
        const std::uint64_t n = schema_.numRecords;
        for (std::uint64_t row = 0; row < rows; ++row) {
            const std::uint64_t band_slot0 =
                row / vgSpan_ * slots_per_row;
            const std::uint64_t row_in = row % vgSpan_;
            // Runs long enough to reach row_in.
            const std::uint64_t runs_here =
                n > row_in ? divCeil(n - row_in, vgSpan_) : 0;
            for (std::uint64_t bank = 0; bank < vgBanks_; ++bank) {
                const std::uint64_t slot_end =
                    runs_here > bank ? divCeil(runs_here - bank, vgBanks_)
                                     : 0;
                const std::uint64_t used =
                    slot_end > band_slot0
                        ? std::min(slot_end - band_slot0, slots_per_row)
                        : 0;
                add((row << vgRowShift_) + (bank << vgBankShift_),
                    used * rec_bytes);
            }
        }
        break;
      }

      default:
        add(0, footprintBytes());
    }
    return runs;
}

} // namespace sam
