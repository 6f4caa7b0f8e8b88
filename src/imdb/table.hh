/**
 * @file
 * In-memory database tables: schema, physical layout per design
 * (Section 5.4.1, Figure 11), deterministic data generation, and
 * stride gather planning.
 */

#ifndef SAM_IMDB_TABLE_HH
#define SAM_IMDB_TABLE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/gather.hh"
#include "src/common/types.hh"
#include "src/designs/design.hh"
#include "src/dram/timing.hh"

namespace sam {

/** Relational table shape: fixed-width 8B fields (paper Section 6.1). */
struct TableSchema
{
    std::string name;
    unsigned numFields = 16;
    std::uint64_t numRecords = 1024;

    static constexpr unsigned kFieldBytes = 8;

    unsigned recordBytes() const { return numFields * kFieldBytes; }
    std::uint64_t sizeBytes() const { return numRecords * recordBytes(); }
};

/**
 * Deterministic field contents shared by the data generator and the
 * reference executor: tests compare simulated query results against
 * values recomputed from this function.
 *
 * The value is bounded (< 4096) so aggregates never overflow, and the
 * low-order structure gives controllable selectivity: predicates of the
 * form `value % 1000 < t` select a t/1000 fraction of records.
 */
std::uint64_t fieldValue(std::uint64_t record, unsigned field);

/** Predicate threshold for selectivity `sel` against fieldValue(). */
std::uint64_t selectivityThreshold(double sel);

/** True if fieldValue(record, field) passes the selectivity test. */
bool passesPredicate(std::uint64_t record, unsigned field,
                     std::uint64_t threshold);

/**
 * A table bound to a physical base address and a layout. Addressing is
 * purely arithmetic; buildLine() composes the contents line by line
 * and recordLineRuns() says which lines have any (TableCache builds
 * the snapshot a system installs from the two).
 */
class Table
{
  public:
    /**
     * @param gather  Records per alignment group (the design's G).
     * @param geom    Needed by the VerticalGroup layout for row size.
     */
    Table(TableSchema schema, Addr base, LayoutKind layout,
          unsigned gather, const Geometry &geom);

    const TableSchema &schema() const { return schema_; }
    Addr base() const { return base_; }
    LayoutKind layout() const { return layout_; }
    unsigned gather() const { return gather_; }
    unsigned rowBytes() const { return rowBytes_; }

    /** Byte address of (record, field). */
    Addr fieldAddr(std::uint64_t record, unsigned field) const;

    /**
     * True when stride (sload/sstore) accesses are usable on this
     * layout: grouped layouts with records of at least one line.
     */
    bool strideUsable() const;

    std::uint64_t numGroups() const
    {
        return (schema_.numRecords + gather_ - 1) / gather_;
    }

    /**
     * Gather plan returning the chunk that holds `field` for every
     * record of `group`. The caller extracts the wanted 8B at offset
     * ((field * 8) % unit) of each chunk.
     */
    GatherPlan gatherPlan(std::uint64_t group, unsigned field,
                          unsigned unit) const;

    /** gatherPlan() into a caller-owned plan, reusing its capacity so
     *  per-group replanning in scan loops stays allocation-free. */
    void gatherPlanInto(std::uint64_t group, unsigned field,
                        unsigned unit, GatherPlan &plan) const;

    /** Total physical footprint (bytes, including group padding). */
    std::uint64_t footprintBytes() const;

    /** Bank-staggered per-column span of the column-store layout. */
    std::uint64_t colSpan() const;

    /**
     * Preferred morsel size (in groups) for parallel scans: the group
     * span of one DRAM row (or one vertical run for the VerticalGroup
     * layout), so concurrently scanning cores occupy different banks.
     */
    std::uint64_t morselGroups() const;

    /** Records per vertical run (VerticalGroup layout). */
    unsigned verticalSpan() const { return vgSpan_; }

    /** Banks rotated over by vertical runs. */
    unsigned verticalBanks() const { return vgBanks_; }

    /**
     * Compose the 64B line at byte offset `off` from the table base
     * (layout inversion + deterministic field values). Pure function
     * of (schema, layout, off): safe to call from several threads at
     * once, which is how TableCache parallelises cold builds.
     */
    void buildLine(std::uint64_t off, std::uint8_t *line64) const;

    /**
     * The lines of the footprint that hold record bytes, as ascending,
     * disjoint, maximal runs (in lines from the table base). Every
     * other line is padding, which buildLine() fills with zeros:
     *   - VerticalGroup: the occupied column slots of each row-and-bank
     *     segment (a table spans whole subarray-high bands, mostly
     *     empty at small record counts);
     *   - ColumnStore: each field column's records, without the
     *     row-rounding and bank-stagger tail;
     *   - every other layout: the whole footprint.
     */
    std::vector<LineRun> recordLineRuns() const;

  private:
    /** Find the (record, field) word occupying the 8B slot at `off`;
     *  false when the slot is padding. */
    bool slotOwner(std::uint64_t off, std::uint64_t &rec,
                   unsigned &field) const;
    TableSchema schema_;
    Addr base_;
    LayoutKind layout_;
    unsigned gather_;
    unsigned rowBytes_;
    /** VerticalGroup DRAM-coordinate addressing (bank/row slicing). */
    unsigned vgBankShift_ = 0;
    unsigned vgBanks_ = 1;
    unsigned vgRowShift_ = 0;
    unsigned vgSpan_ = 512;  ///< Records per vertical run (rows).
};

} // namespace sam

#endif // SAM_IMDB_TABLE_HH
