/**
 * @file
 * Query executor: runs the Table 3 benchmark queries against tables
 * through a per-core MemPort (cache hierarchy + trace capture),
 * computing real results from the bytes the simulated memory system
 * returns. Strided field scans use sload/sstore (stride accesses) on
 * designs that support them; row-preferred queries run in regular mode
 * on every design (Section 6.2).
 */

#ifndef SAM_IMDB_EXECUTOR_HH
#define SAM_IMDB_EXECUTOR_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/gather.hh"
#include "src/common/types.hh"
#include "src/imdb/query.hh"
#include "src/imdb/table.hh"

namespace sam {

/** Core-side memory interface implemented by the system simulator. */
class MemPort
{
  public:
    virtual ~MemPort() = default;

    /** Load up to 8 bytes (returns zero-extended value). */
    virtual std::uint64_t load(Addr addr, unsigned bytes) = 0;

    /** Store up to 8 bytes. */
    virtual void store(Addr addr, std::uint64_t value,
                       unsigned bytes) = 0;

    /**
     * Write-combining store for bulk record writes: allocates the line
     * without read-for-ownership (the whole line will be overwritten).
     */
    virtual void storeStream(Addr addr, std::uint64_t value,
                             unsigned bytes) = 0;

    /**
     * Strided load (sload): gather the planned chunks into a
     * caller-owned 64B buffer, so scan loops can hold their gather
     * registers without per-group allocation.
     */
    virtual void strideLoadInto(const GatherPlan &plan,
                                std::uint8_t *out64) = 0;

    /** Strided store (sstore): scatter a 64B line of chunks. */
    virtual void strideStore(const GatherPlan &plan,
                             const std::uint8_t *line64) = 0;

    /** Account `cycles` of core compute time. */
    virtual void compute(Cycle cycles) = 0;

    // ----- RAS poison reporting --------------------------------------
    // Required: CoreExec::read keeps a poisoned value out of every
    // result, so a port that dropped poison would corrupt silently.

    /** Whether the last load() returned RAS-poisoned data. */
    virtual bool lastAccessPoisoned() const = 0;

    /**
     * Per-chunk poison bits of the last strideLoadInto() (bit i =
     * chunk i of the gathered line, i.e. source line i of the plan).
     */
    virtual std::uint32_t strideLoadPoisonBits() const = 0;
};

/** Merged functional result of a query (compared against a reference). */
struct QueryResult
{
    std::uint64_t rows = 0;      ///< Selected / updated / emitted rows.
    std::uint64_t aggregate = 0; ///< Sum over aggregate fields.
    std::uint64_t checksum = 0;  ///< Sum of all projected values.

    /**
     * Rows (distinct table records) with at least one RAS-poisoned
     * read: uncorrectable memory errors that survived retry. A
     * poisoned value never enters the result. A poisoned predicate
     * read qualifies nothing, and a poisoned projected or aggregated
     * value adds nothing to aggregate / checksum. A row still counts
     * in `rows` once its predicate passes (every row, for a query
     * without one), even when its projected values then come back
     * poisoned. Not part of equality -- a degraded result is compared
     * on what it *did* compute, and callers must check degraded()
     * before trusting a mismatch.
     */
    std::uint64_t poisonedRows = 0;

    /** The result is incomplete due to uncorrectable memory errors. */
    bool degraded() const { return poisonedRows != 0; }

    bool
    operator==(const QueryResult &o) const
    {
        return rows == o.rows && aggregate == o.aggregate &&
               checksum == o.checksum;
    }
};

/** Execution environment supplied by the system simulator. */
struct ExecEnv
{
    Table *ta = nullptr;
    Table *tb = nullptr;
    std::vector<MemPort *> ports;   ///< One per core.
    /** Called between execution phases (join build/probe, field
     *  sweeps); the simulator inserts a timing barrier. */
    std::function<void()> barrier = [] {};
    /** Use sload/sstore for sequential field scans. */
    bool useStride = false;
    unsigned strideUnit = 8;
    /**
     * The memory design prefers column-at-a-time plans (SAM-sub /
     * RC-NVM column-wise subarrays, where switching fields mid-scan
     * forces a column-to-column bank conflict). The engine then
     * executes selections and aggregations field-major unless the
     * query's semantics force record-major order.
     */
    bool fieldMajorPreferred = false;
    Cycle computePerRecord = 1;
    Cycle computePerValue = 1;
};

/**
 * The engine's cost-based plan choice for a query on a table
 * (Section 6.2's selectivity/projectivity trade-off):
 *
 *  - `worthColumns`: a column plan (field sweeps / sloads) reads fewer
 *    bytes than a record-major scan of the row-friendly layout;
 *  - `strideProject`: fetching the projected fields of qualifying
 *    records via gathers beats record-contiguous regular reads.
 */
struct PlanChoice
{
    bool worthColumns = true;
    bool strideProject = true;
};

/**
 * @param has_row_fallback The design can fetch qualifying records
 *        record-contiguously from a row-friendly layout (true for the
 *        stride designs, whose layout is row-store aligned; false for
 *        a pure column store deciding whether to keep a row copy).
 */
PlanChoice choosePlan(const Query &query, const TableSchema &schema,
                      unsigned gather, bool has_row_fallback = true);

/**
 * Execute `query` across all cores (functionally sequential; the
 * timing interleave is reconstructed by the trace replay). Returns the
 * merged result.
 */
QueryResult executeQuery(const Query &query, ExecEnv &env);

/**
 * Pure-functional reference executor: recomputes the expected result
 * straight from fieldValue(), bypassing the memory system. Simulated
 * results must match exactly.
 */
QueryResult referenceResult(const Query &query, const TableSchema &ta,
                            const TableSchema &tb);

} // namespace sam

#endif // SAM_IMDB_EXECUTOR_HH
