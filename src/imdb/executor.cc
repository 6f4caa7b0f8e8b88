#include "src/imdb/executor.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <set>
#include <unordered_map>

#include "src/common/logging.hh"

namespace sam {

namespace {

std::uint64_t
extract64(const std::uint8_t *bytes)
{
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | bytes[i];
    return v;
}

void
insert64(std::uint8_t *bytes, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i) {
        bytes[i] = static_cast<std::uint8_t>(v & 0xff);
        v >>= 8;
    }
}

/** Value written by UPDATE queries. */
std::uint64_t
updatedValue(std::uint64_t rec, unsigned field)
{
    return (fieldValue(rec, field) + 7) % 1000;
}

/** Value written by INSERT queries. */
std::uint64_t
insertedValue(std::uint64_t rec, unsigned field)
{
    return (fieldValue(rec, field) * 3 + 1) % 1000;
}

/**
 * Morsel-driven work partitioning (row-granular round-robin): each core
 * owns every num_cores-th morsel, where a morsel is the group span of
 * one DRAM row. Cores therefore work in *different* banks at any
 * moment instead of queueing behind each other's row conflicts --
 * standard practice in parallel scan executors.
 */
class Partition
{
  public:
    /**
     * @param row_major Iterate records in physical row order (used by
     *        row-preferred queries): on the VerticalGroup layout the
     *        record order and the row order differ, and a SELECT * scan
     *        wants to drain each open row before switching.
     */
    Partition(const Table &table, std::uint64_t record_limit,
              unsigned core, unsigned num_cores, bool row_major = false)
        : table_(table), core_(core), numCores_(num_cores),
          rowMajor_(row_major &&
                    table.layout() == LayoutKind::VerticalGroup)
    {
        const unsigned g = table.gather();
        records_ = table.schema().numRecords;
        if (record_limit != 0)
            records_ = std::min(records_, record_limit);
        groups_ = (records_ + g - 1) / g;
        morselGroups_ = table.morselGroups();
        // Small tables: split morsels so every core gets work (at the
        // cost of sharing rows/banks, which only tiny scans notice).
        while (morselGroups_ > 1 &&
               (groups_ + morselGroups_ - 1) / morselGroups_ <
                   2 * numCores_) {
            morselGroups_ = (morselGroups_ + 1) / 2;
        }
    }

    /** Visit every owned morsel: fn(rec_lo, rec_hi). */
    template <typename F>
    void
    forEachMorsel(F &&fn) const
    {
        const unsigned g = table_.gather();
        const std::uint64_t morsels =
            (groups_ + morselGroups_ - 1) / morselGroups_;
        for (std::uint64_t m = core_; m < morsels; m += numCores_) {
            const std::uint64_t rec_lo = m * morselGroups_ * g;
            const std::uint64_t rec_hi = std::min<std::uint64_t>(
                records_, (m + 1) * morselGroups_ * g);
            if (rec_lo < rec_hi)
                fn(rec_lo, rec_hi);
        }
    }

    /** Visit every owned group in order: fn(group, rec_lo, rec_hi). */
    template <typename F>
    void
    forEachGroup(F &&fn) const
    {
        const unsigned g = table_.gather();
        forEachMorsel([&](std::uint64_t rec_lo, std::uint64_t rec_hi) {
            for (std::uint64_t group = rec_lo / g;
                 group * g < rec_hi; ++group) {
                fn(group, group * g,
                   std::min<std::uint64_t>(rec_hi, (group + 1) * g));
            }
        });
    }

    /** Visit every owned record. */
    template <typename F>
    void
    forEachRecord(F &&fn) const
    {
        if (!rowMajor_) {
            forEachGroup([&](std::uint64_t, std::uint64_t lo,
                             std::uint64_t hi) {
                for (std::uint64_t rec = lo; rec < hi; ++rec)
                    fn(rec);
            });
            return;
        }

        // Physical row order on the VerticalGroup layout: one morsel is
        // a (bank, band) region; within it, visit each DRAM row's
        // records (one per vertical run sharing the row) before moving
        // to the next row.
        const unsigned span = table_.verticalSpan();
        const unsigned banks = table_.verticalBanks();
        const std::uint64_t slots_per_row =
            table_.rowBytes() / table_.schema().recordBytes();
        const std::uint64_t runs = (records_ + span - 1) / span;
        const std::uint64_t bands =
            (runs + std::uint64_t{banks} * slots_per_row - 1) /
            (std::uint64_t{banks} * slots_per_row);
        const std::uint64_t morsels = bands * banks;
        for (std::uint64_t m = core_; m < morsels; m += numCores_) {
            const std::uint64_t bank = m % banks;
            const std::uint64_t band = m / banks;
            for (unsigned w = 0; w < span; ++w) {
                for (std::uint64_t k = 0; k < slots_per_row; ++k) {
                    const std::uint64_t run =
                        (band * slots_per_row + k) * banks + bank;
                    if (run >= runs)
                        break;
                    const std::uint64_t rec =
                        run * span + w;
                    if (rec < records_)
                        fn(rec);
                }
            }
        }
    }

  private:
    const Table &table_;
    unsigned core_;
    unsigned numCores_;
    bool rowMajor_;
    std::uint64_t records_ = 0;
    std::uint64_t groups_ = 0;
    std::uint64_t morselGroups_ = 1;
};

/** Rows whose data came back RAS-poisoned, as (table, record). */
using PoisonedRows = std::set<std::pair<const Table *, std::uint64_t>>;

/** One core's execution context for one sweep. */
class CoreExec
{
  public:
    CoreExec(ExecEnv &env, unsigned core, PoisonedRows &poisoned)
        : env_(env), port_(*env.ports[core]), poisoned_(poisoned)
    {
    }

    /**
     * Read one field. Sequential scans on stride-capable configs use
     * sload and hold the gathered chunk in "registers" (the per-field
     * line cache), so the G values of a group cost one sload. Random
     * accesses (`sequential` false) always use regular loads.
     *
     * A value that came back RAS-poisoned never enters a result: the
     * read returns nothing and counts (table, rec) as a poisoned row.
     */
    std::optional<std::uint64_t>
    read(Table &t, std::uint64_t rec, unsigned f, bool sequential = true)
    {
        std::optional<std::uint64_t> value;
        if (env_.useStride && sequential && t.strideUsable()) {
            const std::uint64_t group = rec / t.gather();
            LineCache &lc = lineCacheFor(t, f);
            if (lc.group != group || !lc.valid) {
                t.gatherPlanInto(group, f, env_.strideUnit, lc.plan);
                lc.poisonBits =
                    port_.strideLoadInto(lc.plan, lc.line.data());
                lc.group = group;
                lc.valid = true;
            }
            const unsigned chunk =
                static_cast<unsigned>(rec % t.gather());
            if (((lc.poisonBits >> chunk) & 1u) == 0)
                value = extract64(lc.line.data() + chunkOffset(chunk, f));
        } else {
            value = port_.load(t.fieldAddr(rec, f), 8);
        }
        if (!value)
            poisoned_.insert({&t, rec});
        return value;
    }

    /**
     * Group-wise strided update: patch the gathered chunk for the
     * qualifying records and sstore it back. Chunks that came back
     * poisoned went back to memory unrepaired: their rows are counted
     * as poisoned rather than pretend the read-modify-write healed
     * them.
     */
    void
    strideUpdateGroup(Table &t, std::uint64_t group, unsigned f,
                      const std::vector<std::uint64_t> &recs)
    {
        t.gatherPlanInto(group, f, env_.strideUnit, updatePlan_);
        std::array<std::uint8_t, kCachelineBytes> line{};
        const std::uint32_t poison =
            port_.strideLoadInto(updatePlan_, line.data());
        const std::uint64_t lo = group * t.gather();
        for (std::uint64_t rec : recs) {
            insert64(line.data() +
                         chunkOffset(static_cast<unsigned>(rec - lo), f),
                     updatedValue(rec, f));
        }
        port_.strideStore(updatePlan_, line.data());
        lineCache_.clear(); // written chunks invalidate register copies
        const std::uint64_t hi =
            std::min(lo + t.gather(), t.schema().numRecords);
        for (std::uint64_t rec = lo; poison != 0 && rec < hi; ++rec) {
            if ((poison >> (rec - lo)) & 1u)
                poisoned_.insert({&t, rec});
        }
    }

    MemPort &port() { return port_; }

  private:
    struct LineCache
    {
        GatherPlan plan;
        std::array<std::uint8_t, kCachelineBytes> line;
        std::uint64_t group = ~std::uint64_t{0};
        bool valid = false;
        /** Poison bits of the gathered chunks (bit i = chunk i). */
        std::uint32_t poisonBits = 0;
    };

    /** One register per (table, field) a query touches: a handful of
     *  entries, so a linear scan beats a tree per field read. */
    struct LineCacheEntry
    {
        const Table *table;
        unsigned field;
        LineCache lc;
    };

    LineCache &
    lineCacheFor(const Table &t, unsigned f)
    {
        for (auto &e : lineCache_) {
            if (e.table == &t && e.field == f)
                return e.lc;
        }
        lineCache_.push_back({&t, f, {}});
        return lineCache_.back().lc;
    }

    /** Byte offset of field `f` in gathered chunk `chunk`. */
    unsigned
    chunkOffset(unsigned chunk, unsigned f) const
    {
        return chunk * env_.strideUnit +
               (f * TableSchema::kFieldBytes) % env_.strideUnit;
    }

    ExecEnv &env_;
    MemPort &port_;
    PoisonedRows &poisoned_;
    std::vector<LineCacheEntry> lineCache_;
    /** strideUpdateGroup's plan, refilled per group (capacity kept). */
    GatherPlan updatePlan_;
};

/**
 * Predicate evaluation from a value actually loaded from memory; a
 * poisoned read (nothing loaded) qualifies nothing.
 */
bool
passes(std::optional<std::uint64_t> loaded_value, double selectivity)
{
    return loaded_value && *loaded_value < selectivityThreshold(selectivity);
}

} // namespace

PlanChoice
choosePlan(const Query &q, const TableSchema &schema, unsigned gather,
           bool has_row_fallback)
{
    const double projected_fields = static_cast<double>(
        q.kind == QueryKind::SelectStar ? schema.numFields
                                        : q.fields.size());
    const double effective_sel = q.hasPredicate ? q.selectivity : 1.0;
    const double g = gather;
    const double record_lines = std::max(
        1.0, schema.recordBytes() / double{kCachelineBytes});

    // Cost of fetching the projected fields of the qualifying records,
    // per record group, under each plan:
    //  * gathers: every field chunk of a group is fetched if *any* of
    //    its G records qualifies;
    //  * regular: each qualifying record's field lines are fetched,
    //    record-contiguously (a 64B line carries 8 fields of one
    //    record).
    const double any_qualifies =
        1.0 - std::pow(1.0 - effective_sel, g);
    const double gather_bursts = any_qualifies * projected_fields;
    const double regular_lines =
        effective_sel * g * std::min(projected_fields, record_lines);

    PlanChoice plan;
    plan.strideProject = gather_bursts <= regular_lines;

    // Whole-plan choice: a column plan (field sweeps) must beat the
    // record-major scan of the row-friendly layout, which reads the
    // predicate line plus the qualifying records.
    const double records = static_cast<double>(schema.numRecords);
    const double col_fetch = has_row_fallback
        ? std::min(gather_bursts, regular_lines)
        : gather_bursts;
    const double col_plan_bursts =
        records / g * (1.0 + col_fetch);
    const double row_plan_lines =
        records * (1.0 + effective_sel * record_lines);
    // Near-ties go to the plain record-major scan: the column plan's
    // extra machinery (mode switches, transposition) is not free.
    plan.worthColumns = col_plan_bursts < 0.9 * row_plan_lines;
    return plan;
}

QueryResult
executeQuery(const Query &q, ExecEnv &env)
{
    sam_assert(!env.ports.empty(), "no cores");
    const unsigned num_cores = static_cast<unsigned>(env.ports.size());
    QueryResult total;

    Table &primary = q.table == TableRef::Ta ? *env.ta : *env.tb;

    // Rows whose data came back RAS-poisoned, tallied by
    // CoreExec::read. Poisoned values never enter the result (no
    // silent corruption); the rows are counted so the caller sees a
    // degraded-but-honest answer.
    PoisonedRows poisoned_rows;

    // Crude cost-based plan selection, as any engine would do:
    //
    //  * Column plans (field-major order, sload field scans) pay off
    //    when the query touches a small fraction of each record:
    //    expected bytes = (1 predicate + selectivity x projected)
    //    fields. Past ~75% of the record, a plain record-major scan
    //    of the row-friendly layout wins and the engine falls back to
    //    regular accesses -- this is the paper's "more fields
    //    projected becomes more suitable for the baseline".
    //  * Field switches mid-scan cost column-subarray designs
    //    (SAM-sub / RC-NVM) a column-to-column bank conflict, so those
    //    designs prefer field-major order whenever columns pay off.
    //  * Fetching projected fields of *sparse* qualifying records via
    //    a gather wastes the other G-1 chunks; below ~25% selectivity
    //    the engine fetches them with regular loads instead.
    const PlanChoice plan =
        choosePlan(q, primary.schema(), primary.gather());
    const bool worth_columns = plan.worthColumns;
    const bool stride_project = plan.strideProject;
    if (!worth_columns && !q.rowPreferred)
        env.useStride = false;

    const bool stride_capable =
        env.useStride && primary.strideUsable();
    const bool engine_prefers_columns =
        env.fieldMajorPreferred || stride_capable;
    // Field-major projection only pays when the projected fetches
    // themselves are column accesses (gathers or a column layout);
    // regular fetches of sparse qualifiers read a record's fields from
    // one row and want record order.
    const bool column_fetches =
        (stride_capable && stride_project) ||
        primary.layout() == LayoutKind::ColumnStore;
    const bool field_major =
        !q.rowPreferred && worth_columns && engine_prefers_columns &&
        column_fetches &&
        (q.fieldMajor || (env.fieldMajorPreferred && !q.recordMajor));

    // Every sweep runs the cores in id order, each through a fresh
    // CoreExec (its sload registers never outlive the sweep), and ends
    // in a barrier.
    auto sweep = [&](auto &&body) {
        for (unsigned c = 0; c < num_cores; ++c) {
            CoreExec ex(env, c, poisoned_rows);
            body(ex, c);
        }
        env.barrier();
    };
    /** A sweep over each core's records of `t`: body(ex, rec). */
    auto sweep_records = [&](Table &t, std::uint64_t limit,
                             bool row_major, auto &&body) {
        sweep([&](CoreExec &ex, unsigned c) {
            Partition(t, limit, c, num_cores, row_major)
                .forEachRecord([&](std::uint64_t rec) { body(ex, rec); });
        });
    };
    /** Add one projected value to `sum` (nothing if poisoned). */
    auto project = [&](CoreExec &ex, std::uint64_t rec, unsigned f,
                       std::uint64_t &sum) {
        sum += ex.read(primary, rec, f, stride_project).value_or(0);
        ex.port().compute(env.computePerValue);
    };

    /**
     * Predicate sweep(s) producing a qualifying bitmap of the primary
     * table; the qualifying rows are the result's rows.
     */
    auto predicate_sweep = [&] {
        std::vector<std::uint8_t> qual(primary.schema().numRecords, 1);
        if (q.hasPredicate) {
            sweep_records(primary, q.limit, q.rowPreferred,
                          [&](CoreExec &ex, std::uint64_t rec) {
                ex.port().compute(env.computePerRecord);
                qual[rec] = passes(ex.read(primary, rec, q.predField),
                                   q.selectivity);
            });
        }
        if (q.hasPredicate2) {
            sweep_records(primary, q.limit, false,
                          [&](CoreExec &ex, std::uint64_t rec) {
                if (qual[rec]) {
                    qual[rec] = passes(
                        ex.read(primary, rec, q.predField2),
                        q.selectivity2);
                }
            });
        }
        if (q.limit != 0) {
            for (std::uint64_t rec = q.limit;
                 rec < primary.schema().numRecords; ++rec) {
                qual[rec] = 0;
            }
        }
        for (std::uint8_t v : qual)
            total.rows += v;
        return qual;
    };
    /** Predicate sweep(s), then one sweep per projected field. */
    auto field_major_scan = [&](const std::vector<unsigned> &fields,
                                std::uint64_t limit, std::uint64_t &sum) {
        const auto qual = predicate_sweep();
        for (unsigned f : fields) {
            sweep_records(primary, limit, false,
                          [&](CoreExec &ex, std::uint64_t rec) {
                if (qual[rec])
                    project(ex, rec, f, sum);
            });
        }
    };

    switch (q.kind) {
      case QueryKind::Select:
      case QueryKind::SelectStar: {
        std::vector<unsigned> fields = q.fields;
        if (q.kind == QueryKind::SelectStar) {
            fields.clear();
            for (unsigned f = 0; f < primary.schema().numFields; ++f)
                fields.push_back(f);
        }
        if (!field_major) {
            sweep_records(primary, q.limit, q.rowPreferred,
                          [&](CoreExec &ex, std::uint64_t rec) {
                ex.port().compute(env.computePerRecord);
                if (q.hasPredicate &&
                    !passes(ex.read(primary, rec, q.predField),
                            q.selectivity)) {
                    return;
                }
                if (q.hasPredicate2 &&
                    !passes(ex.read(primary, rec, q.predField2),
                            q.selectivity2)) {
                    return;
                }
                ++total.rows;
                for (unsigned f : fields)
                    project(ex, rec, f, total.checksum);
            });
        } else {
            field_major_scan(fields, q.limit, total.checksum);
        }
        break;
      }

      case QueryKind::Aggregate: {
        if (!field_major) {
            // Record-major (the Figure 15 arithmetic query, Q3-Q6),
            // executed morsel-vectorised: within each morsel the
            // engine sweeps one field at a time into vectors and then
            // combines per record -- how block-at-a-time executors
            // evaluate per-record expressions. Field switches happen
            // once per field per *morsel*, not per record (the global
            // field-major plan of the aggregate query switches only
            // once per field per core).
            // Vector blocks are sized so one value-vector per
            // projected column fits in L1 (32KB): high projectivity
            // forces smaller blocks, i.e.\ more frequent field
            // switches -- which is exactly what stings the
            // column-subarray designs on this query (Section 6.2).
            // Row-friendly access (no column fetches in play) reads
            // each record's fields together instead: block size one
            // group.
            const std::uint64_t block_recs = !column_fetches
                ? primary.gather()
                : std::max<std::uint64_t>(
                      primary.gather(),
                      (32768 / TableSchema::kFieldBytes) /
                          (q.fields.size() + 1));
            sweep([&](CoreExec &ex, unsigned c) {
                Partition(primary, 0, c, num_cores)
                    .forEachMorsel([&](std::uint64_t mlo,
                                       std::uint64_t mhi) {
                    for (std::uint64_t lo = mlo; lo < mhi;
                         lo += block_recs) {
                        const std::uint64_t hi =
                            std::min(mhi, lo + block_recs);
                        std::vector<std::uint8_t> qual(hi - lo, 1);
                        if (q.hasPredicate) {
                            for (std::uint64_t rec = lo; rec < hi;
                                 ++rec) {
                                ex.port().compute(env.computePerRecord);
                                qual[rec - lo] = passes(
                                    ex.read(primary, rec, q.predField),
                                    q.selectivity);
                            }
                        }
                        if (column_fetches) {
                            for (unsigned f : q.fields) {
                                for (std::uint64_t rec = lo; rec < hi;
                                     ++rec) {
                                    if (qual[rec - lo])
                                        project(ex, rec, f,
                                                total.aggregate);
                                }
                            }
                        } else {
                            for (std::uint64_t rec = lo; rec < hi;
                                 ++rec) {
                                if (!qual[rec - lo])
                                    continue;
                                for (unsigned f : q.fields)
                                    project(ex, rec, f, total.aggregate);
                            }
                        }
                        for (std::uint64_t rec = lo; rec < hi; ++rec)
                            total.rows += qual[rec - lo];
                    }
                });
            });
        } else {
            // Field-major (the Figure 15 aggregate query): predicate
            // sweep first, then one full sweep per projected field.
            field_major_scan(q.fields, 0, total.aggregate);
        }
        break;
      }

      case QueryKind::Update: {
        // Predicate sweep, then one write sweep per updated field
        // (field-major keeps column-subarray designs from ping-ponging
        // between the predicate column and the written columns).
        const auto qual = predicate_sweep();
        for (unsigned f : q.fields) {
            sweep([&](CoreExec &ex, unsigned c) {
                Partition(primary, 0, c, num_cores)
                    .forEachGroup([&](std::uint64_t group,
                                      std::uint64_t lo,
                                      std::uint64_t hi) {
                    std::vector<std::uint64_t> qualifying;
                    for (std::uint64_t rec = lo; rec < hi; ++rec) {
                        if (qual[rec])
                            qualifying.push_back(rec);
                    }
                    if (qualifying.empty())
                        return;
                    if (stride_capable) {
                        ex.strideUpdateGroup(primary, group, f,
                                             qualifying);
                    } else {
                        for (std::uint64_t rec : qualifying) {
                            ex.port().store(primary.fieldAddr(rec, f),
                                            updatedValue(rec, f), 8);
                        }
                    }
                    for (std::uint64_t rec : qualifying) {
                        total.checksum += updatedValue(rec, f);
                        ex.port().compute(env.computePerValue);
                    }
                });
            });
        }
        break;
      }

      case QueryKind::Insert: {
        std::uint64_t count = q.insertCount != 0
            ? q.insertCount
            : primary.schema().numRecords / 8;
        count = std::min(count, primary.schema().numRecords);
        sweep_records(primary, count, q.rowPreferred,
                      [&](CoreExec &ex, std::uint64_t rec) {
            ex.port().compute(env.computePerRecord);
            ++total.rows;
            for (unsigned f = 0; f < primary.schema().numFields; ++f) {
                const std::uint64_t v = insertedValue(rec, f);
                ex.port().storeStream(primary.fieldAddr(rec, f), v, 8);
                total.checksum += v;
            }
        });
        break;
      }

      case QueryKind::Join: {
        Table &ta = *env.ta;
        Table &tb = *env.tb;
        // Build on Tb (hash the join field of selective values), probe
        // with Ta. Deterministic: the map keeps the minimum record id.
        std::unordered_map<std::uint64_t, std::uint64_t> build;
        const std::uint64_t jthresh =
            selectivityThreshold(q.joinSelectivity);
        sweep_records(tb, 0, false, [&](CoreExec &ex, std::uint64_t rec) {
            ex.port().compute(env.computePerRecord);
            const auto v = ex.read(tb, rec, q.joinField);
            if (v && *v < jthresh) {
                auto it = build.find(*v);
                if (it == build.end() || rec < it->second)
                    build[*v] = rec;
            }
        });

        /** The Tb record that Ta record `rec` joins with, if any. */
        auto probe = [&](CoreExec &ex, std::uint64_t rec)
            -> std::optional<std::uint64_t> {
            ex.port().compute(env.computePerRecord);
            const auto v = ex.read(ta, rec, q.joinField);
            if (!v)
                return std::nullopt;
            const auto it = build.find(*v);
            if (it == build.end())
                return std::nullopt;
            return it->second;
        };
        /** Q7's extra condition Ta.f1 > Tb.f1, read for one match. */
        auto extra_filter = [&](CoreExec &ex, std::uint64_t rec,
                                std::uint64_t tb_rec) {
            const auto f1a = ex.read(ta, rec, 1);
            if (!f1a)
                return false;
            const auto f1b = ex.read(tb, tb_rec, 1, false);
            return f1b && *f1a > *f1b;
        };
        /** Read both output fields of a match and emit its row. */
        auto emit = [&](CoreExec &ex, std::uint64_t rec,
                        std::uint64_t tb_rec) {
            const auto va = ex.read(ta, rec, q.fields[0]);
            const auto vb = ex.read(tb, tb_rec, q.fields[1], false);
            if (!va || !vb)
                return;
            ++total.rows;
            total.checksum += *va + *vb;
            ex.port().compute(env.computePerValue);
        };

        if (!field_major) {
            sweep_records(ta, 0, false,
                          [&](CoreExec &ex, std::uint64_t rec) {
                const auto tb_rec = probe(ex, rec);
                if (tb_rec &&
                    (!q.joinExtraFilter || extra_filter(ex, rec, *tb_rec)))
                    emit(ex, rec, *tb_rec);
            });
        } else {
            // Late materialization: probe the join column alone, then
            // sweep each output column for the matches -- avoiding
            // mid-scan field switches on column-subarray designs.
            using Match = std::pair<std::uint64_t, std::uint64_t>;
            std::vector<std::vector<Match>> matches(num_cores);
            sweep([&](CoreExec &ex, unsigned c) {
                Partition(ta, 0, c, num_cores)
                    .forEachRecord([&](std::uint64_t rec) {
                    if (const auto tb_rec = probe(ex, rec))
                        matches[c].emplace_back(rec, *tb_rec);
                });
            });
            if (q.joinExtraFilter) {
                sweep([&](CoreExec &ex, unsigned c) {
                    std::vector<Match> kept;
                    for (auto [rec, tb_rec] : matches[c]) {
                        if (extra_filter(ex, rec, tb_rec))
                            kept.emplace_back(rec, tb_rec);
                    }
                    matches[c] = std::move(kept);
                });
            }
            sweep([&](CoreExec &ex, unsigned c) {
                for (auto [rec, tb_rec] : matches[c])
                    emit(ex, rec, tb_rec);
            });
        }
        break;
      }
    }
    total.poisonedRows = poisoned_rows.size();
    return total;
}

QueryResult
referenceResult(const Query &q, const TableSchema &ta,
                const TableSchema &tb)
{
    QueryResult total;
    const TableSchema &t = q.table == TableRef::Ta ? ta : tb;
    std::uint64_t records = t.numRecords;
    if (q.limit != 0)
        records = std::min(records, q.limit);

    auto qualifies = [&](std::uint64_t rec) {
        if (q.hasPredicate &&
            fieldValue(rec, q.predField) >=
                selectivityThreshold(q.selectivity)) {
            return false;
        }
        if (q.hasPredicate2 &&
            fieldValue(rec, q.predField2) >=
                selectivityThreshold(q.selectivity2)) {
            return false;
        }
        return true;
    };

    switch (q.kind) {
      case QueryKind::Select:
      case QueryKind::SelectStar: {
        std::vector<unsigned> fields = q.fields;
        if (q.kind == QueryKind::SelectStar) {
            fields.clear();
            for (unsigned f = 0; f < t.numFields; ++f)
                fields.push_back(f);
        }
        for (std::uint64_t rec = 0; rec < records; ++rec) {
            if (!qualifies(rec))
                continue;
            ++total.rows;
            for (unsigned f : fields)
                total.checksum += fieldValue(rec, f);
        }
        break;
      }

      case QueryKind::Aggregate:
        for (std::uint64_t rec = 0; rec < records; ++rec) {
            if (!qualifies(rec))
                continue;
            ++total.rows;
            for (unsigned f : q.fields)
                total.aggregate += fieldValue(rec, f);
        }
        break;

      case QueryKind::Update:
        for (std::uint64_t rec = 0; rec < records; ++rec) {
            if (!qualifies(rec))
                continue;
            ++total.rows;
            for (unsigned f : q.fields)
                total.checksum += updatedValue(rec, f);
        }
        break;

      case QueryKind::Insert: {
        std::uint64_t count =
            q.insertCount != 0 ? q.insertCount : t.numRecords / 8;
        count = std::min(count, t.numRecords);
        for (std::uint64_t rec = 0; rec < count; ++rec) {
            ++total.rows;
            for (unsigned f = 0; f < t.numFields; ++f)
                total.checksum += insertedValue(rec, f);
        }
        break;
      }

      case QueryKind::Join: {
        const std::uint64_t jthresh =
            selectivityThreshold(q.joinSelectivity);
        std::unordered_map<std::uint64_t, std::uint64_t> build;
        for (std::uint64_t rec = 0; rec < tb.numRecords; ++rec) {
            const std::uint64_t v = fieldValue(rec, q.joinField);
            if (v < jthresh) {
                auto it = build.find(v);
                if (it == build.end() || rec < it->second)
                    build[v] = rec;
            }
        }
        for (std::uint64_t rec = 0; rec < ta.numRecords; ++rec) {
            const std::uint64_t v = fieldValue(rec, q.joinField);
            auto it = build.find(v);
            if (it == build.end())
                continue;
            if (q.joinExtraFilter &&
                !(fieldValue(rec, 1) > fieldValue(it->second, 1))) {
                continue;
            }
            ++total.rows;
            total.checksum += fieldValue(rec, q.fields[0]) +
                              fieldValue(it->second, q.fields[1]);
        }
        break;
      }
    }
    return total;
}

} // namespace sam
