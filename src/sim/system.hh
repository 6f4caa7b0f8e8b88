/**
 * @file
 * The full-system simulator: multi-core front-end with sector caches,
 * the design's memory layout, and the cycle-accounted memory system
 * (paper Table 2's simulated system).
 *
 * Each query runs in two phases. Phase 1 executes the query
 * functionally through the caches, producing real results and per-core
 * memory traces. Phase 2 replays the traces through the FR-FCFS
 * controller and device timing model with per-core MSHR-bounded memory
 * parallelism, yielding end-to-end cycles, which feed the IDD power
 * model.
 */

#ifndef SAM_SIM_SYSTEM_HH
#define SAM_SIM_SYSTEM_HH

#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "src/controller/address_mapping.hh"
#include "src/controller/controller.hh"
#include "src/designs/design.hh"
#include "src/designs/design_model.hh"
#include "src/dram/data_path.hh"
#include "src/dram/device.hh"
#include "src/faults/fault_injector.hh"
#include "src/faults/ras_engine.hh"
#include "src/imdb/executor.hh"
#include "src/imdb/query.hh"
#include "src/imdb/table.hh"
#include "src/power/power_model.hh"
#include "src/sim/core_port.hh"
#include "src/sim/table_cache.hh"
#include "src/telemetry/telemetry.hh"

namespace sam {

/** Top-level configuration of one simulated system. */
struct SimConfig
{
    DesignKind design = DesignKind::Baseline;
    /** Chipkill scheme; sets the strided granularity (Section 4.4). */
    EccScheme ecc = EccScheme::SscDsd;
    /** Substrate override for the Figure 14(a) experiment. */
    bool overrideTech = false;
    MemTech tech = MemTech::DRAM;

    unsigned cores = 4;         ///< Table 2.
    unsigned mshrsPerCore = 8;  ///< Outstanding misses per core.
    CoreCacheConfig caches;

    /** Benchmark tables (10M records in the paper; scaled). */
    std::uint64_t taRecords = 16384;
    unsigned taFields = 128;
    std::uint64_t tbRecords = 16384;
    unsigned tbFields = 16;

    Cycle computePerRecord = 1;
    Cycle computePerValue = 1;

    /**
     * Run the protocol-checker oracle over the replay's command stream
     * and panic on any timing/state violation. On by default so every
     * simulation doubles as a protocol conformance test; disable for
     * large sweeps where the extra bookkeeping matters.
     */
    bool check = true;

    /** Live fault injection (model None disables the injector). */
    FaultConfig faults;

    /** Read-path RAS policy (always attached). */
    RasConfig ras;

    /**
     * Telemetry collection (off by default: nothing is attached and
     * the replay runs exactly as without the subsystem).
     */
    TelemetryConfig telemetry;

    /**
     * Build RunStats::statsText (the gem5-style counter dump). On by
     * default for interactive use; campaigns turn it off -- the dump
     * string-formats every counter of every run and none of it reaches
     * the BENCH JSON.
     */
    bool collectStatsText = true;
};

/** Everything measured for one query run. */
struct RunStats
{
    QueryResult result;
    Cycle cycles = 0;
    PowerBreakdown power;

    /**
     * gem5-style statistics dump of the run: device, controller, ECC,
     * and per-core cache counters, one `group.stat value` line each.
     */
    std::string statsText;

    std::uint64_t memReads = 0;
    std::uint64_t memWrites = 0;
    std::uint64_t strideReads = 0;
    std::uint64_t strideWrites = 0;
    std::uint64_t activates = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
    std::uint64_t modeSwitches = 0;
    std::uint64_t eccCorrectedLines = 0;
    std::uint64_t eccUncorrectable = 0;
    /** Commands validated by the protocol checker (0 when disabled). */
    std::uint64_t checkedCommands = 0;

    // ----- RAS pipeline (per-run deltas) -----------------------------
    std::uint64_t scrubWritebacks = 0; ///< Corrected lines written back.
    std::uint64_t readRetries = 0;     ///< Re-reads after uncorrectable.
    std::uint64_t poisonedReads = 0;   ///< Reads that returned poison.
    std::uint64_t linesRetired = 0;    ///< Lines remapped to spares.

    /** Collected telemetry; null unless SimConfig::telemetry.enabled. */
    std::shared_ptr<const TelemetrySnapshot> telemetry;

    double rowHitRate() const
    {
        const double total =
            static_cast<double>(rowHits) + static_cast<double>(rowMisses);
        return total > 0 ? rowHits / total : 0.0;
    }
};

class System
{
  public:
    /**
     * @param tables Shared materialized-table cache the system installs
     *        table snapshots from; a private cache is created when none
     *        is given (standalone use), as Session does.
     */
    explicit System(const SimConfig &config,
                    std::shared_ptr<TableCache> tables = nullptr);

    const SimConfig &config() const { return config_; }
    const DesignSpec &spec() const { return spec_; }
    const TimingParams &timing() const { return timing_; }
    unsigned strideUnit() const { return strideUnit_; }

    /** Run one benchmark query end to end. */
    RunStats runQuery(const Query &query);

    /** Functional memory (for error injection in tests/examples). */
    DataPath &dataPath() { return dataPath_; }

    /** The RAS policy engine (error log, retirement state, counters). */
    RasEngine &ras() { return *ras_; }
    const RasEngine &ras() const { return *ras_; }

    /** The live fault injector; nullptr when faults.model is None. */
    FaultInjector *injector() { return injector_.get(); }

    /** The schemas (for reference-result computation). */
    TableSchema taSchema() const;
    TableSchema tbSchema() const;

  private:
    struct TablePair
    {
        std::unique_ptr<Table> ta;
        std::unique_ptr<Table> tb;
        bool dirty = false;
    };

    /** Layout the design (or the ideal strategy) uses for a query. */
    LayoutKind layoutFor(const Query &query) const;

    /** Materialized tables for a layout, rebuilt if dirtied. */
    TablePair &tablesFor(LayoutKind layout);

    SimConfig config_;
    DesignSpec spec_;
    Geometry geom_;
    TimingParams timing_;
    unsigned strideUnit_;
    AddressMapping mapping_;
    DataPath dataPath_;
    std::unique_ptr<RasEngine> ras_;
    std::unique_ptr<FaultInjector> injector_;
    std::shared_ptr<TableCache> tableCache_;
    std::map<LayoutKind, TablePair> tables_;
};

} // namespace sam

#endif // SAM_SIM_SYSTEM_HH
