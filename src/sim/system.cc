#include "src/sim/system.hh"

#include <algorithm>

#include "src/check/protocol_checker.hh"
#include "src/common/logging.hh"
#include "src/sim/replay_engine.hh"

namespace sam {

namespace {

unsigned
layoutIndex(LayoutKind layout)
{
    switch (layout) {
      case LayoutKind::RowStore:      return 0;
      case LayoutKind::ColumnStore:   return 1;
      case LayoutKind::SamAligned:    return 2;
      case LayoutKind::VerticalGroup: return 3;
      case LayoutKind::GsSegmented:   return 4;
    }
    panic("unknown LayoutKind");
}

} // namespace

System::System(const SimConfig &config, std::shared_ptr<TableCache> tables)
    : config_(config),
      spec_(makeDesign(config.design, config.ecc, config.tech,
                       config.overrideTech)),
      timing_(timingFor(spec_.tech).derated(spec_.areaOverhead)),
      strideUnit_(strideUnitBytes(config.ecc)),
      mapping_(geom_),
      dataPath_(spec_.ecc),
      ras_(std::make_unique<RasEngine>(config.ras)),
      tableCache_(tables ? std::move(tables)
                         : std::make_shared<TableCache>())
{
    sam_assert(config.cores > 0, "need at least one core");
    dataPath_.setRasPolicy(ras_.get());
    if (config.faults.model != FaultModel::None) {
        injector_ = std::make_unique<FaultInjector>(config.faults);
        dataPath_.setFaultHook(injector_.get());
    }
}

TableSchema
System::taSchema() const
{
    return TableSchema{"Ta", config_.taFields, config_.taRecords};
}

TableSchema
System::tbSchema() const
{
    return TableSchema{"Tb", config_.tbFields, config_.tbRecords};
}

LayoutKind
System::layoutFor(const Query &query) const
{
    if (spec_.kind == DesignKind::Ideal) {
        // The software ideal keeps both copies and picks per query
        // (Section 1's dual-copy approach): row store for
        // row-preferred queries and whenever the engine's cost model
        // says a column plan would read more than a record-major scan.
        const TableSchema schema =
            query.table == TableRef::Ta ? taSchema() : tbSchema();
        const unsigned gather = kCachelineBytes / strideUnit_;
        if (query.rowPreferred ||
            !choosePlan(query, schema, gather,
                        /*has_row_fallback=*/false)
                 .worthColumns) {
            return LayoutKind::RowStore;
        }
        return LayoutKind::ColumnStore;
    }
    return spec_.layout;
}

System::TablePair &
System::tablesFor(LayoutKind layout)
{
    TablePair &tp = tables_[layout];
    const unsigned gather = kCachelineBytes / strideUnit_;
    if (!tp.ta || tp.dirty) {
        // Table spacing: a power-of-two span that covers the larger
        // table's physical footprint (2x leaves room for layout
        // padding), never below the historical 1 GiB so the quick/full
        // address streams are unchanged. Paper-scale tables (10M x
        // 128 fields) spill past 1 GiB and land on a wider span.
        const std::uint64_t need =
            2 * std::max(taSchema().sizeBytes(), tbSchema().sizeBytes());
        Addr span = Addr{1} << 30;
        while (span < need)
            span <<= 1;
        const Addr ta_base =
            (Addr{layoutIndex(layout)} * 2 + 1) * span;
        const Addr tb_base =
            (Addr{layoutIndex(layout)} * 2 + 2) * span;
        tp.ta = std::make_unique<Table>(taSchema(), ta_base, layout,
                                        gather, geom_);
        tp.tb = std::make_unique<Table>(tbSchema(), tb_base, layout,
                                        gather, geom_);
        dataPath_.store().install(
            tableCache_->materialized(*tp.ta, *tp.tb, spec_.ecc));
        tp.dirty = false;
    }
    return tp;
}

RunStats
System::runQuery(const Query &query)
{
    TablePair &tp = tablesFor(layoutFor(query));

    // Core clocks restart at zero each run; rewind the data path's
    // phase-1 clock so the fault injector and error-log buckets follow.
    dataPath_.beginRun();

    // ----- Phase 1: functional execution + trace capture -----------
    const unsigned sector_bytes =
        spec_.supportsStride ? strideUnit_ : kCachelineBytes;
    std::vector<std::unique_ptr<CorePort>> ports;
    ExecEnv env;
    for (unsigned c = 0; c < config_.cores; ++c) {
        ports.push_back(std::make_unique<CorePort>(
            c, config_.caches, sector_bytes, dataPath_));
        env.ports.push_back(ports.back().get());
    }
    env.ta = tp.ta.get();
    env.tb = tp.tb.get();
    env.useStride = spec_.supportsStride && !query.rowPreferred;
    env.strideUnit = strideUnit_;
    // Column-subarray designs avoid mid-scan field switches; a real
    // column store (the ideal case) is vectorised column-at-a-time
    // anyway.
    env.fieldMajorPreferred = spec_.strideAcrossRows ||
                              layoutFor(query) == LayoutKind::ColumnStore;
    env.computePerRecord = config_.computePerRecord;
    env.computePerValue = config_.computePerValue;
    env.barrier = [&ports] {
        for (auto &p : ports)
            p->newEpoch();
    };

    const std::uint64_t ecc_corrected_before =
        dataPath_.stats().correctedLines.value();
    const std::uint64_t ecc_uncorr_before =
        dataPath_.stats().uncorrectable.value();
    const RasStats &ras_stats = ras_->stats();
    const std::uint64_t scrubs_before =
        ras_stats.scrubWritebacks.value();
    const std::uint64_t retries_before =
        ras_stats.retriesAttempted.value();
    const std::uint64_t poisoned_before =
        ras_stats.poisonedReads.value();
    const std::uint64_t retired_before = ras_stats.linesRetired.value();

    RunStats rs;
    rs.result = executeQuery(query, env);
    for (auto &p : ports)
        p->flushCaches();

    // ----- Phase 2: timing replay -----------------------------------
    DesignModel model(spec_, mapping_, strideUnit_);
    Device device(geom_, timing_);
    MemoryController controller(device, dataPath_, mapping_, {},
                                /*functional=*/false);
    std::unique_ptr<ProtocolChecker> checker;
    if (config_.check) {
        checker = std::make_unique<ProtocolChecker>(geom_, timing_);
        checker->attach(device);
    }
    std::unique_ptr<Telemetry> telemetry;
    if (config_.telemetry.enabled) {
        telemetry = std::make_unique<Telemetry>(config_.telemetry, geom_,
                                                timing_);
        telemetry->attach(device);
        controller.setTelemetry(telemetry.get());
    }
    rs.cycles = replayEvent(ports, controller, model,
                            config_.mshrsPerCore);
    if (checker) {
        rs.checkedCommands = checker->commandCount();
        if (!checker->clean())
            panic("timing engine emitted an illegal command stream\n",
                  checker->report());
    }
    if (telemetry)
        rs.telemetry = telemetry->finish();

    // ----- Statistics ------------------------------------------------
    const DeviceStats &ds = device.stats();
    if (config_.collectStatsText) {
        std::ostringstream oss;
        StatGroup dev_group("device");
        ds.registerIn(dev_group);
        dev_group.dump(oss);
        StatGroup ctrl_group("controller");
        controller.stats().registerIn(ctrl_group);
        ctrl_group.dump(oss);
        StatGroup ecc_group("ecc");
        dataPath_.stats().registerIn(ecc_group);
        ecc_group.dump(oss);
        StatGroup engine_group("ecc." + eccSchemeName(spec_.ecc));
        dataPath_.ecc().stats().registerIn(engine_group);
        engine_group.dump(oss);
        StatGroup ras_group("ras");
        ras_->stats().registerIn(ras_group);
        ras_group.dump(oss);
        if (injector_) {
            StatGroup fault_group("faults");
            injector_->stats().registerIn(fault_group);
            fault_group.dump(oss);
        }
        for (unsigned c = 0; c < config_.cores; ++c) {
            for (unsigned lvl = 0; lvl < 3; ++lvl) {
                StatGroup cache_group(
                    "core" + std::to_string(c) + ".l" +
                    std::to_string(lvl + 1));
                ports[c]->hierarchy().level(lvl).stats().registerIn(
                    cache_group);
                cache_group.dump(oss);
            }
        }
        rs.statsText = oss.str();
    }
    rs.memReads = ds.reads.value();
    rs.memWrites = ds.writes.value();
    rs.strideReads = ds.strideReads.value();
    rs.strideWrites = ds.strideWrites.value();
    rs.activates = ds.activates.value();
    rs.rowHits = ds.rowHits.value();
    rs.rowMisses = ds.rowMisses.value();
    rs.modeSwitches = ds.modeSwitches.value();
    rs.eccCorrectedLines =
        dataPath_.stats().correctedLines.value() - ecc_corrected_before;
    rs.eccUncorrectable =
        dataPath_.stats().uncorrectable.value() - ecc_uncorr_before;
    rs.scrubWritebacks =
        ras_stats.scrubWritebacks.value() - scrubs_before;
    rs.readRetries = ras_stats.retriesAttempted.value() - retries_before;
    rs.poisonedReads =
        ras_stats.poisonedReads.value() - poisoned_before;
    rs.linesRetired = ras_stats.linesRetired.value() - retired_before;

    const double total_cas =
        static_cast<double>(rs.memReads + rs.memWrites + rs.strideReads +
                            rs.strideWrites);
    const double stride_frac = total_cas > 0
        ? (rs.strideReads + rs.strideWrites) / total_cas
        : 0.0;
    const unsigned chips = spec_.ecc == EccScheme::None ? 16 : 18;
    const PowerModel pm(iddFor(spec_.tech), timing_, chips, spec_.power);
    rs.power = pm.compute(ds, rs.cycles, stride_frac);

    if (query.kind == QueryKind::Update ||
        query.kind == QueryKind::Insert) {
        tp.dirty = true;
    }
    return rs;
}

} // namespace sam
