/**
 * @file
 * Every library call the traced pass makes, in one place.
 *
 * composeRun() rebuilds System::runQuery out of the public layer APIs
 * so each layer can be timed on its own; warmTableCache() rebuilds
 * System::tablesFor's table construction. When a layer API changes,
 * this is the file to follow up. The traced pass checks every composed
 * run against a Session::run of the same spec, so drift from the real
 * pipeline fails the benchmark instead of mis-attributing time.
 */

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <tuple>

#include "bench/sambench/sambench.hh"
#include "src/check/protocol_checker.hh"
#include "src/common/logging.hh"
#include "src/controller/address_mapping.hh"
#include "src/controller/controller.hh"
#include "src/designs/design.hh"
#include "src/designs/design_model.hh"
#include "src/dram/data_path.hh"
#include "src/dram/device.hh"
#include "src/ecc/ecc_engine.hh"
#include "src/faults/fault_injector.hh"
#include "src/faults/ras_engine.hh"
#include "src/imdb/executor.hh"
#include "src/imdb/table.hh"
#include "src/power/power_model.hh"
#include "src/sim/core_port.hh"
#include "src/sim/replay_engine.hh"
#include "src/telemetry/telemetry.hh"

namespace sambench {

using namespace sam;

namespace {

const auto kEpoch = std::chrono::steady_clock::now();

/** System's per-layout table slot (it spaces layouts apart). */
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

TableSchema
taSchema(const SimConfig &cfg)
{
    return TableSchema{"Ta", cfg.taFields, cfg.taRecords};
}

TableSchema
tbSchema(const SimConfig &cfg)
{
    return TableSchema{"Tb", cfg.tbFields, cfg.tbRecords};
}

/** System::layoutFor: the Ideal design picks a layout per query. */
LayoutKind
layoutFor(const DesignSpec &design, const SimConfig &cfg, const Query &q)
{
    if (design.kind != DesignKind::Ideal)
        return design.layout;
    const TableSchema schema =
        q.table == TableRef::Ta ? taSchema(cfg) : tbSchema(cfg);
    const unsigned gather = kCachelineBytes / strideUnitBytes(cfg.ecc);
    if (q.rowPreferred ||
        !choosePlan(q, schema, gather, /*has_row_fallback=*/false)
             .worthColumns)
        return LayoutKind::RowStore;
    return LayoutKind::ColumnStore;
}

struct TablePair
{
    Table ta;
    Table tb;
};

/** System::tablesFor's Table construction (bases, span, gather). */
TablePair
makeTables(const SimConfig &cfg, LayoutKind layout, const Geometry &geom)
{
    const std::uint64_t need =
        2 * std::max(taSchema(cfg).sizeBytes(), tbSchema(cfg).sizeBytes());
    Addr span = Addr{1} << 30;
    while (span < need)
        span <<= 1;
    const Addr slot = layoutIndex(layout);
    const unsigned gather = kCachelineBytes / strideUnitBytes(cfg.ecc);
    return TablePair{
        Table(taSchema(cfg), (slot * 2 + 1) * span, layout, gather, geom),
        Table(tbSchema(cfg), (slot * 2 + 2) * span, layout, gather, geom)};
}

} // namespace

double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - kEpoch)
        .count();
}

SetupReport
warmTableCache(const std::vector<RunSpec> &specs, TableCache &cache)
{
    // Everything a TableCache build depends on; the bases follow from
    // the layout and the table sizes.
    using Key = std::tuple<LayoutKind, unsigned, unsigned, std::uint64_t,
                           unsigned, std::uint64_t, unsigned>;
    std::map<Key, const RunSpec *> pairs;
    for (const RunSpec &s : specs) {
        const SimConfig &c = s.config;
        const DesignSpec design =
            makeDesign(c.design, c.ecc, c.tech, c.overrideTech);
        pairs.emplace(Key{layoutFor(design, c, s.query),
                          EccEngine::parityBytesFor(design.ecc),
                          kCachelineBytes / strideUnitBytes(c.ecc),
                          c.taRecords, c.taFields, c.tbRecords, c.tbFields},
                      &s);
    }

    SetupReport report;
    const Geometry geom;
    const double t0 = nowMs();
    for (const auto &[key, s] : pairs) {
        const SimConfig &c = s->config;
        const DesignSpec design =
            makeDesign(c.design, c.ecc, c.tech, c.overrideTech);
        const TablePair tables =
            makeTables(c, std::get<0>(key), geom);
        const double p0 = nowMs();
        const auto snap = cache.materialized(tables.ta, tables.tb,
                                             design.ecc);
        report.pairMs.push_back(nowMs() - p0);
        report.snapshotMb +=
            static_cast<double>(snap->arena.size() +
                                snap->addrs.size() * sizeof(Addr)) /
            (1024.0 * 1024.0);
    }
    report.seconds = (nowMs() - t0) / 1e3;
    return report;
}

int
SpanLog::begin(std::string name, int run, int parent)
{
    spans_.push_back(Span{std::move(name), nowMs(), 0.0, parent, run});
    return static_cast<int>(spans_.size()) - 1;
}

void
SpanLog::end(int span)
{
    spans_[span].endMs = nowMs();
}

Json
SpanLog::chromeTrace(const std::string &workload,
                     const std::vector<RunSpec> &specs) const
{
    Json events = Json::array();
    Json process = Json::object();
    process.set("ph", "M");
    process.set("pid", 1);
    process.set("name", "process_name");
    Json pname = Json::object();
    pname.set("name", "sambench " + workload);
    process.set("args", std::move(pname));
    events.push(std::move(process));
    Json thread = Json::object();
    thread.set("ph", "M");
    thread.set("pid", 1);
    thread.set("tid", 1);
    thread.set("name", "thread_name");
    Json tname = Json::object();
    tname.set("name", "traced pass (serial)");
    thread.set("args", std::move(tname));
    events.push(std::move(thread));

    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        Json e = Json::object();
        e.set("name", s.name);
        e.set("cat", "sambench");
        e.set("ph", "X");
        e.set("pid", 1);
        e.set("tid", 1);
        e.set("ts", s.startMs * 1e3);
        e.set("dur", (s.endMs - s.startMs) * 1e3);
        Json args = Json::object();
        args.set("span", static_cast<std::int64_t>(i));
        args.set("parent", s.parent);
        args.set("parent_name",
                 s.parent < 0 ? std::string() : spans_[s.parent].name);
        args.set("run", s.run);
        args.set("run_id", s.run < 0 ? std::string() : specs[s.run].id);
        e.set("args", std::move(args));
        events.push(std::move(e));
    }
    Json doc = Json::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", "ms");
    return doc;
}

RunStats
composeRun(const RunSpec &spec, TableCache &cache, int run, int parent,
           SpanLog &log, LayerTotals &t)
{
    const SimConfig &cfg = spec.config;
    const Query &query = spec.query;

    // What System's constructor builds (Session::system's share, timed
    // separately by the caller as core.setup_ms).
    const DesignSpec design =
        makeDesign(cfg.design, cfg.ecc, cfg.tech, cfg.overrideTech);
    const Geometry geom;
    const TimingParams timing =
        timingFor(design.tech).derated(design.areaOverhead);
    const unsigned stride_unit = strideUnitBytes(cfg.ecc);
    const AddressMapping mapping(geom);
    DataPath data_path(design.ecc);
    RasEngine ras(cfg.ras);
    data_path.setRasPolicy(&ras);
    std::unique_ptr<FaultInjector> injector;
    if (cfg.faults.model != FaultModel::None) {
        injector = std::make_unique<FaultInjector>(cfg.faults);
        data_path.setFaultHook(injector.get());
    }

    RunStats rs;
    const int root = log.begin("compose", run, parent);
    const LayoutKind layout = layoutFor(design, cfg, query);
    std::optional<TablePair> tables;
    {
        SpanScope s(log, "table.install", run, root, &t.installMs);
        tables.emplace(makeTables(cfg, layout, geom));
        data_path.store().install(
            cache.materialized(tables->ta, tables->tb, design.ecc));
    }
    data_path.beginRun();

    // ----- Phase 1: functional execution + trace capture -------------
    const unsigned sector_bytes =
        design.supportsStride ? stride_unit : kCachelineBytes;
    std::vector<std::unique_ptr<CorePort>> ports;
    ExecEnv env;
    {
        SpanScope s(log, "cache.port_build", run, root, &t.portBuildMs);
        for (unsigned c = 0; c < cfg.cores; ++c) {
            ports.push_back(std::make_unique<CorePort>(
                c, cfg.caches, sector_bytes, data_path));
            env.ports.push_back(ports.back().get());
        }
    }
    env.ta = &tables->ta;
    env.tb = &tables->tb;
    env.useStride = design.supportsStride && !query.rowPreferred;
    env.strideUnit = stride_unit;
    env.fieldMajorPreferred =
        design.strideAcrossRows || layout == LayoutKind::ColumnStore;
    env.computePerRecord = cfg.computePerRecord;
    env.computePerValue = cfg.computePerValue;
    env.barrier = [&ports] {
        for (auto &p : ports)
            p->newEpoch();
    };
    {
        SpanScope s(log, "imdb.exec", run, root, &t.execMs);
        rs.result = executeQuery(query, env);
    }
    {
        SpanScope s(log, "cache.flush", run, root, &t.flushMs);
        for (auto &p : ports)
            p->flushCaches();
    }

    // ----- Phase 2: timing replay -------------------------------------
    // Declaration order is teardown order in reverse: the telemetry
    // collector and the controller unhook from the device first.
    std::optional<DesignModel> model;
    std::optional<Device> device;
    std::optional<MemoryController> controller;
    std::optional<Telemetry> telemetry;
    std::vector<Command> commands;
    {
        SpanScope s(log, "sim.replay_build", run, root, &t.replayBuildMs);
        model.emplace(design, mapping, stride_unit);
        device.emplace(geom, timing);
        controller.emplace(*device, data_path, mapping, ControllerParams{},
                           /*functional=*/false);
        device->addCommandObserver(
            &commands, [&commands](const Command &c) {
                commands.push_back(c);
            });
        if (cfg.telemetry.enabled) {
            telemetry.emplace(cfg.telemetry, geom, timing);
            telemetry->attach(*device);
            controller->setTelemetry(&*telemetry);
        }
    }
    {
        SpanScope s(log, "sim.replay", run, root, &t.replayMs);
        rs.cycles =
            replayEvent(ports, *controller, *model, cfg.mshrsPerCore);
    }
    device->removeCommandObserver(&commands);
    if (cfg.check) {
        SpanScope s(log, "check", run, root, &t.checkMs);
        ProtocolChecker checker(geom, timing);
        for (const Command &c : commands)
            checker.observe(c);
        rs.checkedCommands = checker.commandCount();
        t.violations += checker.violations().size();
    }
    if (telemetry) {
        SpanScope s(log, "telemetry.finish", run, root,
                    &t.telemetryFinishMs);
        rs.telemetry = telemetry->finish();
    }

    // ----- Statistics (System::runQuery's RunStats fields) ------------
    const DeviceStats &ds = device->stats();
    rs.memReads = ds.reads.value();
    rs.memWrites = ds.writes.value();
    rs.strideReads = ds.strideReads.value();
    rs.strideWrites = ds.strideWrites.value();
    rs.activates = ds.activates.value();
    rs.rowHits = ds.rowHits.value();
    rs.rowMisses = ds.rowMisses.value();
    rs.modeSwitches = ds.modeSwitches.value();
    rs.eccCorrectedLines = data_path.stats().correctedLines.value();
    rs.eccUncorrectable = data_path.stats().uncorrectable.value();
    const RasStats &ras_stats = ras.stats();
    rs.scrubWritebacks = ras_stats.scrubWritebacks.value();
    rs.readRetries = ras_stats.retriesAttempted.value();
    rs.poisonedReads = ras_stats.poisonedReads.value();
    rs.linesRetired = ras_stats.linesRetired.value();
    {
        SpanScope s(log, "power", run, root, &t.powerMs);
        const double total_cas = static_cast<double>(
            rs.memReads + rs.memWrites + rs.strideReads + rs.strideWrites);
        const double stride_frac =
            total_cas > 0 ? (rs.strideReads + rs.strideWrites) / total_cas
                          : 0.0;
        const unsigned chips = design.ecc == EccScheme::None ? 16 : 18;
        const PowerModel pm(iddFor(design.tech), timing, chips,
                            design.power);
        rs.power = pm.compute(ds, rs.cycles, stride_frac);
    }
    log.end(root);
    t.composeMs += log.durationMs(root);

    // ----- Per-layer counts ------------------------------------------
    for (const auto &p : ports) {
        for (unsigned lvl = 0; lvl < 3; ++lvl) {
            const CacheStats &cs = p->hierarchy().level(lvl).stats();
            t.cacheHits[lvl] += cs.hits.value();
            t.cacheMisses[lvl] += cs.misses.value();
            t.dirtyEvictions += cs.dirtyEvictions.value();
        }
        t.traceEntries += p->trace().entries.size();
    }
    t.linesChecked += data_path.stats().linesChecked.value();
    t.correctedLines += rs.eccCorrectedLines;
    t.uncorrectable += rs.eccUncorrectable;
    t.scrubWritebacks += rs.scrubWritebacks;
    t.retries += rs.readRetries;
    t.cycles += rs.cycles;
    t.commands += commands.size();
    const ControllerStats &cst = controller->stats();
    t.requests += cst.readsServed.value() + cst.writesServed.value() +
                  cst.strideReadsServed.value() +
                  cst.strideWritesServed.value();
    t.rowHitPicks += cst.frRowHitPicks.value();
    t.fcfsPicks += cst.fcfsPicks.value();
    t.readsServed +=
        cst.readsServed.value() + cst.strideReadsServed.value();
    t.readLatencyCycles += cst.totalReadLatency.value();
    t.activates += ds.activates.value();
    t.refreshes += ds.refreshes.value();
    t.modeSwitches += ds.modeSwitches.value();
    t.busBusyCycles += ds.busBusyCycles.value();

    // ----- Telemetry overhead: the same ports replayed without it -----
    {
        DesignModel plain_model(design, mapping, stride_unit);
        Device plain_device(geom, timing);
        MemoryController plain_controller(plain_device, data_path, mapping,
                                          ControllerParams{},
                                          /*functional=*/false);
        std::vector<Command> plain_commands;
        plain_device.addCommandObserver(
            &plain_commands, [&plain_commands](const Command &c) {
                plain_commands.push_back(c);
            });
        Cycle plain_cycles = 0;
        {
            SpanScope s(log, "telemetry.replay_off", run, parent,
                        &t.replayNoTelemetryMs);
            plain_cycles = replayEvent(ports, plain_controller, plain_model,
                                       cfg.mshrsPerCore);
        }
        plain_device.removeCommandObserver(&plain_commands);
        if (plain_cycles != rs.cycles)
            ++t.telemetryCycleMismatches;
    }
    return rs;
}

} // namespace sambench
