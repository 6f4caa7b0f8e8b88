#include "src/runner/campaign.hh"

#include "src/common/types.hh"

namespace sam {

Json
runResultJson(const RunResult &result)
{
    const RunStats &s = result.stats;
    Json run = Json::object();
    run.set("id", result.id);
    run.set("design", designName(result.design));
    run.set("query", result.query);
    run.set("cycles", s.cycles);
    run.set("energy_pj", s.power.totalEnergyPj());
    run.set("mem_reads", s.memReads);
    run.set("mem_writes", s.memWrites);
    run.set("stride_reads", s.strideReads);
    run.set("stride_writes", s.strideWrites);
    run.set("activates", s.activates);
    run.set("row_hits", s.rowHits);
    run.set("row_misses", s.rowMisses);
    run.set("mode_switches", s.modeSwitches);
    run.set("ecc_corrected_lines", s.eccCorrectedLines);
    run.set("ecc_uncorrectable", s.eccUncorrectable);
    run.set("checked_commands", s.checkedCommands);
    run.set("result_rows", s.result.rows);
    run.set("result_checksum", s.result.checksum);
    run.set("wall_ms", result.wallMs);
    // Simulation throughput in records/second of host wall time: a
    // perf-smoke metric, wall-clock-derived and therefore exempt from
    // bit-identity and bench_diff comparison (like wall_ms).
    run.set("throughput", result.wallMs > 0
                              ? static_cast<double>(result.records) *
                                    1e3 / result.wallMs
                              : 0.0);
    // Per-class latency percentiles when the run collected telemetry.
    if (s.telemetry)
        run.set("latency_cycles", s.telemetry->latencyJson());
    return run;
}

} // namespace sam
