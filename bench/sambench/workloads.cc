/**
 * @file
 * The four sambench workloads, generated from the seed.
 *
 * Each workload stresses a different part of the simulator (README.md
 * has the full rationale):
 *  - grid_quick: the Fig 12 grid at quick scale, serial. Short traces,
 *    so per-run fixed costs and table set-up dominate.
 *  - grid_full_par: the same grid at full scale on a worker pool --
 *    shared-cache contention, allocator pressure, the slow tail.
 *  - sweep_long: Fig 15 read-only sweeps with ~90k-command traces --
 *    executor, replay, and checker work, no table-set-up work.
 *  - ras_chipkill: the read path under chipkill and transient faults,
 *    where every read leaves the clean-line fast path.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

#include "bench/sambench/sambench.hh"
#include "src/common/logging.hh"
#include "src/common/random.hh"
#include "src/core/session.hh"

namespace sambench {

namespace {

using sam::DesignKind;
using sam::Query;
using sam::RunSpec;
using sam::SimConfig;

/** Fig 12 bar order (the baseline is the speedup denominator). */
const std::vector<DesignKind> kGridDesigns = {
    DesignKind::Baseline, DesignKind::RcNvmBit, DesignKind::RcNvmWord,
    DesignKind::GsDram,   DesignKind::GsDramEcc, DesignKind::SamSub,
    DesignKind::SamIo,    DesignKind::SamEn,     DesignKind::Ideal};

/**
 * Full-scale grid runs that the protocol checker rejects at the parent
 * commit ("refresh #N postponed past ..." tREFI violations), on every
 * replay engine and at any jobs count. A workload must not fail, so
 * they stay out of the timed passes; the traced pass probes them.
 */
const std::set<std::string> kKnownTrefiFailures = {
    "baseline/Q11",  "baseline/Q12", "baseline/Qs5",  "GS-DRAM/Qs5",
    "GS-DRAM-ecc/Qs5", "SAM-sub/Qs5", "SAM-IO/Qs5",   "SAM-en/Qs5",
    "ideal/Qs5",     "GS-DRAM-ecc/Qs6", "SAM-sub/Qs6"};

/** EXPERIMENTS.md Fig 12, paper gmean(Q) speedups. */
const std::vector<std::pair<DesignKind, double>> kPaperGmeanQ = {
    {DesignKind::RcNvmBit, 2.6}, {DesignKind::RcNvmWord, 3.4},
    {DesignKind::GsDram, 4.1},   {DesignKind::GsDramEcc, 2.7},
    {DesignKind::SamSub, 3.8},   {DesignKind::SamIo, 4.1},
    {DesignKind::SamEn, 4.2}};

/** Campaign defaults, as samcampaign sets them. */
SimConfig
baseConfig(std::uint64_t ta, std::uint64_t tb)
{
    SimConfig cfg;
    cfg.taRecords = ta;
    cfg.tbRecords = tb;
    cfg.telemetry.enabled = true;
    cfg.collectStatsText = false;
    return cfg;
}

RunSpec
spec(std::string id, SimConfig cfg, DesignKind design, const Query &q)
{
    cfg.design = design;
    return RunSpec{std::move(id), std::move(cfg), q, false};
}

std::vector<Query>
gridQueries()
{
    std::vector<Query> qs = sam::benchmarkQQueries();
    const std::vector<Query> more = sam::benchmarkQsQueries();
    qs.insert(qs.end(), more.begin(), more.end());
    return qs;
}

std::vector<RunSpec>
gridSpecs(std::uint64_t ta, std::uint64_t tb)
{
    std::vector<RunSpec> specs;
    for (const Query &q : gridQueries()) {
        for (DesignKind d : kGridDesigns) {
            specs.push_back(spec(sam::designName(d) + "/" + q.name,
                                 baseConfig(ta, tb), d, q));
        }
    }
    return specs;
}

std::string
sweepId(const char *kind, unsigned proj, double sel, DesignKind d)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s/p%u/s%u/", kind, proj,
                  static_cast<unsigned>(std::lround(sel * 100)));
    return buf + sam::designName(d);
}

std::vector<RunSpec>
sweepSpecs(std::uint64_t ta, std::uint64_t tb, sam::Rng &rng)
{
    const SimConfig cfg = baseConfig(ta, tb);
    const unsigned nf = cfg.taFields;
    // The seed picks which fields each query projects.
    const std::uint64_t arith_seed = 1 + rng.below(1u << 20);
    const std::uint64_t aggr_seed = 1 + rng.below(1u << 20);
    const std::vector<DesignKind> designs = {
        DesignKind::Baseline, DesignKind::RcNvmWord, DesignKind::GsDramEcc,
        DesignKind::SamEn, DesignKind::Ideal};
    std::vector<RunSpec> specs;
    for (unsigned proj : {2u, 8u, 32u, nf}) {
        for (double sel : {0.1, 0.5, 1.0}) {
            const Query arith = sam::arithQuery(proj, sel, nf, arith_seed);
            const Query aggr = sam::aggrQuery(proj, sel, nf, aggr_seed);
            for (DesignKind d : designs) {
                specs.push_back(
                    spec(sweepId("arith", proj, sel, d), cfg, d, arith));
                specs.push_back(
                    spec(sweepId("aggr", proj, sel, d), cfg, d, aggr));
            }
        }
    }
    return specs;
}

std::vector<RunSpec>
rasSpecs(std::uint64_t records, sam::Rng &rng)
{
    // GS-DRAM-ecc is EccScheme::None by design and silently returns
    // wrong results under chipkill, so it is not a RAS workload.
    const std::vector<DesignKind> designs = {
        DesignKind::Baseline, DesignKind::RcNvmWord, DesignKind::SamSub,
        DesignKind::SamIo, DesignKind::SamEn};
    std::vector<RunSpec> specs;
    for (const Query &q : sam::benchmarkQQueries()) {
        for (DesignKind d : designs) {
            SimConfig kill = baseConfig(records, records);
            kill.faults.model = sam::FaultModel::Chipkill;
            kill.faults.chipkillAt = 50;
            kill.faults.chipkillChip = static_cast<unsigned>(rng.below(18));
            kill.faults.seed = rng.next();
            specs.push_back(spec("chipkill/" + sam::designName(d) + "/" +
                                     q.name,
                                 kill, d, q));

            SimConfig transient = baseConfig(records, records);
            transient.faults.model = sam::FaultModel::Transient;
            transient.faults.fitPerMcycle = 50.0;
            transient.faults.seed = rng.next();
            specs.push_back(spec("transient/" + sam::designName(d) + "/" +
                                     q.name,
                                 transient, d, q));
        }
    }
    return specs;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "grid_quick", "grid_full_par", "sweep_long", "ras_chipkill"};
    return names;
}

Workload
makeWorkload(const std::string &name, std::uint64_t seed, bool smoke)
{
    sam::Rng rng(seed);
    // Multiples of 256 keep every design's gather factor dividing the
    // record count.
    const std::uint64_t tiny = 256;
    Workload w;
    w.name = name;
    if (name == "grid_quick") {
        w.specs = smoke ? gridSpecs(tiny, tiny) : gridSpecs(4096, 8192);
        w.passes = 4;
        w.digestSeedFree = true;
        w.paperGrid = true;
    } else if (name == "grid_full_par") {
        const unsigned cores = sam::ThreadPool::defaultWorkers();
        w.jobs = std::min(4u, cores);
        w.passes = 3;
        w.digestSeedFree = true;
        for (RunSpec &s :
             smoke ? gridSpecs(tiny, tiny) : gridSpecs(16384, 65536)) {
            if (kKnownTrefiFailures.count(s.id))
                w.knownFailures.push_back(std::move(s));
            else
                w.specs.push_back(std::move(s));
        }
    } else if (name == "sweep_long") {
        w.specs = smoke ? sweepSpecs(tiny, tiny, rng)
                        : sweepSpecs(16384, 2048, rng);
    } else if (name == "ras_chipkill") {
        w.specs = smoke ? rasSpecs(tiny, rng) : rasSpecs(16384, rng);
    } else {
        fatal("unknown workload '", name, "'");
    }
    if (smoke)
        w.passes = 1;

    w.order.resize(w.specs.size());
    for (std::size_t i = 0; i < w.order.size(); ++i)
        w.order[i] = i;
    for (std::size_t i = w.order.size(); i > 1; --i)
        std::swap(w.order[i - 1], w.order[rng.below(i)]);
    return w;
}

double
paperErrorPct(const std::map<std::string, sam::Cycle> &cycles)
{
    double err = 0.0;
    for (const auto &[design, paper] : kPaperGmeanQ) {
        std::vector<double> speedups;
        for (const Query &q : sam::benchmarkQQueries()) {
            const double base = static_cast<double>(
                cycles.at("baseline/" + q.name));
            speedups.push_back(base / static_cast<double>(cycles.at(
                sam::designName(design) + "/" + q.name)));
        }
        err += std::fabs(sam::geometricMean(speedups) - paper) / paper;
    }
    return 100.0 * err / static_cast<double>(kPaperGmeanQ.size());
}

} // namespace sambench
