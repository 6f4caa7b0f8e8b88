#include "src/runner/figures.hh"

#include "src/common/logging.hh"
#include "src/core/session.hh"

namespace sam {

const char *
scaleName(Scale scale)
{
    switch (scale) {
      case Scale::Quick: return "quick";
      case Scale::Full:  return "full";
      case Scale::Paper: return "paper";
    }
    panic("unknown Scale");
}

bool
parseScale(const std::string &name, Scale &scale)
{
    for (Scale s : {Scale::Quick, Scale::Full, Scale::Paper}) {
        if (name == scaleName(s)) {
            scale = s;
            return true;
        }
    }
    return false;
}

SimConfig
campaignConfig(Scale scale)
{
    SimConfig cfg;
    switch (scale) {
      case Scale::Quick:
        cfg.taRecords = 4096;
        cfg.tbRecords = 8192;
        break;
      case Scale::Full:
        cfg.taRecords = 16384;
        cfg.tbRecords = 65536;
        break;
      case Scale::Paper:
        cfg.taRecords = 10'000'000;
        cfg.tbRecords = 10'000'000;
        break;
    }
    cfg.telemetry.enabled = true;
    cfg.collectStatsText = false;
    return cfg;
}

const std::vector<DesignKind> &
figureDesigns()
{
    static const std::vector<DesignKind> designs = {
        DesignKind::RcNvmBit, DesignKind::RcNvmWord,
        DesignKind::GsDram,   DesignKind::GsDramEcc,
        DesignKind::SamSub,   DesignKind::SamIo,
        DesignKind::SamEn,    DesignKind::Ideal};
    return designs;
}

const std::vector<DesignKind> &
powerDesigns()
{
    // The ideal is Figure 12's last bar.
    static const std::vector<DesignKind> designs(
        figureDesigns().begin(), figureDesigns().end() - 1);
    return designs;
}

const std::vector<DesignKind> &
sweepDesigns()
{
    static const std::vector<DesignKind> designs = {
        DesignKind::RcNvmWord, DesignKind::GsDramEcc, DesignKind::SamEn,
        DesignKind::Ideal};
    return designs;
}

// ----- FigureCampaign ------------------------------------------------

void
FigureCampaign::add(std::string id, const SimConfig &config,
                    const Query &query, bool verify)
{
    if (index.count(id))
        return;
    index.emplace(id, specs.size());
    specs.push_back(RunSpec{std::move(id), config, query, verify});
}

void
FigureCampaign::add(DesignKind design, const SimConfig &base,
                    const Query &query, bool verify)
{
    SimConfig cfg = base;
    cfg.design = design;
    add(designName(design) + "/" + query.name, cfg, query, verify);
}

const RunStats &
FigureCampaign::stats(const std::string &id) const
{
    const auto it = index.find(id);
    sam_assert(it != index.end(), "no campaign run '", id, "'");
    const SupervisedRun &run = report.runs.at(it->second);
    sam_assert(run.succeeded(), "campaign run '", id, "' failed");
    return run.result.stats;
}

double
FigureCampaign::speedup(const std::string &design_id,
                        const std::string &base_id) const
{
    const Cycle d = stats(design_id).cycles;
    const Cycle b = stats(base_id).cycles;
    sam_assert(d > 0 && b > 0, "run produced no work");
    return static_cast<double>(b) / static_cast<double>(d);
}

// ----- figure grids --------------------------------------------------

namespace {

Json
derivedFig12(const FigureCampaign &fig)
{
    Json speedups = Json::object();
    Json gmean_q = Json::object();
    Json gmean_qs = Json::object();
    const auto qq = benchmarkQQueries();
    const auto qs = benchmarkQsQueries();
    for (DesignKind d : figureDesigns()) {
        Json per_query = Json::object();
        for (const auto *queries : {&qq, &qs}) {
            for (const Query &q : *queries)
                per_query.set(q.name, fig12Speedup(fig, d, q));
        }
        speedups.set(designName(d), std::move(per_query));
        gmean_q.set(designName(d), fig12Gmean(fig, d, qq));
        gmean_qs.set(designName(d), fig12Gmean(fig, d, qs));
    }
    Json derived = Json::object();
    derived.set("speedup", std::move(speedups));
    derived.set("gmean_q", std::move(gmean_q));
    derived.set("gmean_qs", std::move(gmean_qs));
    return derived;
}

Json
derivedFig13(const FigureCampaign &fig)
{
    Json derived = Json::object();
    for (const PowerCategory &cat : powerCategories()) {
        const PowerBreakdown base =
            categoryPower(fig, DesignKind::Baseline, cat.queries);
        Json rows = Json::object();
        for (DesignKind d : powerDesigns()) {
            const PowerBreakdown p = categoryPower(fig, d, cat.queries);
            Json row = Json::object();
            row.set("total_mw", p.totalPowerMw());
            row.set("energy_eff", energyEfficiency(base, p));
            rows.set(designName(d), std::move(row));
        }
        derived.set(cat.key, std::move(rows));
    }
    return derived;
}

Json
derivedFig15(const FigureCampaign &fig)
{
    Json speedups = Json::object();
    for (const auto &[id, idx] : fig.index) {
        (void)idx;
        const auto slash = id.rfind('/');
        if (id.substr(slash + 1) == "baseline")
            continue;
        speedups.set(id, fig.speedup(id, id.substr(0, slash) +
                                             "/baseline"));
    }
    Json derived = Json::object();
    derived.set("speedup", std::move(speedups));
    return derived;
}

/** Fig 12 and 13: the baseline plus `designs` on every query. */
void
addQueryGrid(FigureCampaign &fig, const std::vector<DesignKind> &designs,
             Scale scale, bool verify)
{
    const SimConfig cfg = campaignConfig(scale);
    for (const auto &queries : {benchmarkQQueries(), benchmarkQsQueries()}) {
        for (const Query &q : queries) {
            fig.add(DesignKind::Baseline, cfg, q, false);
            for (DesignKind d : designs)
                fig.add(d, cfg, q, verify);
        }
    }
}

void
addSweepGrid(FigureCampaign &fig, Scale scale, bool verify)
{
    const SimConfig cfg = sweepConfig(scale);
    const unsigned nf = cfg.taFields;
    const SweepAxes axes = sweepAxes(nf);
    for (unsigned proj : axes.selectivityPanels)
        for (double sel : axes.selectivities)
            addSweepPoint(fig, cfg, sweepPointId("arith", proj, sel),
                          arithQuery(proj, sel, nf), verify);
    for (double sel : axes.projectivityPanels)
        for (unsigned proj : axes.projectivities)
            addSweepPoint(fig, cfg, sweepPointId("arith", proj, sel),
                          arithQuery(proj, sel, nf), verify);
    for (double sel : axes.selectivities)
        addSweepPoint(fig, cfg, sweepPointId("aggr", 8, sel),
                      aggrQuery(8, sel, nf), verify);
    for (unsigned proj : axes.projectivities)
        addSweepPoint(fig, cfg, sweepPointId("aggr", proj, 1.0),
                      aggrQuery(proj, 1.0, nf), verify);
}

} // namespace

const std::vector<std::string> &
figureNames()
{
    static const std::vector<std::string> names = {"fig12", "fig13",
                                                   "fig15"};
    return names;
}

FigureCampaign
buildFigure(const std::string &name, Scale scale, bool verify)
{
    FigureCampaign fig;
    fig.name = name;
    if (name == "fig12") {
        fig.derived = derivedFig12;
        addQueryGrid(fig, figureDesigns(), scale, verify);
    } else if (name == "fig13") {
        fig.derived = derivedFig13;
        addQueryGrid(fig, powerDesigns(), scale, verify);
    } else {
        sam_assert(name == "fig15", "unknown figure campaign '", name,
                   "'");
        fig.derived = derivedFig15;
        addSweepGrid(fig, scale, verify);
    }
    return fig;
}

// ----- metrics -------------------------------------------------------

double
fig12Speedup(const FigureCampaign &fig, DesignKind design,
             const Query &query)
{
    return fig.speedup(designName(design) + "/" + query.name,
                       "baseline/" + query.name);
}

double
fig12Gmean(const FigureCampaign &fig, DesignKind design,
           const std::vector<Query> &queries)
{
    std::vector<double> speedups;
    for (const Query &q : queries)
        speedups.push_back(fig12Speedup(fig, design, q));
    return geometricMean(speedups);
}

std::vector<PowerCategory>
powerCategories()
{
    std::vector<PowerCategory> cats = {
        {"read_q", "Read (Q1-Q10)", {}},
        {"write_q", "Write (Q11,Q12)", {}},
        {"read_qs", "Read (Qs1-Qs4)", {}},
        {"write_qs", "Write (Qs5,Qs6)", {}},
    };
    const auto qq = benchmarkQQueries();
    const auto qs = benchmarkQsQueries();
    for (std::size_t i = 0; i < qq.size(); ++i)
        cats[i < 10 ? 0 : 1].queries.push_back(qq[i]);
    for (std::size_t i = 0; i < qs.size(); ++i)
        cats[i < 4 ? 2 : 3].queries.push_back(qs[i]);
    return cats;
}

PowerBreakdown
categoryPower(const FigureCampaign &fig, DesignKind design,
              const std::vector<Query> &queries)
{
    PowerBreakdown sum;
    for (const Query &q : queries) {
        const PowerBreakdown &p =
            fig.stats(designName(design) + "/" + q.name).power;
        sum.actEnergyPj += p.actEnergyPj;
        sum.rdwrEnergyPj += p.rdwrEnergyPj;
        sum.backgroundEnergyPj += p.backgroundEnergyPj;
        sum.refreshEnergyPj += p.refreshEnergyPj;
        sum.elapsedNs += p.elapsedNs;
    }
    return sum;
}

double
energyEfficiency(const PowerBreakdown &base, const PowerBreakdown &design)
{
    return design.totalEnergyPj() > 0
               ? base.totalEnergyPj() / design.totalEnergyPj()
               : 0.0;
}

SimConfig
sweepConfig(Scale scale)
{
    SimConfig cfg = campaignConfig(scale);
    cfg.taRecords = scale == Scale::Quick ? 2048 : 8192;
    cfg.tbRecords = 2048; // unused by the Ta-only sweeps
    return cfg;
}

SweepAxes
sweepAxes(unsigned fields)
{
    return SweepAxes{
        {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0},
        {2, 4, 8, 16, 32, 64, fields},
        {8, 64, fields},
        {0.1, 0.5, 1.0},
    };
}

std::string
sweepPointId(const char *kind, unsigned proj, double sel)
{
    return std::string(kind) + "/p" + std::to_string(proj) + "/s" +
           std::to_string(static_cast<unsigned>(sel * 100 + 0.5));
}

void
addSweepPoint(FigureCampaign &fig, const SimConfig &config,
              const std::string &point, const Query &query, bool verify)
{
    SimConfig base = config;
    base.design = DesignKind::Baseline;
    fig.add(point + "/baseline", base, query, false);
    for (DesignKind d : sweepDesigns()) {
        SimConfig cfg = config;
        cfg.design = d;
        fig.add(point + "/" + designName(d), cfg, query, verify);
    }
}

// ----- reporting -----------------------------------------------------

Json
benchDocument(const FigureCampaign &fig, unsigned jobs, Scale scale,
              bool verified, double wall_ms)
{
    // runs[] re-emits each journal/worker record verbatim -- that,
    // plus spec-order results, is what keeps resumed output
    // bit-identical.
    double run_ms = 0.0;
    std::uint64_t records = 0;
    Json runs = Json::array();
    Json failed = Json::array();
    for (std::size_t i = 0; i < fig.specs.size(); ++i) {
        const SupervisedRun &run = fig.report.runs.at(i);
        records += fig.specs[i].config.taRecords;
        if (run.succeeded()) {
            run_ms += run.result.wallMs;
            runs.push(run.record);
            continue;
        }
        Json row = Json::object();
        row.set("id", fig.specs[i].id);
        row.set("failure", failureKindName(run.failure));
        row.set("error", run.error);
        row.set("attempts", run.attempts);
        failed.push(std::move(row));
    }

    Json doc = Json::object();
    doc.set("schema", "sam-campaign-v1");
    doc.set("campaign", fig.name);
    doc.set("jobs", jobs);
    doc.set("runs", std::move(runs));
    doc.set("scale", scaleName(scale));
    doc.set("verified", verified);
    doc.set("wall_ms", wall_ms);
    doc.set("run_wall_ms_total", run_ms);
    // Campaign throughput in records/second of wall time --
    // wall-derived, so exempt from bench_diff and resume bit-identity
    // (like wall_ms).
    doc.set("throughput", wall_ms > 0 ? static_cast<double>(records) *
                                            1e3 / wall_ms
                                      : 0.0);
    if (!fig.report.allDone())
        doc.set("failed", std::move(failed));
    else if (fig.derived != nullptr)
        doc.set("derived", fig.derived(fig));
    return doc;
}

std::string
failureLines(const FigureCampaign &fig)
{
    std::string lines;
    for (std::size_t i = 0; i < fig.report.runs.size(); ++i) {
        const SupervisedRun &run = fig.report.runs[i];
        if (!run.succeeded())
            lines += fig.name + ": FAILED " + fig.specs[i].id +
                     " after " + std::to_string(run.attempts) +
                     " attempt(s): " + run.error + " (" +
                     failureKindName(run.failure) + ")\n";
    }
    return lines;
}

} // namespace sam
