/**
 * @file
 * The paper's figure campaigns, defined once: the quick/full/paper
 * scale table, the Fig 12 (speedup), Fig 13 (power) and Fig 15
 * (sweep) grids, the metrics they plot, and the BENCH_<fig>.json
 * document (`sam-campaign-v1`). samcampaign and the figure benches
 * build their grids here, so a bench run and a samcampaign run of one
 * figure are the same campaign, and a printed table and the document's
 * `derived` block come from the same functions.
 *
 * Nothing here reads the environment or a clock: callers pick the
 * scale and measure wall time.
 */

#ifndef SAM_RUNNER_FIGURES_HH
#define SAM_RUNNER_FIGURES_HH

#include <map>
#include <string>
#include <vector>

#include "src/common/json.hh"
#include "src/runner/supervisor.hh"

namespace sam {

/** Benchmark scale: the table sizes of the figure campaigns. */
enum class Scale { Quick, Full, Paper };

const char *scaleName(Scale scale);

/** Parse "quick", "full" or "paper"; false for anything else. */
bool parseScale(const std::string &name, Scale &scale);

/**
 * The configuration every campaign run starts from. Table sizes come
 * from the scale: paper is Table 2's 10M records per table; quick
 * (Ta 4K, Tb 8K) and full (Ta 16K x 1KB, Tb 64K x 128B) scale down
 * with selectivity, projectivity and layout alignment preserved, so
 * relative shapes hold (DESIGN.md, Substitutions). Latency telemetry
 * is on (the collector is passive, so cycles are identical either
 * way) and the stats text is off (no BENCH record carries it).
 */
SimConfig campaignConfig(Scale scale);

/** The designs of Figure 12, in the paper's bar order. */
const std::vector<DesignKind> &figureDesigns();

/** Figure 13's designs: Figure 12's without the layout-only ideal. */
const std::vector<DesignKind> &powerDesigns();

/** The Figure 15 panel designs. */
const std::vector<DesignKind> &sweepDesigns();

/**
 * One campaign: its specs, deduplicated by id, and once run, their
 * outcomes. Figures look results up by id.
 */
struct FigureCampaign
{
    /** BENCH file stem and journal campaign name, e.g. "fig12". */
    std::string name;
    std::vector<RunSpec> specs;
    /** Run id -> spec index, in id order. */
    std::map<std::string, std::size_t> index;
    /** The figure's `derived` block; null when the grid has none. */
    Json (*derived)(const FigureCampaign &) = nullptr;
    /** Outcomes in spec order, once a Supervisor has run `specs`. */
    SupervisorReport report;

    /** Queue a run; a duplicate id keeps the first spec. */
    void add(std::string id, const SimConfig &config, const Query &query,
             bool verify);
    /** Queue `design` on `query`; the id is "<design>/<query>". */
    void add(DesignKind design, const SimConfig &base,
             const Query &query, bool verify);

    /** Statistics of a completed run; panics on unknown or failed. */
    const RunStats &stats(const std::string &id) const;

    /** Baseline cycles over design cycles. */
    double speedup(const std::string &design_id,
                   const std::string &base_id) const;
};

/** Campaign names in `--fig all` order: fig12, fig13, fig15. */
const std::vector<std::string> &figureNames();

/** Build figure campaign `name`, one of figureNames(). */
FigureCampaign buildFigure(const std::string &name, Scale scale,
                           bool verify);

// ----- Fig 12: speedup ----------------------------------------------

/** Speedup of `design` on `query` over the row-store baseline. */
double fig12Speedup(const FigureCampaign &fig, DesignKind design,
                    const Query &query);

/** Geometric mean of fig12Speedup over `queries`. */
double fig12Gmean(const FigureCampaign &fig, DesignKind design,
                  const std::vector<Query> &queries);

// ----- Fig 13: power by query category ------------------------------

struct PowerCategory
{
    /** Key in the derived block, e.g. "read_q". */
    std::string key;
    /** Table caption, e.g. "Read (Q1-Q10)". */
    std::string title;
    std::vector<Query> queries;
};

/** Read Q1-Q10, write Q11-Q12, read Qs1-Qs4, write Qs5-Qs6. */
std::vector<PowerCategory> powerCategories();

/** Energy and elapsed time of `design` summed over `queries`. */
PowerBreakdown categoryPower(const FigureCampaign &fig,
                             DesignKind design,
                             const std::vector<Query> &queries);

/** Baseline energy over design energy; 0 when the design used none. */
double energyEfficiency(const PowerBreakdown &base,
                        const PowerBreakdown &design);

// ----- Fig 15: sweeps ----------------------------------------------

/** Fig 15's tables: the scale's, with a smaller Ta. */
SimConfig sweepConfig(Scale scale);

/** The sweep axes over a table of `fields` fields. */
struct SweepAxes
{
    /** x axis of panels (a)-(c) and (g). */
    std::vector<double> selectivities;
    /** x axis of panels (d)-(f) and (h). */
    std::vector<unsigned> projectivities;
    /** Projected fields of panels (a)-(c). */
    std::vector<unsigned> selectivityPanels;
    /** Selectivities of panels (d)-(f). */
    std::vector<double> projectivityPanels;
};

SweepAxes sweepAxes(unsigned fields);

/** Stable id of one sweep point, e.g. "arith/p8/s40". */
std::string sweepPointId(const char *kind, unsigned proj, double sel);

/** Queue one sweep point: the baseline plus every panel design. */
void addSweepPoint(FigureCampaign &fig, const SimConfig &config,
                   const std::string &point, const Query &query,
                   bool verify);

// ----- reporting ---------------------------------------------------

/**
 * The campaign's BENCH_<name>.json document: every completed run's
 * record in spec order, the scale, the verify flag and the wall-clock
 * totals (`wall_ms` is the caller's measurement), then the figure's
 * `derived` block when every run completed, or a `failed` row per run
 * that did not.
 */
Json benchDocument(const FigureCampaign &fig, unsigned jobs, Scale scale,
                   bool verified, double wall_ms);

/**
 * One line per failed run: "<name>: FAILED <id> after <n> attempt(s):
 * <error> (<kind>)".
 */
std::string failureLines(const FigureCampaign &fig);

} // namespace sam

#endif // SAM_RUNNER_FIGURES_HH
