/**
 * @file
 * Figure 15 reproduction: speedup (normalized to row-store) of
 * RC-NVM-wd, GS-DRAM-ecc, SAM-en, and the ideal store on the
 * parameterized arithmetic and aggregate queries:
 *
 *   (a)-(c) arithmetic query, selectivity sweep at 8 / 64 / all
 *           projected fields;
 *   (d)-(f) arithmetic query, projectivity sweep at 10% / 50% / 100%
 *           selectivity;
 *   (g)     aggregate query, selectivity sweep at 8 projected fields;
 *   (h)     aggregate query, projectivity sweep at 100% selectivity;
 *   (i)     record-size sweep at 100% selectivity and projectivity.
 *
 * Panels (a)-(h) are samcampaign's fig15 campaign
 * (src/runner/figures.hh); the record-size points of (i) are this
 * bench's own. Every sweep point is an independent simulation; the
 * whole grid (deduplicated across overlapping panels) fans out across
 * the SAM_JOBS campaign pool before the panels are printed.
 *
 * Paper reference shapes: speedup rises with selectivity and falls
 * with projectivity (the row store catches up); the aggregate query
 * lifts RC-NVM-wd to SAM-en's level (field-major processing removes
 * its field-switch penalty); in (i) only RC-NVM-wd degrades as records
 * grow (its vertical alignment thrashes rows on full scans).
 */

#include "bench/bench_common.hh"

using namespace sam;
using namespace sam::bench;

namespace {

const std::vector<unsigned> kRecordFields = {1, 2, 4, 8, 16, 32, 64, 128};

/** Stable id of one record-size point, e.g. "rec64B". */
std::string
recordId(unsigned fields)
{
    return "rec" + std::to_string(fields * 8) + "B";
}

/** Print one panel row from the campaign results. */
void
panelRow(const FigureCampaign &camp, const std::string &point,
         TablePrinter &tp, const std::string &x_label)
{
    std::vector<std::string> row{x_label};
    for (DesignKind d : sweepDesigns())
        row.push_back(fmtNum(camp.speedup(point + "/" + designName(d),
                                          point + "/baseline")));
    tp.row(row);
}

std::vector<std::string>
panelHeader(const std::string &x_name)
{
    std::vector<std::string> head{x_name};
    for (DesignKind d : sweepDesigns())
        head.push_back(designName(d));
    return head;
}

} // namespace

int
main()
{
    setQuietLogging(true);
    printHeader("Figure 15",
                "Speedup sweeps of the arithmetic / aggregate queries "
                "over selectivity, projectivity, and record size");

    const SimConfig cfg = sweepConfig(scaleMode());
    const unsigned nf = cfg.taFields;
    const SweepAxes axes = sweepAxes(nf);

    FigureCampaign camp =
        buildFigure("fig15", scaleMode(), /*verify=*/true);
    for (unsigned fields : kRecordFields) {
        SimConfig rcfg = cfg;
        rcfg.taFields = fields;
        // Keep the scanned volume roughly constant.
        rcfg.taRecords = std::max<std::uint64_t>(
            1024, cfg.taRecords * nf / fields / 4);
        addSweepPoint(camp, rcfg, recordId(fields),
                      aggrQuery(fields, 1.0, fields), /*verify=*/true);
    }

    return runBench(camp, /*verified=*/true, [&] {
        // ----- (a)-(c): arithmetic, selectivity sweeps ---------------
        for (unsigned proj : axes.selectivityPanels) {
            std::cout << "-- (a-c) arithmetic query, " << proj
                      << " fields projected, selectivity sweep --\n";
            TablePrinter tp;
            tp.header(panelHeader("selectivity"));
            for (double sel : axes.selectivities) {
                panelRow(camp, sweepPointId("arith", proj, sel), tp,
                         fmtPercent(sel, 0));
            }
            tp.print(std::cout);
            std::cout << "\n";
        }

        // ----- (d)-(f): arithmetic, projectivity sweeps --------------
        for (double sel : axes.projectivityPanels) {
            std::cout << "-- (d-f) arithmetic query, "
                      << fmtPercent(sel, 0)
                      << " records selected, projectivity sweep --\n";
            TablePrinter tp;
            tp.header(panelHeader("fields"));
            for (unsigned proj : axes.projectivities) {
                panelRow(camp, sweepPointId("arith", proj, sel), tp,
                         std::to_string(proj));
            }
            tp.print(std::cout);
            std::cout << "\n";
        }

        // ----- (g): aggregate, selectivity sweep ---------------------
        {
            std::cout << "-- (g) aggregate query, 8 fields projected, "
                         "selectivity sweep --\n";
            TablePrinter tp;
            tp.header(panelHeader("selectivity"));
            for (double sel : axes.selectivities) {
                panelRow(camp, sweepPointId("aggr", 8, sel), tp,
                         fmtPercent(sel, 0));
            }
            tp.print(std::cout);
            std::cout << "\n";
        }

        // ----- (h): aggregate, projectivity sweep --------------------
        {
            std::cout << "-- (h) aggregate query, 100% records "
                         "selected, projectivity sweep --\n";
            TablePrinter tp;
            tp.header(panelHeader("fields"));
            for (unsigned proj : axes.projectivities) {
                panelRow(camp, sweepPointId("aggr", proj, 1.0), tp,
                         std::to_string(proj));
            }
            tp.print(std::cout);
            std::cout << "\n";
        }

        // ----- (i): record-size sweep --------------------------------
        {
            std::cout << "-- (i) record-size sweep, 100% selectivity "
                         "and projectivity --\n";
            TablePrinter tp;
            tp.header(panelHeader("record"));
            for (unsigned fields : kRecordFields)
                panelRow(camp, recordId(fields), tp,
                         recordId(fields).substr(3));
            tp.print(std::cout);
        }
    });
}
