#include "src/sim/replay_engine.hh"

#include <algorithm>

#include "src/common/logging.hh"

namespace sam {

namespace {

/**
 * One in-flight read of a core's MSHR window. `done` stays
 * kInvalidCycle until the completion arrives.
 */
struct Mshr
{
    std::uint64_t id = 0;
    Cycle done = kInvalidCycle;
};

struct CoreState
{
    const CoreTrace *trace = nullptr;
    std::size_t idx = 0;
    Cycle clock = 0;
    /**
     * In-flight reads, unordered. MSHR-sized and flat: the retire
     * scan and the completion match walk a handful of contiguous
     * entries instead of churning per-epoch hash maps.
     */
    std::vector<Mshr> window;
    /**
     * The window is full and none of its reads has been served. Set
     * by the retire scan, cleared by any read completion for this
     * core: until then a poll would re-read the same entry and re-scan
     * the same window, so the sweep skips the core.
     */
    bool mshrStalled = false;
};

} // namespace

Cycle
replayEvent(const std::vector<std::unique_ptr<CorePort>> &ports,
            MemoryController &controller, DesignModel &model,
            unsigned mshrs_per_core)
{
    const unsigned num_cores = static_cast<unsigned>(ports.size());
    std::vector<CoreState> cores(num_cores);
    std::size_t num_epochs = 0;
    for (unsigned c = 0; c < num_cores; ++c) {
        cores[c].trace = &ports[c]->trace();
        cores[c].window.reserve(mshrs_per_core);
        num_epochs = std::max(num_epochs, cores[c].trace->numEpochs());
    }

    std::uint64_t next_id = 1;
    Cycle max_done = 0;

    for (std::size_t epoch = 0; epoch < num_epochs; ++epoch) {
        // Barrier: all cores resume together after prior epoch traffic.
        for (auto &cs : cores) {
            cs.clock = std::max(cs.clock, max_done);
            cs.idx = epoch < cs.trace->numEpochs()
                         ? cs.trace->epochBegin(epoch)
                         : 0;
            cs.window.clear();
            cs.mshrStalled = false;
        }

        auto issue_some = [&](unsigned c) -> bool {
            CoreState &cs = cores[c];
            if (epoch >= cs.trace->numEpochs() || cs.mshrStalled)
                return false;
            const CoreTrace &trace = *cs.trace;
            const std::size_t end = trace.epochEnd(epoch);
            bool issued = false;
            unsigned batch = 0;
            while (cs.idx < end && batch < 32) {
                if (controller.readQueueDepth() +
                        controller.writeQueueDepth() > 256) {
                    break; // backpressure
                }
                const TraceEntry &e = trace.entries[cs.idx];
                Cycle t = cs.clock + e.gap;
                const bool is_read = !isWrite(e.type);
                if (is_read && cs.window.size() >= mshrs_per_core) {
                    // Retire the earliest *known* completion; stall if
                    // none of the in-flight reads has been served yet.
                    Cycle best = kInvalidCycle;
                    std::size_t best_i = cs.window.size();
                    for (std::size_t i = 0; i < cs.window.size(); ++i) {
                        if (cs.window[i].done < best) {
                            best = cs.window[i].done;
                            best_i = i;
                        }
                    }
                    if (best_i == cs.window.size()) {
                        cs.mshrStalled = true;
                        break; // stalled on outstanding misses
                    }
                    // Swap-with-back: MSHR slots are unordered (the
                    // scan above picks by completion time, entries
                    // match completions by id).
                    cs.window[best_i] = cs.window.back();
                    cs.window.pop_back();
                    t = std::max(t, best);
                }

                MemRequest req;
                if (isStride(e.type)) {
                    req = model.strideRequest(e.type, trace.lines(e),
                                              e.lineCount, e.sector, t,
                                              c);
                } else {
                    req = model.lineRequest(e.type, trace.lines(e)[0],
                                            t, c);
                }
                req.id = next_id++;
                if (is_read)
                    cs.window.push_back({req.id, kInvalidCycle});
                controller.push(std::move(req));
                cs.clock = t;
                ++cs.idx;
                issued = true;
                ++batch;
            }
            return issued;
        };

        while (true) {
            bool progress = false;
            for (unsigned c = 0; c < num_cores; ++c)
                progress = issue_some(c) || progress;

            if (auto comp = controller.serviceNext()) {
                max_done = std::max(max_done, comp->done);
                if (comp->isRead) {
                    sam_assert(comp->coreId < num_cores,
                               "orphan completion");
                    CoreState &cs = cores[comp->coreId];
                    bool matched = false;
                    for (Mshr &m : cs.window) {
                        if (m.id == comp->id) {
                            m.done = comp->done;
                            matched = true;
                            break;
                        }
                    }
                    sam_assert(matched, "orphan completion");
                    cs.mshrStalled = false;
                }
                progress = true;
            }

            if (!progress) {
                bool all_issued = true;
                for (unsigned c = 0; c < num_cores; ++c) {
                    if (epoch < cores[c].trace->numEpochs() &&
                        cores[c].idx <
                            cores[c].trace->epochEnd(epoch)) {
                        all_issued = false;
                    }
                }
                sam_assert(all_issued || controller.hasPending(),
                           "replay deadlock");
                if (all_issued && !controller.hasPending())
                    break;
            }
        }

        for (const auto &cs : cores)
            max_done = std::max(max_done, cs.clock);
    }
    return max_done;
}

} // namespace sam
