/**
 * @file
 * The phase-2 trace-replay loop.
 *
 * Each round polls every core for issue opportunities, in core-id
 * order, and then services one request. That per-round "issue in
 * core-id order, then serve one" discipline fixes the RequestQueue
 * insertion sequence, which FR-FCFS uses for tie-breaking, so the
 * command stream is a pure function of the traces and the controller.
 * A core whose MSHR window is full with no served read is skipped
 * until one of its reads completes: its poll could only re-read the
 * same trace entry and re-scan the same window, so skipping it changes
 * no state. tests/test_replay_golden.cc pins the resulting command
 * streams command-by-command.
 */

#ifndef SAM_SIM_REPLAY_ENGINE_HH
#define SAM_SIM_REPLAY_ENGINE_HH

#include <memory>
#include <vector>

#include "src/common/types.hh"
#include "src/controller/controller.hh"
#include "src/designs/design_model.hh"
#include "src/sim/core_port.hh"

namespace sam {

/**
 * Replay every core's trace through `controller`, at most
 * `mshrs_per_core` reads in flight per core; returns the cycle the
 * last request or core finished.
 */
Cycle replayEvent(const std::vector<std::unique_ptr<CorePort>> &ports,
                  MemoryController &controller, DesignModel &model,
                  unsigned mshrs_per_core);

} // namespace sam

#endif // SAM_SIM_REPLAY_ENGINE_HH
