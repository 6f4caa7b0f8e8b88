/**
 * @file
 * FR-FCFS open-page memory controller (paper Table 2: open-page policy,
 * FR-FCFS scheduling, 32-entry write queue with watermark draining).
 */

#ifndef SAM_CONTROLLER_CONTROLLER_HH
#define SAM_CONTROLLER_CONTROLLER_HH

#include <cstdint>
#include <optional>

#include "src/common/stats.hh"
#include "src/controller/address_mapping.hh"
#include "src/controller/request.hh"
#include "src/controller/request_queue.hh"
#include "src/dram/data_path.hh"
#include "src/dram/device.hh"

namespace sam {

class Telemetry;

/** Controller tuning knobs. */
struct ControllerParams
{
    unsigned writeQueueCapacity = 32;  ///< Table 2.
    unsigned writeHighWatermark = 24;  ///< Start draining writes.
    unsigned writeLowWatermark = 8;    ///< Stop draining writes.
    Cycle pipelineLatency = 4;         ///< Controller + ECC decode.
};

/** Controller statistics. */
struct ControllerStats
{
    Counter readsServed;
    Counter writesServed;
    Counter strideReadsServed;
    Counter strideWritesServed;
    Counter frRowHitPicks;   ///< Scheduling picks that were row hits.
    Counter fcfsPicks;       ///< Fallback oldest-first picks.
    Counter scrubWrites;     ///< RAS demand-scrub writebacks issued.
    Accum totalReadLatency;  ///< Sum of (done - arrival) over reads.

    void registerIn(StatGroup &group) const;
};

/**
 * One channel's memory controller. Owns scheduling; the Device owns
 * timing state; the DataPath owns functional data.
 *
 * Event-driven: serviceNext() picks the best eligible request under
 * FR-FCFS, issues it to the device, performs the functional transfer,
 * and returns the completion. The internal clock advances to each
 * serviced request's issue time.
 *
 * The controller registers as the device's RowStateListener and
 * forwards row open/close transitions to both queues, which keep an
 * incremental open-row index for rule-1 picks.
 */
class MemoryController : public RowStateListener
{
  public:
    /**
     * @param functional When false the controller is timing-only: it
     *        schedules commands but performs no data movement (used by
     *        the trace-replay phase, whose functional effects already
     *        happened during trace generation).
     */
    MemoryController(Device &device, DataPath &data_path,
                     const AddressMapping &mapping,
                     ControllerParams params = {},
                     bool functional = true);
    ~MemoryController() override;

    MemoryController(const MemoryController &) = delete;
    MemoryController &operator=(const MemoryController &) = delete;

    void rowOpened(std::size_t flat_bank, std::uint64_t row) override;
    void rowClosed(std::size_t flat_bank) override;

    /** Enqueue a request (arrival time already set by the producer). */
    void push(MemRequest req);

    bool hasPending() const { return !readQ_.empty() || !writeQ_.empty(); }
    std::size_t readQueueDepth() const { return readQ_.size(); }
    std::size_t writeQueueDepth() const { return writeQ_.size(); }

    /**
     * Serve one request. Returns std::nullopt when both queues are
     * empty. The controller clock never runs backwards; requests
     * arriving "in the past" are served as soon as seen.
     */
    std::optional<Completion> serviceNext();

    /** Serve everything currently queued; returns the last done time. */
    Cycle drainAll();

    Cycle now() const { return now_; }
    const ControllerStats &stats() const { return stats_; }
    Device &device() { return device_; }

    /**
     * Forward a command observer to the underlying device (the hook the
     * src/check protocol oracle and the telemetry tracer use to watch
     * the command stream).
     */
    void
    addCommandObserver(const void *owner, CommandObserver obs)
    {
        device_.addCommandObserver(owner, std::move(obs));
    }

    /** Detach counterpart of addCommandObserver (no-op if absent). */
    void
    removeCommandObserver(const void *owner)
    {
        device_.removeCommandObserver(owner);
    }

    /**
     * Attach a telemetry collector. The controller reports request
     * begin/end around each device access so end-to-end latency and
     * queue-depth series can be attributed per request. Null detaches.
     */
    void setTelemetry(Telemetry *telemetry) { telemetry_ = telemetry; }

    DataPath &dataPath() { return dataPath_; }

  private:
    /** Issue to device + functional data movement. */
    Completion serve(MemRequest req);

    /** Enqueue timing-only scrub writebacks a read outcome triggered. */
    void pushScrubs(const ReadOutcome &outcome, Cycle when,
                    unsigned core_id);

    Device &device_;
    DataPath &dataPath_;
    const AddressMapping &mapping_;
    ControllerParams params_;

    bool functional_;
    Telemetry *telemetry_ = nullptr;
    RequestQueue readQ_;
    RequestQueue writeQ_;
    bool drainingWrites_ = false;
    Cycle now_ = 0;
    ControllerStats stats_;
};

} // namespace sam

#endif // SAM_CONTROLLER_CONTROLLER_HH
