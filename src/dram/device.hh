/**
 * @file
 * Cycle-accounted DRAM/RRAM device timing model.
 *
 * The device is policy plus the timing rule table. Policy is what an
 * access needs -- a PRE and ACT on a row miss, a SAM I/O mode switch
 * when the rank is in the other mode, one CAS per burst, refresh every
 * tREFI with the rank's open rows closed first -- and the floor each
 * command may not issue before. Timing is the table: every command
 * issues at TimingRules::earliest (src/dram/timing_rules), which folds
 * the full DDR4 constraint set (tRCD, tRP, tRAS, tCCD_S/L, tRRD_S/L,
 * tFAW, tWR, tWTR, tRTP, tRTR, data-bus occupancy, refresh) into
 * forward ready times at commit. samverify proves that table against
 * the independent ProtocolChecker. This captures bank-level
 * parallelism, row-buffer locality, bus occupancy, rank switches, and
 * SAM's I/O mode switches without per-cycle ticking.
 */

#ifndef SAM_DRAM_DEVICE_HH
#define SAM_DRAM_DEVICE_HH

#include <cstddef>
#include <utility>
#include <vector>

#include "src/common/stats.hh"
#include "src/common/types.hh"
#include "src/dram/address.hh"
#include "src/dram/command.hh"
#include "src/dram/timing.hh"
#include "src/dram/timing_rules.hh"

namespace sam {

/** One column access presented to the device by the controller. */
struct DeviceAccess
{
    MappedAddr addr;
    bool isWrite = false;
    AccessMode mode = AccessMode::Regular;
    /**
     * Extra same-row bursts this access needs beyond the first (e.g.\
     * GS-DRAM-ecc embedded-ECC fetch, RC-NVM-bit sub-field collection).
     */
    unsigned extraBursts = 0;
    /**
     * SAM-sub / RC-NVM column-wise activation: the ACT drives a
     * column-wise subarray spanning multiple mats (counted separately
     * for the power model; timing equals a regular ACT per Section 4.1).
     */
    bool columnActivate = false;
    /**
     * Response-path latency added after the burst completes without
     * holding any resource (e.g.\ SAM-IO's transposed layout defeats
     * critical-word-first and the controller reassembles the codeword
     * from all eight beats, Section 4.2.2).
     */
    unsigned extraLatency = 0;
};

/** Timing outcome of one access. */
struct AccessResult
{
    Cycle issue = 0;      ///< First CAS issue time.
    Cycle dataStart = 0;  ///< First beat on the data bus.
    Cycle done = 0;       ///< Last beat transferred (request complete).
    bool rowHit = false;
    bool modeSwitched = false;
    unsigned activates = 0;
};

/** Device-level counters feeding the power model. */
struct DeviceStats
{
    Counter activates;
    Counter columnActivates;
    Counter precharges;
    Counter reads;
    Counter writes;
    Counter strideReads;
    Counter strideWrites;
    Counter extraBursts;
    Counter rowHits;
    Counter rowMisses;
    Counter modeSwitches;
    Counter refreshes;
    Counter busBusyCycles;

    void registerIn(StatGroup &group) const;
};

/**
 * Observer of bank row-buffer transitions. The scheduler attaches one
 * to maintain an incremental open-row index: probing only banks that
 * are open (and have eligible requests) instead of scanning every
 * bank's state on each FR-FCFS pick. An open->open transition (row
 * miss on an open bank) is reported as a single rowOpened() with the
 * new row -- no intervening rowClosed().
 */
class RowStateListener
{
  public:
    virtual ~RowStateListener() = default;
    virtual void rowOpened(std::size_t flat_bank, std::uint64_t row) = 0;
    virtual void rowClosed(std::size_t flat_bank) = 0;
};

/**
 * The memory device shared by one channel. Not thread-safe; owned by the
 * channel's controller.
 */
class Device
{
  public:
    Device(const Geometry &geom, const TimingParams &timing);

    const Geometry &geometry() const { return geom_; }
    const TimingParams &timing() const { return timing_; }

    /**
     * Schedule one access no earlier than `earliest`. Mutates device
     * state (row buffers, mode registers, refresh schedule, the timing
     * rules' issue history) and returns the timing.
     */
    AccessResult access(const DeviceAccess &acc, Cycle earliest);

    /**
     * Attach an observer invoked once per scheduled DDR command
     * (ACT/PRE/RD/WR/REF/mode switch) with the cycle it issues at.
     * Commands arrive in commit order (monotone per bank/rank/bus, not
     * globally monotone in time). Multiple observers may be attached
     * (e.g.\ the src/check protocol oracle plus the telemetry tracer);
     * they are notified in attach order. `owner` identifies the
     * attachment for removal; attaching the same owner twice is a
     * programming error and asserts.
     */
    void addCommandObserver(const void *owner, CommandObserver obs);

    /** Detach the observer attached under `owner` (no-op if absent). */
    void removeCommandObserver(const void *owner);

    /** Number of attached command observers. */
    std::size_t commandObservers() const { return cmdObservers_.size(); }

    /**
     * Attach a row-state listener, replaying the current open rows to
     * it so a late attach starts consistent. Several may be attached
     * (each controller sharing the device keeps its own index).
     * Attaching the same listener twice is a programming error and
     * panics (always-on check, like addCommandObserver: double
     * notifications would desynchronise the scheduler's index).
     */
    void addRowListener(RowStateListener *listener);

    /** Detach counterpart of addRowListener (no-op if absent). */
    void removeRowListener(RowStateListener *listener);

    const DeviceStats &stats() const { return stats_; }
    DeviceStats &stats() { return stats_; }

  private:
    struct BankState
    {
        bool rowOpen = false;
        std::uint64_t row = 0;
    };

    struct RankState
    {
        AccessMode ioMode = AccessMode::Regular;
        Cycle nextRefresh = 0;   ///< Nominal slot of the next REF.
        Cycle refreshUntil = 0;  ///< End of the last REF's tRFC.
    };

    BankState &bank(const MappedAddr &a);
    RankState &rank(const MappedAddr &a);

    /** Issue every refresh due by `t` on the rank. */
    void applyRefresh(RankState &rank, unsigned channel, unsigned rank_nr,
                      Cycle t);

    /**
     * Issue one command at the earliest cycle >= `floor` the timing
     * rules allow, report it to the observers, and return that cycle.
     */
    Cycle issue(CmdKind kind, const MappedAddr &addr, Cycle floor,
                AccessMode mode = AccessMode::Regular);

    /** Report one command to the observer, if any is attached. */
    void emit(CmdKind kind, Cycle at, const MappedAddr &addr,
              AccessMode mode = AccessMode::Regular);

    Geometry geom_;
    TimingParams timing_;
    TimingRules rules_;
    std::vector<BankState> banks_;
    std::vector<RankState> ranks_;
    DeviceStats stats_;
    std::vector<std::pair<const void *, CommandObserver>> cmdObservers_;
    std::vector<RowStateListener *> rowListeners_;
};

} // namespace sam

#endif // SAM_DRAM_DEVICE_HH
