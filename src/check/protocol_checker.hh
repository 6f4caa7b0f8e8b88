/**
 * @file
 * Independent DDR4/RRAM protocol oracle.
 *
 * The ProtocolChecker observes the command stream a Device emits
 * (ACT/PRE/RD/WR/REF plus SAM I/O mode switches) and re-derives the
 * legality of every command from TimingParams with its own per-bank /
 * per-rank / per-channel state machines. It deliberately shares no
 * scheduling code with Device: the engine issues each command at the
 * earliest cycle the timing rule table (src/dram/timing_rules) allows,
 * computed forward at commit; the checker replays the finished stream
 * in wall-clock order and checks each constraint backward, hand-coded
 * -- so a wrong rule in the table, or a bug in the engine's policy,
 * cannot hide itself from the oracle. samverify proves the table and
 * this checker agree over bounded command sequences.
 *
 * Wall-clock order is (cycle, kind priority, observation order): the
 * checker sorts one 16-byte key per observed command and walks the
 * observed stream through them, so a check holds the stream once plus
 * 16 bytes per command and 40 bytes per CAS of transient state.
 *
 * Checked constraints:
 *  - bank state machine: no CAS to a closed bank or to the wrong row,
 *    no double ACT, ACT only tRP after PRE, REF only with every bank of
 *    the rank precharged and tRP after the rank's last PRE;
 *  - bank timing: tRCD, tRAS, tRC, tWR, tRTP;
 *  - rank timing: tRRD_S/L, the 4-deep tFAW sliding window, tCCD_S/L,
 *    tWTR_S/L, refresh blackout (tRFC) and the tREFI postponement
 *    deadline (at most 8 intervals, as DDR4 allows);
 *  - SAM mode rules (Section 5.3): a switch must serialize after the
 *    rank's last CAS, consecutive switches and the first CAS after a
 *    switch are tRTR apart, and every CAS's mode must match the rank's
 *    current mode;
 *  - data bus: burst windows derived from CAS time + CL/CWL must not
 *    overlap, rank-to-rank handovers need a tRTR bubble, and write data
 *    must trail read data on the same rank by the turnaround bubble.
 *
 * The command bus itself (one command slot per cycle) is not modelled
 * by the engine and therefore not checked.
 */

#ifndef SAM_CHECK_PROTOCOL_CHECKER_HH
#define SAM_CHECK_PROTOCOL_CHECKER_HH

#include <cstddef>
#include <deque>
#include <string>
#include <vector>

#include "src/common/types.hh"
#include "src/dram/command.hh"
#include "src/dram/timing.hh"

namespace sam {

class Device;

/** One detected protocol violation, with full command context. */
struct Violation
{
    /** Name of the violated constraint (e.g. "tFAW", "bank-state"). */
    std::string constraint;
    /** Human-readable description with the commands involved. */
    std::string message;
    /** The offending command. */
    Command cmd;
    /**
     * Index of the command in the stream sorted by (cycle, kind
     * priority, observation order).
     */
    std::size_t index = 0;
};

class ProtocolChecker
{
  public:
    ProtocolChecker(const Geometry &geom, const TimingParams &timing);

    /** Detaches from the observed device, if attached. */
    ~ProtocolChecker();

    ProtocolChecker(const ProtocolChecker &) = delete;
    ProtocolChecker &operator=(const ProtocolChecker &) = delete;

    /**
     * Record one command (any order; sorted before checking). Panics on
     * a channel or rank outside the geometry, and on a bank group or
     * bank outside it for ACT/PRE/RD/WR.
     */
    void observe(const Command &cmd);

    /**
     * Install this checker as `dev`'s command observer. The device
     * must outlive the checker (or the checker must be destroyed
     * first); the observer is unhooked in the destructor.
     */
    void attach(Device &dev);

    /**
     * Sort the observed stream and run all checks. Idempotent until
     * more commands are observed; a check that panicked is rerun on
     * the next call. Returns all violations found.
     */
    const std::vector<Violation> &violations();

    /** True when the whole observed stream is protocol-legal. */
    bool clean() { return violations().empty(); }

    std::size_t commandCount() const { return count_; }

    /** Multi-line report of up to `max_violations` violations. */
    std::string report(std::size_t max_violations = 20);

  private:
    struct BankCheck
    {
        bool open = false;
        std::uint64_t row = 0;
        bool hasAct = false, hasPre = false, hasRd = false,
             hasWr = false;
        Cycle lastAct = 0;   ///< Last ACT issue.
        Cycle lastPre = 0;   ///< Last PRE issue.
        Cycle lastRdCas = 0; ///< Last RD CAS issue (tRTP).
        Cycle lastWrEnd = 0; ///< Last WR data end (tWR).
    };

    struct RankCheck
    {
        bool hasAct = false, hasPre = false, hasCas = false,
             hasWr = false, hasRd = false, hasSwitch = false,
             hasRef = false;
        Cycle lastAct = 0;
        Cycle lastPre = 0; ///< REF waits tRP after the rank's last PRE.
        Cycle lastCas = 0;
        Cycle lastWrEnd = 0; ///< tWTR_S.
        std::vector<Cycle> groupLastAct;   ///< tRRD_L.
        std::vector<Cycle> groupLastCas;   ///< tCCD_L.
        std::vector<Cycle> groupLastWrEnd; ///< tWTR_L.
        std::vector<char> groupHasAct, groupHasCas, groupHasWr;
        std::deque<Cycle> actWindow; ///< Up to 4 last ACTs (tFAW).
        AccessMode mode = AccessMode::Regular;
        Cycle lastSwitch = 0;
        Cycle refStart = 0, refEnd = 0; ///< Last refresh blackout.
        std::uint64_t refCount = 0;     ///< For the tREFI deadline.
    };

    /**
     * One derived data-bus burst, checked in a second pass. Its data
     * occupies [start, start + tBL); the CAS itself stays in the
     * observed stream and is fetched only to report a violation.
     */
    struct Burst
    {
        Cycle start = 0;
        std::size_t index = 0; ///< Sorted-stream index of the CAS.
        std::size_t obs = 0;   ///< Observation index of the CAS.
        unsigned channel = 0, rank = 0;
        bool isWrite = false;
    };

    /**
     * Replay the stream in wall-clock order. Sorted position i is the
     * i-th command of a stable sort by (cycle, kind priority), so
     * Violation::index names the same command whatever order the
     * stream was observed in, as long as equal (cycle, kind priority)
     * commands keep their relative order.
     */
    void run();
    void flag(const std::string &constraint, const Command &cmd,
              std::size_t index, const std::string &detail);
    /** Commands addressed to a refreshing rank are illegal (tRFC). */
    void checkRefreshBlackout(const RankCheck &rank, const Command &cmd,
                              std::size_t index);
    void checkAct(BankCheck &bank, RankCheck &rank, const Command &cmd,
                  std::size_t index);
    void checkPre(BankCheck &bank, RankCheck &rank, const Command &cmd,
                  std::size_t index);
    void checkCas(BankCheck &bank, RankCheck &rank, const Command &cmd,
                  std::size_t index);
    void checkModeSwitch(RankCheck &rank, const Command &cmd,
                         std::size_t index);
    void checkRef(RankCheck &rank, const Command &cmd,
                  std::size_t index);
    void checkDataBus(const std::vector<Burst> &bursts);

    /** Observed command number `obs` (observation order). */
    const Command &command(std::size_t obs) const
    {
        return chunks_[obs >> kChunkBits][obs & (kChunk - 1)];
    }

    /** Commands per chunk of the observed stream. */
    static constexpr std::size_t kChunkBits = 12;
    static constexpr std::size_t kChunk = std::size_t{1} << kChunkBits;

    Geometry geom_;
    TimingParams timing_;
    Device *device_ = nullptr; ///< Attached device (for detach).
    /**
     * The observed stream in observation order, kChunk commands per
     * chunk (all full but the last): a long run grows by one chunk at
     * a time and never moves the commands it already holds, where one
     * vector would copy the whole stream at every doubling.
     */
    std::vector<std::vector<Command>> chunks_;
    std::size_t count_ = 0; ///< Commands observed.
    std::vector<Violation> violations_;
    bool checked_ = false; ///< Set only after a complete run().
};

} // namespace sam

#endif // SAM_CHECK_PROTOCOL_CHECKER_HH
