/**
 * @file
 * Offline model checker for the timing rule table.
 *
 * The ProtocolChecker (protocol_checker.cc) re-derives command legality
 * imperatively, one `if` per constraint. The rule table
 * (src/dram/timing_rules) states the same timing rules as data, and its
 * evaluator, TimingRules, is what the Device schedules with. SpecModel
 * adds the constraints that are not timing gaps -- bank/mode/refresh
 * state legality and the tREFI postponement deadline -- and answers
 * "what is the earliest cycle this candidate may issue?" by calling the
 * same TimingRules::earliest the Device calls.
 *
 * verifySpecAgainstChecker() then explores the joint command FSM by
 * bounded BFS, and at every reachable state cross-examines the two
 * implementations:
 *
 *  - issuing a candidate at its spec-earliest cycle must be clean under
 *    the ProtocolChecker (spec is not looser than the checker);
 *  - issuing it one cycle earlier, when the bound is binding, must be
 *    flagged with one of the binding rule names (spec is not tighter);
 *  - the forward bound the evaluator computes must equal the largest
 *    bound its rules give when read one by one from the issue history
 *    (the compiled table is the table);
 *  - state-illegal candidates must be flagged (bank/mode/refresh state
 *    agreement);
 *  - issuing later than the earliest must stay clean (legality is
 *    upward-closed in time -- the monotonicity property the skip-ahead
 *    scheduler relies on), except past the tREFI deadline;
 *  - every reachable state must have at least one issuable candidate
 *    with a finite earliest cycle (no deadlock).
 *
 * The Device's policy -- which commands an access needs, its floors,
 * and where refresh goes -- stays outside the BFS: the proof covers the
 * evaluator it issues commands through, not the choices it makes.
 *
 * States are deduplicated by a canonical encoding with cycle deltas
 * rebased to the last issue and saturated at the spec horizon (the
 * largest gap any rule can look back), so the BFS terminates on the
 * quotient FSM rather than on raw unbounded cycle counts.
 */

#ifndef SAM_CHECK_SPEC_MODEL_HH
#define SAM_CHECK_SPEC_MODEL_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/types.hh"
#include "src/dram/command.hh"
#include "src/dram/timing.hh"
#include "src/dram/timing_rules.hh"

namespace sam {

/**
 * The rule table's evaluator plus bank open state, rank I/O mode and
 * refresh count: answers earliest-legal queries. Copyable value type.
 */
class SpecModel
{
  public:
    /** A candidate command, before an issue time is chosen. */
    struct Cand
    {
        CmdKind kind = CmdKind::Act;
        MappedAddr addr;
        AccessMode mode = AccessMode::Regular;
    };

    SpecModel(const Geometry &geom, const TimingParams &timing);

    /**
     * Bank/row/mode/refresh state legality -- independent of the issue
     * time chosen.
     */
    bool stateLegal(const Cand &c) const;

    /**
     * Earliest cycle >= `from` at which `c` may issue:
     * TimingRules::earliest, the call the Device schedules with. `c`
     * must be state-legal. Pass lastIssue() as `from` to respect
     * stream order.
     */
    Cycle earliestLegal(const Cand &c, Cycle from) const;

    /**
     * Names of the rules whose bound equals `at` (the constraints that
     * make issuing at `at - 1` illegal). Empty when no rule binds at
     * `at`, i.e. the earliest-legal bound came from `from` alone.
     */
    std::vector<std::string> bindingRules(const Cand &c, Cycle at) const;

    /** True when `c` is state-legal and `at` >= its earliest cycle. */
    bool legalAt(const Cand &c, Cycle at) const;

    /** Commit `c` at `at` (must be >= lastIssue()). */
    void apply(const Cand &c, Cycle at);

    /** Issue time of the last applied command (0 when none). */
    Cycle lastIssue() const { return lastIssue_; }

    /**
     * Latest cycle the rank's next REF may issue: DDR4 allows
     * postponing 8 refresh intervals. Meaningless when tREFI is 0.
     */
    Cycle refDeadline(unsigned channel, unsigned rank) const;

    /** Current I/O mode of a rank. */
    AccessMode rankMode(unsigned channel, unsigned rank) const;

    /**
     * Canonical state encoding: cycle ages rebased to lastIssue() and
     * saturated at horizon(). Two states with equal encodings admit
     * exactly the same future behavior.
     */
    std::string canonical() const;

    /**
     * Look-back bound: no rule (pairwise, tFAW) reaches further than
     * this many cycles into the past.
     */
    Cycle horizon() const { return rules_.horizon(); }

    /** The timing-rule evaluator this model issues through. */
    const TimingRules &rules() const { return rules_; }
    const Geometry &geometry() const { return geom_; }
    const TimingParams &timing() const { return timing_; }

  private:
    struct BankS
    {
        bool open = false;
        std::uint64_t row = 0;
    };
    struct RankS
    {
        AccessMode mode = AccessMode::Regular;
        std::uint64_t refCount = 0;
    };

    std::size_t rankId(unsigned ch, unsigned rk) const;
    std::size_t bankId(const MappedAddr &a) const;

    Geometry geom_;
    TimingParams timing_;
    TimingRules rules_;
    Cycle lastIssue_ = 0;
    std::vector<BankS> banks_;
    std::vector<RankS> ranks_;
};

/** Knobs for the bounded BFS exploration. */
struct VerifyOptions
{
    unsigned depth = 3;           ///< Commands per explored sequence.
    std::size_t maxNodes = 4000;  ///< Stop expanding past this many.
    unsigned probeRows = 2;       ///< Row alphabet per bank.
    bool monotone = true;         ///< Probe upward-closure.
    std::size_t maxFailures = 20; ///< Stop collecting past this many.
};

/** Outcome of one verification run. */
struct VerifyStats
{
    std::size_t nodesExplored = 0;
    std::size_t statesDeduped = 0;    ///< Successors merged by canon.
    std::size_t checkerRuns = 0;      ///< ProtocolChecker replays.
    std::size_t earliestProbes = 0;   ///< Clean-at-earliest checks.
    std::size_t boundaryProbes = 0;   ///< Flagged-at-earliest-1 checks.
    std::size_t stateProbes = 0;      ///< State-illegal checks.
    std::size_t monotoneProbes = 0;   ///< Upward-closure checks.
    bool exhausted = false; ///< Frontier drained before maxNodes hit.
    std::vector<std::string> failures;

    bool ok() const { return failures.empty(); }
    std::string summary() const;
};

/**
 * Explore every command sequence of the given depth (up to state
 * equivalence) and cross-check SpecModel against ProtocolChecker at
 * each step. See the file comment for the probes performed.
 */
VerifyStats verifySpecAgainstChecker(const Geometry &geom,
                                     const TimingParams &timing,
                                     const VerifyOptions &opt);

} // namespace sam

#endif // SAM_CHECK_SPEC_MODEL_HH
