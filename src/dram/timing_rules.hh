/**
 * @file
 * The DDR4/RRAM timing rule table and the one evaluator that runs it.
 *
 * specRuleTable() writes command timing legality down once, as data: a
 * table of pairwise issue-gap rules (prev kind -> next kind at bank /
 * bank-group / rank / channel scope) derived from TimingParams, plus
 * the rank-scope tFAW four-activate window. TimingRules evaluates it:
 * the Device (device.cc) issues every command at earliest(), and the
 * offline model checker (src/check/spec_model) explores the same
 * evaluator and proves it agrees with the independent ProtocolChecker.
 * Bank/row/mode/refresh *state* legality is not here: the Device keeps
 * it as policy and SpecModel states it for the proof.
 *
 * The evaluator keeps two views of the issue history:
 *
 *  - forward ready times: commit() applies the table, compiled into a
 *    gap array per (prev kind, scope), to raise the earliest cycle of
 *    every kind the command constrains, so earliest() is a few loads;
 *  - per-scope last-issue times, read rule by rule to name the rules
 *    that bind a bound (bindingRules, ruleBound) and to canonicalise
 *    model states (encodeHistory).
 *
 * verifySpecAgainstChecker() fails at any state where the two disagree.
 */

#ifndef SAM_DRAM_TIMING_RULES_HH
#define SAM_DRAM_TIMING_RULES_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "src/common/types.hh"
#include "src/dram/address.hh"
#include "src/dram/command.hh"
#include "src/dram/timing.hh"

namespace sam {

/** Scope a pairwise rule measures its gap across. */
enum class SpecScope { Bank, BankGroup, Rank, Channel };

/** Rank relation for Channel-scope (data-bus) rules. */
enum class SpecRankRel { Any, Same, Diff };

/**
 * One pairwise issue-gap rule: a `next`-kind command must issue at
 * least `gap` cycles after the latest `prev`-kind command in scope.
 * Gaps are in issue-to-issue cycles; rules derived from data-relative
 * constraints (tWR, tWTR, bus occupancy) fold the CAS-to-data offsets
 * into the gap. `name` matches the constraint name the ProtocolChecker
 * uses when flagging a violation of the same rule.
 */
struct SpecRule
{
    CmdKind prev = CmdKind::Act;
    CmdKind next = CmdKind::Act;
    SpecScope scope = SpecScope::Bank;
    SpecRankRel rankRel = SpecRankRel::Any;
    unsigned gap = 0;
    std::string name;
};

/**
 * Build the full pairwise rule table for one timing preset. Rules whose
 * derived gap is zero or negative (e.g. the same-rank WR->RD bus rule,
 * dominated by tWTR) are dropped: a non-positive issue gap can never
 * bind. Refresh rules are dropped when tRFC is zero.
 */
std::vector<SpecRule> specRuleTable(const TimingParams &timing);

/**
 * Render the rule table plus the non-pairwise constraints as stable
 * one-line-per-rule text (golden-test surface; see
 * tests/test_spec_model.cc).
 */
std::string describeRuleTable(const TimingParams &timing);

/**
 * Evaluator of the rule table over one geometry's issue history.
 * Commands may be committed in any order (the Device commits in
 * reservation order, not wall-clock order): every bound is a max over
 * the history. Copyable value type.
 */
class TimingRules
{
  public:
    TimingRules(const Geometry &geom, const TimingParams &timing);

    /**
     * Flat ids of the scopes one address names: its rank, bank group
     * and bank, and the first rank of its channel. An issuer computes
     * them once per command and passes them to both earliest() and
     * commit().
     */
    struct Site
    {
        std::size_t rank = 0;
        std::size_t group = 0;
        std::size_t bank = 0;
        std::size_t channelRanks = 0;
    };

    Site site(const MappedAddr &addr) const;

    /**
     * Earliest cycle >= `floor` at which a `kind` command to `addr`
     * satisfies every rule (only channel/rank matter for REF and mode
     * switches).
     */
    Cycle earliest(CmdKind kind, const MappedAddr &addr,
                   Cycle floor) const
    {
        return earliest(kind, site(addr), floor);
    }

    Cycle earliest(CmdKind kind, const Site &at_site, Cycle floor) const;

    /** Record a `kind` command to `addr` issued at `at`. */
    void commit(CmdKind kind, const MappedAddr &addr, Cycle at)
    {
        commit(kind, site(addr), at);
    }

    void commit(CmdKind kind, const Site &at_site, Cycle at);

    /**
     * The largest bound any rule (or the tFAW window) places on a
     * `kind` command to `addr`, read rule by rule from the last-issue
     * history; 0 when no rule applies. Equals earliest(kind, addr, 0)
     * (verifySpecAgainstChecker checks that it does).
     */
    Cycle ruleBound(CmdKind kind, const MappedAddr &addr) const;

    /**
     * Names of the rules whose bound on a `kind` command to `addr`
     * equals `at` (the constraints that make issuing at `at - 1`
     * illegal), read from the last-issue history.
     */
    std::vector<std::string> bindingRules(CmdKind kind,
                                          const MappedAddr &addr,
                                          Cycle at) const;

    /**
     * Append the last-issue history as cycle ages before `now`,
     * saturated at horizon(): two histories with equal encodings
     * constrain every command issued at or after `now` alike.
     */
    void encodeHistory(std::string &out, Cycle now) const;

    /**
     * Look-back bound: no rule (pairwise, tFAW) reaches further than
     * this many cycles into the past.
     */
    Cycle horizon() const { return horizon_; }

  private:
    static constexpr unsigned kKinds = 6;
    /** Where a compiled gap lands: the command's own bank, group or
     *  rank, or every other rank of its channel. */
    enum Target { kBank, kGroup, kRank, kOtherRanks, kTargets };

    using Ready = std::array<Cycle, kKinds>;

    /** The compiled gaps one command kind places on one target. */
    struct Gaps
    {
        /** A `next`-kind command waits `gap` cycles (the max rule). */
        struct Entry
        {
            unsigned next = 0;
            unsigned gap = 0;
        };
        std::array<Entry, kKinds> entries{};
        unsigned size = 0;
    };

    /** One bank's, group's or rank's ready times and issue history. */
    struct ScopeState
    {
        /** Earliest next issue per kind (the compiled table). */
        Ready ready{};
        /**
         * Latest issue cycle + 1 per kind, 0 when never issued (read
         * rule by rule): one store per commit records both.
         */
        std::array<Cycle, kKinds> lastPlus1{};
    };

    struct RankState : ScopeState
    {
        /** The rank's last (up to) four ACTs, oldest first (tFAW). */
        std::array<Cycle, 4> actWindow{};
        unsigned actWindowSize = 0;
    };

    /** Kinds addressed to a specific bank (Act/Pre/Rd/Wr). */
    static bool bankKind(CmdKind kind);
    static void raise(Ready &ready, const Gaps &gaps, Cycle at);
    /**
     * Backward evaluation shared by ruleBound / bindingRules: calls
     * `fn(ruleIndex, boundCycle)` for every applicable rule instance
     * plus the tFAW window (ruleIndex == rules_.size()).
     */
    template <typename Fn>
    void forEachBound(CmdKind kind, const MappedAddr &addr, Fn fn) const;

    Geometry geom_;
    unsigned tFAW_ = 0;
    std::vector<SpecRule> rules_;
    Cycle horizon_ = 0;
    /** The table compiled per (prev kind, target), max gap per next. */
    std::array<std::array<Gaps, kTargets>, kKinds> gaps_{};

    std::vector<ScopeState> banks_, groups_;
    std::vector<RankState> ranks_;
};

// earliest() and commit() run on every command the Device issues, so
// they are defined here, where device.cc can inline them.

inline TimingRules::Site
TimingRules::site(const MappedAddr &a) const
{
    Site s;
    s.channelRanks = static_cast<std::size_t>(a.channel) * geom_.ranks;
    s.rank = s.channelRanks + a.rank;
    s.group = s.rank * geom_.bankGroups + a.bankGroup;
    s.bank = s.rank * geom_.banksPerRank() + a.bankInRank(geom_);
    return s;
}

inline bool
TimingRules::bankKind(CmdKind kind)
{
    return kind == CmdKind::Act || kind == CmdKind::Pre ||
           kind == CmdKind::Rd || kind == CmdKind::Wr;
}

inline void
TimingRules::raise(Ready &ready, const Gaps &gaps, Cycle at)
{
    for (unsigned i = 0; i < gaps.size; ++i) {
        const Gaps::Entry &e = gaps.entries[i];
        ready[e.next] = std::max(ready[e.next], at + e.gap);
    }
}

inline Cycle
TimingRules::earliest(CmdKind kind, const Site &at_site, Cycle floor) const
{
    const unsigned k = static_cast<unsigned>(kind);
    const RankState &rank = ranks_[at_site.rank];
    Cycle e = std::max(floor, rank.ready[k]);
    if (bankKind(kind)) {
        e = std::max({e, banks_[at_site.bank].ready[k],
                      groups_[at_site.group].ready[k]});
        if (kind == CmdKind::Act &&
            rank.actWindowSize == rank.actWindow.size())
            e = std::max(e, rank.actWindow[0] + tFAW_);
    }
    return e;
}

inline void
TimingRules::commit(CmdKind kind, const Site &at_site, Cycle at)
{
    const unsigned k = static_cast<unsigned>(kind);
    const auto apply = [&](ScopeState &scope, Target target) {
        raise(scope.ready, gaps_[k][target], at);
        scope.lastPlus1[k] = std::max(scope.lastPlus1[k], at + 1);
    };
    RankState &rank = ranks_[at_site.rank];
    apply(rank, kRank);
    if (gaps_[k][kOtherRanks].size != 0) {
        const std::size_t first = at_site.channelRanks;
        for (std::size_t other = first; other < first + geom_.ranks;
             ++other) {
            if (other != at_site.rank)
                raise(ranks_[other].ready, gaps_[k][kOtherRanks], at);
        }
    }
    if (!bankKind(kind))
        return;
    apply(banks_[at_site.bank], kBank);
    apply(groups_[at_site.group], kGroup);
    if (kind == CmdKind::Act) {
        auto &w = rank.actWindow;
        if (rank.actWindowSize == w.size()) {
            std::copy(w.begin() + 1, w.end(), w.begin());
            w.back() = at;
        } else {
            w[rank.actWindowSize++] = at;
        }
    }
}

} // namespace sam

#endif // SAM_DRAM_TIMING_RULES_HH
