#include "src/dram/timing_rules.hh"

#include <algorithm>
#include <sstream>

#include "src/common/logging.hh"

namespace sam {

namespace {

constexpr unsigned
kindIx(CmdKind kind)
{
    return static_cast<unsigned>(kind);
}

const char *
specKindName(CmdKind kind)
{
    switch (kind) {
      case CmdKind::Act:        return "ACT";
      case CmdKind::Pre:        return "PRE";
      case CmdKind::Rd:         return "RD";
      case CmdKind::Wr:         return "WR";
      case CmdKind::Ref:        return "REF";
      case CmdKind::ModeSwitch: return "MSW";
    }
    panic("unknown CmdKind");
}

const char *
scopeName(SpecScope scope)
{
    switch (scope) {
      case SpecScope::Bank:      return "bank";
      case SpecScope::BankGroup: return "group";
      case SpecScope::Rank:      return "rank";
      case SpecScope::Channel:   return "channel";
    }
    panic("unknown SpecScope");
}

const char *
relName(SpecRankRel rel)
{
    switch (rel) {
      case SpecRankRel::Any:  return "any";
      case SpecRankRel::Same: return "same";
      case SpecRankRel::Diff: return "diff";
    }
    panic("unknown SpecRankRel");
}

} // namespace

std::vector<SpecRule>
specRuleTable(const TimingParams &t)
{
    std::vector<SpecRule> rules;
    const auto add = [&rules](CmdKind prev, CmdKind next, SpecScope scope,
                              SpecRankRel rel, long long gap,
                              const char *name) {
        // A non-positive issue gap can never bind (history is always at
        // or before the issue floor), so the rule is dropped.
        if (gap <= 0)
            return;
        SpecRule r;
        r.prev = prev;
        r.next = next;
        r.scope = scope;
        r.rankRel = rel;
        r.gap = static_cast<unsigned>(gap);
        r.name = name;
        rules.push_back(std::move(r));
    };
    const auto any = SpecRankRel::Any;

    // Bank state machine timings.
    add(CmdKind::Pre, CmdKind::Act, SpecScope::Bank, any, t.tRP, "tRP");
    add(CmdKind::Act, CmdKind::Act, SpecScope::Bank, any,
        static_cast<long long>(t.tRC()), "tRC");
    add(CmdKind::Act, CmdKind::Pre, SpecScope::Bank, any, t.tRAS,
        "tRAS");
    add(CmdKind::Rd, CmdKind::Pre, SpecScope::Bank, any, t.tRTP,
        "tRTP");
    // tWR counts from write-data end; fold the CAS-to-data-end offset
    // into an issue-to-issue gap.
    add(CmdKind::Wr, CmdKind::Pre, SpecScope::Bank, any,
        static_cast<long long>(t.cwl) + t.tBL + t.tWR, "tWR");
    add(CmdKind::Act, CmdKind::Rd, SpecScope::Bank, any, t.tRCD,
        "tRCD");
    add(CmdKind::Act, CmdKind::Wr, SpecScope::Bank, any, t.tRCD,
        "tRCD");

    // Activate spacing.
    add(CmdKind::Act, CmdKind::Act, SpecScope::Rank, any, t.tRRD_S,
        "tRRD_S");
    add(CmdKind::Act, CmdKind::Act, SpecScope::BankGroup, any,
        t.tRRD_L, "tRRD_L");

    // CAS spacing.
    const CmdKind cas[2] = {CmdKind::Rd, CmdKind::Wr};
    for (CmdKind prev : cas)
        for (CmdKind next : cas)
            add(prev, next, SpecScope::Rank, any, t.tCCD_S, "tCCD_S");
    for (CmdKind prev : cas)
        for (CmdKind next : cas)
            add(prev, next, SpecScope::BankGroup, any, t.tCCD_L,
                "tCCD_L");

    // Write-to-read turnaround (from write-data end).
    add(CmdKind::Wr, CmdKind::Rd, SpecScope::Rank, any,
        static_cast<long long>(t.cwl) + t.tBL + t.tWTR_S, "tWTR_S");
    add(CmdKind::Wr, CmdKind::Rd, SpecScope::BankGroup, any,
        static_cast<long long>(t.cwl) + t.tBL + t.tWTR_L, "tWTR_L");

    // SAM I/O mode pipeline (Section 5.3): tRTR after a switch, and a
    // switch must issue strictly after the rank's last CAS.
    add(CmdKind::ModeSwitch, CmdKind::Rd, SpecScope::Rank, any, t.tRTR,
        "tRTR(mode)");
    add(CmdKind::ModeSwitch, CmdKind::Wr, SpecScope::Rank, any, t.tRTR,
        "tRTR(mode)");
    add(CmdKind::ModeSwitch, CmdKind::ModeSwitch, SpecScope::Rank, any,
        t.tRTR, "tRTR(mode)");
    add(CmdKind::Rd, CmdKind::ModeSwitch, SpecScope::Rank, any, 1,
        "mode-state");
    add(CmdKind::Wr, CmdKind::ModeSwitch, SpecScope::Rank, any, 1,
        "mode-state");

    // Refresh blackout: nothing else on the rank for tRFC. The checker
    // does not black out PRE (the engine precharges before REF), so the
    // spec must not either.
    if (t.tRFC > 0) {
        const CmdKind blocked[5] = {CmdKind::Ref, CmdKind::Act,
                                    CmdKind::Rd, CmdKind::Wr,
                                    CmdKind::ModeSwitch};
        for (CmdKind next : blocked)
            add(CmdKind::Ref, next, SpecScope::Rank, any, t.tRFC,
                "tRFC");
        // The blackout also reaches *backward* across a same-cycle
        // tie: REF sorts before an equal-time CAS or mode switch, so a
        // REF issued in the same cycle retroactively swallows it. REF
        // must serialize strictly after them.
        const CmdKind tied[3] = {CmdKind::Rd, CmdKind::Wr,
                                 CmdKind::ModeSwitch};
        for (CmdKind prev : tied)
            add(prev, CmdKind::Ref, SpecScope::Rank, any, 1, "tRFC");
        // REF needs every bank of the rank precharged, tRP included.
        add(CmdKind::Pre, CmdKind::Ref, SpecScope::Rank, any, t.tRP,
            "tRP");
    }

    // Data bus occupancy, expressed as issue-to-issue gaps: a burst
    // occupies [issue + offset, issue + offset + tBL) where the offset
    // is CL for reads and CWL for writes. Rank handovers add a tRTR
    // bubble; write data behind read data on the same rank needs the
    // 2-cycle turnaround bubble.
    const auto off = [&t](CmdKind k) -> long long {
        return k == CmdKind::Wr ? t.cwl : t.cl;
    };
    for (CmdKind prev : cas) {
        for (CmdKind next : cas) {
            const long long gap = off(prev) + t.tBL - off(next);
            add(prev, next, SpecScope::Channel, SpecRankRel::Same, gap,
                "bus-overlap");
            if (prev == CmdKind::Rd && next == CmdKind::Wr)
                add(prev, next, SpecScope::Channel, SpecRankRel::Same,
                    gap + 2, "rd-wr-turnaround");
            add(prev, next, SpecScope::Channel, SpecRankRel::Diff,
                gap + t.tRTR, "tRTR(bus)");
        }
    }
    return rules;
}

std::string
describeRuleTable(const TimingParams &t)
{
    std::ostringstream oss;
    for (const SpecRule &r : specRuleTable(t)) {
        oss << specKindName(r.prev) << "->" << specKindName(r.next)
            << " " << scopeName(r.scope) << " " << relName(r.rankRel)
            << " gap=" << r.gap << " " << r.name << "\n";
    }
    oss << "# tFAW: 5th ACT >= oldest-of-last-4-ACTs + " << t.tFAW
        << " (rank window)\n";
    oss << "# state: ACT needs bank closed; PRE needs bank open; RD/WR"
           " need open row and matching mode; REF needs all banks in"
           " rank closed\n";
    if (t.tREFI == 0)
        oss << "# refresh: REF illegal (tREFI=0)\n";
    else
        oss << "# refresh: k-th REF due by (k+9)*" << t.tREFI
            << " (tREFI, 8 postponements)\n";
    return oss.str();
}

TimingRules::TimingRules(const Geometry &geom, const TimingParams &timing)
    : geom_(geom), tFAW_(timing.tFAW), rules_(specRuleTable(timing))
{
    for (const SpecRule &r : rules_) {
        horizon_ = std::max<Cycle>(horizon_, r.gap);
        // Bank and group state exists only for bank-addressed kinds.
        sam_assert(r.scope == SpecScope::Rank ||
                       r.scope == SpecScope::Channel ||
                       (bankKind(r.prev) && bankKind(r.next)),
                   "bank/group-scope rule on a rank-level command: ",
                   r.name);
        const auto compile = [&](Target target) {
            Gaps &gaps = gaps_[kindIx(r.prev)][target];
            Gaps::Entry *e = gaps.entries.data();
            Gaps::Entry *const end = e + gaps.size;
            while (e != end && e->next != kindIx(r.next))
                ++e;
            if (e == end) {
                e->next = kindIx(r.next);
                ++gaps.size;
            }
            e->gap = std::max(e->gap, r.gap);
        };
        switch (r.scope) {
          case SpecScope::Bank:      compile(kBank); break;
          case SpecScope::BankGroup: compile(kGroup); break;
          case SpecScope::Rank:      compile(kRank); break;
          case SpecScope::Channel:
            if (r.rankRel != SpecRankRel::Diff)
                compile(kRank);
            if (r.rankRel != SpecRankRel::Same)
                compile(kOtherRanks);
            break;
        }
    }
    horizon_ = std::max<Cycle>(horizon_, tFAW_) + 1;

    const std::size_t ranks =
        static_cast<std::size_t>(geom_.channels) * geom_.ranks;
    banks_.resize(ranks * geom_.banksPerRank());
    groups_.resize(ranks * geom_.bankGroups);
    ranks_.resize(ranks);
}

template <typename Fn>
void
TimingRules::forEachBound(CmdKind kind, const MappedAddr &addr,
                          Fn fn) const
{
    const Site at_site = site(addr);
    for (std::size_t i = 0; i < rules_.size(); ++i) {
        const SpecRule &r = rules_[i];
        if (r.next != kind)
            continue;
        const auto visit = [&](const ScopeState &scope) {
            const Cycle last_plus_1 = scope.lastPlus1[kindIx(r.prev)];
            if (last_plus_1 != 0)
                fn(i, last_plus_1 - 1 + r.gap);
        };
        switch (r.scope) {
          case SpecScope::Bank:
            visit(banks_[at_site.bank]);
            break;
          case SpecScope::BankGroup:
            visit(groups_[at_site.group]);
            break;
          case SpecScope::Rank:
            visit(ranks_[at_site.rank]);
            break;
          case SpecScope::Channel:
            for (unsigned rk = 0; rk < geom_.ranks; ++rk) {
                if (r.rankRel == SpecRankRel::Same && rk != addr.rank)
                    continue;
                if (r.rankRel == SpecRankRel::Diff && rk == addr.rank)
                    continue;
                visit(ranks_[at_site.channelRanks + rk]);
            }
            break;
        }
    }
    const RankState &rank = ranks_[at_site.rank];
    if (kind == CmdKind::Act && rank.actWindowSize == rank.actWindow.size())
        fn(rules_.size(), rank.actWindow[0] + tFAW_);
}

Cycle
TimingRules::ruleBound(CmdKind kind, const MappedAddr &addr) const
{
    Cycle bound = 0;
    forEachBound(kind, addr, [&bound](std::size_t, Cycle b) {
        bound = std::max(bound, b);
    });
    return bound;
}

std::vector<std::string>
TimingRules::bindingRules(CmdKind kind, const MappedAddr &addr,
                          Cycle at) const
{
    std::vector<std::string> names;
    forEachBound(kind, addr, [&](std::size_t rule, Cycle bound) {
        if (bound != at)
            return;
        const std::string &name =
            rule < rules_.size() ? rules_[rule].name : "tFAW";
        if (std::find(names.begin(), names.end(), name) == names.end())
            names.push_back(name);
    });
    return names;
}

void
TimingRules::encodeHistory(std::string &out, Cycle now) const
{
    const auto u32 = [&out](std::uint32_t v) {
        out.push_back(static_cast<char>(v & 0xff));
        out.push_back(static_cast<char>((v >> 8) & 0xff));
        out.push_back(static_cast<char>((v >> 16) & 0xff));
        out.push_back(static_cast<char>((v >> 24) & 0xff));
    };
    // Ages saturate at the horizon: anything older cannot influence
    // any rule and is merged with "never happened".
    const auto ages = [&](const ScopeState &scope) {
        for (unsigned k = 0; k < kKinds; ++k) {
            const Cycle a = now - (scope.lastPlus1[k] - 1);
            u32(scope.lastPlus1[k] == 0 || a >= horizon_
                    ? std::uint32_t(0xffffffffu)
                    : static_cast<std::uint32_t>(a));
        }
    };
    for (const ScopeState &bank : banks_)
        ages(bank);
    for (const ScopeState &group : groups_)
        ages(group);
    for (const RankState &rank : ranks_) {
        ages(rank);
        u32(rank.actWindowSize);
        for (unsigned i = 0; i < rank.actWindowSize; ++i) {
            const Cycle a = now - rank.actWindow[i];
            u32(a >= horizon_ ? static_cast<std::uint32_t>(horizon_)
                              : static_cast<std::uint32_t>(a));
        }
    }
}

} // namespace sam
