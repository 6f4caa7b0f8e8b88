#include "src/check/spec_model.hh"

#include <algorithm>
#include <deque>
#include <memory>
#include <sstream>
#include <unordered_set>

#include "src/check/protocol_checker.hh"
#include "src/common/logging.hh"

namespace sam {

SpecModel::SpecModel(const Geometry &geom, const TimingParams &timing)
    : geom_(geom), timing_(timing), rules_(geom, timing)
{
    banks_.resize(static_cast<std::size_t>(geom_.channels) *
                  geom_.ranks * geom_.banksPerRank());
    ranks_.resize(static_cast<std::size_t>(geom_.channels) *
                  geom_.ranks);
}

std::size_t
SpecModel::rankId(unsigned ch, unsigned rk) const
{
    return static_cast<std::size_t>(ch) * geom_.ranks + rk;
}

std::size_t
SpecModel::bankId(const MappedAddr &a) const
{
    return rankId(a.channel, a.rank) * geom_.banksPerRank() +
           a.bankInRank(geom_);
}

bool
SpecModel::stateLegal(const Cand &c) const
{
    switch (c.kind) {
      case CmdKind::Act:
        return !banks_[bankId(c.addr)].open;
      case CmdKind::Pre:
        return banks_[bankId(c.addr)].open;
      case CmdKind::Rd:
      case CmdKind::Wr: {
        const BankS &bank = banks_[bankId(c.addr)];
        return bank.open && bank.row == c.addr.row &&
               c.mode == ranks_[rankId(c.addr.channel, c.addr.rank)].mode;
      }
      case CmdKind::ModeSwitch:
        return true;
      case CmdKind::Ref: {
        if (timing_.tREFI == 0)
            return false;
        const std::size_t base =
            rankId(c.addr.channel, c.addr.rank) * geom_.banksPerRank();
        for (unsigned b = 0; b < geom_.banksPerRank(); ++b) {
            if (banks_[base + b].open)
                return false;
        }
        return true;
      }
    }
    panic("unknown CmdKind");
}

Cycle
SpecModel::earliestLegal(const Cand &c, Cycle from) const
{
    sam_assert(stateLegal(c), "earliestLegal on a state-illegal cand");
    return rules_.earliest(c.kind, c.addr, from);
}

std::vector<std::string>
SpecModel::bindingRules(const Cand &c, Cycle at) const
{
    return rules_.bindingRules(c.kind, c.addr, at);
}

bool
SpecModel::legalAt(const Cand &c, Cycle at) const
{
    return stateLegal(c) && at >= earliestLegal(c, lastIssue_);
}

void
SpecModel::apply(const Cand &c, Cycle at)
{
    sam_assert(at >= lastIssue_, "commands must be applied in order");
    lastIssue_ = at;
    rules_.commit(c.kind, c.addr, at);
    RankS &rank = ranks_[rankId(c.addr.channel, c.addr.rank)];
    switch (c.kind) {
      case CmdKind::Act:
        banks_[bankId(c.addr)] = BankS{true, c.addr.row};
        break;
      case CmdKind::Pre:
        banks_[bankId(c.addr)].open = false;
        break;
      case CmdKind::ModeSwitch:
        rank.mode = c.mode;
        break;
      case CmdKind::Ref:
        ++rank.refCount;
        break;
      case CmdKind::Rd:
      case CmdKind::Wr:
        break;
    }
}

Cycle
SpecModel::refDeadline(unsigned channel, unsigned rank) const
{
    const RankS &r = ranks_[rankId(channel, rank)];
    return (r.refCount + 1 + 8) * static_cast<Cycle>(timing_.tREFI);
}

AccessMode
SpecModel::rankMode(unsigned channel, unsigned rank) const
{
    return ranks_[rankId(channel, rank)].mode;
}

std::string
SpecModel::canonical() const
{
    std::string out;
    out.reserve(64 + banks_.size() * 32);
    rules_.encodeHistory(out, lastIssue_);
    const auto u32 = [&out](std::uint32_t v) {
        out.push_back(static_cast<char>(v & 0xff));
        out.push_back(static_cast<char>((v >> 8) & 0xff));
        out.push_back(static_cast<char>((v >> 16) & 0xff));
        out.push_back(static_cast<char>((v >> 24) & 0xff));
    };
    for (const BankS &bank : banks_) {
        u32(bank.open ? 1 : 0);
        // A closed bank's stale row is unobservable; mask it so states
        // differing only there merge.
        u32(bank.open ? static_cast<std::uint32_t>(bank.row) : 0);
    }
    for (const RankS &rank : ranks_) {
        u32(rank.mode == AccessMode::Stride ? 1 : 0);
        u32(static_cast<std::uint32_t>(
            std::min<std::uint64_t>(rank.refCount, 15)));
    }
    return out;
}

std::string
VerifyStats::summary() const
{
    std::ostringstream oss;
    oss << "explored " << nodesExplored << " state(s) ("
        << statesDeduped << " merged), " << checkerRuns
        << " checker replays; probes: " << earliestProbes
        << " earliest-clean, " << boundaryProbes << " boundary-flagged, "
        << stateProbes << " state-illegal, " << monotoneProbes
        << " monotone; " << (exhausted ? "exhausted" : "CAPPED") << ", "
        << failures.size() << " failure(s)";
    return oss.str();
}

namespace {

Command
candCommand(const SpecModel::Cand &c, Cycle at)
{
    Command cmd;
    cmd.kind = c.kind;
    cmd.at = at;
    cmd.addr = c.addr;
    cmd.mode = c.mode;
    return cmd;
}

/** One BFS node: the command appended to its parent's sequence. */
struct SeqNode
{
    std::shared_ptr<const SeqNode> parent;
    SpecModel::Cand cand;
    Cycle at = 0;
    unsigned depth = 0;
};

std::string
describeStream(const std::vector<Command> &cmds)
{
    if (cmds.empty())
        return "<empty>";
    std::string out;
    for (const Command &c : cmds) {
        if (!out.empty())
            out += "; ";
        out += c.str();
    }
    return out;
}

std::string
describeViolations(const std::vector<Violation> &vs)
{
    if (vs.empty())
        return "clean";
    std::string out;
    const std::size_t shown = std::min<std::size_t>(vs.size(), 2);
    for (std::size_t i = 0; i < shown; ++i) {
        if (!out.empty())
            out += " | ";
        out += vs[i].constraint + ": " + vs[i].message;
    }
    if (shown < vs.size())
        out += " | +" + std::to_string(vs.size() - shown) + " more";
    return out;
}

bool
sameCommand(const Command &a, const Command &b)
{
    return a.kind == b.kind && a.at == b.at &&
           a.addr.channel == b.addr.channel &&
           a.addr.rank == b.addr.rank &&
           a.addr.bankGroup == b.addr.bankGroup &&
           a.addr.bank == b.addr.bank && a.addr.row == b.addr.row;
}

/**
 * True when some violation blames `probe` with a constraint from
 * `names` (any constraint when `names` is null). With `names`, a
 * violation on a *different* command at the probe's cycle also counts:
 * the prefix is checker-clean by construction, so any flag is caused
 * by the probe, and a REF tie can blame the swallowed command rather
 * than the REF itself.
 */
bool
mentionsProbe(const std::vector<Violation> &vs, const Command &probe,
              const std::vector<std::string> *names)
{
    for (const Violation &v : vs) {
        if (!names) {
            if (sameCommand(v.cmd, probe))
                return true;
            continue;
        }
        if (v.cmd.at == probe.at &&
            std::find(names->begin(), names->end(), v.constraint) !=
                names->end())
            return true;
    }
    return false;
}

std::vector<SpecModel::Cand>
enumerateCands(const SpecModel &model, unsigned probe_rows)
{
    const Geometry &g = model.geometry();
    std::vector<SpecModel::Cand> out;
    for (unsigned ch = 0; ch < g.channels; ++ch) {
        for (unsigned rk = 0; rk < g.ranks; ++rk) {
            const AccessMode mode = model.rankMode(ch, rk);
            const AccessMode other = mode == AccessMode::Regular
                                         ? AccessMode::Stride
                                         : AccessMode::Regular;
            for (unsigned bg = 0; bg < g.bankGroups; ++bg) {
                for (unsigned bk = 0; bk < g.banksPerGroup; ++bk) {
                    SpecModel::Cand c;
                    c.addr.channel = ch;
                    c.addr.rank = rk;
                    c.addr.bankGroup = bg;
                    c.addr.bank = bk;
                    for (unsigned row = 0; row < probe_rows; ++row) {
                        c.addr.row = row;
                        c.kind = CmdKind::Act;
                        out.push_back(c);
                        c.kind = CmdKind::Rd;
                        c.mode = mode;
                        out.push_back(c);
                        c.kind = CmdKind::Wr;
                        out.push_back(c);
                    }
                    c.addr.row = 0;
                    c.kind = CmdKind::Pre;
                    c.mode = AccessMode::Regular;
                    out.push_back(c);
                    // Wrong-mode CAS: state-illegal probe.
                    c.kind = CmdKind::Rd;
                    c.mode = other;
                    out.push_back(c);
                }
            }
            SpecModel::Cand c;
            c.addr.channel = ch;
            c.addr.rank = rk;
            c.kind = CmdKind::ModeSwitch;
            c.mode = other;
            out.push_back(c);
            c.kind = CmdKind::Ref;
            c.mode = AccessMode::Regular;
            out.push_back(c);
        }
    }
    return out;
}

} // namespace

VerifyStats
verifySpecAgainstChecker(const Geometry &geom,
                         const TimingParams &timing,
                         const VerifyOptions &opt)
{
    // The pairwise bus rules are equivalent to the checker's
    // adjacent-burst walk only when a handover bubble fits within one
    // burst, and the equal-time tie-break analysis needs every
    // state-coupled rule to carry a positive gap. Both hold for the
    // DDR4 and RRAM presets and any derating of them.
    sam_assert(timing.tRTR <= timing.tBL,
               "spec/checker equivalence needs tRTR <= tBL");
    sam_assert(timing.tRP >= 1 && timing.tRAS >= 1 &&
                   timing.tRCD >= 1 && timing.tRTP >= 1,
               "spec/checker equivalence needs positive state gaps");

    VerifyStats stats;
    const std::vector<std::string> state_names = {"bank-state",
                                                  "mode-state", "tREFI"};
    const auto fail = [&](std::string msg) {
        if (stats.failures.size() < opt.maxFailures)
            stats.failures.push_back(std::move(msg));
    };
    const auto check = [&](const std::vector<Command> &cmds) {
        ++stats.checkerRuns;
        ProtocolChecker pc(geom, timing);
        for (const Command &c : cmds)
            pc.observe(c);
        return pc.violations();
    };

    std::unordered_set<std::string> visited;
    visited.insert(SpecModel(geom, timing).canonical());
    std::deque<std::shared_ptr<const SeqNode>> frontier;
    frontier.push_back(nullptr); // The empty sequence.
    bool capped = false;

    while (!frontier.empty() &&
           stats.failures.size() < opt.maxFailures) {
        if (stats.nodesExplored >= opt.maxNodes) {
            capped = true;
            break;
        }
        const std::shared_ptr<const SeqNode> node = frontier.front();
        frontier.pop_front();
        ++stats.nodesExplored;

        // Rebuild the node's model and command prefix from the chain.
        std::vector<const SeqNode *> chain;
        for (const SeqNode *n = node.get(); n; n = n->parent.get())
            chain.push_back(n);
        std::reverse(chain.begin(), chain.end());
        SpecModel model(geom, timing);
        std::vector<Command> cmds;
        cmds.reserve(chain.size() + 1);
        for (const SeqNode *n : chain) {
            model.apply(n->cand, n->at);
            cmds.push_back(candCommand(n->cand, n->at));
        }
        const unsigned depth = node ? node->depth : 0;
        const Cycle floor = model.lastIssue();
        std::size_t issuable = 0;

        for (const SpecModel::Cand &c :
             enumerateCands(model, opt.probeRows)) {
            if (stats.failures.size() >= opt.maxFailures)
                break;
            cmds.push_back(Command{});
            Command &probe = cmds.back();

            if (!model.stateLegal(c)) {
                // Spec says never: the checker must flag it at any
                // issue time with a state-rule constraint.
                probe = candCommand(c, floor + 1);
                ++stats.stateProbes;
                const auto &vs = check(cmds);
                if (!mentionsProbe(vs, probe, &state_names)) {
                    fail("state disagreement after [" +
                         describeStream(
                             {cmds.begin(), cmds.end() - 1}) +
                         "]: spec rejects " + probe.str() +
                         " but checker says " + describeViolations(vs));
                }
                cmds.pop_back();
                continue;
            }

            const Cycle earliest = model.earliestLegal(c, floor);
            ++issuable;
            // The forward bound (the compiled table, what the Device
            // reads) must be the largest rule bound read back from the
            // issue history (what names the binding rules).
            const Cycle backward =
                std::max(floor, model.rules().ruleBound(c.kind, c.addr));
            if (backward != earliest) {
                fail("forward bound " + std::to_string(earliest) +
                     " != rule-by-rule bound " + std::to_string(backward) +
                     " for " + candCommand(c, earliest).str() +
                     " after [" +
                     describeStream({cmds.begin(), cmds.end() - 1}) +
                     "]");
            }
            const Cycle deadline =
                c.kind == CmdKind::Ref
                    ? model.refDeadline(c.addr.channel, c.addr.rank)
                    : 0;
            if (c.kind == CmdKind::Ref && earliest > deadline) {
                fail("REF earliest " + std::to_string(earliest) +
                     " past deadline " + std::to_string(deadline) +
                     " after [" +
                     describeStream({cmds.begin(), cmds.end() - 1}) +
                     "]");
                cmds.pop_back();
                continue;
            }

            // Issuing at the spec earliest must be checker-clean.
            probe = candCommand(c, earliest);
            ++stats.earliestProbes;
            {
                const auto &vs = check(cmds);
                if (!vs.empty()) {
                    fail("spec looser than checker: [" +
                         describeStream(cmds) + "] flagged: " +
                         describeViolations(vs));
                }
            }

            // One cycle earlier, when a rule binds, must be flagged
            // with one of the binding rule names.
            if (earliest > floor) {
                const std::vector<std::string> names =
                    model.bindingRules(c, earliest);
                probe = candCommand(c, earliest - 1);
                ++stats.boundaryProbes;
                const auto &vs = check(cmds);
                if (!mentionsProbe(vs, probe, &names)) {
                    std::string expect;
                    for (const std::string &n : names)
                        expect += (expect.empty() ? "" : "/") + n;
                    fail("spec tighter than checker: [" +
                         describeStream(cmds) + "] expected " + expect +
                         ", checker says " + describeViolations(vs));
                }
            }

            // Legality must be upward-closed in time (except the REF
            // deadline): the property the skip-ahead scheduler needs.
            if (opt.monotone) {
                const Cycle deltas[2] = {1, model.horizon()};
                for (Cycle delta : deltas) {
                    const Cycle at = earliest + delta;
                    if (c.kind == CmdKind::Ref && at > deadline)
                        continue;
                    probe = candCommand(c, at);
                    ++stats.monotoneProbes;
                    const auto &vs = check(cmds);
                    if (!vs.empty()) {
                        fail("not monotone: [" + describeStream(cmds) +
                             "] flagged: " + describeViolations(vs));
                    }
                }
            }
            cmds.pop_back();

            if (depth < opt.depth) {
                SpecModel child = model;
                child.apply(c, earliest);
                if (visited.insert(child.canonical()).second) {
                    auto next = std::make_shared<SeqNode>();
                    next->parent = node;
                    next->cand = c;
                    next->at = earliest;
                    next->depth = depth + 1;
                    frontier.push_back(std::move(next));
                } else {
                    ++stats.statesDeduped;
                }
            }
        }
        if (issuable == 0) {
            fail("deadlock: no issuable candidate after [" +
                 describeStream(cmds) + "]");
        }
    }
    stats.exhausted = !capped && frontier.empty() &&
                      stats.failures.size() < opt.maxFailures;
    return stats;
}

} // namespace sam
