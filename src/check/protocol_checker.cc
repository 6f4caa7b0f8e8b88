#include "src/check/protocol_checker.hh"

#include <algorithm>
#include <compare>
#include <cstdint>
#include <sstream>

#include "src/common/logging.hh"
#include "src/dram/device.hh"

namespace sam {

namespace {

/**
 * Tie-break for commands scheduled in the same cycle: state-changing
 * commands that enable others (PRE before ACT before REF before CAS)
 * come first, matching how a real controller would serialize them on
 * the command bus. A mode switch sorts after an equal-time CAS: the
 * engine always commits switches strictly after the rank's last CAS,
 * so a tie only appears in adversarial streams, where the switch is
 * the offender (it would retroactively change the CAS's mode).
 */
int
kindPriority(CmdKind kind)
{
    switch (kind) {
      case CmdKind::Pre:        return 0;
      case CmdKind::Act:        return 1;
      case CmdKind::Ref:        return 2;
      case CmdKind::Rd:
      case CmdKind::Wr:         return 3;
      case CmdKind::ModeSwitch: return 4;
    }
    panic("unknown CmdKind");
}

/**
 * Sort key of one observed command: its cycle, then its kind priority
 * above its observation index (56 bits index any stream that fits in
 * memory). Keys are unique, so std::sort yields the order a stable
 * sort of the commands by (cycle, kind priority) would, without moving
 * a Command.
 */
struct SortKey
{
    Cycle at;
    std::uint64_t tie; ///< kindPriority << kObsBits | observation index.

    auto operator<=>(const SortKey &) const = default;
};

constexpr unsigned kObsBits = 56;
constexpr std::uint64_t kObsMask = (std::uint64_t{1} << kObsBits) - 1;

/**
 * Signed rendering of `at - since` for violation messages: adversarial
 * streams can place a command before its reference point, where a raw
 * unsigned difference would wrap to a huge number.
 */
std::string
gapStr(Cycle at, Cycle since)
{
    return at >= since ? std::to_string(at - since)
                       : "-" + std::to_string(since - at);
}

} // namespace

ProtocolChecker::ProtocolChecker(const Geometry &geom,
                                 const TimingParams &timing)
    : geom_(geom), timing_(timing)
{
}

void
ProtocolChecker::observe(const Command &cmd)
{
    sam_assert(cmd.addr.channel < geom_.channels &&
                   cmd.addr.rank < geom_.ranks,
               "observed command outside geometry");
    // Only channel and rank are meaningful for REF and mode switches.
    sam_assert(cmd.kind == CmdKind::Ref ||
                   cmd.kind == CmdKind::ModeSwitch ||
                   (cmd.addr.bankGroup < geom_.bankGroups &&
                    cmd.addr.bank < geom_.banksPerGroup),
               "observed command outside geometry");
    if (chunks_.empty() || chunks_.back().size() == kChunk) {
        // The first chunk grows like any vector (short runs stay
        // small); later ones start at full size.
        chunks_.emplace_back();
        if (chunks_.size() > 1)
            chunks_.back().reserve(kChunk);
    }
    chunks_.back().push_back(cmd);
    ++count_;
    checked_ = false;
}

ProtocolChecker::~ProtocolChecker()
{
    if (device_)
        device_->removeCommandObserver(this);
}

void
ProtocolChecker::attach(Device &dev)
{
    sam_assert(device_ == nullptr, "checker already attached");
    device_ = &dev;
    dev.addCommandObserver(
        this, [this](const Command &cmd) { observe(cmd); });
}

const std::vector<Violation> &
ProtocolChecker::violations()
{
    if (!checked_)
        run();
    return violations_;
}

std::string
ProtocolChecker::report(std::size_t max_violations)
{
    const auto &v = violations();
    std::ostringstream oss;
    oss << "ProtocolChecker: " << v.size() << " violation(s) over "
        << count_ << " commands";
    const std::size_t shown = std::min(v.size(), max_violations);
    for (std::size_t i = 0; i < shown; ++i) {
        oss << "\n  [" << v[i].index << "] " << v[i].constraint << ": "
            << v[i].message;
    }
    if (shown < v.size())
        oss << "\n  ... " << (v.size() - shown) << " more";
    return oss.str();
}

void
ProtocolChecker::flag(const std::string &constraint, const Command &cmd,
                      std::size_t index, const std::string &detail)
{
    Violation v;
    v.constraint = constraint;
    v.message = cmd.str() + ": " + detail;
    v.cmd = cmd;
    v.index = index;
    violations_.push_back(std::move(v));
}

void
ProtocolChecker::checkRefreshBlackout(const RankCheck &rank,
                                      const Command &cmd,
                                      std::size_t index)
{
    if (rank.hasRef && cmd.at >= rank.refStart && cmd.at < rank.refEnd) {
        std::ostringstream oss;
        oss << "issued during refresh blackout [" << rank.refStart
            << ", " << rank.refEnd << ")";
        flag("tRFC", cmd, index, oss.str());
    }
}

void
ProtocolChecker::checkAct(BankCheck &bank, RankCheck &rank,
                          const Command &cmd, std::size_t index)
{
    checkRefreshBlackout(rank, cmd, index);
    if (bank.open) {
        flag("bank-state", cmd, index,
             "ACT to an already-open bank (row " +
                 std::to_string(bank.row) + " not precharged)");
    }
    if (bank.hasPre && cmd.at < bank.lastPre + timing_.tRP) {
        flag("tRP", cmd, index,
             "only " + gapStr(cmd.at, bank.lastPre) +
                 " cycles after PRE @" + std::to_string(bank.lastPre) +
                 ", need " + std::to_string(timing_.tRP));
    }
    if (bank.hasAct && cmd.at < bank.lastAct + timing_.tRC()) {
        flag("tRC", cmd, index,
             "only " + gapStr(cmd.at, bank.lastAct) +
                 " cycles after ACT @" + std::to_string(bank.lastAct) +
                 ", need " + std::to_string(timing_.tRC()));
    }
    if (rank.hasAct && cmd.at < rank.lastAct + timing_.tRRD_S) {
        flag("tRRD_S", cmd, index,
             "only " + gapStr(cmd.at, rank.lastAct) +
                 " cycles after rank ACT @" +
                 std::to_string(rank.lastAct) + ", need " +
                 std::to_string(timing_.tRRD_S));
    }
    const unsigned bg = cmd.addr.bankGroup;
    if (rank.groupHasAct[bg] &&
        cmd.at < rank.groupLastAct[bg] + timing_.tRRD_L) {
        flag("tRRD_L", cmd, index,
             "only " + gapStr(cmd.at, rank.groupLastAct[bg]) +
                 " cycles after same-group ACT @" +
                 std::to_string(rank.groupLastAct[bg]) + ", need " +
                 std::to_string(timing_.tRRD_L));
    }
    if (rank.actWindow.size() >= 4 &&
        cmd.at < rank.actWindow.front() + timing_.tFAW) {
        flag("tFAW", cmd, index,
             "fifth ACT only " +
                 gapStr(cmd.at, rank.actWindow.front()) +
                 " cycles after ACT @" +
                 std::to_string(rank.actWindow.front()) + ", need " +
                 std::to_string(timing_.tFAW));
    }

    bank.open = true;
    bank.row = cmd.addr.row;
    bank.hasAct = true;
    bank.lastAct = cmd.at;
    rank.hasAct = true;
    rank.lastAct = cmd.at;
    rank.groupHasAct[bg] = 1;
    rank.groupLastAct[bg] = cmd.at;
    rank.actWindow.push_back(cmd.at);
    while (rank.actWindow.size() > 4)
        rank.actWindow.pop_front();
}

void
ProtocolChecker::checkPre(BankCheck &bank, RankCheck &rank,
                          const Command &cmd, std::size_t index)
{
    if (!bank.open) {
        flag("bank-state", cmd, index, "PRE to a closed bank");
    } else {
        if (cmd.at < bank.lastAct + timing_.tRAS) {
            flag("tRAS", cmd, index,
                 "only " + gapStr(cmd.at, bank.lastAct) +
                     " cycles after ACT @" +
                     std::to_string(bank.lastAct) + ", need " +
                     std::to_string(timing_.tRAS));
        }
        if (bank.hasRd && cmd.at < bank.lastRdCas + timing_.tRTP) {
            flag("tRTP", cmd, index,
                 "only " + gapStr(cmd.at, bank.lastRdCas) +
                     " cycles after RD @" +
                     std::to_string(bank.lastRdCas) + ", need " +
                     std::to_string(timing_.tRTP));
        }
        if (bank.hasWr && cmd.at < bank.lastWrEnd + timing_.tWR) {
            flag("tWR", cmd, index,
                 "only " + gapStr(cmd.at, bank.lastWrEnd) +
                     " cycles after write-data end @" +
                     std::to_string(bank.lastWrEnd) + ", need " +
                     std::to_string(timing_.tWR));
        }
    }
    bank.open = false;
    bank.hasPre = true;
    bank.lastPre = cmd.at;
    rank.hasPre = true;
    rank.lastPre = cmd.at;
}

void
ProtocolChecker::checkCas(BankCheck &bank, RankCheck &rank,
                          const Command &cmd, std::size_t index)
{
    checkRefreshBlackout(rank, cmd, index);
    const bool is_write = cmd.kind == CmdKind::Wr;
    if (!bank.open) {
        flag("bank-state", cmd, index,
             std::string(is_write ? "WR" : "RD") + " to a closed bank");
    } else if (bank.row != cmd.addr.row) {
        flag("bank-state", cmd, index,
             "CAS to row " + std::to_string(cmd.addr.row) +
                 " while row " + std::to_string(bank.row) + " is open");
    } else if (cmd.at < bank.lastAct + timing_.tRCD) {
        flag("tRCD", cmd, index,
             "only " + gapStr(cmd.at, bank.lastAct) +
                 " cycles after ACT @" + std::to_string(bank.lastAct) +
                 ", need " + std::to_string(timing_.tRCD));
    }
    if (rank.hasCas && cmd.at < rank.lastCas + timing_.tCCD_S) {
        flag("tCCD_S", cmd, index,
             "only " + gapStr(cmd.at, rank.lastCas) +
                 " cycles after rank CAS @" +
                 std::to_string(rank.lastCas) + ", need " +
                 std::to_string(timing_.tCCD_S));
    }
    const unsigned bg = cmd.addr.bankGroup;
    if (rank.groupHasCas[bg] &&
        cmd.at < rank.groupLastCas[bg] + timing_.tCCD_L) {
        flag("tCCD_L", cmd, index,
             "only " + gapStr(cmd.at, rank.groupLastCas[bg]) +
                 " cycles after same-group CAS @" +
                 std::to_string(rank.groupLastCas[bg]) + ", need " +
                 std::to_string(timing_.tCCD_L));
    }
    if (!is_write) {
        if (rank.hasWr && cmd.at < rank.lastWrEnd + timing_.tWTR_S) {
            flag("tWTR_S", cmd, index,
                 "RD only " + gapStr(cmd.at, rank.lastWrEnd) +
                     " cycles after rank write-data end @" +
                     std::to_string(rank.lastWrEnd) + ", need " +
                     std::to_string(timing_.tWTR_S));
        }
        if (rank.groupHasWr[bg] &&
            cmd.at < rank.groupLastWrEnd[bg] + timing_.tWTR_L) {
            flag("tWTR_L", cmd, index,
                 "RD only " +
                     gapStr(cmd.at, rank.groupLastWrEnd[bg]) +
                     " cycles after same-group write-data end @" +
                     std::to_string(rank.groupLastWrEnd[bg]) +
                     ", need " + std::to_string(timing_.tWTR_L));
        }
    }
    // SAM Section 5.3: the mode register is command-pipelined -- a CAS
    // samples the rank's I/O mode at issue, and the first CAS after a
    // switch must trail it by tRTR.
    if (cmd.mode != rank.mode) {
        flag("mode-state", cmd, index,
             std::string("CAS in ") +
                 (cmd.mode == AccessMode::Stride ? "stride" : "regular") +
                 " mode while the rank is in " +
                 (rank.mode == AccessMode::Stride ? "stride"
                                                  : "regular") +
                 " mode");
    }
    if (rank.hasSwitch && cmd.at < rank.lastSwitch + timing_.tRTR) {
        flag("tRTR(mode)", cmd, index,
             "CAS only " + gapStr(cmd.at, rank.lastSwitch) +
                 " cycles after mode switch @" +
                 std::to_string(rank.lastSwitch) + ", need " +
                 std::to_string(timing_.tRTR));
    }

    rank.hasCas = true;
    rank.lastCas = cmd.at;
    rank.groupHasCas[bg] = 1;
    rank.groupLastCas[bg] = cmd.at;
    if (is_write) {
        const Cycle wr_end = cmd.at + timing_.cwl + timing_.tBL;
        bank.hasWr = true;
        bank.lastWrEnd = wr_end;
        rank.hasWr = true;
        rank.lastWrEnd = std::max(rank.lastWrEnd, wr_end);
        rank.groupHasWr[bg] = 1;
        rank.groupLastWrEnd[bg] =
            std::max(rank.groupLastWrEnd[bg], wr_end);
    } else {
        bank.hasRd = true;
        bank.lastRdCas = cmd.at;
        rank.hasRd = true;
    }
}

void
ProtocolChecker::checkModeSwitch(RankCheck &rank, const Command &cmd,
                                 std::size_t index)
{
    checkRefreshBlackout(rank, cmd, index);
    // A switch issued at or before the rank's latest CAS would
    // retroactively change the mode that CAS was issued under.
    if (rank.hasCas && cmd.at <= rank.lastCas) {
        flag("mode-state", cmd, index,
             "mode switch at or before the rank's last CAS @" +
                 std::to_string(rank.lastCas));
    }
    if (rank.hasSwitch && cmd.at < rank.lastSwitch + timing_.tRTR) {
        flag("tRTR(mode)", cmd, index,
             "only " + gapStr(cmd.at, rank.lastSwitch) +
                 " cycles after previous switch @" +
                 std::to_string(rank.lastSwitch) + ", need " +
                 std::to_string(timing_.tRTR));
    }
    rank.mode = cmd.mode;
    rank.hasSwitch = true;
    rank.lastSwitch = cmd.at;
}

void
ProtocolChecker::checkRef(RankCheck &rank, const Command &cmd,
                          std::size_t index)
{
    if (timing_.tREFI == 0) {
        flag("tREFI", cmd, index,
             "REF issued to a technology without refresh");
        return;
    }
    if (rank.hasRef && cmd.at < rank.refEnd) {
        flag("tRFC", cmd, index,
             "REF only " + gapStr(cmd.at, rank.refStart) +
                 " cycles after REF @" + std::to_string(rank.refStart) +
                 ", need " + std::to_string(timing_.tRFC));
    }
    // Every bank of the rank must have finished precharging.
    if (rank.hasPre && cmd.at < rank.lastPre + timing_.tRP) {
        flag("tRP", cmd, index,
             "only " + gapStr(cmd.at, rank.lastPre) +
                 " cycles after rank PRE @" +
                 std::to_string(rank.lastPre) + ", need " +
                 std::to_string(timing_.tRP));
    }
    // DDR4 allows postponing up to 8 refresh commands; past that the
    // device would lose data. The k-th refresh is nominally due at
    // (k+1) * tREFI.
    const Cycle deadline =
        (rank.refCount + 1) * static_cast<Cycle>(timing_.tREFI) +
        8 * static_cast<Cycle>(timing_.tREFI);
    if (cmd.at > deadline) {
        flag("tREFI", cmd, index,
             "refresh #" + std::to_string(rank.refCount) +
                 " postponed past " + std::to_string(deadline));
    }
    rank.hasRef = true;
    rank.refStart = cmd.at;
    rank.refEnd = cmd.at + timing_.tRFC;
    ++rank.refCount;
}

void
ProtocolChecker::checkDataBus(const std::vector<Burst> &bursts)
{
    // Walk bursts in data order per channel; the engine's bus cursor is
    // monotone in data time, so adjacent-pair checks are sufficient.
    std::vector<const Burst *> last(geom_.channels, nullptr);
    std::vector<const Burst *> lastRead(
        static_cast<std::size_t>(geom_.channels) * geom_.ranks, nullptr);
    for (const Burst &b : bursts) {
        const Command &cmd = command(b.obs);
        const Cycle end = b.start + timing_.tBL;
        const Burst *prev = last[b.channel];
        if (prev) {
            const Cycle prev_end = prev->start + timing_.tBL;
            if (b.start < prev_end) {
                flag("bus-overlap", cmd, b.index,
                     "data [" + std::to_string(b.start) + ", " +
                         std::to_string(end) +
                         ") overlaps previous burst ending @" +
                         std::to_string(prev_end));
            } else if (prev->rank != b.rank &&
                       b.start < prev_end + timing_.tRTR) {
                flag("tRTR(bus)", cmd, b.index,
                     "rank switch with only " +
                         gapStr(b.start, prev_end) +
                         " bubble cycles, need " +
                         std::to_string(timing_.tRTR));
            }
        }
        const std::size_t rank_id =
            static_cast<std::size_t>(b.channel) * geom_.ranks + b.rank;
        if (b.isWrite) {
            const Burst *rd = lastRead[rank_id];
            if (rd && b.start < rd->start + timing_.tBL + 2) {
                flag("rd-wr-turnaround", cmd, b.index,
                     "write data @" + std::to_string(b.start) +
                         " follows read data ending @" +
                         std::to_string(rd->start + timing_.tBL) +
                         " without a 2-cycle bubble");
            }
        } else {
            lastRead[rank_id] = &b;
        }
        last[b.channel] = &b;
    }
}

void
ProtocolChecker::run()
{
    violations_.clear();

    // The engine emits commands in commit order; re-establish wall-clock
    // order before replaying the stream through the state machines.
    std::vector<SortKey> order;
    order.reserve(count_);
    std::size_t cas_count = 0;
    for (std::size_t i = 0; i < count_; ++i) {
        const Command &cmd = command(i);
        const std::uint64_t prio = kindPriority(cmd.kind);
        order.push_back({cmd.at, (prio << kObsBits) | i});
        cas_count += cmd.kind == CmdKind::Rd || cmd.kind == CmdKind::Wr;
    }
    std::sort(order.begin(), order.end());

    std::vector<BankCheck> banks(static_cast<std::size_t>(
        geom_.channels) * geom_.ranks * geom_.banksPerRank());
    std::vector<RankCheck> ranks(
        static_cast<std::size_t>(geom_.channels) * geom_.ranks);
    for (auto &r : ranks) {
        r.groupLastAct.assign(geom_.bankGroups, 0);
        r.groupLastCas.assign(geom_.bankGroups, 0);
        r.groupLastWrEnd.assign(geom_.bankGroups, 0);
        r.groupHasAct.assign(geom_.bankGroups, 0);
        r.groupHasCas.assign(geom_.bankGroups, 0);
        r.groupHasWr.assign(geom_.bankGroups, 0);
    }

    std::vector<Burst> bursts;
    bursts.reserve(cas_count);
    for (std::size_t i = 0; i < order.size(); ++i) {
        const std::size_t obs = order[i].tie & kObsMask;
        const Command &cmd = command(obs);
        const std::size_t rank_id =
            static_cast<std::size_t>(cmd.addr.channel) * geom_.ranks +
            cmd.addr.rank;
        RankCheck &rank = ranks[rank_id];
        switch (cmd.kind) {
          case CmdKind::Act:
          case CmdKind::Pre:
          case CmdKind::Rd:
          case CmdKind::Wr: {
            BankCheck &bank =
                banks[rank_id * geom_.banksPerRank() +
                      cmd.addr.bankGroup * geom_.banksPerGroup +
                      cmd.addr.bank];
            if (cmd.kind == CmdKind::Act) {
                checkAct(bank, rank, cmd, i);
            } else if (cmd.kind == CmdKind::Pre) {
                checkPre(bank, rank, cmd, i);
            } else {
                checkCas(bank, rank, cmd, i);
                Burst b;
                b.isWrite = cmd.kind == CmdKind::Wr;
                b.start = cmd.at + (b.isWrite ? timing_.cwl : timing_.cl);
                b.channel = cmd.addr.channel;
                b.rank = cmd.addr.rank;
                b.index = i;
                b.obs = obs;
                bursts.push_back(b);
            }
            break;
          }
          case CmdKind::ModeSwitch:
            checkModeSwitch(rank, cmd, i);
            break;
          case CmdKind::Ref: {
            // REF requires every bank of the rank precharged.
            for (unsigned b = 0; b < geom_.banksPerRank(); ++b) {
                const BankCheck &bank =
                    banks[rank_id * geom_.banksPerRank() + b];
                if (bank.open) {
                    flag("bank-state", cmd, i,
                         "REF with bank " + std::to_string(b) +
                             " open (row " + std::to_string(bank.row) +
                             ")");
                }
            }
            checkRef(rank, cmd, i);
            break;
          }
        }
    }

    // Data-bus pass. CAS order and data order can diverge (CL=17 reads
    // vs CWL=12 writes), so order bursts by when their data actually
    // occupies the bus, equal starts in stream order. Bursts arrive in
    // stream order, so a stream whose CAS all share one latency (every
    // reads-only run) is already in data order and is not sorted.
    const auto data_order = [](const Burst &a, const Burst &b) {
        return a.start != b.start ? a.start < b.start : a.index < b.index;
    };
    if (!std::is_sorted(bursts.begin(), bursts.end(), data_order))
        std::sort(bursts.begin(), bursts.end(), data_order);
    checkDataBus(bursts);
    checked_ = true;
}

} // namespace sam
