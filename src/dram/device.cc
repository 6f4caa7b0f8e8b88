#include "src/dram/device.hh"

#include <algorithm>

#include "src/common/logging.hh"

namespace sam {

void
DeviceStats::registerIn(StatGroup &group) const
{
    group.addCounter("activates", activates, "row activations");
    group.addCounter("columnActivates", columnActivates,
                     "column-wise subarray activations");
    group.addCounter("precharges", precharges, "bank precharges");
    group.addCounter("reads", reads, "regular read bursts");
    group.addCounter("writes", writes, "regular write bursts");
    group.addCounter("strideReads", strideReads, "stride-mode reads");
    group.addCounter("strideWrites", strideWrites, "stride-mode writes");
    group.addCounter("extraBursts", extraBursts,
                     "additional bursts (ECC fetch / sub-field)");
    group.addCounter("rowHits", rowHits, "row-buffer hits");
    group.addCounter("rowMisses", rowMisses, "row-buffer misses");
    group.addCounter("modeSwitches", modeSwitches, "I/O mode switches");
    group.addCounter("refreshes", refreshes, "refresh operations");
    group.addCounter("busBusyCycles", busBusyCycles,
                     "data bus occupied cycles");
}

Device::Device(const Geometry &geom, const TimingParams &timing)
    : geom_(geom), timing_(timing), rules_(geom, timing)
{
    banks_.resize(static_cast<std::size_t>(geom_.channels) * geom_.ranks *
                  geom_.banksPerRank());
    ranks_.resize(static_cast<std::size_t>(geom_.channels) * geom_.ranks);
    for (auto &r : ranks_) {
        // Stagger initial refreshes across ranks is unnecessary at this
        // fidelity; refresh starts one interval in.
        r.nextRefresh = timing_.tREFI;
    }
}

void
Device::addCommandObserver(const void *owner, CommandObserver obs)
{
    sam_assert(owner != nullptr, "command observer owner must be non-null");
    sam_assert(obs != nullptr, "command observer must be callable");
    // Always-on checked error (not a debug assert): a double attach
    // would silently double-count every command in telemetry and the
    // protocol oracle, so release builds must reject it too. The list
    // is left unchanged (strong guarantee).
    for (const auto &entry : cmdObservers_) {
        if (entry.first == owner) {
            panic("command observer owner ", owner,
                  " attached twice (", cmdObservers_.size(),
                  " observer(s) attached)");
        }
    }
    cmdObservers_.emplace_back(owner, std::move(obs));
}

void
Device::removeCommandObserver(const void *owner)
{
    for (auto it = cmdObservers_.begin(); it != cmdObservers_.end(); ++it) {
        if (it->first == owner) {
            cmdObservers_.erase(it);
            return;
        }
    }
}

void
Device::emit(CmdKind kind, Cycle at, const MappedAddr &addr,
             AccessMode mode)
{
    if (cmdObservers_.empty())
        return;
    Command cmd;
    cmd.kind = kind;
    cmd.at = at;
    cmd.addr = addr;
    cmd.mode = mode;
    for (const auto &entry : cmdObservers_)
        entry.second(cmd);
}

Cycle
Device::issue(CmdKind kind, const MappedAddr &addr, Cycle floor,
              AccessMode mode)
{
    const TimingRules::Site site = rules_.site(addr);
    const Cycle at = rules_.earliest(kind, site, floor);
    rules_.commit(kind, site, at);
    emit(kind, at, addr, mode);
    return at;
}

void
Device::addRowListener(RowStateListener *listener)
{
    sam_assert(listener != nullptr, "row listener must be non-null");
    for (RowStateListener *l : rowListeners_) {
        if (l == listener)
            panic("row-state listener attached twice");
    }
    rowListeners_.push_back(listener);
    for (std::size_t fb = 0; fb < banks_.size(); ++fb) {
        if (banks_[fb].rowOpen)
            listener->rowOpened(fb, banks_[fb].row);
    }
}

void
Device::removeRowListener(RowStateListener *listener)
{
    for (auto it = rowListeners_.begin(); it != rowListeners_.end(); ++it) {
        if (*it == listener) {
            rowListeners_.erase(it);
            return;
        }
    }
}

Device::BankState &
Device::bank(const MappedAddr &a)
{
    return banks_[a.flatBank(geom_)];
}

Device::RankState &
Device::rank(const MappedAddr &a)
{
    return ranks_[a.channel * geom_.ranks + a.rank];
}

void
Device::applyRefresh(RankState &rank_state, unsigned channel,
                     unsigned rank_nr, Cycle t)
{
    if (timing_.tREFI == 0)
        return; // non-volatile technology: no refresh
    const unsigned rank_id = channel * geom_.ranks + rank_nr;
    while (rank_state.nextRefresh <= t) {
        // REF requires every bank of the rank precharged, so close the
        // open rows first, each as soon as its bank allows. The engine
        // runs event-driven, so work scheduled by earlier accesses may
        // already extend past the nominal tREFI slot; the REF then
        // waits for it (real controllers postpone refresh the same
        // way, by up to 8 intervals).
        for (unsigned b = 0; b < geom_.banksPerRank(); ++b) {
            BankState &bs = banks_[rank_id * geom_.banksPerRank() + b];
            if (!bs.rowOpen)
                continue;
            // Implicit precharge-all ahead of the refresh. Not counted
            // in stats_.precharges: its energy is part of the refresh
            // operation (IDD5), as before.
            MappedAddr pre_addr;
            pre_addr.channel = channel;
            pre_addr.rank = rank_nr;
            pre_addr.bankGroup = b / geom_.banksPerGroup;
            pre_addr.bank = b % geom_.banksPerGroup;
            pre_addr.row = bs.row;
            issue(CmdKind::Pre, pre_addr, 0);
            bs.rowOpen = false;
            for (RowStateListener *l : rowListeners_)
                l->rowClosed(rank_id * geom_.banksPerRank() + b);
        }
        MappedAddr ref_addr;
        ref_addr.channel = channel;
        ref_addr.rank = rank_nr;
        const Cycle ref_at =
            issue(CmdKind::Ref, ref_addr, rank_state.nextRefresh);
        // The rank stays blocked for every command until tRFC ends.
        rank_state.refreshUntil = ref_at + timing_.tRFC;
        rank_state.nextRefresh += timing_.tREFI;
        ++stats_.refreshes;
    }
}

AccessResult
Device::access(const DeviceAccess &acc, Cycle earliest)
{
    const MappedAddr &a = acc.addr;
    sam_assert(a.channel < geom_.channels && a.rank < geom_.ranks &&
                   a.bankGroup < geom_.bankGroups &&
                   a.bank < geom_.banksPerGroup,
               "access out of geometry range");

    BankState &bs = bank(a);
    RankState &rs = rank(a);
    applyRefresh(rs, a.channel, a.rank, earliest);

    // Policy floors. Every command of the access waits for the access
    // to arrive and for the rank's refresh to end; the timing rules
    // place it from there.
    AccessResult result;
    const Cycle t = std::max(earliest, rs.refreshUntil);

    // ----- Row preparation -----------------------------------------
    const bool row_hit = bs.rowOpen && bs.row == a.row;
    // A mode switch waits for the access's row to be CAS-ready.
    Cycle switch_floor = t;
    if (row_hit) {
        ++stats_.rowHits;
        result.rowHit = true;
    } else {
        ++stats_.rowMisses;
        if (bs.rowOpen) {
            MappedAddr pre_addr = a;
            pre_addr.row = bs.row;
            issue(CmdKind::Pre, pre_addr, t);
            ++stats_.precharges;
        }
        const Cycle act_at = issue(CmdKind::Act, a, t);
        bs.rowOpen = true;
        bs.row = a.row;
        for (RowStateListener *l : rowListeners_)
            l->rowOpened(a.flatBank(geom_), a.row);
        switch_floor = act_at + timing_.tRCD;
        result.activates = 1;
        ++stats_.activates;
        if (acc.columnActivate)
            ++stats_.columnActivates;
    }

    // ----- I/O mode switch (Section 5.3: costs tRTR on the rank) ----
    if (rs.ioMode != acc.mode) {
        issue(CmdKind::ModeSwitch, a, switch_floor, acc.mode);
        rs.ioMode = acc.mode;
        result.modeSwitched = true;
        ++stats_.modeSwitches;
    }

    // ----- CAS + data bursts ----------------------------------------
    const unsigned bursts = 1 + acc.extraBursts;
    const CmdKind cas = acc.isWrite ? CmdKind::Wr : CmdKind::Rd;
    const unsigned cas_lat = acc.isWrite ? timing_.cwl : timing_.cl;
    Cycle cas_floor = t;
    Cycle data_end = 0;
    for (unsigned b = 0; b < bursts; ++b) {
        // The rules keep the burst's data window [cas + CL/CWL, + tBL)
        // off every other burst on the channel, tRTR apart across
        // ranks.
        const Cycle cas_at = issue(cas, a, cas_floor, acc.mode);
        const Cycle data_at = cas_at + cas_lat;
        stats_.busBusyCycles += timing_.tBL;
        data_end = data_at + timing_.tBL;

        if (b == 0) {
            result.issue = cas_at;
            result.dataStart = data_at;
        } else {
            ++stats_.extraBursts;
        }
        // Each extra burst follows the previous CAS.
        cas_floor = cas_at + 1;
    }
    result.done = data_end + acc.extraLatency;

    // ----- Statistics ------------------------------------------------
    if (acc.mode == AccessMode::Stride) {
        if (acc.isWrite)
            ++stats_.strideWrites;
        else
            ++stats_.strideReads;
    } else {
        if (acc.isWrite)
            ++stats_.writes;
        else
            ++stats_.reads;
    }
    return result;
}

} // namespace sam
