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
    : geom_(geom), timing_(timing)
{
    banks_.resize(static_cast<std::size_t>(geom_.channels) * geom_.ranks *
                  geom_.banksPerRank());
    ranks_.resize(static_cast<std::size_t>(geom_.channels) * geom_.ranks);
    channels_.resize(geom_.channels);
    for (auto &r : ranks_) {
        r.groupCasReady.assign(geom_.bankGroups, 0);
        r.groupActReady.assign(geom_.bankGroups, 0);
        r.groupRdReady.assign(geom_.bankGroups, 0);
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
        // REF requires every bank of the rank precharged (tRP honoured)
        // and must not start before previously committed activity on
        // the rank completes -- the engine runs event-driven, so work
        // scheduled by earlier accesses may already extend past the
        // nominal tREFI deadline. Close open rows first and defer the
        // refresh start accordingly (real controllers postpone refresh
        // the same way, by up to 8 intervals).
        Cycle ref_start = std::max(rank_state.nextRefresh,
                                   rank_state.refreshUntil);
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
            emit(CmdKind::Pre, bs.preReady, pre_addr);
            bs.rowOpen = false;
            for (RowStateListener *l : rowListeners_)
                l->rowClosed(rank_id * geom_.banksPerRank() + b);
            ref_start = std::max(ref_start, bs.preReady + timing_.tRP);
        }
        const Cycle ref_end = ref_start + timing_.tRFC;
        rank_state.refreshUntil = std::max(rank_state.refreshUntil,
                                           ref_end);
        // All banks of the rank are blocked until tRFC completes.
        for (unsigned b = 0; b < geom_.banksPerRank(); ++b) {
            BankState &bs = banks_[rank_id * geom_.banksPerRank() + b];
            bs.actReady = std::max(bs.actReady, ref_end);
            bs.casReady = std::max(bs.casReady, ref_end);
        }
        MappedAddr ref_addr;
        ref_addr.channel = channel;
        ref_addr.rank = rank_nr;
        emit(CmdKind::Ref, ref_start, ref_addr);
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
    const unsigned rank_id = a.channel * geom_.ranks + a.rank;

    AccessResult result;
    Cycle t = std::max(earliest, rs.refreshUntil);

    // ----- Row preparation -----------------------------------------
    const bool row_hit = bs.rowOpen && bs.row == a.row;
    Cycle cas_earliest = t;
    if (row_hit) {
        ++stats_.rowHits;
        result.rowHit = true;
    } else {
        ++stats_.rowMisses;
        Cycle act_floor = t;
        if (bs.rowOpen) {
            const Cycle pre_at = std::max(t, bs.preReady);
            MappedAddr pre_addr = a;
            pre_addr.row = bs.row;
            emit(CmdKind::Pre, pre_at, pre_addr);
            act_floor = pre_at + timing_.tRP;
            ++stats_.precharges;
        } else {
            act_floor = std::max(t, bs.actReady);
        }
        // Inter-ACT constraints: tRRD_S/L and the tFAW window.
        Cycle act_at = std::max({act_floor, rs.actReady,
                                 rs.groupActReady[a.bankGroup]});
        if (rs.actWindow.size() >= 4)
            act_at = std::max(act_at, rs.actWindow.front() + timing_.tFAW);

        // Commit the ACT.
        rs.actWindow.push_back(act_at);
        while (rs.actWindow.size() > 4)
            rs.actWindow.pop_front();
        rs.actReady = act_at + timing_.tRRD_S;
        rs.groupActReady[a.bankGroup] = act_at + timing_.tRRD_L;
        bs.rowOpen = true;
        bs.row = a.row;
        for (RowStateListener *l : rowListeners_)
            l->rowOpened(a.flatBank(geom_), a.row);
        bs.preReady = act_at + timing_.tRAS;
        bs.casReady = std::max(bs.casReady, act_at + timing_.tRCD);
        cas_earliest = act_at + timing_.tRCD;
        emit(CmdKind::Act, act_at, a);
        result.activates = 1;
        ++stats_.activates;
        if (acc.columnActivate)
            ++stats_.columnActivates;
    }

    // ----- I/O mode switch (Section 5.3: costs tRTR on the rank) ----
    if (rs.ioMode != acc.mode) {
        const Cycle sw_at = std::max({cas_earliest, rs.modeReady,
                                      rs.modeSwitchFloor});
        cas_earliest = sw_at + timing_.tRTR;
        rs.ioMode = acc.mode;
        rs.modeReady = cas_earliest;
        emit(CmdKind::ModeSwitch, sw_at, a, acc.mode);
        result.modeSwitched = true;
        ++stats_.modeSwitches;
    }

    // ----- CAS + data bursts ----------------------------------------
    const unsigned bursts = 1 + acc.extraBursts;
    const unsigned cas_lat = acc.isWrite ? timing_.cwl : timing_.cl;
    Cycle data_end = 0;
    for (unsigned b = 0; b < bursts; ++b) {
        Cycle cas_at = std::max({cas_earliest, bs.casReady, rs.casReady,
                                 rs.groupCasReady[a.bankGroup]});
        cas_at = std::max(cas_at,
                          acc.isWrite
                              ? rs.wrReady
                              : std::max(rs.rdReady,
                                         rs.groupRdReady[a.bankGroup]));

        // Data bus: the burst occupies [data_at, data_at + tBL); a rank
        // switch on the bus inserts a tRTR bubble.
        ChannelState &ch = channels_[a.channel];
        Cycle data_at = cas_at + cas_lat;
        Cycle bus_floor = ch.busFree;
        if (ch.lastBusRank >= 0 &&
            ch.lastBusRank != static_cast<int>(rank_id)) {
            bus_floor += timing_.tRTR;
        }
        if (data_at < bus_floor) {
            data_at = bus_floor;
            cas_at = data_at - cas_lat;
        }

        // Commit the CAS.
        rs.casReady = cas_at + timing_.tCCD_S;
        rs.groupCasReady[a.bankGroup] = cas_at + timing_.tCCD_L;
        bs.casReady = std::max(bs.casReady, cas_at + timing_.tCCD_L);
        rs.modeSwitchFloor = std::max(rs.modeSwitchFloor, cas_at + 1);
        if (acc.isWrite) {
            const Cycle wr_end = cas_at + timing_.cwl + timing_.tBL;
            bs.preReady = std::max(bs.preReady, wr_end + timing_.tWR);
            rs.rdReady = std::max(rs.rdReady, wr_end + timing_.tWTR_S);
            rs.groupRdReady[a.bankGroup] =
                std::max(rs.groupRdReady[a.bankGroup],
                         wr_end + timing_.tWTR_L);
        } else {
            bs.preReady = std::max(bs.preReady, cas_at + timing_.tRTP);
            // Read-to-write bus turnaround: write data may start no
            // earlier than one bubble past read-burst end. Guarded so
            // a hypothetical cwl > cl + tBL + 2 cannot wrap.
            const Cycle rd_end = cas_at + timing_.cl + timing_.tBL;
            rs.wrReady = std::max(rs.wrReady,
                                  rd_end + 2 > timing_.cwl
                                      ? rd_end + 2 - timing_.cwl
                                      : 0);
        }
        emit(acc.isWrite ? CmdKind::Wr : CmdKind::Rd, cas_at, a,
             acc.mode);

        ch.busFree = data_at + timing_.tBL;
        ch.lastBusRank = static_cast<int>(rank_id);
        stats_.busBusyCycles += timing_.tBL;
        data_end = data_at + timing_.tBL;

        if (b == 0) {
            result.issue = cas_at;
            result.dataStart = data_at;
        } else {
            ++stats_.extraBursts;
        }
        cas_earliest = cas_at + 1;
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
