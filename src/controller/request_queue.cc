#include "src/controller/request_queue.hh"

#include <algorithm>
#include <functional>

#include "src/common/logging.hh"

namespace sam {

RequestQueue::RequestQueue(const Geometry &geom)
    : geom_(geom), banks_(geom.totalBanks())
{
}

std::uint32_t
RequestQueue::findRun(const Bank &bank, std::uint64_t row)
{
    for (std::size_t i = 0; i < bank.runs.size(); ++i) {
        if (bank.runs[i].row == row)
            return static_cast<std::uint32_t>(i);
    }
    return kNil;
}

void
RequestQueue::maybeHot(std::size_t flat_bank)
{
    Bank &bank = banks_[flat_bank];
    if (bank.openRun != kNil && !bank.hot) {
        bank.hot = true;
        hotBanks_.push_back(static_cast<std::uint32_t>(flat_bank));
    }
}

void
RequestQueue::noteRowOpened(std::size_t flat_bank, std::uint64_t row)
{
    Bank &bank = banks_[flat_bank];
    bank.openRow = row;
    bank.openRun = findRun(bank, row);
    maybeHot(flat_bank);
}

void
RequestQueue::noteRowClosed(std::size_t flat_bank)
{
    // The hot-list entry, if any, is pruned lazily on the next pick.
    banks_[flat_bank].openRow = kNoRow;
    banks_[flat_bank].openRun = kNil;
}

void
RequestQueue::push(MemRequest req)
{
    std::uint32_t idx;
    if (!freeSlots_.empty()) {
        idx = freeSlots_.back();
        freeSlots_.pop_back();
    } else {
        idx = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    }
    Slot &s = slots_[idx];
    s.req = std::move(req);
    s.seq = nextSeq_++;
    s.state = SlotState::Pending;
    pending_.emplace_back(s.req.arrival, s.seq, idx);
    std::push_heap(pending_.begin(), pending_.end(), std::greater<>{});
    ++live_;
}

void
RequestQueue::linkRun(std::uint32_t slot_idx)
{
    Slot &s = slots_[slot_idx];
    Bank &bank = banks_[s.flatBank];
    const std::uint64_t row = s.req.device.addr.row;
    std::uint32_t r = findRun(bank, row);
    if (r == kNil) {
        r = static_cast<std::uint32_t>(bank.runs.size());
        bank.runs.push_back(RowRun{row, slot_idx, slot_idx});
        s.prev = s.next = kNil;
        if (row == bank.openRow) {
            bank.openRun = r;
            maybeHot(s.flatBank);
        }
        return;
    }
    // Requests arrive roughly in insertion order, so the slot usually
    // goes at the tail; walk back past any younger ones.
    RowRun &run = bank.runs[r];
    std::uint32_t after = run.tail;
    while (after != kNil && slots_[after].seq > s.seq)
        after = slots_[after].prev;
    s.prev = after;
    s.next = after == kNil ? run.head : slots_[after].next;
    (after == kNil ? run.head : slots_[after].next) = slot_idx;
    (s.next == kNil ? run.tail : slots_[s.next].prev) = slot_idx;
}

void
RequestQueue::unlinkRun(std::uint32_t slot_idx)
{
    const Slot &s = slots_[slot_idx];
    if (s.prev != kNil && s.next != kNil) {
        slots_[s.prev].next = s.next;
        slots_[s.next].prev = s.prev;
        return;
    }
    // The run's head or tail moves: find the run itself.
    Bank &bank = banks_[s.flatBank];
    const std::uint32_t r = findRun(bank, s.req.device.addr.row);
    sam_assert(r != kNil, "arrived request missing from its row run");
    RowRun &run = bank.runs[r];
    (s.prev == kNil ? run.head : slots_[s.prev].next) = s.next;
    (s.next == kNil ? run.tail : slots_[s.next].prev) = s.prev;
    if (run.head != kNil)
        return;
    // Emptied. Rule 1 takes only from an open row's run; rules 2 and 3
    // run only when no bank's open row has a run. So the emptied run
    // was the open row's or the bank has none, and either way the open
    // row now has no run; move the last run into the gap.
    sam_assert(bank.openRun == r || bank.openRun == kNil,
               "emptied a row run while its bank had another one open");
    bank.openRun = kNil;
    bank.runs[r] = bank.runs.back();
    bank.runs.pop_back();
}

void
RequestQueue::promote(Cycle now)
{
    while (!pending_.empty() && std::get<0>(pending_.front()) <= now) {
        const std::uint32_t idx = std::get<2>(pending_.front());
        std::pop_heap(pending_.begin(), pending_.end(), std::greater<>{});
        pending_.pop_back();
        Slot &s = slots_[idx];
        sam_assert(s.state == SlotState::Pending,
                   "pending heap holds a request that is not pending");
        s.state = SlotState::Eligible;
        s.flatBank = static_cast<std::uint32_t>(
            s.req.device.addr.flatBank(geom_));
        eligible_.emplace_back(s.seq, idx);
        std::push_heap(eligible_.begin(), eligible_.end(),
                       std::greater<>{});
        linkRun(idx);
        ++eligibleLive_;
    }
}

MemRequest
RequestQueue::take(std::uint32_t slot_idx)
{
    Slot &s = slots_[slot_idx];
    sam_assert(s.state != SlotState::Free, "taking a free slot");
    if (s.state == SlotState::Eligible) {
        unlinkRun(slot_idx);
        --eligibleLive_;
    }
    s.state = SlotState::Free;
    freeSlots_.push_back(slot_idx);
    --live_;
    return std::move(s.req);
}

void
RequestQueue::maybeCompact()
{
    // Rule-1 picks leave their eligible-heap entry behind; drop the
    // stale entries in place once they dominate, so the heap stays
    // proportional to the live backlog.
    if (eligible_.size() <= 2 * eligibleLive_ + 64)
        return;
    const auto stale = [this](const SeqEntry &e) {
        const Slot &s = slots_[e.second];
        return s.state != SlotState::Eligible || s.seq != e.first;
    };
    eligible_.erase(std::remove_if(eligible_.begin(), eligible_.end(),
                                   stale),
                    eligible_.end());
    std::make_heap(eligible_.begin(), eligible_.end(), std::greater<>{});
}

MemRequest
RequestQueue::popBest(Cycle now, bool &row_hit_pick)
{
    sam_assert(live_ > 0, "popBest on an empty queue");
    promote(now);

    // Rule 1: oldest arrived request hitting an open row. Probe only
    // the hot banks, pruning those whose open row lost its run (or
    // closed) since they were listed. Probe order does not matter:
    // the pick is the min seq over all candidates.
    std::uint64_t best_seq = ~std::uint64_t{0};
    std::uint32_t best_slot = kNil;
    for (std::size_t i = 0; i < hotBanks_.size();) {
        Bank &bank = banks_[hotBanks_[i]];
        if (bank.openRun == kNil) {
            bank.hot = false;
            hotBanks_[i] = hotBanks_.back();
            hotBanks_.pop_back();
            continue;
        }
        const std::uint32_t head = bank.runs[bank.openRun].head;
        if (slots_[head].seq < best_seq) {
            best_seq = slots_[head].seq;
            best_slot = head;
        }
        ++i;
    }
    if (best_slot != kNil) {
        row_hit_pick = true;
        MemRequest req = take(best_slot);
        maybeCompact();
        return req;
    }
    row_hit_pick = false;

    // Rule 2: oldest arrived request.
    while (!eligible_.empty()) {
        const auto [seq, idx] = eligible_.front();
        std::pop_heap(eligible_.begin(), eligible_.end(), std::greater<>{});
        eligible_.pop_back();
        const Slot &s = slots_[idx];
        if (s.state == SlotState::Eligible && s.seq == seq)
            return take(idx);
    }

    // Rule 3: nothing has arrived yet; serve the earliest-arriving
    // request (ties broken by insertion order, as the heap key does).
    sam_assert(!pending_.empty(),
               "request queue indexes lost a live request");
    const std::uint32_t idx = std::get<2>(pending_.front());
    std::pop_heap(pending_.begin(), pending_.end(), std::greater<>{});
    pending_.pop_back();
    return take(idx);
}

} // namespace sam
