#include "src/controller/request_queue.hh"

#include "src/common/logging.hh"

namespace sam {

RequestQueue::RequestQueue(const Geometry &geom)
    : geom_(geom)
{
    openRow_.assign(geom_.totalBanks(), kNoRow);
    bankEligible_.assign(geom_.totalBanks(), 0);
    inHot_.assign(geom_.totalBanks(), 0);
}

void
RequestQueue::maybeHot(std::size_t flat_bank)
{
    if (openRow_[flat_bank] != kNoRow && bankEligible_[flat_bank] > 0 &&
        !inHot_[flat_bank]) {
        inHot_[flat_bank] = 1;
        hotBanks_.push_back(static_cast<std::uint32_t>(flat_bank));
    }
}

void
RequestQueue::noteRowOpened(std::size_t flat_bank, std::uint64_t row)
{
    openRow_[flat_bank] = row;
    maybeHot(flat_bank);
}

void
RequestQueue::noteRowClosed(std::size_t flat_bank)
{
    // The hot-list entry, if any, is pruned lazily on the next pick.
    openRow_[flat_bank] = kNoRow;
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
    pending_.push({s.req.arrival, s.seq, idx});
    ++live_;
}

void
RequestQueue::promote(Cycle now)
{
    while (!pending_.empty()) {
        const auto &[arrival, seq, idx] = pending_.top();
        if (arrival > now)
            break;
        Slot &s = slots_[idx];
        if (s.state == SlotState::Pending && s.seq == seq) {
            s.state = SlotState::Eligible;
            s.flatBank = static_cast<std::uint32_t>(
                s.req.device.addr.flatBank(geom_));
            eligible_.push({seq, idx});
            rowBuckets_[bucketKey(s.req.device.addr)].push({seq, idx});
            ++bucketEntries_;
            ++eligibleLive_;
            ++bankEligible_[s.flatBank];
            maybeHot(s.flatBank);
        }
        pending_.pop();
    }
}

MemRequest
RequestQueue::take(std::uint32_t slot_idx)
{
    Slot &s = slots_[slot_idx];
    sam_assert(s.state != SlotState::Free, "taking a free slot");
    if (s.state == SlotState::Eligible) {
        --eligibleLive_;
        --bankEligible_[s.flatBank];
    }
    s.state = SlotState::Free;
    freeSlots_.push_back(slot_idx);
    --live_;
    return std::move(s.req);
}

void
RequestQueue::maybeCompact()
{
    // Lazy deletion leaves one stale entry per pick in the indexes a
    // pick did not use; rebuild once they dominate so memory stays
    // proportional to the live backlog.
    const std::size_t budget = 2 * eligibleLive_ + 64;
    if (eligible_.size() > budget) {
        MinHeap<SeqEntry> fresh;
        for (std::uint32_t i = 0; i < slots_.size(); ++i) {
            if (slots_[i].state == SlotState::Eligible)
                fresh.push({slots_[i].seq, i});
        }
        eligible_ = std::move(fresh);
    }
    if (bucketEntries_ > budget) {
        rowBuckets_.clear();
        bucketEntries_ = 0;
        for (std::uint32_t i = 0; i < slots_.size(); ++i) {
            const Slot &s = slots_[i];
            if (s.state == SlotState::Eligible) {
                rowBuckets_[bucketKey(s.req.device.addr)].push(
                    {s.seq, i});
                ++bucketEntries_;
            }
        }
    }
}

MemRequest
RequestQueue::popBest(Cycle now, bool &row_hit_pick)
{
    sam_assert(live_ > 0, "popBest on an empty queue");
    promote(now);

    // Rule 1: oldest arrived request hitting an open row. Probe only
    // the hot banks (open row AND eligible requests), pruning entries
    // that stopped qualifying since they were added. Probe order does
    // not matter: the pick is the min seq over all candidates.
    std::uint64_t best_seq = ~std::uint64_t{0};
    std::uint32_t best_slot = 0;
    for (std::size_t i = 0; i < hotBanks_.size();) {
        const std::uint32_t fb = hotBanks_[i];
        if (openRow_[fb] == kNoRow || bankEligible_[fb] == 0) {
            inHot_[fb] = 0;
            hotBanks_[i] = hotBanks_.back();
            hotBanks_.pop_back();
            continue;
        }
        const std::uint64_t key =
            (static_cast<std::uint64_t>(fb) << 40) | openRow_[fb];
        auto it = rowBuckets_.find(key);
        if (it != rowBuckets_.end()) {
            MinHeap<SeqEntry> &heap = it->second;
            while (!heap.empty() &&
                   stale(heap.top(), SlotState::Eligible)) {
                heap.pop();
                --bucketEntries_;
            }
            if (heap.empty()) {
                rowBuckets_.erase(it);
            } else if (heap.top().first < best_seq) {
                best_seq = heap.top().first;
                best_slot = heap.top().second;
            }
        }
        ++i;
    }
    if (best_seq != ~std::uint64_t{0}) {
        row_hit_pick = true;
        MemRequest req = take(best_slot);
        maybeCompact();
        return req;
    }
    row_hit_pick = false;

    // Rule 2: oldest arrived request.
    while (!eligible_.empty() &&
           stale(eligible_.top(), SlotState::Eligible)) {
        eligible_.pop();
    }
    if (!eligible_.empty()) {
        MemRequest req = take(eligible_.top().second);
        eligible_.pop();
        maybeCompact();
        return req;
    }

    // Rule 3: nothing has arrived yet; serve the earliest-arriving
    // request (ties broken by insertion order, as the heap key does).
    while (!pending_.empty()) {
        const auto [arrival, seq, idx] = pending_.top();
        (void)arrival;
        if (slots_[idx].state == SlotState::Pending &&
            slots_[idx].seq == seq) {
            pending_.pop();
            return take(idx);
        }
        pending_.pop();
    }
    panic("request queue indexes lost a live request");
}

} // namespace sam
