/**
 * @file
 * Indexed FR-FCFS scheduling queue.
 *
 * Replaces the controller's former O(n) scan per scheduling pick with
 * three incremental indexes over the queued requests:
 *
 *  - a min-heap by (arrival, seq) of requests that have not yet
 *    arrived ("pending");
 *  - a min-heap by insertion sequence of arrived requests
 *    ("eligible") -- the FCFS order;
 *  - per-(bank, row) buckets of arrived requests, each a min-heap by
 *    insertion sequence -- the row-hit candidates, probed only for
 *    banks whose open row matches.
 *
 * Rule 1 no longer scans every bank of the geometry: the queue keeps
 * its own open-row image per flat bank, fed by the Device's
 * RowStateListener transitions (the controller forwards them), plus a
 * per-bank eligible-request count. A "hot" list holds the banks that
 * are both open and have eligible requests; a pick probes only those,
 * lazily dropping banks that stopped qualifying, so a pick costs
 * O(hot) instead of O(totalBanks). Every System runs the default
 * Geometry's 32 banks (1 channel x 2 ranks x 16 banks) of which a
 * handful are hot at any time; BM_PopBestOpenRowHeavy measures a
 * 256-bank geometry.
 *
 * Eligibility is monotone (the controller clock never runs backwards),
 * so a request moves pending -> eligible exactly once. Heap entries
 * are removed lazily: a pick invalidates the request's entries in the
 * other indexes, which are skipped when probed and compacted away once
 * they outnumber live entries, keeping memory proportional to the
 * actual backlog.
 *
 * The pick rule is bit-identical to the original scan's:
 *   1. the oldest-inserted arrived request targeting its bank's open
 *      row;
 *   2. else the oldest-inserted arrived request;
 *   3. else the earliest-arriving request (ties by insertion order).
 */

#ifndef SAM_CONTROLLER_REQUEST_QUEUE_HH
#define SAM_CONTROLLER_REQUEST_QUEUE_HH

#include <cstdint>
#include <queue>
#include <unordered_map>
#include <vector>

#include "src/controller/request.hh"
#include "src/dram/device.hh"

namespace sam {

class RequestQueue
{
  public:
    explicit RequestQueue(const Geometry &geom);

    void push(MemRequest req);

    bool empty() const { return live_ == 0; }
    std::size_t size() const { return live_; }

    /**
     * Remove and return the FR-FCFS-best request given the scheduling
     * clock `now` and the open-row image maintained through
     * noteRowOpened()/noteRowClosed(). `row_hit_pick` reports whether
     * rule 1 (open-row hit) selected the request. The queue must be
     * non-empty.
     */
    MemRequest popBest(Cycle now, bool &row_hit_pick);

    /** Row-state transitions forwarded from the Device's listener. */
    void noteRowOpened(std::size_t flat_bank, std::uint64_t row);
    void noteRowClosed(std::size_t flat_bank);

  private:
    enum class SlotState : std::uint8_t { Free, Pending, Eligible };

    struct Slot
    {
        MemRequest req;
        std::uint64_t seq = 0;
        /** Flat bank of the request; cached at promotion so take()
         *  can decrement the bank's eligible count. */
        std::uint32_t flatBank = 0;
        SlotState state = SlotState::Free;
    };

    /** Heap entry: insertion order first (FCFS). */
    using SeqEntry = std::pair<std::uint64_t, std::uint32_t>;
    /** Heap entry: arrival first, insertion order second. */
    using ArrEntry = std::tuple<Cycle, std::uint64_t, std::uint32_t>;

    template <typename T>
    using MinHeap = std::priority_queue<T, std::vector<T>,
                                        std::greater<T>>;

    std::uint64_t bucketKey(const MappedAddr &addr) const
    {
        return (static_cast<std::uint64_t>(addr.flatBank(geom_)) << 40) |
               addr.row;
    }

    bool stale(const SeqEntry &e, SlotState expect) const
    {
        const Slot &s = slots_[e.second];
        return s.state != expect || s.seq != e.first;
    }

    /** Move every request with arrival <= now into the arrived indexes. */
    void promote(Cycle now);

    /** Detach the request from its slot and free the slot. */
    MemRequest take(std::uint32_t slot_idx);

    /** Rebuild the arrived indexes once stale entries dominate. */
    void maybeCompact();

    /** Add the bank to the hot list if it qualifies and is absent. */
    void maybeHot(std::size_t flat_bank);

    /** Sentinel for a bank with no open row. */
    static constexpr std::uint64_t kNoRow = ~std::uint64_t{0};

    Geometry geom_;

    std::vector<Slot> slots_;
    std::vector<std::uint32_t> freeSlots_;
    std::uint64_t nextSeq_ = 0;
    std::size_t live_ = 0;          ///< Queued requests (all states).
    std::size_t eligibleLive_ = 0;  ///< Queued requests in Eligible.

    MinHeap<ArrEntry> pending_;
    MinHeap<SeqEntry> eligible_;
    std::unordered_map<std::uint64_t, MinHeap<SeqEntry>> rowBuckets_;
    std::size_t bucketEntries_ = 0;

    /** Open row per flat bank (kNoRow when closed). */
    std::vector<std::uint64_t> openRow_;
    /** Eligible (arrived, un-picked) requests per flat bank. */
    std::vector<std::uint32_t> bankEligible_;
    /** Banks that were open with eligible requests when last touched;
     *  membership flag + unordered list, pruned lazily in popBest. */
    std::vector<std::uint8_t> inHot_;
    std::vector<std::uint32_t> hotBanks_;
};

} // namespace sam

#endif // SAM_CONTROLLER_REQUEST_QUEUE_HH
