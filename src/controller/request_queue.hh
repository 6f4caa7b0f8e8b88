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
 *  - the row-hit index: per flat bank, one run per row that has
 *    arrived requests, each run an intrusive list of those requests
 *    in insertion order, linked through the queue's own slots. The
 *    head of the run of a bank's open row is that bank's rule-1
 *    candidate.
 *
 * The row-hit index lives in storage the queue already owns: request
 * slots are recycled through a free list and a bank's run array keeps
 * its capacity, so once the backlog and the rows per bank have reached
 * their peak, no push, pick or row transition allocates -- a scrub
 * storm filling the write queue with writes to a few rows included.
 * A pick unlinks its request from its run at once, so the index holds
 * no stale entries.
 *
 * Rule 1 does not scan every bank of the geometry: each bank caches
 * which of its runs (if any) targets its open row, fed by the Device's
 * RowStateListener transitions (the controller forwards them). A "hot"
 * list holds the banks whose open row has arrived requests; a pick
 * probes only those, lazily dropping banks that stopped qualifying, so
 * a pick costs O(hot) instead of O(totalBanks). Every System runs the
 * default Geometry's 32 banks (1 channel x 2 ranks x 16 banks) of
 * which a handful are hot at any time; BM_PopBestOpenRowHeavy measures
 * a 256-bank geometry and BM_PopBestScrubHeavy a write queue of scrubs
 * to repeated rows.
 *
 * Eligibility is monotone (the controller clock never runs backwards),
 * so a request moves pending -> eligible exactly once. The eligible
 * heap removes entries lazily: a rule-1 pick leaves the request's
 * entry behind, skipped when it surfaces and compacted away in place
 * once stale entries outnumber live ones.
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
#include <tuple>
#include <utility>
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

    /** Null slot link / run index. */
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};
    /** Sentinel for a bank with no open row. */
    static constexpr std::uint64_t kNoRow = ~std::uint64_t{0};

    struct Slot
    {
        MemRequest req;
        std::uint64_t seq = 0;
        /** Flat bank of the request; cached at promotion. */
        std::uint32_t flatBank = 0;
        /** Older / younger neighbour in the request's row run. */
        std::uint32_t prev = kNil;
        std::uint32_t next = kNil;
        SlotState state = SlotState::Free;
    };

    /** A bank's arrived requests to one row, oldest first. */
    struct RowRun
    {
        std::uint64_t row = 0;
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil;
    };

    struct Bank
    {
        /** One run per row with arrived requests, in no order. */
        std::vector<RowRun> runs;
        std::uint64_t openRow = kNoRow;
        /** Index in `runs` of the open row's run, or kNil. */
        std::uint32_t openRun = kNil;
        /** Listed in hotBanks_. */
        bool hot = false;
    };

    /** Heap entry: insertion order first (FCFS). */
    using SeqEntry = std::pair<std::uint64_t, std::uint32_t>;
    /** Heap entry: arrival first, insertion order second. */
    using ArrEntry = std::tuple<Cycle, std::uint64_t, std::uint32_t>;

    /** Index in `bank.runs` of the run for `row`, or kNil. */
    static std::uint32_t findRun(const Bank &bank, std::uint64_t row);

    /** Move every request with arrival <= now into the arrived indexes. */
    void promote(Cycle now);

    /** Link an arrived slot into its bank's run for its row. */
    void linkRun(std::uint32_t slot_idx);
    /** Unlink an arrived slot from its run, dropping an emptied run. */
    void unlinkRun(std::uint32_t slot_idx);

    /** Detach the request from its slot and free the slot. */
    MemRequest take(std::uint32_t slot_idx);

    /** Drop stale eligible-heap entries once they dominate. */
    void maybeCompact();

    /** List the bank as hot if its open row has a run. */
    void maybeHot(std::size_t flat_bank);

    Geometry geom_;

    std::vector<Slot> slots_;
    std::vector<std::uint32_t> freeSlots_;
    std::uint64_t nextSeq_ = 0;
    std::size_t live_ = 0;          ///< Queued requests (all states).
    std::size_t eligibleLive_ = 0;  ///< Queued requests in Eligible.

    /** Min-heaps (std::push_heap with std::greater). */
    std::vector<ArrEntry> pending_;
    std::vector<SeqEntry> eligible_;

    std::vector<Bank> banks_;
    /** Banks that were hot when last touched; pruned lazily. */
    std::vector<std::uint32_t> hotBanks_;
};

} // namespace sam

#endif // SAM_CONTROLLER_REQUEST_QUEUE_HH
