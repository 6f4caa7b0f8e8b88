/**
 * @file
 * Flat open-addressing hash map keyed by a 64B-aligned line address.
 *
 * The RAS read path keeps per-line state for every corrected line (the
 * error log's leaky buckets, the backing store's overlay index). A
 * node-based map pays one heap node per line on insert and one free
 * per line at teardown; this table keeps every entry in one array
 * (linear probing, at most three-quarters full), so a lookup or an
 * insert is one probe sequence over adjacent slots and the whole table
 * is one allocation. Runs of consecutive lines hash to adjacent slots,
 * so a scan's probes share cache lines. Erase shifts the probe run
 * back instead of leaving tombstones, so a table that churns never
 * degrades.
 *
 * There is deliberately no iteration: slot order depends on the hash,
 * and hash order must never become observable (sam-determinism in
 * tools/samlint). Callers that need an order keep their own list.
 */

#ifndef SAM_COMMON_ADDR_MAP_HH
#define SAM_COMMON_ADDR_MAP_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/logging.hh"
#include "src/common/types.hh"

namespace sam {

template <typename V>
class AddrMap
{
  public:
    /** The value of `key`, or null when absent. */
    V *find(Addr key)
    {
        const std::size_t i = locate(key);
        return i == kNone ? nullptr : &slots_[i].value;
    }

    const V *find(Addr key) const
    {
        const std::size_t i = locate(key);
        return i == kNone ? nullptr : &slots_[i].value;
    }

    /**
     * The value of `key`, inserting `init` first when absent; `second`
     * tells whether it did. One probe sequence either way. The pointer
     * is valid until the next insert.
     */
    std::pair<V *, bool> tryEmplace(Addr key, const V &init)
    {
        sam_assert(key != kEmpty, "AddrMap key ", key,
                   " is the empty-slot marker");
        if (4 * (size_ + 1) > 3 * slots_.size())
            grow();
        std::size_t i = home(key);
        while (slots_[i].key != kEmpty) {
            if (slots_[i].key == key)
                return {&slots_[i].value, false};
            i = (i + 1) & mask_;
        }
        slots_[i].key = key;
        slots_[i].value = init;
        ++size_;
        return {&slots_[i].value, true};
    }

    /** Remove `key`; false when it was absent. */
    bool erase(Addr key)
    {
        std::size_t hole = locate(key);
        if (hole == kNone)
            return false;
        // Backward-shift deletion: pull later entries of the probe run
        // into the hole unless their home lies cyclically in
        // (hole, j], where moving them would put them before home.
        for (std::size_t j = (hole + 1) & mask_;
             slots_[j].key != kEmpty; j = (j + 1) & mask_) {
            const std::size_t h = home(slots_[j].key);
            const bool stays = hole <= j ? (hole < h && h <= j)
                                         : (hole < h || h <= j);
            if (!stays) {
                slots_[hole] = std::move(slots_[j]);
                hole = j;
            }
        }
        slots_[hole].key = kEmpty;
        --size_;
        return true;
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

  private:
    /** Never a line address (not 64B aligned). */
    static constexpr Addr kEmpty = ~Addr{0};
    static constexpr std::size_t kNone = ~std::size_t{0};
    /** Lines that hash as one block to adjacent slots. */
    static constexpr unsigned kBlockBits = 3;
    static constexpr std::size_t kMinSlots = 16;
    static_assert(kMinSlots > (std::size_t{1} << kBlockBits),
                  "home() spreads blocks by at least one bit");

    struct Slot
    {
        Addr key = kEmpty;
        V value{};
    };

    /**
     * Blocks of 2^kBlockBits consecutive lines land on adjacent slots,
     * so a scan's lookups share cache lines of the table; the blocks
     * themselves spread by Fibonacci hashing (the top bits of
     * block * 2^64/phi).
     */
    std::size_t home(Addr key) const
    {
        const Addr line = key / kCachelineBytes;
        const Addr block = line >> kBlockBits;
        const std::size_t spread = static_cast<std::size_t>(
            (block * 0x9E3779B97F4A7C15ull) >> (shift_ + kBlockBits));
        const Addr in_block = line & ((Addr{1} << kBlockBits) - 1);
        return (spread << kBlockBits) | static_cast<std::size_t>(in_block);
    }

    std::size_t locate(Addr key) const
    {
        if (size_ == 0)
            return kNone;
        for (std::size_t i = home(key); slots_[i].key != kEmpty;
             i = (i + 1) & mask_) {
            if (slots_[i].key == key)
                return i;
        }
        return kNone;
    }

    void grow()
    {
        std::vector<Slot> old = std::move(slots_);
        const std::size_t n = old.empty() ? kMinSlots : 2 * old.size();
        slots_.assign(n, Slot{});
        mask_ = n - 1;
        shift_ = 64;
        for (std::size_t s = n; s > 1; s >>= 1)
            --shift_;
        for (Slot &s : old) {
            if (s.key == kEmpty)
                continue;
            std::size_t i = home(s.key);
            while (slots_[i].key != kEmpty)
                i = (i + 1) & mask_;
            slots_[i] = std::move(s);
        }
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    std::size_t mask_ = 0;
    unsigned shift_ = 64;
};

} // namespace sam

#endif // SAM_COMMON_ADDR_MAP_HH
