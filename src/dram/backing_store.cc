#include "src/dram/backing_store.hh"

#include <algorithm>
#include <cstring>

#include "src/common/bitops.hh"
#include "src/common/logging.hh"
#include "src/ecc/ecc_engine.hh"

namespace sam {

void
StoreSnapshot::layOut(Addr base, std::size_t count)
{
    const std::size_t first = addrs.size();
    const Addr end = extents_.empty()
        ? 0
        : extents_.back().base + extents_.back().count * kCachelineBytes;
    sam_assert(extents_.empty() || base >= end,
               "snapshot rows must be appended in ascending address order");
    if (!extents_.empty() && base == end)
        extents_.back().count += count;
    else
        extents_.push_back(Extent{base, count, first});
    addrs.reserve(first + count);
    for (std::size_t i = 0; i < count; ++i)
        addrs.push_back(base + i * kCachelineBytes);
}

void
StoreSnapshot::classify(std::size_t slot, std::size_t count, bool stored)
{
    if (count == 0 || (stored && stored_.empty()))
        return; // no padding yet: slot i owns arena slot i
    if (stored_.empty()) {
        // First padding slot: switch to the bitmap, every earlier
        // slot owning its arena bytes.
        stored_.assign(divCeil(slot, 64), ~std::uint64_t{0});
        if (slot % 64 != 0)
            stored_.back() = (std::uint64_t{1} << (slot % 64)) - 1;
        rank_.resize(stored_.size());
        for (std::size_t w = 0; w < rank_.size(); ++w)
            rank_[w] = w * 64;
        zeros_.assign(blobBytes, 0);
    }
    const std::size_t end = slot + count;
    const std::size_t old_words = stored_.size();
    stored_.resize(divCeil(end, 64), 0);
    rank_.resize(stored_.size(), 0);
    for (std::size_t s = slot; stored && s < end;) {
        const unsigned bit = s % 64;
        const std::size_t n = std::min<std::size_t>(64 - bit, end - s);
        const std::uint64_t ones =
            n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
        stored_[s / 64] |= ones << bit;
        s += n;
    }
    // Appends are ascending, so only the ranks after `slot`'s word and
    // those of new words can have moved.
    for (std::size_t w = std::max<std::size_t>(
             1, std::min(old_words, slot / 64 + 1));
         w < stored_.size(); ++w) {
        rank_[w] = rank_[w - 1] +
                   static_cast<std::size_t>(std::popcount(stored_[w - 1]));
    }
}

std::size_t
StoreSnapshot::appendRows(Addr base, std::size_t count,
                          const std::vector<LineRun> &stored)
{
    sam_assert(blobBytes > 0, "append before blobBytes is set");
    sam_assert(base % kCachelineBytes == 0, "unaligned row base");
    const std::size_t first = addrs.size();
    if (count == 0)
        return first;
    layOut(base, count);
    std::size_t next = 0;  // first line not yet classified
    std::size_t stored_lines = 0;
    for (const LineRun &run : stored) {
        sam_assert(run.first >= next && run.first + run.count <= count,
                   "stored runs must be ascending and in range");
        classify(first + next, run.first - next, /*stored=*/false);
        classify(first + run.first, run.count, /*stored=*/true);
        next = run.first + run.count;
        stored_lines += run.count;
    }
    classify(first + next, count - next, /*stored=*/false);
    arena.resize(arena.size() + stored_lines * blobBytes, 0);
    return first;
}

std::uint8_t *
StoreSnapshot::mutableBlob(std::size_t slot)
{
    const std::size_t i = arenaIndex(slot);
    sam_assert(i != npos, "padding slot ", slot, " has no arena bytes");
    return arena.data() + i * blobBytes;
}

std::size_t
StoreSnapshot::find(Addr addr) const
{
    // Last extent with base <= addr.
    auto it = std::upper_bound(
        extents_.begin(), extents_.end(), addr,
        [](Addr a, const Extent &e) { return a < e.base; });
    if (it == extents_.begin())
        return npos;
    --it;
    const Addr off = addr - it->base;
    if (off % kCachelineBytes != 0 || off / kCachelineBytes >= it->count)
        return npos;
    return it->firstSlot + off / kCachelineBytes;
}

void
BackingStore::materializeBlob(const StoreSnapshot &layer,
                              std::size_t slot, std::uint8_t *dst) const
{
    const std::uint8_t *src = layer.blob(slot);
    if (!layer.lazyParity || blobBytes_ <= kCachelineBytes) {
        std::memcpy(dst, src, blobBytes_);
        return;
    }
    sam_assert(parityEcc_ != nullptr,
               "lazy-parity layer line touched with no parity encoder");
    parityEcc_->encodeLineInto(src, dst);
}

const BackingStore::OverlayLine *
BackingStore::findOverlay(Addr addr) const
{
    return overlay_.find(addr);
}

const StoreSnapshot *
BackingStore::findLayer(Addr addr, std::size_t &slot) const
{
    // Newest layer wins (matters only if layers ever overlapped).
    for (auto layer = layers_.rbegin(); layer != layers_.rend();
         ++layer) {
        const std::size_t s = (*layer)->find(addr);
        if (s != StoreSnapshot::npos) {
            slot = s;
            return layer->get();
        }
    }
    return nullptr;
}

bool
BackingStore::inAnyLayer(Addr addr) const
{
    std::size_t slot = 0;
    return findLayer(addr, slot) != nullptr;
}

std::vector<std::uint8_t>
BackingStore::readLine(Addr line_addr) const
{
    sam_assert(line_addr % kCachelineBytes == 0,
               "unaligned line read: ", line_addr);
    if (const OverlayLine *o = findOverlay(line_addr)) {
        const std::uint8_t *p = arena_.data() + o->offset;
        return std::vector<std::uint8_t>(p, p + blobBytes_);
    }
    std::size_t slot = 0;
    if (const StoreSnapshot *layer = findLayer(line_addr, slot)) {
        std::vector<std::uint8_t> blob(blobBytes_);
        materializeBlob(*layer, slot, blob.data());
        return blob;
    }
    return std::vector<std::uint8_t>(blobBytes_, 0);
}

BackingStore::LineRef
BackingStore::refLine(Addr line_addr) const
{
    sam_assert(line_addr % kCachelineBytes == 0,
               "unaligned line read: ", line_addr);
    if (const OverlayLine *o = findOverlay(line_addr))
        return LineRef{arena_.data() + o->offset, o->clean};
    std::size_t slot = 0;
    if (const StoreSnapshot *layer = findLayer(line_addr, slot)) {
        return LineRef{layer->blob(slot), /*clean=*/true,
                       layer->lazyParity &&
                           blobBytes_ > kCachelineBytes};
    }
    return LineRef{};
}

void
BackingStore::writeLine(Addr line_addr,
                        const std::vector<std::uint8_t> &blob, bool clean)
{
    sam_assert(blob.size() == blobBytes_,
               "blob size mismatch: ", blob.size(), " vs ", blobBytes_);
    writeLine(line_addr, blob.data(), clean);
}

void
BackingStore::writeLine(Addr line_addr, const std::uint8_t *blob,
                        bool clean)
{
    sam_assert(line_addr % kCachelineBytes == 0,
               "unaligned line write: ", line_addr);
    auto [line, inserted] =
        overlay_.tryEmplace(line_addr, OverlayLine{arena_.size(), clean});
    if (inserted) {
        arena_.insert(arena_.end(), blob, blob + blobBytes_);
        overlayAll_.push_back(line_addr);
        if (!inAnyLayer(line_addr))
            overlayOrder_.push_back(line_addr);
    } else {
        // Rewrite in place: the arena slot is exclusively ours
        // (installed layers never alias the overlay arena).
        std::memcpy(arena_.data() + line->offset, blob, blobBytes_);
        line->clean = clean;
    }
}

bool
BackingStore::contains(Addr line_addr) const
{
    return findOverlay(line_addr) != nullptr || inAnyLayer(line_addr);
}

void
BackingStore::corruptLine(Addr line_addr,
                          const std::vector<std::uint8_t> &xor_mask)
{
    sam_assert(line_addr % kCachelineBytes == 0,
               "unaligned line corrupt: ", line_addr);
    sam_assert(xor_mask.size() == blobBytes_, "mask size mismatch");
    auto [line, inserted] =
        overlay_.tryEmplace(line_addr, OverlayLine{arena_.size(), false});
    if (inserted) {
        // Copy-on-write into the overlay: the current blob may be
        // shared with a table snapshot installed into other systems.
        arena_.resize(line->offset + blobBytes_, 0);
        std::size_t slot = 0;
        if (const StoreSnapshot *layer = findLayer(line_addr, slot)) {
            materializeBlob(*layer, slot, arena_.data() + line->offset);
        } else {
            overlayOrder_.push_back(line_addr);
        }
        overlayAll_.push_back(line_addr);
    }
    line->clean = false;
    std::uint8_t *blob = arena_.data() + line->offset;
    for (std::size_t i = 0; i < blobBytes_; ++i)
        blob[i] ^= xor_mask[i];
}

std::size_t
BackingStore::lineCount() const
{
    std::size_t n = overlayOrder_.size();
    for (const auto &layer : layers_)
        n += layer->size();
    return n;
}

Addr
BackingStore::sampleLine(Rng &rng) const
{
    sam_assert(lineCount() > 0, "sampleLine on empty store");
    std::size_t idx = rng.below(lineCount());
    for (const auto &layer : layers_) {
        if (idx < layer->size())
            return layer->addrs[idx];
        idx -= layer->size();
    }
    return overlayOrder_[idx];
}

void
BackingStore::install(std::shared_ptr<const StoreSnapshot> snap)
{
    sam_assert(snap != nullptr, "installing a null snapshot");
    sam_assert(snap->size() == 0 || snap->blobBytes == blobBytes_,
               "snapshot blob size mismatch");
    // Revert overlay writes to lines the snapshot covers, so a
    // re-install after a write query restores the clean table. Walk
    // overlayAll_ (insertion order): overlay_ has no iteration, so
    // hash order stays unobservable, the invariant the bit-identity
    // guarantee rests on.
    if (!overlay_.empty()) {
        const auto covered = [&](Addr a) {
            return snap->find(a) != StoreSnapshot::npos;
        };
        bool erased = false;
        for (Addr a : overlayAll_) {
            if (covered(a))
                erased = overlay_.erase(a) || erased;
        }
        if (erased) {
            overlayAll_.erase(std::remove_if(overlayAll_.begin(),
                                             overlayAll_.end(), covered),
                              overlayAll_.end());
            overlayOrder_.erase(
                std::remove_if(overlayOrder_.begin(), overlayOrder_.end(),
                               covered),
                overlayOrder_.end());
        }
    }
    for (const auto &layer : layers_) {
        if (layer == snap)
            return; // already mounted; overlay revert was the point
    }
    layers_.push_back(std::move(snap));
}

} // namespace sam
