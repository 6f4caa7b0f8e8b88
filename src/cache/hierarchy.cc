#include "src/cache/hierarchy.hh"

#include <cstring>

#include "src/common/logging.hh"

namespace sam {

CacheHierarchy::CacheHierarchy(const CacheParams &l1,
                               const CacheParams &l2,
                               const CacheParams &llc,
                               MemBackend &backend)
    : l1_(l1), l2_(l2), llc_(llc), backend_(backend)
{
    levels_ = {&l1_, &l2_, &llc_};
    sam_assert(l1.sectorBytes == l2.sectorBytes &&
                   l2.sectorBytes == llc.sectorBytes,
               "all levels must share the sector size");
}

void
CacheHierarchy::fillLevel(unsigned lvl, Addr line, std::uint8_t mask,
                          const std::uint8_t *data64,
                          std::uint8_t dirty_mask,
                          std::uint8_t poison_mask)
{
    auto victim = levels_[lvl]->fill(line, mask, data64,
                                     dirty_mask != 0, poison_mask);
    // fill() marks all inserted sectors dirty when dirty=true; tighten
    // to the actual dirty mask by re-merging is unnecessary at this
    // fidelity (over-writeback of a few clean sectors is harmless: the
    // data is identical).
    if (!victim)
        return;
    if (lvl + 1 < levels_.size()) {
        fillLevel(lvl + 1, victim->line, victim->validMask,
                  victim->data.data(), victim->dirtyMask,
                  victim->poisonMask);
    } else {
        backend_.writeback(*victim);
    }
}

std::uint8_t
CacheHierarchy::collect(Addr line, std::uint8_t &dirty_mask,
                        std::uint8_t *data64, std::uint8_t *poison_mask)
{
    std::uint8_t valid = 0;
    std::uint8_t poison = 0;
    dirty_mask = 0;
    // Probing top-down makes upper levels win on sector overlap.
    for (auto *cache : levels_)
        cache->extractMergeInto(line, data64, valid, dirty_mask, poison);
    if (poison_mask != nullptr)
        *poison_mask = poison;
    return valid;
}

std::uint8_t
CacheHierarchy::fullCoverMask(unsigned offset, unsigned bytes) const
{
    const unsigned sector_bytes = l1_.params().sectorBytes;
    std::uint8_t mask = 0;
    for (unsigned s = 0; s < l1_.sectorsPerLine(); ++s) {
        const unsigned lo = s * sector_bytes;
        if (offset <= lo && offset + bytes >= lo + sector_bytes)
            mask |= static_cast<std::uint8_t>(1u << s);
    }
    return mask;
}

HierResult
CacheHierarchy::ensureLine(Addr line, std::uint8_t mask,
                          unsigned from_lvl)
{
    HierResult res;
    for (unsigned lvl = from_lvl; lvl < levels_.size(); ++lvl) {
        if (levels_[lvl]->lookup(line, mask)) {
            res.delay = levels_[lvl]->params().hitLatency;
            if (lvl > 0) {
                // Exclusive promotion to L1.
                std::uint8_t data[kCachelineBytes];
                std::uint8_t dirty = 0;
                std::uint8_t poison = 0;
                const std::uint8_t valid =
                    collect(line, dirty, data, &poison);
                fillLevel(0, line, valid, data, dirty, poison);
            }
            return res;
        }
    }

    // Full miss (or sector miss): fetch the whole line, then overlay
    // any resident sectors directly (which may be dirtier than
    // memory). The caches issue no requests and draw no fault-model
    // randomness, so merging after the fetch is equivalent to
    // collecting first.
    std::uint8_t merged[kCachelineBytes];
    const bool fetch_poisoned = backend_.fetchLine(line, merged);
    std::uint8_t dirty = 0;
    std::uint8_t cached_poison = 0;
    const std::uint8_t cached_valid =
        collect(line, dirty, merged, &cached_poison);
    // A poisoned fetch taints the fetched sectors; resident sectors
    // keep their own (possibly clean) state since they overlay the
    // fetched bytes.
    const std::uint8_t fetch_poison = fetch_poisoned
        ? static_cast<std::uint8_t>(l1_.fullMask() & ~cached_valid)
        : 0;
    fillLevel(0, line, l1_.fullMask(), merged, dirty,
              static_cast<std::uint8_t>(cached_poison | fetch_poison));
    res.delay = llc_.params().hitLatency;
    res.memTouched = true;
    return res;
}

HierResult
CacheHierarchy::read(Addr addr, unsigned bytes, std::uint8_t *out)
{
    const Addr line = addr & ~Addr{kCachelineBytes - 1};
    const unsigned offset = static_cast<unsigned>(addr - line);
    const std::uint8_t mask = l1_.maskFor(offset, bytes);
    // One fused probe covers the common case; readHit counted the L1
    // miss otherwise, so the slow path resumes the search at L2.
    bool poisoned = false;
    if (l1_.readHit(line, mask, offset, bytes, out, poisoned)) {
        HierResult res;
        res.delay = l1_.params().hitLatency;
        res.poisoned = poisoned;
        return res;
    }
    HierResult res = ensureLine(line, mask, /*from_lvl=*/1);
    l1_.readBytes(line, offset, bytes, out);
    res.poisoned = (l1_.poisonMask(line) & mask) != 0;
    return res;
}

HierResult
CacheHierarchy::write(Addr addr, const std::uint8_t *src, unsigned bytes)
{
    const Addr line = addr & ~Addr{kCachelineBytes - 1};
    const unsigned offset = static_cast<unsigned>(addr - line);
    const unsigned sector_bytes = l1_.params().sectorBytes;

    const bool sector_aligned = offset % sector_bytes == 0 &&
                                bytes % sector_bytes == 0;
    if (sector_aligned) {
        // The write fully covers its sectors: allocate without fetching
        // (a sector-cache benefit; plain caches never take this path
        // for sub-line stores since their only sector is the line).
        std::uint8_t dirty = 0;
        std::uint8_t poison = 0;
        std::uint8_t merged[kCachelineBytes] = {};
        const std::uint8_t valid = collect(line, dirty, merged, &poison);
        std::memcpy(merged + offset, src, bytes);
        const std::uint8_t store_mask = l1_.maskFor(offset, bytes);
        fillLevel(0, line, static_cast<std::uint8_t>(valid | store_mask),
                  merged,
                  static_cast<std::uint8_t>(dirty | store_mask),
                  static_cast<std::uint8_t>(poison & ~store_mask));
        return {l1_.params().hitLatency, false};
    }

    // Partial-sector store: read-for-ownership then merge.
    HierResult res = ensureLine(line, l1_.maskFor(offset, bytes));
    l1_.writeBytes(line, offset, bytes, src);
    return res;
}

HierResult
CacheHierarchy::strideRead(const GatherPlan &plan, unsigned unit,
                           std::uint8_t *out64)
{
    const std::uint8_t sector_bit =
        static_cast<std::uint8_t>(1u << plan.sector);
    const unsigned g = static_cast<unsigned>(plan.lines.size());
    sam_assert(g * unit == kCachelineBytes, "bad gather geometry");

    bool all_hit = true;
    Cycle worst = 0;
    for (Addr line : plan.lines) {
        bool hit = false;
        for (auto *cache : levels_) {
            if (cache->lookup(line, sector_bit)) {
                worst = std::max(worst, cache->params().hitLatency);
                hit = true;
                break;
            }
        }
        all_hit = all_hit && hit;
        if (!all_hit)
            break;
    }

    if (all_hit) {
        HierResult res{worst, false};
        for (unsigned i = 0; i < g; ++i) {
            for (auto *cache : levels_) {
                bool poisoned = false;
                if (cache->readHit(plan.lines[i], sector_bit,
                                   plan.sector * unit, unit,
                                   out64 + i * unit, poisoned)) {
                    if (poisoned) {
                        res.poisoned = true;
                        res.poisonBits |= std::uint32_t{1} << i;
                    }
                    break;
                }
            }
        }
        return res;
    }

    // One sload fetches all G chunks; overlay any dirtier cached chunk.
    const std::uint32_t fetch_poison = backend_.fetchStride(plan, out64);

    HierResult res{llc_.params().hitLatency, true};
    for (unsigned i = 0; i < g; ++i) {
        const Addr line = plan.lines[i];
        std::uint8_t dirty = 0;
        std::uint8_t poison = 0;
        std::uint8_t buf[kCachelineBytes] = {};
        const std::uint8_t valid = collect(line, dirty, buf, &poison);
        std::uint8_t valid_now = valid;
        std::uint8_t chunk_poison;
        if (dirty & sector_bit) {
            // Cache is newer than memory for this chunk.
            std::memcpy(out64 + i * unit, buf + plan.sector * unit,
                        unit);
            chunk_poison = static_cast<std::uint8_t>(poison & sector_bit);
        } else {
            std::memcpy(buf + plan.sector * unit, out64 + i * unit,
                        unit);
            valid_now |= sector_bit;
            chunk_poison = (fetch_poison >> i) & 1u ? sector_bit
                                                    : std::uint8_t{0};
        }
        if (chunk_poison != 0) {
            res.poisoned = true;
            res.poisonBits |= std::uint32_t{1} << i;
        }
        fillLevel(0, line, static_cast<std::uint8_t>(valid_now |
                                                     sector_bit),
                  buf, dirty,
                  static_cast<std::uint8_t>((poison & ~sector_bit) |
                                            chunk_poison));
    }
    return res;
}

HierResult
CacheHierarchy::strideWrite(const GatherPlan &plan, unsigned unit,
                            const std::uint8_t *src64)
{
    const std::uint8_t sector_bit =
        static_cast<std::uint8_t>(1u << plan.sector);
    const unsigned g = static_cast<unsigned>(plan.lines.size());
    const unsigned sector_bytes = l1_.params().sectorBytes;
    sam_assert(unit == sector_bytes,
               "stride writes require sector-granular caches");

    for (unsigned i = 0; i < g; ++i) {
        const Addr line = plan.lines[i];
        std::uint8_t dirty = 0;
        std::uint8_t poison = 0;
        std::uint8_t buf[kCachelineBytes] = {};
        const std::uint8_t valid = collect(line, dirty, buf, &poison);
        std::memcpy(buf + plan.sector * unit, src64 + i * unit, unit);
        // Written through below: this sector is clean in the caches.
        fillLevel(0, line,
                  static_cast<std::uint8_t>(valid | sector_bit), buf,
                  static_cast<std::uint8_t>(dirty &
                                            ~unsigned{sector_bit}),
                  static_cast<std::uint8_t>(poison & ~sector_bit));
    }
    backend_.writeStride(plan, src64);
    return {l1_.params().hitLatency, true};
}

HierResult
CacheHierarchy::writeAllocate(Addr addr, const std::uint8_t *src,
                              unsigned bytes)
{
    const Addr line = addr & ~Addr{kCachelineBytes - 1};
    const unsigned offset = static_cast<unsigned>(addr - line);
    std::uint8_t dirty = 0;
    std::uint8_t poison = 0;
    std::uint8_t merged[kCachelineBytes] = {};
    collect(line, dirty, merged, &poison);
    std::memcpy(merged + offset, src, bytes);
    fillLevel(0, line, l1_.fullMask(), merged, l1_.fullMask(),
              static_cast<std::uint8_t>(poison &
                                        ~fullCoverMask(offset, bytes)));
    return {l1_.params().hitLatency, false};
}

void
CacheHierarchy::flush()
{
    std::vector<Writeback> wbs;
    for (auto *cache : levels_)
        cache->flush(wbs);
    for (const auto &wb : wbs)
        backend_.writeback(wb);
}

} // namespace sam
