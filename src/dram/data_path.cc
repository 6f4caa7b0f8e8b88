#include "src/dram/data_path.hh"

#include <cstring>

#include "src/common/logging.hh"

namespace sam {

void
EccStats::registerIn(StatGroup &group) const
{
    group.addCounter("linesChecked", linesChecked, "lines ECC-checked");
    group.addCounter("correctedLines", correctedLines,
                     "lines with corrected errors");
    group.addCounter("correctedSymbols", correctedSymbols,
                     "total symbols corrected");
    group.addCounter("uncorrectable", uncorrectable,
                     "detected uncorrectable lines");
}

DataPath::DataPath(EccScheme scheme)
    : ecc_(scheme),
      store_(kCachelineBytes + EccEngine::parityBytesFor(scheme))
{
    // Lets the store reconstruct the parity of lazy-parity table
    // snapshots on demand (DataPath is non-movable, so the borrowed
    // engine pointer stays valid for the store's lifetime).
    store_.setParityEncoder(&ecc_);
}

Addr
DataPath::resolved(Addr line_addr) const
{
    return ras_ ? ras_->resolve(line_addr) : line_addr;
}

ReadFlags
DataPath::fetchInto(Addr line_addr, std::uint8_t *out64, bool rmw)
{
    const Addr phys = resolved(line_addr);
    if (faults_)
        faults_->tick(now_, store_, ecc_);

    // Clean tag read AFTER tick(): the FIT model corrupts stored
    // blobs, which clears the tag.
    const BackingStore::LineRef ref = store_.refLine(phys);
    const bool provably_clean =
        fastPath_ && ref.clean && failedChips_.empty();

    if (provably_clean &&
        (!faults_ || faults_->leavesNextReadUntouched())) {
        // Intact encoder output with nothing in the way: copy the data
        // bytes straight out of the store. A full decode would return
        // Clean, bump exactly these counters, and leave the bytes
        // untouched. A hook that will not touch this read would make
        // no draw either, so skipping it (and the lazy-parity rebuild
        // the blob would need) changes nothing downstream.
        ++stats_.linesChecked;
        ecc_.noteCleanLine();
        if (ref.data)
            std::memcpy(out64, ref.data, kCachelineBytes);
        else
            std::memset(out64, 0, kCachelineBytes);
        return ReadFlags{};
    }

    const unsigned blob_bytes = store_.blobBytes();
    unsigned attempt = 0;
    for (;;) {
        blobScratch_.resize(blob_bytes);
        if (ref.data && ref.lazyParity) {
            // Lazy-parity snapshot line: the stored tail is a zero
            // placeholder, so rebuild the full codeword from the data
            // bytes before anything inspects or corrupts it. Only
            // reads that something corrupts or decodes get here.
            ecc_.encodeLineInto(ref.data, blobScratch_.data());
        } else if (ref.data) {
            std::memcpy(blobScratch_.data(), ref.data, blob_bytes);
        } else {
            std::memset(blobScratch_.data(), 0, blob_bytes);
        }
        for (unsigned chip : failedChips_)
            ecc_.corruptChip(blobScratch_, chip);
        bool touched = false;
        if (faults_) {
            // Always consulted, even on clean lines: the injector's
            // per-read RNG draws are part of the deterministic replay
            // surface.
            touched = faults_->beforeDecode(phys, blobScratch_, ecc_);
        }

        if (provably_clean && !touched) {
            ++stats_.linesChecked;
            ecc_.noteCleanLine();
            std::memcpy(out64, blobScratch_.data(), kCachelineBytes);
            ReadFlags out;
            out.retries = attempt;
            return out;
        }

        const EccLineResult r = ecc_.decodeLine(blobScratch_);
        ++stats_.linesChecked;

        if (!r.uncorrectable) {
            ReadFlags out;
            out.retries = attempt;
            if (r.corrected) {
                ++stats_.correctedLines;
                stats_.correctedSymbols += r.symbolsCorrected;
                out.corrected = true;
                if (ras_ && !rmw) {
                    const auto act = ras_->onCorrected(line_addr, now_);
                    if (act.scrub) {
                        // Scrub: persist the healed blob (decode
                        // re-verified it, so it is clean encoder
                        // output). The caller records this as a real
                        // timed write.
                        store_.writeLine(phys, blobScratch_,
                                         /*clean=*/true);
                        scrubbed_.push_back(line_addr);
                        out.scrubbed = true;
                    }
                    if (act.retire) {
                        // Leaky bucket says permanent: copy the healed
                        // data to a spare; future accesses remap.
                        const Addr spare = ras_->retireLine(line_addr);
                        if (spare != line_addr)
                            store_.writeLine(spare, blobScratch_,
                                             /*clean=*/true);
                    }
                }
            }
            std::memcpy(out64, blobScratch_.data(), kCachelineBytes);
            return out;
        }

        if (ras_ && ras_->onUncorrectable(line_addr, now_, attempt)) {
            ++attempt;
            continue; // re-read clears transient bus faults
        }

        // Detected-uncorrectable, retries exhausted (or no RAS
        // attached): the access fails. `uncorrectable` counts final
        // failures, not individual retry attempts.
        ++stats_.uncorrectable;
        ReadFlags out;
        out.retries = attempt;
        out.uncorrectable = true;
        if (ras_) {
            out.poisoned = true;
            out.poisonBits = 1;
            ras_->onPoisoned(line_addr);
        }
        std::memcpy(out64, blobScratch_.data(), kCachelineBytes);
        return out;
    }
}

ReadFlags
DataPath::readLineInto(Addr line_addr, std::uint8_t *out64)
{
    scrubbed_.clear();
    return fetchInto(line_addr, out64);
}

ReadOutcome
DataPath::readLine(Addr line_addr)
{
    ReadOutcome out;
    out.data.resize(kCachelineBytes);
    const ReadFlags f = readLineInto(line_addr, out.data.data());
    out.corrected = f.corrected;
    out.uncorrectable = f.uncorrectable;
    out.poisoned = f.poisoned;
    out.retries = f.retries;
    out.poisonBits = f.poisonBits;
    out.scrubbedLines = scrubbed_;
    return out;
}

void
DataPath::writeLine(Addr line_addr, const std::vector<std::uint8_t> &data)
{
    sam_assert(data.size() == kCachelineBytes,
               "writeLine expects a 64B line, got ", data.size());
    encodeScratch_.resize(store_.blobBytes());
    ecc_.encodeLineInto(data.data(), encodeScratch_.data());
    store_.writeLine(resolved(line_addr), encodeScratch_.data(),
                     /*clean=*/true);
}

ReadFlags
DataPath::strideReadInto(const Addr *line_addrs, std::size_t count,
                         unsigned sector, unsigned unit,
                         std::uint8_t *out64)
{
    scrubbed_.clear();
    sam_assert(count * unit <= kCachelineBytes, "oversized gather");
    std::uint8_t line[kCachelineBytes];
    ReadFlags out;
    for (std::size_t i = 0; i < count; ++i) {
        const ReadFlags one = fetchInto(line_addrs[i], line);
        out.corrected = out.corrected || one.corrected;
        out.uncorrectable = out.uncorrectable || one.uncorrectable;
        out.poisoned = out.poisoned || one.poisoned;
        out.retries += one.retries;
        if (one.poisoned)
            out.poisonBits |= std::uint32_t{1} << i;
        std::memcpy(out64 + i * unit, line + sector * unit, unit);
    }
    out.scrubbed = !scrubbed_.empty();
    return out;
}

ReadOutcome
DataPath::strideRead(const Addr *line_addrs, std::size_t count,
                     unsigned sector, unsigned unit)
{
    ReadOutcome out;
    out.data.resize(kCachelineBytes);
    const ReadFlags f =
        strideReadInto(line_addrs, count, sector, unit, out.data.data());
    out.corrected = f.corrected;
    out.uncorrectable = f.uncorrectable;
    out.poisoned = f.poisoned;
    out.retries = f.retries;
    out.poisonBits = f.poisonBits;
    out.scrubbedLines = scrubbed_;
    return out;
}

ReadOutcome
DataPath::strideRead(const std::vector<Addr> &line_addrs, unsigned sector,
                     unsigned unit)
{
    return strideRead(line_addrs.data(), line_addrs.size(), sector, unit);
}

void
DataPath::strideWrite(const Addr *line_addrs, std::size_t count,
                      unsigned sector, unsigned unit,
                      const std::uint8_t *stride_line)
{
    // Read-modify-write: decode each target line, patch the chunk,
    // re-encode. Mirrors SAM's requirement that strided writes keep
    // every touched codeword consistent.
    std::uint8_t line[kCachelineBytes];
    encodeScratch_.resize(store_.blobBytes());
    for (std::size_t i = 0; i < count; ++i) {
        fetchInto(line_addrs[i], line, /*rmw=*/true);
        std::memcpy(line + sector * unit, stride_line + i * unit, unit);
        ecc_.encodeLineInto(line, encodeScratch_.data());
        store_.writeLine(resolved(line_addrs[i]), encodeScratch_.data(),
                         /*clean=*/true);
    }
}

void
DataPath::strideWrite(const std::vector<Addr> &line_addrs, unsigned sector,
                      unsigned unit,
                      const std::vector<std::uint8_t> &stride_line)
{
    strideWrite(line_addrs.data(), line_addrs.size(), sector, unit,
                stride_line.data());
}

void
DataPath::writePartial(Addr line_addr, const std::uint8_t *data64,
                       std::uint8_t sector_mask, unsigned sector_bytes)
{
    sam_assert(sector_bytes > 0 && kCachelineBytes % sector_bytes == 0,
               "bad sector size");
    std::uint8_t line[kCachelineBytes];
    fetchInto(line_addr, line, /*rmw=*/true);
    const unsigned sectors = kCachelineBytes / sector_bytes;
    for (unsigned s = 0; s < sectors; ++s) {
        if (sector_mask & (1u << s)) {
            std::memcpy(line + s * sector_bytes,
                        data64 + s * sector_bytes, sector_bytes);
        }
    }
    encodeScratch_.resize(store_.blobBytes());
    ecc_.encodeLineInto(line, encodeScratch_.data());
    store_.writeLine(resolved(line_addr), encodeScratch_.data(),
                     /*clean=*/true);
}

void
DataPath::failChip(unsigned chip)
{
    sam_assert(chip < ecc_.numChips(), "chip ", chip, " out of range");
    failedChips_.insert(chip);
}

} // namespace sam
