#include "src/sim/core_port.hh"

#include "src/common/logging.hh"

namespace sam {

namespace {

CoreCacheConfig
withSector(const CoreCacheConfig &cfg, unsigned sector_bytes)
{
    CoreCacheConfig out = cfg;
    out.l1.sectorBytes = sector_bytes;
    out.l2.sectorBytes = sector_bytes;
    out.llc.sectorBytes = sector_bytes;
    return out;
}

} // namespace

CorePort::CorePort(unsigned core_id, const CoreCacheConfig &cfg,
                   unsigned stride_unit, DataPath &data_path)
    : coreId_(core_id), strideUnit_(stride_unit), dataPath_(data_path),
      hierarchy_(withSector(cfg, stride_unit).l1,
                 withSector(cfg, stride_unit).l2,
                 withSector(cfg, stride_unit).llc, *this)
{
}

void
CorePort::record(AccessType type, std::size_t pool_offset,
                 std::size_t count, unsigned sector)
{
    trace_.append(type, sector, pool_offset, count,
                  clock_ - lastRecord_);
    lastRecord_ = clock_;
}

void
CorePort::recordLine(AccessType type, Addr line)
{
    const std::size_t offset = trace_.pool.size();
    trace_.pool.push_back(line);
    record(type, offset, 1, 0);
}

void
CorePort::recordSpan(AccessType type, const GatherPlan &plan)
{
    const std::size_t offset = trace_.pool.size();
    trace_.pool.insert(trace_.pool.end(), plan.lines.begin(),
                       plan.lines.end());
    record(type, offset, plan.lines.size(), plan.sector);
}

std::uint64_t
CorePort::load(Addr addr, unsigned bytes)
{
    sam_assert(bytes >= 1 && bytes <= 8, "load size");
    dataPath_.setNow(clock_);
    std::uint8_t buf[8] = {};
    const HierResult r = hierarchy_.read(addr, bytes, buf);
    loadPoisoned_ = r.poisoned;
    clock_ += r.delay;
    std::uint64_t v = 0;
    for (int i = static_cast<int>(bytes) - 1; i >= 0; --i)
        v = (v << 8) | buf[i];
    return v;
}

void
CorePort::store(Addr addr, std::uint64_t value, unsigned bytes)
{
    sam_assert(bytes >= 1 && bytes <= 8, "store size");
    dataPath_.setNow(clock_);
    std::uint8_t buf[8];
    for (unsigned i = 0; i < bytes; ++i) {
        buf[i] = static_cast<std::uint8_t>(value & 0xff);
        value >>= 8;
    }
    const HierResult r = hierarchy_.write(addr, buf, bytes);
    clock_ += r.delay;
}

void
CorePort::storeStream(Addr addr, std::uint64_t value, unsigned bytes)
{
    sam_assert(bytes >= 1 && bytes <= 8, "store size");
    dataPath_.setNow(clock_);
    std::uint8_t buf[8];
    for (unsigned i = 0; i < bytes; ++i) {
        buf[i] = static_cast<std::uint8_t>(value & 0xff);
        value >>= 8;
    }
    const HierResult r = hierarchy_.writeAllocate(addr, buf, bytes);
    clock_ += r.delay;
}

void
CorePort::strideLoadInto(const GatherPlan &plan, std::uint8_t *out64)
{
    dataPath_.setNow(clock_);
    const HierResult r = hierarchy_.strideRead(plan, strideUnit_, out64);
    strideLoadPoison_ = r.poisonBits;
    clock_ += r.delay;
}

void
CorePort::strideStore(const GatherPlan &plan, const std::uint8_t *line64)
{
    dataPath_.setNow(clock_);
    const HierResult r = hierarchy_.strideWrite(plan, strideUnit_, line64);
    clock_ += r.delay;
}

void
CorePort::compute(Cycle cycles)
{
    clock_ += cycles;
}

void
CorePort::recordScrubs(const ReadFlags &flags)
{
    if (!flags.scrubbed)
        return;
    // Demand scrubs are real timed writes: the corrected line goes back
    // over the bus, so the replay must charge their bandwidth/power.
    for (Addr scrubbed : dataPath_.lastScrubbedLines())
        recordLine(AccessType::Write, scrubbed);
}

void
CorePort::fetchLine(Addr line, std::uint8_t *out64)
{
    recordLine(AccessType::Read, line);
    const ReadFlags flags = dataPath_.readLineInto(line, out64);
    recordScrubs(flags);
    fetchPoisoned_ = flags.poisoned;
}

void
CorePort::fetchStride(const GatherPlan &plan, std::uint8_t *out64)
{
    recordSpan(AccessType::StrideRead, plan);
    const ReadFlags flags = dataPath_.strideReadInto(
        plan.lines.data(), plan.lines.size(), plan.sector, strideUnit_,
        out64);
    recordScrubs(flags);
    strideFetchPoison_ = flags.poisonBits;
}

void
CorePort::writeback(const Writeback &wb)
{
    recordLine(AccessType::Write, wb.line);
    dataPath_.writePartial(wb.line, wb.data.data(), wb.dirtyMask,
                           strideUnit_);
}

void
CorePort::writeStride(const GatherPlan &plan, const std::uint8_t *line64)
{
    recordSpan(AccessType::StrideWrite, plan);
    dataPath_.strideWrite(plan.lines.data(), plan.lines.size(),
                          plan.sector, strideUnit_, line64);
}

void
CorePort::newEpoch()
{
    trace_.beginEpoch();
}

} // namespace sam
