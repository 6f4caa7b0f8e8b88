#include "src/controller/controller.hh"

#include <algorithm>

#include "src/common/logging.hh"
#include "src/telemetry/telemetry.hh"

namespace sam {

namespace {

RequestClass
requestClassOf(const MemRequest &req)
{
    if (req.isScrub)
        return RequestClass::Scrub;
    switch (req.type) {
      case AccessType::Read:        return RequestClass::Read;
      case AccessType::Write:       return RequestClass::Write;
      case AccessType::StrideRead:  return RequestClass::StrideRead;
      case AccessType::StrideWrite: return RequestClass::StrideWrite;
    }
    panic("unknown AccessType");
}

} // namespace

void
ControllerStats::registerIn(StatGroup &group) const
{
    group.addCounter("readsServed", readsServed);
    group.addCounter("writesServed", writesServed);
    group.addCounter("strideReadsServed", strideReadsServed);
    group.addCounter("strideWritesServed", strideWritesServed);
    group.addCounter("frRowHitPicks", frRowHitPicks,
                     "FR-FCFS row-hit first picks");
    group.addCounter("fcfsPicks", fcfsPicks, "oldest-first picks");
    group.addCounter("scrubWrites", scrubWrites,
                     "RAS demand-scrub writebacks");
    group.addAccum("totalReadLatency", totalReadLatency,
                   "sum of read latencies (cycles)");
}

MemoryController::MemoryController(Device &device, DataPath &data_path,
                                   const AddressMapping &mapping,
                                   ControllerParams params,
                                   bool functional)
    : device_(device), dataPath_(data_path), mapping_(mapping),
      params_(params), functional_(functional),
      readQ_(device.geometry()), writeQ_(device.geometry())
{
    device_.addRowListener(this);
}

MemoryController::~MemoryController()
{
    device_.removeRowListener(this);
}

void
MemoryController::rowOpened(std::size_t flat_bank, std::uint64_t row)
{
    readQ_.noteRowOpened(flat_bank, row);
    writeQ_.noteRowOpened(flat_bank, row);
}

void
MemoryController::rowClosed(std::size_t flat_bank)
{
    readQ_.noteRowClosed(flat_bank);
    writeQ_.noteRowClosed(flat_bank);
}

void
MemoryController::push(MemRequest req)
{
    sam_assert(req.gatherCount > 0,
               "request not expanded by a design model");
    if (isWrite(req.type))
        writeQ_.push(std::move(req));
    else
        readQ_.push(std::move(req));
}

Completion
MemoryController::serve(MemRequest req)
{
    // The scheduling clock models command-bus occupancy only (one slot
    // per PRE/ACT/CAS); array timing legality is the device's job.
    // Serialising requests behind each other's tRCD here would deny the
    // bank-level parallelism a real FR-FCFS controller exploits.
    const Cycle earliest = std::max(now_, req.arrival);
    if (telemetry_) {
        telemetry_->beginRequest(req.id, requestClassOf(req), req.coreId,
                                 req.device.addr.channel, req.arrival,
                                 readQ_.size(), writeQ_.size(), earliest);
    }
    const AccessResult r = device_.access(req.device, earliest);
    now_ = earliest + 1 + 2 * r.activates;

    Completion c;
    c.id = req.id;
    c.coreId = req.coreId;
    c.isRead = !isWrite(req.type);
    c.done = r.done + params_.pipelineLatency;
    if (telemetry_)
        telemetry_->endRequest(r, c.done);

    switch (req.type) {
      case AccessType::Read:
        if (functional_) {
            c.flags = dataPath_.readLineInto(req.gatherLines[0],
                                             c.data.data());
            pushScrubs(c.flags, c.done, req.coreId);
        }
        ++stats_.readsServed;
        stats_.totalReadLatency += static_cast<double>(c.done -
                                                       req.arrival);
        break;
      case AccessType::StrideRead:
        if (functional_) {
            c.flags = dataPath_.strideReadInto(
                req.gatherLines.data(), req.gatherCount, req.sector,
                req.strideUnit, c.data.data());
            pushScrubs(c.flags, c.done, req.coreId);
        }
        ++stats_.strideReadsServed;
        stats_.totalReadLatency += static_cast<double>(c.done -
                                                       req.arrival);
        break;
      case AccessType::Write:
        if (functional_ && !req.isScrub) {
            sam_assert(req.writeData.size() == kCachelineBytes,
                       "write without a full-line payload");
            dataPath_.writeLine(req.gatherLines[0], req.writeData.data());
        }
        if (req.isScrub)
            ++stats_.scrubWrites;
        ++stats_.writesServed;
        break;
      case AccessType::StrideWrite:
        if (functional_) {
            sam_assert(req.writeData.size() == kCachelineBytes,
                       "stride write without a full-line payload");
            dataPath_.strideWrite(req.gatherLines.data(), req.gatherCount,
                                  req.sector, req.strideUnit,
                                  req.writeData.data());
        }
        ++stats_.strideWritesServed;
        break;
    }
    return c;
}

void
MemoryController::pushScrubs(const ReadFlags &flags, Cycle when,
                             unsigned core_id)
{
    if (!flags.scrubbed)
        return;
    // Corrected lines are written back as real writes so the scrub
    // traffic competes for write-queue slots and bus slots. The data
    // movement already happened inside the DataPath; these requests are
    // timing-only.
    for (Addr line : dataPath_.lastScrubbedLines()) {
        MemRequest scrub;
        scrub.type = AccessType::Write;
        scrub.addr = line;
        scrub.isScrub = true;
        scrub.arrival = when;
        scrub.coreId = core_id;
        scrub.device.addr = mapping_.decompose(line);
        scrub.device.isWrite = true;
        scrub.setLine(line);
        push(std::move(scrub));
    }
}

std::optional<Completion>
MemoryController::serviceNext()
{
    if (readQ_.empty() && writeQ_.empty())
        return std::nullopt;

    // Write-drain policy: writes are posted and only drained when the
    // queue is pressurised or there is nothing else to do.
    if (drainingWrites_ && writeQ_.size() <= params_.writeLowWatermark)
        drainingWrites_ = false;
    if (!drainingWrites_ && writeQ_.size() >= params_.writeHighWatermark)
        drainingWrites_ = true;

    const bool serve_write =
        !writeQ_.empty() && (drainingWrites_ || readQ_.empty());

    RequestQueue &q = serve_write ? writeQ_ : readQ_;
    bool row_hit_pick = false;
    MemRequest req = q.popBest(now_, row_hit_pick);
    if (row_hit_pick)
        ++stats_.frRowHitPicks;
    else
        ++stats_.fcfsPicks;
    return serve(std::move(req));
}

Cycle
MemoryController::drainAll()
{
    Cycle last = now_;
    while (auto c = serviceNext())
        last = std::max(last, c->done);
    return last;
}

} // namespace sam
