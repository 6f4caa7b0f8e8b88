#include "src/runner/journal.hh"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>

#include <fcntl.h>
#include <unistd.h>

#include "src/common/logging.hh"

namespace sam {

namespace {

/** Wall timestamp recorded on journal lines (diagnostics only: it is
 *  never merged into BENCH output, so resume stays bit-identical). */
std::uint64_t
wallMs()
{
    // Journal timestamps are off-surface metadata; no simulated state
    // reads them.
    // NOLINTNEXTLINE(sam-determinism): provenance timestamp only.
    const auto now = std::chrono::system_clock::now();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            now.time_since_epoch())
            .count());
}

/** Canonical JSON of everything that determines a run's results. */
Json
specIdentityJson(const RunSpec &spec)
{
    const SimConfig &c = spec.config;
    Json j = Json::object();
    j.set("id", spec.id);
    j.set("design", designName(c.design));
    j.set("ecc", eccSchemeName(c.ecc));
    j.set("override_tech", c.overrideTech);
    j.set("tech", static_cast<int>(c.tech));
    j.set("cores", c.cores);
    j.set("mshrs", c.mshrsPerCore);
    Json caches = Json::array();
    for (const CacheParams *p :
         {&c.caches.l1, &c.caches.l2, &c.caches.llc}) {
        Json cp = Json::array();
        cp.push(p->sizeBytes);
        cp.push(p->assoc);
        cp.push(p->sectorBytes);
        cp.push(static_cast<std::uint64_t>(p->hitLatency));
        caches.push(std::move(cp));
    }
    j.set("caches", std::move(caches));
    j.set("ta_records", c.taRecords);
    j.set("ta_fields", c.taFields);
    j.set("tb_records", c.tbRecords);
    j.set("tb_fields", c.tbFields);
    j.set("compute_per_record",
          static_cast<std::uint64_t>(c.computePerRecord));
    j.set("compute_per_value",
          static_cast<std::uint64_t>(c.computePerValue));
    j.set("check", c.check);
    Json faults = Json::object();
    faults.set("model", static_cast<int>(c.faults.model));
    faults.set("fit", c.faults.fitPerMcycle);
    faults.set("stuck_chip", c.faults.stuckChip);
    faults.set("stuck_p", c.faults.stuckProbability);
    faults.set("stuck_bits", c.faults.stuckBits);
    faults.set("chipkill_at",
               static_cast<std::uint64_t>(c.faults.chipkillAt));
    faults.set("chipkill_chip", c.faults.chipkillChip);
    faults.set("seed", c.faults.seed);
    j.set("faults", std::move(faults));
    Json ras = Json::object();
    ras.set("max_retries", c.ras.maxRetries);
    ras.set("scrub", c.ras.scrubEnabled);
    ras.set("bucket_threshold", c.ras.bucketThreshold);
    ras.set("bucket_window",
            static_cast<std::uint64_t>(c.ras.bucketWindow));
    ras.set("max_spare_lines", c.ras.maxSpareLines);
    ras.set("spare_base", static_cast<std::uint64_t>(c.ras.spareBase));
    j.set("ras", std::move(ras));
    const Query &q = spec.query;
    Json query = Json::object();
    query.set("name", q.name);
    query.set("kind", static_cast<int>(q.kind));
    query.set("table", static_cast<int>(q.table));
    Json fields = Json::array();
    for (unsigned f : q.fields)
        fields.push(f);
    query.set("fields", std::move(fields));
    query.set("pred", q.hasPredicate);
    query.set("pred_field", q.predField);
    query.set("sel", q.selectivity);
    query.set("pred2", q.hasPredicate2);
    query.set("pred_field2", q.predField2);
    query.set("sel2", q.selectivity2);
    query.set("limit", q.limit);
    query.set("join_field", q.joinField);
    query.set("join_sel", q.joinSelectivity);
    query.set("join_extra", q.joinExtraFilter);
    query.set("insert_count", q.insertCount);
    query.set("row_preferred", q.rowPreferred);
    query.set("field_major", q.fieldMajor);
    query.set("record_major", q.recordMajor);
    j.set("query", std::move(query));
    j.set("verify", spec.verify);
    return j;
}

} // namespace

std::uint64_t
specHash(const RunSpec &spec)
{
    const std::string text = specIdentityJson(spec).dump(0);
    // FNV-1a 64: tiny, stable across platforms, and collisions only
    // cost a spurious re-run check against a same-id entry.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char ch : text) {
        h ^= ch;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
hashHex(std::uint64_t hash)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

Json
powerJson(const PowerBreakdown &power)
{
    Json j = Json::object();
    j.set("act_pj", power.actEnergyPj);
    j.set("rdwr_pj", power.rdwrEnergyPj);
    j.set("background_pj", power.backgroundEnergyPj);
    j.set("refresh_pj", power.refreshEnergyPj);
    j.set("elapsed_ns", power.elapsedNs);
    return j;
}

// ----- append side ---------------------------------------------------

CampaignJournal::CampaignJournal(std::string path,
                                 const JournalHeader &header,
                                 bool resume)
    : path_(std::move(path))
{
    int flags = O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC;
    if (!resume)
        flags |= O_TRUNC;
    MutexLock lock(mutex_);
    fd_ = ::open(path_.c_str(), flags, 0644);
    if (fd_ < 0)
        fatal("cannot open journal ", path_, ": ",
              std::strerror(errno));
    if (!resume) {
        Json h = Json::object();
        h.set("schema", kSchema);
        h.set("campaign", header.campaign);
        h.set("scale", header.scale);
        h.set("verify", header.verify);
        h.set("telemetry", header.telemetry);
        h.set("ts_ms", wallMs());
        appendLine(h.dump(0));
    }
}

CampaignJournal::~CampaignJournal()
{
    MutexLock lock(mutex_);
    if (fd_ >= 0)
        ::close(fd_);
}

void
CampaignJournal::appendLine(const std::string &line)
{
    // Caller holds mutex_ (constructor) or takes it (record*). One
    // write(2) of the whole line against O_APPEND: concurrent appends
    // never interleave, and a crash can only truncate the tail.
    std::string buf = line;
    buf += '\n';
    std::size_t off = 0;
    while (off < buf.size()) {
        const ssize_t n =
            ::write(fd_, buf.data() + off, buf.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            panic("journal append to ", path_, " failed: ",
                  std::strerror(errno));
        }
        off += static_cast<std::size_t>(n);
    }
    // Write-ahead durability: the record must be on disk before the
    // campaign treats the run as finished.
    if (::fsync(fd_) != 0)
        panic("journal fsync of ", path_, " failed: ",
              std::strerror(errno));
}

void
CampaignJournal::recordDone(const std::string &id, std::uint64_t hash,
                            unsigned attempts, const Json &run,
                            const Json &power)
{
    Json entry = Json::object();
    entry.set("spec", id);
    entry.set("hash", hashHex(hash));
    entry.set("status", "done");
    entry.set("attempts", attempts);
    entry.set("ts_ms", wallMs());
    entry.set("run", run);
    entry.set("power", power);
    const std::string line = entry.dump(0);
    MutexLock lock(mutex_);
    appendLine(line);
}

void
CampaignJournal::recordFailed(const std::string &id,
                              std::uint64_t hash, unsigned attempts,
                              const std::string &failure,
                              const std::string &error)
{
    Json entry = Json::object();
    entry.set("spec", id);
    entry.set("hash", hashHex(hash));
    entry.set("status", "failed");
    entry.set("attempts", attempts);
    entry.set("ts_ms", wallMs());
    entry.set("failure", failure);
    entry.set("error", error);
    const std::string line = entry.dump(0);
    MutexLock lock(mutex_);
    appendLine(line);
}

// ----- load side -----------------------------------------------------

bool
loadJournal(const std::string &path, JournalState &out,
            std::string &error)
{
    out = JournalState{};
    std::ifstream in(path);
    if (!in.good()) {
        error = "cannot read journal " + path;
        return false;
    }
    std::string line;
    bool sawHeader = false;
    unsigned lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        if (line.empty())
            continue;
        Json rec;
        std::string parseError;
        if (!Json::parse(line, rec, parseError) || !rec.isObject()) {
            if (!sawHeader) {
                error = path + ":1: not a " +
                        std::string(CampaignJournal::kSchema) +
                        " header (" + parseError + ")";
                return false;
            }
            // A torn line mid-file would mean interleaved appends,
            // which the single-write discipline rules out; only the
            // final line can legitimately be partial, so anything
            // after a bad line is untrustworthy and dropped.
            ++out.truncatedLines;
            break;
        }
        if (!sawHeader) {
            if (rec.find("schema") == nullptr ||
                rec.find("schema")->asString() !=
                    CampaignJournal::kSchema) {
                error = path + ":1: expected schema '" +
                        std::string(CampaignJournal::kSchema) + "'";
                return false;
            }
            const Json *campaign = rec.find("campaign");
            const Json *scale = rec.find("scale");
            out.header.campaign =
                campaign != nullptr ? campaign->asString() : "";
            out.header.scale = scale != nullptr ? scale->asString() : "";
            const Json *verify = rec.find("verify");
            const Json *telemetry = rec.find("telemetry");
            out.header.verify =
                verify != nullptr && verify->asBool();
            out.header.telemetry =
                telemetry == nullptr || telemetry->asBool(true);
            sawHeader = true;
            continue;
        }
        JournalEntry entry;
        const Json *spec = rec.find("spec");
        const Json *status = rec.find("status");
        if (spec == nullptr || status == nullptr) {
            ++out.truncatedLines;
            break;
        }
        entry.id = spec->asString();
        const Json *hash = rec.find("hash");
        if (hash != nullptr)
            entry.hash = std::strtoull(hash->asString().c_str(),
                                       nullptr, 16);
        entry.completed = status->asString() == "done";
        const Json *attempts = rec.find("attempts");
        entry.attempts =
            attempts != nullptr
                ? static_cast<unsigned>(attempts->asU64(1))
                : 1;
        if (entry.completed) {
            const Json *run = rec.find("run");
            const Json *power = rec.find("power");
            if (run == nullptr || !run->isObject()) {
                ++out.truncatedLines;
                break;
            }
            entry.run = *run;
            if (power != nullptr)
                entry.power = *power;
        } else {
            const Json *failure = rec.find("failure");
            const Json *why = rec.find("error");
            if (failure != nullptr)
                entry.failure = failure->asString();
            if (why != nullptr)
                entry.error = why->asString();
        }
        out.entries[entry.id] = std::move(entry);
    }
    if (!sawHeader) {
        error = path + ": empty journal (no header record)";
        return false;
    }
    return true;
}

RunResult
restoreRunResult(const JournalEntry &entry)
{
    sam_assert(entry.completed, "restoring a failed journal entry '",
               entry.id, "'");
    const Json &run = entry.run;
    RunResult r;
    r.id = entry.id;
    const Json *design = run.find("design");
    if (design != nullptr) {
        for (DesignKind d :
             {DesignKind::Baseline, DesignKind::RcNvmBit,
              DesignKind::RcNvmWord, DesignKind::GsDram,
              DesignKind::GsDramEcc, DesignKind::SamSub,
              DesignKind::SamIo, DesignKind::SamEn,
              DesignKind::Ideal}) {
            if (designName(d) == design->asString())
                r.design = d;
        }
    }
    const auto u64 = [&run](const char *key) {
        const Json *v = run.find(key);
        return v != nullptr ? v->asU64() : 0;
    };
    const Json *query = run.find("query");
    r.query = query != nullptr ? query->asString() : "";
    RunStats &s = r.stats;
    // Restoring a journaled value, not advancing simulated time.
    // NOLINTNEXTLINE(sam-cycle-accounting): journal replay only.
    s.cycles = u64("cycles");
    s.memReads = u64("mem_reads");
    s.memWrites = u64("mem_writes");
    s.strideReads = u64("stride_reads");
    s.strideWrites = u64("stride_writes");
    s.activates = u64("activates");
    s.rowHits = u64("row_hits");
    s.rowMisses = u64("row_misses");
    s.modeSwitches = u64("mode_switches");
    s.eccCorrectedLines = u64("ecc_corrected_lines");
    s.eccUncorrectable = u64("ecc_uncorrectable");
    s.checkedCommands = u64("checked_commands");
    s.result.rows = u64("result_rows");
    s.result.checksum = u64("result_checksum");
    const Json *wall = run.find("wall_ms");
    r.wallMs = wall != nullptr ? wall->asDouble() : 0.0;
    const auto pd = [&entry](const char *key) {
        const Json *v = entry.power.find(key);
        return v != nullptr ? v->asDouble() : 0.0;
    };
    s.power.actEnergyPj = pd("act_pj");
    s.power.rdwrEnergyPj = pd("rdwr_pj");
    s.power.backgroundEnergyPj = pd("background_pj");
    s.power.refreshEnergyPj = pd("refresh_pj");
    s.power.elapsedNs = pd("elapsed_ns");
    return r;
}

} // namespace sam
