#include "src/runner/supervisor.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <functional>
#include <limits>

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "src/common/logging.hh"
#include "src/core/session.hh"

namespace sam {

const char *
failureKindName(FailureKind kind)
{
    switch (kind) {
      case FailureKind::None: return "none";
      case FailureKind::Crash: return "crash";
      case FailureKind::Hang: return "hang";
      case FailureKind::Error: return "error";
      case FailureKind::Corrupt: return "corrupt";
    }
    return "?";
}

namespace {

/** Monotonic milliseconds for hang deadlines. */
std::int64_t
nowMs()
{
    // Wall time here drives only hang deadlines -- host-level
    // supervision that no simulated state ever reads.
    // NOLINTNEXTLINE(sam-determinism)
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               // NOLINTNEXTLINE(sam-determinism)
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
writeAll(int fd, const char *data, std::size_t size)
{
    std::size_t off = 0;
    while (off < size) {
        const ssize_t n = ::write(fd, data + off, size - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return; // Parent went away; nothing useful left to do.
        }
        off += static_cast<std::size_t>(n);
    }
}

/** Execute one spec and return its journal-ready pieces. */
RunResult
executeSpec(const RunSpec &spec,
            const std::shared_ptr<TableCache> &tables)
{
    // Wall-clock brackets feed only wallMs reporting, never any
    // simulated state.
    // NOLINTNEXTLINE(sam-determinism)
    const auto t0 = std::chrono::steady_clock::now();
    // A fresh Session per run: per-system counters accumulate across
    // queries, so sharing one Session across runs would make statsText
    // depend on scheduling order.
    Session session(spec.config, tables);
    RunStats stats = session.run(spec.config.design, spec.query);
    if (spec.verify)
        session.checkResult(spec.query, stats);
    // NOLINTNEXTLINE(sam-determinism)
    const auto t1 = std::chrono::steady_clock::now();
    RunResult r;
    r.id = spec.id;
    r.design = spec.config.design;
    r.query = spec.query.name;
    r.stats = std::move(stats);
    r.wallMs =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    r.records = spec.config.taRecords;
    return r;
}

/**
 * Forked worker body: run the spec, report `{"run":…,"power":…}` on
 * `fd`, and _exit. Never returns to the caller's stack; _exit (not
 * exit) skips atexit/leak machinery that belongs to the parent.
 * Chaos faults are acted out exactly where the header documents.
 */
[[noreturn]] void
childWorker(const RunSpec &spec, const ChaosPlan &plan, int fd)
{
    if (plan.fault == ChaosFault::Slow)
        ::usleep(plan.delayMs * 1000u);
    if (plan.fault == ChaosFault::Hang) {
        for (;;)
            ::pause();
    }
    if (plan.fault == ChaosFault::Kill && plan.point == 0)
        ::raise(SIGKILL);

    std::string line;
    int exitCode = 0;
    try {
        RunResult r = executeSpec(spec, nullptr);
        Json payload = Json::object();
        payload.set("power", powerJson(r.stats.power));
        payload.set("run", runResultJson(r));
        line = payload.dump(0);
    } catch (const std::exception &e) {
        reportUncaught(e);
        Json payload = Json::object();
        payload.set("error", std::string(e.what()));
        line = payload.dump(0);
        exitCode = 3;
    }

    if (plan.fault == ChaosFault::Kill && plan.point == 1)
        ::raise(SIGKILL);
    if (plan.fault == ChaosFault::Corrupt)
        line = "{\"run\":@corrupted-by-chaos";
    if (plan.fault == ChaosFault::Kill && plan.point == 2) {
        writeAll(fd, line.data(), line.size() / 2);
        ::raise(SIGKILL);
    }
    writeAll(fd, line.data(), line.size());
    ::_exit(exitCode);
}

} // namespace

// ----- Supervisor ----------------------------------------------------

Supervisor::Supervisor(SupervisorConfig config)
    : config_(std::move(config)),
      jobs_(config_.jobs != 0 ? config_.jobs
                              : ThreadPool::defaultWorkers())
{
    sam_assert(!config_.chaos.enabled() ||
                   config_.isolation == Isolation::Process,
               "chaos injection requires process isolation");
    sam_assert(config_.maxAttempts >= 1,
               "SupervisorConfig.maxAttempts must be at least 1");
}

bool
Supervisor::resumeHit(const RunSpec &spec, std::uint64_t hash,
                      SupervisedRun &out) const
{
    if (config_.resume == nullptr)
        return false;
    const auto it = config_.resume->entries.find(spec.id);
    if (it == config_.resume->entries.end() || !it->second.completed)
        return false;
    if (it->second.hash != hash) {
        warn("journal entry for '", spec.id,
             "' has a stale identity hash; re-running");
        return false;
    }
    out.result = restoreRunResult(it->second);
    out.record = it->second.run;
    out.outcome = SupervisedRun::Outcome::FromJournal;
    out.failure = FailureKind::None;
    out.attempts = it->second.attempts;
    return true;
}

void
Supervisor::finishRun(const RunSpec &spec, std::uint64_t hash,
                      unsigned attempts, RunResult result,
                      Json record, Json power, SupervisedRun &out)
{
    if (config_.journal != nullptr)
        config_.journal->recordDone(spec.id, hash, attempts, record,
                                    power);
    out.result = std::move(result);
    out.record = std::move(record);
    out.outcome = SupervisedRun::Outcome::Done;
    out.failure = FailureKind::None;
    out.attempts = attempts;
}

void
Supervisor::failRun(const RunSpec &spec, std::uint64_t hash,
                    unsigned attempts, FailureKind kind,
                    const std::string &error, SupervisedRun &out)
{
    if (config_.journal != nullptr)
        config_.journal->recordFailed(spec.id, hash, attempts,
                                      failureKindName(kind), error);
    out.outcome = SupervisedRun::Outcome::Failed;
    out.failure = kind;
    out.attempts = attempts;
    out.error = error;
}

void
Supervisor::runThreaded(const std::vector<RunSpec> &specs,
                        SupervisorReport &report)
{
    if (!tables_)
        tables_ = std::make_shared<TableCache>();
    if (!pool_)
        pool_ = std::make_unique<ThreadPool>(jobs_);
    std::vector<std::function<void()>> tasks;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        SupervisedRun &slot = report.runs[i];
        if (slot.outcome == SupervisedRun::Outcome::FromJournal)
            continue;
        tasks.push_back([this, &specs, &slot, i] {
            const RunSpec &spec = specs[i];
            const std::uint64_t hash = specHash(spec);
            std::string lastError;
            for (unsigned attempt = 1; attempt <= config_.maxAttempts;
                 ++attempt) {
                try {
                    RunResult r = executeSpec(spec, tables_);
                    Json record = runResultJson(r);
                    Json power = powerJson(r.stats.power);
                    finishRun(spec, hash, attempt, std::move(r),
                              std::move(record), std::move(power),
                              slot);
                    return;
                } catch (const std::exception &e) {
                    reportUncaught(e);
                    lastError = e.what();
                }
            }
            failRun(spec, hash, config_.maxAttempts, FailureKind::Error,
                    lastError, slot);
        });
    }
    pool_->run(std::move(tasks));
}

/** One live forked worker in the Process-mode event loop. */
struct Supervisor::Slot
{
    pid_t pid = -1;
    int fd = -1;
    std::size_t idx = 0;
    unsigned attempt = 1;
    std::int64_t deadlineMs = 0;
    bool deadlineKilled = false;
    std::string buf;
};

void
Supervisor::runForked(const std::vector<RunSpec> &specs,
                      SupervisorReport &report)
{
    struct PendingItem
    {
        std::size_t idx;
        unsigned attempt;
    };
    std::vector<PendingItem> pending;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (report.runs[i].outcome !=
            SupervisedRun::Outcome::FromJournal)
            pending.push_back({i, 1});
    }
    std::vector<Slot> slots;
    ChaosEngine chaos(config_.chaos);
    const bool chaotic = config_.chaos.enabled();

    const auto launch = [&](const PendingItem &item) {
        ChaosPlan plan;
        if (chaotic)
            plan = chaos.nextLaunch(item.idx);
        if (plan.fault == ChaosFault::Die) {
            // The write-ahead-journal crash test: the campaign
            // process itself dies here, mid-campaign, with the
            // journal already carrying every completed run.
            ::raise(SIGKILL);
        }
        int fds[2];
        if (::pipe(fds) != 0)
            panic("pipe failed: ", std::strerror(errno));
        const pid_t pid = ::fork();
        if (pid < 0)
            panic("fork failed: ", std::strerror(errno));
        if (pid == 0) {
            ::close(fds[0]);
            childWorker(specs[item.idx], plan, fds[1]);
        }
        ::close(fds[1]);
        Slot slot;
        slot.pid = pid;
        slot.fd = fds[0];
        slot.idx = item.idx;
        slot.attempt = item.attempt;
        slot.deadlineMs = config_.timeoutMs != 0
                              ? nowMs() + static_cast<std::int64_t>(
                                              config_.timeoutMs)
                              : std::numeric_limits<
                                    std::int64_t>::max();
        slots.push_back(std::move(slot));
        ++report.launches;
    };

    const auto finalize = [&](Slot &slot) {
        ::close(slot.fd);
        int status = 0;
        while (::waitpid(slot.pid, &status, 0) < 0) {
            if (errno != EINTR)
                panic("waitpid failed: ", std::strerror(errno));
        }
        const RunSpec &spec = specs[slot.idx];
        const std::uint64_t hash = specHash(spec);
        FailureKind kind = FailureKind::None;
        std::string error;
        Json payload;
        const Json *run = nullptr;
        if (WIFSIGNALED(status)) {
            if (slot.deadlineKilled) {
                kind = FailureKind::Hang;
                error = "deadline of " +
                        std::to_string(config_.timeoutMs) +
                        "ms exceeded";
            } else {
                kind = FailureKind::Crash;
                error = "killed by signal " +
                        std::to_string(WTERMSIG(status));
            }
        } else if (WEXITSTATUS(status) != 0) {
            kind = FailureKind::Error;
            error = "worker exit code " +
                    std::to_string(WEXITSTATUS(status));
            std::string parseError;
            if (Json::parse(slot.buf, payload, parseError) &&
                payload.find("error") != nullptr)
                error += ": " + payload.find("error")->asString();
        } else {
            std::string parseError;
            if (!Json::parse(slot.buf, payload, parseError) ||
                (run = payload.find("run")) == nullptr ||
                !run->isObject()) {
                kind = FailureKind::Corrupt;
                error = "unparseable worker result (" +
                        (parseError.empty() ? "no run record"
                                            : parseError) +
                        ")";
            }
        }
        if (kind == FailureKind::None) {
            JournalEntry entry;
            entry.id = spec.id;
            entry.completed = true;
            entry.run = *run;
            const Json *power = payload.find("power");
            if (power != nullptr)
                entry.power = *power;
            finishRun(spec, hash, slot.attempt,
                      restoreRunResult(entry), entry.run, entry.power,
                      report.runs[slot.idx]);
            return;
        }
        if (slot.attempt < config_.maxAttempts) {
            pending.push_back({slot.idx, slot.attempt + 1});
        } else {
            failRun(spec, hash, slot.attempt, kind, error,
                    report.runs[slot.idx]);
        }
    };

    while (!pending.empty() || !slots.empty()) {
        // Fill the free slots, oldest attempts first (stable).
        while (!pending.empty() && slots.size() < jobs_) {
            launch(pending.front());
            pending.erase(pending.begin());
        }
        if (slots.empty() && pending.empty())
            break;

        // Sleep until the next event: a readable child or a deadline.
        std::int64_t wake =
            std::numeric_limits<std::int64_t>::max();
        for (const Slot &slot : slots)
            wake = std::min(wake, slot.deadlineMs);
        std::int64_t now = nowMs();
        int timeout = -1;
        if (wake != std::numeric_limits<std::int64_t>::max())
            timeout = static_cast<int>(std::clamp<std::int64_t>(
                wake - now, 0, 60'000));
        std::vector<struct pollfd> fds;
        fds.reserve(slots.size());
        for (const Slot &slot : slots)
            fds.push_back({slot.fd, POLLIN, 0});
        const int ready =
            ::poll(fds.empty() ? nullptr : fds.data(),
                   static_cast<nfds_t>(fds.size()), timeout);
        if (ready < 0 && errno != EINTR)
            panic("poll failed: ", std::strerror(errno));

        // Drain readable pipes; finalize children at EOF.
        for (std::size_t s = 0; s < slots.size();) {
            bool eof = false;
            if (ready > 0 &&
                (fds[s].revents & (POLLIN | POLLHUP)) != 0) {
                char chunk[65536];
                const ssize_t n =
                    ::read(slots[s].fd, chunk, sizeof(chunk));
                if (n > 0)
                    slots[s].buf.append(chunk,
                                        static_cast<std::size_t>(n));
                else if (n == 0 || (n < 0 && errno != EINTR))
                    eof = true;
            }
            if (eof) {
                finalize(slots[s]);
                // fds indices must track slots for this sweep.
                fds.erase(fds.begin() +
                          static_cast<std::ptrdiff_t>(s));
                slots.erase(slots.begin() +
                            static_cast<std::ptrdiff_t>(s));
            } else {
                ++s;
            }
        }

        // Enforce deadlines: SIGKILL, then let EOF classify as hang.
        now = nowMs();
        for (Slot &slot : slots) {
            if (!slot.deadlineKilled && now >= slot.deadlineMs) {
                slot.deadlineKilled = true;
                ::kill(slot.pid, SIGKILL);
            }
        }
    }
}

SupervisorReport
Supervisor::run(const std::vector<RunSpec> &specs)
{
    SupervisorReport report;
    report.runs.resize(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const std::uint64_t hash = specHash(specs[i]);
        resumeHit(specs[i], hash, report.runs[i]);
    }
    if (config_.isolation == Isolation::Process)
        runForked(specs, report);
    else
        runThreaded(specs, report);
    for (const SupervisedRun &run : report.runs) {
        switch (run.outcome) {
          case SupervisedRun::Outcome::FromJournal:
            ++report.fromJournal;
            break;
          case SupervisedRun::Outcome::Done:
            ++report.executed;
            report.retries += run.attempts - 1;
            break;
          case SupervisedRun::Outcome::Failed:
            ++report.executed;
            ++report.failed;
            report.retries += run.attempts - 1;
            break;
        }
    }
    return report;
}

} // namespace sam
