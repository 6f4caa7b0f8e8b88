/**
 * @file
 * Tests for supervised campaign execution: bounded retries,
 * chaos-spec parsing and scheduling, thread- and process-isolation
 * execution, failure classification (crash / hang / error / corrupt),
 * and journal-backed resume through the Supervisor.
 */

#include <cstdio>
#include <gtest/gtest.h>

#include <unistd.h>

#include "src/core/session.hh"
#include "src/runner/supervisor.hh"

namespace sam {
namespace {

std::string
scratchPath(const char *tag)
{
    static int counter = 0;
    return std::string("supervisor_test_") + tag + "_" +
           std::to_string(::getpid()) + "_" +
           std::to_string(counter++) + ".tmp.jsonl";
}

struct FileGuard
{
    std::string path;
    ~FileGuard() { std::remove(path.c_str()); }
};

SimConfig
tinyConfig(DesignKind design)
{
    SimConfig cfg;
    cfg.design = design;
    cfg.taRecords = 256;
    cfg.tbRecords = 256;
    return cfg;
}

std::vector<RunSpec>
tinySpecs()
{
    std::vector<RunSpec> specs;
    const auto queries = benchmarkQQueries();
    for (DesignKind d :
         {DesignKind::Baseline, DesignKind::SamEn, DesignKind::SamIo}) {
        for (std::size_t qi = 0; qi < 3; ++qi) {
            const Query &q = queries[qi];
            specs.push_back(RunSpec{designName(d) + "/" + q.name,
                                    tinyConfig(d), q,
                                    /*verify=*/false});
        }
    }
    return specs;
}

/** A spec whose execution always panics (field out of range). */
RunSpec
poisonSpec()
{
    Query q = benchmarkQQueries()[0];
    q.name = "poison";
    q.fields = {9999};
    return RunSpec{"poison", tinyConfig(DesignKind::SamEn), q, false};
}

// ----- chaos spec parsing -------------------------------------------

TEST(ChaosSpecTest, ParsesTheDocumentedGrammar)
{
    ChaosConfig cfg;
    std::string error;
    ASSERT_TRUE(parseChaosSpec("seed=7,die@5", cfg, error)) << error;
    EXPECT_EQ(cfg.seed, 7u);
    ASSERT_EQ(cfg.launchPoints.size(), 1u);
    EXPECT_EQ(cfg.launchPoints[0].first, 5u);
    EXPECT_EQ(cfg.launchPoints[0].second, ChaosFault::Die);

    ASSERT_TRUE(parseChaosSpec("kill%25,hang@spec:0,corrupt@3,slow%10",
                               cfg, error))
        << error;
    EXPECT_EQ(cfg.percent.size(), 2u);
    ASSERT_EQ(cfg.specPoints.size(), 1u);
    EXPECT_EQ(cfg.specPoints[0].second, ChaosFault::Hang);
    ASSERT_EQ(cfg.launchPoints.size(), 1u);
    EXPECT_EQ(cfg.launchPoints[0].second, ChaosFault::Corrupt);
    EXPECT_TRUE(cfg.enabled());
}

TEST(ChaosSpecTest, RejectsGarbage)
{
    ChaosConfig cfg;
    std::string error;
    EXPECT_FALSE(parseChaosSpec("banana", cfg, error));
    EXPECT_NE(error.find("banana"), std::string::npos) << error;
    EXPECT_FALSE(parseChaosSpec("explode@3", cfg, error));
    EXPECT_FALSE(parseChaosSpec("kill@0", cfg, error));
    EXPECT_FALSE(parseChaosSpec("kill%0", cfg, error));
    EXPECT_FALSE(parseChaosSpec("kill%101", cfg, error));
    EXPECT_FALSE(parseChaosSpec("kill@spec:x", cfg, error));
    EXPECT_FALSE(parseChaosSpec("seed=12", cfg, error))
        << "a seed alone injects nothing";
    EXPECT_FALSE(parseChaosSpec("", cfg, error));
    EXPECT_FALSE(parseChaosSpec("kill@1,,die@2", cfg, error));
}

TEST(ChaosEngineTest, ScheduleIsDeterministic)
{
    ChaosConfig cfg;
    std::string error;
    ASSERT_TRUE(parseChaosSpec("seed=9,kill%30,slow%20", cfg, error))
        << error;
    ChaosEngine a(cfg);
    ChaosEngine b(cfg);
    unsigned faults = 0;
    for (std::size_t launch = 0; launch < 200; ++launch) {
        const ChaosPlan pa = a.nextLaunch(launch % 12);
        const ChaosPlan pb = b.nextLaunch(launch % 12);
        EXPECT_EQ(pa.fault, pb.fault);
        EXPECT_EQ(pa.point, pb.point);
        EXPECT_EQ(pa.delayMs, pb.delayMs);
        if (pa.fault != ChaosFault::None)
            ++faults;
    }
    // ~50% of 200 launches; wide margins, deterministic either way.
    EXPECT_GT(faults, 50u);
    EXPECT_LT(faults, 150u);
    EXPECT_EQ(a.launches(), 200u);
}

TEST(ChaosEngineTest, LaunchAndSpecPointsFire)
{
    ChaosConfig cfg;
    std::string error;
    ASSERT_TRUE(parseChaosSpec("die@3,corrupt@spec:1", cfg, error))
        << error;
    ChaosEngine engine(cfg);
    EXPECT_EQ(engine.nextLaunch(0).fault, ChaosFault::None);
    EXPECT_EQ(engine.nextLaunch(1).fault, ChaosFault::Corrupt);
    EXPECT_EQ(engine.nextLaunch(0).fault, ChaosFault::Die);
    EXPECT_EQ(engine.nextLaunch(1).fault, ChaosFault::Corrupt)
        << "spec points fire on every attempt";
}

// ----- Supervisor: thread isolation ---------------------------------

TEST(SupervisorTest, ThreadModeMatchesFreshSessions)
{
    const auto specs = tinySpecs();
    std::vector<RunStats> expect;
    for (const RunSpec &spec : specs) {
        Session session(spec.config);
        expect.push_back(session.run(spec.config.design, spec.query));
    }

    SupervisorConfig cfg;
    cfg.isolation = Isolation::Thread;
    cfg.jobs = 2;
    Supervisor supervisor(cfg);
    const SupervisorReport report = supervisor.run(specs);

    ASSERT_EQ(report.runs.size(), specs.size());
    EXPECT_TRUE(report.allDone());
    EXPECT_EQ(report.executed, specs.size());
    EXPECT_EQ(report.fromJournal, 0u);
    EXPECT_EQ(report.retries, 0u);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE(specs[i].id);
        const SupervisedRun &run = report.runs[i];
        EXPECT_EQ(run.outcome, SupervisedRun::Outcome::Done);
        EXPECT_EQ(run.attempts, 1u);
        EXPECT_EQ(run.result.id, specs[i].id);
        EXPECT_EQ(run.result.stats.cycles, expect[i].cycles);
        EXPECT_EQ(run.result.stats.result.checksum,
                  expect[i].result.checksum);
        // The record the BENCH file would carry matches the direct
        // run (wall time aside, which is measured anew).
        EXPECT_EQ(run.record.find("cycles")->asU64(), expect[i].cycles);
    }
}

TEST(SupervisorTest, ThreadModeRetriesThenFails)
{
    std::vector<RunSpec> specs = tinySpecs();
    specs.insert(specs.begin() + 2, poisonSpec());

    SupervisorConfig cfg;
    cfg.isolation = Isolation::Thread;
    cfg.jobs = 2;
    cfg.maxAttempts = 3;
    Supervisor supervisor(cfg);
    const SupervisorReport report = supervisor.run(specs);

    EXPECT_FALSE(report.allDone());
    EXPECT_EQ(report.failed, 1u);
    EXPECT_EQ(report.retries, 2u);
    const SupervisedRun &bad = report.runs[2];
    EXPECT_EQ(bad.outcome, SupervisedRun::Outcome::Failed);
    EXPECT_EQ(bad.failure, FailureKind::Error);
    EXPECT_EQ(bad.attempts, 3u);
    EXPECT_NE(bad.error.find("field out of range"),
              std::string::npos)
        << bad.error;
    // Every healthy sibling still completed.
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (i != 2) {
            EXPECT_TRUE(report.runs[i].succeeded()) << specs[i].id;
        }
    }
}

// ----- Supervisor: process isolation --------------------------------

TEST(SupervisorTest, ProcessModeMatchesThreadMode)
{
    const auto specs = tinySpecs();
    SupervisorConfig tcfg;
    tcfg.isolation = Isolation::Thread;
    tcfg.jobs = 2;
    Supervisor threaded(tcfg);
    const SupervisorReport expect = threaded.run(specs);

    SupervisorConfig pcfg;
    pcfg.isolation = Isolation::Process;
    pcfg.jobs = 2;
    Supervisor forked(pcfg);
    const SupervisorReport report = forked.run(specs);

    ASSERT_EQ(report.runs.size(), specs.size());
    EXPECT_TRUE(report.allDone());
    EXPECT_EQ(report.launches, specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE(specs[i].id);
        const RunStats &a = report.runs[i].result.stats;
        const RunStats &b = expect.runs[i].result.stats;
        EXPECT_EQ(a.cycles, b.cycles);
        EXPECT_EQ(a.memReads, b.memReads);
        EXPECT_EQ(a.activates, b.activates);
        EXPECT_EQ(a.result.rows, b.result.rows);
        EXPECT_EQ(a.result.checksum, b.result.checksum);
        EXPECT_DOUBLE_EQ(a.power.totalEnergyPj(),
                         b.power.totalEnergyPj());
        // Worker records round-trip the pipe byte-identically
        // (wall_ms and the throughput derived from it are measured in
        // the child, so drop both).
        Json a_rec = report.runs[i].record;
        Json b_rec = expect.runs[i].record;
        a_rec.set("wall_ms", 0.0);
        b_rec.set("wall_ms", 0.0);
        a_rec.set("throughput", 0.0);
        b_rec.set("throughput", 0.0);
        EXPECT_EQ(a_rec.dump(0), b_rec.dump(0));
    }
}

TEST(SupervisorTest, ClassifiesWorkerCrash)
{
    std::vector<RunSpec> specs = tinySpecs();
    SupervisorConfig cfg;
    cfg.isolation = Isolation::Process;
    cfg.jobs = 2;
    cfg.maxAttempts = 2;
    std::string error;
    ASSERT_TRUE(parseChaosSpec("seed=1,kill@spec:0", cfg.chaos, error))
        << error;
    Supervisor supervisor(cfg);
    const SupervisorReport report = supervisor.run(specs);

    EXPECT_EQ(report.failed, 1u);
    EXPECT_EQ(report.retries, 1u);
    const SupervisedRun &bad = report.runs[0];
    EXPECT_EQ(bad.failure, FailureKind::Crash);
    EXPECT_EQ(bad.attempts, 2u);
    EXPECT_NE(bad.error.find("signal"), std::string::npos)
        << bad.error;
    for (std::size_t i = 1; i < specs.size(); ++i)
        EXPECT_TRUE(report.runs[i].succeeded()) << specs[i].id;
}

TEST(SupervisorTest, ClassifiesCorruptResult)
{
    std::vector<RunSpec> specs = tinySpecs();
    SupervisorConfig cfg;
    cfg.isolation = Isolation::Process;
    cfg.jobs = 2;
    cfg.maxAttempts = 1;
    std::string error;
    ASSERT_TRUE(
        parseChaosSpec("seed=1,corrupt@spec:1", cfg.chaos, error))
        << error;
    Supervisor supervisor(cfg);
    const SupervisorReport report = supervisor.run(specs);

    EXPECT_EQ(report.failed, 1u);
    EXPECT_EQ(report.runs[1].failure, FailureKind::Corrupt);
    EXPECT_NE(report.runs[1].error.find("unparseable"),
              std::string::npos)
        << report.runs[1].error;
}

TEST(SupervisorTest, ClassifiesHangViaDeadline)
{
    std::vector<RunSpec> specs = tinySpecs();
    specs.resize(4);
    SupervisorConfig cfg;
    cfg.isolation = Isolation::Process;
    cfg.jobs = 2;
    cfg.timeoutMs = 300;
    cfg.maxAttempts = 1;
    std::string error;
    ASSERT_TRUE(parseChaosSpec("seed=1,hang@spec:0", cfg.chaos, error))
        << error;
    Supervisor supervisor(cfg);
    const SupervisorReport report = supervisor.run(specs);

    EXPECT_EQ(report.failed, 1u);
    EXPECT_EQ(report.runs[0].failure, FailureKind::Hang);
    EXPECT_NE(report.runs[0].error.find("deadline"), std::string::npos)
        << report.runs[0].error;
    for (std::size_t i = 1; i < specs.size(); ++i)
        EXPECT_TRUE(report.runs[i].succeeded()) << specs[i].id;
}

TEST(SupervisorTest, WorkerErrorsCarryTheMessage)
{
    std::vector<RunSpec> specs = {poisonSpec()};
    SupervisorConfig cfg;
    cfg.isolation = Isolation::Process;
    cfg.jobs = 1;
    cfg.maxAttempts = 1;
    Supervisor supervisor(cfg);
    const SupervisorReport report = supervisor.run(specs);

    EXPECT_EQ(report.failed, 1u);
    EXPECT_EQ(report.runs[0].failure, FailureKind::Error);
    EXPECT_NE(report.runs[0].error.find("field out of range"),
              std::string::npos)
        << report.runs[0].error;
}

// ----- Supervisor: journal + resume ---------------------------------

TEST(SupervisorTest, ResumeSkipsJournaledRunsBitIdentically)
{
    const auto specs = tinySpecs();
    FileGuard guard{scratchPath("resume")};
    JournalHeader header;
    header.campaign = "test";
    header.scale = "quick";

    SupervisorReport first;
    {
        CampaignJournal journal(guard.path, header, false);
        SupervisorConfig cfg;
        cfg.isolation = Isolation::Thread;
        cfg.jobs = 2;
        cfg.journal = &journal;
        Supervisor supervisor(cfg);
        first = supervisor.run(specs);
        ASSERT_TRUE(first.allDone());
    }

    JournalState prior;
    std::string error;
    ASSERT_TRUE(loadJournal(guard.path, prior, error)) << error;
    ASSERT_EQ(prior.entries.size(), specs.size());

    CampaignJournal journal(guard.path, header, /*resume=*/true);
    SupervisorConfig cfg;
    cfg.isolation = Isolation::Thread;
    cfg.jobs = 2;
    cfg.journal = &journal;
    cfg.resume = &prior;
    Supervisor supervisor(cfg);
    const SupervisorReport report = supervisor.run(specs);

    EXPECT_EQ(report.fromJournal, specs.size());
    EXPECT_EQ(report.executed, 0u);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE(specs[i].id);
        const SupervisedRun &run = report.runs[i];
        EXPECT_EQ(run.outcome, SupervisedRun::Outcome::FromJournal);
        // The record is the first run's, verbatim -- including its
        // wall_ms. This is the resume bit-identity contract.
        EXPECT_EQ(run.record.dump(0), first.runs[i].record.dump(0));
        EXPECT_EQ(run.result.stats.cycles,
                  first.runs[i].result.stats.cycles);
    }
}

TEST(SupervisorTest, StaleHashForcesReRun)
{
    std::vector<RunSpec> specs = tinySpecs();
    specs.resize(3);
    FileGuard guard{scratchPath("stale")};
    JournalHeader header;
    header.campaign = "test";
    header.scale = "quick";
    {
        CampaignJournal journal(guard.path, header, false);
        SupervisorConfig cfg;
        cfg.isolation = Isolation::Thread;
        cfg.jobs = 1;
        cfg.journal = &journal;
        Supervisor supervisor(cfg);
        ASSERT_TRUE(supervisor.run(specs).allDone());
    }
    JournalState prior;
    std::string error;
    ASSERT_TRUE(loadJournal(guard.path, prior, error)) << error;

    // Same id, different result-determining config: the journal entry
    // is stale for this spec and must not be trusted.
    specs[1].config.taRecords = 512;
    CampaignJournal journal(guard.path, header, true);
    SupervisorConfig cfg;
    cfg.isolation = Isolation::Thread;
    cfg.jobs = 1;
    cfg.journal = &journal;
    cfg.resume = &prior;
    Supervisor supervisor(cfg);
    const SupervisorReport report = supervisor.run(specs);

    EXPECT_EQ(report.fromJournal, 2u);
    EXPECT_EQ(report.executed, 1u);
    EXPECT_EQ(report.runs[1].outcome, SupervisedRun::Outcome::Done);
}

TEST(SupervisorTest, FailedEntriesAreRetriedOnResume)
{
    std::vector<RunSpec> specs = tinySpecs();
    specs.resize(3);
    FileGuard guard{scratchPath("refail")};
    JournalHeader header;
    header.campaign = "test";
    header.scale = "quick";
    {
        // First pass: spec 0 is chaos-killed into FAILED.
        CampaignJournal journal(guard.path, header, false);
        SupervisorConfig cfg;
        cfg.isolation = Isolation::Process;
        cfg.jobs = 2;
        cfg.maxAttempts = 1;
        cfg.journal = &journal;
        std::string error;
        ASSERT_TRUE(
            parseChaosSpec("seed=1,kill@spec:0", cfg.chaos, error))
            << error;
        Supervisor supervisor(cfg);
        const SupervisorReport report = supervisor.run(specs);
        ASSERT_EQ(report.failed, 1u);
    }
    JournalState prior;
    std::string error;
    ASSERT_TRUE(loadJournal(guard.path, prior, error)) << error;
    EXPECT_FALSE(prior.entries.at(specs[0].id).completed);

    // Resume without chaos: the failed spec re-runs and succeeds;
    // the done entries are honored.
    CampaignJournal journal(guard.path, header, true);
    SupervisorConfig cfg;
    cfg.isolation = Isolation::Process;
    cfg.jobs = 2;
    cfg.journal = &journal;
    cfg.resume = &prior;
    Supervisor supervisor(cfg);
    const SupervisorReport report = supervisor.run(specs);

    EXPECT_TRUE(report.allDone());
    EXPECT_EQ(report.executed, 1u);
    EXPECT_EQ(report.fromJournal, 2u);

    // And the journal now replays fully done.
    JournalState after;
    ASSERT_TRUE(loadJournal(guard.path, after, error)) << error;
    EXPECT_TRUE(after.entries.at(specs[0].id).completed);
}

} // namespace
} // namespace sam
