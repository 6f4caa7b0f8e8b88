/**
 * @file
 * Tests for the parallel campaign runner: the work-stealing thread
 * pool, the Supervisor's thread mode (campaign determinism across jobs
 * counts, materialized-table sharing through the TableCache), and the
 * JSON writer.
 */

#include <atomic>
#include <cstring>
#include <gtest/gtest.h>
#include <set>
#include <stdexcept>
#include <string>

#include "src/common/json.hh"
#include "src/core/session.hh"
#include "src/common/thread_pool.hh"
#include "src/runner/supervisor.hh"

namespace sam {
namespace {

// ----- ThreadPool ----------------------------------------------------

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.workers(), 4u);

    constexpr int kTasks = 100;
    std::vector<std::atomic<int>> hits(kTasks);
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < kTasks; ++i)
        tasks.push_back([&hits, i] { ++hits[i]; });
    pool.run(std::move(tasks));
    for (int i = 0; i < kTasks; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "task " << i;
}

TEST(ThreadPoolTest, ReusableAcrossBatches)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    for (int batch = 0; batch < 5; ++batch) {
        std::vector<std::function<void()>> tasks;
        for (int i = 0; i < 7; ++i)
            tasks.push_back([&count] { ++count; });
        pool.run(std::move(tasks));
    }
    EXPECT_EQ(count.load(), 35);
}

TEST(ThreadPoolTest, EmptyBatchIsANoOp)
{
    ThreadPool pool(2);
    pool.run({});
}

TEST(ThreadPoolTest, RethrowsFirstTaskError)
{
    ThreadPool pool(3);
    std::atomic<int> completed{0};
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 10; ++i) {
        tasks.push_back([&completed, i] {
            if (i == 4)
                throw std::runtime_error("task 4 failed");
            ++completed;
        });
    }
    EXPECT_THROW(pool.run(std::move(tasks)), std::runtime_error);
    // The failing task doesn't cancel its siblings.
    EXPECT_EQ(completed.load(), 9);

    // The pool recovers after an error: the next batch runs clean.
    std::atomic<int> after{0};
    std::vector<std::function<void()>> next;
    for (int i = 0; i < 4; ++i)
        next.push_back([&after] { ++after; });
    pool.run(std::move(next));
    EXPECT_EQ(after.load(), 4);
}

/**
 * Several workers throwing inside the same batch epoch must surface as
 * exactly one exception: the first failure wins, the rest are dropped,
 * and the pool drains the whole batch before rethrowing (no sibling
 * cancellation, no terminate from a second in-flight exception).
 */
TEST(ThreadPoolTest, MultipleThrowersInOneEpochSurfaceOneError)
{
    ThreadPool pool(4);
    std::atomic<int> completed{0};
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 24; ++i) {
        tasks.push_back([&completed, i] {
            if (i % 3 == 0)
                throw std::runtime_error("task " + std::to_string(i) +
                                         " failed");
            ++completed;
        });
    }
    try {
        pool.run(std::move(tasks));
        FAIL() << "expected the batch to rethrow";
    } catch (const std::runtime_error &e) {
        // One of the 8 throwers, verbatim; which one is a scheduling
        // race, but it must be a single intact message.
        const std::string what = e.what();
        EXPECT_EQ(what.rfind("task ", 0), 0u) << what;
        EXPECT_NE(what.find(" failed"), std::string::npos) << what;
    }
    // Every non-throwing sibling still ran to completion.
    EXPECT_EQ(completed.load(), 16);

    // The pool is reusable after a multi-failure epoch.
    std::atomic<int> after{0};
    std::vector<std::function<void()>> next;
    for (int i = 0; i < 6; ++i)
        next.push_back([&after] { ++after; });
    pool.run(std::move(next));
    EXPECT_EQ(after.load(), 6);
}

/**
 * With one worker the batch executes in order, so "first error" is
 * deterministic: the lowest-index thrower's message must be the one
 * rethrown even when later tasks also throw.
 */
TEST(ThreadPoolTest, SingleWorkerFirstErrorIsDeterministic)
{
    ThreadPool pool(1);
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 8; ++i) {
        tasks.push_back([i] {
            if (i >= 2)
                throw std::runtime_error("task " + std::to_string(i));
        });
    }
    try {
        pool.run(std::move(tasks));
        FAIL() << "expected the batch to rethrow";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "task 2");
    }
}

TEST(ThreadPoolTest, DefaultsToHostWorkers)
{
    ThreadPool pool;
    EXPECT_GE(pool.workers(), 1u);
    EXPECT_EQ(pool.workers(), ThreadPool::defaultWorkers());
}

// ----- Supervisor thread mode -----------------------------------------

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
        for (std::size_t qi = 0; qi < 4; ++qi) {
            const Query &q = queries[qi];
            specs.push_back(RunSpec{designName(d) + "/" + q.name,
                                    tinyConfig(d), q,
                                    /*verify=*/true});
        }
    }
    return specs;
}

/** A thread-mode Supervisor on `jobs` workers, one attempt per run. */
SupervisorConfig
threadMode(unsigned jobs)
{
    SupervisorConfig cfg;
    cfg.jobs = jobs;
    cfg.maxAttempts = 1;
    return cfg;
}

TEST(SupervisorThreadModeTest, ResultsComeBackInSpecOrder)
{
    Supervisor supervisor(threadMode(4));
    const auto specs = tinySpecs();
    const SupervisorReport report = supervisor.run(specs);
    ASSERT_TRUE(report.allDone());
    ASSERT_EQ(report.runs.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const RunResult &result = report.runs[i].result;
        EXPECT_EQ(result.id, specs[i].id);
        EXPECT_EQ(result.design, specs[i].config.design);
        EXPECT_EQ(result.query, specs[i].query.name);
        EXPECT_GT(result.stats.cycles, 0u);
        EXPECT_GE(result.wallMs, 0.0);
    }
}

/**
 * The determinism contract of the campaign runner: identical specs
 * produce bit-identical RunStats (cycles, counters, the full gem5-style
 * stats dump, and the functional result) no matter how many workers
 * execute them. This is what makes committed BENCH_*.json baselines
 * comparable across machines and jobs counts.
 */
TEST(SupervisorThreadModeTest, BitIdenticalAcrossJobsCounts)
{
    const auto specs = tinySpecs();
    Supervisor serial(threadMode(1));
    Supervisor wide(threadMode(8));
    const SupervisorReport ra = serial.run(specs);
    const SupervisorReport rb = wide.run(specs);
    ASSERT_TRUE(ra.allDone());
    ASSERT_TRUE(rb.allDone());
    ASSERT_EQ(ra.runs.size(), rb.runs.size());
    for (std::size_t i = 0; i < ra.runs.size(); ++i) {
        const RunResult &a = ra.runs[i].result;
        const RunResult &b = rb.runs[i].result;
        SCOPED_TRACE(a.id);
        EXPECT_EQ(a.stats.cycles, b.stats.cycles);
        EXPECT_EQ(a.stats.result, b.stats.result);
        EXPECT_EQ(a.stats.statsText, b.stats.statsText);
        EXPECT_EQ(a.stats.memReads, b.stats.memReads);
        EXPECT_EQ(a.stats.memWrites, b.stats.memWrites);
        EXPECT_EQ(a.stats.strideReads, b.stats.strideReads);
        EXPECT_EQ(a.stats.activates, b.stats.activates);
        EXPECT_EQ(a.stats.rowHits, b.stats.rowHits);
        EXPECT_EQ(a.stats.rowMisses, b.stats.rowMisses);
        EXPECT_EQ(a.stats.eccCorrectedLines, b.stats.eccCorrectedLines);
        EXPECT_DOUBLE_EQ(a.stats.power.totalEnergyPj(),
                         b.stats.power.totalEnergyPj());
    }
}

TEST(SupervisorThreadModeTest, RepeatedRunsShareTheTableCache)
{
    Supervisor supervisor(threadMode(2));
    const auto specs = tinySpecs();
    supervisor.run(specs);
    const auto &cache = supervisor.tableCache();
    const std::uint64_t misses_first = cache->misses();
    EXPECT_GT(misses_first, 0u);
    // A second pass over the same specs re-encodes nothing.
    supervisor.run(specs);
    EXPECT_EQ(cache->misses(), misses_first);
    EXPECT_GT(cache->hits(), 0u);
}

// ----- Session table sharing ----------------------------------------

TEST(SessionTest, SecondDesignReusesMaterializedTables)
{
    const SimConfig cfg = tinyConfig(DesignKind::Baseline);
    Session session(cfg);
    const auto &cache = session.tableCache();
    ASSERT_NE(cache, nullptr);

    // Qs1 is row-preferred, so the ideal design picks the row-store
    // layout and shares Baseline's table snapshot.
    const Query q = benchmarkQsQueries()[0];
    const RunStats first = session.run(DesignKind::Baseline, q);
    session.checkResult(q, first);
    const std::uint64_t misses_after_first = cache->misses();
    EXPECT_GT(misses_after_first, 0u);

    // The second design's system must install the already-encoded
    // snapshot instead of re-materializing, and still compute the
    // correct functional result.
    const RunStats second = session.run(DesignKind::Ideal, q);
    session.checkResult(q, second);
    EXPECT_EQ(cache->misses(), misses_after_first);
    EXPECT_GT(cache->hits(), 0u);
    EXPECT_EQ(first.result, second.result);
}

TEST(SessionTest, SessionsSharingACacheEncodeOnce)
{
    auto cache = std::make_shared<TableCache>();
    const SimConfig cfg = tinyConfig(DesignKind::SamEn);
    const Query q = benchmarkQQueries()[0];

    Session first(cfg, cache);
    const RunStats a = first.run(DesignKind::SamEn, q);
    first.checkResult(q, a);
    const std::uint64_t misses = cache->misses();

    Session second(cfg, cache);
    const RunStats b = second.run(DesignKind::SamEn, q);
    second.checkResult(q, b);
    EXPECT_EQ(cache->misses(), misses);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.statsText, b.statsText);
}

TEST(TableCacheTest, ColdBuildBytesIdenticalAtAnyThreadCount)
{
    // Large enough (>= 2^14 record lines total) that the 8-thread
    // cache takes the parallel encode path rather than the small-build
    // serial fallback; the snapshots must still match the serial build
    // bit for bit. With padding elided the arena alone does not
    // identify the content, so every slot's blob is compared.
    const Geometry geom;
    const TableSchema sa{"Ta", 16, 8192};  // 1 MiB of records
    const TableSchema sb{"Tb", 8, 4096};   // 256 KiB of records
    for (LayoutKind layout :
         {LayoutKind::SamAligned, LayoutKind::VerticalGroup,
          LayoutKind::ColumnStore}) {
        const Table ta(sa, Addr{1} << 30, layout, 8, geom);
        const Table tb(sb, Addr{2} << 30, layout, 8, geom);

        TableCache serial(1);
        TableCache parallel(8);
        const auto a = serial.materialized(ta, tb, EccScheme::SscDsd);
        const auto b = parallel.materialized(ta, tb, EccScheme::SscDsd);

        const std::string name = layoutName(layout);
        ASSERT_EQ(a->size(), b->size()) << name;
        EXPECT_EQ(a->blobBytes, b->blobBytes) << name;
        EXPECT_EQ(a->addrs, b->addrs) << name;
        EXPECT_EQ(a->arena, b->arena) << name;
        for (std::size_t slot = 0; slot < a->size(); ++slot) {
            ASSERT_EQ(std::memcmp(a->blob(slot), b->blob(slot),
                                  a->blobBytes),
                      0)
                << name << " slot " << slot;
        }
    }
}

// ----- Json ----------------------------------------------------------

TEST(JsonTest, SerializesScalarsAndContainers)
{
    Json doc = Json::object();
    doc.set("name", "fig12");
    doc.set("jobs", 8u);
    doc.set("speedup", 4.25);
    doc.set("quick", true);
    doc.set("note", Json());
    Json arr = Json::array();
    arr.push(std::uint64_t{1234567890123456789ull});
    arr.push(-7);
    doc.set("runs", std::move(arr));

    EXPECT_EQ(doc.dump(0),
              "{\"name\":\"fig12\",\"jobs\":8,\"speedup\":4.25,"
              "\"quick\":true,\"note\":null,"
              "\"runs\":[1234567890123456789,-7]}");
}

TEST(JsonTest, EscapesStringsAndKeepsInsertionOrder)
{
    Json doc = Json::object();
    doc.set("b", "quote \" slash \\ nl \n tab \t");
    doc.set("a", 1);
    doc.set("b", "replaced"); // overwrite keeps the original slot
    EXPECT_EQ(doc.dump(0), "{\"b\":\"replaced\",\"a\":1}");

    Json esc = Json::object();
    esc.set("s", "a\"b\\c\nd");
    EXPECT_EQ(esc.dump(0), "{\"s\":\"a\\\"b\\\\c\\nd\"}");
}

TEST(JsonTest, DoublesRoundTripCompactly)
{
    Json v(0.1);
    EXPECT_EQ(v.dump(0), "0.1");
    Json third(1.0 / 3.0);
    double back = 0.0;
    std::sscanf(third.dump(0).c_str(), "%lf", &back);
    EXPECT_DOUBLE_EQ(back, 1.0 / 3.0);
}

TEST(JsonTest, RunResultJsonCarriesTheRunCounters)
{
    RunResult r;
    r.id = "SAM-en/Q1";
    r.design = DesignKind::SamEn;
    r.query = "Q1";
    r.stats.cycles = 42;
    r.stats.memReads = 7;
    r.wallMs = 1.5;
    const std::string text = runResultJson(r).dump(0);
    EXPECT_NE(text.find("\"id\":\"SAM-en/Q1\""), std::string::npos);
    EXPECT_NE(text.find("\"cycles\":42"), std::string::npos);
    EXPECT_NE(text.find("\"mem_reads\":7"), std::string::npos);
    EXPECT_NE(text.find("\"wall_ms\":1.5"), std::string::npos);
}

} // namespace
} // namespace sam
