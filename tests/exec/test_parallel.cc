/** @file Tests for the deterministic parallel executor. */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/parallel.hh"
#include "util/error.hh"
#include "util/random.hh"

namespace tts {
namespace exec {
namespace {

TEST(Parallel, DefaultThreadCountHonorsEnv)
{
    ::setenv("TTS_THREADS", "3", 1);
    EXPECT_EQ(defaultThreadCount(), 3u);
    ::setenv("TTS_THREADS", "not-a-number", 1);
    EXPECT_EQ(defaultThreadCount(), hardwareThreads());
    ::setenv("TTS_THREADS", "0", 1);
    EXPECT_EQ(defaultThreadCount(), hardwareThreads());
    ::unsetenv("TTS_THREADS");
    EXPECT_EQ(defaultThreadCount(), hardwareThreads());
}

TEST(Parallel, RejectsZeroThreads)
{
    EXPECT_THROW(ThreadPool(0), FatalError);
    EXPECT_THROW(setGlobalThreads(0), FatalError);
}

TEST(Parallel, EveryIndexRunsExactlyOnce)
{
    for (std::size_t threads : {1u, 2u, 4u, 8u}) {
        ThreadPool pool(threads);
        const std::size_t n = 100;
        std::vector<std::atomic<int>> hits(n);
        pool.forIndex(n, [&](std::size_t i) { ++hits[i]; });
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(Parallel, MapPreservesInputOrdering)
{
    std::vector<int> items(64);
    std::iota(items.begin(), items.end(), 0);
    for (std::size_t threads : {1u, 5u}) {
        ThreadPool pool(threads);
        auto out = pool.map(items, [](int x) { return 3 * x + 1; });
        ASSERT_EQ(out.size(), items.size());
        for (std::size_t i = 0; i < out.size(); ++i)
            EXPECT_EQ(out[i], 3 * static_cast<int>(i) + 1);
    }
}

TEST(Parallel, SerialAndParallelResultsAreIdentical)
{
    // Per-task RNG streams: the values drawn depend only on the task
    // index, so every thread count produces bit-identical output.
    auto run = [](std::size_t threads) {
        ThreadPool pool(threads);
        std::vector<double> out(40);
        pool.forIndex(out.size(), [&](std::size_t i) {
            Rng rng = Rng::forStream(1234, i);
            double acc = 0.0;
            for (int k = 0; k < 100; ++k)
                acc += rng.normal();
            out[i] = acc;
        });
        return out;
    };
    auto serial = run(1);
    for (std::size_t threads : {2u, 4u, 8u})
        EXPECT_EQ(serial, run(threads)) << threads << " threads";
}

TEST(Parallel, PropagatesLowestIndexException)
{
    ThreadPool pool(4);
    try {
        pool.forIndex(32, [&](std::size_t i) {
            if (i % 7 == 3)  // Throws at 3, 10, 17, 24, 31.
                throw std::runtime_error(
                    "task " + std::to_string(i));
        });
        FAIL() << "forIndex swallowed the exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "task 3");
    }
}

TEST(Parallel, SerialFallbackStopsAtFirstThrow)
{
    ThreadPool pool(1);
    std::vector<int> ran;
    EXPECT_THROW(pool.forIndex(10,
                               [&](std::size_t i) {
                                   ran.push_back(
                                       static_cast<int>(i));
                                   if (i == 2)
                                       throw std::runtime_error("x");
                               }),
                 std::runtime_error);
    EXPECT_EQ(ran, (std::vector<int>{0, 1, 2}));
}

TEST(Parallel, NestedRegionsRunSerially)
{
    // An inner region inside a task must not recruit more threads
    // (no oversubscription, no deadlock) and must keep the inner
    // serial ordering.
    ThreadPool pool(4);
    std::vector<std::vector<int>> inner_order(8);
    pool.forIndex(8, [&](std::size_t i) {
        pool.forIndex(5, [&](std::size_t j) {
            inner_order[i].push_back(static_cast<int>(j));
        });
    });
    for (const auto &order : inner_order)
        EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Parallel, EmptyAndSingletonRegions)
{
    ThreadPool pool(4);
    int calls = 0;
    pool.forIndex(0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    pool.forIndex(1, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 1);
    EXPECT_TRUE(pool.map(std::vector<int>{},
                         [](int x) { return x; }).empty());
}

TEST(Parallel, GlobalPoolResizes)
{
    std::size_t before = globalPool().threadCount();
    setGlobalThreads(2);
    EXPECT_EQ(globalPool().threadCount(), 2u);
    std::vector<int> items{1, 2, 3};
    auto out = parallel_map(items, [](int x) { return x * x; });
    EXPECT_EQ(out, (std::vector<int>{1, 4, 9}));
    setGlobalThreads(before);
}

TEST(Parallel, ManyBackToBackRegionsOnOnePool)
{
    // The 2-day fleet run opens thousands of short regions on the
    // same parked workers; every one must see exactly its own work.
    ThreadPool pool(4);
    std::vector<std::size_t> out(8);
    for (std::size_t r = 0; r < 10000; ++r) {
        pool.forIndex(out.size(),
                      [&](std::size_t i) { out[i] = r * 8 + i; });
        for (std::size_t i = 0; i < out.size(); ++i)
            ASSERT_EQ(out[i], r * 8 + i) << "region " << r;
    }
    EXPECT_EQ(pool.workerCount(), 3u);
}

TEST(Parallel, PoolStaysUsableAfterAnException)
{
    ThreadPool pool(4);
    EXPECT_THROW(pool.forIndex(16,
                               [](std::size_t i) {
                                   if (i == 5)
                                       throw std::runtime_error("x");
                               }),
                 std::runtime_error);
    std::vector<std::atomic<int>> hits(16);
    pool.forIndex(hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(Parallel, ConcurrentCallersOnOnePoolAllFinish)
{
    // The serve daemon's workers share globalPool(): callers that
    // find it busy run their region inline instead of waiting, so
    // nobody deadlocks and every region computes its own answer.
    ThreadPool pool(4);
    constexpr std::size_t kCallers = 4;
    constexpr std::size_t kRegions = 200;
    std::vector<std::size_t> bad(kCallers, 0);
    std::vector<std::thread> callers;
    for (std::size_t c = 0; c < kCallers; ++c) {
        callers.emplace_back([&, c] {
            std::vector<std::size_t> out(16);
            for (std::size_t r = 0; r < kRegions; ++r) {
                pool.forIndex(out.size(), [&](std::size_t i) {
                    out[i] = (c * kRegions + r) * 16 + i;
                });
                for (std::size_t i = 0; i < out.size(); ++i)
                    if (out[i] != (c * kRegions + r) * 16 + i)
                        ++bad[c];
            }
        });
    }
    for (std::thread &t : callers)
        t.join();
    for (std::size_t c = 0; c < kCallers; ++c)
        EXPECT_EQ(bad[c], 0u) << "caller " << c;
}

TEST(Parallel, UnusedPoolStartsNoThread)
{
    {
        ThreadPool pool(8);
        EXPECT_EQ(pool.workerCount(), 0u);
    }
    // Workers start on demand: a 3-task region needs two helpers.
    ThreadPool pool(8);
    pool.forIndex(3, [](std::size_t) {});
    EXPECT_EQ(pool.workerCount(), 2u);
    pool.forIndex(1, [](std::size_t) {});  // Serial: no new worker.
    EXPECT_EQ(pool.workerCount(), 2u);
    EXPECT_EQ(ThreadPool(1).workerCount(), 0u);
}

namespace {

/** Counts worker threads that have exited (thread_local dtors). */
std::atomic<int> g_exited{0};

struct ExitProbe
{
    bool armed = false;
    ~ExitProbe()
    {
        if (armed)
            ++g_exited;
    }
};

} // namespace

TEST(Parallel, WorkersOutliveRegionsAndJoinOnDestruction)
{
    g_exited = 0;
    std::thread::id caller = std::this_thread::get_id();
    {
        ThreadPool pool(4);
        // Four tasks that each wait for all four to be running put
        // one task on each of the caller and its three workers.
        std::atomic<int> running{0};
        pool.forIndex(4, [&](std::size_t) {
            ++running;
            auto until = std::chrono::steady_clock::now() +
                std::chrono::seconds(10);
            while (running.load() < 4 &&
                   std::chrono::steady_clock::now() < until)
                std::this_thread::yield();
            if (std::this_thread::get_id() != caller) {
                thread_local ExitProbe probe;
                probe.armed = true;
            }
        });
        ASSERT_EQ(running.load(), 4);
        EXPECT_EQ(pool.workerCount(), 3u);
        // Parked, not exited.
        EXPECT_EQ(g_exited.load(), 0);
    }
    // The destructor joined all three.
    EXPECT_EQ(g_exited.load(), 3);
}

TEST(Parallel, GlobalPoolResizesWhileWorkersParked)
{
    std::size_t before = globalPool().threadCount();
    setGlobalThreads(4);
    std::vector<int> items(8);
    std::iota(items.begin(), items.end(), 0);
    auto square = [](int x) { return x * x; };
    auto expect = globalPool().map(items, square);
    EXPECT_EQ(globalPool().workerCount(), 3u);
    // Same width: the parked workers stay.
    setGlobalThreads(4);
    EXPECT_EQ(globalPool().workerCount(), 3u);
    // New width: the old workers are joined, new ones start lazily.
    setGlobalThreads(2);
    EXPECT_EQ(globalPool().threadCount(), 2u);
    EXPECT_EQ(globalPool().workerCount(), 0u);
    EXPECT_EQ(parallel_map(items, square), expect);
    EXPECT_EQ(globalPool().workerCount(), 1u);
    setGlobalThreads(1);
    EXPECT_EQ(parallel_map(items, square), expect);
    setGlobalThreads(before);
}

TEST(Parallel, RngStreamsAreDecorrelatedAndStable)
{
    // Distinct streams of one seed produce distinct sequences;
    // the same (seed, stream) pair is reproducible.
    std::set<std::uint64_t> firsts;
    for (std::uint64_t s = 0; s < 64; ++s) {
        Rng a = Rng::forStream(42, s);
        Rng b = Rng::forStream(42, s);
        std::uint64_t v = a.next();
        EXPECT_EQ(v, b.next());
        firsts.insert(v);
    }
    EXPECT_EQ(firsts.size(), 64u);
    // A stream differs from the plain generator with the same seed.
    EXPECT_NE(Rng::forStream(42, 0).next(), Rng(42).next());
}

} // namespace
} // namespace exec
} // namespace tts
