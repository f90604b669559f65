#include "exec/parallel.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>

#include "obs/obs.hh"
#include "util/error.hh"

namespace tts {
namespace exec {

namespace {

/** True while the current thread is executing a region task. */
thread_local bool tl_in_region = false;

} // namespace

std::size_t
hardwareThreads()
{
    unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<std::size_t>(n);
}

std::size_t
defaultThreadCount()
{
    const char *env = std::getenv("TTS_THREADS");
    if (env && *env) {
        char *end = nullptr;
        long v = std::strtol(env, &end, 10);
        if (end && *end == '\0' && v >= 1)
            return static_cast<std::size_t>(v);
    }
    return hardwareThreads();
}

namespace {

/**
 * One region's shared state.  It lives on the launching thread's
 * stack; a worker reaches it only while it is counted inside the
 * region's door (see ThreadPool::Crew), and the launcher returns
 * only once the door is shut and nobody is inside.
 */
struct Region
{
    const std::function<void(std::size_t)> *fn = nullptr;
    std::size_t n = 0;
    bool traced = false;
    std::uint64_t id = 0;
    std::atomic<std::size_t> next{0};
    std::mutex err_mu;
    std::size_t err_index = 0;
    std::exception_ptr err;

    /** Claim and run indices until none is left. */
    void work()
    {
        bool outer = tl_in_region;
        tl_in_region = true;
        for (;;) {
            std::size_t i = next.fetch_add(1);
            if (i >= n)
                break;
            try {
                if (traced) {
                    obs::TaskScope scope(id, i);
                    (*fn)(i);
                } else {
                    (*fn)(i);
                }
            } catch (...) {
                std::lock_guard<std::mutex> lk(err_mu);
                if (i < err_index) {
                    err_index = i;
                    err = std::current_exception();
                }
            }
        }
        tl_in_region = outer;
    }
};

/**
 * The door word: generation (bits 32-63), helpers wanted (17-31),
 * open flag (16), workers inside the region (0-15).
 */
constexpr unsigned kGenShift = 32;
constexpr unsigned kHelperShift = 17;
constexpr std::uint64_t kOpen = 1ULL << 16;
constexpr std::uint64_t kInsideMask = kOpen - 1;
constexpr std::size_t kMaxHelpers = (1U << (kGenShift - kHelperShift)) - 1;

std::uint64_t doorGen(std::uint64_t d) { return d >> kGenShift; }
std::size_t
doorHelpers(std::uint64_t d)
{
    return static_cast<std::size_t>((d >> kHelperShift) & kMaxHelpers);
}

/** How long a parked worker or a waiting launcher spins first. */
constexpr std::chrono::microseconds kSpin{100};

inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

/**
 * Spin until pred() holds or kSpin passes; @return pred().  After
 * the first few microseconds each round also yields, so spinning
 * threads give way on a host with fewer cores than threads.
 */
template <typename Pred>
bool
spinFor(Pred pred)
{
    auto t0 = std::chrono::steady_clock::now();
    for (unsigned i = 1;; ++i) {
        if (pred())
            return true;
        if (i < 256) {
            cpuRelax();
        } else {
            std::this_thread::yield();
            if (i % 16 == 0 &&
                std::chrono::steady_clock::now() - t0 > kSpin)
                return pred();
        }
    }
}

} // namespace

/**
 * The workers of one pool and the state that wakes them.  A region
 * opens by storing a door word with a new generation; worker w (0
 * based) may enter while the door is open and w < the wanted helper
 * count, by a compare-and-swap that bumps the inside count.  When
 * the launcher has claimed every index it shuts the door and waits
 * only for the workers inside, so a worker the host has not
 * scheduled yet never holds a region up: it finds the door shut (or
 * a newer generation) and goes back to waiting.
 */
struct ThreadPool::Crew
{
    std::mutex mu;
    /** Workers park here between regions. */
    std::condition_variable wake;
    /** The launcher parks here until the last worker leaves. */
    std::condition_variable done;
    std::atomic<std::uint64_t> door{0};
    std::atomic<Region *> region{nullptr};
    /** Workers parked on `wake` (or about to be). */
    std::atomic<std::size_t> parked{0};
    /** True while the launcher is parked on `done`. */
    std::atomic<bool> launcherParked{false};
    /** A region holds the pool. */
    std::atomic<bool> busy{false};
    std::atomic<bool> stop{false};
    std::atomic<std::size_t> started{0};
    std::vector<std::thread> workers;

    ~Crew()
    {
        {
            std::lock_guard<std::mutex> lk(mu);
            stop.store(true);
        }
        wake.notify_all();
        for (std::thread &t : workers)
            t.join();
    }

    /** Body of worker w; `seen` is the generation it started in. */
    void workerLoop(std::size_t w, std::uint64_t seen)
    {
        tl_in_region = true;  // Nested regions in tasks run inline.
        for (;;) {
            auto fresh = [&] {
                return stop.load() || doorGen(door.load()) != seen;
            };
            if (!spinFor(fresh)) {
                std::unique_lock<std::mutex> lk(mu);
                parked.fetch_add(1);
                wake.wait(lk, fresh);
                parked.fetch_sub(1);
            }
            if (stop.load())
                return;
            std::uint64_t d = door.load();
            seen = doorGen(d);
            bool inside = false;
            while (!inside && doorGen(d) == seen && (d & kOpen) &&
                   w < doorHelpers(d))
                inside = door.compare_exchange_weak(d, d + 1);
            if (!inside)
                continue;
            region.load(std::memory_order_acquire)->work();
            obs::flushThreadProfile();
            d = door.fetch_sub(1) - 1;
            if ((d & kInsideMask) == 0 && !(d & kOpen) &&
                launcherParked.load()) {
                std::lock_guard<std::mutex> lk(mu);
                done.notify_one();
            }
        }
    }

    /**
     * Run `r` on the caller plus up to `helpers` workers, starting
     * any that do not exist yet.  The caller must hold `busy`.
     */
    void run(Region &r, std::size_t helpers)
    {
        std::uint64_t gen = doorGen(door.load());
        try {
            while (workers.size() < helpers) {
                std::size_t w = workers.size();
                workers.emplace_back(
                    [this, w, gen] { workerLoop(w, gen); });
                started.store(workers.size());
            }
        } catch (const std::system_error &) {
            helpers = workers.size();  // Run with the ones we have.
        }
        region.store(&r, std::memory_order_relaxed);
        door.store(((gen + 1) << kGenShift) |
                   (static_cast<std::uint64_t>(helpers)
                    << kHelperShift) |
                   kOpen);
        if (helpers > 0 && parked.load() > 0) {
            { std::lock_guard<std::mutex> lk(mu); }
            wake.notify_all();
        }

        r.work();  // The caller is the region's first thread.

        door.fetch_and(~kOpen);
        auto drained = [&] {
            return (door.load() & kInsideMask) == 0;
        };
        if (!spinFor(drained)) {
            std::unique_lock<std::mutex> lk(mu);
            launcherParked.store(true);
            done.wait(lk, drained);
            launcherParked.store(false);
        }
    }
};

ThreadPool::ThreadPool(std::size_t threads)
    : threads_(threads)
{
    require(threads >= 1, "ThreadPool: need at least one thread");
    if (threads_ > 1)
        crew_ = std::make_unique<Crew>();
}

ThreadPool::~ThreadPool() = default;
ThreadPool::ThreadPool(ThreadPool &&) noexcept = default;
ThreadPool &ThreadPool::operator=(ThreadPool &&) noexcept = default;

std::size_t
ThreadPool::workerCount() const
{
    return crew_ ? crew_->started.load() : 0;
}

void
ThreadPool::forIndex(std::size_t n,
                     const std::function<void(std::size_t)> &fn) const
{
    if (n == 0)
        return;

    // Trace stream identity: allocate the region id here, on the
    // launching thread, so the allocation order is the same at any
    // pool width.  Nested loops (already inside a TaskScope) stay on
    // the enclosing task's stream - matching the parallel path,
    // where nested calls fall back to serial inside a worker task.
    bool nested_trace = obs::enabled() && obs::inTaskScope();
    bool traced = obs::enabled() && !nested_trace;
    std::uint64_t region = 0;
    if (traced) {
        static obs::Counter &region_count =
            obs::registry().counter("exec.region.count");
        static obs::Counter &task_count =
            obs::registry().counter("exec.task.count");
        region = obs::beginRegion();
        region_count.add(1);
        task_count.add(n);
    }

    // A region nested in a traced task runs on the caller, so its
    // events keep that task's (region, task, seq) stream as they do
    // at width 1; a worker's events would land on its own stream.
    bool parallel = threads_ > 1 && n > 1 && !tl_in_region &&
        !nested_trace &&
        !crew_->busy.exchange(true, std::memory_order_acquire);
    if (!parallel) {
        // Byte-for-byte the serial loop: in order, on this thread,
        // first exception aborts the remainder immediately.
        for (std::size_t i = 0; i < n; ++i) {
            if (traced) {
                obs::TaskScope scope(region, i);
                fn(i);
            } else {
                fn(i);
            }
        }
        return;
    }

    Region r;
    r.fn = &fn;
    r.n = n;
    r.traced = traced;
    r.id = region;
    r.err_index = n;
    std::size_t helpers =
        std::min<std::size_t>(std::min(threads_, n) - 1, kMaxHelpers);
    crew_->run(r, helpers);
    crew_->busy.store(false, std::memory_order_release);

    if (r.err)
        std::rethrow_exception(r.err);
}

namespace {

ThreadPool &
globalPoolStorage()
{
    // Never destroyed: its workers stay parked through exit instead
    // of being joined while other static state is torn down.
    static ThreadPool *pool = new ThreadPool(defaultThreadCount());
    return *pool;
}

} // namespace

const ThreadPool &
globalPool()
{
    return globalPoolStorage();
}

void
setGlobalThreads(std::size_t threads)
{
    // Callers must not race with a running region.  Replacing the
    // pool joins the old one's parked workers.
    ThreadPool &pool = globalPoolStorage();
    if (pool.threadCount() != threads)
        pool = ThreadPool(threads);
}

void
parallel_for_index(std::size_t n,
                   const std::function<void(std::size_t)> &fn)
{
    globalPool().forIndex(n, fn);
}

} // namespace exec
} // namespace tts
