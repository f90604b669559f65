/**
 * @file
 * Deterministic parallel study execution.
 *
 * Every top-level study in this reproduction (the Section 5.1
 * cooling sweep, the melting-temperature optimizer, the sensitivity
 * harness, the multi-site benches) fans out independent ClusterModel
 * transients.  This module runs such fan-outs across threads while
 * keeping every reported number identical to serial execution:
 *
 *  - Results are stored by input index, so output ordering never
 *    depends on scheduling.
 *  - Tasks are dispatched from a single atomic counter (no work
 *    stealing, no per-thread queues); each index runs exactly once.
 *  - Tasks must depend only on their own index/item - any randomness
 *    comes from a per-task stream (Rng::forStream), never from a
 *    shared generator - so `threads == 1` and `threads == N` produce
 *    byte-for-byte identical results.
 *  - With one thread (or inside an already-parallel region) the
 *    region degenerates to the plain serial loop on the calling
 *    thread.
 *  - The first exception (lowest task index) is rethrown on the
 *    caller once the region drains.
 *
 * Each pool owns up to threadCount() - 1 persistent workers.  None
 * exists until the first region that needs them (constructing and
 * destroying an unused pool starts no thread); a region then wakes
 * the workers it needs, and between regions they spin briefly and
 * park on a condition variable, so the 2,880 short regions of a
 * 2-day fleet run pay a wake-up, not a thread start.  A pool runs
 * one region at a time: a caller that finds it busy (another thread
 * holds it) runs its region inline on its own thread instead of
 * waiting.  Destroying the pool joins its workers.
 *
 * Thread count resolution order: explicit ThreadPool argument >
 * `TTS_THREADS` environment variable > hardware concurrency.
 */

#ifndef TTS_EXEC_PARALLEL_HH
#define TTS_EXEC_PARALLEL_HH

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

namespace tts {
namespace exec {

/** @return Hardware thread count (>= 1). */
std::size_t hardwareThreads();

/**
 * @return The thread count a default-constructed pool uses: the
 * `TTS_THREADS` environment variable if set to a positive integer,
 * else hardwareThreads().
 */
std::size_t defaultThreadCount();

/**
 * A deterministic fork-join executor of fixed width.
 *
 * forIndex(n, fn) runs fn(0) ... fn(n-1), each exactly once, across
 * up to threadCount() threads (the caller participates).  See the
 * file comment for the determinism contract.
 */
class ThreadPool
{
  public:
    /**
     * @param threads Region width (>= 1); 1 means strictly serial.
     * Starts no thread: workers start on the first region that needs
     * them.
     */
    explicit ThreadPool(std::size_t threads = defaultThreadCount());

    /** Joins the workers; no region may be running. */
    ~ThreadPool();

    ThreadPool(ThreadPool &&) noexcept;
    ThreadPool &operator=(ThreadPool &&) noexcept;
    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** @return Region width. */
    std::size_t threadCount() const { return threads_; }

    /** @return Worker threads started so far (at most width - 1). */
    std::size_t workerCount() const;

    /**
     * Run fn(i) for every i in [0, n).
     *
     * Serial fallback (plain in-order loop on the calling thread)
     * when threadCount() == 1, n <= 1, the caller is itself a task
     * of an outer region (nested regions never oversubscribe),
     * tracing is on and the caller is inside an obs::TaskScope (its
     * events stay on that task's stream), or another thread's region
     * holds the pool (never blocks).
     * Otherwise indices are handed out through an atomic counter and
     * results must be written to index-keyed slots by fn.  If any
     * task throws, the exception thrown by the lowest index is
     * rethrown here after all started tasks finish.
     */
    void forIndex(std::size_t n,
                  const std::function<void(std::size_t)> &fn) const;

    /**
     * Map items through fn, preserving input order.
     *
     * The result type must be default-constructible and
     * move-assignable (every study result type here is).
     */
    template <typename T, typename Fn>
    auto map(const std::vector<T> &items, Fn &&fn) const
        -> std::vector<decltype(fn(items[0]))>
    {
        std::vector<decltype(fn(items[0]))> out(items.size());
        forIndex(items.size(),
                 [&](std::size_t i) { out[i] = fn(items[i]); });
        return out;
    }

  private:
    struct Crew;

    std::size_t threads_;
    /** Workers and their wake-up state; null when threads_ == 1. */
    std::unique_ptr<Crew> crew_;
};

/**
 * @return The process-wide pool used by the free functions below;
 * created on first use with defaultThreadCount() threads.
 */
const ThreadPool &globalPool();

/**
 * Resize the global pool (testing / tool hook, e.g. for a serial-vs-
 * parallel determinism check).  A new width joins the old pool's
 * parked workers; the same width keeps them.  Not safe while a
 * region is running.
 */
void setGlobalThreads(std::size_t threads);

/** forIndex on the global pool. */
void parallel_for_index(std::size_t n,
                        const std::function<void(std::size_t)> &fn);

/** map on the global pool. */
template <typename T, typename Fn>
auto
parallel_map(const std::vector<T> &items, Fn &&fn)
    -> std::vector<decltype(fn(items[0]))>
{
    return globalPool().map(items, std::forward<Fn>(fn));
}

} // namespace exec
} // namespace tts

#endif // TTS_EXEC_PARALLEL_HH
