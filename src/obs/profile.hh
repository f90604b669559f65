/**
 * @file
 * Scoped wall-clock profiling with per-thread aggregation.
 *
 * obs::Scope times a phase ("thermal.advance", "resilience.cluster")
 * into a thread-local table; tables merge into a global map when a
 * thread exits, when it calls flushThreadProfile(), or (for the
 * calling thread) when a snapshot is taken.  exec::ThreadPool's
 * workers outlive their regions, so each one flushes before it
 * reports its share of a region done: their contributions are
 * visible to the launching thread as soon as forIndex returns, and
 * a worker's table is empty between regions (so a reset between
 * regions drops everything the workers recorded).
 *
 * Wall-clock numbers are inherently nondeterministic, so they stay
 * out of the trace stream entirely - profiles are reported
 * separately (stderr tables, bench output) and never affect the
 * golden values or trace byte-equality.
 */

#ifndef TTS_OBS_PROFILE_HH
#define TTS_OBS_PROFILE_HH

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

#include "obs/enabled.hh"

namespace tts {
namespace obs {

/** Aggregated timings for one phase label. */
struct PhaseStat
{
    std::uint64_t calls = 0;
    std::uint64_t totalNs = 0;
    std::uint64_t maxNs = 0;
};

namespace detail {
/** Fold one finished scope into the calling thread's table. */
void recordScope(const char *phase, std::uint64_t elapsed_ns);
} // namespace detail

/**
 * RAII phase timer.  When collection is disabled at construction the
 * scope is inert - no clock call, no table touch - so instrumenting
 * a hot loop costs one branch per iteration.
 *
 * @param phase Static label; the pointer must outlive the profile
 *     (string literals only).
 */
class Scope
{
  public:
    explicit Scope(const char *phase)
        : phase_(enabled() ? phase : nullptr)
    {
        if (phase_)
            t0_ = std::chrono::steady_clock::now();
    }

    ~Scope()
    {
        if (phase_)
            detail::recordScope(
                phase_,
                static_cast<std::uint64_t>(
                    std::chrono::duration_cast<
                        std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0_)
                        .count()));
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    const char *phase_;
    std::chrono::steady_clock::time_point t0_;
};

/**
 * Move the calling thread's table into the global one (and leave it
 * empty).  Long-lived worker threads call this at the end of each
 * unit of work; it is a no-op on an empty table.
 */
void flushThreadProfile();

/**
 * Merge the global table with the calling thread's and return the
 * result.  Does not clear anything.
 */
std::map<std::string, PhaseStat> profileSnapshot();

/** Print profileSnapshot() as an aligned table, busiest phase first. */
void writeProfileTable(std::ostream &out);

} // namespace obs
} // namespace tts

#endif // TTS_OBS_PROFILE_HH
