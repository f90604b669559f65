/**
 * @file
 * Shared pieces of the perfbench driver: run arguments, the clock,
 * robust estimators, the span recorder of the traced mode, the
 * correctness-check ledger, and the result a workload hands back.
 *
 * Every timing in this benchmark is taken on fixed units of work and
 * reduced with a statistic that short bursts of host interference
 * cannot move (a minimum, a low quantile, or a median over many
 * units); see README.md for the estimator behind each metric.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds between two steady-clock points. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Seconds since t. */
inline double
secondsSince(Clock::time_point t)
{
    return secondsBetween(t, Clock::now());
}

/** Arguments every workload receives. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** When main() began: the start of a cold set-up. */
    Clock::time_point start = Clock::now();
    /** Directory for run files (sockets, manifests, span dumps). */
    std::string runDir = ".";
    /** The tts_serve binary serve-mix launches. */
    std::string serveBin;
};

/** A metric value with its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** Correctness checks of one run: every failure is kept. */
class Checks
{
  public:
    /** Record one check; returns ok. */
    bool expect(bool ok, const std::string &what);

    /** @return True when every recorded check held. */
    bool allOk() const { return failures_.empty(); }

    /** @return Checks recorded. */
    std::size_t count() const { return count_; }

    /** @return The failed checks' descriptions. */
    const std::vector<std::string> &failures() const
    {
        return failures_;
    }

  private:
    std::size_t count_ = 0;
    std::vector<std::string> failures_;
};

/** What a workload run hands back to main(). */
struct Outcome
{
    Checks checks;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, Metric> metrics;

    void set(const std::string &name, double value,
             const std::string &unit)
    {
        metrics[name] = Metric{value, unit};
    }
};

/** Median of xs (xs is copied); 0 for an empty vector. */
double median(std::vector<double> xs);

/** Linear-interpolated quantile q in [0, 1]; 0 when empty. */
double quantile(std::vector<double> xs, double q);

/** Smallest element; 0 when empty. */
double minimum(const std::vector<double> &xs);

/** Peak resident set of this process (MB), from VmHWM. */
double selfPeakRssMb();

/**
 * In-memory span recorder for the traced mode.  A span is one call
 * into a layer's public entry point, timed from outside; spans of
 * one serve request share a request id.  Nothing is recorded unless
 * enable() was called, so untraced runs record no spans.
 */
class Spans
{
  public:
    struct Span
    {
        std::string name;
        std::uint64_t id = 0;
        std::uint64_t parent = 0; //!< 0 = root.
        std::uint64_t request = 0; //!< 0 = not a serve request.
        double startS = 0.0;      //!< Since the recorder's origin.
        double endS = 0.0;
    };

    /** RAII span; records on destruction when tracing is on. */
    class Scope
    {
      public:
        Scope(Spans &spans, const char *name,
              std::uint64_t request = 0);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Spans &spans_;
        std::size_t slot_;
    };

    /** Record spans from now on (or stop); off until first called. */
    void setEnabled(bool on) { enabled_ = on; }

    /** Open a span (tracing on only); returns its slot. */
    std::size_t open(const char *name, std::uint64_t request);

    /** Close the span in slot. */
    void close(std::size_t slot);

    /**
     * Record an already-timed span under the innermost open span
     * (used by the serve client, whose threads time their own
     * requests and hand them over under a lock).
     */
    void add(const std::string &name, std::uint64_t request,
             Clock::time_point start, Clock::time_point end);

    /** @return All closed spans. */
    const std::vector<Span> &spans() const { return spans_; }

    /** @return Durations (s) of every span named name. */
    std::vector<double> durations(const std::string &name) const;

    /**
     * @return Per-name totals of self time (s): each span's duration
     * minus the union of its children's intervals.
     */
    std::map<std::string, double> selfTimes() const;

    /**
     * Write every span as one JSON object per line, then one line per
     * span name with its total self time.
     */
    void write(const std::string &path) const;

  private:
    bool enabled_ = false;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<std::size_t> stack_; //!< Open slots, innermost last.
    std::uint64_t next_id_ = 1;
};

/** The process-wide recorder (one workload runs per process). */
Spans &spans();

/** Workload entry points. */
Outcome runFleet2Day(const Args &args);
Outcome runDesignSearch(const Args &args);
Outcome runServeMix(const Args &args);

/** Mutation self-test of every output check (see checks.hh). */
int runSelfTest();

/** thermal.step_ns probe (fleet-2day and serve-mix traced runs). */
double probeThermalStepNs();

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
