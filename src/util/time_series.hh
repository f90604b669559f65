/**
 * @file
 * Time series container used across the workload, thermal, and
 * datacenter modules.
 *
 * A TimeSeries is a sequence of (time, value) samples with strictly
 * increasing times.  Lookup between samples interpolates linearly;
 * lookup outside the range clamps.
 */

#ifndef TTS_UTIL_TIME_SERIES_HH
#define TTS_UTIL_TIME_SERIES_HH

#include <cstddef>
#include <string>
#include <vector>

namespace tts {

/** A named, linearly-interpolated time series. */
class TimeSeries
{
  public:
    /** Construct an empty, unnamed series. */
    TimeSeries() = default;

    /**
     * Construct an empty series with a name (used as a CSV column
     * header and in reports).
     */
    explicit TimeSeries(std::string name) : name_(std::move(name)) {}

    /**
     * Append a sample.  Time must exceed the last sample's time.
     *
     * @param t Time (s).
     * @param v Value.
     */
    void append(double t, double v);

    /** Make room for n samples without reallocating. */
    void reserve(std::size_t n)
    {
        times_.reserve(n);
        values_.reserve(n);
    }

    /**
     * Value at time t with linear interpolation and clamped ends.
     *
     * @param t Query time (s).
     */
    double at(double t) const;

    /** @return Number of samples. */
    std::size_t size() const { return times_.size(); }

    /** @return True if there are no samples. */
    bool empty() const { return times_.empty(); }

    /** @return Time of the first sample (s). */
    double startTime() const;
    /** @return Time of the last sample (s). */
    double endTime() const;

    /** @return Largest sample value. */
    double max() const;
    /** @return Smallest sample value. */
    double min() const;
    /** @return Time of the first sample achieving max(). */
    double argMax() const;

    /**
     * Time-weighted mean over the sampled span (trapezoidal).
     * Requires at least two samples.
     */
    double mean() const;

    /**
     * Trapezoidal integral of the series between a and b, clamping
     * the series outside its span.
     */
    double integral(double a, double b) const;

    /**
     * Earliest time in [startTime, endTime] where the series crosses
     * the given level going upward, or a negative value if it never
     * does.
     */
    double firstCrossingAbove(double level) const;

    /**
     * Total time for which the series value is >= level (piecewise-
     * linear crossing-aware measure).
     */
    double timeAbove(double level) const;

    /**
     * Return a new series with every value multiplied by factor.
     */
    TimeSeries scaled(double factor) const;

    /**
     * Resample onto a uniform grid with the given step.
     *
     * @param dt Grid step (s), must be > 0.
     */
    TimeSeries resampled(double dt) const;

    /** @return The series name. */
    const std::string &name() const { return name_; }
    /** Set the series name. */
    void setName(std::string name) { name_ = std::move(name); }

    /** @return Raw sample times. */
    const std::vector<double> &times() const { return times_; }
    /** @return Raw sample values. */
    const std::vector<double> &values() const { return values_; }

    /**
     * Pointwise binary combination of two series on the union of their
     * sample times.
     */
    static TimeSeries combine(const TimeSeries &a, const TimeSeries &b,
                              double (*op)(double, double),
                              std::string name = "");

  private:
    std::string name_;
    std::vector<double> times_;
    std::vector<double> values_;
};

} // namespace tts

#endif // TTS_UTIL_TIME_SERIES_HH
