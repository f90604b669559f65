/**
 * @file
 * Performance gate for tts::fleet: the paper's 10 MW facility
 * (~40k servers) over a two-day diurnal trace.
 *
 * Four lanes:
 *
 *  1. Thread scaling: 3 full warehouse transients at 1
 *     thread and 3 at 2 threads, interleaved so a slow phase of the
 *     host weighs on both widths alike.  The ratio of their median
 *     wall clocks (speedup_2t) must reach 1.3 on a host with two or
 *     more hardware threads, except under --short; every run must
 *     stay under the --max-wall budget.
 *  2. Bit-identity: one more run at 8 threads; every run's state
 *     digest and series must equal the first 1-thread run's
 *     (fleet_identical).
 *  3. A small homogeneous fleet integrated twice - archetype dedupe
 *     on vs the naive every-row-private path - compared on logical
 *     server-steps per second (dedupe_speedup, gated by
 *     --min-dedupe-speedup).
 *  4. Region latency: the p10 wall clock of 2,000 back-to-back
 *     2-wide regions of 8 trivial tasks (region_us, at most
 *     10 us).  This is the per-step price of the second
 *     thread; the scaling ratio alone hides it when the row work is
 *     large next to it.
 *
 * Emits flat kv-json on stdout after the human-readable table (and,
 * with --out=FILE, to the file CI tracks as BENCH_fleet.json):
 *
 *     {"servers": ..., "days": ..., "wall_s": ...,
 *      "wall_2t_s": ..., "speedup_2t": ..., "region_us": ...,
 *      "wall_8t_s": ...,
 *      "fleet_identical": 1, "materialized_rows": ...,
 *      "dedupe_factor": ..., "dedupe_speedup": ...,
 *      "naive_steps_per_s": ..., "dedupe_steps_per_s": ...}
 *
 * wall_s and wall_2t_s are medians over the repeats.  Exit code 0
 * only when every gate holds.  --short shrinks every lane for the
 * ctest perf smoke.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "exec/parallel.hh"
#include "fleet/fleet.hh"
#include "server/server_spec.hh"
#include "util/cli.hh"
#include "util/kv_json.hh"
#include "util/stats.hh"
#include "util/table.hh"
#include "util/units.hh"
#include "workload/google_trace.hh"

namespace {

/** Runs at each of 1 and 2 threads; the gate takes their medians. */
constexpr std::size_t kRepeats = 3;
/** Floor on the median 1-thread / 2-thread wall ratio. */
constexpr double kMinSpeedup2t = 1.3;
/** Ceiling on a 2-wide region's p10 latency (us). */
constexpr double kMaxRegionUs = 10.0;

} // namespace

int
main(int argc, char **argv)
{
    using namespace tts;
    using Clock = std::chrono::steady_clock;

    std::string out_file;
    std::size_t servers = 40320;
    double days = 2.0;
    double max_wall_s = 600.0;
    double min_dedupe_speedup = 10.0;
    bool short_run = false;

    cli::Parser p("perf_fleet",
                  "Warehouse-scale fleet transient: wall-clock "
                  "budget, 1-vs-2-thread scaling, region latency, "
                  "1/2/8-thread bit-identity, and archetype dedupe "
                  "leverage.");
    p.addString("out", &out_file,
                "also write the kv-json here (BENCH_fleet.json)");
    p.addSize("servers", &servers, "fleet population");
    p.addDouble("days", &days, "simulated horizon (days)");
    p.addDouble("max-wall", &max_wall_s,
                "wall-clock budget for one full run (s)");
    p.addDouble("min-dedupe-speedup", &min_dedupe_speedup,
                "required naive-vs-dedupe steps/s ratio");
    p.addFlag("short", &short_run,
              "shrink every lane (ctest perf smoke)");
    switch (p.parse(argc - 1, argv + 1)) {
      case cli::Status::Help:
        std::fputs(p.helpText().c_str(), stdout);
        return 0;
      case cli::Status::Error:
        std::fprintf(stderr, "%s\n", p.error().c_str());
        return 2;
      case cli::Status::Ok:
        break;
    }
    if (short_run) {
        servers = 4096;
        days = 0.25;
    }

    workload::GoogleTraceParams tp;
    tp.durationS = units::days(days);
    auto trace = workload::makeGoogleTrace(tp);
    auto spec = server::rd330Spec();

    fleet::FleetConfig cfg;
    cfg.run.serverCount = servers;
    cfg.durationS = units::days(days);
    // fleet-2day's steps: one exec region per simulated minute, so
    // the 2-day run is 2,880 short regions and per-region overhead
    // (thread wake-up, the serial part of a step) shows in the
    // 2-thread speedup.
    cfg.controlIntervalS = 60.0;
    cfg.thermalStepS = 15.0;
    cfg.mixedPlatforms = true;
    // A handful of events per thousand server-days keeps the
    // materialized-row population warehouse-realistic (hundreds of
    // divergent servers) without drowning the dedupe leverage.
    cfg.perturb.eventsPerServerDay = 0.01;

    auto timed_run = [&](std::size_t threads) {
        exec::setGlobalThreads(threads);
        fleet::FleetSim sim(spec, trace, cfg);
        auto t0 = Clock::now();
        sim.run();
        auto t1 = Clock::now();
        exec::setGlobalThreads(1);
        return std::make_pair(
            sim.take(),
            std::chrono::duration<double>(t1 - t0).count());
    };

    auto same = [](const fleet::FleetResult &a,
                   const fleet::FleetResult &b) {
        return a.stateDigest == b.stateDigest &&
            a.coolingLoadW.values() == b.coolingLoadW.values() &&
            a.itPowerW.values() == b.itPowerW.values() &&
            a.coolingEnergyJ == b.coolingEnergyJ;
    };

    auto [serial, first_wall_s] = timed_run(1);
    std::vector<double> walls_1t{first_wall_s};
    std::vector<double> walls_2t;
    bool identical = true;
    for (std::size_t r = 0; r < kRepeats; ++r) {
        auto [two, w2] = timed_run(2);
        walls_2t.push_back(w2);
        identical = identical && same(serial, two);
        if (r + 1 < kRepeats) {
            auto [one, w1] = timed_run(1);
            walls_1t.push_back(w1);
            identical = identical && same(serial, one);
        }
    }
    auto [wide, wall_8t_s] = timed_run(8);
    identical = identical && same(serial, wide);
    double wall_s = percentile(walls_1t, 50.0);
    double wall_2t_s = percentile(walls_2t, 50.0);
    double speedup_2t = wall_s / wall_2t_s;
    // The shrunken smoke run shares the machine with the rest of a
    // parallel ctest run, and one hardware thread cannot scale.
    bool gate_scaling = !short_run && exec::hardwareThreads() >= 2;
    double max_run_s = std::max(
        wall_8t_s, std::max(*std::max_element(walls_1t.begin(),
                                              walls_1t.end()),
                            *std::max_element(walls_2t.begin(),
                                              walls_2t.end())));

    // Dedupe leverage lane: a fleet small enough that the naive
    // every-row path is affordable, compared on logical server-steps
    // per second of wall clock.
    fleet::FleetConfig small = cfg;
    small.run.serverCount = short_run ? 64 : 256;
    small.durationS = units::hours(short_run ? 1.0 : 4.0);
    small.mixedPlatforms = false;
    small.perturb.eventsPerServerDay = 0.0;

    auto rate_of = [&](bool dedupe) {
        fleet::FleetConfig c = small;
        c.dedupe = dedupe;
        fleet::FleetSim sim(spec, trace, c);
        auto t0 = Clock::now();
        sim.run();
        auto t1 = Clock::now();
        double s = std::chrono::duration<double>(t1 - t0).count();
        fleet::FleetResult r = sim.take();
        return std::make_pair(
            static_cast<double>(r.serverSteps) / s, r);
    };

    auto [naive_rate, naive_r] = rate_of(false);
    auto [dedupe_rate, dedupe_r] = rate_of(true);
    double dedupe_speedup = dedupe_rate / naive_rate;
    bool states_match = dedupe_r.stateDigest == naive_r.stateDigest;

    // Region lane: what one fleet step pays to involve the second
    // thread, as the p10 latency of back-to-back 2-wide regions of 8
    // trivial tasks.
    double region_us = [] {
        exec::ThreadPool pool(2);
        std::vector<double> slots(8, 0.0);
        std::vector<double> us;
        for (int i = 0; i < 2000; ++i) {
            auto t0 = Clock::now();
            pool.forIndex(slots.size(), [&](std::size_t k) {
                slots[k] += static_cast<double>(k);
            });
            us.push_back(
                std::chrono::duration<double, std::micro>(Clock::now() -
                                                          t0)
                    .count());
        }
        return percentile(us, 10.0);
    }();

    std::cout << "=== tts::fleet: " << servers << " servers, "
              << formatFixed(days, 2) << "-day trace ===\n\n";
    AsciiTable t({"lane", "threads", "wall (s)", "digest"});
    char digest[32];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(serial.stateDigest));
    t.addRow({"fleet (median)", "1", formatFixed(wall_s, 2), digest});
    t.addRow({"fleet (median)", "2", formatFixed(wall_2t_s, 2),
              digest});
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(wide.stateDigest));
    t.addRow({"fleet", "8", formatFixed(wall_8t_s, 2), digest});
    t.print(std::cout);
    std::cout << "\nbit-identical 1t/2t/8t:  "
              << (identical ? "yes" : "NO") << "\n";
    std::cout << "2-thread speedup:        "
              << formatFixed(speedup_2t, 2) << "x (median of "
              << kRepeats << " runs per width, floor "
              << formatFixed(kMinSpeedup2t, 2) << "x"
              << (gate_scaling ? "" : ", not gated") << ")\n";
    std::cout << "2-wide region (p10):     "
              << formatFixed(region_us, 1) << " us (ceiling "
              << formatFixed(kMaxRegionUs, 1) << " us)\n";
    std::cout << "materialized rows:       "
              << serial.materializedRows << " / " << servers << "\n";
    std::cout << "dedupe factor (full):    "
              << formatFixed(serial.dedupeFactor(), 1) << "x\n";
    std::cout << "dedupe vs naive rate:    "
              << formatFixed(dedupe_speedup, 1) << "x ("
              << formatFixed(dedupe_rate / 1e6, 2) << "M vs "
              << formatFixed(naive_rate / 1e6, 2)
              << "M server-steps/s, states "
              << (states_match ? "match" : "DIVERGE") << ")\n\n";

    bool wall_ok = max_run_s <= max_wall_s;
    bool speedup_ok = dedupe_speedup >= min_dedupe_speedup;
    bool scaling_ok = !gate_scaling || speedup_2t >= kMinSpeedup2t;
    bool region_ok = region_us <= kMaxRegionUs;
    if (!wall_ok)
        std::cout << "FAIL: wall clock exceeded "
                  << formatFixed(max_wall_s, 0) << " s budget\n";
    if (!speedup_ok)
        std::cout << "FAIL: dedupe speedup below "
                  << formatFixed(min_dedupe_speedup, 1) << "x\n";
    if (!scaling_ok)
        std::cout << "FAIL: 2-thread speedup below "
                  << formatFixed(kMinSpeedup2t, 2) << "x\n";
    if (!region_ok)
        std::cout << "FAIL: 2-wide region latency above "
                  << formatFixed(kMaxRegionUs, 1) << " us\n";
    if (!identical)
        std::cout << "FAIL: 1t, 2t and 8t runs are not bit-identical\n";
    if (!states_match)
        std::cout << "FAIL: dedupe and naive end states differ\n";

    std::map<std::string, double> json{
        {"servers", static_cast<double>(servers)},
        {"days", days},
        {"wall_s", wall_s},
        {"wall_2t_s", wall_2t_s},
        {"speedup_2t", speedup_2t},
        {"region_us", region_us},
        {"wall_8t_s", wall_8t_s},
        {"fleet_identical", identical ? 1.0 : 0.0},
        {"materialized_rows",
         static_cast<double>(serial.materializedRows)},
        {"dedupe_factor", serial.dedupeFactor()},
        {"dedupe_speedup", dedupe_speedup},
        {"naive_steps_per_s", naive_rate},
        {"dedupe_steps_per_s", dedupe_rate},
    };
    std::cout << writeKvJson(json);
    if (!out_file.empty())
        writeKvJsonFile(out_file, json);
    return identical && states_match && wall_ok && speedup_ok &&
            scaling_ok && region_ok
        ? 0
        : 1;
}
