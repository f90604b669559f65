/**
 * @file
 * fleet-2day: the paper's 10 MW facility - 40,320 mixed 1U/2U/OCP
 * servers on the synthetic 2-day Google trace with 0.01 perturbation
 * events per server-day, stepped on 2 pool threads.
 *
 * Timeline of one run: build the inputs and the first FleetSim
 * (set-up ends here), run it to completion at 1 thread (warm-up and
 * the reference the checks compare against), then repeat whole
 * 2-thread runs until the time budget is spent (at least three).
 * run_s is the sum over control steps of each step's minimum across
 * the 2-thread repeats, plus the fastest construction: a burst of
 * host interference has to hit the same step in every repeat to move
 * it.
 */

#include <cmath>
#include <cstdio>
#include <set>

#include "bench.hh"
#include "checks.hh"
#include "exec/parallel.hh"
#include "fleet/fleet.hh"
#include "obs/obs.hh"
#include "server/server_model.hh"
#include "server/server_spec.hh"
#include "util/random.hh"
#include "util/units.hh"
#include "workload/google_trace.hh"

namespace perfbench {

namespace {

using namespace tts;

constexpr std::size_t kServers = 40320;
constexpr double kDays = 2.0;
constexpr double kEventsPerServerDay = 0.01;
constexpr std::size_t kMinRepeats = 3;

/**
 * The perturbation schedule, drawn from the seed but stratified so
 * every seed carries the same work: the event count is the rate's
 * expectation, event k falls in the k-th of N equal time slices,
 * targets a distinct server of platform k mod 3, and its kind cycles
 * with the generator's 20 % fan-failure weight.  Which servers, the
 * exact times, and the magnitudes follow the seed.
 */
std::vector<fleet::PerturbEvent>
stratifiedEvents(std::size_t servers, double days, double rate,
                 std::uint64_t seed)
{
    const fleet::PerturbationModel model;
    const double duration = units::days(days);
    const std::size_t n = static_cast<std::size_t>(
        std::lround(rate * static_cast<double>(servers) * days));
    const std::uint64_t third = servers / 3;
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x2d4aULL);
    std::set<std::uint32_t> used;
    std::vector<fleet::PerturbEvent> events;
    for (std::size_t k = 0; k < n; ++k) {
        fleet::PerturbEvent e;
        e.timeS = (static_cast<double>(k) + rng.uniform()) /
            static_cast<double>(n) * duration;
        do {
            e.server = static_cast<std::uint32_t>(
                (k % 3) * third + rng.uniformInt(third));
        } while (!used.insert(e.server).second);
        switch (k % 5) {
          case 0:
            e.kind = fleet::PerturbKind::FanFailure;
            break;
          case 1:
          case 3:
            e.kind = fleet::PerturbKind::UtilizationDelta;
            e.value = rng.normal(0.0, model.utilDeltaSigma);
            break;
          default:
            e.kind = fleet::PerturbKind::InletDrift;
            e.value = rng.normal(0.0, model.inletDriftSigmaC);
            break;
        }
        events.push_back(e);
    }
    return events;
}

struct TimedRun
{
    FleetRecord record;
    fleet::FleetResult result;
    double constructS = 0.0;
    std::vector<double> stepS;
};

/** One whole 2-day run, its steps timed (and traced when on). */
TimedRun
runOnce(const server::ServerSpec &spec,
        const workload::WorkloadTrace &trace,
        const fleet::FleetConfig &cfg,
        std::unique_ptr<fleet::FleetSim> sim = nullptr)
{
    TimedRun out;
    Spans::Scope run_span(spans(), "fleet.run");
    if (!sim) {
        Spans::Scope s(spans(), "fleet.construct");
        const Clock::time_point t0 = Clock::now();
        sim = std::make_unique<fleet::FleetSim>(spec, trace, cfg);
        out.constructS = secondsSince(t0);
    }
    const double enthalpy_start_j = storedEnthalpyJ(*sim);
    out.stepS.reserve(2900);
    while (!sim->done()) {
        Spans::Scope s(spans(), "fleet.step");
        const Clock::time_point t0 = Clock::now();
        sim->step();
        out.stepS.push_back(secondsSince(t0));
    }
    const double enthalpy_end_j = storedEnthalpyJ(*sim);
    out.result = sim->take();
    out.record = fleetRecord(out.result, enthalpy_start_j, enthalpy_end_j);
    return out;
}

/** Sum over steps of each step's minimum across runs, + construct. */
double
sumOfStepMinima(const std::vector<TimedRun> &runs)
{
    std::vector<double> construct;
    std::vector<double> steps = runs.front().stepS;
    for (const TimedRun &r : runs) {
        construct.push_back(r.constructS);
        for (std::size_t k = 0; k < steps.size(); ++k)
            steps[k] = std::min(steps[k], r.stepS[k]);
    }
    double total = minimum(construct);
    for (double m : steps)
        total += m;
    return total;
}

/** One repeat at `threads` wide, checked against the reference. */
TimedRun
checkedRepeat(const server::ServerSpec &spec,
              const workload::WorkloadTrace &trace,
              const fleet::FleetConfig &cfg, std::size_t threads,
              const FleetRecord &ref, Checks &checks,
              const std::string &label)
{
    exec::setGlobalThreads(threads);
    TimedRun run = runOnce(spec, trace, cfg);
    checkFleetIdentical(checks, ref, run.record, label);
    run.record = FleetRecord{}; // Series not needed now.
    return run;
}

/** exec.region_us: one forIndex region of 8 trivial tasks, 2 wide. */
double
probeRegionUs()
{
    exec::ThreadPool pool(2);
    std::vector<double> slots(8, 0.0);
    std::vector<double> us;
    for (int i = 0; i < 2000; ++i) {
        const Clock::time_point t0 = Clock::now();
        pool.forIndex(slots.size(), [&](std::size_t k) {
            slots[k] += static_cast<double>(k);
        });
        us.push_back(secondsSince(t0) * 1e6);
    }
    return quantile(us, 0.1);
}

} // namespace

double
storedEnthalpyJ(const fleet::FleetSim &sim)
{
    double h = 0.0;
    for (std::uint32_t s = 0; s < sim.serverCount(); ++s)
        for (double node : sim.serverView(s).network().enthalpies())
            h += node;
    return h;
}

FleetRecord
fleetRecord(const fleet::FleetResult &r, double enthalpy_start_j,
            double enthalpy_end_j)
{
    FleetRecord out;
    out.digest = r.stateDigest;
    out.times = r.coolingLoadW.times();
    out.coolingW = r.coolingLoadW.values();
    out.itW = r.itPowerW.values();
    out.peakCoolingW = r.peakCoolingW;
    out.peakItW = r.peakItPowerW;
    out.enthalpyStartJ = enthalpy_start_j;
    out.enthalpyEndJ = enthalpy_end_j;
    return out;
}

fleet::FleetConfig
fleetConfig(std::size_t servers, double days,
            double events_per_server_day, std::uint64_t seed)
{
    fleet::FleetConfig cfg;
    cfg.run.serverCount = servers;
    cfg.durationS = units::days(days);
    cfg.mixedPlatforms = true;
    cfg.seed = seed;
    cfg.extraEvents =
        stratifiedEvents(servers, days, events_per_server_day, seed);
    return cfg;
}

/** thermal.step_ns: a wax-bearing 1U server through melt and freeze. */
double
probeThermalStepNs()
{
    server::ServerModel m(server::rd330Spec(),
                          server::WaxConfig::paper());
    constexpr int kSteps = 2000;
    constexpr double kDt = 15.0;
    std::vector<double> ns;
    for (int chunk = 0; chunk < 120; ++chunk) {
        // Four chunks (~33 simulated hours) loaded, four idle: the
        // wax melts through and freezes back every cycle.
        m.setLoad((chunk / 4) % 2 == 0 ? 1.0 : 0.1);
        const Clock::time_point t0 = Clock::now();
        m.advance(kSteps * kDt, kDt);
        ns.push_back(secondsSince(t0) * 1e9 / kSteps);
    }
    return quantile(ns, 0.1);
}

Outcome
runFleet2Day(const Args &args)
{
    Outcome out;
    workload::GoogleTraceParams tp;
    tp.durationS = units::days(kDays);
    const workload::WorkloadTrace trace = workload::makeGoogleTrace(tp);
    const server::ServerSpec spec = server::rd330Spec();
    const fleet::FleetConfig cfg =
        fleetConfig(kServers, kDays, kEventsPerServerDay, args.seed);

    exec::setGlobalThreads(1);
    auto first = std::make_unique<fleet::FleetSim>(spec, trace, cfg);
    const double setup_s = secondsSince(args.start);

    // Warm-up at 1 thread; the reference every later run must equal.
    TimedRun ref = runOnce(spec, trace, cfg, std::move(first));
    ++out.attempted;
    double imbalance = 0.0;
    checkFleetEnergyBalance(out.checks, ref.record, &imbalance);
    checkPeakShaving(out.checks, ref.record);
    checkMaterializedRows(out.checks, ref.result.materializedRows,
                          cfg.extraEvents.size());
    std::fprintf(stderr,
                 "fleet-2day: rows=%zu row_steps=%llu dedupe=%.1fx "
                 "imbalance=%.3e peak_cooling=%.4g peak_it=%.4g\n",
                 ref.result.materializedRows,
                 static_cast<unsigned long long>(ref.result.rowSteps),
                 ref.result.dedupeFactor(), imbalance,
                 ref.record.peakCoolingW, ref.record.peakItW);

    if (!args.trace) {
        std::vector<TimedRun> runs;
        const Clock::time_point t0 = Clock::now();
        while (runs.size() < kMinRepeats ||
               secondsSince(t0) < args.seconds)
            runs.push_back(checkedRepeat(
                spec, trace, cfg, 2, ref.record, out.checks,
                "2-thread repeat " + std::to_string(runs.size() + 1)));
        out.attempted += runs.size();
        out.set("run_s", sumOfStepMinima(runs), "s");
        out.set("setup_s", setup_s, "s");
        out.set("peak_rss_mb", selfPeakRssMb(), "MB");
        return out;
    }

    // Traced mode: rounds of an untraced 2-thread repeat, an untraced
    // 1-thread repeat and a traced 2-thread repeat.  Interleaving them
    // lets a slow phase of the host weigh on all three estimates
    // alike, so their differences (pool width, tracing overhead) are
    // not a phase change.
    std::vector<TimedRun> wide, serial, traced;
    const Clock::time_point t0 = Clock::now();
    while (wide.size() < kMinRepeats || secondsSince(t0) < args.seconds) {
        const std::string n = std::to_string(wide.size() + 1);
        wide.push_back(checkedRepeat(spec, trace, cfg, 2, ref.record,
                                     out.checks, "2-thread repeat " + n));
        serial.push_back(checkedRepeat(spec, trace, cfg, 1, ref.record,
                                       out.checks, "1-thread repeat " + n));
        spans().setEnabled(true);
        obs::setEnabled(true);
        traced.push_back(checkedRepeat(spec, trace, cfg, 2, ref.record,
                                       out.checks,
                                       "traced 2-thread repeat " + n));
        obs::setEnabled(false);
        spans().setEnabled(false);
    }
    out.attempted += wide.size() + serial.size() + traced.size();
    const double run_s = sumOfStepMinima(wide);
    const auto profile = obs::profileSnapshot();
    const auto adv = profile.find("thermal.advance");
    const double traced_run_s = sumOfStepMinima(traced);
    const std::vector<double> steps_ms = [&] {
        std::vector<double> v = spans().durations("fleet.step");
        for (double &x : v)
            x *= 1e3;
        return v;
    }();

    out.set("fleet.run_2t_s", run_s, "s");
    out.set("fleet.run_1t_s", sumOfStepMinima(serial), "s");
    out.set("trace.overhead_s", traced_run_s - run_s, "s");
    out.set("fleet.step_ms", median(steps_ms), "ms");
    out.set("fleet.row_steps", static_cast<double>(ref.result.rowSteps),
            "count");
    out.set("fleet.materialized_rows",
            static_cast<double>(ref.result.materializedRows), "count");
    // The profile covers every traced repeat; report one run's share.
    const double per_run = 1.0 / static_cast<double>(traced.size());
    out.set("thermal.advance_calls",
            adv == profile.end()
                ? 0.0
                : static_cast<double>(adv->second.calls) * per_run,
            "count");
    out.set("thermal.advance_s",
            adv == profile.end()
                ? 0.0
                : static_cast<double>(adv->second.totalNs) * 1e-9 *
                    per_run,
            "s");
    out.set("exec.region_us", probeRegionUs(), "us");
    out.set("thermal.step_ns", probeThermalStepNs(), "ns");
    return out;
}

} // namespace perfbench
