/**
 * @file
 * design-search: a wax-placement search on a 48-server mixed fleet
 * (peak-cooling objective, budget 96, 4 restarts - the perf_opt
 * size), then the chosen design's cooling load through every plant
 * backend (crac, hot_water, economizer, mpc).  Everything runs on one
 * pool thread, so the exec pool runs inline here.
 *
 * One unit of work is search + the chosen design's load run + the
 * backend comparison.  Units repeat until the time budget is spent
 * (at least three); run_s sums each phase's minimum across units.
 */

#include <cstdio>

#include "bench.hh"
#include "checks.hh"
#include "exec/parallel.hh"
#include "fleet/fleet.hh"
#include "obs/obs.hh"
#include "opt/engine.hh"
#include "opt/space.hh"
#include "plant/study.hh"
#include "server/server_spec.hh"
#include "util/random.hh"
#include "util/units.hh"
#include "workload/google_trace.hh"

namespace perfbench {

namespace {

using namespace tts;

constexpr std::size_t kServers = 48;
constexpr double kDays = 2.0;
constexpr std::size_t kMinUnits = 3;

const std::vector<plant::BackendKind> kKinds = {
    plant::BackendKind::Crac, plant::BackendKind::HotWater,
    plant::BackendKind::Economizer, plant::BackendKind::Mpc};

struct Inputs
{
    workload::WorkloadTrace trace;
    opt::SearchSpace space;
    opt::OptOptions opts;
    plant::PlantConfig plant;
};

struct Unit
{
    opt::OptResult search;
    plant::PlantScenario scenario;
    plant::PlantComparison comparison;
    double searchS = 0.0;
    double loadS = 0.0;
    double compareS = 0.0;
};

/** The chosen design's fleet configuration. */
fleet::FleetConfig
designFleet(const Inputs &in, const opt::Candidate &best)
{
    fleet::FleetConfig cfg = in.opts.fleet;
    cfg.archetypeWax.clear();
    for (std::size_t a = 0; a < in.space.archetypes.size(); ++a)
        cfg.archetypeWax.push_back(opt::waxConfigOf(in.space, best, a));
    cfg.placement = in.space.policies[static_cast<std::size_t>(
        best.policy)];
    return cfg;
}

Unit
runUnit(const Inputs &in)
{
    Unit u;
    Spans::Scope unit_span(spans(), "design.unit");
    Clock::time_point t0 = Clock::now();
    {
        Spans::Scope s(spans(), "opt.search");
        u.search = opt::optimizeWaxPlacement(in.space, in.trace, in.opts);
    }
    u.searchS = secondsSince(t0);

    t0 = Clock::now();
    {
        Spans::Scope s(spans(), "fleet.design_run");
        fleet::FleetResult r = fleet::runFleetStudy(
            server::rd330Spec(), in.trace,
            designFleet(in, u.search.best));
        u.scenario.loadW = r.coolingLoadW;
        u.scenario.serverCount = kServers;
    }
    u.loadS = secondsSince(t0);

    t0 = Clock::now();
    {
        Spans::Scope s(spans(), "plant.compare");
        u.comparison =
            plant::compareBackends(u.scenario, in.plant, kKinds);
    }
    u.compareS = secondsSince(t0);
    return u;
}

double
sumOfPhaseMinima(const std::vector<Unit> &units)
{
    std::vector<double> search, load, compare;
    for (const Unit &u : units) {
        search.push_back(u.searchS);
        load.push_back(u.loadS);
        compare.push_back(u.compareS);
    }
    return minimum(search) + minimum(load) + minimum(compare);
}

/** Checks of one unit against computations made apart from it. */
void
checkUnit(const Inputs &in, const Unit &u, Checks &c,
          std::vector<double> *plant_s)
{
    // Re-evaluation outside the memo, through the public oracle.
    const opt::EvalOutcome again =
        opt::evaluateCandidate(in.space, u.search.best, in.trace,
                               in.opts);
    checkSearchResult(c, u.search.bestCost,
                      opt::costOf(again, in.opts.objective),
                      u.search.baselineCost);

    const double heat_in_j = heatDeliveredJ(u.scenario.loadW);
    checkArmCount(c, u.comparison.arms.size(), kKinds.size());
    for (std::size_t i = 0;
         i < kKinds.size() && i < u.comparison.arms.size(); ++i) {
        plant::PlantConfig cfg = in.plant;
        cfg.options.kind = kKinds[i];
        Spans::Scope s(spans(), "plant.run");
        const Clock::time_point t0 = Clock::now();
        const plant::PlantResult alone =
            plant::runPlant(u.scenario, cfg);
        if (plant_s)
            plant_s[i].push_back(secondsSince(t0));
        const plant::PlantResult &arm = u.comparison.arms[i];
        checkSameArm(c, arm, alone);
        // The MPC arm may shed compute by design; every arm is bound
        // by the heat it was given.
        if (kKinds[i] != plant::BackendKind::Mpc)
            checkPlantServesAll(c, arm);
        checkPlantReuse(c, arm, heat_in_j);
    }
}

std::vector<Unit>
timedUnits(const Inputs &in, double seconds, Checks &c,
           std::vector<double> *plant_s)
{
    std::vector<Unit> units;
    double spent = 0.0;
    while (units.size() < kMinUnits || spent < seconds) {
        units.push_back(runUnit(in));
        Unit &u = units.back();
        // Only the timed phases count against the budget, so the
        // unit count does not depend on how long the checks take.
        spent += u.searchS + u.loadS + u.compareS;
        const bool obs_on = obs::enabled();
        obs::setEnabled(false);
        checkUnit(in, u, c, plant_s);
        obs::setEnabled(obs_on);
        checkSameDesign(c, units.front().search, u.search);
        u.scenario = plant::PlantScenario{};
        u.comparison = plant::PlantComparison{};
    }
    return units;
}

/** fleet.construct_ms: one FleetSim at design-search's size. */
double
probeConstructMs(const workload::WorkloadTrace &trace,
                 const fleet::FleetConfig &cfg)
{
    std::vector<double> ms;
    for (int i = 0; i < 200; ++i) {
        const Clock::time_point t0 = Clock::now();
        fleet::FleetSim sim(server::rd330Spec(), trace, cfg);
        ms.push_back(secondsSince(t0) * 1e3);
    }
    return quantile(ms, 0.1);
}

} // namespace

Outcome
runDesignSearch(const Args &args)
{
    Outcome out;
    exec::setGlobalThreads(1);
    Inputs in;
    // The search keeps the default trace and search seeds: its work
    // follows its path (213-452 evaluations across three seeds), so
    // a seeded search would measure the seed.  The seed moves the
    // plant's ambient weather instead, which changes every arm's
    // results but not the work the arms do.
    workload::GoogleTraceParams tp;
    tp.durationS = units::days(kDays);
    in.trace = workload::makeGoogleTrace(tp);
    in.space = opt::makeSearchSpace({server::rd330Spec(),
                                     server::x4470Spec(),
                                     server::openComputeSpec()});
    Rng rng(args.seed * 0x9e3779b97f4a7c15ULL + 0xd5ULL);
    in.plant.ambient.meanC = rng.uniform(14.0, 22.0);
    in.plant.ambient.amplitudeC = rng.uniform(4.0, 9.0);
    in.plant.ambient.peakHour = rng.uniform(13.0, 17.0);
    in.opts.budget = 96;
    in.opts.restarts = 4;
    in.opts.objective = opt::Objective::PeakCooling;
    in.opts.fleet.run.serverCount = kServers;
    in.opts.fleet.durationS = units::days(kDays);
    in.opts.fleet.controlIntervalS = 300.0;
    in.opts.fleet.thermalStepS = 60.0;
    in.opts.fleet.mixedPlatforms = true;
    const double setup_s = secondsSince(args.start);

    std::vector<double> plant_s[4];
    std::vector<Unit> units =
        timedUnits(in, args.seconds, out.checks, nullptr);
    out.attempted = units.size();
    const double run_s = sumOfPhaseMinima(units);
    const Unit &u = units.front();
    std::fprintf(stderr,
                 "design-search: units=%zu best=%.6g baseline=%.6g "
                 "oracle_calls=%llu evaluations=%llu\n",
                 units.size(), u.search.bestCost, u.search.baselineCost,
                 static_cast<unsigned long long>(u.search.oracleCalls),
                 static_cast<unsigned long long>(u.search.evaluations));

    if (!args.trace) {
        out.set("run_s", run_s, "s");
        out.set("setup_s", setup_s, "s");
        out.set("peak_rss_mb", selfPeakRssMb(), "MB");
        return out;
    }

    spans().setEnabled(true);
    obs::setEnabled(true);
    std::vector<Unit> traced =
        timedUnits(in, args.seconds, out.checks, plant_s);
    obs::setEnabled(false);
    out.attempted += traced.size();
    const auto profile = obs::profileSnapshot();
    const auto adv = profile.find("thermal.advance");
    const double per_unit = 1.0 / static_cast<double>(traced.size());

    out.set("trace.overhead_s", sumOfPhaseMinima(traced) - run_s, "s");
    out.set("opt.search_s", minimum(spans().durations("opt.search")),
            "s");
    out.set("opt.oracle_calls", static_cast<double>(u.search.oracleCalls),
            "count");
    out.set("opt.memo_hit_rate",
            u.search.evaluations == 0
                ? 0.0
                : static_cast<double>(u.search.memoHits) /
                    static_cast<double>(u.search.evaluations),
            "ratio");
    const char *plant_names[4] = {"plant.crac_s", "plant.hot_water_s",
                                  "plant.economizer_s", "plant.mpc_s"};
    for (int i = 0; i < 4; ++i)
        out.set(plant_names[i], minimum(plant_s[i]), "s");
    out.set("fleet.construct_ms",
            probeConstructMs(in.trace, designFleet(in, u.search.best)),
            "ms");
    out.set("thermal.advance_calls",
            adv == profile.end()
                ? 0.0
                : static_cast<double>(adv->second.calls) * per_unit,
            "count");
    out.set("thermal.advance_s",
            adv == profile.end()
                ? 0.0
                : static_cast<double>(adv->second.totalNs) * 1e-9 *
                    per_unit,
            "s");
    return out;
}

} // namespace perfbench
