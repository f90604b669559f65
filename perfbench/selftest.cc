/**
 * @file
 * Mutation self-test of the output checks: every check in checks.hh
 * must pass on real (small) outputs and fail when one value it reads
 * is perturbed.  Runs in a few seconds: `perfbench --selftest`
 * (run.py --selftest).
 */

#include <cmath>
#include <cstdio>
#include <functional>

#include "bench.hh"
#include "checks.hh"
#include "exec/parallel.hh"
#include "fleet/fleet.hh"
#include "opt/engine.hh"
#include "plant/study.hh"
#include "serve/eval.hh"
#include "server/server_spec.hh"
#include "util/units.hh"
#include "workload/google_trace.hh"

namespace perfbench {

namespace {

using namespace tts;

int g_failures = 0;

/** The check passes on true data and fails on the mutated copy. */
void
expectCatches(const std::string &name,
              const std::function<bool(Checks &)> &good,
              const std::function<bool(Checks &)> &mutated)
{
    Checks a, b;
    const bool pass = good(a);
    const bool caught = !mutated(b);
    std::printf("%-48s clean %s, perturbed %s\n", name.c_str(),
                pass ? "passes" : "FAILS", caught ? "caught" : "MISSED");
    if (!pass || !caught)
        ++g_failures;
}

struct SmallFleet
{
    FleetRecord record;
    std::size_t materializedRows = 0;
    std::size_t perturbedServers = 0;
};

/** fleet-2day's set-up at 480 servers, run at the given width. */
SmallFleet
smallFleet(std::size_t threads)
{
    exec::setGlobalThreads(threads);
    workload::GoogleTraceParams tp;
    const auto trace = workload::makeGoogleTrace(tp);
    const fleet::FleetConfig cfg = fleetConfig(480, 2.0, 0.05, 7);
    fleet::FleetSim sim(server::rd330Spec(), trace, cfg);
    const double start_j = storedEnthalpyJ(sim);
    sim.run();
    const double end_j = storedEnthalpyJ(sim);
    SmallFleet out;
    const fleet::FleetResult res = sim.take();
    out.record = fleetRecord(res, start_j, end_j);
    out.materializedRows = res.materializedRows;
    out.perturbedServers = cfg.extraEvents.size();
    exec::setGlobalThreads(1);
    return out;
}

void
fleetChecks()
{
    const SmallFleet narrow = smallFleet(1);
    const SmallFleet wide = smallFleet(2);
    const FleetRecord &ref = narrow.record;
    expectCatches(
        "fleet identical (one IT sample + 1 ulp)",
        [&](Checks &c) {
            return checkFleetIdentical(c, ref, wide.record, "2t");
        },
        [&](Checks &c) {
            FleetRecord m = wide.record;
            m.itW[m.itW.size() / 2] =
                std::nextafter(m.itW[m.itW.size() / 2], 1e300);
            return checkFleetIdentical(c, ref, m, "2t");
        });
    expectCatches(
        "fleet energy balance (end enthalpy +0.1% of IT)",
        [&](Checks &c) { return checkFleetEnergyBalance(c, ref); },
        [&](Checks &c) {
            FleetRecord m = ref;
            double it_j = 0.0;
            for (std::size_t k = 0; k + 1 < m.times.size(); ++k)
                it_j += m.itW[k] * (m.times[k + 1] - m.times[k]);
            m.enthalpyEndJ += 1e-3 * it_j;
            return checkFleetEnergyBalance(c, m);
        });
    expectCatches(
        "fleet peak shaving (peak cooling = peak IT)",
        [&](Checks &c) { return checkPeakShaving(c, ref); },
        [&](Checks &c) {
            FleetRecord m = ref;
            m.peakCoolingW = m.peakItW;
            return checkPeakShaving(c, m);
        });
    expectCatches(
        "fleet materialized rows (one extra row)",
        [&](Checks &c) {
            return checkMaterializedRows(c, narrow.materializedRows,
                                         narrow.perturbedServers);
        },
        [&](Checks &c) {
            return checkMaterializedRows(c, narrow.materializedRows + 1,
                                         narrow.perturbedServers);
        });
}

void
searchChecks(const workload::WorkloadTrace &trace)
{
    const opt::SearchSpace space = opt::makeSearchSpace(
        {server::rd330Spec(), server::x4470Spec(),
         server::openComputeSpec()});
    opt::OptOptions oo;
    oo.budget = 16;
    oo.restarts = 1;
    oo.fleet.run.serverCount = 12;
    oo.fleet.durationS = units::days(1.0);
    oo.fleet.controlIntervalS = 300.0;
    oo.fleet.thermalStepS = 60.0;
    oo.fleet.mixedPlatforms = true;
    const opt::OptResult r = opt::optimizeWaxPlacement(space, trace, oo);
    const opt::OptResult r2 = opt::optimizeWaxPlacement(space, trace, oo);
    const double again = opt::costOf(
        opt::evaluateCandidate(space, r.best, trace, oo), oo.objective);
    expectCatches(
        "opt re-evaluation (best cost + 1 ulp)",
        [&](Checks &c) {
            return checkSearchResult(c, r.bestCost, again, r.baselineCost);
        },
        [&](Checks &c) {
            return checkSearchResult(c, std::nextafter(r.bestCost, 1e300),
                                     again, r.baselineCost);
        });
    expectCatches(
        "opt beats paper (baseline below best)",
        [&](Checks &c) {
            return checkSearchResult(c, r.bestCost, again, r.baselineCost);
        },
        [&](Checks &c) {
            return checkSearchResult(c, r.bestCost, again,
                                     r.bestCost * (1.0 - 1e-9));
        });
    expectCatches(
        "opt repeated search (another policy)",
        [&](Checks &c) { return checkSameDesign(c, r, r2); },
        [&](Checks &c) {
            opt::OptResult m = r2;
            m.best.policy = (m.best.policy + 1) %
                static_cast<int>(space.policies.size());
            return checkSameDesign(c, r, m);
        });
}

void
plantChecks(const workload::WorkloadTrace &trace)
{
    plant::PlantScenario sc;
    sc.loadW = plant::clusterCoolingLoad(server::rd330Spec(),
                                         server::WaxConfig::paper(), 8,
                                         trace);
    sc.serverCount = 8;
    const std::vector<plant::BackendKind> kinds = {
        plant::BackendKind::HotWater, plant::BackendKind::Mpc};
    const plant::PlantComparison cmp =
        plant::compareBackends(sc, plant::PlantConfig{}, kinds);
    std::vector<plant::PlantResult> alone;
    for (plant::BackendKind k : kinds) {
        plant::PlantConfig pc;
        pc.options.kind = k;
        alone.push_back(plant::runPlant(sc, pc));
    }
    const double heat_j = heatDeliveredJ(sc.loadW);
    const plant::PlantResult &hot = alone[0];
    const plant::PlantResult &mpc = alone[1];

    expectCatches(
        "plant arm count (one backend more asked)",
        [&](Checks &c) {
            return checkArmCount(c, cmp.arms.size(), kinds.size());
        },
        [&](Checks &c) {
            return checkArmCount(c, cmp.arms.size(), kinds.size() + 1);
        });
    expectCatches(
        "plant serves all heat (unserved 1 J)",
        [&](Checks &c) { return checkPlantServesAll(c, hot); },
        [&](Checks &c) {
            plant::PlantResult m = hot;
            m.unservedJ = 1.0;
            return checkPlantServesAll(c, m);
        });
    expectCatches(
        "plant reuse bound (hot_water reused 1.01 x heat)",
        [&](Checks &c) { return checkPlantReuse(c, hot, heat_j); },
        [&](Checks &c) {
            plant::PlantResult m = hot;
            m.reusedEnergyJ = 1.01 * heat_j;
            return checkPlantReuse(c, m, heat_j);
        });
    expectCatches(
        "plant reuse bound (mpc reused 1.01 x heat)",
        [&](Checks &c) { return checkPlantReuse(c, mpc, heat_j); },
        [&](Checks &c) {
            plant::PlantResult m = mpc;
            m.reusedEnergyJ = 1.01 * heat_j;
            return checkPlantReuse(c, m, heat_j);
        });
    for (std::size_t i = 0; i < kinds.size(); ++i)
        expectCatches(
            "plant compare == runPlant (" + alone[i].backend +
                ", one electric sample)",
            [&](Checks &c) {
                return checkSameArm(c, cmp.arms[i], alone[i]);
            },
            [&](Checks &c) {
                plant::PlantResult m = alone[i];
                TimeSeries e;
                for (std::size_t k = 0; k < m.electricW.size(); ++k)
                    e.append(m.electricW.times()[k],
                             m.electricW.values()[k] *
                                 (k == m.electricW.size() / 2
                                      ? 1.0 + 1e-12
                                      : 1.0));
                m.electricW = e;
                return checkSameArm(c, cmp.arms[i], m);
            });
}

void
serveChecks()
{
    const std::string doc = "{\"study\": \"outage\", \"util\": 0.6}";
    const serve::Request req = serve::parseRequest(doc);
    const serve::Result res = serve::evaluate(req);
    const std::uint64_t fp = serve::fingerprint(req);
    const std::string text = serve::canonicalText(req);
    serve::Reply reply = serve::Reply::okReply(fp, false, 1.0, res);
    const std::string ok_json = reply.toJson();
    reply.ok = false;
    const std::string not_ok_json = reply.toJson();

    expectCatches(
        "serve reply ok (ok flag cleared)",
        [&](Checks &c) { return checkReplyOk(c, true, ok_json, "doc"); },
        [&](Checks &c) {
            return checkReplyOk(c, true, not_ok_json, "doc");
        });
    expectCatches(
        "serve reply == daemon-free eval (one key)",
        [&](Checks &c) { return checkReplyResult(c, res, res, doc); },
        [&](Checks &c) {
            serve::Result m = res;
            m.begin()->second += 1.0;
            return checkReplyResult(c, m, res, doc);
        });
    expectCatches(
        "serve cache class (a hit reported as a miss)",
        [&](Checks &c) { return checkCacheClass(c, true, true, "hit"); },
        [&](Checks &c) { return checkCacheClass(c, false, true, "hit"); });
    expectCatches(
        "serve fingerprint (one bit flipped)",
        [&](Checks &c) { return checkFingerprint(c, text, fp); },
        [&](Checks &c) { return checkFingerprint(c, text, fp ^ 1); });
    expectCatches(
        "serve reply order (two replies swapped)",
        [&](Checks &c) {
            return checkReplyOrder(c, {1, 2, 3}, {1, 2, 3}, 0);
        },
        [&](Checks &c) {
            return checkReplyOrder(c, {1, 2, 3}, {1, 3, 2}, 0);
        });
    expectCatches(
        "serve connections (one I/O error)",
        [&](Checks &c) { return checkConnections(c, false); },
        [&](Checks &c) { return checkConnections(c, true); });
    expectCatches(
        "serve daemon exit (nonzero status)",
        [&](Checks &c) { return checkDaemonExit(c, true); },
        [&](Checks &c) { return checkDaemonExit(c, false); });
    expectCatches(
        "serve evaluation count (one extra)",
        [&](Checks &c) { return checkEvaluationCount(c, 40, 40); },
        [&](Checks &c) { return checkEvaluationCount(c, 41, 40); });
}

} // namespace

int
runSelfTest()
{
    fleetChecks();
    workload::GoogleTraceParams tp;
    tp.durationS = units::days(1.0);
    const auto trace = workload::makeGoogleTrace(tp);
    searchChecks(trace);
    plantChecks(trace);
    serveChecks();
    std::printf("selftest: %s\n", g_failures == 0 ? "PASS" : "FAIL");
    return g_failures == 0 ? 0 : 1;
}

} // namespace perfbench
