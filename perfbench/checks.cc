#include "checks.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>

namespace perfbench {

namespace {

std::string
fmt(const std::string &f, double a, double b)
{
    char buf[200];
    std::snprintf(buf, sizeof buf, f.c_str(), a, b);
    return buf;
}

} // namespace

bool
checkFleetIdentical(Checks &c, const FleetRecord &ref,
                    const FleetRecord &got, const std::string &label)
{
    return c.expect(ref.digest == got.digest &&
                        ref.times == got.times &&
                        ref.coolingW == got.coolingW &&
                        ref.itW == got.itW,
                    "fleet: " + label +
                        " differs from the 1-thread reference run");
}

bool
checkFleetEnergyBalance(Checks &c, const FleetRecord &r,
                        double *imbalance_out)
{
    const std::size_t n = r.times.size();
    if (!c.expect(n >= 2 && r.coolingW.size() == n && r.itW.size() == n,
                  "fleet: series too short for an energy balance"))
        return false;
    double it_j = 0.0, cooling_j = 0.0, bound_j = 0.0;
    for (std::size_t k = 0; k + 1 < n; ++k) {
        const double dt = r.times[k + 1] - r.times[k];
        it_j += r.itW[k] * dt;
        cooling_j += r.coolingW[k] * dt;
        bound_j += std::fabs(r.coolingW[k + 1] - r.coolingW[k]) * dt;
    }
    const double stored_j = r.enthalpyEndJ - r.enthalpyStartJ;
    const double imbalance_j = it_j - cooling_j - stored_j;
    if (imbalance_out)
        *imbalance_out = imbalance_j / it_j;
    return c.expect(std::fabs(imbalance_j) <= bound_j,
                    fmt("fleet: energy imbalance %.6g J exceeds the "
                        "sampling bound %.6g J",
                        imbalance_j, bound_j));
}

bool
checkPeakShaving(Checks &c, const FleetRecord &r)
{
    return c.expect(r.peakCoolingW < r.peakItW &&
                        r.peakCoolingW > 0.0,
                    fmt("fleet: peak cooling %.6g W is not below peak "
                        "IT %.6g W",
                        r.peakCoolingW, r.peakItW));
}

bool
checkMaterializedRows(Checks &c, std::size_t rows,
                      std::size_t perturbed_servers)
{
    return c.expect(rows == perturbed_servers,
                    fmt("fleet: %.0f materialized rows for %.0f "
                        "perturbed servers",
                        static_cast<double>(rows),
                        static_cast<double>(perturbed_servers)));
}

bool
checkSearchResult(Checks &c, double best_cost, double reevaluated_cost,
                  double baseline_cost)
{
    bool ok = c.expect(best_cost == reevaluated_cost,
                       fmt("opt: best cost %.17g re-evaluates to %.17g",
                           best_cost, reevaluated_cost));
    return c.expect(best_cost <= baseline_cost,
                    fmt("opt: best cost %.17g is worse than the paper "
                        "deployment %.17g",
                        best_cost, baseline_cost)) &&
        ok;
}

bool
checkSameDesign(Checks &c, const tts::opt::OptResult &first,
                const tts::opt::OptResult &again)
{
    return c.expect(again.best == first.best &&
                        again.bestCost == first.bestCost,
                    fmt("opt: a repeated search chose cost %.17g "
                        "after %.17g",
                        again.bestCost, first.bestCost));
}

double
heatDeliveredJ(const tts::TimeSeries &load)
{
    double j = 0.0;
    for (std::size_t k = 0; k + 1 < load.size(); ++k)
        j += std::max(load.values()[k], load.values()[k + 1]) *
            (load.times()[k + 1] - load.times()[k]);
    return j;
}

bool
checkArmCount(Checks &c, std::size_t arms, std::size_t expected)
{
    return c.expect(arms == expected,
                    fmt("plant: compareBackends returned %.0f arms for "
                        "%.0f backends",
                        static_cast<double>(arms),
                        static_cast<double>(expected)));
}

bool
checkPlantServesAll(Checks &c, const tts::plant::PlantResult &arm)
{
    return c.expect(arm.unservedJ == 0.0 &&
                        arm.throughputRetention == 1.0,
                    fmt("plant " + arm.backend +
                            ": unserved %.6g J, retention %.17g",
                        arm.unservedJ, arm.throughputRetention));
}

bool
checkPlantReuse(Checks &c, const tts::plant::PlantResult &arm,
                double heat_in_j)
{
    return c.expect(arm.reusedEnergyJ >= 0.0 &&
                        arm.reusedEnergyJ <= heat_in_j,
                    fmt("plant " + arm.backend +
                            ": reused %.6g J of %.6g J of heat",
                        arm.reusedEnergyJ, heat_in_j));
}

bool
checkSameArm(Checks &c, const tts::plant::PlantResult &a,
             const tts::plant::PlantResult &b)
{
    const bool same = a.backend == b.backend && a.steps == b.steps &&
        a.electricEnergyJ == b.electricEnergyJ &&
        a.peakElectricW == b.peakElectricW &&
        a.energyCostUsd == b.energyCostUsd &&
        a.reusedEnergyJ == b.reusedEnergyJ &&
        a.reuseCreditUsd == b.reuseCreditUsd &&
        a.shedComputeJ == b.shedComputeJ &&
        a.dvfsPenaltyUsd == b.dvfsPenaltyUsd &&
        a.netCostUsd == b.netCostUsd &&
        a.yearlyNetCostUsd == b.yearlyNetCostUsd &&
        a.unservedJ == b.unservedJ &&
        a.throughputRetention == b.throughputRetention &&
        a.bufferDischargeJ == b.bufferDischargeJ &&
        a.electricW.times() == b.electricW.times() &&
        a.electricW.values() == b.electricW.values();
    return c.expect(same, "plant " + a.backend +
                              ": compareBackends arm differs from a "
                              "separate runPlant");
}

bool
checkReplyOk(Checks &c, bool framed, const std::string &payload,
             const std::string &what)
{
    bool ok = false;
    if (framed) {
        try {
            ok = tts::serve::Reply::fromJson(payload).ok;
        } catch (const std::exception &) {
            ok = false;
        }
    }
    return c.expect(ok, "serve: " + what + " got no ok reply");
}

bool
checkReplyResult(Checks &c, const tts::serve::Result &reply,
                 const tts::serve::Result &local, const std::string &doc)
{
    return c.expect(reply == local,
                    "serve: reply differs from the daemon-free "
                    "evaluation of " +
                        doc);
}

bool
checkCacheClass(Checks &c, bool cache_hit, bool expect_hit,
                const std::string &what)
{
    return c.expect(cache_hit == expect_hit,
                    "serve: " + what + " was answered " +
                        (cache_hit ? "from" : "past") + " the cache");
}

bool
checkFingerprint(Checks &c, const std::string &canonical,
                 std::uint64_t fp)
{
    return c.expect(!canonical.empty() &&
                        fp == tts::serve::fnv1a(canonical),
                    "serve: fingerprint is not the FNV-1a of the "
                    "canonical text");
}

bool
checkReplyOrder(Checks &c, const std::vector<std::uint64_t> &sent,
                const std::vector<std::uint64_t> &received,
                std::size_t session)
{
    return c.expect(sent == received,
                    "serve: session " + std::to_string(session) +
                        " got replies out of request order");
}

bool
checkConnections(Checks &c, bool io_error)
{
    return c.expect(!io_error, "serve: a session lost its connection");
}

bool
checkDaemonExit(Checks &c, bool exited_clean)
{
    return c.expect(exited_clean, "serve: daemon did not exit cleanly");
}

bool
checkEvaluationCount(Checks &c, std::uint64_t evaluations,
                     std::uint64_t distinct_missed)
{
    return c.expect(evaluations == distinct_missed,
                    fmt("serve: daemon evaluated %.0f documents, "
                        "%.0f distinct ones missed",
                        static_cast<double>(evaluations),
                        static_cast<double>(distinct_missed)));
}

} // namespace perfbench
