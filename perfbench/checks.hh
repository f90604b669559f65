/**
 * @file
 * Output checks of the three workloads.  Each check compares a
 * result against a computation made apart from the timed code path,
 * or against a property the method must have - never against a
 * stored copy of an earlier output.  They are plain functions of
 * their inputs so that the self-test (selftest.cc) can show each one
 * failing when a single value it checks is perturbed; the workloads
 * make no check of their own outside this file.
 */

#ifndef PERFBENCH_CHECKS_HH
#define PERFBENCH_CHECKS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hh"
#include "fleet/fleet.hh"
#include "opt/engine.hh"
#include "plant/study.hh"
#include "serve/protocol.hh"
#include "util/time_series.hh"

namespace perfbench {

/** The parts of a fleet run the fleet checks read. */
struct FleetRecord
{
    std::uint64_t digest = 0;
    std::vector<double> times;
    std::vector<double> coolingW;
    std::vector<double> itW;
    double peakCoolingW = 0.0;
    double peakItW = 0.0;
    /** Summed node enthalpy over every server (J), start and end. */
    double enthalpyStartJ = 0.0;
    double enthalpyEndJ = 0.0;
};

/** Summed node enthalpy over every server of sim (J). */
double storedEnthalpyJ(const tts::fleet::FleetSim &sim);

/** The record of a finished run, given its start and end enthalpy. */
FleetRecord fleetRecord(const tts::fleet::FleetResult &r,
                        double enthalpy_start_j,
                        double enthalpy_end_j);

/**
 * fleet-2day's configuration at any size: the mixed fleet with a
 * stratified perturbation schedule of round(rate * servers * days)
 * events, each on a distinct server (see fleet_2day.cc).
 */
tts::fleet::FleetConfig fleetConfig(std::size_t servers, double days,
                                    double events_per_server_day,
                                    std::uint64_t seed);

/** Same digest and the same cooling/IT series, bit for bit. */
bool checkFleetIdentical(Checks &c, const FleetRecord &ref,
                         const FleetRecord &got,
                         const std::string &label);

/**
 * Energy balance: the rectangle-rule integral of IT power minus that
 * of the cooling load must equal the change in stored enthalpy.  IT
 * power is constant over each control interval, so its integral is
 * exact; the cooling load is sampled once per interval, so the
 * tolerance is the rectangle rule's error bound for a load that is
 * monotone between samples, dt * sum |c[k+1] - c[k]|.
 *
 * @param imbalance_out Relative imbalance (of the IT integral).
 */
bool checkFleetEnergyBalance(Checks &c, const FleetRecord &r,
                             double *imbalance_out = nullptr);

/** Peak shaving: the peak cooling load is below the peak IT power. */
bool checkPeakShaving(Checks &c, const FleetRecord &r);

/**
 * Dedupe: a run materializes exactly one row per perturbed server
 * (every event of the schedule targets a distinct server).
 */
bool checkMaterializedRows(Checks &c, std::size_t rows,
                           std::size_t perturbed_servers);

/**
 * The best candidate re-evaluated outside the memo reproduces its
 * cost bit for bit, and that cost is no worse than the paper's
 * deployment.
 */
bool checkSearchResult(Checks &c, double best_cost,
                       double reevaluated_cost, double baseline_cost);

/** A repeated search chooses the first search's design and cost. */
bool checkSameDesign(Checks &c, const tts::opt::OptResult &first,
                     const tts::opt::OptResult &again);

/**
 * Heat a cooling-load series delivers (J), taking the larger end of
 * each sample interval: an upper bound for a load monotone between
 * samples, so a bound check against it cannot fail on sampling.
 */
double heatDeliveredJ(const tts::TimeSeries &load);

/** compareBackends returned one arm per requested backend. */
bool checkArmCount(Checks &c, std::size_t arms, std::size_t expected);

/** A fault-free arm serves all heat: unservedJ == 0, retention 1. */
bool checkPlantServesAll(Checks &c,
                         const tts::plant::PlantResult &arm);

/** An arm reuses no more heat than the load delivered (and >= 0). */
bool checkPlantReuse(Checks &c, const tts::plant::PlantResult &arm,
                     double heat_in_j);

/** An arm of compareBackends equals a separate runPlant, exactly. */
bool checkSameArm(Checks &c, const tts::plant::PlantResult &a,
                  const tts::plant::PlantResult &b);

/**
 * A request got a well-formed ok reply: the frame came back and its
 * payload decodes to a reply with ok set.
 */
bool checkReplyOk(Checks &c, bool framed, const std::string &payload,
                  const std::string &what);

/** A reply's result equals the daemon-free evaluation of its doc. */
bool checkReplyResult(Checks &c, const tts::serve::Result &reply,
                      const tts::serve::Result &local,
                      const std::string &doc);

/** A reply came from the cache exactly when it was meant to. */
bool checkCacheClass(Checks &c, bool cache_hit, bool expect_hit,
                     const std::string &what);

/** The canonical text is non-empty and fp is its FNV-1a. */
bool checkFingerprint(Checks &c, const std::string &canonical,
                      std::uint64_t fp);

/** Replies arrive in request order: fingerprints match per slot. */
bool checkReplyOrder(Checks &c,
                     const std::vector<std::uint64_t> &sent,
                     const std::vector<std::uint64_t> &received,
                     std::size_t session);

/** Every session kept its connection to the end. */
bool checkConnections(Checks &c, bool io_error);

/** The daemon exited by itself with code 0 after the last session. */
bool checkDaemonExit(Checks &c, bool exited_clean);

/** Daemon evaluations equal the distinct canonical docs that missed. */
bool checkEvaluationCount(Checks &c, std::uint64_t evaluations,
                          std::uint64_t distinct_missed);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_HH
