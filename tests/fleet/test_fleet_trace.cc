/**
 * @file
 * Fleet trace determinism: the sorted event stream of a traced fleet
 * run is byte-identical at 1 and 4 pool threads, both when FleetSim
 * runs on the main line (each step is a traced region) and when it
 * runs as the single job of a sweep (each step's region is nested in
 * the job's TaskScope, so every row event belongs to that task).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "exec/parallel.hh"
#include "fleet/fleet.hh"
#include "fleet/sweep.hh"
#include "obs/obs.hh"
#include "server/server_spec.hh"
#include "util/units.hh"
#include "workload/google_trace.hh"

namespace tts {
namespace fleet {
namespace {

FleetConfig
tracedConfig()
{
    FleetConfig cfg;
    cfg.run.serverCount = 96;
    cfg.durationS = units::days(1.0);
    cfg.controlIntervalS = 300.0;
    cfg.thermalStepS = 60.0;
    cfg.perturb.eventsPerServerDay = 6.0;
    return cfg;
}

struct Trace
{
    std::string jsonl;
    std::size_t events = 0;
    std::size_t rowMeltEvents = 0;
};

/** Run `body` traced on a `threads`-wide global pool. */
template <typename Body>
Trace
tracedAt(std::size_t threads, Body body)
{
    exec::setGlobalThreads(threads);
    obs::resetForTest();
    obs::setEnabled(true);
    body();
    obs::setEnabled(false);
    std::vector<obs::TraceEvent> events = obs::drainEvents();
    exec::setGlobalThreads(1);
    obs::resetForTest();

    Trace t;
    t.events = events.size();
    for (const obs::TraceEvent &e : events)
        if (e.kind == obs::EventKind::MeltOnset)
            ++t.rowMeltEvents;
    std::ostringstream out;
    obs::writeJsonl(out, events);
    t.jsonl = out.str();
    return t;
}

/** A diurnal day: wax melts at the peak and refreezes after. */
workload::WorkloadTrace
dayTrace()
{
    workload::GoogleTraceParams tp;
    tp.durationS = units::days(1.0);
    return workload::makeGoogleTrace(tp);
}

void
runDirect()
{
    FleetSim sim(server::rd330Spec(), dayTrace(),
                 tracedConfig());
    EXPECT_TRUE(sim.run());
}

void
runOneJobSweep()
{
    SweepJob job{server::rd330Spec(), dayTrace(),
                 tracedConfig()};
    EXPECT_EQ(runFleetSweep({job}).size(), 1u);
}

TEST(FleetTrace, MainLineRunIsThreadCountInvariant)
{
    Trace serial = tracedAt(1, runDirect);
    Trace parallel = tracedAt(4, runDirect);
    // Melt onsets come from the baselines and the materialized rows
    // alike; more than one arena's worth shows rows emitted too.
    EXPECT_GT(serial.rowMeltEvents, 1u);
    EXPECT_EQ(serial.events, parallel.events);
    EXPECT_TRUE(serial.jsonl == parallel.jsonl);
}

TEST(FleetTrace, OneJobSweepIsThreadCountInvariant)
{
    Trace serial = tracedAt(1, runOneJobSweep);
    Trace parallel = tracedAt(4, runOneJobSweep);
    EXPECT_GT(serial.rowMeltEvents, 1u);
    EXPECT_EQ(serial.events, parallel.events);
    EXPECT_TRUE(serial.jsonl == parallel.jsonl);
}

} // namespace
} // namespace fleet
} // namespace tts
