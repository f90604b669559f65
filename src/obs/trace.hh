/**
 * @file
 * Structured event tracing with deterministic stream identity.
 *
 * Events are typed (EventKind), stamped with *simulation* time, and
 * keyed by a logical stream id (region, task, seq) rather than an OS
 * thread id:
 *
 *  - `region` is allocated from a global counter when an exec
 *    parallel region starts (0 = main-line code outside any region).
 *    Allocation happens on the launching thread, before any worker
 *    runs, so the sequence of region ids is the same at any pool
 *    width.
 *  - `task` is the loop index the event was emitted under.
 *  - `seq` is a per-(region, task) emission counter.
 *
 * A task's events land in a thread-local buffer and are flushed into
 * the global collected list under a mutex when the TaskScope ends,
 * so emission itself never contends.  Sorting the drained events by
 * (region, task, seq) therefore yields byte-identical traces at 1
 * and 8 threads for the same seed.
 */

#ifndef TTS_OBS_TRACE_HH
#define TTS_OBS_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace tts {
namespace obs {

/** Event taxonomy; names via eventKindName() (DESIGN.md section 12). */
enum class EventKind
{
    MeltOnset,         //!< PCM element began absorbing latent heat.
    MeltComplete,      //!< PCM element fully molten.
    MeltRefrozen,      //!< PCM element returned to fully solid.
    ThrottleOn,        //!< DVFS emergency throttle engaged.
    ThrottleOff,       //!< DVFS emergency throttle released.
    FaultInjected,     //!< FaultInjector / DCSim applied an event.
    GuardRetry,        //!< Audit trip; advance retried at smaller dt.
    GuardFallback,     //!< Retries exhausted; adaptive fallback ran.
    GuardTrip,         //!< Fallback also failed; NumericsError thrown.
    GuardCounters,     //!< End-of-arm guard bookkeeping summary.
    CheckpointSave,    //!< Resilience checkpoint written.
    CheckpointRestore, //!< Resilience checkpoint restored.
    JobDispatch,       //!< DCSim job accepted onto a server.
    JobCrashKill,      //!< DCSim jobs killed by a server crash.
    PhaseBegin,        //!< Study phase started.
    PhaseEnd,          //!< Study phase finished.
    OptStep,           //!< Wax-placement search iteration sample.
    PlantControl,      //!< Cooling-plant backend control decision.
};

/** @return Stable dotted name, e.g. "melt.onset". */
const char *eventKindName(EventKind kind);

/** One trace record; see the file comment for the stream identity. */
struct TraceEvent
{
    std::uint64_t region = 0; //!< Parallel-region id (0 = main).
    std::uint64_t task = 0;   //!< Task index within the region.
    std::uint64_t seq = 0;    //!< Emission counter within the task.
    double timeS = 0.0;       //!< Simulation time, seconds.
    EventKind kind = EventKind::PhaseBegin;
    std::string name;         //!< Subject, e.g. "with_wax/srv/wax".
    double value = 0.0;       //!< Kind-specific payload.
    std::int64_t target = -1; //!< Server / attempt index, -1 = none.
};

/**
 * Record an event on the calling thread's current stream.  No-op
 * when collection is disabled; prefer the TTS_OBS_EVENT macro so the
 * argument expressions are not even evaluated in that case.
 */
void emitEvent(EventKind kind, double time_s, const std::string &name,
               double value = 0.0, std::int64_t target = -1);

/**
 * Allocate a fresh region id.  Call on the thread that launches a
 * parallel region, before any task runs.
 */
std::uint64_t beginRegion();

/** @return True if a TaskScope is active on this thread. */
bool inTaskScope();

/**
 * RAII stream binding for one task of a parallel region.  Installs a
 * thread-local (region, task) context with seq starting at 0; the
 * destructor flushes the task's events into the global list and
 * restores the previous context.
 */
class TaskScope
{
  public:
    TaskScope(std::uint64_t region, std::uint64_t task);
    ~TaskScope();

    TaskScope(const TaskScope &) = delete;
    TaskScope &operator=(const TaskScope &) = delete;

    struct Ctx;

  private:
    Ctx *ctx_;
    Ctx *prev_;
};

/**
 * Flush the calling thread's main-line buffer and move every
 * collected event out, sorted by (region, task, seq).  Worker-thread
 * buffers flush when their TaskScope ends, and a region's tasks have
 * all ended when forIndex returns, so their events are already in
 * the collected list.
 */
std::vector<TraceEvent> drainEvents();

/** On-disk encodings for writeTraceFile(). */
enum class TraceFormat
{
    Jsonl,  //!< One JSON object per line, fixed key order.
    Chrome, //!< Chrome trace_event JSON (chrome://tracing, Perfetto).
};

/** Serialize events (assumed sorted) as JSONL. */
void writeJsonl(std::ostream &out,
                const std::vector<TraceEvent> &events);

/** Serialize events as a Chrome trace_event document. */
void writeChromeTrace(std::ostream &out,
                      const std::vector<TraceEvent> &events);

/** Drain and write to `path`; throws FatalError on I/O failure. */
void writeTraceFile(const std::string &path, TraceFormat format);

} // namespace obs
} // namespace tts

#endif // TTS_OBS_TRACE_HH
