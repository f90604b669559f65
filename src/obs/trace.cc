#include "obs/trace.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <ostream>
#include <sstream>
#include <tuple>
#include <utility>

#include "obs/enabled.hh"
#include "util/error.hh"

namespace tts {
namespace obs {

struct TaskScope::Ctx
{
    std::uint64_t region = 0;
    std::uint64_t task = 0;
    std::uint64_t seq = 0;
    std::vector<TraceEvent> buf;
};

namespace {

using Ctx = TaskScope::Ctx;

std::mutex g_mu;
std::vector<TraceEvent> g_collected;        // Guarded by g_mu.
std::atomic<std::uint64_t> g_next_region{1};

thread_local Ctx *tl_ctx = nullptr;

void
flushCtx(Ctx &ctx)
{
    if (ctx.buf.empty())
        return;
    std::lock_guard<std::mutex> lock(g_mu);
    g_collected.insert(g_collected.end(),
                       std::make_move_iterator(ctx.buf.begin()),
                       std::make_move_iterator(ctx.buf.end()));
    ctx.buf.clear();
}

/**
 * Stream (region 0, task 0): main-line emission on threads that are
 * not inside a TaskScope.  Flushed on drain and at thread exit.
 * While tracing is on, exec's workers run tasks only inside a
 * TaskScope (a region launched from within a TaskScope runs on its
 * caller), so events from their tasks never wait here.
 */
struct MainCtx
{
    Ctx ctx;
    ~MainCtx() { flushCtx(ctx); }
};

Ctx &
mainCtx()
{
    thread_local MainCtx m;
    return m.ctx;
}

void
appendEscaped(std::string &out, const std::string &s)
{
    for (char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
}

std::string
formatDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

const char *
eventKindName(EventKind kind)
{
    switch (kind) {
    case EventKind::MeltOnset:
        return "melt.onset";
    case EventKind::MeltComplete:
        return "melt.complete";
    case EventKind::MeltRefrozen:
        return "melt.refrozen";
    case EventKind::ThrottleOn:
        return "dvfs.throttle_on";
    case EventKind::ThrottleOff:
        return "dvfs.throttle_off";
    case EventKind::FaultInjected:
        return "fault.injected";
    case EventKind::GuardRetry:
        return "guard.retry";
    case EventKind::GuardFallback:
        return "guard.fallback";
    case EventKind::GuardTrip:
        return "guard.trip";
    case EventKind::GuardCounters:
        return "guard.counters";
    case EventKind::CheckpointSave:
        return "checkpoint.save";
    case EventKind::CheckpointRestore:
        return "checkpoint.restore";
    case EventKind::JobDispatch:
        return "job.dispatch";
    case EventKind::JobCrashKill:
        return "job.crash_kill";
    case EventKind::OptStep:
        return "opt.step";
    case EventKind::PlantControl:
        return "plant.control";
    case EventKind::PhaseBegin:
        return "phase.begin";
    case EventKind::PhaseEnd:
        return "phase.end";
    }
    return "unknown";
}

void
emitEvent(EventKind kind, double time_s, const std::string &name,
          double value, std::int64_t target)
{
    if (!enabled())
        return;
    Ctx *ctx = tl_ctx ? tl_ctx : &mainCtx();
    TraceEvent e;
    e.region = ctx->region;
    e.task = ctx->task;
    e.seq = ctx->seq++;
    e.timeS = time_s;
    e.kind = kind;
    e.name = name;
    e.value = value;
    e.target = target;
    ctx->buf.push_back(std::move(e));
}

std::uint64_t
beginRegion()
{
    return g_next_region.fetch_add(1, std::memory_order_relaxed);
}

bool
inTaskScope()
{
    return tl_ctx != nullptr;
}

TaskScope::TaskScope(std::uint64_t region, std::uint64_t task)
    : ctx_(new Ctx), prev_(tl_ctx)
{
    ctx_->region = region;
    ctx_->task = task;
    tl_ctx = ctx_;
}

TaskScope::~TaskScope()
{
    flushCtx(*ctx_);
    tl_ctx = prev_;
    delete ctx_;
}

std::vector<TraceEvent>
drainEvents()
{
    flushCtx(mainCtx());
    std::vector<TraceEvent> out;
    {
        std::lock_guard<std::mutex> lock(g_mu);
        out.swap(g_collected);
    }
    std::sort(out.begin(), out.end(),
              [](const TraceEvent &a, const TraceEvent &b) {
                  return std::tie(a.region, a.task, a.seq) <
                         std::tie(b.region, b.task, b.seq);
              });
    return out;
}

namespace detail {

void
resetTrace()
{
    {
        std::lock_guard<std::mutex> lock(g_mu);
        g_collected.clear();
    }
    g_next_region.store(1, std::memory_order_relaxed);
    Ctx &main = mainCtx();
    main.seq = 0;
    main.buf.clear();
}

} // namespace detail

void
writeJsonl(std::ostream &out, const std::vector<TraceEvent> &events)
{
    std::string line;
    for (const TraceEvent &e : events) {
        line.clear();
        line += "{\"rg\":";
        line += std::to_string(e.region);
        line += ",\"tk\":";
        line += std::to_string(e.task);
        line += ",\"sq\":";
        line += std::to_string(e.seq);
        line += ",\"t\":";
        line += formatDouble(e.timeS);
        line += ",\"kind\":\"";
        line += eventKindName(e.kind);
        line += "\",\"name\":\"";
        appendEscaped(line, e.name);
        line += "\",\"v\":";
        line += formatDouble(e.value);
        line += ",\"tgt\":";
        line += std::to_string(e.target);
        line += "}\n";
        out << line;
    }
}

void
writeChromeTrace(std::ostream &out,
                 const std::vector<TraceEvent> &events)
{
    // Instant events throughout: melt and throttle windows could be
    // drawn as durations, but Chrome "B"/"E" pairs require strict
    // stack nesting per track and PCM elements melt concurrently.
    // Instants render on every viewer and keep the exporter simple;
    // the JSONL format carries the same information losslessly.
    out << "{\"traceEvents\":[";
    bool first = true;
    std::string entry;
    for (const TraceEvent &e : events) {
        entry.clear();
        if (!first)
            entry += ",";
        first = false;
        entry += "\n{\"name\":\"";
        std::string label = eventKindName(e.kind);
        if (!e.name.empty()) {
            label += " ";
            label += e.name;
        }
        appendEscaped(entry, label);
        entry += "\",\"cat\":\"tts\",\"ph\":\"i\",\"s\":\"t\",";
        // Simulation seconds -> trace microseconds.
        entry += "\"ts\":";
        entry += formatDouble(e.timeS * 1e6);
        entry += ",\"pid\":";
        entry += std::to_string(e.region);
        entry += ",\"tid\":";
        entry += std::to_string(e.task);
        entry += ",\"args\":{\"v\":";
        entry += formatDouble(e.value);
        entry += ",\"tgt\":";
        entry += std::to_string(e.target);
        entry += ",\"sq\":";
        entry += std::to_string(e.seq);
        entry += "}}";
        out << entry;
    }
    out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

void
writeTraceFile(const std::string &path, TraceFormat format)
{
    std::vector<TraceEvent> events = drainEvents();
    std::ofstream out(path);
    require(out.good(),
            "writeTraceFile: cannot open '" + path + "'");
    if (format == TraceFormat::Jsonl)
        writeJsonl(out, events);
    else
        writeChromeTrace(out, events);
    out.flush();
    require(out.good(), "writeTraceFile: write failed: '" + path +
                            "'");
}

} // namespace obs
} // namespace tts
