/**
 * @file
 * serve-mix: a `tts_serve socket` daemon (2 workers, default batch
 * window, TTS_THREADS=1 so busy threads stay at most 2 + the mux)
 * whose manifest warms a hot set of fleet studies, driven by one
 * client process over 4 closed-loop sessions (one request in flight
 * per session).
 *
 * Each round, every session sends 9 requests in a seeded order: 7
 * repeats of the hot set (cache hits), 1 distinct fleet study (a
 * batchable miss that waits in the batcher's window) and 1 distinct
 * cooling, outage, resilience or economizer-plant study (a miss that
 * never batches; the 4 sessions cover the 4 classes every round).
 * Sessions meet at a barrier between rounds, so one round is a fixed
 * block of 36 requests; run_s is the median round time.  These
 * proportions are an assumption chosen so that every round holds each
 * kind of request, not a measured traffic mix (README.md).
 *
 * All checks run after the daemon has exited, outside the timed
 * path: every reply is compared with a daemon-free serve::evaluate of
 * its document computed here, replies must come back in request
 * order, and the daemon's evaluation count must equal the distinct
 * documents that missed.
 */

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench.hh"
#include "checks.hh"
#include "exec/parallel.hh"
#include "serve/cache.hh"
#include "serve/daemon.hh"
#include "serve/eval.hh"
#include "serve/protocol.hh"
#include "util/kv_json.hh"
#include "util/random.hh"

extern char **environ;

namespace perfbench {

namespace {

using namespace tts;

constexpr std::size_t kSessions = 4;
constexpr std::size_t kHitsPerSession = 7;
constexpr std::size_t kHotSet = 8;

enum class Kind
{
    Hit,
    FleetMiss,
    Cooling,
    Outage,
    Resilience,
    Plant,
};
constexpr std::size_t kKinds = 6;

const char *const kKindNames[kKinds] = {"hit", "fleet", "cooling",
                                        "outage", "resilience",
                                        "plant"};

/** One request as sent and answered. */
struct Sample
{
    Kind kind = Kind::Hit;
    std::size_t doc = 0;      //!< Index into Mix::docs.
    std::size_t round = 0;
    bool traced = false;
    double latencyMs = 0.0;
    double evalMs = 0.0;
    bool ok = false;
    bool cacheHit = false;
    std::uint64_t fp = 0;     //!< The reply's fingerprint.
    Clock::time_point sent;   //!< Client clock: encode started.
    Clock::time_point done;   //!< Client clock: reply read.
    serve::Result result;
};

std::string
num(double x)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6f", x);
    return buf;
}

/** The seeded request documents. */
struct Mix
{
    std::uint64_t seed = 0;
    std::vector<std::string> docs;
    std::vector<Kind> kinds;
    std::vector<std::uint64_t> fps;

    /** Utilization in [0.55, 0.65), distinct per (kind, counter). */
    double util(std::size_t counter, std::size_t salt) const
    {
        const double phi = 0.6180339887498949;
        const double off =
            static_cast<double>((seed * 0x9e3779b97f4a7c15ULL + salt) >>
                                11) *
            0x1.0p-53;
        const double frac = std::fmod(
            off + static_cast<double>(counter) * phi, 1.0);
        return 0.55 + 0.1 * frac;
    }

    std::size_t add(Kind kind, std::string doc)
    {
        docs.push_back(std::move(doc));
        kinds.push_back(kind);
        fps.push_back(serve::fingerprint(serve::parseRequest(docs.back())));
        return docs.size() - 1;
    }

    /** A fresh miss document of kind (counter makes it distinct). */
    std::string missDoc(Kind kind, std::size_t counter) const
    {
        const std::string u = num(util(counter, static_cast<int>(kind)));
        switch (kind) {
          case Kind::FleetMiss:
            return "{\"study\": \"fleet\", \"servers\": 4032, "
                   "\"util\": " + u + "}";
          case Kind::Cooling:
            return "{\"study\": \"cooling\", \"servers\": 8, "
                   "\"days\": 0.5, \"util\": " + u + "}";
          case Kind::Outage:
            return "{\"study\": \"outage\", \"util\": " + u + "}";
          case Kind::Resilience:
            return "{\"study\": \"resilience\", \"horizon_s\": 1800, "
                   "\"util\": " + u + "}";
          case Kind::Plant:
            return "{\"study\": \"plant\", \"plant_backend\": "
                   "\"economizer\", \"servers\": 8, \"days\": 0.5, "
                   "\"util\": " + u + "}";
          case Kind::Hit:
            break;
        }
        return "";
    }
};

/** A blocking framed client connection. */
class Session
{
  public:
    explicit Session(const std::string &path)
    {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                      path.c_str());
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd_ >= 0 &&
            ::connect(fd_, reinterpret_cast<const sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }
    ~Session() { close(); }
    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    bool connected() const { return fd_ >= 0; }

    void close()
    {
        if (fd_ >= 0)
            ::close(fd_);
        fd_ = -1;
    }

    /** Send one request, wait for its reply payload. */
    bool roundTrip(const std::string &frame, std::string *reply)
    {
        std::size_t off = 0;
        while (off < frame.size()) {
            const ssize_t n =
                ::write(fd_, frame.data() + off, frame.size() - off);
            if (n <= 0)
                return false;
            off += static_cast<std::size_t>(n);
        }
        serve::FrameResult fr;
        while (!decoder_.next(&fr)) {
            char buf[8192];
            const ssize_t n = ::read(fd_, buf, sizeof buf);
            if (n <= 0)
                return false;
            decoder_.feed(buf, static_cast<std::size_t>(n));
        }
        if (fr.status != serve::FrameStatus::Ok)
            return false;
        *reply = std::move(fr.payload);
        return true;
    }

  private:
    int fd_ = -1;
    serve::FrameDecoder decoder_;
};

std::string
framed(const std::string &payload)
{
    std::ostringstream out;
    serve::writeFrame(out, payload);
    return out.str();
}

/** The daemon child process. */
struct DaemonProc
{
    pid_t pid = -1;
    rusage usage{};
    int status = 0;

    bool spawn(const std::vector<std::string> &argv)
    {
        std::vector<char *> cargv;
        for (const std::string &a : argv)
            cargv.push_back(const_cast<char *>(a.c_str()));
        cargv.push_back(nullptr);
        std::vector<std::string> env_store;
        for (char **e = environ; *e; ++e)
            if (std::strncmp(*e, "TTS_THREADS=", 12) != 0)
                env_store.emplace_back(*e);
        env_store.emplace_back("TTS_THREADS=1");
        std::vector<char *> cenv;
        for (std::string &e : env_store)
            cenv.push_back(e.data());
        cenv.push_back(nullptr);
        return posix_spawn(&pid, cargv[0], nullptr, nullptr,
                           cargv.data(), cenv.data()) == 0;
    }

    /** Wait up to timeout_s, then kill; collects rusage. */
    bool reap(double timeout_s)
    {
        if (pid < 0)
            return false;
        const Clock::time_point t0 = Clock::now();
        while (true) {
            const pid_t r = wait4(pid, &status, WNOHANG, &usage);
            if (r == pid) {
                pid = -1;
                return WIFEXITED(status) && WEXITSTATUS(status) == 0;
            }
            if (secondsSince(t0) > timeout_s) {
                ::kill(pid, SIGKILL);
                wait4(pid, &status, 0, &usage);
                pid = -1;
                return false;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
    }

    ~DaemonProc()
    {
        if (pid > 0) {
            ::kill(pid, SIGKILL);
            wait4(pid, &status, 0, &usage);
        }
    }
};

struct RoundLog
{
    std::vector<Clock::time_point> bounds; //!< Round start/end marks.
    std::vector<bool> traced;             //!< Per round.
};

/**
 * Drive rounds on the 4 sessions until `seconds` pass (whole rounds).
 * Appends each session's samples to per_session in send order.
 */
void
driveRounds(Mix &mix, std::vector<std::unique_ptr<Session>> &sessions,
            double seconds, bool traced, std::size_t &round_counter,
            std::size_t &miss_counter, RoundLog &log,
            std::vector<std::vector<Sample>> &per_session,
            std::atomic<bool> &io_error)
{
    const Clock::time_point t0 = Clock::now();
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> request_ids{round_counter * 64};
    // Round plans are fixed before the round starts (under the
    // barrier's completion step), so every session sends exactly the
    // block it was given whatever the timing.
    std::vector<std::vector<std::size_t>> plan(kSessions);
    auto plan_round = [&] {
        const std::size_t r = round_counter;
        for (std::size_t s = 0; s < kSessions; ++s) {
            Rng rng(mix.seed * 1000003ULL + r * kSessions + s + 1);
            std::vector<std::size_t> docs;
            for (std::size_t h = 0; h < kHitsPerSession; ++h)
                docs.push_back(rng.uniformInt(kHotSet));
            docs.push_back(mix.add(
                Kind::FleetMiss,
                mix.missDoc(Kind::FleetMiss, miss_counter++)));
            const Kind study =
                static_cast<Kind>(2 + (s + r) % 4);
            docs.push_back(
                mix.add(study, mix.missDoc(study, miss_counter++)));
            for (std::size_t i = docs.size(); i > 1; --i)
                std::swap(docs[i - 1], docs[rng.uniformInt(i)]);
            plan[s] = std::move(docs);
        }
    };
    plan_round();
    log.bounds.push_back(Clock::now());
    auto on_round_end = [&]() noexcept {
        log.bounds.push_back(Clock::now());
        log.traced.push_back(traced);
        ++round_counter;
        if (secondsSince(t0) >= seconds || io_error.load())
            stop.store(true);
        else
            plan_round();
    };
    std::barrier sync(static_cast<std::ptrdiff_t>(kSessions),
                      on_round_end);

    std::vector<std::thread> threads;
    for (std::size_t s = 0; s < kSessions; ++s) {
        threads.emplace_back([&, s] {
            while (!stop.load()) {
                const std::size_t r = round_counter;
                for (std::size_t doc : plan[s]) {
                    if (io_error.load())
                        break;
                    Sample smp;
                    smp.doc = doc;
                    smp.kind = mix.kinds[doc];
                    smp.round = r;
                    smp.traced = traced;
                    const std::uint64_t request_id = ++request_ids;
                    std::string payload;
                    const Clock::time_point a = Clock::now();
                    const std::string frame = framed(mix.docs[doc]);
                    const Clock::time_point b = Clock::now();
                    const bool ok =
                        sessions[s]->roundTrip(frame, &payload);
                    const Clock::time_point c = Clock::now();
                    if (!ok) {
                        io_error.store(true);
                        break;
                    }
                    serve::Reply reply = serve::Reply::fromJson(payload);
                    const Clock::time_point d = Clock::now();
                    smp.latencyMs =
                        std::chrono::duration<double, std::milli>(c - a)
                            .count();
                    smp.ok = reply.ok;
                    smp.cacheHit = reply.cacheHit;
                    smp.evalMs = reply.evalMs;
                    smp.fp = reply.fingerprintValue;
                    smp.sent = a;
                    smp.done = c;
                    smp.result = std::move(reply.result);
                    per_session[s].push_back(std::move(smp));
                    spans().add("serve.encode", request_id, a, b);
                    spans().add("serve.request", request_id, b, c);
                    spans().add("serve.decode", request_id, c, d);
                }
                // Every session arrives, even after an I/O error, so
                // the barrier never strands the others.
                sync.arrive_and_wait();
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
}

/** Fixed-work probes of the cache and serve layers, in-process. */
void
probeServeLayers(const Mix &mix, Outcome &out, double hit_p50_ms)
{
    // cache.find_ns / insert_ns at the daemon's working-set size: a
    // full 256-entry cache of fleet-sized results.
    serve::CacheConfig cc;
    serve::ResultCache cache(cc);
    const serve::Result sample = serve::evaluate(
        serve::parseRequest(mix.docs.front()));
    std::vector<std::string> canon;
    std::vector<std::uint64_t> fps;
    for (std::size_t i = 0; i < cc.capacity + 4096; ++i) {
        canon.push_back("{\"probe\": " + std::to_string(i) + "}");
        fps.push_back(serve::fnv1a(canon.back()));
    }
    for (std::size_t i = 0; i < cc.capacity; ++i)
        cache.insert(fps[i], canon[i], sample);
    std::vector<double> find_ns, insert_ns;
    serve::Result got;
    for (int rep = 0; rep < 200; ++rep) {
        Clock::time_point t0 = Clock::now();
        for (std::size_t i = 0; i < cc.capacity; ++i)
            cache.find(fps[i], canon[i], &got);
        find_ns.push_back(secondsSince(t0) * 1e9 /
                          static_cast<double>(cc.capacity));
        t0 = Clock::now();
        for (std::size_t i = 0; i < 16; ++i) {
            const std::size_t k =
                cc.capacity + (static_cast<std::size_t>(rep) * 16 + i) %
                    4096;
            cache.insert(fps[k], canon[k], sample);
        }
        insert_ns.push_back(secondsSince(t0) * 1e9 / 16.0);
        for (std::size_t i = 0; i < cc.capacity; ++i)
            cache.insert(fps[i], canon[i], sample);
    }
    out.set("cache.find_ns", quantile(find_ns, 0.1), "ns");
    out.set("cache.insert_ns", quantile(insert_ns, 0.1), "ns");

    // serve.parse_us: parse + canonical text + fingerprint of a doc.
    std::vector<double> parse_us;
    for (int rep = 0; rep < 4000; ++rep) {
        const std::string &doc =
            mix.docs[static_cast<std::size_t>(rep) % mix.docs.size()];
        const Clock::time_point t0 = Clock::now();
        const serve::Request req = serve::parseRequest(doc);
        const std::string text = serve::canonicalText(req);
        const std::uint64_t fp = serve::fingerprint(req);
        parse_us.push_back(secondsSince(t0) * 1e6);
        if (static_cast<std::size_t>(rep) < mix.docs.size())
            checkFingerprint(out.checks, text, fp);
    }
    out.set("serve.parse_us", quantile(parse_us, 0.1), "us");

    // serve.submit_hit_us: an in-process Daemon answering a cached doc.
    serve::DaemonConfig dc;
    dc.workers = 2;
    serve::Daemon daemon(dc);
    daemon.call(mix.docs.front());
    std::vector<double> submit_us;
    for (int rep = 0; rep < 2000; ++rep) {
        const Clock::time_point t0 = Clock::now();
        serve::Reply r = daemon.submit(mix.docs.front()).get();
        submit_us.push_back(secondsSince(t0) * 1e6);
        checkCacheClass(out.checks, r.cacheHit, true,
                        "the in-process submit probe");
    }
    daemon.shutdown();
    const double submit_hit_us = median(submit_us);
    out.set("serve.submit_hit_us", submit_hit_us, "us");
    out.set("serve.transport_us", hit_p50_ms * 1e3 - submit_hit_us, "us");
}

double
readStat(const std::string &path, const std::string &key)
{
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    const auto kv = parseKvJson(buf.str());
    const auto it = kv.find(key);
    return it == kv.end() ? -1.0 : it->second;
}

} // namespace

Outcome
runServeMix(const Args &args)
{
    Outcome out;
    exec::setGlobalThreads(1);
    Mix mix;
    mix.seed = args.seed;
    const std::string tag = args.runDir + "/serve-" +
        std::to_string(::getpid());
    const std::string sock = tag + ".sock";
    const std::string manifest = tag + ".manifest";
    const std::string stats = tag + ".stats.json";
    {
        std::ofstream m(manifest);
        m << "tts-serve-manifest v1\n";
        for (std::size_t i = 0; i < kHotSet; ++i) {
            const std::string doc =
                "{\"study\": \"fleet\", \"servers\": " +
                std::to_string(1024 * (i + 1)) +
                ", \"util\": " + num(mix.util(i, 99)) + "}";
            mix.add(Kind::Hit, doc);
            m << doc << "\n";
        }
    }
    ::unlink(sock.c_str());

    // Set-up: daemon launch, manifest warming, socket, first reply.
    DaemonProc daemon;
    const Clock::time_point launch = Clock::now();
    if (!daemon.spawn({args.serveBin, "socket", "--socket=" + sock,
                       "--workers=2", "--manifest=" + manifest,
                       "--once", "--stats=" + stats})) {
        throw std::runtime_error("could not launch " + args.serveBin);
    }
    std::vector<std::unique_ptr<Session>> sessions;
    while (sessions.size() < kSessions) {
        auto s = std::make_unique<Session>(sock);
        if (s->connected()) {
            sessions.push_back(std::move(s));
            continue;
        }
        if (secondsSince(launch) > 60.0) {
            throw std::runtime_error("tts_serve never listened on " +
                                     sock);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    std::string first_reply;
    const bool first_ok =
        sessions[0]->roundTrip(framed(mix.docs[0]), &first_reply);
    const double setup_s = secondsSince(launch);
    checkReplyOk(out.checks, first_ok, first_reply, "the first request");

    std::vector<std::vector<Sample>> per_session(kSessions);
    std::size_t round_counter = 0, miss_counter = 0;
    RoundLog log;
    std::atomic<bool> io_error{false};
    driveRounds(mix, sessions, args.seconds, false, round_counter,
                miss_counter, log, per_session, io_error);
    const std::size_t untraced_rounds = round_counter;
    if (args.trace) {
        spans().setEnabled(true);
        driveRounds(mix, sessions, args.seconds, true, round_counter,
                    miss_counter, log, per_session, io_error);
    }
    for (auto &s : sessions)
        s->close();
    const bool daemon_ok = daemon.reap(60.0);
    checkConnections(out.checks, io_error.load());
    checkDaemonExit(out.checks, daemon_ok);

    // ---- Checks, all after the timed path. ----
    // Distinct docs requested, and each one's daemon-free result.
    std::vector<char> requested(mix.docs.size(), 0);
    requested[0] = 1;
    for (const auto &ss : per_session)
        for (const Sample &smp : ss)
            requested[smp.doc] = 1;
    std::vector<std::size_t> todo;
    for (std::size_t d = 0; d < mix.docs.size(); ++d)
        if (requested[d])
            todo.push_back(d);
    std::vector<serve::Result> local(mix.docs.size());
    std::vector<double> local_ms(mix.docs.size(), 0.0);
    exec::ThreadPool(2).forIndex(todo.size(), [&](std::size_t i) {
        const std::size_t d = todo[i];
        const Clock::time_point t0 = Clock::now();
        local[d] = serve::evaluate(serve::parseRequest(mix.docs[d]));
        local_ms[d] = secondsSince(t0) * 1e3;
    });
    std::uint64_t attempted = 1, failed = 0, distinct_missed = kHotSet;
    for (std::size_t s = 0; s < kSessions; ++s) {
        std::vector<std::uint64_t> sent, received;
        for (const Sample &smp : per_session[s]) {
            ++attempted;
            if (!smp.ok) {
                ++failed;
                continue;
            }
            sent.push_back(mix.fps[smp.doc]);
            received.push_back(smp.fp);
            checkReplyResult(out.checks, smp.result, local[smp.doc],
                             mix.docs[smp.doc]);
            checkCacheClass(out.checks, smp.cacheHit,
                            smp.kind == Kind::Hit,
                            std::string("a ") +
                                kKindNames[static_cast<int>(smp.kind)] +
                                " request");
            if (smp.kind != Kind::Hit)
                ++distinct_missed;
        }
        checkReplyOrder(out.checks, sent, received, s);
    }
    const double evaluations = readStat(stats, "serve.evaluations");
    ::unlink(manifest.c_str());
    ::unlink(stats.c_str());
    ::unlink(sock.c_str());
    checkEvaluationCount(out.checks,
                         evaluations < 0.0
                             ? 0
                             : static_cast<std::uint64_t>(evaluations),
                         distinct_missed);
    out.attempted = attempted;
    out.failed = failed;

    // ---- Metrics. ----
    std::vector<double> rounds_untraced, rounds_traced;
    for (std::size_t r = 0; r + 1 < log.bounds.size(); ++r)
        (log.traced[r] ? rounds_traced : rounds_untraced)
            .push_back(secondsBetween(log.bounds[r], log.bounds[r + 1]));
    const double run_s = median(rounds_untraced);
    std::fprintf(stderr,
                 "serve-mix: rounds=%zu requests=%llu docs=%zu "
                 "evaluations=%.0f setup=%.4f run_s=%.5f\n",
                 untraced_rounds,
                 static_cast<unsigned long long>(attempted), todo.size(),
                 evaluations, setup_s, run_s);
    if (!args.trace) {
        out.set("run_s", run_s, "s");
        out.set("setup_s", setup_s, "s");
        out.set("peak_rss_mb",
                static_cast<double>(daemon.usage.ru_maxrss) / 1024.0, "MB");
        return out;
    }

    // Per-layer figures from the traced rounds.
    std::vector<double> lat[kKinds], eval[kKinds];
    std::vector<const Sample *> fleet_misses;
    std::vector<Clock::time_point> done;
    for (const auto &ss : per_session)
        for (const Sample &smp : ss) {
            if (!smp.traced || !smp.ok)
                continue;
            const int k = static_cast<int>(smp.kind);
            lat[k].push_back(smp.latencyMs);
            eval[k].push_back(smp.evalMs);
            done.push_back(smp.done);
            if (smp.kind == Kind::FleetMiss)
                fleet_misses.push_back(&smp);
        }
    // serve.batch_wait_ms: the daemon's eval_ms includes the batch
    // window, so reply eval_ms minus the daemon-free evaluation of the
    // same document is the wait.  Only lone misses count - no other
    // fleet miss in flight on any session from send to reply - so no
    // batch-mate's sweep is in the figure.
    std::vector<double> batch_wait;
    for (const Sample *m : fleet_misses) {
        bool lone = true;
        for (const Sample *o : fleet_misses)
            if (o != m && o->sent < m->done && m->sent < o->done)
                lone = false;
        if (lone)
            batch_wait.push_back(m->evalMs - local_ms[m->doc]);
    }
    std::fprintf(stderr, "serve-mix: %zu of %zu traced fleet misses were "
                         "lone\n",
                 batch_wait.size(), fleet_misses.size());
    std::vector<double> core_ms[kKinds];
    for (std::size_t d : todo)
        core_ms[static_cast<int>(mix.kinds[d])].push_back(local_ms[d]);
    std::vector<double> study_lat;
    for (std::size_t k = 2; k < kKinds; ++k)
        study_lat.insert(study_lat.end(), lat[k].begin(), lat[k].end());
    // req_per_s: median over whole 1-second windows of the phase.
    std::sort(done.begin(), done.end());
    std::vector<double> per_window;
    if (!done.empty()) {
        const Clock::time_point origin = log.bounds[untraced_rounds];
        std::map<long, double> windows;
        for (const Clock::time_point &t : done)
            windows[static_cast<long>(secondsBetween(origin, t))] += 1.0;
        for (const auto &[w, n] : windows)
            if (w + 1 <= static_cast<long>(secondsBetween(origin,
                                                          done.back())))
                per_window.push_back(n);
    }

    out.set("trace.overhead_s", median(rounds_traced) - run_s, "s");
    out.set("serve.hit_p50_ms", median(lat[0]), "ms");
    out.set("serve.fleet_miss_p50_ms", median(lat[1]), "ms");
    out.set("serve.study_miss_p50_ms", median(study_lat), "ms");
    out.set("serve.req_per_s", median(per_window), "1/s");
    for (std::size_t k = 1; k < kKinds; ++k) {
        out.set(std::string("serve.eval_ms.") + kKindNames[k],
                median(eval[k]), "ms");
        out.set(std::string("core.eval_ms.") + kKindNames[k],
                median(core_ms[k]), "ms");
    }
    out.set("serve.batch_wait_ms", median(batch_wait), "ms");
    probeServeLayers(mix, out, median(lat[0]));
    out.set("thermal.step_ns", probeThermalStepNs(), "ns");
    return out;
}

} // namespace perfbench
