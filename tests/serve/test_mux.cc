/**
 * @file
 * SessionMux tests: concurrent framed sessions over socketpairs
 * against one shared daemon - in-order replies per session, slow
 * readers isolated to themselves, disconnects that never poison the
 * pool, and the 8-session x 8-worker soak the tentpole promises
 * (zero crashes, typed replies, every ok reply bit-identical to a
 * daemon-free baseline).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "serve/daemon.hh"
#include "serve/eval.hh"
#include "serve/fault.hh"
#include "serve/mux.hh"
#include "serve/protocol.hh"
#include "util/random.hh"

using namespace tts;
using namespace tts::serve;

namespace {

/** A connected stream pair; [0] goes to the mux, [1] is ours. */
struct Pair
{
    int mux = -1;
    int mine = -1;

    Pair()
    {
        int fds[2];
        EXPECT_EQ(
            ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0)
            << std::strerror(errno);
        mux = fds[0];
        mine = fds[1];
    }

    ~Pair()
    {
        if (mine >= 0)
            ::close(mine);
    }
};

/** Blocking full write of one framed payload to `fd`. */
void
sendFrame(int fd, const std::string &payload)
{
    std::string wire = "tts-frame ";
    wire += std::to_string(payload.size());
    wire += '\n';
    wire += payload;
    std::size_t off = 0;
    while (off < wire.size()) {
        const ssize_t n =
            ::write(fd, wire.data() + off, wire.size() - off);
        ASSERT_GT(n, 0) << std::strerror(errno);
        off += static_cast<std::size_t>(n);
    }
}

/** Blocking read of one reply frame from `fd`. */
Reply
recvReply(int fd)
{
    auto readByte = [&](char *c) {
        const ssize_t n = ::read(fd, c, 1);
        if (n != 1)
            throw Error("reply stream ended early");
        return true;
    };
    std::string header;
    char c = 0;
    while (readByte(&c) && c != '\n')
        header.push_back(c);
    const std::string tag = "tts-frame ";
    if (header.compare(0, tag.size(), tag) != 0)
        throw Error("bad reply header: " + header);
    const std::size_t len = std::stoul(header.substr(tag.size()));
    std::string payload(len, '\0');
    std::size_t off = 0;
    while (off < len) {
        const ssize_t n =
            ::read(fd, &payload[off], len - off);
        if (n <= 0)
            throw Error("reply payload ended early");
        off += static_cast<std::size_t>(n);
    }
    return Reply::fromJson(payload);
}

/** The session request pool: cheap distinct outage studies. */
std::vector<std::string>
outagePool(std::size_t n)
{
    std::vector<std::string> docs;
    for (std::size_t i = 0; i < n; ++i) {
        Request r;
        r.study = "outage";
        r.servers = 8;
        r.horizonS = 60.0 + 15.0 * static_cast<double>(i);
        docs.push_back(writeRequest(r));
    }
    return docs;
}

/** Run the mux on its own thread until `sessions` close. */
struct MuxRunner
{
    SessionMux mux;
    std::thread thread;

    MuxRunner(Daemon &daemon, MuxOptions options)
        : mux(daemon, options)
    {
        thread = std::thread([this] { mux.run(); });
    }

    ~MuxRunner()
    {
        mux.stop();
        if (thread.joinable())
            thread.join();
    }
};

} // namespace

TEST(ServeMux, SingleSessionRoundTripsInOrder)
{
    Daemon daemon(DaemonConfig{});
    const std::vector<std::string> pool = outagePool(4);
    std::vector<Result> baseline;
    for (const std::string &doc : pool)
        baseline.push_back(evaluate(parseRequest(doc)));

    MuxOptions options;
    options.exitAfterSessions = 1;
    MuxRunner runner(daemon, options);
    Pair pair;
    runner.mux.adopt(pair.mux);
    for (const std::string &doc : pool)
        sendFrame(pair.mine, doc);
    ::shutdown(pair.mine, SHUT_WR);
    for (std::size_t i = 0; i < pool.size(); ++i) {
        const Reply r = recvReply(pair.mine);
        ASSERT_TRUE(r.ok) << r.detail;
        EXPECT_EQ(r.result, baseline[i])
            << "reply " << i << " out of order or wrong";
    }
    runner.thread.join();
    const MuxStats stats = runner.mux.stats();
    EXPECT_EQ(stats.sessionsAccepted, 1u);
    EXPECT_EQ(stats.sessionsClosed, 1u);
    EXPECT_EQ(stats.framesOk, pool.size());
    EXPECT_EQ(stats.repliesWritten, pool.size());
    EXPECT_EQ(stats.repliesDiscarded, 0u);
}

TEST(ServeMux, MalformedFramesGetTypedRepliesInTheirSlots)
{
    Daemon daemon(DaemonConfig{});
    MuxOptions options;
    options.exitAfterSessions = 1;
    options.limits.maxPayloadBytes = 1024;
    MuxRunner runner(daemon, options);
    Pair pair;
    runner.mux.adopt(pair.mux);

    const std::string good = outagePool(1)[0];
    sendFrame(pair.mine, good);
    sendFrame(pair.mine, "this is not a request");
    // An oversized frame is drained and the session stays in sync.
    const std::string big(2048, 'x');
    sendFrame(pair.mine, big);
    sendFrame(pair.mine, good);
    ::shutdown(pair.mine, SHUT_WR);

    const Reply r0 = recvReply(pair.mine);
    ASSERT_TRUE(r0.ok) << r0.detail;
    const Reply r1 = recvReply(pair.mine);
    EXPECT_FALSE(r1.ok);
    EXPECT_EQ(r1.error, ErrorKind::Malformed);
    const Reply r2 = recvReply(pair.mine);
    EXPECT_FALSE(r2.ok);
    EXPECT_EQ(r2.error, ErrorKind::Malformed);
    const Reply r3 = recvReply(pair.mine);
    ASSERT_TRUE(r3.ok) << r3.detail;
    runner.thread.join();
    // The two good frames are one study.  The daemon's workers race
    // for them, so either may lead: exactly one is the fresh
    // evaluation and the other a cache hit or a reply coalesced onto
    // the leader's flight, and both carry the same bits.
    EXPECT_EQ(daemon.stats().evaluations, 1u);
    EXPECT_NE(r0.cacheHit, r3.cacheHit)
        << "expected one fresh reply and one hit/coalesced reply";
    EXPECT_EQ(r0.fingerprintValue, r3.fingerprintValue);
    EXPECT_EQ(r0.result, r3.result);
}

TEST(ServeMux, DisconnectMidPipelineDiscardsRepliesNotWork)
{
    DaemonConfig config;
    config.workers = 2;
    Daemon daemon(config);
    MuxOptions options;
    options.exitAfterSessions = 1;
    MuxRunner runner(daemon, options);
    const std::vector<std::string> pool = outagePool(3);
    {
        Pair pair;
        runner.mux.adopt(pair.mux);
        for (const std::string &doc : pool)
            sendFrame(pair.mine, doc);
        // Hang up without reading a single reply.
        ::close(pair.mine);
        pair.mine = -1;
    }
    runner.thread.join();
    // Every accepted request still ran to completion...
    daemon.drain();
    const DaemonStats stats = daemon.stats();
    EXPECT_EQ(stats.repliesOk + stats.repliesError,
              stats.submitted);
    EXPECT_EQ(stats.workerFailed, 0u);
    // ...and the daemon still serves the next client, now warm.
    const Reply r = daemon.call(pool[0]);
    ASSERT_TRUE(r.ok) << r.detail;
    EXPECT_TRUE(r.cacheHit);
}

TEST(ServeMux, SlowReaderOnlySlowsItself)
{
    DaemonConfig config;
    config.workers = 4;
    Daemon daemon(config);
    MuxOptions options;
    options.exitAfterSessions = 2;
    MuxRunner runner(daemon, options);
    const std::vector<std::string> pool = outagePool(4);

    Pair slow;
    Pair fast;
    runner.mux.adopt(slow.mux);
    runner.mux.adopt(fast.mux);
    // The slow session floods requests and reads nothing yet; its
    // replies must pile up in *its* buffers only.
    for (int round = 0; round < 4; ++round)
        for (const std::string &doc : pool)
            sendFrame(slow.mine, doc);
    // The fast session gets all its replies while the slow one is
    // still not reading.
    for (const std::string &doc : pool)
        sendFrame(fast.mine, doc);
    ::shutdown(fast.mine, SHUT_WR);
    for (std::size_t i = 0; i < pool.size(); ++i) {
        const Reply r = recvReply(fast.mine);
        EXPECT_TRUE(r.ok) << r.detail;
    }
    // Now drain the slow session; every reply arrives, in order.
    ::shutdown(slow.mine, SHUT_WR);
    for (std::size_t k = 0; k < 4 * pool.size(); ++k) {
        const Reply r = recvReply(slow.mine);
        EXPECT_TRUE(r.ok) << r.detail;
    }
    runner.thread.join();
    const MuxStats stats = runner.mux.stats();
    EXPECT_EQ(stats.sessionsClosed, 2u);
    EXPECT_EQ(stats.repliesWritten, 5 * pool.size());
}

TEST(ServeMux, RefusesAdoptionsPastMaxSessions)
{
    Daemon daemon(DaemonConfig{});
    MuxOptions options;
    options.maxSessions = 1;
    options.exitAfterSessions = 1;
    MuxRunner runner(daemon, options);
    Pair first;
    Pair second;
    runner.mux.adopt(first.mux);
    // Wait until the first adoption lands so the order is fixed.
    while (runner.mux.stats().sessionsAccepted == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    runner.mux.adopt(second.mux);
    while (runner.mux.stats().sessionsRefused == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    // The refused client sees EOF, not a hang.
    char c;
    EXPECT_EQ(::read(second.mine, &c, 1), 0);
    ::shutdown(first.mine, SHUT_WR);
    runner.thread.join();
    EXPECT_EQ(runner.mux.stats().sessionsRefused, 1u);
}

namespace {

/**
 * The multi-client soak: `sessions` concurrent framed sessions
 * against one daemon at `workers` width, with the serve fault
 * plan's multi-client draws (malformed payloads, disconnects, slow
 * readers, injected worker crashes) woven through the traffic.
 */
void
runMultiClientSoak(std::size_t sessions, std::size_t workers)
{
    const std::size_t kPerSession = 12;
    ServeFaultProfile profile;
    profile.workerCrashPerRequest = 0.10;
    profile.malformedPerRequest = 0.10;
    profile.disconnectPerRequest = 0.05;
    profile.slowSessionPerSession = 0.25;
    profile.seed = 0x10ad5e55;
    const ServeFaultPlan plan = ServeFaultPlan::generate(
        profile, sessions * kPerSession, sessions);
    ASSERT_GT(plan.countOf(RequestFault::Malformed), 0u);
    ASSERT_GT(plan.countOf(RequestFault::Disconnect), 0u);
    ASSERT_GT(plan.slowSessions(), 0u);
    ASSERT_GT(plan.crashedRequests(), 0u);

    const std::vector<std::string> pool = outagePool(8);
    std::vector<Result> baseline;
    for (const std::string &doc : pool)
        baseline.push_back(evaluate(parseRequest(doc)));

    DaemonConfig config;
    config.workers = workers;
    config.queueCapacity = 64;
    config.retryBudget = 3;
    config.retryBackoffBaseMs = 0.1;
    Daemon daemon(config, plan);
    MuxOptions options;
    options.maxSessions = sessions;
    options.exitAfterSessions = sessions;
    MuxRunner runner(daemon, options);

    std::vector<std::thread> clients;
    std::atomic<std::size_t> ok_replies{0};
    std::atomic<std::size_t> typed_errors{0};
    std::atomic<bool> failed{false};
    for (std::size_t s = 0; s < sessions; ++s) {
        int fds[2];
        ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        runner.mux.adopt(fds[0]);
        const int mine = fds[1];
        clients.emplace_back([&, s, mine] {
            Rng pick = Rng::forStream(profile.seed, 7000 + s);
            std::vector<int> slots;
            bool disconnected = false;
            for (std::size_t k = 0; k < kPerSession; ++k) {
                const std::size_t i = s * kPerSession + k;
                switch (plan.requestFault(i)) {
                  case RequestFault::Malformed:
                    sendFrame(mine, "garbage request " +
                                        std::to_string(i));
                    slots.push_back(-1);
                    break;
                  case RequestFault::Disconnect: {
                    const int which = static_cast<int>(
                        pick.uniformInt(pool.size()));
                    sendFrame(
                        mine,
                        pool[static_cast<std::size_t>(which)]);
                    disconnected = true;
                    break;
                  }
                  default: {
                    const int which = static_cast<int>(
                        pick.uniformInt(pool.size()));
                    sendFrame(
                        mine,
                        pool[static_cast<std::size_t>(which)]);
                    slots.push_back(which);
                    break;
                  }
                }
                if (disconnected)
                    break;
            }
            if (disconnected) {
                // Hang up with replies still in flight: the mux
                // must discard them without disturbing anyone.
                ::close(mine);
                return;
            }
            ::shutdown(mine, SHUT_WR);
            const bool slow = plan.slowSession(s);
            for (std::size_t k = 0; k < slots.size(); ++k) {
                if (slow && k % 3 == 0)
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(2));
                try {
                    const Reply r = recvReply(mine);
                    if (slots[k] < 0) {
                        if (r.ok ||
                            r.error != ErrorKind::Malformed)
                            failed = true;
                        ++typed_errors;
                    } else if (r.ok) {
                        ++ok_replies;
                        if (r.result !=
                            baseline[static_cast<std::size_t>(
                                slots[k])])
                            failed = true;
                    } else {
                        // Overloaded is the only legitimate typed
                        // rejection of faithful traffic here.
                        if (r.error != ErrorKind::Overloaded)
                            failed = true;
                        ++typed_errors;
                    }
                } catch (const Error &) {
                    failed = true;
                }
            }
            ::close(mine);
        });
    }
    for (std::thread &t : clients)
        t.join();
    runner.thread.join();
    daemon.drain();

    EXPECT_FALSE(failed.load())
        << "a session saw a wrong, out-of-order, or missing reply";
    EXPECT_GT(ok_replies.load(), 0u);
    const MuxStats mux_stats = runner.mux.stats();
    EXPECT_EQ(mux_stats.sessionsAccepted, sessions);
    EXPECT_EQ(mux_stats.sessionsClosed, sessions);
    const DaemonStats stats = daemon.stats();
    EXPECT_EQ(stats.repliesOk + stats.repliesError,
              stats.submitted);
    EXPECT_EQ(stats.workerFailed, 0u);
    EXPECT_EQ(daemon.cacheCounters().collisions, 0u);
}

} // namespace

TEST(ServeMux, MultiClientSoakEightSessionsEightWorkers)
{
    runMultiClientSoak(8, 8);
}

TEST(ServeMux, MultiClientSoakEightSessionsOneWorker)
{
    runMultiClientSoak(8, 1);
}
