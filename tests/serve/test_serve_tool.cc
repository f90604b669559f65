/**
 * @file
 * End-to-end checks of the tts_serve binary's --stats file: a socket
 * daemon answers one fleet study over a real Unix socket and exits
 * (--once), and its stats file must carry every key a stdio daemon
 * writes - daemon, cache and batcher counters - plus the mux's.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "serve/protocol.hh"
#include "util/kv_json.hh"

extern char **environ;

using namespace tts;
using namespace tts::serve;

namespace {

std::string
tempPath(const std::string &name)
{
    const std::string path = testing::TempDir() + "/" + name;
    std::remove(path.c_str());
    return path;
}

/** One small batchable fleet study, framed for the wire. */
std::string
fleetFrame()
{
    Request r;
    r.study = "fleet";
    r.servers = 8;
    r.days = 0.25;
    const std::string doc = writeRequest(r);
    return "tts-frame " + std::to_string(doc.size()) + "\n" + doc;
}

/**
 * Start tts_serve with `args`, stdin from `stdin_path`, stdout and
 * stderr to /dev/null.  @return The child pid (-1 on failure).
 */
pid_t
spawnServe(const std::vector<std::string> &args,
           const std::string &stdin_path)
{
    std::vector<std::string> argv_s{TTS_SERVE_BIN};
    argv_s.insert(argv_s.end(), args.begin(), args.end());
    std::vector<char *> argv;
    for (std::string &a : argv_s)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 0, stdin_path.c_str(),
                                     O_RDONLY, 0);
    posix_spawn_file_actions_addopen(&fa, 1, "/dev/null", O_WRONLY, 0);
    posix_spawn_file_actions_addopen(&fa, 2, "/dev/null", O_WRONLY, 0);
    pid_t pid = -1;
    if (posix_spawn(&pid, argv[0], &fa, nullptr, argv.data(),
                    environ) != 0)
        pid = -1;
    posix_spawn_file_actions_destroy(&fa);
    return pid;
}

/** Wait up to 60 s for pid to exit; @return its exit status or -1. */
int
waitExit(pid_t pid)
{
    for (int i = 0; i < 6000; ++i) {
        int status = 0;
        if (::waitpid(pid, &status, WNOHANG) == pid)
            return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    return -1;
}

/** Connect to the daemon's socket, retrying while it starts up. */
int
connectTo(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                  path.c_str());
    for (int i = 0; i < 3000; ++i) {
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            return -1;
        if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                      sizeof(addr)) == 0)
            return fd;
        ::close(fd);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return -1;
}

TEST(ServeTool, SocketStatsCarryTheStdioKeysAndBatcherCounters)
{
    const std::string frame = fleetFrame();

    // Stdio daemon: the reference key set.
    const std::string input = tempPath("tts_serve_tool_in.txt");
    const std::string stdio_stats =
        tempPath("tts_serve_tool_stdio.json");
    {
        std::ofstream f(input, std::ios::binary);
        f << frame;
    }
    pid_t pid = spawnServe({"stdio", "--workers=1",
                            "--stats=" + stdio_stats},
                           input);
    ASSERT_GT(pid, 0);
    ASSERT_EQ(waitExit(pid), 0);
    const std::map<std::string, double> stdio =
        readKvJsonFile(stdio_stats);

    // Socket daemon: one session, one fleet study, then --once exit.
    const std::string sock = tempPath("tts_serve_tool.sock");
    const std::string socket_stats =
        tempPath("tts_serve_tool_socket.json");
    pid = spawnServe({"socket", "--socket=" + sock, "--once",
                      "--workers=1", "--stats=" + socket_stats},
                     "/dev/null");
    ASSERT_GT(pid, 0);
    const int fd = connectTo(sock);
    if (fd < 0) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
        FAIL() << "could not connect to " << sock;
    }
    ASSERT_EQ(::write(fd, frame.data(), frame.size()),
              static_cast<ssize_t>(frame.size()));
    ::shutdown(fd, SHUT_WR);
    std::string wire;
    char buf[4096];
    for (ssize_t n; (n = ::read(fd, buf, sizeof buf)) > 0;)
        wire.append(buf, static_cast<std::size_t>(n));
    ::close(fd);
    ASSERT_EQ(waitExit(pid), 0);
    const std::size_t body = wire.find('\n');
    ASSERT_NE(body, std::string::npos) << wire;
    const Reply reply = Reply::fromJson(wire.substr(body + 1));
    ASSERT_TRUE(reply.ok) << reply.detail;

    const std::map<std::string, double> sock_kv =
        readKvJsonFile(socket_stats);
    for (const auto &kv : stdio)
        EXPECT_EQ(sock_kv.count(kv.first), 1u)
            << "socket --stats lacks " << kv.first;
    for (const char *key :
         {"serve.cache.hits", "serve.cache.misses",
          "serve.batch.sweeps", "serve.batch.jobs",
          "serve.batch.coalesced", "mux.frames_ok"})
        EXPECT_EQ(sock_kv.count(key), 1u) << key;
    // The lone fleet miss went through the batcher as one sweep of
    // one job, in both modes.
    for (const auto *kv : {&stdio, &sock_kv}) {
        EXPECT_EQ(kv->at("serve.evaluations"), 1.0);
        EXPECT_EQ(kv->at("serve.batch.sweeps"), 1.0);
        EXPECT_EQ(kv->at("serve.batch.jobs"), 1.0);
        EXPECT_EQ(kv->at("serve.batch.coalesced"), 0.0);
    }
    EXPECT_EQ(sock_kv.at("mux.frames_ok"), 1.0);
    EXPECT_EQ(stdio.count("mux.frames_ok"), 0u);

    std::remove(input.c_str());
    std::remove(stdio_stats.c_str());
    std::remove(socket_stats.c_str());
    std::remove(sock.c_str());
}

} // namespace
