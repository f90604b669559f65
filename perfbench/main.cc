/**
 * @file
 * perfbench - the repository benchmark's driver.
 *
 *   perfbench --workload fleet-2day|design-search|serve-mix
 *             --seed N --seconds S --trace 0|1
 *             [--run-dir DIR] [--serve-bin PATH]
 *   perfbench --selftest
 *
 * Runs one workload and prints, as its last line, one JSON object
 * with the keys correct, attempted, failed and metrics.  --trace 0
 * prints the end-to-end metrics the workload measured; --trace 1
 * runs the workload again with spans and the obs profile on and
 * prints the per-layer metrics it measured.  Normally started by
 * run.py, which builds this binary and checks the printed metric
 * names and units against BENCHMARK.json.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hh"

namespace {

using namespace perfbench;

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--run-dir DIR] "
                 "[--serve-bin PATH]\n       perfbench --selftest\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    args.start = Clock::now();
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--selftest")
            return runSelfTest();
        if (i + 1 >= argc)
            return usage();
        const std::string v = argv[++i];
        if (a == "--workload")
            args.workload = v;
        else if (a == "--seed")
            args.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--seconds")
            args.seconds = std::atof(v.c_str());
        else if (a == "--trace")
            args.trace = v == "1";
        else if (a == "--run-dir")
            args.runDir = v;
        else if (a == "--serve-bin")
            args.serveBin = v;
        else
            return usage();
    }

    Outcome out;
    try {
        if (args.workload == "fleet-2day")
            out = runFleet2Day(args);
        else if (args.workload == "design-search")
            out = runDesignSearch(args);
        else if (args.workload == "serve-mix")
            out = runServeMix(args);
        else
            return usage();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    for (const std::string &f : out.checks.failures())
        std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
    std::fprintf(stderr, "perfbench: %zu checks, %zu failed\n",
                 out.checks.count(), out.checks.failures().size());

    if (args.trace)
        spans().write(args.runDir + "/spans-" + args.workload + "-" +
                      std::to_string(args.seed) + ".jsonl");
    std::string metrics;
    for (const auto &[name, m] : out.metrics) {
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      metrics.empty() ? "" : ", ", name.c_str(), m.value,
                      m.unit.c_str());
        metrics += buf;
    }
    const bool correct =
        out.checks.allOk() && out.checks.count() > 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed),
                metrics.c_str());
    return 0;
}
