#include "obs/profile.hh"

#include <algorithm>
#include <mutex>
#include <ostream>
#include <vector>

#include "util/table.hh"

namespace tts {
namespace obs {

namespace {

std::mutex g_mu;
std::map<std::string, PhaseStat> g_merged; // Guarded by g_mu.

void
fold(PhaseStat &into, const PhaseStat &from)
{
    into.calls += from.calls;
    into.totalNs += from.totalNs;
    into.maxNs = std::max(into.maxNs, from.maxNs);
}

void
mergeTable(const std::map<std::string, PhaseStat> &table)
{
    if (table.empty())
        return;
    std::lock_guard<std::mutex> lock(g_mu);
    for (const auto &kv : table)
        fold(g_merged[kv.first], kv.second);
}

/**
 * Per-thread phase table; merges into the global map when the
 * thread exits or flushes.  exec's workers flush at the end of every
 * region, so their contributions are globally visible right after
 * any forIndex.
 */
struct ThreadTable
{
    std::map<std::string, PhaseStat> stats;
    ~ThreadTable()
    {
        mergeTable(stats);
    }
};

ThreadTable &
threadTable()
{
    thread_local ThreadTable t;
    return t;
}

} // namespace

namespace detail {

void
recordScope(const char *phase, std::uint64_t elapsed_ns)
{
    PhaseStat &s = threadTable().stats[phase];
    ++s.calls;
    s.totalNs += elapsed_ns;
    s.maxNs = std::max(s.maxNs, elapsed_ns);
}

void
resetProfile()
{
    {
        std::lock_guard<std::mutex> lock(g_mu);
        g_merged.clear();
    }
    threadTable().stats.clear();
}

} // namespace detail

void
flushThreadProfile()
{
    std::map<std::string, PhaseStat> &stats = threadTable().stats;
    mergeTable(stats);
    stats.clear();
}

std::map<std::string, PhaseStat>
profileSnapshot()
{
    std::map<std::string, PhaseStat> out;
    {
        std::lock_guard<std::mutex> lock(g_mu);
        out = g_merged;
    }
    for (const auto &kv : threadTable().stats)
        fold(out[kv.first], kv.second);
    return out;
}

void
writeProfileTable(std::ostream &out)
{
    std::map<std::string, PhaseStat> snap = profileSnapshot();
    std::vector<std::pair<std::string, PhaseStat>> rows(
        snap.begin(), snap.end());
    std::sort(rows.begin(), rows.end(),
              [](const auto &a, const auto &b) {
                  if (a.second.totalNs != b.second.totalNs)
                      return a.second.totalNs > b.second.totalNs;
                  return a.first < b.first;
              });

    AsciiTable t({"phase", "calls", "total (ms)", "mean (us)",
                  "max (us)"});
    for (const auto &row : rows) {
        const PhaseStat &s = row.second;
        double total_ms = static_cast<double>(s.totalNs) / 1e6;
        double mean_us =
            s.calls ? static_cast<double>(s.totalNs) /
                          static_cast<double>(s.calls) / 1e3
                    : 0.0;
        double max_us = static_cast<double>(s.maxNs) / 1e3;
        t.addRow({row.first, std::to_string(s.calls),
                  formatFixed(total_ms, 2), formatFixed(mean_us, 2),
                  formatFixed(max_us, 2)});
    }
    t.print(out);
}

} // namespace obs
} // namespace tts
