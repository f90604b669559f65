#include <algorithm>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <string>

#include "bench.hh"

namespace perfbench {

namespace {

/** Guards the span recorder (serve sessions add from threads). */
std::mutex g_spans_mu;

} // namespace

bool
Checks::expect(bool ok, const std::string &what)
{
    ++count_;
    if (!ok)
        failures_.push_back(what);
    return ok;
}

double
median(std::vector<double> xs)
{
    return quantile(std::move(xs), 0.5);
}

double
quantile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const double pos = q * static_cast<double>(xs.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double
minimum(const std::vector<double> &xs)
{
    return xs.empty() ? 0.0 : *std::min_element(xs.begin(), xs.end());
}

double
selfPeakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    return 0.0;
}

Spans &
spans()
{
    static Spans recorder;
    return recorder;
}

Spans::Scope::Scope(Spans &spans, const char *name,
                    std::uint64_t request)
    : spans_(spans), slot_(spans.open(name, request))
{
}

Spans::Scope::~Scope()
{
    spans_.close(slot_);
}

std::size_t
Spans::open(const char *name, std::uint64_t request)
{
    if (!enabled_)
        return ~std::size_t{0};
    std::lock_guard<std::mutex> lock(g_spans_mu);
    Span s;
    s.name = name;
    s.id = next_id_++;
    s.parent = stack_.empty() ? 0 : spans_[stack_.back()].id;
    s.request = request;
    s.startS = secondsBetween(origin_, Clock::now());
    spans_.push_back(std::move(s));
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
}

void
Spans::close(std::size_t slot)
{
    if (!enabled_ || slot == ~std::size_t{0})
        return;
    std::lock_guard<std::mutex> lock(g_spans_mu);
    spans_[slot].endS = secondsBetween(origin_, Clock::now());
    if (!stack_.empty() && stack_.back() == slot)
        stack_.pop_back();
}

void
Spans::add(const std::string &name, std::uint64_t request,
           Clock::time_point start, Clock::time_point end)
{
    if (!enabled_)
        return;
    std::lock_guard<std::mutex> lock(g_spans_mu);
    Span s;
    s.name = name;
    s.id = next_id_++;
    s.parent = stack_.empty() ? 0 : spans_[stack_.back()].id;
    s.request = request;
    s.startS = secondsBetween(origin_, start);
    s.endS = secondsBetween(origin_, end);
    spans_.push_back(std::move(s));
}

std::vector<double>
Spans::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spans_)
        if (s.name == name)
            out.push_back(s.endS - s.startS);
    return out;
}

std::map<std::string, double>
Spans::selfTimes() const
{
    std::map<std::uint64_t, std::vector<std::pair<double, double>>>
        children;
    for (const Span &s : spans_)
        if (s.parent != 0)
            children[s.parent].emplace_back(s.startS, s.endS);
    std::map<std::string, double> out;
    for (const Span &s : spans_) {
        double covered = 0.0;
        auto it = children.find(s.id);
        if (it != children.end()) {
            auto iv = it->second;
            std::sort(iv.begin(), iv.end());
            double lo = s.startS, hi = s.startS;
            for (const auto &[a, b] : iv) {
                const double ca = std::max(a, s.startS);
                const double cb = std::min(b, s.endS);
                if (cb <= ca)
                    continue;
                if (ca > hi) {
                    covered += hi - lo;
                    lo = ca;
                }
                hi = std::max(hi, cb);
            }
            covered += hi - lo;
        }
        out[s.name] += (s.endS - s.startS) - covered;
    }
    return out;
}

void
Spans::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return;
    for (const Span &s : spans_)
        std::fprintf(f,
                     "{\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                     "\"request\": %llu, \"start_s\": %.9f, "
                     "\"end_s\": %.9f}\n",
                     s.name.c_str(),
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.request),
                     s.startS, s.endS);
    for (const auto &[name, self_s] : selfTimes())
        std::fprintf(f, "{\"self\": \"%s\", \"seconds\": %.9f}\n",
                     name.c_str(), self_s);
    std::fclose(f);
}

} // namespace perfbench
