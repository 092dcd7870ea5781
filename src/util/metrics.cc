/**
 * @file
 * MetricsRegistry implementation.
 */

#include "util/metrics.h"

#include <cinttypes>
#include <cstdio>

#include "util/log.h"

namespace dramscope {
namespace obs {

void
MetricsSnapshot::merge(const MetricsSnapshot &other)
{
    for (const auto &[name, value] : other.counters)
        counters[name] += value;
    for (const auto &[name, hist] : other.histograms) {
        auto it = histograms.find(name);
        if (it == histograms.end()) {
            histograms.emplace(name, hist);
            continue;
        }
        HistogramSnapshot &mine = it->second;
        if (mine.counts.size() != hist.counts.size() ||
            mine.lo != hist.lo || mine.hi != hist.hi)
            fatal("MetricsSnapshot::merge: histogram shape mismatch: " +
                  name);
        for (size_t i = 0; i < mine.counts.size(); ++i)
            mine.counts[i] += hist.counts[i];
        mine.total += hist.total;
    }
}

uint64_t
MetricsSnapshot::counterOr0(const std::string &name) const
{
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
}

std::string
MetricsSnapshot::commandSummary() const
{
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "metrics: ACT=%" PRIu64 " PRE=%" PRIu64 " RD=%" PRIu64
                  " WR=%" PRIu64 " REF=%" PRIu64 " violations=%" PRIu64,
                  counterOr0("cmd.act"), counterOr0("cmd.pre"),
                  counterOr0("cmd.rd"), counterOr0("cmd.wr"),
                  counterOr0("cmd.ref"), counterOr0("timing.violations"));
    return buf;
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    auto it = counters_.find(name);
    if (it == counters_.end()) {
        it = counters_.emplace(name, std::make_unique<Counter>()).first;
    }
    return *it->second;
}

Histogram &
MetricsRegistry::histogram(const std::string &name, size_t bins,
                           double lo, double hi)
{
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
        it = histograms_
                 .emplace(name, std::make_unique<Histogram>(bins, lo, hi))
                 .first;
    } else {
        if (it->second->bins() != bins || it->second->lo() != lo ||
            it->second->hi() != hi)
            fatal("MetricsRegistry::histogram: shape mismatch: " + name);
    }
    return *it->second;
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    MetricsSnapshot snap;
    for (const auto &[name, ctr] : counters_)
        snap.counters.emplace(name, ctr->value);
    for (const auto &[name, hist] : histograms_) {
        HistogramSnapshot h;
        h.lo = hist->lo();
        h.hi = hist->hi();
        h.total = hist->total();
        h.counts.reserve(hist->bins());
        for (size_t i = 0; i < hist->bins(); ++i)
            h.counts.push_back(hist->count(i));
        snap.histograms.emplace(name, std::move(h));
    }
    return snap;
}

void
MetricsRegistry::merge(const MetricsRegistry &other)
{
    for (const auto &[name, ctr] : other.counters_)
        counter(name).add(ctr->value);
    for (const auto &[name, hist] : other.histograms_)
        histogram(name, hist->bins(), hist->lo(), hist->hi())
            .merge(*hist);
}

void
MetricsRegistry::reset()
{
    for (auto &[name, ctr] : counters_)
        ctr->value = 0;
    for (auto &[name, hist] : histograms_)
        hist->reset();
}

} // namespace obs
} // namespace dramscope
