#include "telemetry/telemetry.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/json.h"

namespace cascade::telemetry {

namespace {

int
bucket_of(uint64_t value)
{
    return value == 0 ? 0 : 64 - std::countl_zero(value);
}

void
atomic_min(std::atomic<uint64_t>& slot, uint64_t v)
{
    uint64_t cur = slot.load(std::memory_order_relaxed);
    while (v < cur && !slot.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
}

void
atomic_max(std::atomic<uint64_t>& slot, uint64_t v)
{
    uint64_t cur = slot.load(std::memory_order_relaxed);
    while (v > cur && !slot.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
}

} // namespace

void
Histogram::record(uint64_t value)
{
    buckets_[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    atomic_min(min_, value);
    atomic_max(max_, value);
}

uint64_t
Histogram::min() const
{
    const uint64_t v = min_.load(std::memory_order_relaxed);
    return v == UINT64_MAX ? 0 : v;
}

uint64_t
Histogram::max() const
{
    return max_.load(std::memory_order_relaxed);
}

double
Histogram::mean() const
{
    const uint64_t n = count();
    return n == 0 ? 0.0 : static_cast<double>(sum()) /
                              static_cast<double>(n);
}

uint64_t
Histogram::bucket(int b) const
{
    return b < 0 || b >= kBuckets
               ? 0
               : buckets_[b].load(std::memory_order_relaxed);
}

uint64_t
Histogram::quantile(double q) const
{
    const uint64_t n = count();
    if (n == 0) {
        return 0;
    }
    q = std::clamp(q, 0.0, 1.0);
    const uint64_t rank =
        std::min<uint64_t>(n - 1, static_cast<uint64_t>(q * n));
    uint64_t seen = 0;
    for (int b = 0; b < kBuckets; ++b) {
        seen += bucket(b);
        if (seen > rank) {
            if (b == 0) {
                return 0;
            }
            // Geometric midpoint of [2^(b-1), 2^b), clamped to the
            // observed range so extremes stay exact.
            const double lo = std::ldexp(1.0, b - 1);
            const double mid = lo * std::sqrt(2.0);
            return std::clamp(static_cast<uint64_t>(mid), min(), max());
        }
    }
    return max();
}

void
Histogram::reset()
{
    for (auto& b : buckets_) {
        b.store(0, std::memory_order_relaxed);
    }
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    min_.store(UINT64_MAX, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
}

Registry&
Registry::global()
{
    static Registry instance;
    return instance;
}

Counter*
Registry::counter(const std::string& name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = counters_[name];
    if (slot == nullptr) {
        slot = std::make_unique<Counter>();
    }
    return slot.get();
}

Gauge*
Registry::gauge(const std::string& name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = gauges_[name];
    if (slot == nullptr) {
        slot = std::make_unique<Gauge>();
    }
    return slot.get();
}

Histogram*
Registry::histogram(const std::string& name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = histograms_[name];
    if (slot == nullptr) {
        slot = std::make_unique<Histogram>();
    }
    return slot.get();
}

void
Registry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [name, c] : counters_) {
        (void)name;
        c->reset();
    }
    for (const auto& [name, g] : gauges_) {
        (void)name;
        g->reset();
    }
    for (const auto& [name, h] : histograms_) {
        (void)name;
        h->reset();
    }
}

Registry::Snapshot
Registry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Snapshot s;
    s.counters.reserve(counters_.size());
    for (const auto& [name, c] : counters_) {
        s.counters.emplace_back(name, c->value());
    }
    s.gauges.reserve(gauges_.size());
    for (const auto& [name, g] : gauges_) {
        s.gauges.emplace_back(
            name, Snapshot::GaugeValue{g->value(), g->high_water()});
    }
    s.histograms.reserve(histograms_.size());
    for (const auto& [name, h] : histograms_) {
        s.histograms.emplace_back(
            name,
            Snapshot::HistogramValue{h->count(), h->sum(), h->min(),
                                     h->max(), h->mean(), h->quantile(0.5),
                                     h->quantile(0.9), h->quantile(0.99)});
    }
    return s;
}

std::string
Registry::table() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    size_t width = 24;
    for (const auto& [name, c] : counters_) {
        width = std::max(width, name.size());
    }
    for (const auto& [name, g] : gauges_) {
        width = std::max(width, name.size());
    }
    for (const auto& [name, h] : histograms_) {
        width = std::max(width, name.size());
    }
    std::string out;
    char line[256];
    for (const auto& [name, c] : counters_) {
        std::snprintf(line, sizeof line, "  %-*s %20llu\n",
                      static_cast<int>(width), name.c_str(),
                      static_cast<unsigned long long>(c->value()));
        out += line;
    }
    for (const auto& [name, g] : gauges_) {
        std::snprintf(line, sizeof line,
                      "  %-*s %20lld  (high-water %lld)\n",
                      static_cast<int>(width), name.c_str(),
                      static_cast<long long>(g->value()),
                      static_cast<long long>(g->high_water()));
        out += line;
    }
    for (const auto& [name, h] : histograms_) {
        std::snprintf(
            line, sizeof line,
            "  %-*s %20llu  (mean %.4g  min %llu  p50 %llu  p90 %llu  "
            "p99 %llu  max %llu)\n",
            static_cast<int>(width), name.c_str(),
            static_cast<unsigned long long>(h->count()), h->mean(),
            static_cast<unsigned long long>(h->min()),
            static_cast<unsigned long long>(h->quantile(0.5)),
            static_cast<unsigned long long>(h->quantile(0.9)),
            static_cast<unsigned long long>(h->quantile(0.99)),
            static_cast<unsigned long long>(h->max()));
        out += line;
    }
    return out;
}

std::string
Registry::json() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    JsonWriter w;
    w.object("counters");
    for (const auto& [name, c] : counters_) {
        w.key(name).num(c->value());
    }
    w.end().object("gauges");
    for (const auto& [name, g] : gauges_) {
        w.key(name)
            .object()
            .num_signed("value", g->value())
            .num_signed("high_water", g->high_water())
            .end();
    }
    w.end().object("histograms");
    for (const auto& [name, h] : histograms_) {
        w.key(name)
            .object()
            .num("count", h->count())
            .num("sum", h->sum())
            .num("min", h->min())
            .num("max", h->max())
            .dbl("mean", h->mean(), JsonDouble::G6)
            .num("p50", h->quantile(0.5))
            .num("p90", h->quantile(0.9))
            .num("p99", h->quantile(0.99))
            .end();
    }
    return w.build();
}

} // namespace cascade::telemetry
