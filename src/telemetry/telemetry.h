/// \file
/// The metrics half of the observability subsystem: named monotonic
/// counters, gauges (with high-water marks), and log2-bucketed histograms,
/// grouped into a Registry. Hot-path mutation is a single relaxed atomic
/// RMW — callers look a metric up once (taking the registry lock) and then
/// increment through the returned pointer, which stays valid for the
/// registry's lifetime.
///
/// Two registries matter in practice: the process-wide singleton
/// (Registry::global()), used by layers with no Runtime handle (the
/// compile flow on the compile-server thread, the interpreter), and one
/// per-Runtime instance exposed through Runtime::telemetry(), which scopes
/// scheduler/engine metrics to that runtime. See README.md §Observability
/// for the metric catalogue.

#ifndef CASCADE_TELEMETRY_TELEMETRY_H
#define CASCADE_TELEMETRY_TELEMETRY_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace cascade::telemetry {

/// Monotonic counter. inc() is lock-free.
class Counter {
  public:
    void
    inc(uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    /// Zeroes the counter (measurement-window bracketing; see
    /// Registry::reset).
    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> value_{0};
};

/// Instantaneous level plus the high-water mark it ever reached.
/// set()/add() are lock-free.
class Gauge {
  public:
    void
    set(int64_t v)
    {
        value_.store(v, std::memory_order_relaxed);
        raise_high_water(v);
    }

    void
    add(int64_t delta)
    {
        const int64_t v =
            value_.fetch_add(delta, std::memory_order_relaxed) + delta;
        raise_high_water(v);
    }

    int64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    int64_t
    high_water() const
    {
        return high_water_.load(std::memory_order_relaxed);
    }

    /// Zeroes both the level and the high-water mark.
    void
    reset()
    {
        value_.store(0, std::memory_order_relaxed);
        high_water_.store(0, std::memory_order_relaxed);
    }

  private:
    void
    raise_high_water(int64_t v)
    {
        int64_t cur = high_water_.load(std::memory_order_relaxed);
        while (v > cur &&
               !high_water_.compare_exchange_weak(
                   cur, v, std::memory_order_relaxed)) {
        }
    }

    std::atomic<int64_t> value_{0};
    std::atomic<int64_t> high_water_{0};
};

/// Log-scale histogram of uint64 samples (typically nanoseconds or batch
/// sizes). Bucket b holds samples whose bit width is b, i.e. values in
/// [2^(b-1), 2^b); bucket 0 holds zero. record() is lock-free.
class Histogram {
  public:
    static constexpr int kBuckets = 65;

    void record(uint64_t value);

    uint64_t count() const { return count_.load(std::memory_order_relaxed); }
    uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
    uint64_t min() const; ///< 0 when empty
    uint64_t max() const;
    double mean() const;
    uint64_t bucket(int b) const;
    /// Estimated value at quantile \p q in [0,1] (geometric bucket
    /// midpoint; exact for min/max at the extremes).
    uint64_t quantile(double q) const;

    /// Drops every recorded sample.
    void reset();

  private:
    std::atomic<uint64_t> buckets_[kBuckets] = {};
    std::atomic<uint64_t> count_{0};
    std::atomic<uint64_t> sum_{0};
    std::atomic<uint64_t> min_{UINT64_MAX};
    std::atomic<uint64_t> max_{0};
};

/// Name -> metric map. Lookup/creation takes a mutex; returned pointers
/// are stable for the registry's lifetime, so hot paths resolve once and
/// cache. A name identifies exactly one kind of metric per registry.
class Registry {
  public:
    Registry() = default;
    Registry(const Registry&) = delete;
    Registry& operator=(const Registry&) = delete;

    /// The process-wide registry (compiler flow, interpreter internals).
    static Registry& global();

    Counter* counter(const std::string& name);
    Gauge* gauge(const std::string& name);
    Histogram* histogram(const std::string& name);

    /// Pretty fixed-width table of every metric, one per line, sorted by
    /// name (the REPL's :stats view).
    std::string table() const;

    /// The registry as a JSON object:
    /// {"counters":{...},"gauges":{name:{"value":..,"high_water":..}},
    ///  "histograms":{name:{"count":..,"sum":..,"min":..,"max":..,
    ///                      "mean":..,"p50":..,"p90":..,"p99":..}}}
    std::string json() const;

    /// Zeroes every registered metric in place. Pointers handed out by
    /// counter()/gauge()/histogram() stay valid (hot paths cache them),
    /// so callers can bracket a measurement window without restarting.
    void reset();

    /// Point-in-time copy of every metric, sorted by name — what exporters
    /// (the Prometheus renderer, the time-series sampler) iterate without
    /// holding the registry lock while formatting.
    struct Snapshot {
        struct GaugeValue {
            int64_t value;
            int64_t high_water;
        };
        struct HistogramValue {
            uint64_t count;
            uint64_t sum;
            uint64_t min;
            uint64_t max;
            double mean;
            uint64_t p50;
            uint64_t p90;
            uint64_t p99;
        };
        std::vector<std::pair<std::string, uint64_t>> counters;
        std::vector<std::pair<std::string, GaugeValue>> gauges;
        std::vector<std::pair<std::string, HistogramValue>> histograms;
    };
    Snapshot snapshot() const;

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

} // namespace cascade::telemetry

#endif // CASCADE_TELEMETRY_TELEMETRY_H
