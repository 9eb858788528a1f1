/// \file
/// The export half of the observability subsystem: everything that turns
/// in-process telemetry into operator-facing formats, with no external
/// dependencies.
///
///  - PromWriter renders metric families in the Prometheus text exposition
///    format (one `# HELP`/`# TYPE` block per family, escaped labels,
///    counters suffixed `_total`, histograms as summaries);
///  - validate_prometheus_text() is a strict line-level checker for that
///    format, used by tests and the CI scrape step;
///  - TimeSeries is a fixed-capacity downsampling recorder: the scheduler
///    samples a handful of rates/levels every few hundred milliseconds,
///    and when a series fills up adjacent points are pairwise-averaged so
///    the whole session always fits — recent history at full resolution,
///    the start of the run at progressively coarser resolution. Dumped
///    into the crash black box so post-mortems show the minutes before a
///    crash, not just the last 256 journal events;
///  - SloTracker keeps rolling windows of compile/interrupt latencies and
///    per-tenant tick rates, evaluates them against thresholds from
///    Options, and fires a callback on each OK->breach transition (the
///    Runtime journals it as `slo.breach`).
///
/// The HTTP side lives in telemetry/monitor_server.h; this header is pure
/// data plumbing and is safe to use from any thread (TimeSeries and
/// SloTracker are internally locked).

#ifndef CASCADE_TELEMETRY_EXPORT_H
#define CASCADE_TELEMETRY_EXPORT_H

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cascade::telemetry {

/// Maps an internal metric name ("compile.cache.hits") onto a legal
/// Prometheus metric name ("cascade_compile_cache_hits"): every character
/// outside [a-zA-Z0-9_:] becomes '_', and the result is prefixed with
/// "cascade_" (also when the first character would otherwise be a digit).
std::string prom_sanitize_name(const std::string& name);

/// Escapes a label value for the text exposition format: backslash,
/// double-quote, and newline must be written \\ \" \n.
std::string prom_escape_label(const std::string& value);

/// Accumulates samples grouped into metric families and renders the
/// Prometheus text exposition format. Samples added to the same family
/// name are emitted together under one `# HELP`/`# TYPE` block, in
/// insertion order, so the output is deterministic.
class PromWriter {
  public:
    using Labels = std::vector<std::pair<std::string, std::string>>;

    /// \p type is "counter", "gauge", "summary", or "untyped".
    /// \p name must already be a legal metric name (prom_sanitize_name).
    void family(const std::string& name, const std::string& type,
                const std::string& help);

    /// Adds one sample to \p family (which must have been declared).
    /// \p suffix is appended to the family name on the sample line only
    /// (summaries use "_sum"/"_count"). Label values are escaped here.
    void sample(const std::string& family, const Labels& labels,
                double value, const std::string& suffix = "");
    void sample(const std::string& family, const Labels& labels,
                uint64_t value, const std::string& suffix = "");

    /// The full exposition: families in declaration order, each as
    /// `# HELP`, `# TYPE`, then its samples. Ends with a newline.
    std::string render() const;

  private:
    struct Family {
        std::string name;
        std::string type;
        std::string help;
        std::vector<std::string> lines;
    };
    Family* find(const std::string& name);
    /// Adds one sample line with its value already formatted.
    void add(const std::string& family, const Labels& labels,
             const std::string& value, const std::string& suffix);

    std::vector<Family> families_;
};

/// Strict validator for the Prometheus text exposition format: metric and
/// label name grammar, label-value escaping, float-parseable values
/// (incl. NaN/+Inf/-Inf), at most one TYPE per family declared before its
/// samples, and a trailing newline. On failure returns false and sets
/// *err to "line N: <what>".
bool validate_prometheus_text(const std::string& text,
                              std::string* err = nullptr);

/// Fixed-memory time-series recorder. Each named series holds at most
/// \p capacity points; on overflow the series is compacted in place by
/// averaging adjacent pairs (halving the point count and doubling
/// \c stride, the number of raw samples each stored point represents).
/// sample()/json()/reset() are thread-safe.
class TimeSeries {
  public:
    static constexpr size_t kDefaultCapacity = 512;

    struct Point {
        double t = 0; ///< seconds since the recorder was created
        double v = 0;
    };

    explicit TimeSeries(size_t capacity = kDefaultCapacity);

    /// Appends (t, v) to the series \p name, creating it on first use.
    void sample(const std::string& name, double t, double v);

    /// Sorted names of every series recorded so far.
    std::vector<std::string> names() const;
    /// Oldest-first copy of one series (empty when unknown).
    std::vector<Point> series(const std::string& name) const;
    /// How many raw samples each stored point of \p name averages.
    uint64_t stride(const std::string& name) const;

    /// {"schema":"cascade.timeseries.v1","capacity":N,"series":{name:
    ///  {"stride":K,"points":[[t,v],...]}}} — t and v at %.6g.
    std::string json() const;

    /// Drops every series (measurement-window bracketing).
    void reset();

  private:
    /// Every stored point is the average of exactly \c stride raw
    /// samples; raw samples accumulate in acc_* until \c stride of them
    /// arrive. Compaction pairwise-averages the stored points and
    /// doubles \c stride, so the invariant holds uniformly across the
    /// series. Readers see the partial accumulator as one provisional
    /// trailing point so the freshest data is never hidden.
    struct Series {
        std::vector<Point> points;
        uint64_t stride = 1;
        double acc_t = 0;
        double acc_v = 0;
        uint64_t acc_n = 0;
    };

    /// Stored points plus the provisional accumulator point (mutex_ held).
    static std::vector<Point> snapshot_locked(const Series& s);

    mutable std::mutex mutex_;
    std::map<std::string, Series> series_;
    size_t capacity_;
};

/// Rolling-window SLO evaluation. Feeds arrive from the runtime thread
/// (compile completions, interrupt flushes, sampled tick rates); tick()
/// — runtime thread only — re-evaluates, updates breach counters, and
/// invokes on_breach for each objective that just transitioned OK->breach;
/// evaluate()/json()/table() are pure reads, safe from the monitor
/// server's thread. A threshold of 0 disables that objective.
class SloTracker {
  public:
    struct Config {
        double window_s = 60;
        double max_cold_compile_p99_s = 0;
        double max_warm_compile_p99_s = 0;
        double max_interrupt_p99_s = 0;
        double min_ticks_per_s = 0;
    };

    struct Objective {
        std::string name;      ///< e.g. "cold_compile_p99_s"
        std::string tenant;    ///< "" for process-wide objectives
        double observed = 0;   ///< current rolling-window statistic
        double threshold = 0;
        bool upper_bound = true; ///< breach when observed > threshold
        uint64_t samples = 0;  ///< points in the window backing \c observed
        bool breached = false;
        uint64_t breaches = 0; ///< cumulative OK->breach transitions
    };

    struct Status {
        bool breached = false; ///< any objective currently breached
        std::vector<Objective> objectives;
    };

    explicit SloTracker(const Config& config);

    /// @{ Feeds (any thread; cheap, bounded memory).
    void record_cold_compile(double now, double seconds);
    void record_warm_compile(double now, double seconds);
    void record_interrupt(double now, double seconds);
    void record_ticks_per_s(double now, const std::string& tenant,
                            double rate);
    /// @}

    /// Re-evaluates every objective at wall-time \p now, updates breach
    /// state/counters, and calls \p on_breach (outside the tracker lock)
    /// once per objective that just entered breach. Runtime thread only —
    /// the callback journals, and journal writes must stay single-source.
    void tick(double now,
              const std::function<void(const Objective&)>& on_breach);

    /// Pure read of the current status as of \p now (no state change).
    Status evaluate(double now) const;

    /// {"schema":"cascade.slo.v1","breached":b,"objectives":[...]}
    std::string json(double now) const;
    /// Fixed-width table (the REPL's :slo view).
    std::string table(double now) const;

    /// Cumulative breach-transition count across all objectives.
    uint64_t total_breaches() const;

    /// Clears windows, breach flags, and breach counters (:stats reset).
    void reset();

    const Config& config() const { return config_; }

  private:
    using Window = std::deque<std::pair<double, double>>; ///< (wall t, v)

    static void push(Window& w, double now, double v);
    void prune(double now);
    /// Appends the current objectives to \p out (mutex_ held).
    void objectives_locked(double now, std::vector<Objective>* out) const;

    static double percentile(const Window& w, double q);

    static constexpr size_t kMaxWindowPoints = 4096;

    const Config config_;
    mutable std::mutex mutex_;
    Window cold_compile_s_;
    Window warm_compile_s_;
    Window interrupt_s_;
    std::map<std::string, Window> ticks_per_s_; ///< keyed by tenant label
    std::map<std::string, bool> breached_;      ///< keyed by name|tenant
    std::map<std::string, uint64_t> breaches_;
    uint64_t total_breaches_ = 0;
};

} // namespace cascade::telemetry

#endif // CASCADE_TELEMETRY_EXPORT_H
