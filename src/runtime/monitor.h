/// \file
/// Live monitoring of one session (README §Monitoring): the time series,
/// the rolling-window SLO tracker, and the embedded HTTP server serving
/// /metrics (Prometheus text), /healthz, /slo, /timeseries, /debug,
/// /requests and /events (the live journal tail as NDJSON). The monitor
/// only observes: the runtime feeds it samples and latencies, and it
/// journals only `slo.breach`, through the callback it was given.

#ifndef CASCADE_RUNTIME_MONITOR_H
#define CASCADE_RUNTIME_MONITOR_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "telemetry/export.h"
#include "telemetry/journal.h"
#include "telemetry/request_trace.h"
#include "telemetry/telemetry.h"

namespace cascade::telemetry {
class MonitorServer;
}
namespace cascade::service {
class CompileService;
}
namespace cascade::hypervisor {
class FabricManager;
}

namespace cascade::runtime {

class Monitor {
  public:
    /// What the monitor reads of its session; all of it outlives the
    /// monitor. \p fabric is null in exclusive mode. The server thread
    /// reads \p halted and calls \p debug_json (the GET /debug body);
    /// \p emit_breach journals one `slo.breach` on the scheduler thread.
    struct Sources {
        telemetry::Registry& registry;
        service::CompileService& compile_service;
        hypervisor::FabricManager* fabric;
        uint64_t tenant;
        const telemetry::RequestTracker& requests;
        telemetry::Journal& journal;
        const std::atomic<bool>& halted;
        std::function<std::string()> debug_json;
        std::function<void(const JsonWriter&)> emit_breach;
    };

    /// Samples every \p timeseries_interval_s wall seconds (<= 0 disables
    /// sampling and SLO evaluation).
    Monitor(Sources sources, double timeseries_interval_s,
            const telemetry::SloTracker::Config& slo);
    ~Monitor();

    /// @{ The HTTP server on 127.0.0.1:\p port (0 = ephemeral; port()
    /// reads the bound one). False + *err on failure or while running.
    bool start(uint16_t port, std::string* err = nullptr);
    void stop();
    bool running() const;
    uint16_t port() const; ///< bound port; 0 when not running
    /// @}

    /// Scheduler hook: every sampling interval it records ticks/s, queue
    /// depths, residency (\p resident: the program runs off the
    /// interpreter) and lock-wait share, then ticks the SLO tracker.
    /// Between intervals it costs one wall-clock read.
    void sample(bool resident);

    /// @{ SLO feeds: a compile's submit-to-acted-on latency (\p warm:
    /// a bitstream-cache hit) and an interrupt's queue residency.
    void record_compile(bool warm, double seconds);
    void record_interrupt(double seconds);
    /// @}

    /// Clears the time-series rings and the SLO windows and breach
    /// counters (the monitor half of :stats reset).
    void reset();

    /// The /metrics body: both metric registries, per-tenant fleet gauges
    /// (`tenant` label), per-site lock contention (`site` label), the
    /// compile service and SLO state. Reads only atomics and locked
    /// snapshots, so the server thread may call it.
    std::string metrics_text() const;

    /// @{ SLO status over the rolling window (GET /slo, REPL :slo).
    std::string slo_json() const { return slo_.json(now()); }
    std::string slo_table() const { return slo_.table(now()); }
    bool slo_breached() const { return slo_.evaluate(now()).breached; }
    telemetry::SloTracker& slo_tracker() { return slo_; }
    /// @}

    /// The time series (GET /timeseries, the crash black box).
    telemetry::TimeSeries& timeseries() { return timeseries_; }

  private:
    /// Wall seconds on the steady clock: the SLO windows' and the time
    /// series' timebase.
    static double now();

    Sources src_;
    /// The `tenant` label value in shared mode ("" in exclusive mode).
    const std::string tenant_label_;
    const double interval_s_;
    const telemetry::Counter* toggles_;
    const telemetry::Gauge* interrupt_depth_;
    telemetry::TimeSeries timeseries_;
    telemetry::SloTracker slo_;
    /// The time series' t = 0.
    const double epoch_wall_;
    /// @{ Scheduler-thread state: the next sample's time and the previous
    /// sample, which rates are deltas against.
    double next_sample_wall_;
    double last_sample_wall_;
    uint64_t last_sample_toggles_ = 0;
    uint64_t last_tenant_wait_ns_ = 0;
    /// @}
    /// Declared last: its thread reads the members above.
    std::unique_ptr<telemetry::MonitorServer> server_;
};

} // namespace cascade::runtime

#endif // CASCADE_RUNTIME_MONITOR_H
