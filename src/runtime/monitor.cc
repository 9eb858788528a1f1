#include "runtime/monitor.h"

#include <algorithm>
#include <chrono>

#include "hypervisor/fabric_manager.h"
#include "service/compile_service.h"
#include "telemetry/monitor_server.h"
#include "telemetry/sync.h"

namespace cascade::runtime {

double
Monitor::now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

Monitor::Monitor(Sources sources, double timeseries_interval_s,
                 const telemetry::SloTracker::Config& slo)
    : src_(std::move(sources)),
      tenant_label_(src_.fabric != nullptr
                        ? src_.fabric->tenant_name(src_.tenant)
                        : ""),
      interval_s_(timeseries_interval_s),
      toggles_(src_.registry.counter("clock.toggles")),
      interrupt_depth_(src_.registry.gauge("interrupt.queue_depth")),
      slo_(slo), epoch_wall_(now()),
      next_sample_wall_(epoch_wall_ + std::max(0.0, interval_s_)),
      last_sample_wall_(epoch_wall_)
{}

Monitor::~Monitor() { stop(); }

void
Monitor::sample(bool resident)
{
    if (interval_s_ <= 0) {
        return;
    }
    const double wall = now();
    if (wall < next_sample_wall_) {
        return;
    }
    next_sample_wall_ = wall + interval_s_;
    const double t = wall - epoch_wall_;
    const double dt = wall - last_sample_wall_;
    // Rates are deltas against the previous sample; counters can move
    // backwards across a :stats reset, in which case the delta restarts.
    const uint64_t toggles = toggles_->value();
    const uint64_t dtoggles = toggles >= last_sample_toggles_
                                  ? toggles - last_sample_toggles_
                                  : toggles;
    const double ticks_per_s =
        dt > 0 ? (static_cast<double>(dtoggles) / 2.0) / dt : 0.0;
    last_sample_wall_ = wall;
    last_sample_toggles_ = toggles;

    timeseries_.sample("runtime.ticks_per_s", t, ticks_per_s);
    timeseries_.sample("runtime.interrupt_depth", t,
                       static_cast<double>(interrupt_depth_->value()));
    timeseries_.sample("runtime.resident", t, resident ? 1.0 : 0.0);
    timeseries_.sample(
        "runtime.halted", t,
        src_.halted.load(std::memory_order_relaxed) ? 1.0 : 0.0);
    timeseries_.sample(
        "service.queue_depth", t,
        static_cast<double>(src_.compile_service.queued_jobs()));
    timeseries_.sample("service.cache_hit_rate", t,
                       src_.compile_service.cache_hit_rate());
    if (src_.fabric != nullptr) {
        const auto waits =
            telemetry::SyncRegistry::global().tenant_waits();
        const auto it = waits.find(src_.tenant);
        const uint64_t wait_ns = it == waits.end() ? 0 : it->second;
        const uint64_t dwait = wait_ns >= last_tenant_wait_ns_
                                   ? wait_ns - last_tenant_wait_ns_
                                   : wait_ns;
        last_tenant_wait_ns_ = wait_ns;
        const double share =
            dt > 0 ? std::min(1.0, static_cast<double>(dwait) / 1e9 / dt)
                   : 0.0;
        timeseries_.sample("runtime.lock_wait_share", t, share);
        timeseries_.sample("tenant." + tenant_label_ + ".ticks_per_s", t,
                           ticks_per_s);
    }
    slo_.record_ticks_per_s(wall, tenant_label_, ticks_per_s);
    slo_.tick(wall, [this](const telemetry::SloTracker::Objective& o) {
        JsonWriter w;
        w.str("objective", o.name);
        if (!o.tenant.empty()) {
            w.str("tenant", o.tenant);
        }
        w.dbl("observed", o.observed);
        w.dbl("threshold", o.threshold);
        w.num("breaches", o.breaches);
        src_.emit_breach(w);
    });
}

void
Monitor::record_compile(bool warm, double seconds)
{
    const double wall = now();
    if (warm) {
        slo_.record_warm_compile(wall, seconds);
    } else {
        slo_.record_cold_compile(wall, seconds);
    }
}

void
Monitor::record_interrupt(double seconds)
{
    // Off the scheduler's hot path unless the objective is configured.
    if (slo_.config().max_interrupt_p99_s > 0) {
        slo_.record_interrupt(now(), seconds);
    }
}

bool
Monitor::start(uint16_t port, std::string* err)
{
    if (running()) {
        if (err != nullptr) {
            *err = "monitor already running on port " +
                   std::to_string(this->port());
        }
        return false;
    }
    server_ = std::make_unique<telemetry::MonitorServer>();
    server_->handle("/metrics",
                    "text/plain; version=0.0.4; charset=utf-8",
                    [this] { return metrics_text(); });
    server_->handle("/slo", "application/json",
                    [this] { return slo_json(); });
    server_->handle("/healthz", "application/json", [this] {
        const bool breached = slo_breached();
        return JsonWriter()
                   .str("status", breached ? "breached" : "ok")
                   .boolean("breached", breached)
                   .build() +
               '\n';
    });
    server_->handle("/timeseries", "application/json", [this] {
        // While halted at a debugger point the scheduler — and with it
        // the in-window sampler — is parked, which used to flatline the
        // series mid-halt. Heartbeat from the scrape itself instead:
        // TimeSeries is internally locked, so the server thread may
        // sample concurrently with the scheduler.
        if (src_.halted.load(std::memory_order_relaxed)) {
            const double t = now() - epoch_wall_;
            timeseries_.sample("runtime.halted", t, 1.0);
            timeseries_.sample("runtime.ticks_per_s", t, 0.0);
        }
        return timeseries_.json();
    });
    server_->handle("/debug", "application/json", src_.debug_json);
    server_->handle("/requests", "application/x-ndjson",
                    [this] { return src_.requests.ndjson(); });
    server_->attach_journal(&src_.journal);
    // server_ is set before the thread starts, so its handlers (which
    // read events_dropped()) see it without a race.
    if (!server_->start(port, err)) {
        server_.reset();
        return false;
    }
    return true;
}

void
Monitor::stop()
{
    if (server_ != nullptr) {
        server_->stop();
        server_.reset();
    }
}

bool
Monitor::running() const
{
    return server_ != nullptr && server_->running();
}

uint16_t
Monitor::port() const
{
    return server_ != nullptr ? server_->port() : 0;
}

void
Monitor::reset()
{
    // Sampling delta state restarts via the backwards-counter guards in
    // sample().
    timeseries_.reset();
    slo_.reset();
    last_sample_toggles_ = 0;
    last_tenant_wait_ns_ = 0;
}

std::string
Monitor::metrics_text() const
{
    using telemetry::PromWriter;
    PromWriter w;
    // A family with one unlabeled sample.
    const auto scalar = [&w](const char* name, const char* type,
                             const char* help, auto value) {
        w.family(name, type, help);
        w.sample(name, {}, value);
    };

    scalar("cascade_up", "gauge", "1 while this runtime is live.",
           uint64_t{1});
    scalar("cascade_virtual_ticks", "gauge",
           "Virtual clock ticks executed by this runtime.",
           toggles_->value() / 2);

    // Registry dumps: this runtime's scoped registry plus the process
    // registry. The scope label keeps identically-named series apart;
    // shared-mode runtime series additionally carry the tenant.
    const auto render = [&w](const telemetry::Registry::Snapshot& snap,
                             const PromWriter::Labels& labels) {
        for (const auto& [name, value] : snap.counters) {
            const std::string fam =
                telemetry::prom_sanitize_name(name) + "_total";
            w.family(fam, "counter", "Counter " + name + ".");
            w.sample(fam, labels, value);
        }
        for (const auto& [name, g] : snap.gauges) {
            const std::string fam = telemetry::prom_sanitize_name(name);
            w.family(fam, "gauge", "Gauge " + name + ".");
            w.sample(fam, labels, static_cast<double>(g.value));
            const std::string hw = fam + "_high_water";
            w.family(hw, "gauge", "High-water mark of " + name + ".");
            w.sample(hw, labels, static_cast<double>(g.high_water));
        }
        for (const auto& [name, h] : snap.histograms) {
            const std::string fam = telemetry::prom_sanitize_name(name);
            w.family(fam, "summary", "Histogram " + name + ".");
            PromWriter::Labels q = labels;
            q.emplace_back("quantile", "0.5");
            w.sample(fam, q, static_cast<double>(h.p50));
            q.back().second = "0.9";
            w.sample(fam, q, static_cast<double>(h.p90));
            q.back().second = "0.99";
            w.sample(fam, q, static_cast<double>(h.p99));
            w.sample(fam, labels, h.sum, "_sum");
            w.sample(fam, labels, h.count, "_count");
        }
    };
    PromWriter::Labels runtime_labels = {{"scope", "runtime"}};
    if (src_.fabric != nullptr) {
        runtime_labels.emplace_back("tenant", tenant_label_);
    }
    render(src_.registry.snapshot(), runtime_labels);
    render(telemetry::Registry::global().snapshot(),
           {{"scope", "process"}});

    // Fleet view (shared mode): one labeled series per tenant from the
    // hypervisor's slot map and the sync registry's wait totals.
    if (src_.fabric != nullptr) {
        w.family("cascade_tenant_resident", "gauge",
                 "1 while the tenant's user logic is on the fabric.");
        w.family("cascade_tenant_ticks_per_s", "gauge",
                 "Open-loop ticks per second per tenant (fleet view).");
        w.family("cascade_tenant_le_used", "gauge",
                 "Logic elements occupied by the tenant's slot.");
        w.family("cascade_tenant_evictions_total", "counter",
                 "Completed evictions of the tenant.");
        w.family("cascade_tenant_lock_wait_seconds_total", "counter",
                 "Blocked time accrued by the tenant's threads.");
        w.family("cascade_tenant_lock_wait_share", "gauge",
                 "The tenant's share of the fleet's total blocked time.");
        for (const auto& s : src_.fabric->slot_map()) {
            const PromWriter::Labels l = {{"tenant", s.name}};
            w.sample("cascade_tenant_resident", l,
                     uint64_t{s.resident ? 1u : 0u});
            w.sample("cascade_tenant_ticks_per_s", l, s.ticks_per_s);
            w.sample("cascade_tenant_le_used", l, s.le_count);
            w.sample("cascade_tenant_evictions_total", l, s.evictions);
            w.sample("cascade_tenant_lock_wait_seconds_total", l,
                     static_cast<double>(s.wait_ns) / 1e9);
            w.sample("cascade_tenant_lock_wait_share", l, s.wait_share);
        }
    }

    // Lock contention, one series per named site (the sync registry).
    const auto sites = telemetry::SyncRegistry::global().snapshot();
    if (!sites.empty()) {
        w.family("cascade_lock_acquisitions_total", "counter",
                 "Lock/CV acquisitions per sync site.");
        w.family("cascade_lock_contended_total", "counter",
                 "Acquisitions that blocked, per sync site.");
        w.family("cascade_lock_wait_seconds_total", "counter",
                 "Total blocked seconds per sync site.");
        w.family("cascade_lock_wait_p99_seconds", "gauge",
                 "p99 blocked time per sync site.");
        w.family("cascade_lock_hold_seconds_total", "counter",
                 "Total hold seconds per sync site (mutex sites).");
        for (const auto& s : sites) {
            const PromWriter::Labels l = {{"site", s.name},
                                          {"kind", s.kind}};
            w.sample("cascade_lock_acquisitions_total", l,
                     s.acquisitions);
            w.sample("cascade_lock_contended_total", l, s.contended);
            w.sample("cascade_lock_wait_seconds_total", l,
                     static_cast<double>(s.wait_sum_ns) / 1e9);
            w.sample("cascade_lock_wait_p99_seconds", l,
                     static_cast<double>(s.wait_p99_ns) / 1e9);
            w.sample("cascade_lock_hold_seconds_total", l,
                     static_cast<double>(s.hold_sum_ns) / 1e9);
        }
    }

    // Compile service (distinct names from the registry's compile.*
    // metrics so the explicit gauges never collide with a registry dump).
    const service::CompileService& svc = src_.compile_service;
    scalar("cascade_compile_service_queue_depth", "gauge",
           "Jobs queued in the pooled compile service.",
           uint64_t{svc.queued_jobs()});
    scalar("cascade_compile_service_cache_entries", "gauge",
           "Bitstreams resident in the compile cache.",
           uint64_t{svc.cache_entries()});
    scalar("cascade_compile_service_cache_hit_rate", "gauge",
           "Bitstream-cache hit rate since process start.",
           svc.cache_hit_rate());

    // SLO status (also at /slo in JSON).
    const telemetry::SloTracker::Status status = slo_.evaluate(now());
    scalar("cascade_slo_breached", "gauge",
           "1 while any SLO objective is in breach.",
           uint64_t{status.breached ? 1u : 0u});
    scalar("cascade_slo_breaches_total", "counter",
           "Cumulative OK->breach transitions across objectives.",
           slo_.total_breaches());
    if (!status.objectives.empty()) {
        w.family("cascade_slo_objective_observed", "gauge",
                 "Rolling-window statistic per SLO objective.");
        w.family("cascade_slo_objective_threshold", "gauge",
                 "Configured threshold per SLO objective.");
        w.family("cascade_slo_objective_breached", "gauge",
                 "1 while the objective is in breach.");
        for (const auto& o : status.objectives) {
            PromWriter::Labels l = {{"objective", o.name}};
            if (!o.tenant.empty()) {
                l.emplace_back("tenant", o.tenant);
            }
            w.sample("cascade_slo_objective_observed", l, o.observed);
            w.sample("cascade_slo_objective_threshold", l, o.threshold);
            w.sample("cascade_slo_objective_breached", l,
                     uint64_t{o.breached ? 1u : 0u});
        }
    }

    // Request tracing: lifetime counts here; the per-segment latency
    // histograms (cascade_request_<segment>_ns) ride in the runtime
    // registry dump above, fed by the tracker as requests complete.
    scalar("cascade_requests_completed_total", "counter",
           "Finished traced requests (evals, compiles, interrupt "
           "batches, evictions).",
           src_.requests.completed_total());
    scalar("cascade_requests_open", "gauge",
           "Traced requests currently in flight.",
           uint64_t{src_.requests.open_count()});

    if (server_ != nullptr) {
        scalar("cascade_monitor_events_dropped_total", "counter",
               "/events lines dropped to streaming backpressure.",
               server_->events_dropped());
    }
    return w.render();
}

} // namespace cascade::runtime
