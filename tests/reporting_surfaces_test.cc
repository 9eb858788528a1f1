/// \file
/// Pins the shape of every reporting surface a session exposes: the
/// Prometheus families and types of GET /metrics, the key sets of
/// `:stats json`, `:profile json`, GET /slo and GET /timeseries, and the
/// `:profile` table header. One seeded session runs in exclusive mode and
/// one in shared mode, each with every SLO objective configured and
/// profiling on. The test drives only the REPL and the HTTP endpoints, so
/// it holds the surfaces fixed whichever C++ unit renders them.

#include "runtime/repl.h"

#include <chrono>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "hypervisor/fabric_manager.h"
#include "runtime/runtime.h"
#include "service/compile_service.h"
#include "telemetry/journal.h"
#include "telemetry/monitor_server.h"

namespace cascade::runtime {
namespace {

using Keys = std::set<std::string>;

const char* const kProgram = "reg [7:0] n = 0;\n"
                             "always @(posedge clk.val) begin\n"
                             "  n <= n + 1;\n"
                             "  if (n == 8) $display(\"n=%d\", n);\n"
                             "end\n";

Runtime::Options
seeded_options()
{
    Runtime::Options o;
    o.enable_jit = false;
    o.compile_effort = 0.05;
    o.compile_seed = 7;
    o.profiling = true;
    o.timeseries_interval_s = 0.01;
    o.slo_window_s = 60;
    o.slo_max_cold_compile_p99_s = 600;
    o.slo_max_warm_compile_p99_s = 600;
    o.slo_max_interrupt_p99_s = 600;
    o.slo_min_ticks_per_s = 1;
    return o;
}

/// Every key path of \p v: "a", "a.b", and "a[].b" for objects inside
/// arrays. Paths listed in \p opaque are kept but not descended into.
void
key_paths(const telemetry::JsonValue& v, const std::string& prefix,
          const Keys& opaque, Keys* out)
{
    if (v.kind == telemetry::JsonValue::Kind::Array) {
        for (const telemetry::JsonValue& e : v.arr) {
            key_paths(e, prefix + "[]", opaque, out);
        }
        return;
    }
    if (v.kind != telemetry::JsonValue::Kind::Object) {
        return;
    }
    for (const auto& [k, child] : v.obj) {
        const std::string path = prefix.empty() ? k : prefix + "." + k;
        out->insert(path);
        if (opaque.count(path) == 0) {
            key_paths(child, path, opaque, out);
        }
    }
}

Keys
json_keys(const std::string& text, const Keys& opaque = {})
{
    telemetry::JsonValue v;
    std::string err;
    EXPECT_TRUE(telemetry::parse_json(text, &v, &err))
        << err << "\n" << text;
    Keys out;
    key_paths(v, "", opaque, &out);
    return out;
}

/// "name type" for every `# TYPE` line of a Prometheus exposition.
Keys
prom_families(const std::string& text)
{
    Keys out;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.rfind("# TYPE ", 0) == 0) {
            out.insert(line.substr(7));
        }
    }
    return out;
}

struct Surfaces {
    Keys metrics;
    Keys stats;
    Keys profile;
    Keys slo;
    Keys timeseries;
    std::string profile_header;
};

/// Runs the seeded program on the fabric under \p rt and reads every
/// surface back through the REPL and the monitor's HTTP endpoints.
Surfaces
observe(Runtime& rt)
{
    std::ostringstream out;
    Repl repl(&rt, &out);
    EXPECT_TRUE(repl.feed(kProgram));
    EXPECT_TRUE(rt.wait_for_hardware(120));
    // Several sampling intervals apart, so the time series and the tick-rate
    // objective hold a sample from the fabric.
    for (int i = 0; i < 3; ++i) {
        rt.run_for_ticks(64);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    rt.run_for_ticks(64);

    const auto command = [&](const std::string& line) {
        out.str("");
        repl.feed(line + "\n");
        return out.str();
    };
    const std::string started = command(":monitor 0");
    const std::string marker = "monitoring on 127.0.0.1:";
    const size_t at = started.find(marker);
    EXPECT_NE(at, std::string::npos) << started;
    const auto port = static_cast<uint16_t>(
        std::stoi(started.substr(at + marker.size())));
    const auto get = [port](const std::string& path) {
        int status = 0;
        std::string body;
        std::string err;
        EXPECT_TRUE(telemetry::http_get(port, path, &status, &body, &err))
            << err;
        EXPECT_EQ(status, 200) << path;
        return body;
    };

    Surfaces s;
    s.metrics = prom_families(get("/metrics"));
    s.stats = json_keys(command(":stats json"),
                        {"metrics", "process_metrics"});
    s.profile = json_keys(command(":profile json"));
    s.slo = json_keys(get("/slo"));
    s.timeseries = json_keys(get("/timeseries"));
    const std::string table = command(":profile");
    // The title line and the column header.
    s.profile_header =
        table.substr(0, table.find('\n', table.find('\n') + 1));
    command(":monitor off");
    return s;
}

const Keys kStatsKeys = {
    "compile", "compile.area_bram_bits", "compile.area_les",
    "compile.cache_hit", "compile.fmax_mhz", "compile.place_seconds",
    "compile.seed", "compile.synth_seconds", "compile.techmap_seconds",
    "compile.timing_met", "compile.timing_seconds", "compile.total_seconds",
    "compile_service", "compile_service.cache_hit_rate",
    "compile_service.cache_hits", "compile_service.cache_misses",
    "compile_service.queue_depth", "fifo", "fifo.backlog", "fifo.consumed",
    "finished", "hw_engine", "hw_engine.fabric_cycles",
    "hw_engine.mmio_transactions", "interpreter",
    "interpreter.evaluate_calls", "interpreter.process_executions",
    "interpreter.update_calls", "location", "metrics", "process_metrics",
    "scheduler_iterations", "schema", "timeline_seconds", "transitions",
    "transitions[].clock_mhz", "transitions[].timeline_seconds",
    "transitions[].to", "transitions[].trace_ts_us", "transitions[].version",
    "virtual_ticks",
};

const Keys kProfileKeys = {
    "entries",
    "entries[].eval_ns",
    "entries[].hw_triggers",
    "entries[].instance",
    "entries[].key",
    "entries[].kind",
    "entries[].label",
    "entries[].sw_triggers",
    "entries[].total_triggers",
    "entries[].triggers",
    "location",
    "profiling",
    "schema",
    "virtual_ticks",
};

const Keys kSloKeys = {
    "breached",
    "objectives",
    "objectives[].bound",
    "objectives[].breached",
    "objectives[].breaches",
    "objectives[].name",
    "objectives[].observed",
    "objectives[].samples",
    "objectives[].tenant",
    "objectives[].threshold",
    "schema",
    "window_s",
};

const char* const kProfileHeader =
    "cascade profile (timing on, location Hardware)\n"
    "  instance   kind            sw-trig      hw-trig     eval-ms  "
    "process";

Keys
timeseries_keys(const std::vector<std::string>& series)
{
    Keys out = {"capacity", "schema", "series"};
    for (const std::string& name : series) {
        out.insert("series." + name);
        out.insert("series." + name + ".points");
        out.insert("series." + name + ".stride");
    }
    return out;
}

/// The families of an exclusive session.
const Keys kExclusiveFamilies = {
    "cascade_clock_toggles_total counter",
    "cascade_compile_adopted_total counter",
    "cascade_compile_cache_hits_total counter",
    "cascade_compile_cache_misses_total counter",
    "cascade_compile_cancelled_total counter",
    "cascade_compile_launched_total counter",
    "cascade_compile_queue_depth gauge",
    "cascade_compile_queue_depth_high_water gauge",
    "cascade_compile_rejected_total counter",
    "cascade_compile_service_cache_entries gauge",
    "cascade_compile_service_cache_hit_rate gauge",
    "cascade_compile_service_queue_depth gauge",
    "cascade_compile_wait_ns summary",
    "cascade_debug_fires_total counter",
    "cascade_debug_halted gauge",
    "cascade_debug_halted_high_water gauge",
    "cascade_debug_peeks_total counter",
    "cascade_debug_points gauge",
    "cascade_debug_points_high_water gauge",
    "cascade_debug_steps_total counter",
    "cascade_engine_hw_evaluate_total counter",
    "cascade_engine_hw_update_total counter",
    "cascade_engine_sw_evaluate_total counter",
    "cascade_engine_sw_update_total counter",
    "cascade_fifo_backlog gauge",
    "cascade_fifo_backlog_high_water gauge",
    "cascade_fpga_compile_place_ns summary",
    "cascade_fpga_compile_synth_ns summary",
    "cascade_fpga_compile_techmap_ns summary",
    "cascade_fpga_compile_timing_ns summary",
    "cascade_fpga_program_loaded_total counter",
    "cascade_hw_tasks_serviced_total counter",
    "cascade_interrupt_enqueued_total counter",
    "cascade_interrupt_queue_depth gauge",
    "cascade_interrupt_queue_depth_high_water gauge",
    "cascade_jit_adopted_total counter",
    "cascade_jit_discarded_total counter",
    "cascade_jit_launched_total counter",
    "cascade_jit_unavailable_total counter",
    "cascade_lock_acquisitions_total counter",
    "cascade_lock_contended_total counter",
    "cascade_lock_hold_seconds_total counter",
    "cascade_lock_wait_p99_seconds gauge",
    "cascade_lock_wait_seconds_total counter",
    "cascade_monitor_events_dropped_total counter",
    "cascade_monitor_lines_total counter",
    "cascade_monitor_suppressed_total counter",
    "cascade_net_events_routed_total counter",
    "cascade_openloop_batch summary",
    "cascade_openloop_iterations_total counter",
    "cascade_openloop_wall_ns summary",
    "cascade_repl_eval_ns summary",
    "cascade_repl_evals_accepted_total counter",
    "cascade_repl_evals_rejected_total counter",
    "cascade_request_admission_ns summary",
    "cascade_request_adoption_ns summary",
    "cascade_request_cache_ns summary",
    "cascade_request_eval_ns summary",
    "cascade_request_first_tick_ns summary",
    "cascade_request_overhead_ns summary",
    "cascade_request_place_ns summary",
    "cascade_request_queue_ns summary",
    "cascade_request_synth_ns summary",
    "cascade_request_techmap_ns summary",
    "cascade_request_timing_ns summary",
    "cascade_request_total_ns summary",
    "cascade_request_wait_ns summary",
    "cascade_requests_completed_total counter",
    "cascade_requests_open gauge",
    "cascade_scheduler_iterations_total counter",
    "cascade_scheduler_step_ns summary",
    "cascade_slo_breached gauge",
    "cascade_slo_breaches_total counter",
    "cascade_slo_objective_breached gauge",
    "cascade_slo_objective_observed gauge",
    "cascade_slo_objective_threshold gauge",
    "cascade_transition_count_total counter",
    "cascade_up gauge",
    "cascade_vcd_bytes_written_total counter",
    "cascade_vcd_samples_total counter",
    "cascade_virtual_ticks gauge",
};

/// The families a shared session adds: the hypervisor's process metrics
/// and the per-tenant fleet view.
const Keys kSharedOnlyFamilies = {
    "cascade_hypervisor_admissions_total counter",
    "cascade_hypervisor_denials_total counter",
    "cascade_hypervisor_evictions_total counter",
    "cascade_hypervisor_resident gauge",
    "cascade_hypervisor_resident_high_water gauge",
    "cascade_hypervisor_tenants gauge",
    "cascade_hypervisor_tenants_high_water gauge",
    "cascade_tenant_evictions_total counter",
    "cascade_tenant_le_used gauge",
    "cascade_tenant_lock_wait_seconds_total counter",
    "cascade_tenant_lock_wait_share gauge",
    "cascade_tenant_resident gauge",
    "cascade_tenant_ticks_per_s gauge",
};

/// One test, exclusive session first: the process registry keeps every
/// family a session created, so the shared session's expected set is the
/// union of both lists in this order.
TEST(ReportingSurfaces, ExclusiveThenSharedSession)
{
    {
        SCOPED_TRACE("exclusive");
        Runtime rt(seeded_options());
        const Surfaces s = observe(rt);
        EXPECT_EQ(s.metrics, kExclusiveFamilies);
        EXPECT_EQ(s.stats, kStatsKeys);
        EXPECT_EQ(s.profile, kProfileKeys);
        Keys slo = kSloKeys;
        slo.erase("objectives[].tenant");
        EXPECT_EQ(s.slo, slo);
        EXPECT_EQ(s.timeseries,
                  timeseries_keys({"runtime.halted",
                                   "runtime.interrupt_depth",
                                   "runtime.resident", "runtime.ticks_per_s",
                                   "service.cache_hit_rate",
                                   "service.queue_depth"}));
        EXPECT_EQ(s.profile_header, kProfileHeader);
    }
    {
        SCOPED_TRACE("shared");
        service::CompileService::Config cfg;
        cfg.workers = 1;
        service::CompileService svc(cfg);
        hypervisor::FabricManager fm;
        Runtime::Options o = seeded_options();
        o.tenant_name = "pin";
        Runtime rt(o, svc, fm);
        const Surfaces s = observe(rt);
        Keys families = kExclusiveFamilies;
        families.insert(kSharedOnlyFamilies.begin(),
                        kSharedOnlyFamilies.end());
        EXPECT_EQ(s.metrics, families);
        EXPECT_EQ(s.stats, kStatsKeys);
        EXPECT_EQ(s.profile, kProfileKeys);
        EXPECT_EQ(s.slo, kSloKeys);
        EXPECT_EQ(s.timeseries,
                  timeseries_keys({"runtime.halted",
                                   "runtime.interrupt_depth",
                                   "runtime.lock_wait_share",
                                   "runtime.resident", "runtime.ticks_per_s",
                                   "service.cache_hit_rate",
                                   "service.queue_depth",
                                   "tenant.pin.ticks_per_s"}));
        EXPECT_EQ(s.profile_header, kProfileHeader);
    }
}

} // namespace
} // namespace cascade::runtime
