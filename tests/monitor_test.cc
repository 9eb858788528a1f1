/// \file
/// Integration tests for the live monitoring endpoint: server lifecycle
/// (ephemeral ports, 404s, double-start rejection), /metrics scrapes that
/// must validate against the strict Prometheus checker and carry
/// per-tenant and per-site labels in shared mode, /events streaming whose
/// lines must be byte-identical to the on-disk journal mirror, /timeseries
/// sampling from the scheduler, and an induced SLO breach (a cold compile
/// against a sub-nanosecond threshold) that must flip /slo and /healthz
/// and journal a `slo.breach` event.

#include "runtime/runtime.h"

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "hypervisor/fabric_manager.h"
#include "service/compile_service.h"
#include "telemetry/export.h"
#include "telemetry/journal.h"
#include "telemetry/monitor_server.h"
#include "telemetry/sync.h"

namespace cascade {
namespace {

using hypervisor::FabricManager;
using runtime::Runtime;
using service::CompileService;

std::string
temp_path(const std::string& name)
{
    return (std::filesystem::temp_directory_path() /
            ("cascade_monitor_test_" + std::to_string(::getpid()) + "_" +
             name))
        .string();
}

const char* const kCounter = "reg [7:0] n = 0;\n"
                             "always @(posedge clk.val) begin\n"
                             "  n <= n + 1;\n"
                             "end\n";

TEST(Monitor, LifecycleEphemeralPortAnd404)
{
    Runtime::Options opts;
    opts.enable_hardware = false;
    Runtime rt(opts);
    EXPECT_FALSE(rt.monitor().running());
    EXPECT_EQ(rt.monitor().port(), 0);

    std::string err;
    ASSERT_TRUE(rt.monitor().start(0, &err)) << err;
    EXPECT_TRUE(rt.monitor().running());
    const uint16_t port = rt.monitor().port();
    EXPECT_NE(port, 0);

    // A second start on the live runtime is rejected, not stacked.
    EXPECT_FALSE(rt.monitor().start(0, &err));
    EXPECT_NE(err.find("already"), std::string::npos) << err;

    int status = 0;
    std::string body;
    ASSERT_TRUE(telemetry::http_get(port, "/healthz", &status, &body,
                                    &err))
        << err;
    EXPECT_EQ(status, 200);
    EXPECT_NE(body.find("\"status\":\"ok\""), std::string::npos) << body;

    ASSERT_TRUE(
        telemetry::http_get(port, "/nonsense", &status, &body, &err))
        << err;
    EXPECT_EQ(status, 404);

    rt.monitor().stop();
    EXPECT_FALSE(rt.monitor().running());
    rt.monitor().stop(); // idempotent
}

TEST(Monitor, MetricsScrapeIsValidPrometheusText)
{
    Runtime::Options opts;
    opts.enable_hardware = false;
    Runtime rt(opts);
    ASSERT_TRUE(rt.eval(kCounter));
    rt.run(128);

    std::string err;
    ASSERT_TRUE(rt.monitor().start(0, &err)) << err;
    int status = 0;
    std::string body;
    ASSERT_TRUE(telemetry::http_get(rt.monitor().port(), "/metrics",
                                    &status, &body, &err))
        << err;
    EXPECT_EQ(status, 200);
    EXPECT_TRUE(telemetry::validate_prometheus_text(body, &err))
        << err << "\n" << body.substr(0, 2000);

    // Both registries show up, scope-labeled, plus the service gauges.
    EXPECT_NE(body.find("cascade_up 1"), std::string::npos);
    EXPECT_NE(body.find("scope=\"runtime\""), std::string::npos);
    EXPECT_NE(body.find("scope=\"process\""), std::string::npos);
    EXPECT_NE(body.find("cascade_compile_service_queue_depth"),
              std::string::npos);
    EXPECT_NE(body.find("cascade_slo_breached 0"), std::string::npos);
}

TEST(Monitor, SharedModeMetricsCarryTenantAndSiteLabels)
{
    CompileService::Config cfg;
    cfg.workers = 2;
    CompileService svc(cfg);
    FabricManager fm;

    Runtime::Options oa;
    oa.enable_hardware = true;
    oa.compile_effort = 0.05;
    oa.compile_seed = 7;
    oa.tenant_name = "mon-a";
    Runtime a(oa, svc, fm);
    Runtime::Options ob = oa;
    ob.tenant_name = "mon-b";
    Runtime b(ob, svc, fm);

    ASSERT_TRUE(a.eval(kCounter));
    ASSERT_TRUE(b.eval(kCounter));
    ASSERT_TRUE(a.wait_for_hardware(120.0));
    ASSERT_TRUE(b.wait_for_hardware(120.0));
    a.run(64);
    b.run(64);

    std::string err;
    ASSERT_TRUE(a.monitor().start(0, &err)) << err;
    int status = 0;
    std::string body;
    ASSERT_TRUE(telemetry::http_get(a.monitor().port(), "/metrics",
                                    &status, &body, &err))
        << err;
    EXPECT_EQ(status, 200);
    EXPECT_TRUE(telemetry::validate_prometheus_text(body, &err)) << err;

    // The fleet view lists every tenant on the shared fabric, not just
    // the serving runtime.
    EXPECT_NE(body.find("cascade_tenant_resident{tenant=\"mon-a\"}"),
              std::string::npos)
        << body.substr(0, 2000);
    EXPECT_NE(body.find("cascade_tenant_resident{tenant=\"mon-b\"}"),
              std::string::npos);
    EXPECT_NE(body.find("cascade_tenant_ticks_per_s{tenant=\"mon-a\"}"),
              std::string::npos);
    // The serving runtime's own registry is tenant-tagged too.
    EXPECT_NE(body.find("tenant=\"mon-a\""), std::string::npos);

    // Shared-mode compiles acquire instrumented locks, so per-site
    // contention series must be present and site-labeled.
    ASSERT_FALSE(telemetry::SyncRegistry::global().snapshot().empty());
    EXPECT_NE(body.find("cascade_lock_acquisitions_total{site=\""),
              std::string::npos);
}

TEST(Monitor, EventsStreamMatchesOnDiskJournalBytes)
{
    const std::string path = temp_path("events.jsonl");
    Runtime::Options opts;
    opts.enable_hardware = false;
    Runtime rt(opts);
    std::string err;
    ASSERT_TRUE(rt.start_recording(path, &err)) << err;
    ASSERT_TRUE(rt.eval(kCounter));
    rt.run(100);
    rt.stop_recording();

    const auto ring = rt.journal().ring();
    ASSERT_FALSE(ring.empty());
    ASSERT_LT(ring.size(), 256u); // nothing fell out of the ring

    ASSERT_TRUE(rt.monitor().start(0, &err)) << err;
    std::vector<std::string> streamed;
    ASSERT_TRUE(telemetry::http_stream_lines(rt.monitor().port(),
                                             "/events", ring.size(),
                                             10000, &streamed, &err))
        << err;
    ASSERT_EQ(streamed.size(), ring.size());

    // The on-disk mirror: one header line, then one line per event,
    // produced by the same Journal::event_json the stream uses. The ring
    // also holds construction-time events from before start_recording,
    // so compare the overlapping tail — every mirrored event must be
    // byte-identical to its streamed line.
    std::ifstream in(path);
    ASSERT_TRUE(in.is_open());
    std::string line;
    ASSERT_TRUE(std::getline(in, line)); // schema header
    std::vector<std::string> file_events;
    while (std::getline(in, line)) {
        file_events.push_back(line);
    }
    ASSERT_FALSE(file_events.empty());
    ASSERT_LE(file_events.size(), streamed.size());
    const size_t skip = streamed.size() - file_events.size();
    for (size_t i = 0; i < file_events.size(); ++i) {
        EXPECT_EQ(streamed[skip + i], file_events[i]) << "line " << i;
    }
    std::filesystem::remove(path);
}

TEST(Monitor, TimeseriesSampledFromScheduler)
{
    Runtime::Options opts;
    opts.enable_hardware = false;
    opts.timeseries_interval_s = 0.0005; // sample essentially every window
    Runtime rt(opts);
    ASSERT_TRUE(rt.eval(kCounter));
    for (int i = 0; i < 50 && rt.monitor().timeseries().names().empty();
         ++i) {
        rt.run(64);
    }
    const auto names = rt.monitor().timeseries().names();
    const std::set<std::string> set(names.begin(), names.end());
    EXPECT_TRUE(set.count("runtime.ticks_per_s")) << names.size();
    EXPECT_TRUE(set.count("service.queue_depth"));

    std::string err;
    ASSERT_TRUE(rt.monitor().start(0, &err)) << err;
    int status = 0;
    std::string body;
    ASSERT_TRUE(telemetry::http_get(rt.monitor().port(), "/timeseries",
                                    &status, &body, &err))
        << err;
    EXPECT_EQ(status, 200);
    EXPECT_NE(body.find("\"schema\":\"cascade.timeseries.v1\""),
              std::string::npos);
    EXPECT_NE(body.find("runtime.ticks_per_s"), std::string::npos);
}

TEST(Monitor, InducedSlowCompileBreachesSloAndJournals)
{
    Runtime::Options opts;
    opts.enable_hardware = true;
    opts.compile_effort = 0.05;
    opts.compile_seed = 7;
    // Any real compile is slower than a nanosecond: guaranteed breach.
    opts.slo_max_cold_compile_p99_s = 1e-9;
    opts.timeseries_interval_s = 0.0005;
    Runtime rt(opts);
    ASSERT_TRUE(rt.eval(kCounter));
    ASSERT_TRUE(rt.wait_for_hardware(120.0));

    // The breach is journaled by the scheduler's SLO tick; run until the
    // event shows up in the ring.
    bool journaled = false;
    for (int i = 0; i < 200 && !journaled; ++i) {
        rt.run(64);
        for (const auto& ev : rt.journal().ring()) {
            if (ev.type == "slo.breach") {
                journaled = true;
                EXPECT_NE(ev.data.find("cold_compile_p99_s"),
                          std::string::npos)
                    << ev.data;
            }
        }
    }
    EXPECT_TRUE(journaled);
    EXPECT_TRUE(rt.monitor().slo_breached());

    std::string err;
    ASSERT_TRUE(rt.monitor().start(0, &err)) << err;
    int status = 0;
    std::string body;
    ASSERT_TRUE(telemetry::http_get(rt.monitor().port(), "/slo", &status,
                                    &body, &err))
        << err;
    EXPECT_EQ(status, 200);
    EXPECT_NE(body.find("\"breached\":true"), std::string::npos) << body;
    EXPECT_NE(body.find("cold_compile_p99_s"), std::string::npos);

    ASSERT_TRUE(telemetry::http_get(rt.monitor().port(), "/healthz",
                                    &status, &body, &err))
        << err;
    EXPECT_NE(body.find("\"status\":\"breached\""), std::string::npos);

    // And /metrics agrees.
    ASSERT_TRUE(telemetry::http_get(rt.monitor().port(), "/metrics",
                                    &status, &body, &err))
        << err;
    EXPECT_NE(body.find("cascade_slo_breached 1"), std::string::npos);
    EXPECT_TRUE(telemetry::validate_prometheus_text(body, &err)) << err;
}

TEST(Monitor, OffThenOnSamePortRebindsImmediately)
{
    // :monitor off followed by :monitor <same port> must rebind right
    // away -- the listener sets SO_REUSEADDR, so a lingering TIME_WAIT
    // socket from the previous incarnation cannot block the port.
    Runtime::Options opts;
    opts.enable_hardware = false;
    Runtime rt(opts);
    ASSERT_TRUE(rt.eval(kCounter));
    rt.run(32);

    std::string err;
    ASSERT_TRUE(rt.monitor().start(0, &err)) << err;
    const uint16_t port = rt.monitor().port();
    ASSERT_NE(port, 0);

    // Serve at least one request so the socket has seen traffic.
    int status = 0;
    std::string body;
    ASSERT_TRUE(telemetry::http_get(port, "/healthz", &status, &body,
                                    &err))
        << err;
    EXPECT_EQ(status, 200);

    rt.monitor().stop();
    ASSERT_FALSE(rt.monitor().running());

    // Rebind the exact same port, immediately.
    ASSERT_TRUE(rt.monitor().start(port, &err)) << err;
    EXPECT_EQ(rt.monitor().port(), port);
    ASSERT_TRUE(telemetry::http_get(port, "/healthz", &status, &body,
                                    &err))
        << err;
    EXPECT_EQ(status, 200);
    EXPECT_NE(body.find("\"status\":\"ok\""), std::string::npos);
    rt.monitor().stop();
}

TEST(Monitor, RequestsEndpointServesNdjsonSpans)
{
    Runtime::Options opts;
    opts.enable_hardware = false;
    Runtime rt(opts);
    ASSERT_TRUE(rt.eval(kCounter));
    rt.run(32);

    std::string err;
    ASSERT_TRUE(rt.monitor().start(0, &err)) << err;
    int status = 0;
    std::string body;
    ASSERT_TRUE(telemetry::http_get(rt.monitor().port(), "/requests",
                                    &status, &body, &err))
        << err;
    EXPECT_EQ(status, 200);

    // One JSON object per line; the eval request is in there with its
    // identity and segment partition.
    ASSERT_FALSE(body.empty());
    std::istringstream lines(body);
    std::string line;
    size_t parsed = 0;
    bool saw_eval = false;
    while (std::getline(lines, line)) {
        ASSERT_EQ(line.front(), '{') << line;
        ASSERT_EQ(line.back(), '}') << line;
        EXPECT_NE(line.find("\"id\":"), std::string::npos) << line;
        EXPECT_NE(line.find("\"segments\":["), std::string::npos);
        if (line.find("\"kind\":\"eval\"") != std::string::npos) {
            saw_eval = true;
        }
        ++parsed;
    }
    EXPECT_GE(parsed, 1u);
    EXPECT_TRUE(saw_eval) << body;
    rt.monitor().stop();
}

} // namespace
} // namespace cascade
