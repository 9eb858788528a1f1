/// \file
/// CI smoke check for the live monitoring endpoint. Starts a monitored
/// runtime (ephemeral port), runs a small always-block workload, and
/// scrapes every endpoint the way an operator's Prometheus/curl would:
///
///   - /metrics twice: both scrapes must pass the strict text-exposition
///     validator and the virtual-tick gauge must be monotonic between
///     them (counters that go backwards break rate() queries);
///   - /healthz, /slo, /timeseries: status 200 and schema markers;
///   - /requests: the traced-request feed must yield NDJSON objects
///     with request ids and segment partitions;
///   - /events: the live journal tail must yield NDJSON lines whose
///     sequence numbers strictly increase;
///   - /debug: after arming a breakpoint and running to the fire, the
///     debugger snapshot must report the halted point and the
///     cascade_debug_* metric families must be live in /metrics.
///
/// Artifacts (metrics.prom, slo.json, timeseries.json, requests.ndjson,
/// events.ndjson, debug.json) are written next to the binary for CI
/// upload. Exits nonzero on any failure, so the CI step is a real gate
/// on the monitoring surface.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "runtime/runtime.h"
#include "telemetry/export.h"
#include "telemetry/journal.h"
#include "telemetry/monitor_server.h"

using cascade::runtime::Runtime;

namespace {

int failures = 0;

void
check(bool ok, const std::string& what)
{
    if (ok) {
        std::fprintf(stderr, "ok   %s\n", what.c_str());
    } else {
        std::fprintf(stderr, "FAIL %s\n", what.c_str());
        ++failures;
    }
}

void
save(const std::string& path, const std::string& body)
{
    std::ofstream out(path);
    out << body;
}

double
metric_value(const std::string& text, const std::string& name)
{
    // First sample line of `name` (exact match or with labels).
    size_t pos = 0;
    while ((pos = text.find(name, pos)) != std::string::npos) {
        const bool line_start = pos == 0 || text[pos - 1] == '\n';
        const size_t after = pos + name.size();
        const char c = after < text.size() ? text[after] : '\0';
        if (line_start && (c == ' ' || c == '{')) {
            const size_t sp = text.find(' ', pos);
            if (sp != std::string::npos) {
                return std::strtod(text.c_str() + sp + 1, nullptr);
            }
        }
        pos = after;
    }
    return -1;
}

} // namespace

int
main()
{
    Runtime::Options opts;
    opts.enable_hardware = false;
    opts.timeseries_interval_s = 0.001;
    Runtime rt(opts);
    check(rt.eval("reg [15:0] n = 0;\n"
                  "always @(posedge clk.val) n <= n + 1;\n"),
          "eval workload");

    std::string err;
    check(rt.monitor().start(0, &err), "start monitor: " + err);
    const uint16_t port = rt.monitor().port();
    std::fprintf(stderr, "# monitoring on 127.0.0.1:%u\n", port);

    rt.run(2048);

    int status = 0;
    std::string first;
    check(cascade::telemetry::http_get(port, "/metrics", &status, &first,
                                       &err) &&
              status == 200,
          "GET /metrics: " + err);
    check(cascade::telemetry::validate_prometheus_text(first, &err),
          "first scrape validates: " + err);

    rt.run(2048);
    std::string second;
    check(cascade::telemetry::http_get(port, "/metrics", &status,
                                       &second, &err) &&
              status == 200,
          "GET /metrics (second): " + err);
    check(cascade::telemetry::validate_prometheus_text(second, &err),
          "second scrape validates: " + err);
    const double ticks1 = metric_value(first, "cascade_virtual_ticks");
    const double ticks2 = metric_value(second, "cascade_virtual_ticks");
    check(ticks1 >= 0 && ticks2 > ticks1,
          "cascade_virtual_ticks monotonic (" + std::to_string(ticks1) +
              " -> " + std::to_string(ticks2) + ")");
    save("metrics.prom", second);

    std::string body;
    check(cascade::telemetry::http_get(port, "/healthz", &status, &body,
                                       &err) &&
              status == 200 &&
              body.find("\"status\":\"ok\"") != std::string::npos,
          "GET /healthz ok: " + body);

    check(cascade::telemetry::http_get(port, "/slo", &status, &body,
                                       &err) &&
              status == 200 &&
              body.find("\"schema\":\"cascade.slo.v1\"") !=
                  std::string::npos,
          "GET /slo schema: " + err);
    save("slo.json", body);

    check(cascade::telemetry::http_get(port, "/timeseries", &status,
                                       &body, &err) &&
              status == 200 &&
              body.find("\"schema\":\"cascade.timeseries.v1\"") !=
                  std::string::npos &&
              body.find("runtime.ticks_per_s") != std::string::npos,
          "GET /timeseries schema + sampled series");
    save("timeseries.json", body);

    // Interactive-debugger surface: arm a breakpoint, run to the fire,
    // and scrape the halted state the way a dashboard would.
    rt.set_debug_window_path("debug-window.vcd");
    const uint64_t point_id = rt.debug_break("n", "==", "2000", &err);
    check(point_id != 0, "arm breakpoint: " + err);
    for (int i = 0; i < 200000 && !rt.debug_halted(); ++i) {
        rt.step();
    }
    check(rt.debug_halted(), "breakpoint fires and halts");

    check(cascade::telemetry::http_get(port, "/debug", &status, &body,
                                       &err) &&
              status == 200 &&
              body.find("\"schema\":\"cascade.debug.v1\"") !=
                  std::string::npos &&
              body.find("\"halted\":true") != std::string::npos &&
              body.find("\"signal\":\"n\"") != std::string::npos,
          "GET /debug schema + halted point");
    save("debug.json", body);

    std::string halted_metrics;
    check(cascade::telemetry::http_get(port, "/metrics", &status,
                                       &halted_metrics, &err) &&
              status == 200 &&
              cascade::telemetry::validate_prometheus_text(halted_metrics,
                                                           &err),
          "halted scrape validates: " + err);
    check(metric_value(halted_metrics, "cascade_debug_points") == 1 &&
              metric_value(halted_metrics, "cascade_debug_fires_total") >=
                  1 &&
              metric_value(halted_metrics, "cascade_debug_halted") == 1,
          "cascade_debug_* families present and firing");

    // The wall-clock heartbeat keeps /timeseries moving while the
    // virtual clock is frozen: the halted gauge must be sampled.
    check(cascade::telemetry::http_get(port, "/timeseries", &status,
                                       &body, &err) &&
              status == 200 &&
              body.find("runtime.halted") != std::string::npos,
          "GET /timeseries samples runtime.halted while frozen");

    check(rt.debug_continue() && !rt.debug_halted(),
          "continue resumes the virtual clock");
    check(rt.debug_delete(point_id), "delete the point");

    check(cascade::telemetry::http_get(port, "/requests", &status, &body,
                                       &err) &&
              status == 200,
          "GET /requests: " + err);
    {
        // NDJSON: at least the eval request, every line a JSON object
        // with an id and a segment partition.
        size_t parsed = 0;
        bool requests_ok = !body.empty();
        size_t start = 0;
        while (start < body.size()) {
            size_t end = body.find('\n', start);
            if (end == std::string::npos) {
                end = body.size();
            }
            const std::string line = body.substr(start, end - start);
            start = end + 1;
            if (line.empty()) {
                continue;
            }
            cascade::telemetry::JsonValue req;
            if (!cascade::telemetry::parse_json(line, &req, &err) ||
                req.get_u64("id") == 0 ||
                line.find("\"segments\":[") == std::string::npos) {
                requests_ok = false;
                break;
            }
            ++parsed;
        }
        check(requests_ok && parsed >= 1,
              "/requests lines parse with ids (" +
                  std::to_string(parsed) + " requests)");
        save("requests.ndjson", body);
    }

    std::vector<std::string> lines;
    check(cascade::telemetry::http_stream_lines(port, "/events", 5,
                                                10000, &lines, &err) &&
              lines.size() >= 5,
          "GET /events streams 5 lines: " + err);
    uint64_t last_seq = 0;
    bool seqs_increase = true;
    std::string ndjson;
    for (const std::string& line : lines) {
        cascade::telemetry::JsonValue ev;
        if (!cascade::telemetry::parse_json(line, &ev, &err)) {
            seqs_increase = false;
            break;
        }
        const uint64_t seq = ev.get_u64("seq");
        if (seq <= last_seq) {
            seqs_increase = false;
        }
        last_seq = seq;
        ndjson += line + "\n";
    }
    check(seqs_increase, "/events lines parse, seq strictly increases");
    save("events.ndjson", ndjson);

    rt.monitor().stop();
    check(!rt.monitor().running(), "monitor stops");

    std::fprintf(stderr, failures == 0 ? "# monitor smoke: all ok\n"
                                       : "# monitor smoke: %d failure(s)\n",
                 failures);
    return failures == 0 ? 0 : 1;
}
