/// \file
/// Causal request tracing tests: the RequestTracker unit contract
/// (begin/segment/end lifecycle, bounded ring, schema-tagged JSON), the
/// acceptance invariant that a forced cold compile's critical-path
/// segments (queue, cache, synth, techmap, place, admission, adoption)
/// partition its end-to-end latency to within 1%, the REPL-facing
/// `:why` decomposition, Chrome-trace flow arrows linking a request's
/// spans across threads, and the `cascade_request_*` histograms on the
/// Prometheus surface.

#include "telemetry/request_trace.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "runtime/runtime.h"
#include "telemetry/trace.h"

namespace cascade {
namespace {

using runtime::Runtime;
using telemetry::RequestRecord;
using telemetry::RequestTracker;
using telemetry::Tracer;

Runtime::Options
hw_fast()
{
    Runtime::Options opts;
    opts.enable_hardware = true;
    opts.compile_effort = 0.05;          // keep tests fast
    opts.open_loop_target_wall_s = 0.02; // small adaptive batches too
    return opts;
}

/// Steps until the JIT adopts a hardware engine (bounded by wall time).
bool
wait_for_hardware(Runtime& rt, double timeout_s = 60.0)
{
    const auto start = std::chrono::steady_clock::now();
    while (!rt.hardware_ready()) {
        rt.step();
        if (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count() > timeout_s) {
            return false;
        }
    }
    return true;
}

const char* const kCounter = "reg [7:0] n = 0;\n"
                             "always @(posedge clk.val) begin\n"
                             "  n <= n + 1;\n"
                             "end\n";

TEST(RequestTrace, TrackerLifecycleAndLookup)
{
    RequestTracker tracker;
    EXPECT_EQ(tracker.open_count(), 0u);
    EXPECT_EQ(tracker.completed_total(), 0u);

    tracker.begin(7, "compile", 3, 0, 100.0);
    EXPECT_EQ(tracker.open_count(), 1u);
    tracker.add_segment(7, "queue", 40.0);
    tracker.add_segment(7, "synth", 60.0);
    tracker.annotate_cache(7, true);

    RequestRecord open;
    ASSERT_TRUE(tracker.find(7, &open));
    EXPECT_FALSE(open.done);
    EXPECT_TRUE(open.cache_hit);
    ASSERT_EQ(open.segments.size(), 2u);

    EXPECT_TRUE(tracker.end(7, true, 200.0));
    EXPECT_EQ(tracker.open_count(), 0u);
    EXPECT_EQ(tracker.completed_total(), 1u);

    RequestRecord done;
    ASSERT_TRUE(tracker.find(7, &done));
    EXPECT_TRUE(done.done);
    EXPECT_TRUE(done.ok);
    EXPECT_DOUBLE_EQ(done.total_us(), 100.0);
    EXPECT_DOUBLE_EQ(done.segment_sum_us(), 100.0);

    // Unknown or already-closed ids are refused, not invented: closing
    // a superseded request twice must not double-journal.
    EXPECT_FALSE(tracker.end(7, true, 300.0));
    EXPECT_FALSE(tracker.end(99, true, 300.0));
    RequestRecord missing;
    EXPECT_FALSE(tracker.find(99, &missing));
}

TEST(RequestTrace, RingKeepsMostRecentFinishedRequests)
{
    RequestTracker tracker(nullptr, 4);
    for (uint64_t id = 1; id <= 10; ++id) {
        tracker.complete(id, "eval", id, 0, 0.0, 1.0, "eval", true);
    }
    EXPECT_EQ(tracker.completed_total(), 10u);
    const auto recent = tracker.recent();
    ASSERT_EQ(recent.size(), 4u);
    // Oldest-first, bounded by capacity.
    EXPECT_EQ(recent.front().id, 7u);
    EXPECT_EQ(recent.back().id, 10u);
    RequestRecord evicted;
    EXPECT_FALSE(tracker.find(1, &evicted));
}

TEST(RequestTrace, JsonCarriesSchemaAndSegments)
{
    RequestTracker tracker;
    tracker.begin(12, "compile", 2, 5, 10.0);
    tracker.add_segment(12, "queue", 30.0);
    tracker.end(12, true, 40.0);
    tracker.begin(13, "eval", 3, 5, 50.0); // still open

    const std::string json = tracker.json();
    EXPECT_NE(json.find("\"schema\":\"cascade.requests.v1\""),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"completed\":1"), std::string::npos);
    EXPECT_NE(json.find("\"open\":1"), std::string::npos);
    EXPECT_NE(json.find("\"id\":12"), std::string::npos);
    EXPECT_NE(json.find("\"tenant\":5"), std::string::npos);
    EXPECT_NE(json.find("{\"name\":\"queue\",\"us\":30.000}"),
              std::string::npos)
        << json;

    // NDJSON renders the same objects one per line, finished and open.
    const std::string ndjson = tracker.ndjson();
    EXPECT_NE(ndjson.find("\"id\":12"), std::string::npos);
    EXPECT_NE(ndjson.find("\"id\":13"), std::string::npos);
    EXPECT_EQ(std::count(ndjson.begin(), ndjson.end(), '\n'), 2);

    // The why() view reports the segment-sum invariant explicitly.
    const std::string why = tracker.why(12);
    EXPECT_NE(why.find("request 12"), std::string::npos) << why;
    EXPECT_NE(why.find("queue"), std::string::npos);
    EXPECT_NE(why.find("segments sum"), std::string::npos);
    EXPECT_NE(why.find("100.0% of end-to-end"), std::string::npos) << why;
    EXPECT_NE(tracker.why(999).find("not found"), std::string::npos);
}

TEST(RequestTrace, FlowEventsRenderChromePhases)
{
    Tracer tracer;
    tracer.flow_tenant("request", 's', 42, 0, 1.0);
    tracer.flow_tenant("request", 't', 42, 3, 2.0);
    tracer.flow_tenant("request", 'f', 42, 0, 3.0);
    const std::string json = tracer.chrome_json();
    EXPECT_NE(json.find("\"ph\":\"s\",\"id\":42"), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"ph\":\"t\",\"id\":42"), std::string::npos);
    // Flow-end binds to the enclosing slice's end ("bp":"e").
    EXPECT_NE(json.find("\"ph\":\"f\",\"id\":42,\"bp\":\"e\""),
              std::string::npos)
        << json;
}

/// The acceptance criterion: a forced cold compile's request must carry
/// the named critical-path segments, and their durations must sum to
/// the end-to-end latency within 1%.
TEST(RequestTrace, ColdCompileSegmentsPartitionEndToEndLatency)
{
    Runtime::Options opts = hw_fast();
    opts.compile_seed = 1; // deterministic placement, forced cold path
    Runtime rt(opts);
    ASSERT_TRUE(rt.eval(kCounter));
    ASSERT_TRUE(wait_for_hardware(rt));

    // The compile request stays open until the first post-adoption
    // hardware tick; run until it retires (bounded by wall time).
    RequestRecord compile;
    bool closed = false;
    const auto start = std::chrono::steady_clock::now();
    while (!closed) {
        rt.step();
        for (const RequestRecord& r : rt.request_tracker().recent()) {
            // Skip superseded launches (e.g. the bootstrap compile,
            // retired ok=false): the adopted compile is the one whose
            // request closed at its first hardware tick.
            if (std::string(r.kind) == "compile" && r.done && r.ok) {
                compile = r;
                closed = true;
            }
        }
        ASSERT_LT(std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count(),
                  60.0)
            << "compile request never retired";
    }

    EXPECT_TRUE(compile.ok);
    EXPECT_FALSE(compile.cache_hit) << "expected a cold compile";
    EXPECT_GT(compile.id, 0u);

    std::set<std::string> names;
    for (const auto& s : compile.segments) {
        names.insert(s.name);
    }
    for (const char* required : {"queue", "cache", "synth", "techmap",
                                 "place", "admission", "adoption"}) {
        EXPECT_TRUE(names.count(required) == 1)
            << "missing segment: " << required;
    }

    // Segments partition the end-to-end wall time (within 1%).
    const double total = compile.total_us();
    ASSERT_GT(total, 0.0);
    EXPECT_NEAR(compile.segment_sum_us(), total, 0.01 * total)
        << rt.request_tracker().why(compile.id);

    // The REPL-facing views agree on the same request.
    const std::string why = rt.request_tracker().why(compile.id);
    EXPECT_NE(why.find("compile"), std::string::npos) << why;
    EXPECT_NE(why.find("synth"), std::string::npos);
    EXPECT_NE(why.find("adoption"), std::string::npos);
    EXPECT_NE(why.find("segments sum"), std::string::npos);
    // The first compile has no prior placement: place keeps no cell.
    EXPECT_GT(compile.placed_cells, 0u);
    EXPECT_NE(why.find("kept 0 of " + std::to_string(compile.placed_cells) +
                       " cells"),
              std::string::npos)
        << why;
    const std::string table = rt.request_tracker().table();
    EXPECT_NE(table.find(std::to_string(compile.id)),
              std::string::npos)
        << table;
    EXPECT_NE(rt.request_tracker().json().find(
                  "\"schema\":\"cascade.requests.v1\""),
              std::string::npos);

    // The eval that kicked everything off was tracked too.
    bool saw_eval = false;
    for (const RequestRecord& r : rt.request_tracker().recent()) {
        if (std::string(r.kind) == "eval" && r.done && r.ok) {
            saw_eval = true;
        }
    }
    EXPECT_TRUE(saw_eval);

    // Flow arrows tie the request's spans across threads: an 's' at
    // launch on the runtime thread, a 't' in the compile worker, an 'f'
    // at adoption.
    std::set<char> phases;
    for (const auto& e : Tracer::global().events()) {
        if (e.flow_id == compile.id && e.flow_phase != 0) {
            phases.insert(e.flow_phase);
        }
    }
    EXPECT_TRUE(phases.count('s') == 1) << "missing flow start";
    EXPECT_TRUE(phases.count('t') == 1) << "missing flow step";
    EXPECT_TRUE(phases.count('f') == 1) << "missing flow end";

    // The Prometheus surface carries the per-segment histograms and the
    // request counters.
    const std::string metrics = rt.monitor().metrics_text();
    EXPECT_NE(metrics.find("cascade_request_total_ns"), std::string::npos);
    EXPECT_NE(metrics.find("cascade_request_synth_ns"), std::string::npos);
    EXPECT_NE(metrics.find("cascade_request_queue_ns"), std::string::npos);
    EXPECT_NE(metrics.find("cascade_requests_completed_total"),
              std::string::npos);
    EXPECT_NE(metrics.find("cascade_requests_open"), std::string::npos);
}

/// Software-only evals are single-segment requests; they must retire
/// immediately with the "eval" segment covering the whole interval.
TEST(RequestTrace, SoftwareEvalRetiresAsSingleSegmentRequest)
{
    Runtime::Options opts;
    opts.enable_hardware = false;
    Runtime rt(opts);
    ASSERT_TRUE(rt.eval(kCounter));
    rt.run(16);

    bool found = false;
    for (const RequestRecord& r : rt.request_tracker().recent()) {
        if (std::string(r.kind) != "eval") {
            continue;
        }
        found = true;
        EXPECT_TRUE(r.done);
        EXPECT_TRUE(r.ok);
        ASSERT_EQ(r.segments.size(), 1u);
        EXPECT_STREQ(r.segments[0].name, "eval");
        EXPECT_NEAR(r.segment_sum_us(), r.total_us(),
                    0.01 * r.total_us() + 1e-9);
    }
    EXPECT_TRUE(found);

    // A failed eval is tracked as ok=false, not dropped.
    std::string errors;
    EXPECT_FALSE(rt.eval("wire w = ;", &errors));
    bool saw_failed = false;
    for (const RequestRecord& r : rt.request_tracker().recent()) {
        if (std::string(r.kind) == "eval" && !r.ok) {
            saw_failed = true;
        }
    }
    EXPECT_TRUE(saw_failed);
}

TEST(RequestTrace, JsonAndNdjsonExactBytes)
{
    // Finished requests first (oldest first), then open ones; times print
    // with %.3f, and an open request reports total_us 0.
    telemetry::RequestTracker tracker;
    tracker.begin(12, "compile", 2, 5, 10.0);
    tracker.add_segment(12, "queue", 30.0);
    tracker.add_segment(12, "synth", 0.0005);
    tracker.annotate_cache(12, true);
    tracker.end(12, true, 40.125);
    tracker.complete(14, "eval", 3, 0, 41.0, 42.5, "eval", false);
    tracker.begin(13, "interrupt", 3, 5, 50.0);
    EXPECT_EQ(tracker.json(),
              R"({"schema":"cascade.requests.v1","completed":2,"open":1,)"
              R"("requests":[{"id":12,"kind":"compile","version":2,)"
              R"("tenant":5,"done":true,"ok":true,"cache_hit":true,)"
              R"("start_us":10.000,"total_us":30.125,)"
              R"("segments":[{"name":"queue","us":30.000},)"
              R"({"name":"synth","us":0.001}]},{"id":14,"kind":"eval",)"
              R"("version":3,"tenant":0,"done":true,"ok":false,)"
              R"("cache_hit":false,"start_us":41.000,"total_us":1.500,)"
              R"("segments":[{"name":"eval","us":1.500}]},{"id":13,)"
              R"("kind":"interrupt","version":3,"tenant":5,"done":false,)"
              R"("ok":false,"cache_hit":false,"start_us":50.000,)"
              R"("total_us":0.000,"segments":[]}]})"
              "\n");
    EXPECT_EQ(tracker.ndjson(),
              R"({"id":12,"kind":"compile","version":2,"tenant":5,)"
              R"("done":true,"ok":true,"cache_hit":true,)"
              R"("start_us":10.000,"total_us":30.125,)"
              R"("segments":[{"name":"queue","us":30.000},)"
              R"({"name":"synth","us":0.001}]})"
              "\n"
              R"({"id":14,"kind":"eval","version":3,"tenant":0,)"
              R"("done":true,"ok":false,"cache_hit":false,)"
              R"("start_us":41.000,"total_us":1.500,)"
              R"("segments":[{"name":"eval","us":1.500}]})"
              "\n"
              R"({"id":13,"kind":"interrupt","version":3,"tenant":5,)"
              R"("done":false,"ok":false,"cache_hit":false,)"
              R"("start_us":50.000,"total_us":0.000,"segments":[]})"
              "\n");
    EXPECT_EQ(telemetry::RequestTracker().json(),
              R"({"schema":"cascade.requests.v1","completed":0,"open":0,)"
              R"("requests":[]})"
              "\n");
}

} // namespace
} // namespace cascade
