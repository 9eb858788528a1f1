/// \file
/// Tests for the REPL meta-commands: :stats (table and JSON), :trace,
/// :probe/:unprobe/:vcd, :help, and the error paths (missing arguments,
/// unknown signals, unknown commands). These are the golden-output tests
/// for the observability surface a user actually sees.

#include "runtime/repl.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "hypervisor/fabric_manager.h"
#include "runtime/runtime.h"
#include "service/compile_service.h"
#include "telemetry/sync.h"

namespace cascade::runtime {
namespace {

class ReplHarness {
  public:
    ReplHarness()
        : runtime_(options()), repl_(&runtime_, &out_)
    {
    }

    static Runtime::Options
    options()
    {
        Runtime::Options opts;
        opts.enable_hardware = false;
        return opts;
    }

    /// Feeds one line (newline appended) and returns the output it caused.
    std::string
    command(const std::string& line)
    {
        out_.str("");
        repl_.feed(line + "\n");
        return out_.str();
    }

    Runtime& runtime() { return runtime_; }

  private:
    Runtime runtime_;
    std::ostringstream out_;
    Repl repl_;
};

std::string
temp_path(const std::string& name)
{
    return testing::TempDir() + name;
}

TEST(ReplMeta, StatsTableGolden)
{
    ReplHarness h;
    h.command("reg [3:0] r = 0; always @(posedge clk.val) r <= r + 1;");
    h.runtime().run_for_ticks(3);
    const std::string out = h.command(":stats");
    // Stable skeleton of the table (values vary, structure must not).
    EXPECT_NE(out.find("cascade stats"), std::string::npos) << out;
    EXPECT_NE(out.find("location"), std::string::npos);
    EXPECT_NE(out.find("Software"), std::string::npos);
    EXPECT_NE(out.find("virtual ticks"), std::string::npos);
    EXPECT_NE(out.find("runtime metrics"), std::string::npos);
    EXPECT_NE(out.find("process metrics"), std::string::npos);
    EXPECT_NE(out.find("scheduler.iterations"), std::string::npos);
    EXPECT_NE(out.find("repl.evals_accepted"), std::string::npos);
}

TEST(ReplMeta, StatsJsonIsParseableAndStable)
{
    ReplHarness h;
    h.command("reg [3:0] r = 0; always @(posedge clk.val) r <= r + 1;");
    h.runtime().run_for_ticks(2);
    const std::string out = h.command(":stats json");
    // Minimal structural JSON validation: balanced braces/brackets
    // outside strings, and a trailing newline.
    int depth = 0;
    bool in_string = false;
    bool escaped = false;
    for (const char c : out) {
        if (escaped) {
            escaped = false;
            continue;
        }
        if (in_string) {
            if (c == '\\') {
                escaped = true;
            } else if (c == '"') {
                in_string = false;
            }
            continue;
        }
        if (c == '"') {
            in_string = true;
        } else if (c == '{' || c == '[') {
            ++depth;
        } else if (c == '}' || c == ']') {
            --depth;
            ASSERT_GE(depth, 0) << out;
        }
    }
    EXPECT_EQ(depth, 0) << out;
    EXPECT_FALSE(in_string);
    // Schema marker and the key sections consumers rely on.
    EXPECT_NE(out.find("\"schema\":\"cascade.stats.v1\""),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("\"metrics\""), std::string::npos);
    EXPECT_NE(out.find("\"process_metrics\""), std::string::npos);
    EXPECT_NE(out.find("\"location\":\"Software\""), std::string::npos);
}

TEST(ReplMeta, TraceWritesChromeJson)
{
    const std::string path = temp_path("repl_trace.json");
    std::remove(path.c_str());
    ReplHarness h;
    h.command("reg r = 0; always @(posedge clk.val) r <= ~r;");
    h.runtime().run_for_ticks(2);
    const std::string out = h.command(":trace " + path);
    EXPECT_NE(out.find("trace written to " + path), std::string::npos)
        << out;
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::ostringstream ss;
    ss << in.rdbuf();
    EXPECT_NE(ss.str().find("traceEvents"), std::string::npos);
}

TEST(ReplMeta, TraceWithoutArgPrintsUsage)
{
    ReplHarness h;
    EXPECT_EQ(h.command(":trace"), "usage: :trace <file>\n");
}

TEST(ReplMeta, ProbeLifecycleAndErrors)
{
    ReplHarness h;
    EXPECT_EQ(h.command(":probe"), "usage: :probe <signal>\n");
    EXPECT_EQ(h.command(":unprobe"), "usage: :unprobe <signal>\n");
    EXPECT_EQ(h.command(":vcd"), "usage: :vcd <file>\n");

    const std::string bad = h.command(":probe bogus");
    EXPECT_NE(bad.find("cannot probe bogus"), std::string::npos) << bad;
    EXPECT_NE(bad.find("unknown signal"), std::string::npos) << bad;

    h.command("reg [7:0] cnt = 0; always @(posedge clk.val) "
              "cnt <= cnt + 1;");
    EXPECT_EQ(h.command(":probe cnt"), "probing cnt\n");
    ASSERT_EQ(h.runtime().probes().size(), 1u);
    EXPECT_EQ(h.command(":unprobe cnt"), "unprobed cnt\n");
    EXPECT_EQ(h.command(":unprobe cnt"), "no probe on cnt\n");
}

TEST(ReplMeta, VcdStartsCapture)
{
    const std::string path = temp_path("repl_capture.vcd");
    ReplHarness h;
    h.command("reg [7:0] cnt = 0; always @(posedge clk.val) "
              "cnt <= cnt + 1;");
    EXPECT_EQ(h.command(":probe cnt"), "probing cnt\n");
    const std::string out = h.command(":vcd " + path);
    EXPECT_NE(out.find("vcd capture to " + path), std::string::npos) << out;
    EXPECT_TRUE(h.runtime().vcd_active());
    h.runtime().run_for_ticks(3);
    h.runtime().close_vcd();
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::ostringstream ss;
    ss << in.rdbuf();
    EXPECT_NE(ss.str().find("$enddefinitions $end"), std::string::npos);
    EXPECT_NE(ss.str().find("cnt"), std::string::npos);
}

TEST(ReplMeta, HelpListsEveryCommand)
{
    ReplHarness h;
    const std::string out = h.command(":help");
    // The complete meta-command vocabulary: every command and spelled-out
    // subcommand the dispatcher accepts must appear in :help. A new
    // command without a help line fails here.
    for (const char* cmd :
         {":stats", ":stats json", ":stats reset", ":profile",
          ":profile json", ":profile on|off", ":profile flame", ":fabric",
          ":top", ":requests", ":requests json", ":why <id>",
          ":contention", ":contention json", ":contention reset",
          ":monitor <port>", ":monitor off", ":slo", ":slo json",
          ":trace", ":probe", ":unprobe", ":vcd",
          ":break <sig> <op> <val>", ":watch <signal>", ":delete <id>",
          ":debug", ":step [n]", ":continue", ":peek <signal>",
          ":record", ":record stop", ":replay", ":help"}) {
        EXPECT_NE(out.find(cmd), std::string::npos)
            << "missing " << cmd << " in:\n" << out;
    }
}

TEST(ReplMeta, UnknownCommandSuggestsHelp)
{
    ReplHarness h;
    const std::string out = h.command(":frobnicate");
    EXPECT_NE(out.find("unknown command ':frobnicate'"), std::string::npos)
        << out;
    EXPECT_NE(out.find(":help"), std::string::npos);
}

TEST(ReplMeta, ProfileTableListsUserProcesses)
{
    ReplHarness h;
    h.command("reg [3:0] r = 0; always @(posedge clk.val) r <= r + 1;");
    h.runtime().run_for_ticks(4);
    const std::string out = h.command(":profile");
    EXPECT_NE(out.find("cascade profile"), std::string::npos) << out;
    EXPECT_NE(out.find("timing off"), std::string::npos) << out;
    EXPECT_NE(out.find("seq"), std::string::npos) << out;
    EXPECT_NE(out.find("r <= (r + 1)"), std::string::npos) << out;

    const std::string on = h.command(":profile on");
    EXPECT_NE(on.find("profiling on"), std::string::npos) << on;
    h.runtime().run_for_ticks(4);
    EXPECT_NE(h.command(":profile").find("timing on"), std::string::npos);
}

TEST(ReplMeta, ProfileJsonIsWellFormed)
{
    ReplHarness h;
    h.command("reg [3:0] r = 0; always @(posedge clk.val) r <= r + 1;");
    h.runtime().run_for_ticks(2);
    const std::string out = h.command(":profile json");
    EXPECT_NE(out.find("\"schema\":\"cascade.profile.v1\""),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("\"sw_triggers\":"), std::string::npos);
    EXPECT_NE(out.find("\"hw_triggers\":"), std::string::npos);
    EXPECT_NE(out.find("\"eval_ns\":"), std::string::npos);
}

TEST(ReplMeta, ProfileFlameWritesCollapsedStacks)
{
    ReplHarness h;
    h.command("reg [3:0] r = 0; always @(posedge clk.val) r <= r + 1;");
    h.runtime().run_for_ticks(4);
    EXPECT_NE(h.command(":profile flame").find("usage:"),
              std::string::npos);
    const std::string path = temp_path("repl_flame.folded");
    const std::string out = h.command(":profile flame " + path);
    EXPECT_NE(out.find("collapsed stacks written"), std::string::npos)
        << out;
    std::ifstream in(path);
    std::string line;
    ASSERT_TRUE(std::getline(in, line)) << "flamegraph file is empty";
    // "frames... weight": the weight is a positive integer, frames are
    // ';'-separated with the instance first.
    EXPECT_EQ(line.rfind("root;seq;", 0), 0u) << line;
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos);
    EXPECT_GT(std::stoull(line.substr(space + 1)), 0u);
}

TEST(ReplMeta, StatsResetZeroesMetrics)
{
    ReplHarness h;
    h.command("reg [3:0] r = 0; always @(posedge clk.val) r <= r + 1;");
    h.runtime().run_for_ticks(3);
    EXPECT_GT(h.runtime().telemetry().counter("clock.toggles")->value(),
              0u);
    const std::string out = h.command(":stats reset");
    EXPECT_NE(out.find("stats reset"), std::string::npos) << out;
    EXPECT_EQ(h.runtime().telemetry().counter("clock.toggles")->value(),
              0u);
    // Counting resumes on the same handles.
    h.runtime().run_for_ticks(1);
    EXPECT_GT(h.runtime().telemetry().counter("clock.toggles")->value(),
              0u);
}

/// Regression: :stats reset used to clear only the two metric
/// registries, leaving the sync registry's sites, the time-series rings,
/// and the SLO breach counters behind — so a "fresh" measurement window
/// still showed stale contention and breach history.
TEST(ReplMeta, StatsResetClearsSyncSitesTimeseriesAndSlo)
{
    ReplHarness h;
    h.command("reg [3:0] r = 0; always @(posedge clk.val) r <= r + 1;");
    h.runtime().run_for_ticks(3);

    // Populate every surface the reset must cover. Sites survive a
    // reset (handles stay valid) but their counters must zero.
    const auto probe_acquisitions = [] {
        for (const auto& s : telemetry::SyncRegistry::global().snapshot()) {
            if (s.name == "repl_test.reset_probe") {
                return s.acquisitions;
            }
        }
        return uint64_t{0};
    };
    telemetry::Mutex mu("repl_test.reset_probe");
    {
        std::lock_guard<telemetry::Mutex> lock(mu);
    }
    ASSERT_GT(probe_acquisitions(), 0u);
    h.runtime().monitor().timeseries().sample("probe", 0.0, 1.0);
    ASSERT_FALSE(h.runtime().monitor().timeseries().names().empty());
    h.runtime().monitor().slo_tracker().record_cold_compile(0.0, 1.0);

    h.command(":stats reset");
    EXPECT_EQ(probe_acquisitions(), 0u);
    EXPECT_TRUE(h.runtime().monitor().timeseries().names().empty());
    EXPECT_EQ(h.runtime().monitor().slo_tracker().total_breaches(), 0u);
    const auto status = h.runtime().monitor().slo_tracker().evaluate(1.0);
    EXPECT_FALSE(status.breached);
}

TEST(ReplMeta, MonitorCommandLifecycle)
{
    ReplHarness h;
    EXPECT_NE(h.command(":monitor").find("usage: :monitor <port|off>"),
              std::string::npos);
    EXPECT_NE(h.command(":monitor pizza")
                  .find("usage: :monitor <port|off>"),
              std::string::npos);
    EXPECT_NE(h.command(":monitor off").find("monitor is not running"),
              std::string::npos);

    const std::string started = h.command(":monitor 0");
    EXPECT_NE(started.find("monitoring on 127.0.0.1:"),
              std::string::npos)
        << started;
    EXPECT_TRUE(h.runtime().monitor().running());
    // Status query while running reports the bound port.
    EXPECT_NE(h.command(":monitor").find("monitoring on 127.0.0.1:"),
              std::string::npos);
    EXPECT_NE(h.command(":monitor off").find("monitor stopped"),
              std::string::npos);
    EXPECT_FALSE(h.runtime().monitor().running());
}

TEST(ReplMeta, SloTableAndJson)
{
    ReplHarness h;
    EXPECT_NE(h.command(":slo").find("no SLO thresholds configured"),
              std::string::npos);
    const std::string json = h.command(":slo json");
    EXPECT_NE(json.find("\"schema\":\"cascade.slo.v1\""),
              std::string::npos)
        << json;
}

TEST(ReplMeta, FabricReportsSoftwareWithoutACompile)
{
    ReplHarness h;
    h.command("reg [3:0] r = 0; always @(posedge clk.val) r <= r + 1;");
    const std::string out = h.command(":fabric");
    EXPECT_NE(out.find("cascade fabric"), std::string::npos) << out;
    EXPECT_NE(out.find("no hardware compile"), std::string::npos) << out;
}

TEST(ReplMeta, TopReportsExclusiveSessionWithoutHypervisor)
{
    ReplHarness h;
    h.command("reg [3:0] r = 0; always @(posedge clk.val) r <= r + 1;");
    h.runtime().run_for_ticks(3);
    const std::string out = h.command(":top");
    EXPECT_NE(out.find("exclusive session (no hypervisor)"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("ticks"), std::string::npos);
}

TEST(ReplMeta, RequestsTableAndWhyDecomposition)
{
    ReplHarness h;
    h.command("reg [3:0] r = 0; always @(posedge clk.val) r <= r + 1;");
    h.runtime().run_for_ticks(3);

    const std::string table = h.command(":requests");
    EXPECT_NE(table.find("id  kind"), std::string::npos) << table;
    EXPECT_NE(table.find("eval"), std::string::npos) << table;
    EXPECT_NE(table.find(":why <id>"), std::string::npos);

    const std::string json = h.command(":requests json");
    EXPECT_NE(json.find("\"schema\":\"cascade.requests.v1\""),
              std::string::npos)
        << json;

    // :why on a real eval request decomposes it; the id is the journal
    // seq, recoverable from the tracker.
    uint64_t id = 0;
    for (const auto& r : h.runtime().request_tracker().recent()) {
        if (std::string(r.kind) == "eval") {
            id = r.id;
        }
    }
    ASSERT_NE(id, 0u);
    const std::string why = h.command(":why " + std::to_string(id));
    EXPECT_NE(why.find("request " + std::to_string(id)),
              std::string::npos)
        << why;
    EXPECT_NE(why.find("end-to-end"), std::string::npos);
    EXPECT_NE(why.find("segments sum"), std::string::npos);

    EXPECT_NE(h.command(":why").find("usage: :why <request id>"),
              std::string::npos);
    EXPECT_NE(h.command(":why 999999").find("not found"),
              std::string::npos);
}

TEST(ReplMeta, ContentionTableGolden)
{
    ReplHarness h;
    // The harness itself exercises instrumented sites (journal ring,
    // compile-service queue), so the table always has rows.
    h.command("reg [3:0] r = 0; always @(posedge clk.val) r <= r + 1;");
    const std::string out = h.command(":contention");
    EXPECT_NE(out.find("contention by site"), std::string::npos) << out;
    EXPECT_NE(out.find("blocked-on"), std::string::npos) << out;
}

TEST(ReplMeta, ContentionJsonHasSchema)
{
    ReplHarness h;
    const std::string out = h.command(":contention json");
    EXPECT_NE(out.find("\"schema\":\"cascade.contention.v1\""),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("\"sites\":["), std::string::npos);
    EXPECT_NE(out.find("\"blocked_on\":["), std::string::npos);
}

TEST(ReplMeta, ContentionResetAcknowledges)
{
    ReplHarness h;
    const std::string out = h.command(":contention reset");
    EXPECT_NE(out.find("contention stats reset"), std::string::npos)
        << out;
}

TEST(ReplMeta, StatsSurfaceCompileCacheAndQueueDepth)
{
    ReplHarness h;
    const std::string table = h.command(":stats");
    EXPECT_NE(table.find("compile service"), std::string::npos) << table;
    EXPECT_NE(table.find("cache hit rate"), std::string::npos) << table;
    EXPECT_NE(table.find("queue depth"), std::string::npos) << table;
    const std::string json = h.command(":stats json");
    EXPECT_NE(json.find("\"compile_service\":{"), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"cache_hits\":"), std::string::npos);
    EXPECT_NE(json.find("\"cache_hit_rate\":"), std::string::npos);
    EXPECT_NE(json.find("\"queue_depth\":"), std::string::npos);
}

TEST(ReplMeta, FabricRendersHypervisorSlotMapInSharedMode)
{
    // A shared-mode runtime extends :fabric with the hypervisor's slot
    // map: one row per tenant with id, LE slice, and residency state.
    service::CompileService svc;
    hypervisor::FabricManager fm;
    Runtime::Options opts;
    opts.enable_hardware = true;
    opts.compile_effort = 0.05;
    opts.tenant_name = "repl-tenant";
    Runtime rt(opts, svc, fm);
    std::ostringstream sink;
    Repl repl(&rt, &sink);

    // Before any compile: registered but software-resident.
    repl.feed("reg [3:0] r = 0; always @(posedge clk.val) r <= r + 1;\n");
    sink.str("");
    repl.feed(":fabric\n");
    std::string out = sink.str();
    EXPECT_NE(out.find("cascade fabric"), std::string::npos) << out;
    EXPECT_NE(out.find("hypervisor slots"), std::string::npos) << out;
    EXPECT_NE(out.find("repl-tenant"), std::string::npos) << out;
    EXPECT_NE(out.find("software"), std::string::npos) << out;
    EXPECT_NE(out.find("LE -"), std::string::npos) << out;

    // After adoption: resident, with a concrete LE slice.
    ASSERT_TRUE(rt.wait_for_hardware(60.0));
    sink.str("");
    repl.feed(":fabric\n");
    out = sink.str();
    EXPECT_NE(out.find("repl-tenant"), std::string::npos) << out;
    EXPECT_NE(out.find("resident"), std::string::npos) << out;
    EXPECT_NE(out.find("LE [0, "), std::string::npos) << out;
    EXPECT_EQ(out.find("software"), std::string::npos) << out;
}

TEST(ReplMeta, TopRendersFleetViewInSharedMode)
{
    service::CompileService svc;
    hypervisor::FabricManager fm;
    Runtime::Options opts;
    opts.enable_hardware = true;
    opts.compile_effort = 0.05;
    opts.tenant_name = "top-tenant";
    Runtime rt(opts, svc, fm);
    std::ostringstream sink;
    Repl repl(&rt, &sink);

    repl.feed("reg [3:0] r = 0; always @(posedge clk.val) r <= r + 1;\n");
    ASSERT_TRUE(rt.wait_for_hardware(60.0));
    rt.run_for_ticks(32);
    sink.str("");
    repl.feed(":top\n");
    const std::string out = sink.str();
    EXPECT_NE(out.find("fleet ("), std::string::npos) << out;
    EXPECT_NE(out.find("top-tenant"), std::string::npos) << out;
    EXPECT_NE(out.find("resident"), std::string::npos) << out;
    EXPECT_NE(out.find("ticks/s"), std::string::npos) << out;
    EXPECT_NE(out.find("wait%"), std::string::npos) << out;
}

} // namespace
} // namespace cascade::runtime
