/// \file
/// Interactive debugger tests: conditional breakpoints, value-change
/// watchpoints, cycle-stepping and peeks in software; hardware triggers
/// synthesized into the fabric twin that evict to software and re-admit
/// on continue; the ILA-style pre-trigger capture window byte-matching
/// an open VCD dump's tail; $monitor suppression across the
/// evict-step-readmit cycle; and deterministic record/replay of a
/// session with a hardware trigger (including tamper detection).

#include "runtime/debugger.h"

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "hypervisor/fabric_manager.h"
#include "runtime/replay.h"
#include "runtime/runtime.h"
#include "service/compile_service.h"

namespace cascade::runtime {
namespace {

std::string
temp_path(const char* name)
{
    return (std::filesystem::temp_directory_path() /
            (std::string("cascade_debugger_test_") + name +
             std::to_string(::getpid())))
        .string();
}

std::string
read_file(const std::string& path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/// Drops the $date header line so dumps from different wall-clock runs
/// can be compared byte-for-byte.
std::string
strip_date(const std::string& vcd)
{
    std::istringstream in(vcd);
    std::string out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("$date", 0) == 0) {
            continue;
        }
        out += line;
        out += '\n';
    }
    return out;
}

/// The runtime reports fires and window dumps on the output stream as
/// "debug:" interrupt lines; drop them when comparing program output.
std::vector<std::string>
without_debug_lines(const std::vector<std::string>& lines)
{
    std::vector<std::string> out;
    for (const auto& line : lines) {
        if (line.rfind("debug:", 0) != 0) {
            out.push_back(line);
        }
    }
    return out;
}

Runtime::Options
sw_only()
{
    Runtime::Options opts;
    opts.enable_hardware = false;
    return opts;
}

Runtime::Options
hw_fast()
{
    Runtime::Options opts;
    opts.enable_hardware = true;
    opts.compile_effort = 0.05;          // keep tests fast
    opts.open_loop_target_wall_s = 0.02; // small adaptive batches too
    return opts;
}

/// Steps the scheduler until a debug point fires (bounded by wall time).
bool
run_until_halted(Runtime* rt, double timeout_s = 60.0)
{
    const auto start = std::chrono::steady_clock::now();
    while (!rt->debug_halted()) {
        rt->step();
        if (std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count() > timeout_s) {
            return false;
        }
    }
    return true;
}

// ---------------------------------------------------------------------
// Software engine: break / step / peek / continue
// ---------------------------------------------------------------------

const char* kCounter8 = R"(
    reg [7:0] cnt = 0;
    always @(posedge clk.val)
      cnt <= cnt + 1;
)";

TEST(Debugger, SoftwareBreakStepPeekContinue)
{
    const std::string win_path = temp_path("sw_window.vcd");
    Runtime rt(sw_only());
    rt.on_output = [](const std::string&) {};
    rt.set_debug_window_path(win_path);
    std::string err;
    ASSERT_TRUE(rt.eval(kCounter8, &err)) << err;

    // Arming validates the operator and the signal name up front.
    EXPECT_EQ(rt.debug_break("cnt", "<>", "5", &err), 0u);
    EXPECT_EQ(rt.debug_break("no_such_signal", "==", "5", &err), 0u);
    // Stepping is only legal while halted.
    EXPECT_FALSE(rt.debug_step(1, &err));

    const uint64_t id = rt.debug_break("cnt", "==", "5", &err);
    ASSERT_NE(id, 0u) << err;
    EXPECT_TRUE(rt.debugger().armed());

    // run_for_ticks() returns early at the halt instead of completing.
    rt.run_for_ticks(100);
    ASSERT_TRUE(rt.debug_halted());
    EXPECT_LT(rt.virtual_ticks(), 100u);
    auto v = rt.debug_peek("cnt", &err);
    ASSERT_TRUE(v.has_value()) << err;
    EXPECT_EQ(v->to_uint64(), 5u);
    EXPECT_EQ(rt.telemetry().counter("debug.fires")->value(), 1u);

    // The halt lands at the end of the timestep where the condition rose,
    // which may be mid-tick (the clock low phase still pending). One step
    // aligns to a tick boundary; from there stepping is cycle-exact.
    EXPECT_TRUE(rt.debug_step(1, &err)) << err;
    ASSERT_TRUE(rt.debug_halted()); // stepping does not resume
    const uint64_t t1 = rt.virtual_ticks();
    const uint64_t c1 = rt.debug_peek("cnt", &err)->to_uint64();
    EXPECT_TRUE(rt.debug_step(4, &err)) << err;
    EXPECT_EQ(rt.virtual_ticks(), t1 + 4);
    EXPECT_EQ(rt.debug_peek("cnt", &err)->to_uint64(), c1 + 4);

    // While halted the virtual clock is frozen for everything but :step.
    const uint64_t frozen = rt.virtual_ticks();
    rt.run_for_ticks(10);
    rt.run(50);
    EXPECT_EQ(rt.virtual_ticks(), frozen);

    EXPECT_TRUE(rt.debug_continue());
    EXPECT_FALSE(rt.debug_continue()); // already running
    EXPECT_FALSE(rt.debug_halted());
    rt.run_for_ticks(10);
    EXPECT_EQ(rt.virtual_ticks(), frozen + 10);
    // cnt==5 recurs only after the 8-bit wrap; no spurious re-fire.
    EXPECT_EQ(rt.telemetry().counter("debug.fires")->value(), 1u);

    EXPECT_TRUE(rt.debug_delete(id));
    EXPECT_FALSE(rt.debug_delete(id));
    EXPECT_FALSE(rt.debugger().armed());
    EXPECT_EQ(rt.telemetry().gauge("debug.points")->value(), 0);

    std::filesystem::remove(win_path);
}

TEST(Debugger, DebugTableAndJsonReflectState)
{
    const std::string win_path = temp_path("table_window.vcd");
    Runtime rt(sw_only());
    rt.on_output = [](const std::string&) {};
    rt.set_debug_window_path(win_path);
    std::string err;
    ASSERT_TRUE(rt.eval(kCounter8, &err)) << err;
    ASSERT_NE(rt.debug_break("cnt", ">=", "3", &err), 0u) << err;
    ASSERT_NE(rt.debug_watch("cnt", &err), 0u) << err;

    const std::string table = rt.debug_table();
    EXPECT_NE(table.find("break cnt >= 3"), std::string::npos) << table;
    EXPECT_NE(table.find("watch cnt"), std::string::npos) << table;

    const std::string json = rt.debug_json();
    EXPECT_NE(json.find("\"schema\":\"cascade.debug.v1\""),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"points\":2"), std::string::npos) << json;

    rt.run_for_ticks(50);
    ASSERT_TRUE(rt.debug_halted());
    EXPECT_NE(rt.debug_table().find("HALTED"), std::string::npos);
    EXPECT_NE(rt.debug_json().find("\"halted\":true"), std::string::npos);

    std::filesystem::remove(win_path);
}

// ---------------------------------------------------------------------
// Hardware trigger: armed pre-adoption, synthesized at adoption, fires
// from the fabric, evicts to software, cycle-steps, re-admits
// ---------------------------------------------------------------------

const char* kCounter16 = R"(
    reg [15:0] cnt = 0;
    always @(posedge clk.val)
      cnt <= cnt + 1;
)";

TEST(Debugger, HardwareTriggerEvictsStepsAndReadmits)
{
    Runtime::Options opts = hw_fast();
    opts.enable_open_loop = false; // deterministic tick accounting
    const std::string win_path = temp_path("hw_window.vcd");
    Runtime rt(opts);
    rt.on_output = [](const std::string&) {};
    rt.set_debug_window_path(win_path);
    std::string err;
    ASSERT_TRUE(rt.eval(kCounter16, &err)) << err;

    // Arm while still in software: adoption must carry the point into
    // the fabric (trigger comparator cells in the instrumented twin).
    const uint64_t id = rt.debug_break("cnt", "==", "300", &err);
    ASSERT_NE(id, 0u) << err;
    rt.run_for_ticks(4);
    // Fabric instrumentation appears exactly when the program leaves the
    // interpreter — which may be almost immediately when a warm JIT
    // kernel (cached .so from an earlier run) adopts within these ticks.
    EXPECT_EQ(rt.hw_debug_armed(),
              rt.user_location() != Location::Software);

    ASSERT_TRUE(rt.wait_for_hardware(30.0));
    EXPECT_NE(rt.user_location(), Location::Software);
    EXPECT_TRUE(rt.hw_debug_armed());
    EXPECT_NE(rt.debug_table().find("triggers in fabric"),
              std::string::npos);

    // Run until the comparator fires in the fabric. The fire evicts the
    // tenant to software so the user can cycle-step in the interpreter.
    ASSERT_TRUE(run_until_halted(&rt));
    EXPECT_EQ(rt.user_location(), Location::Software);
    EXPECT_EQ(rt.debug_peek("cnt", &err)->to_uint64(), 300u);
    EXPECT_EQ(rt.telemetry().counter("debug.fires")->value(), 1u);
    EXPECT_EQ(rt.telemetry().gauge("debug.halted")->value(), 1);

    // Cycle-accurate stepping in the interpreter after the hw handoff.
    EXPECT_TRUE(rt.debug_step(1, &err)) << err;
    const uint64_t t1 = rt.virtual_ticks();
    const uint64_t c1 = rt.debug_peek("cnt", &err)->to_uint64();
    EXPECT_TRUE(rt.debug_step(8, &err)) << err;
    EXPECT_EQ(rt.virtual_ticks(), t1 + 8);
    EXPECT_EQ(rt.debug_peek("cnt", &err)->to_uint64(), c1 + 8);

    // Continue: the eviction already queued a recompile, so the tenant
    // is re-admitted to hardware -- with the trigger re-instrumented.
    EXPECT_TRUE(rt.debug_continue());
    EXPECT_EQ(rt.telemetry().gauge("debug.halted")->value(), 0);
    ASSERT_TRUE(rt.wait_for_hardware(30.0));
    EXPECT_NE(rt.user_location(), Location::Software);
    EXPECT_TRUE(rt.hw_debug_armed());

    // Deleting the last point swaps the plain (uninstrumented) twin in.
    EXPECT_TRUE(rt.debug_delete(id));
    EXPECT_FALSE(rt.hw_debug_armed());
    rt.run_for_ticks(8);
    EXPECT_FALSE(rt.debug_halted());

    std::filesystem::remove(win_path);
}

/// A halted program stays in the interpreter. The compile that a fabric
/// fire's eviction relaunches finishes while the user steps, and is
/// adopted only after :continue; stepping used to adopt it, and the
/// re-armed trigger then fired again with a value failing its condition.
TEST(Debugger, HaltedProgramIsNotReadmittedUntilContinue)
{
    service::CompileService svc;
    hypervisor::FabricManager fm;
    Runtime::Options opts = hw_fast();
    opts.enable_jit = false;
    opts.enable_open_loop = false;
    const std::string win_path = temp_path("halted_window.vcd");
    Runtime rt(opts, svc, fm);
    rt.on_output = [](const std::string&) {};
    rt.set_debug_window_path(win_path);
    std::string err;
    ASSERT_TRUE(rt.eval(kCounter8, &err)) << err;
    ASSERT_TRUE(rt.wait_for_hardware(30.0));
    ASSERT_NE(rt.debug_break("cnt", "==", "10", &err), 0u) << err;
    ASSERT_TRUE(rt.hw_debug_armed());

    ASSERT_TRUE(run_until_halted(&rt));
    EXPECT_EQ(rt.user_location(), Location::Software);
    svc.wait_idle();
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(rt.debug_step(2, &err)) << err;
    }
    EXPECT_EQ(rt.user_location(), Location::Software);
    EXPECT_EQ(rt.telemetry().counter("debug.fires")->value(), 1u);

    EXPECT_TRUE(rt.debug_continue());
    ASSERT_TRUE(rt.wait_for_hardware(30.0));
    EXPECT_NE(rt.user_location(), Location::Software);
    EXPECT_TRUE(rt.hw_debug_armed());
    std::filesystem::remove(win_path);
}

TEST(Debugger, NativeResidentSignalsReadLikeProbes)
{
    // Native mode runs the design uninstrumented on the fabric: points
    // evaluate in software through the engine's peek, which must know
    // the same registers add_probe accepts.
    Runtime::Options opts = hw_fast();
    opts.native_mode = true;
    opts.enable_open_loop = false; // deterministic tick accounting
    const std::string win_path = temp_path("native_window.vcd");
    Runtime rt(opts);
    rt.on_output = [](const std::string&) {};
    rt.set_debug_window_path(win_path);
    std::string err;
    ASSERT_TRUE(rt.eval(kCounter16, &err)) << err;
    ASSERT_TRUE(rt.wait_for_hardware(30.0));
    ASSERT_EQ(rt.user_location(), Location::Native);
    rt.run_for_ticks(4);

    ASSERT_TRUE(rt.add_probe("cnt", &err)) << err;
    const auto c0 = rt.debug_peek("cnt", &err);
    ASSERT_TRUE(c0.has_value()) << err;
    EXPECT_EQ(c0->width(), 16u);
    rt.run_for_ticks(3);
    EXPECT_EQ(rt.debug_peek("cnt", &err)->to_uint64(), c0->to_uint64() + 3);
    EXPECT_FALSE(rt.debug_peek("no_such_signal", &err).has_value());
    EXPECT_EQ(rt.debug_watch("no_such_signal", &err), 0u);

    const uint64_t watch = rt.debug_watch("cnt", &err);
    ASSERT_NE(watch, 0u) << err;
    EXPECT_TRUE(rt.debug_delete(watch));
    const uint64_t target = c0->to_uint64() + 20;
    ASSERT_NE(rt.debug_break("cnt", "==", std::to_string(target), &err),
              0u)
        << err;
    ASSERT_TRUE(run_until_halted(&rt));
    EXPECT_EQ(rt.debug_peek("cnt", &err)->to_uint64(), target);

    std::filesystem::remove(win_path);
}

/// Options that park kCounter16 on the JIT rung: the 10-LE device
/// rejects the fabric, and no open loop, for deterministic tick
/// accounting.
Runtime::Options
jit_rung()
{
    Runtime::Options opts = hw_fast();
    opts.device_les = 10;
    opts.enable_open_loop = false;
    return opts;
}

/// Evals kCounter16 into \p rt and steps until it runs on the JIT rung
/// (a failure after 60 s). False when the tier is unavailable on this
/// host.
bool
reach_jit_rung(Runtime* rt)
{
    rt->on_output = [](const std::string&) {};
    std::string err;
    EXPECT_TRUE(rt->eval(kCounter16, &err)) << err;
    const auto start = std::chrono::steady_clock::now();
    while (rt->user_location() == Location::Software) {
        if (rt->telemetry().counter("jit.unavailable")->value() != 0) {
            return false;
        }
        if (std::chrono::steady_clock::now() - start >
            std::chrono::seconds(60)) {
            ADD_FAILURE() << "never left the software rung";
            break;
        }
        rt->step();
    }
    EXPECT_EQ(rt->user_location(), Location::Jit);
    return true;
}

/// Timeline seconds of 2,000 ticks, after a few ticks that absorb any
/// engine-swap traffic.
double
tick_cost(Runtime* rt)
{
    rt->run_for_ticks(8);
    const double t0 = rt->timeline_seconds();
    rt->run_for_ticks(2000);
    return rt->timeline_seconds() - t0;
}

TEST(Debugger, DeletingLastPointOnJitRungRestoresTheKernel)
{
    // On the JIT rung arming swaps the instrumented bitstream twin in;
    // deleting the last point must swap the kernel back, so ticks cost
    // what they did before arming.
    Runtime rt(jit_rung());
    if (!reach_jit_rung(&rt)) {
        GTEST_SKIP() << "no usable compiler on this host";
    }
    const double before = tick_cost(&rt);

    std::string err;
    const uint64_t id = rt.debug_break("cnt", "==", "65000", &err);
    ASSERT_NE(id, 0u) << err;
    EXPECT_TRUE(rt.hw_debug_armed());
    EXPECT_TRUE(rt.debug_delete(id));
    EXPECT_FALSE(rt.hw_debug_armed());
    EXPECT_EQ(rt.user_location(), Location::Jit);
    EXPECT_NEAR(tick_cost(&rt), before, before * 1e-6);
}

TEST(Debugger, ArmedTwinOnJitRungBillsNoBus)
{
    // The instrumented twin that a point arms on the JIT rung runs in
    // process like the kernel: its ticks bill no modeled MMIO bus.
    Runtime rt(jit_rung());
    if (!reach_jit_rung(&rt)) {
        GTEST_SKIP() << "no usable compiler on this host";
    }
    const double kernel = tick_cost(&rt);
    std::string err;
    ASSERT_NE(rt.debug_break("cnt", "==", "65000", &err), 0u) << err;
    ASSERT_TRUE(rt.hw_debug_armed());
    EXPECT_EQ(rt.user_location(), Location::Jit);
    EXPECT_NEAR(tick_cost(&rt), kernel, kernel * 0.01);
}

// ---------------------------------------------------------------------
// Pre-trigger capture window vs. an open VCD dump
// ---------------------------------------------------------------------

TEST(Debugger, PreTriggerWindowByteMatchesVcdTail)
{
    const std::string vcd_path = temp_path("main.vcd");
    const std::string win_path = temp_path("window.vcd");

    Runtime rt(sw_only());
    std::string err;
    // `hit` is a reg (probes and debug points resolve nets and regs):
    // it rises exactly once, one posedge after cnt passes 20.
    ASSERT_TRUE(rt.eval(R"(
        reg [7:0] cnt = 0;
        reg hit = 0;
        always @(posedge clk.val) begin
          cnt <= cnt + 1;
          hit <= (cnt >= 8'd20);
        end
    )", &err)) << err;

    ASSERT_TRUE(rt.add_probe("cnt", &err)) << err;
    ASSERT_TRUE(rt.add_probe("hit", &err)) << err;
    ASSERT_TRUE(rt.vcd_open(vcd_path, &err)) << err;
    rt.run_for_ticks(4);

    rt.set_debug_window_path(win_path);
    ASSERT_NE(rt.debug_watch("hit", &err), 0u) << err;
    rt.run_for_ticks(40);
    ASSERT_TRUE(rt.debug_halted());
    EXPECT_EQ(rt.debug_peek("hit", &err)->to_uint64(), 1u);
    rt.close_vcd();

    const std::string main_dump = read_file(vcd_path);
    const std::string window = read_file(win_path);
    ASSERT_FALSE(main_dump.empty());
    ASSERT_FALSE(window.empty());
    EXPECT_NE(window.find("$dumpvars"), std::string::npos) << window;

    // The window's first time block is a full-value dump (the ring's
    // oldest sample); every block after it is a change record stream
    // that must be byte-identical to the tail of the live dump -- same
    // probes, same identifier codes, same suppression decisions.
    size_t second_block = window.find("\n#");
    ASSERT_NE(second_block, std::string::npos);
    second_block = window.find("\n#", second_block + 1);
    ASSERT_NE(second_block, std::string::npos) << window;
    const std::string tail = window.substr(second_block + 1);
    ASSERT_FALSE(tail.empty());
    ASSERT_GE(main_dump.size(), tail.size());
    EXPECT_EQ(main_dump.compare(main_dump.size() - tail.size(),
                                tail.size(), tail),
              0)
        << "window tail:\n"
        << tail << "\nmain dump:\n"
        << main_dump;

    std::filesystem::remove(vcd_path);
    std::filesystem::remove(win_path);
}

// ---------------------------------------------------------------------
// $monitor suppression across evict-step-readmit
// ---------------------------------------------------------------------

TEST(Debugger, MonitorSuppressionSurvivesEvictStepReadmit)
{
    // cnt[2] changes every 4 ticks: $monitor must print only on change,
    // and the halt/evict/step/readmit cycle must not duplicate or drop
    // lines. The whole debug session is compared line-for-line against
    // an undisturbed software run of the same total tick count.
    const char* src = R"(
        reg [15:0] cnt = 0;
        always @(posedge clk.val) begin
          cnt <= cnt + 1;
          $monitor("bit=%0d", cnt[2]);
        end
    )";

    std::vector<std::string> debug_lines;
    uint64_t total_ticks = 0;
    {
        Runtime::Options opts = hw_fast();
        opts.enable_open_loop = false;
        Runtime rt(opts);
        rt.set_debug_window_path(temp_path("monitor_window.vcd"));
        rt.on_output = [&debug_lines](const std::string& s) {
            debug_lines.push_back(s);
        };
        std::string err;
        ASSERT_TRUE(rt.eval(src, &err)) << err;
        ASSERT_NE(rt.debug_break("cnt", "==", "50", &err), 0u) << err;
        ASSERT_TRUE(rt.wait_for_hardware(30.0));
        ASSERT_TRUE(run_until_halted(&rt));
        EXPECT_EQ(rt.user_location(), Location::Software);
        // Step through a monitor-visible edge while halted.
        EXPECT_TRUE(rt.debug_step(6, &err)) << err;
        EXPECT_TRUE(rt.debug_continue());
        ASSERT_TRUE(rt.wait_for_hardware(30.0));
        rt.run_for_ticks(20);
        EXPECT_FALSE(rt.debug_halted());
        total_ticks = rt.virtual_ticks();
    }
    ASSERT_FALSE(debug_lines.empty());

    std::vector<std::string> plain_lines;
    {
        Runtime rt(sw_only());
        rt.on_output = [&plain_lines](const std::string& s) {
            plain_lines.push_back(s);
        };
        std::string err;
        ASSERT_TRUE(rt.eval(src, &err)) << err;
        rt.run_for_ticks(total_ticks);
    }

    // Drop the runtime's own "debug:" interrupt lines (fire + window
    // notices) before comparing; the program's monitor stream must be
    // line-for-line identical to the undisturbed run.
    const auto monitor_lines = without_debug_lines(debug_lines);
    EXPECT_EQ(monitor_lines, plain_lines);
    // And the defining property directly: adjacent lines always differ.
    for (size_t i = 1; i < monitor_lines.size(); ++i) {
        EXPECT_NE(monitor_lines[i], monitor_lines[i - 1])
            << "duplicate monitor line at " << i;
    }

    std::filesystem::remove(temp_path("monitor_window.vcd"));
}

// ---------------------------------------------------------------------
// Record/replay round trip with a hardware trigger
// ---------------------------------------------------------------------

TEST(Debugger, ReplayRoundTripWithHardwareTrigger)
{
    const std::string path = temp_path("roundtrip.jsonl");
    const std::string win_path = temp_path("replay_window.vcd");

    std::string recorded_output;
    uint64_t recorded_fires = 0;
    {
        Runtime rt(hw_fast());
        rt.on_output = [&recorded_output](const std::string& s) {
            recorded_output += s;
        };
        rt.set_debug_window_path(win_path);
        std::string err;
        ASSERT_TRUE(rt.start_recording(path, &err)) << err;
        ASSERT_TRUE(rt.eval(R"(
            reg [15:0] cnt = 0;
            always @(posedge clk.val) begin
              cnt <= cnt + 1;
              if (cnt % 100 == 0) $display("cnt=%0d", cnt);
            end
        )", &err)) << err;
        ASSERT_NE(rt.debug_break("cnt", "==", "300", &err), 0u) << err;
        ASSERT_TRUE(rt.wait_for_hardware(30.0));
        ASSERT_TRUE(rt.hw_debug_armed());
        ASSERT_TRUE(run_until_halted(&rt));
        ASSERT_TRUE(rt.debug_peek("cnt", &err).has_value());
        ASSERT_TRUE(rt.debug_step(4, &err)) << err;
        ASSERT_TRUE(rt.debug_peek("cnt", &err).has_value());
        ASSERT_TRUE(rt.debug_continue());
        rt.run_for_ticks(200);
        rt.stop_recording();
        recorded_fires = rt.telemetry().counter("debug.fires")->value();
        EXPECT_GE(recorded_fires, 1u);
    }
    ASSERT_FALSE(recorded_output.empty());

    ReplayLog log;
    std::string err;
    ASSERT_TRUE(load_journal(path, &log, &err)) << err;
    bool saw_hw_fire = false;
    for (const auto& ev : log.events) {
        if (ev.type == "debug.fire" &&
            ev.data_raw.find("\"origin\":\"hw\"") != std::string::npos) {
            saw_hw_fire = true;
        }
    }
    ASSERT_TRUE(saw_hw_fire);

    // Replay regenerates the pre-trigger window dump too: point the
    // replayed runtime at the same path (the recorded bytes are saved
    // above) and demand an identical file.
    const std::string recorded_window = strip_date(read_file(win_path));
    ASSERT_FALSE(recorded_window.empty());
    Runtime rt2(options_from_header(log.header));
    rt2.set_debug_window_path(win_path);
    std::string replayed_output;
    rt2.on_output = [&replayed_output](const std::string& s) {
        replayed_output += s;
    };
    const ReplayReport report = replay_into(&rt2, log);
    EXPECT_TRUE(report.ok) << report.summary();
    EXPECT_FALSE(report.diverged) << report.summary();
    EXPECT_EQ(replayed_output, recorded_output);
    EXPECT_EQ(rt2.telemetry().counter("debug.fires")->value(),
              recorded_fires);
    EXPECT_EQ(strip_date(read_file(win_path)), recorded_window);

    std::filesystem::remove(path);
    std::filesystem::remove(win_path);
}

TEST(Debugger, TamperedFireIterationReportsFirstDivergence)
{
    const std::string path = temp_path("tamper.jsonl");
    {
        Runtime rt(sw_only());
        rt.on_output = [](const std::string&) {};
        rt.set_debug_window_path(temp_path("tamper_window.vcd"));
        // (window file removed at the end of the test)
        std::string err;
        ASSERT_TRUE(rt.start_recording(path, &err)) << err;
        ASSERT_TRUE(rt.eval(kCounter8, &err)) << err;
        ASSERT_NE(rt.debug_break("cnt", "==", "9", &err), 0u) << err;
        rt.run_for_ticks(40);
        ASSERT_TRUE(rt.debug_halted());
        ASSERT_TRUE(rt.debug_continue());
        rt.run_for_ticks(10);
        rt.stop_recording();
    }

    // Bump the recorded fire's tick count: the replayed fire happens at
    // the true tick, so the comparator must flag exactly this event.
    std::string text = read_file(path);
    const size_t fire_at = text.find("debug.fire");
    ASSERT_NE(fire_at, std::string::npos);
    const size_t tick_key = text.find("\"tick\":", fire_at);
    ASSERT_NE(tick_key, std::string::npos);
    const size_t digits = tick_key + std::string("\"tick\":").size();
    size_t digits_end = digits;
    while (digits_end < text.size() && isdigit(text[digits_end]) != 0) {
        ++digits_end;
    }
    const uint64_t tick =
        std::stoull(text.substr(digits, digits_end - digits));
    text.replace(digits, digits_end - digits, std::to_string(tick + 7));

    const size_t line_start = text.rfind('\n', fire_at) + 1;
    const size_t line_end = text.find('\n', fire_at);
    telemetry::JsonValue tampered_line;
    ASSERT_TRUE(telemetry::parse_json(
        text.substr(line_start, line_end - line_start), &tampered_line));
    const uint64_t tampered_seq = tampered_line.get_u64("seq");
    ASSERT_GT(tampered_seq, 0u);

    std::ofstream out(path, std::ios::trunc);
    out << text;
    out.close();

    const ReplayReport report = replay_journal(path);
    EXPECT_FALSE(report.ok);
    ASSERT_TRUE(report.diverged) << report.summary();
    EXPECT_EQ(report.divergence_type, "debug.fire") << report.summary();
    EXPECT_EQ(report.divergence_seq, tampered_seq) << report.summary();

    std::filesystem::remove(path);
}

// ---------------------------------------------------------------------
// Monitor endpoint: /debug and halted heartbeat plumbing
// ---------------------------------------------------------------------

TEST(Debugger, HaltedGaugeAppearsInTimeseries)
{
    Runtime::Options opts = sw_only();
    opts.timeseries_interval_s = 0.0005; // sample on ~every window
    const std::string win_path = temp_path("ts_window.vcd");
    Runtime rt(opts);
    rt.on_output = [](const std::string&) {};
    rt.set_debug_window_path(win_path);
    std::string err;
    ASSERT_TRUE(rt.eval(kCounter8, &err)) << err;
    ASSERT_NE(rt.debug_break("cnt", "==", "3", &err), 0u) << err;
    rt.run_for_ticks(20);
    ASSERT_TRUE(rt.debug_halted());
    // The halt gate keeps the telemetry heartbeat alive: stepping the
    // scheduler while halted samples "runtime.halted" = 1 even though
    // the virtual clock is frozen (the /timeseries flatline fix).
    const uint64_t frozen = rt.virtual_ticks();
    for (int i = 0; i < 8; ++i) {
        rt.step();
        usleep(1000);
    }
    EXPECT_EQ(rt.virtual_ticks(), frozen); // still frozen
    const std::string ts = rt.monitor().timeseries().json();
    EXPECT_NE(ts.find("runtime.halted"), std::string::npos) << ts;

    std::filesystem::remove(win_path);
}

TEST(Debugger, JsonExactBytes)
{
    // The point table in id order: breaks carry op and decimal value,
    // watches do not; names are escaped.
    Debugger d;
    d.add_break("cnt", ">=", BitVector(8, 3));
    d.add_watch("h \"q\"");
    d.note_fire(1);
    EXPECT_EQ(d.json(true, false),
              R"({"schema":"cascade.debug.v1","halted":true,)"
              R"("hw_armed":false,"fires":1,"points":2,"table":[{"id":1,)"
              R"("kind":"break","signal":"cnt","op":">=","value":"3",)"
              R"("hits":1},{"id":2,"kind":"watch","signal":"h \"q\"",)"
              R"("hits":0}]})");
    EXPECT_EQ(Debugger().json(false, true),
              R"({"schema":"cascade.debug.v1","halted":false,)"
              R"("hw_armed":true,"fires":0,"points":0,"table":[]})");
}

} // namespace
} // namespace cascade::runtime
