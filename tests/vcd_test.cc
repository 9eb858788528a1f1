/// \file
/// Tests for signal-level observability: the VCD writer itself, runtime
/// waveform capture (engine-identical output across software, hardware,
/// and mid-run adoption), program-driven $dump* tasks, and IEEE $monitor
/// semantics (once per timestep, on change only, same lines from both
/// engines).

#include "sim/vcd.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "jit/jit_cache.h"
#include "runtime/runtime.h"

namespace cascade {
namespace {

using runtime::Runtime;

std::string
read_file(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/// Drops the $date line, the only non-reproducible part of a VCD.
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

std::string
temp_path(const std::string& name)
{
    return testing::TempDir() + name;
}

// ---------------------------------------------------------------------
// VcdWriter unit tests
// ---------------------------------------------------------------------

TEST(VcdWriter, HeaderDeclarationsAndInitialSection)
{
    const std::string path = temp_path("vcd_header.vcd");
    sim::VcdWriter w;
    std::string err;
    ASSERT_TRUE(w.open(path, &err)) << err;
    EXPECT_EQ(w.declare("cnt", 8), 0);
    EXPECT_EQ(w.declare("flag", 1), 1);
    EXPECT_EQ(w.declare("cnt", 8), 0) << "duplicate returns existing index";
    EXPECT_EQ(w.signal_count(), 2u);

    const BitVector cnt(8, 0x2A);
    const BitVector flag(1, 1);
    w.sample(0, {&cnt, &flag});
    w.close();

    const std::string text = read_file(path);
    EXPECT_NE(text.find("$timescale 1 ns $end"), std::string::npos);
    EXPECT_NE(text.find("$scope module cascade $end"), std::string::npos);
    EXPECT_NE(text.find("$var wire 8 ! cnt [7:0] $end"), std::string::npos);
    EXPECT_NE(text.find("$var wire 1 \" flag $end"), std::string::npos)
        << text;
    EXPECT_NE(text.find("$enddefinitions $end"), std::string::npos);
    // Initial $dumpvars section with full values.
    EXPECT_NE(text.find("$dumpvars"), std::string::npos);
    EXPECT_NE(text.find("#0"), std::string::npos);
    EXPECT_NE(text.find("b00101010 !"), std::string::npos);
    EXPECT_NE(text.find("1\""), std::string::npos);
    // Exactly one $date line, and it is a single line.
    EXPECT_EQ(text.find("$date"), text.rfind("$date"));

    // Declaring after the header was written is refused.
    EXPECT_EQ(w.declare("late", 4), -1);
}

TEST(VcdWriter, ChangeSuppressionAndXForNull)
{
    const std::string path = temp_path("vcd_changes.vcd");
    sim::VcdWriter w;
    ASSERT_TRUE(w.open(path));
    w.declare("a", 4);
    w.declare("b", 1);

    const BitVector a0(4, 3);
    const BitVector a1(4, 7);
    const BitVector b0(1, 0);
    w.sample(0, {&a0, &b0});
    w.sample(2, {&a0, &b0}); // nothing changed: no output at all
    w.sample(4, {&a1, &b0}); // only a changes
    w.sample(6, {nullptr, &b0}); // a becomes unknown
    w.close();

    const std::string text = strip_date(read_file(path));
    EXPECT_EQ(text.find("#2"), std::string::npos)
        << "unchanged sample must not emit a timestamp:\n" << text;
    EXPECT_NE(text.find("#4\nb0111 !\n"), std::string::npos) << text;
    EXPECT_NE(text.find("#6\nbx !\n"), std::string::npos) << text;
    // b never changed after #0: exactly one record for it.
    EXPECT_EQ(text.find("0\""), text.rfind("0\"")) << text;
    EXPECT_EQ(w.samples(), 4u);
    EXPECT_EQ(w.bytes_written(), read_file(path).size());
}

TEST(VcdWriter, DumpOffOn)
{
    const std::string path = temp_path("vcd_offon.vcd");
    sim::VcdWriter w;
    ASSERT_TRUE(w.open(path));
    w.declare("v", 2);

    const BitVector v1(2, 1);
    const BitVector v2(2, 2);
    const BitVector v3(2, 3);
    w.sample(0, {&v1});
    w.dump_off(2);
    EXPECT_FALSE(w.dumping());
    w.sample(4, {&v2}); // ignored while off
    w.dump_on(6, {&v3});
    EXPECT_TRUE(w.dumping());
    w.close();

    const std::string text = strip_date(read_file(path));
    EXPECT_NE(text.find("$dumpoff"), std::string::npos);
    EXPECT_NE(text.find("bx !"), std::string::npos);
    EXPECT_EQ(text.find("#4"), std::string::npos)
        << "samples while off must be dropped:\n" << text;
    EXPECT_NE(text.find("$dumpon"), std::string::npos);
    EXPECT_NE(text.find("b11 !"), std::string::npos);
}

// ---------------------------------------------------------------------
// Runtime capture: the same .vcd regardless of engine placement
// ---------------------------------------------------------------------

const char* kCounterDesign = R"(
    reg [7:0] cnt = 0;
    always @(posedge clk.val)
      cnt <= cnt + 1;
)";

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
    opts.compile_effort = 0.05;
    opts.open_loop_target_wall_s = 0.02;
    return opts;
}

/// Where a capture runs: the interpreter throughout, adopted at virtual
/// tick 0 (the fabric, native mode, or the JIT kernel on a device too
/// small for the fabric), or adopted between the two capture halves.
enum class Placement { SoftwareOnly, HardwareFirst, AdoptMidRun, Native, Jit };

Runtime::Options
placement_options(Placement placement)
{
    Runtime::Options opts =
        placement == Placement::SoftwareOnly ? sw_only() : hw_fast();
    opts.native_mode = placement == Placement::Native;
    if (placement == Placement::Jit) {
        opts.device_les = 10; // the fabric rejects the design
    }
    return opts;
}

/// Adopts the placement's engine without advancing virtual time.
void
adopt_at_tick_zero(Runtime* rt, Placement placement)
{
    if (placement == Placement::HardwareFirst ||
        placement == Placement::Native) {
        EXPECT_TRUE(rt->wait_for_hardware(30.0));
    } else if (placement == Placement::Jit) {
        const auto start = std::chrono::steady_clock::now();
        while (rt->user_location() != runtime::Location::Jit &&
               std::chrono::steady_clock::now() - start <
                   std::chrono::seconds(60)) {
            rt->wait_for_hardware(0.05);
        }
        EXPECT_EQ(rt->user_location(), runtime::Location::Jit);
    }
    EXPECT_EQ(rt->virtual_ticks(), 0u);
}

/// Runs kCounterDesign for 3+3 virtual ticks with VCD capture of `cnt`
/// in one engine placement, and returns the date-stripped dump.
std::string
capture_counter(Placement placement, const std::string& path)
{
    Runtime rt(placement_options(placement));
    rt.on_output = [](const std::string&) {};
    std::string errors;
    EXPECT_TRUE(rt.eval(kCounterDesign, &errors)) << errors;
    adopt_at_tick_zero(&rt, placement);
    std::string err;
    EXPECT_TRUE(rt.add_probe("cnt", &err)) << err;
    EXPECT_TRUE(rt.vcd_open(path, &err)) << err;
    EXPECT_TRUE(rt.vcd_active());
    rt.run_for_ticks(3);
    if (placement == Placement::AdoptMidRun) {
        // Splice: the dump stays open across the sw->hw handoff.
        EXPECT_TRUE(rt.wait_for_hardware(30.0));
        EXPECT_NE(rt.user_location(), runtime::Location::Software);
    }
    rt.run_for_ticks(3);
    rt.close_vcd();
    return strip_date(read_file(path));
}

TEST(RuntimeVcd, GoldenAcrossEnginePlacements)
{
    const std::string sw =
        capture_counter(Placement::SoftwareOnly, temp_path("gold_sw.vcd"));
    ASSERT_FALSE(sw.empty());
    // The software run is the reference; sanity-check its shape.
    EXPECT_NE(sw.find("$var wire 8 ! cnt [7:0] $end"), std::string::npos)
        << sw;
    // First sample lands at the first end-of-timestep window (#1).
    EXPECT_NE(sw.find("#1\n$dumpvars"), std::string::npos) << sw;

    const std::string hw =
        capture_counter(Placement::HardwareFirst, temp_path("gold_hw.vcd"));
    EXPECT_EQ(sw, hw) << "hardware-resident dump diverged from software";

    const std::string mixed =
        capture_counter(Placement::AdoptMidRun, temp_path("gold_mix.vcd"));
    EXPECT_EQ(sw, mixed) << "mid-run adoption dump diverged from software";

    const std::string native =
        capture_counter(Placement::Native, temp_path("gold_native.vcd"));
    EXPECT_EQ(sw, native) << "native-mode dump diverged from software";

    if (jit::compiler_available()) {
        const std::string jit =
            capture_counter(Placement::Jit, temp_path("gold_jit.vcd"));
        EXPECT_EQ(sw, jit) << "JIT-kernel dump diverged from software";
    }
}

/// The acceptance scenario verbatim: capture configured by the program
/// itself ($dumpfile/$dumpvars, whole-design dump) instead of explicit
/// probes, still byte-identical across engine placements.
std::string
capture_dumpvars(Placement placement, const std::string& path)
{
    Runtime rt(placement_options(placement));
    rt.on_output = [](const std::string&) {};
    std::string errors;
    // Initial blocks run at eval, in software, before any adoption: the
    // dump configuration is runtime-side state and survives the handoff.
    // Native mode compiles the design as written and so cannot carry
    // system tasks; it opens the same whole-design dump (no explicit
    // probes) through the API instead.
    const bool native = placement == Placement::Native;
    const std::string tasks =
        "initial begin $dumpfile(\"" + path + "\"); $dumpvars; end\n";
    EXPECT_TRUE(rt.eval((native ? "" : tasks) + kCounterDesign, &errors))
        << errors;
    adopt_at_tick_zero(&rt, placement);
    if (native) {
        EXPECT_TRUE(rt.vcd_open(path, &errors)) << errors;
    }
    rt.run_for_ticks(3);
    if (placement == Placement::AdoptMidRun) {
        EXPECT_TRUE(rt.wait_for_hardware(30.0));
    }
    rt.run_for_ticks(3);
    rt.close_vcd();
    return strip_date(read_file(path));
}

TEST(RuntimeVcd, GoldenDumpvarsAcrossEnginePlacements)
{
    const std::string sw =
        capture_dumpvars(Placement::SoftwareOnly, temp_path("dv_sw.vcd"));
    ASSERT_FALSE(sw.empty());
    EXPECT_NE(sw.find("cnt"), std::string::npos) << sw;

    const std::string hw =
        capture_dumpvars(Placement::HardwareFirst, temp_path("dv_hw.vcd"));
    EXPECT_EQ(sw, hw) << "$dumpvars dump diverged on the fabric";

    const std::string mixed =
        capture_dumpvars(Placement::AdoptMidRun, temp_path("dv_mix.vcd"));
    EXPECT_EQ(sw, mixed) << "$dumpvars dump diverged across adoption";

    const std::string native =
        capture_dumpvars(Placement::Native, temp_path("dv_native.vcd"));
    EXPECT_EQ(sw, native) << "$dumpvars dump diverged in native mode";

    if (jit::compiler_available()) {
        const std::string jit =
            capture_dumpvars(Placement::Jit, temp_path("dv_jit.vcd"));
        EXPECT_EQ(sw, jit) << "$dumpvars dump diverged on the JIT kernel";
    }
}

TEST(RuntimeVcd, ProbeValidationAndFreeze)
{
    Runtime rt(sw_only());
    std::string errors;
    ASSERT_TRUE(rt.eval(kCounterDesign, &errors)) << errors;

    std::string err;
    EXPECT_FALSE(rt.add_probe("no_such_signal", &err));
    EXPECT_NE(err.find("unknown signal"), std::string::npos) << err;
    // A memory has no single value to dump.
    ASSERT_TRUE(rt.eval("reg [7:0] mem [0:3];", &errors)) << errors;
    EXPECT_FALSE(rt.add_probe("mem", &err));

    ASSERT_TRUE(rt.add_probe("cnt", &err)) << err;
    EXPECT_EQ(rt.probes().size(), 1u);
    EXPECT_TRUE(rt.remove_probe("cnt"));
    EXPECT_FALSE(rt.remove_probe("cnt"));

    ASSERT_TRUE(rt.add_probe("cnt", &err)) << err;
    ASSERT_TRUE(rt.vcd_open(temp_path("freeze.vcd"), &err)) << err;
    rt.run_for_ticks(1); // first sample freezes the signal set
    EXPECT_FALSE(rt.add_probe("cnt", &err));
    EXPECT_NE(err.find("frozen"), std::string::npos) << err;
    EXPECT_FALSE(rt.vcd_open(temp_path("freeze2.vcd"), &err));
}

TEST(RuntimeVcd, DumpTasksFromProgram)
{
    const std::string path = temp_path("task_driven.vcd");
    std::remove(path.c_str());
    Runtime rt(sw_only());
    rt.on_output = [](const std::string&) {};
    std::string errors;
    ASSERT_TRUE(rt.eval("initial begin $dumpfile(\"" + path +
                            "\"); $dumpvars; end\n" + kCounterDesign,
                        &errors))
        << errors;
    rt.run_for_ticks(4);
    rt.close_vcd();
    const std::string text = read_file(path);
    EXPECT_NE(text.find("$enddefinitions $end"), std::string::npos) << text;
    EXPECT_NE(text.find("cnt"), std::string::npos) << text;
    EXPECT_NE(text.find("$dumpvars"), std::string::npos) << text;
}

TEST(RuntimeVcd, CountersAppearInStats)
{
    Runtime rt(sw_only());
    std::string errors;
    ASSERT_TRUE(rt.eval(kCounterDesign, &errors)) << errors;
    std::string err;
    ASSERT_TRUE(rt.add_probe("cnt", &err)) << err;
    ASSERT_TRUE(rt.vcd_open(temp_path("stats.vcd"), &err)) << err;
    rt.run_for_ticks(2);
    const std::string json = rt.stats_json();
    EXPECT_NE(json.find("\"vcd.samples\""), std::string::npos);
    EXPECT_NE(json.find("\"vcd.bytes_written\""), std::string::npos);
}

// ---------------------------------------------------------------------
// $monitor semantics
// ---------------------------------------------------------------------

/// Runs \p src and returns every $display/$monitor line emitted within
/// \p ticks virtual ticks.
std::vector<std::string>
run_and_collect(const Runtime::Options& opts, const std::string& src,
                uint64_t ticks, bool adopt_hw_first = false)
{
    Runtime rt(opts);
    std::vector<std::string> lines;
    rt.on_output = [&lines](const std::string& s) { lines.push_back(s); };
    std::string errors;
    EXPECT_TRUE(rt.eval(src, &errors)) << errors;
    if (adopt_hw_first) {
        EXPECT_TRUE(rt.wait_for_hardware(30.0));
        lines.clear(); // only compare steady-state monitor output
    }
    rt.run_for_ticks(ticks);
    return lines;
}

TEST(Monitor, PrintsOncePerTimestepOnlyOnChange)
{
    // cnt[1] changes every other posedge, so a monitor on it must print
    // half as often as a $display at the same site would.
    const char* src = R"(
        reg [7:0] cnt = 0;
        always @(posedge clk.val) begin
          cnt <= cnt + 1;
          $monitor("bit=%0d", cnt[1]);
        end
    )";
    const auto lines = run_and_collect(sw_only(), src, 8);
    ASSERT_GE(lines.size(), 3u);
    // Strictly alternating values: every printed line differs from the
    // previous one (the definition of on-change-only).
    for (size_t i = 1; i < lines.size(); ++i) {
        EXPECT_NE(lines[i], lines[i - 1]) << "duplicate monitor line";
    }
    EXPECT_EQ(lines[0], "bit=0\n");
    EXPECT_EQ(lines[1], "bit=1\n");
    // 8 ticks of a bit toggling every 2 ticks: at most 5 distinct prints,
    // versus 8 for $display semantics.
    EXPECT_LE(lines.size(), 5u);
}

TEST(Monitor, ConstantArgumentPrintsOnce)
{
    const char* src = R"(
        reg [7:0] cnt = 0;
        always @(posedge clk.val) begin
          cnt <= cnt + 1;
          $monitor("steady=%0d", 7);
        end
    )";
    const auto lines = run_and_collect(sw_only(), src, 6);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0], "steady=7\n");
}

TEST(Monitor, SoftwareAndHardwareEmitIdenticalLines)
{
    const char* src = R"(
        reg [7:0] cnt = 0;
        always @(posedge clk.val) begin
          cnt <= cnt + 1;
          $monitor("cnt=%0d", cnt);
        end
    )";
    const auto sw = run_and_collect(sw_only(), src, 6);
    ASSERT_GE(sw.size(), 3u);

    // Hardware-resident from tick 0: identical sequence.
    auto hw_opts = hw_fast();
    Runtime rt(hw_opts);
    std::vector<std::string> hw;
    rt.on_output = [&hw](const std::string& s) { hw.push_back(s); };
    std::string errors;
    ASSERT_TRUE(rt.eval(src, &errors)) << errors;
    ASSERT_TRUE(rt.wait_for_hardware(30.0));
    rt.run_for_ticks(6);
    EXPECT_EQ(sw, hw);
}

TEST(Monitor, SurvivesMidRunAdoptionWithoutDuplicates)
{
    const char* src = R"(
        reg [7:0] cnt = 0;
        always @(posedge clk.val) begin
          cnt <= cnt + 1;
          $monitor("cnt=%0d", cnt);
        end
    )";
    // Reference: pure software for 12 ticks.
    const auto want = run_and_collect(sw_only(), src, 12);

    Runtime rt(hw_fast());
    std::vector<std::string> got;
    rt.on_output = [&got](const std::string& s) { got.push_back(s); };
    std::string errors;
    ASSERT_TRUE(rt.eval(src, &errors)) << errors;
    rt.run_for_ticks(6);
    ASSERT_TRUE(rt.wait_for_hardware(30.0));
    ASSERT_NE(rt.user_location(), runtime::Location::Software);
    rt.run_for_ticks(6);
    // The handoff re-arms the fabric's monitor sites; the runtime's text
    // filter absorbs the duplicate candidate, so the merged stream equals
    // the software reference.
    EXPECT_EQ(want, got);
}

} // namespace
} // namespace cascade
