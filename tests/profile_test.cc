/// \file
/// Tests for the source-level profiler: per-process trigger counts and
/// timing attribution in the interpreter, profile continuity across a
/// mid-run software-to-hardware adoption (counts monotone, spliced totals
/// identical to a software-only run), and provenance round-tripping from
/// synthesis through technology mapping onto the fabric (every cell
/// resolves to a real source construct; the critical path renders as
/// named user signals, never anonymous node ids).

#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fpga/bitstream.h"
#include "fpga/compile.h"
#include "fpga/synth.h"
#include "fpga/techmap.h"
#include "runtime/runtime.h"
#include "verilog/parser.h"

namespace cascade {
namespace {

using runtime::Runtime;

const char* const kCounterDesign =
    "reg [7:0] cnt = 0;\n"
    "always @(posedge clk.val) cnt <= cnt + 1;\n";

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

/// Flattens a profile into identity -> deterministic trigger totals
/// (eval_ns is wall time and excluded on purpose).
std::map<std::string, uint64_t>
trigger_totals(const std::vector<runtime::ProfileEntry>& entries)
{
    std::map<std::string, uint64_t> out;
    for (const auto& e : entries) {
        std::string id = e.instance + '|' + e.kind + '|' + e.key + '|';
        for (const auto& t : e.triggers) {
            id += t + ',';
        }
        out[id] += e.total_triggers();
    }
    return out;
}

uint64_t
total_of(const Runtime& rt)
{
    uint64_t sum = 0;
    for (const auto& e : rt.profiler().profile()) {
        sum += e.total_triggers();
    }
    return sum;
}

// ---------------------------------------------------------------------
// Interpreter-level attribution
// ---------------------------------------------------------------------

TEST(Profile, TriggerCountsExactAndTimingGated)
{
    Runtime rt(sw_only());
    rt.on_output = [](const std::string&) {};
    ASSERT_TRUE(rt.eval(kCounterDesign));
    rt.run_for_ticks(5);

    auto entries = rt.profiler().profile();
    ASSERT_EQ(entries.size(), 1u);
    const auto& e = entries[0];
    EXPECT_EQ(e.instance, "root");
    EXPECT_EQ(e.kind, "seq");
    ASSERT_EQ(e.triggers.size(), 1u);
    EXPECT_EQ(e.triggers[0], "posedge clk_val");
    // One posedge per virtual tick, counted even with profiling off.
    EXPECT_EQ(e.sw_triggers, 5u);
    EXPECT_EQ(e.hw_triggers, 0u);
    // Wall-time attribution is behind the profiling switch.
    EXPECT_EQ(e.eval_ns, 0u);
    EXPECT_FALSE(rt.profiling());

    rt.set_profiling(true);
    rt.run_for_ticks(5);
    entries = rt.profiler().profile();
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].sw_triggers, 10u);
    EXPECT_GT(entries[0].eval_ns, 0u);
}

TEST(Profile, CountsSurviveAppendOnlyEvals)
{
    // Each eval rebuilds every engine; banked accumulators must splice
    // with the new engines' counters instead of restarting from zero.
    Runtime rt(sw_only());
    rt.on_output = [](const std::string&) {};
    ASSERT_TRUE(rt.eval(kCounterDesign));
    rt.run_for_ticks(3);
    ASSERT_TRUE(rt.eval("reg [3:0] other = 0;\n"
                        "always @(posedge clk.val) other <= other + 1;\n"));
    rt.run_for_ticks(2);

    const auto totals = trigger_totals(rt.profiler().profile());
    uint64_t cnt_total = 0;
    uint64_t other_total = 0;
    for (const auto& [id, total] : totals) {
        if (id.find("cnt") != std::string::npos) {
            cnt_total = total;
        } else if (id.find("other") != std::string::npos) {
            other_total = total;
        }
    }
    EXPECT_EQ(cnt_total, 5u) << "3 ticks before + 2 after the eval";
    EXPECT_EQ(other_total, 2u) << "only the 2 ticks after its eval";
}

// ---------------------------------------------------------------------
// Continuity across the software-to-hardware transition
// ---------------------------------------------------------------------

TEST(Profile, SplicesAcrossMidRunAdoption)
{
    // Software-only reference run.
    Runtime sw(sw_only());
    sw.on_output = [](const std::string&) {};
    ASSERT_TRUE(sw.eval(kCounterDesign));
    sw.run_for_ticks(3);
    sw.run_for_ticks(3);
    const auto sw_totals = trigger_totals(sw.profiler().profile());

    // Same program with a mid-run hardware adoption.
    Runtime hw(hw_fast());
    hw.on_output = [](const std::string&) {};
    ASSERT_TRUE(hw.eval(kCounterDesign));
    hw.run_for_ticks(3);
    const uint64_t before_adopt = total_of(hw);
    ASSERT_TRUE(hw.wait_for_hardware(30.0));
    const uint64_t at_adopt = total_of(hw);
    hw.run_for_ticks(3);
    const auto hw_totals = trigger_totals(hw.profiler().profile());

    // Identical process identities and identical deterministic trigger
    // totals — the profile spliced across the engine transition.
    EXPECT_EQ(sw_totals, hw_totals);

    // Monotone, no double-counting at the adoption boundary.
    EXPECT_LE(before_adopt, at_adopt);
    EXPECT_EQ(total_of(hw), 6u);

    // The hardware window really contributed (the last 3 ticks ran on
    // the fabric).
    uint64_t hw_attributed = 0;
    for (const auto& e : hw.profiler().profile()) {
        hw_attributed += e.hw_triggers;
    }
    EXPECT_GE(hw_attributed, 3u);
    EXPECT_NE(hw.user_location(), runtime::Location::Software);
}

TEST(Profile, FallbackEvalAfterAdoptionKeepsCounts)
{
    // Adopt hardware, then eval more code (which drops the program back
    // to software): the fabric-attributed window must fold into the
    // accumulators instead of vanishing with the retired hardware engine.
    Runtime rt(hw_fast());
    rt.on_output = [](const std::string&) {};
    ASSERT_TRUE(rt.eval(kCounterDesign));
    rt.run_for_ticks(2);
    ASSERT_TRUE(rt.wait_for_hardware(30.0));
    rt.run_for_ticks(2);
    ASSERT_TRUE(rt.eval("reg tail = 0;\n"
                        "always @(posedge clk.val) tail <= ~tail;\n"));
    EXPECT_EQ(rt.user_location(), runtime::Location::Software);
    rt.run_for_ticks(1);

    const auto totals = trigger_totals(rt.profiler().profile());
    uint64_t cnt_total = 0;
    for (const auto& [id, total] : totals) {
        if (id.find("cnt") != std::string::npos) {
            cnt_total = total;
        }
    }
    EXPECT_EQ(cnt_total, 5u) << "2 sw + 2 hw + 1 sw after the eval";
}

// ---------------------------------------------------------------------
// Provenance through the FPGA flow
// ---------------------------------------------------------------------

std::shared_ptr<const verilog::ElaboratedModule>
elaborate_src(std::string_view src)
{
    Diagnostics diags;
    verilog::SourceUnit unit = verilog::parse(src, &diags);
    EXPECT_FALSE(diags.has_errors()) << diags.str();
    verilog::Elaborator elab(&diags);
    auto em = elab.elaborate(*unit.modules[0]);
    EXPECT_NE(em, nullptr) << diags.str();
    return std::shared_ptr<const verilog::ElaboratedModule>(std::move(em));
}

/// A fig. 11-shaped design: registered datapath, wide combinational
/// cone, memory — every structural feature the provenance labels must
/// survive.
const char* const kPowLikeDesign =
    "module pow(input wire clk, input wire [31:0] nonce,\n"
    "           output reg [31:0] digest, output wire hit);\n"
    "  reg [31:0] state = 32'h6a09e667;\n"
    "  wire [31:0] mixed;\n"
    "  assign mixed = (state ^ nonce) + {state[15:0], state[31:16]};\n"
    "  assign hit = digest < 32'h0000ffff;\n"
    "  always @(posedge clk) begin\n"
    "    state <= mixed;\n"
    "    digest <= mixed ^ (nonce >> 3);\n"
    "  end\n"
    "endmodule\n";

bool
looks_anonymous(const std::string& name)
{
    // NetlistBuilder's fallback for an unnamed, unattributed node is
    // "n<id>"; a named path must never contain one.
    if (name.size() < 2 || name[0] != 'n') {
        return false;
    }
    for (size_t i = 1; i < name.size(); ++i) {
        if (!std::isdigit(static_cast<unsigned char>(name[i]))) {
            return false;
        }
    }
    return true;
}

TEST(Provenance, EveryCellResolvesToASourceConstruct)
{
    auto em = elaborate_src(kPowLikeDesign);
    ASSERT_NE(em, nullptr);
    Diagnostics diags;
    auto nl = fpga::synthesize(*em, &diags);
    ASSERT_NE(nl, nullptr) << diags.str();

    const fpga::MappedDesign mapped = fpga::technology_map(*nl);
    ASSERT_FALSE(mapped.cells.empty());
    for (const fpga::Cell& cell : mapped.cells) {
        const std::string& label = nl->source_of(cell.node);
        EXPECT_LT(cell.src, nl->src_labels.size());
        EXPECT_FALSE(label.empty());
        EXPECT_NE(label, "(unattributed)")
            << "cell over node " << cell.node << " ("
            << nl->name_of(cell.node) << ") lost its provenance";
    }
}

TEST(Provenance, CriticalPathNamesSourceLevelSignals)
{
    for (const char* src : {kPowLikeDesign,
                            "module counter(input wire clk,\n"
                            "               output reg [15:0] q);\n"
                            "  always @(posedge clk) q <= q + 1;\n"
                            "endmodule\n"}) {
        auto em = elaborate_src(src);
        ASSERT_NE(em, nullptr);
        fpga::CompileOptions opts;
        opts.effort = 0.05;
        const fpga::CompileResult result = fpga::compile(*em, opts);
        ASSERT_TRUE(result.ok) << result.error;
        const fpga::CompileReport& r = result.report;
        ASSERT_FALSE(r.critical_path_names.empty());
        ASSERT_EQ(r.critical_path_names.size(),
                  r.critical_path_arrival_ns.size());
        for (const std::string& name : r.critical_path_names) {
            EXPECT_FALSE(looks_anonymous(name))
                << "anonymous node id on the critical path: " << name;
        }
        // Arrival times are monotone along the path.
        for (size_t i = 1; i < r.critical_path_arrival_ns.size(); ++i) {
            EXPECT_LE(r.critical_path_arrival_ns[i - 1],
                      r.critical_path_arrival_ns[i] + 1e-9);
        }
    }
}

TEST(Provenance, FabricActivityAggregatesBySource)
{
    auto em = elaborate_src(kPowLikeDesign);
    ASSERT_NE(em, nullptr);
    Diagnostics diags;
    auto nl = fpga::synthesize(*em, &diags);
    ASSERT_NE(nl, nullptr) << diags.str();
    fpga::Bitstream fabric(
        std::shared_ptr<const fpga::Netlist>(std::move(nl)));

    // Profiling off: stepping collects nothing per node.
    fabric.set_input("clk", BitVector(1, 0));
    fabric.set_input("nonce", BitVector(32, 0x1234));
    fabric.step();
    EXPECT_TRUE(fabric.activity_by_source().empty());

    fabric.set_profiling(true);
    for (int cycle = 0; cycle < 8; ++cycle) {
        fabric.set_input("clk", BitVector(1, cycle & 1));
        fabric.step();
    }
    const auto activity = fabric.activity_by_source();
    ASSERT_FALSE(activity.empty());
    uint64_t evals = 0;
    for (const auto& [source, act] : activity) {
        EXPECT_NE(source, "(unattributed)");
        EXPECT_GE(act.evals, act.toggles);
        evals += act.evals;
    }
    EXPECT_GT(evals, 0u);
    // The registered destinations latched: latch counts are always on.
    EXPECT_GT(fabric.latch_count("state"), 0u);
}

TEST(Profile, ProfileJsonExactBytes)
{
    // Trigger counts are exact with profiling off (eval_ns stays 0), so
    // the whole document is fixed for a fixed run.
    Runtime rt(sw_only());
    rt.on_output = [](const std::string&) {};
    ASSERT_TRUE(rt.eval(kCounterDesign));
    ASSERT_TRUE(rt.eval("reg [7:0] twice = 0;\n"
                        "always @(cnt) twice = cnt + cnt;\n"));
    rt.run_for_ticks(5);
    EXPECT_EQ(rt.profiler().profile_json(),
              R"j({"schema":"cascade.profile.v1","profiling":false,)j"
              R"j("location":"Software","virtual_ticks":5,)j"
              R"j("entries":[{"instance":"root","kind":"comb",)j"
              R"j("label":"always @(cnt) twice = (cnt + cnt)",)j"
              R"j("key":"always @(cnt)\n  twice = (cnt + cnt);\n",)j"
              R"j("triggers":[],"sw_triggers":6,"hw_triggers":0,)j"
              R"j("total_triggers":6,"eval_ns":0},{"instance":"root",)j"
              R"j("kind":"seq",)j"
              R"j("label":"always @(posedge clk_val) cnt <= (cnt + 1)",)j"
              R"j("key":"always @(posedge clk_val)\n  cnt <= (cnt + 1);\n")j"
              R"j(,"triggers":["posedge clk_val"],"sw_triggers":5,)j"
              R"j("hw_triggers":0,"total_triggers":5,"eval_ns":0}]})j");
}

} // namespace
} // namespace cascade
