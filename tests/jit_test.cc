/// \file
/// Differential tests for the native-code JIT tier. The contract under
/// test: a JitKernel is byte-identical to the Bitstream interpreter (and
/// hence to the reference simulator) for every observable — outputs,
/// register state, memory contents, latch counters — across random
/// designs, random stimulus, wide datapaths, and derived clock domains.
/// The runtime-level tests then pin the three-tier ladder: adoption from
/// software, eviction back out, $monitor/VCD continuity, and replay.
///
/// Every test degrades to GTEST_SKIP when no system compiler is usable
/// (the same condition under which the runtime journals jit.unavailable).

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <dlfcn.h>
#include <signal.h>
#include <elf.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "fpga/bitstream.h"
#include "fpga/synth.h"
#include "fpga/word_ops.h"
#include "ir/hw_wrapper.h"
#include "jit/codegen.h"
#include "jit/jit_cache.h"
#include "jit/jit_kernel.h"
#include "runtime/events.h"
#include "runtime/hw_engine.h"
#include "runtime/replay.h"
#include "runtime/runtime.h"
#include "sim/interpreter.h"
#include "verilog/parser.h"
#include "workloads/workloads.h"

namespace cascade {
namespace {

using namespace verilog;

std::shared_ptr<const fpga::Netlist>
synth(const std::string& src)
{
    Diagnostics diags;
    SourceUnit unit = parse(src, &diags);
    EXPECT_FALSE(diags.has_errors()) << diags.str() << "\n" << src;
    if (diags.has_errors() || unit.modules.empty()) {
        return nullptr;
    }
    Elaborator elab(&diags);
    std::shared_ptr<const ElaboratedModule> em(
        elab.elaborate(*unit.modules[0]));
    EXPECT_NE(em, nullptr) << diags.str();
    if (em == nullptr) {
        return nullptr;
    }
    auto nl = fpga::synthesize(*em, &diags);
    EXPECT_NE(nl, nullptr) << diags.str();
    return std::shared_ptr<const fpga::Netlist>(std::move(nl));
}

std::unique_ptr<jit::JitKernel>
make_kernel(std::shared_ptr<const fpga::Netlist> nl)
{
    std::string error;
    auto k = jit::JitKernel::create(std::move(nl), &error);
    EXPECT_NE(k, nullptr) << error;
    return k;
}

/// Drives \p hw and \p kern in lockstep for \p cycles device cycles with
/// seeded random stimulus on \p in_ports and asserts every output, every
/// register, and every latch counter match after each cycle.
void
lockstep(fpga::Bitstream* hw, jit::JitKernel* kern,
         const std::vector<std::pair<std::string, uint32_t>>& in_ports,
         uint64_t seed, int cycles)
{
    const fpga::Netlist& nl = hw->netlist();
    std::mt19937_64 rng(seed);
    hw->eval_comb();
    kern->eval_comb();
    for (int c = 0; c < cycles; ++c) {
        for (const auto& [name, width] : in_ports) {
            BitVector v(width, 0);
            for (uint32_t w = 0; w < v.num_words(); ++w) {
                v.set_word(w, rng());
            }
            hw->set_input(name, v);
            kern->set_input(name, v);
        }
        hw->eval_comb();
        kern->eval_comb();
        hw->set_input("clk", BitVector(1, 1));
        kern->set_input("clk", BitVector(1, 1));
        hw->step();
        kern->step();
        hw->set_input("clk", BitVector(1, 0));
        kern->set_input("clk", BitVector(1, 0));
        hw->step();
        kern->step();
        ASSERT_EQ(hw->cycles(), kern->cycles());
        for (const auto& out : nl.outputs) {
            ASSERT_EQ(hw->output(out.name), kern->output(out.name))
                << "cycle " << c << " output " << out.name;
        }
        for (const auto& reg : nl.regs) {
            ASSERT_EQ(hw->reg_value(reg.name), kern->reg_value(reg.name))
                << "cycle " << c << " reg " << reg.name;
            ASSERT_EQ(hw->latch_count(reg.name), kern->latch_count(reg.name))
                << "cycle " << c << " latches of " << reg.name;
        }
        for (const auto& mem : nl.mems) {
            for (uint64_t i = 0; i < mem.size; ++i) {
                ASSERT_EQ(hw->mem_value(mem.name, i),
                          kern->mem_value(mem.name, i))
                    << "cycle " << c << " " << mem.name << "[" << i << "]";
            }
        }
    }
}

#define REQUIRE_JIT()                                                       \
    do {                                                                    \
        if (!jit::compiler_available()) {                                   \
            GTEST_SKIP() << "no system compiler; JIT tier unavailable";     \
        }                                                                   \
    } while (0)

// ---------------------------------------------------------------------------
// Codegen-level differentials: JitKernel vs Bitstream on the same netlist.
// ---------------------------------------------------------------------------

TEST(JitKernel, CounterMatchesBitstream)
{
    REQUIRE_JIT();
    auto nl = synth("module C(input wire clk, input wire rst,\n"
                    "         output wire [31:0] q);\n"
                    "  reg [31:0] n = 0;\n"
                    "  always @(posedge clk)\n"
                    "    if (rst) n <= 0; else n <= n + 1;\n"
                    "  assign q = n;\n"
                    "endmodule\n");
    ASSERT_NE(nl, nullptr);
    fpga::Bitstream hw(nl);
    auto kern = make_kernel(nl);
    ASSERT_NE(kern, nullptr);
    lockstep(&hw, kern.get(), {{"rst", 1}}, 7, 50);
}

TEST(JitKernel, WideDatapathMatchesBitstream)
{
    REQUIRE_JIT();
    // >64-bit arithmetic exercises the wide-op helper library: add, sub,
    // mul, shifts with variable amounts, compares, reductions, concat,
    // slices, and sign handling all above word granularity.
    auto nl = synth(
        "module W(input wire clk, input wire [127:0] a,\n"
        "         input wire [127:0] b, input wire [6:0] s,\n"
        "         output wire [127:0] o0, output wire [127:0] o1,\n"
        "         output wire [127:0] o2, output wire [0:0] o3,\n"
        "         output wire [63:0] o4, output wire [127:0] o5);\n"
        "  reg [127:0] acc = 128'd3;\n"
        "  always @(posedge clk) acc <= acc + (a ^ b);\n"
        "  assign o0 = (a + b) - (a & b);\n"
        "  assign o1 = a * b;\n"
        "  assign o2 = (a << s) | (b >> s);\n"
        "  assign o3 = (a < b) ^ (&a) ^ (^b) ^ (|acc);\n"
        "  assign o4 = acc[95:32];\n"
        "  assign o5 = {a[31:0], b[127:64], acc[31:0]};\n"
        "endmodule\n");
    ASSERT_NE(nl, nullptr);
    fpga::Bitstream hw(nl);
    auto kern = make_kernel(nl);
    ASSERT_NE(kern, nullptr);
    lockstep(&hw, kern.get(), {{"a", 128}, {"b", 128}, {"s", 7}}, 11, 40);
}

TEST(JitKernel, SignedAndDivisionMatchBitstream)
{
    REQUIRE_JIT();
    auto nl = synth(
        "module S(input wire clk, input wire [15:0] a,\n"
        "         input wire [15:0] b,\n"
        "         output wire [15:0] q, output wire [15:0] r,\n"
        "         output wire [0:0] lt, output wire [15:0] sh);\n"
        "  assign q = a / (b | 16'd1);\n"
        "  assign r = a % (b | 16'd1);\n"
        "  assign lt = ($signed(a) < $signed(b));\n"
        "  assign sh = $signed(a) >>> b[3:0];\n"
        "endmodule\n");
    ASSERT_NE(nl, nullptr);
    fpga::Bitstream hw(nl);
    auto kern = make_kernel(nl);
    ASSERT_NE(kern, nullptr);
    lockstep(&hw, kern.get(), {{"a", 16}, {"b", 16}}, 13, 60);
}

TEST(JitKernel, MemoryMatchesBitstream)
{
    REQUIRE_JIT();
    auto nl = synth(
        "module M(input wire clk, input wire we, input wire [3:0] wa,\n"
        "         input wire [3:0] ra, input wire [7:0] wd,\n"
        "         output wire [7:0] rd);\n"
        "  reg [7:0] mem [0:15];\n"
        "  always @(posedge clk) if (we) mem[wa] <= wd;\n"
        "  assign rd = mem[ra];\n"
        "endmodule\n");
    ASSERT_NE(nl, nullptr);
    fpga::Bitstream hw(nl);
    auto kern = make_kernel(nl);
    ASSERT_NE(kern, nullptr);
    lockstep(&hw, kern.get(),
             {{"we", 1}, {"wa", 4}, {"ra", 4}, {"wd", 8}}, 17, 60);
}

TEST(JitKernel, DerivedClockDomainMatchesBitstream)
{
    REQUIRE_JIT();
    // A register clocked by another register exercises the cascading
    // latch iteration in step(): tick rises while the device clock is
    // being committed, so s latches on a later iteration of the same
    // step.
    auto nl = synth(
        "module D(input wire clk, input wire [7:0] a,\n"
        "         output wire [7:0] fast, output wire [7:0] slow);\n"
        "  reg tick = 0;\n"
        "  reg [7:0] s = 0;\n"
        "  always @(posedge clk) tick <= ~tick;\n"
        "  always @(posedge tick) s <= s + a;\n"
        "  assign fast = {7'd0, tick};\n"
        "  assign slow = s;\n"
        "endmodule\n");
    ASSERT_NE(nl, nullptr);
    fpga::Bitstream hw(nl);
    auto kern = make_kernel(nl);
    ASSERT_NE(kern, nullptr);
    lockstep(&hw, kern.get(), {{"a", 8}}, 19, 80);
}

TEST(JitKernel, BlockLocalValuesReachEveryOutsideReader)
{
    REQUIRE_JIT();
    // A one-word value whose readers all sit later in its gated block is
    // a local of its eval_N; every other value must still be stored to
    // V. x is read by a later eval_N (the end of a chain of more than
    // 256 nodes), by step() (the next value of s) and by get_output.
    // Other values are read by step() alone: the derived clock gclk, r's
    // next value and the write port's address and data.
    std::ostringstream src;
    src << "module L(input wire clk, input wire clk2, input wire en,\n"
           "         input wire [31:0] a, input wire [31:0] b,\n"
           "         output wire [31:0] x_out, output wire [31:0] q);\n"
           "  wire gclk;\n"
           "  wire [31:0] x;\n"
           "  reg [31:0] r = 1;\n"
           "  reg [31:0] s = 2;\n"
           "  reg [31:0] mem [0:15];\n"
           "  assign gclk = clk2 & en;\n"
           "  assign x = (a ^ b) + 32'h9e3779b9;\n"
           "  wire [31:0] c0;\n"
           "  assign c0 = x ^ r;\n";
    constexpr int kChain = 64;
    for (int i = 1; i <= kChain; ++i) {
        src << "  wire [31:0] c" << i << ";\n  assign c" << i << " = (c"
            << (i - 1) << " + 32'd" << 2654435761u * i << ") ^ {c"
            << (i - 1) << "[30:0], c" << (i - 1) << "[31]};\n";
    }
    src << "  always @(posedge clk) begin\n"
           "    r <= c" << kChain << " ^ x;\n"
           "    mem[a[3:0]] <= a - b;\n"
           "  end\n"
           "  always @(posedge gclk) s <= x;\n"
           "  assign x_out = x;\n"
           "  assign q = s ^ r ^ mem[b[3:0]];\n"
           "endmodule\n";
    auto nl = synth(src.str());
    ASSERT_NE(nl, nullptr);

    // The design has the shape the test needs: x is stored by one eval_N
    // and read by another, and step() reads it.
    const std::vector<std::string> units = jit::generate_units(*nl);
    ASSERT_GE(units.size(), 4u); // the ABI unit, step() and two eval_N
    const auto x_out =
        std::find_if(nl->outputs.begin(), nl->outputs.end(),
                     [](const fpga::PortDef& p) { return p.name == "x_out"; });
    ASSERT_NE(x_out, nl->outputs.end());
    const uint32_t x = x_out->node;
    const std::string x_word =
        "V[" + std::to_string(fpga::compute_layout(*nl).voff[x]) + "]";
    size_t evals_with_x = 0;
    for (size_t k = 2; k < units.size(); ++k) {
        evals_with_x += units[k].find(x_word) != std::string::npos;
    }
    EXPECT_GE(evals_with_x, 2u);
    EXPECT_NE(units[1].find(x_word), std::string::npos);

    fpga::Bitstream hw(nl);
    auto kern = make_kernel(nl);
    ASSERT_NE(kern, nullptr);
    lockstep(&hw, kern.get(),
             {{"clk2", 1}, {"en", 1}, {"a", 32}, {"b", 32}}, 23, 200);
}

TEST(JitKernel, StateInjectionRoundTrips)
{
    REQUIRE_JIT();
    // set_reg / set_mem are the adoption path: state captured from a
    // software engine must land bit-exactly, including width clamping.
    auto nl = synth(
        "module R(input wire clk, input wire [3:0] ra,\n"
        "         output wire [66:0] q, output wire [7:0] rd);\n"
        "  reg [66:0] r = 0;\n"
        "  reg [7:0] mem [0:15];\n"
        "  always @(posedge clk) r <= r + 67'd1;\n"
        "  assign q = r;\n"
        "  assign rd = mem[ra];\n"
        "endmodule\n");
    ASSERT_NE(nl, nullptr);
    fpga::Bitstream hw(nl);
    auto kern = make_kernel(nl);
    ASSERT_NE(kern, nullptr);

    BitVector wide(128, 0);
    wide.set_word(0, 0xDEADBEEFCAFEF00Dull);
    wide.set_word(1, 0xFFFFFFFFFFFFFFFFull); // clamped to 67 bits

    // Each evaluator against BitVector::resized, not only against the
    // other: both run the same FabricExec accessors, so a lockstep alone
    // misses a fault in them. A wider value is clamped, a narrower one
    // zero-extends, for registers, memory elements and input ports.
    const BitVector narrow(8, 0xA5);
    const BitVector wide_elem(16, 0xBEEF);
    const BitVector narrow_elem(4, 0x9);
    for (fpga::FabricExec* e : {static_cast<fpga::FabricExec*>(&hw),
                                static_cast<fpga::FabricExec*>(kern.get())}) {
        const char* who = e == &hw ? "bitstream" : "kernel";
        e->set_reg("r", wide);
        e->eval_comb();
        EXPECT_EQ(e->reg_value("r"), wide.resized(67)) << who;
        EXPECT_EQ(e->output("q"), wide.resized(67)) << who;
        e->set_reg("r", narrow);
        e->eval_comb();
        EXPECT_EQ(e->reg_value("r"), narrow.resized(67)) << who;
        EXPECT_EQ(e->output("q"), narrow.resized(67)) << who;

        e->set_mem("mem", 5, wide_elem);
        e->set_mem("mem", 6, narrow_elem);
        EXPECT_EQ(e->mem_value("mem", 5), wide_elem.resized(8)) << who;
        EXPECT_EQ(e->mem_value("mem", 6), narrow_elem.resized(8)) << who;
        e->set_input("ra", BitVector(8, 0xF5)); // clamped to 5
        e->eval_comb();
        EXPECT_EQ(e->output("rd"), wide_elem.resized(8)) << who;
        e->set_input("ra", BitVector(3, 6));
        e->eval_comb();
        EXPECT_EQ(e->output("rd"), narrow_elem.resized(8)) << who;
    }

    hw.set_reg("r", wide);
    kern->set_reg("r", wide);
    ASSERT_EQ(hw.reg_value("r"), kern->reg_value("r"));

    for (uint64_t i = 0; i < 16; ++i) {
        const BitVector v(8, 0x30 + i);
        hw.set_mem("mem", i, v);
        kern->set_mem("mem", i, v);
    }
    lockstep(&hw, kern.get(), {{"ra", 4}}, 23, 40);
}

// ---------------------------------------------------------------------------
// Domain gating: both evaluators settle only the nodes whose source domain
// changed. Each test drives them in lockstep with an ungated reference, a
// Bitstream with profiling on (its profiled pass settles every node), and
// calls every state-writing entry point between steps, so a write that
// fails to mark its domain dirty leaves a stale node the reference exposes.
// ---------------------------------------------------------------------------

class GatedLockstep {
  public:
    explicit GatedLockstep(std::shared_ptr<const fpga::Netlist> nl)
        : nl_(nl), ref_(nl), gated_(nl), kern_(make_kernel(nl))
    {
        ref_.set_profiling(true);
    }

    bool ready() const { return kern_ != nullptr; }

    template <typename Fn>
    void each(Fn fn)
    {
        for (fpga::FabricExec* e :
             {static_cast<fpga::FabricExec*>(&ref_),
              static_cast<fpga::FabricExec*>(&gated_),
              static_cast<fpga::FabricExec*>(kern_.get())}) {
            fn(*e);
        }
    }
    void set_input(const std::string& name, const BitVector& v)
    {
        each([&](fpga::FabricExec& e) { e.set_input(name, v); });
    }
    void eval() { each([](fpga::FabricExec& e) { e.eval_comb(); }); }
    void step() { each([](fpga::FabricExec& e) { e.step(); }); }
    /// One clock period on input "clk": rise, then fall.
    void clock()
    {
        set_input("clk", BitVector(1, 1));
        step();
        set_input("clk", BitVector(1, 0));
        step();
    }

    /// Every output, register, latch count and memory word of both gated
    /// evaluators equals the reference's.
    void check(const std::string& when)
    {
        for (const fpga::FabricExec* e :
             {static_cast<const fpga::FabricExec*>(&gated_),
              static_cast<const fpga::FabricExec*>(kern_.get())}) {
            const char* who = e == &gated_ ? "bitstream" : "kernel";
            for (const auto& out : nl_->outputs) {
                ASSERT_EQ(ref_.output(out.name), e->output(out.name))
                    << who << " output " << out.name << " after " << when;
                ASSERT_EQ(ref_.output(out.name).word(0),
                          e->output_word(e->output_index(out.name)))
                    << who << " raw output " << out.name << " after "
                    << when;
            }
            for (const auto& reg : nl_->regs) {
                ASSERT_EQ(ref_.reg_value(reg.name), e->reg_value(reg.name))
                    << who << " reg " << reg.name << " after " << when;
                ASSERT_EQ(ref_.latch_count(reg.name),
                          e->latch_count(reg.name))
                    << who << " latches of " << reg.name << " after "
                    << when;
            }
            for (const auto& mem : nl_->mems) {
                for (uint64_t i = 0; i < mem.size; ++i) {
                    ASSERT_EQ(ref_.mem_value(mem.name, i),
                              e->mem_value(mem.name, i))
                        << who << " " << mem.name << "[" << i << "] after "
                        << when;
                }
            }
        }
    }

  private:
    std::shared_ptr<const fpga::Netlist> nl_;
    fpga::Bitstream ref_;
    fpga::Bitstream gated_;
    std::unique_ptr<jit::JitKernel> kern_;
};

/// clk drives cnt and tick; tick (a derived clock) drives slow and the
/// memory's write port; hold is a kNoClock register. The memory is read
/// at an input address and at cnt's low bits (the clk domain).
std::shared_ptr<const fpga::Netlist>
gating_netlist()
{
    auto nl = std::make_shared<fpga::Netlist>();
    fpga::NetlistBuilder b(nl.get());
    const uint32_t clk = b.input("clk", 1);
    const uint32_t en = b.input("en", 1);
    const uint32_t a = b.input("a", 8);
    const uint32_t ra = b.input("ra", 4);
    const uint32_t wa = b.input("wa", 4);
    const uint32_t we = b.input("we", 1);

    const uint32_t cnt = b.reg("cnt", 8, BitVector(8, 1));
    b.set_reg_next(0,
                   b.mux(en, b.make(fpga::Op::Add, 8,
                                    {cnt, b.constant(8, 1)}),
                         cnt),
                   clk);
    const uint32_t tick = b.reg("tick", 1, BitVector(1, 0));
    b.set_reg_next(1, b.make(fpga::Op::Not, 1, {tick}), clk);
    const uint32_t slow = b.reg("slow", 8, BitVector(8, 0));
    b.set_reg_next(2, b.make(fpga::Op::Add, 8, {slow, a}), tick);
    const uint32_t hold = b.reg("hold", 8, BitVector(8, 3));

    const uint32_t mem = b.memory("mem", 8, 16);
    b.mem_write(mem, wa, b.make(fpga::Op::Xor, 8, {slow, a}), we, tick);

    b.output("cnt_o", cnt);
    b.output("slow_o", slow);
    b.output("hold_o", hold);
    b.output("hold_plus", b.make(fpga::Op::Add, 8, {hold, cnt}));
    b.output("rd_in", b.mem_read(mem, ra, 8));
    b.output("rd_cnt", b.mem_read(mem, b.slice(cnt, 0, 4), 8));
    b.output("mix", b.make(fpga::Op::Xor, 8, {cnt, a}));
    return nl;
}

TEST(JitGating, StateWritesBetweenStepsMatchUngatedReference)
{
    REQUIRE_JIT();
    GatedLockstep g(gating_netlist());
    ASSERT_TRUE(g.ready());
    g.check("construction");
    std::mt19937_64 rng(29);
    for (int c = 0; c < 80; ++c) {
        const std::string at = "cycle " + std::to_string(c) + ": ";
        const BitVector ra(4, rng());
        const BitVector a(8, rng());
        g.set_input("en", BitVector(1, rng() % 4 != 0));
        g.set_input("a", a);
        g.set_input("ra", ra);
        // Half the writes land on the address read through an input, so
        // a write is the only change that address's read sees.
        g.set_input("wa", rng() % 2 ? ra : BitVector(4, rng()));
        g.set_input("we", BitVector(1, rng() % 3 != 0));
        g.eval();
        ASSERT_NO_FATAL_FAILURE(g.check(at + "inputs"));
        g.clock();
        ASSERT_NO_FATAL_FAILURE(g.check(at + "clock"));

        // State writes with every input left as it is: a wider register
        // value, a narrower one and a wider memory element.
        const BitVector cnt(12, rng());
        g.each([&](fpga::FabricExec& e) { e.set_reg("cnt", cnt); });
        g.eval();
        ASSERT_NO_FATAL_FAILURE(g.check(at + "set_reg cnt"));
        const BitVector hold(5, rng());
        g.each([&](fpga::FabricExec& e) { e.set_reg("hold", hold); });
        g.eval();
        ASSERT_NO_FATAL_FAILURE(g.check(at + "set_reg of a kNoClock reg"));
        const uint64_t read_at = c % 2 ? ra.to_uint64() : cnt.to_uint64() % 16;
        const BitVector word(16, rng());
        g.each([&](fpga::FabricExec& e) { e.set_mem("mem", read_at, word); });
        g.eval();
        ASSERT_NO_FATAL_FAILURE(g.check(at + "set_mem"));
        g.each([&](fpga::FabricExec& e) {
            EXPECT_EQ(e.mem_value("mem", read_at), word.resized(8)) << at;
        });
        // A span ending at the address read through cnt or ra, with
        // bits above the element width that the write drops.
        const uint64_t span[3] = {rng(), rng(), rng()};
        const uint64_t first = read_at >= 2 ? read_at - 2 : read_at;
        g.each([&](fpga::FabricExec& e) {
            e.write_mem(e.mem_index("mem"), first, span, 3);
        });
        g.eval();
        ASSERT_NO_FATAL_FAILURE(g.check(at + "write_mem span"));
        // Each evaluator against the masked span too: the lockstep alone
        // compares evaluators that share their accessors.
        const char* read_out = c % 2 ? "rd_in" : "rd_cnt";
        g.each([&](fpga::FabricExec& e) {
            for (uint64_t k = 0; k < 3; ++k) {
                EXPECT_EQ(e.mem_value("mem", first + k),
                          BitVector(8, span[k] & 0xff))
                    << at << "write_mem element " << first + k;
            }
            EXPECT_EQ(e.output(read_out),
                      BitVector(8, span[read_at - first] & 0xff))
                << at << read_out << " after write_mem";
            EXPECT_EQ(e.reg_value("cnt"), cnt.resized(8)) << at;
            EXPECT_EQ(e.reg_value("hold"), hold.resized(8)) << at;
            EXPECT_EQ(e.output("hold_o"), hold.resized(8)) << at;
        });

        // Rewriting an input with its current value, also through high
        // bits the port width drops, changes nothing.
        g.set_input("a", a);
        g.set_input("a", BitVector(16, 0xab00 | a.to_uint64()));
        g.each([&](fpga::FabricExec& e) {
            e.set_input_word(e.input_index("a"), 0xab00 | a.to_uint64());
        });
        g.eval();
        ASSERT_NO_FATAL_FAILURE(g.check(at + "same-value set_input"));
        // A raw-word input write that changes the value.
        g.each([&](fpga::FabricExec& e) {
            e.set_input_word(e.input_index("ra"), ~ra.to_uint64());
        });
        g.eval();
        ASSERT_NO_FATAL_FAILURE(g.check(at + "set_input_word ra"));
        // A raw-word write whose bits above the port width drop, to an
        // address of the span, which rd_in must then read.
        const uint64_t in_span = first + rng() % 3;
        g.each([&](fpga::FabricExec& e) {
            e.set_input_word(e.input_index("ra"), ~uint64_t{15} | in_span);
        });
        g.eval();
        ASSERT_NO_FATAL_FAILURE(g.check(at + "set_input_word into the span"));
        g.each([&](fpga::FabricExec& e) {
            EXPECT_EQ(e.output("rd_in"),
                      BitVector(8, span[in_span - first] & 0xff))
                << at << "rd_in after set_input_word " << in_span;
        });
        g.clock();
        ASSERT_NO_FATAL_FAILURE(g.check(at + "clock after state writes"));
    }
}

TEST(JitGating, MoreThan62ClockDomainsShareABit)
{
    REQUIRE_JIT();
    // 70 registers, each latched by its own bit of input c: the domains
    // past the 62nd share bit 62.
    constexpr uint32_t kRegs = 70;
    auto nl = std::make_shared<fpga::Netlist>();
    fpga::NetlistBuilder b(nl.get());
    const uint32_t c = b.input("c", kRegs);
    const uint32_t d = b.input("d", 8);
    uint32_t all = b.constant(8, 0);
    for (uint32_t i = 0; i < kRegs; ++i) {
        char name[8];
        std::snprintf(name, sizeof name, "r%u", i);
        const uint32_t q = b.reg(name, 8, BitVector(8, i));
        b.set_reg_next(i,
                       b.make(fpga::Op::Add, 8,
                              {q, b.make(fpga::Op::Xor, 8,
                                         {d, b.constant(8, i + 1)})}),
                       b.slice(c, i, 1));
        b.output(std::string(name) + "_o", q);
        all = b.make(fpga::Op::Xor, 8, {all, q});
    }
    b.output("all", all);
    GatedLockstep g(nl);
    ASSERT_TRUE(g.ready());
    g.check("construction");
    std::mt19937_64 rng(31);
    for (int cycle = 0; cycle < 60; ++cycle) {
        BitVector cv(kRegs, 0);
        cv.set_word(0, rng());
        cv.set_word(1, rng() & 0x3f);
        g.set_input("d", BitVector(8, rng()));
        g.set_input("c", cv);
        g.step();
        ASSERT_NO_FATAL_FAILURE(g.check("cycle " + std::to_string(cycle)));
        char victim[8];
        std::snprintf(victim, sizeof victim, "r%d", 60 + cycle % 10);
        const BitVector v(8, rng());
        g.each([&](fpga::FabricExec& e) { e.set_reg(victim, v); });
        g.eval();
        ASSERT_NO_FATAL_FAILURE(
            g.check(std::string("set_reg ") + victim + " in cycle " +
                    std::to_string(cycle)));
    }
}

// ---------------------------------------------------------------------------
// Bulk FIFO refill: HwEngine::write_mem stores a span straight into the
// fabric's memory. On both evaluators it must leave what the per-word MMIO
// writes it replaces leave, and be charged the same.
// ---------------------------------------------------------------------------

/// Collects an engine's task output.
class TaskText : public runtime::EngineCallbacks {
  public:
    void on_display(const std::string& text) override { text_ += text; }
    void on_write(const std::string& text) override { text_ += text; }
    void on_finish() override { text_ += "$finish\n"; }
    uint64_t virtual_time() const override { return 0; }
    const std::string& text() const { return text_; }

  private:
    std::string text_;
};

TEST(JitHwEngine, SpanRefillMatchesPerWordWrites)
{
    REQUIRE_JIT();
    Diagnostics diags;
    SourceUnit unit = parse(workloads::regex_fifo_module(true), &diags);
    ASSERT_FALSE(diags.has_errors()) << diags.str();
    Elaborator elab(&diags);
    auto em = elab.elaborate(*unit.modules[0]);
    ASSERT_NE(em, nullptr) << diags.str();
    ir::WrapperMap map;
    auto wrapper = ir::generate_hw_wrapper(*em, "clk", &map, &diags);
    ASSERT_NE(wrapper, nullptr) << diags.str();
    auto wrapped = elab.elaborate(*wrapper);
    ASSERT_NE(wrapped, nullptr) << diags.str();
    std::shared_ptr<const fpga::Netlist> nl =
        fpga::synthesize(*wrapped, &diags);
    ASSERT_NE(nl, nullptr) << diags.str();
    const ir::VarSlot* mem = map.find("f__mem");
    const ir::VarSlot* head = map.find("f__head");
    const ir::VarSlot* tail = map.find("f__tail");
    ASSERT_TRUE(mem != nullptr && head != nullptr && tail != nullptr);

    // 20 bytes, two matches, from ring slot 250: the refill wraps the
    // ring index after 6 bytes.
    const std::string text = "GET /ab GET /cde xyz";
    const std::vector<uint64_t> bytes(text.begin(), text.end());
    constexpr uint64_t kFirst = 250;
    const uint64_t run = 256 - kFirst;

    // The profiled bitstream counts every node evaluation, so its span
    // must cost the same evaluations as the per-word writes.
    enum class Fabric { Bitstream, Kernel, ProfiledBitstream };
    for (const Fabric kind :
         {Fabric::Bitstream, Fabric::Kernel, Fabric::ProfiledBitstream}) {
        SCOPED_TRACE(static_cast<int>(kind));
        fpga::FabricExec* fabric_of_last = nullptr;
        const auto engine = [&](TaskText* out) {
            std::unique_ptr<fpga::FabricExec> fabric;
            if (kind == Fabric::Kernel) {
                fabric = make_kernel(nl);
            } else {
                fabric = std::make_unique<fpga::Bitstream>(nl);
            }
            fabric_of_last = fabric.get();
            auto eng = std::make_unique<runtime::HwEngine>(
                std::move(fabric), map,
                std::vector<std::string>{"clk", "nhits"},
                std::vector<bool>{true, false}, out, 50.0, 1e-6);
            eng->set_profiling(kind == Fabric::ProfiledBitstream);
            return eng;
        };
        TaskText word_out, span_out;
        auto per_word = engine(&word_out);
        const fpga::FabricExec* word_fabric = fabric_of_last;
        auto span = engine(&span_out);
        for (runtime::HwEngine* e : {per_word.get(), span.get()}) {
            e->write_var(*head, BitVector(head->width, kFirst));
            e->write_var(*tail, BitVector(tail->width, kFirst));
        }
        for (size_t k = 0; k < bytes.size(); ++k) {
            per_word->write_var(*mem, BitVector(8, bytes[k]),
                                (kFirst + k) % 256);
        }
        // write_mem takes the engine's own slot.
        const ir::VarSlot& span_mem = *span->map().find("f__mem");
        span->write_mem(span_mem, kFirst, bytes.data(), run);
        span->write_mem(span_mem, 0, bytes.data() + run, bytes.size() - run);
        span->write_mem(span_mem, 0, bytes.data(), 0);
        for (runtime::HwEngine* e : {per_word.get(), span.get()}) {
            e->write_var(*tail, BitVector(tail->width, kFirst + bytes.size()));
        }
        // A grant long enough to drain the refill; a match's $display
        // ends it early, so grant again until it runs out.
        for (int grant = 0; grant < 8; ++grant) {
            ASSERT_EQ(per_word->open_loop(64), span->open_loop(64))
                << "grant " << grant;
        }
        EXPECT_EQ(per_word->mmio_transactions(), span->mmio_transactions());
        EXPECT_EQ(per_word->fabric_cycles(), span->fabric_cycles());
        // Every cycle of the per-word path clocks the fabric itself.
        EXPECT_EQ(per_word->fabric_cycles(), word_fabric->cycles());
        EXPECT_EQ(per_word->take_modeled_seconds(),
                  span->take_modeled_seconds());
        EXPECT_EQ(word_out.text(), span_out.text());
        EXPECT_NE(span_out.text().find("match 2"), std::string::npos)
            << span_out.text();
        EXPECT_EQ(per_word->get_state(), span->get_state());
        const auto word_activity = per_word->fabric_activity();
        const auto span_activity = span->fabric_activity();
        ASSERT_EQ(word_activity.size(), span_activity.size());
        for (const auto& [source, act] : word_activity) {
            EXPECT_EQ(act.evals, span_activity.at(source).evals) << source;
            EXPECT_EQ(act.toggles, span_activity.at(source).toggles)
                << source;
        }
        EXPECT_EQ(span->peek("f__head")->to_uint64(),
                  (kFirst + bytes.size()) % 512);
    }
}

TEST(JitHwEngine, SetStateSpanMatchesPerWordRestore)
{
    // set_state restores a memory of at most 64-bit elements in one
    // write_mem span. A profiled Bitstream observes every device cycle,
    // so it takes the per-word MMIO path instead: both must cost the
    // same bus transactions and device cycles and restore the same state.
    // The kernel runs when a compiler exists; the Bitstream pair always.
    Diagnostics diags;
    SourceUnit unit = parse(workloads::regex_fifo_module(true), &diags);
    ASSERT_FALSE(diags.has_errors()) << diags.str();
    Elaborator elab(&diags);
    auto em = elab.elaborate(*unit.modules[0]);
    ASSERT_NE(em, nullptr) << diags.str();
    ir::WrapperMap map;
    auto wrapper = ir::generate_hw_wrapper(*em, "clk", &map, &diags);
    ASSERT_NE(wrapper, nullptr) << diags.str();
    auto wrapped = elab.elaborate(*wrapper);
    ASSERT_NE(wrapped, nullptr) << diags.str();
    std::shared_ptr<const fpga::Netlist> nl =
        fpga::synthesize(*wrapped, &diags);
    ASSERT_NE(nl, nullptr) << diags.str();

    enum class Fabric { Bitstream, Kernel, ProfiledBitstream };
    std::vector<Fabric> kinds = {Fabric::ProfiledBitstream,
                                 Fabric::Bitstream};
    if (jit::compiler_available()) {
        kinds.push_back(Fabric::Kernel);
    }
    std::vector<TaskText> outs(kinds.size());
    std::vector<const fpga::FabricExec*> fabrics;
    std::vector<std::unique_ptr<runtime::HwEngine>> engines;
    for (size_t k = 0; k < kinds.size(); ++k) {
        std::unique_ptr<fpga::FabricExec> fabric;
        if (kinds[k] == Fabric::Kernel) {
            fabric = make_kernel(nl);
            ASSERT_NE(fabric, nullptr);
        } else {
            fabric = std::make_unique<fpga::Bitstream>(nl);
        }
        fabrics.push_back(fabric.get());
        engines.push_back(std::make_unique<runtime::HwEngine>(
            std::move(fabric), map, std::vector<std::string>{"clk", "nhits"},
            std::vector<bool>{true, false}, &outs[k], 50.0, 1e-6));
        engines.back()->set_profiling(kinds[k] ==
                                      Fabric::ProfiledBitstream);
    }

    // A snapshot with a full ring of text and a 20-byte backlog in it.
    sim::StateSnapshot snap = engines[0]->get_state();
    ASSERT_EQ(snap.memories.at("f__mem").size(), 256u);
    const std::string text = "GET /ab GET /cde xyz";
    for (size_t i = 0; i < 256; ++i) {
        snap.memories["f__mem"][i] = BitVector(8, text[i % text.size()]);
    }
    snap.regs["f__head"] = BitVector(9, 250);
    snap.regs["f__tail"] = BitVector(9, 270);

    std::vector<uint64_t> tx, cycles, itrs;
    std::vector<double> modeled_s;
    std::vector<sim::StateSnapshot> restored;
    for (auto& e : engines) {
        e->take_modeled_seconds(); // engines[0] took the snapshot
        const uint64_t tx0 = e->mmio_transactions();
        const uint64_t cycles0 = e->fabric_cycles();
        e->set_state(snap);
        tx.push_back(e->mmio_transactions() - tx0);
        cycles.push_back(e->fabric_cycles() - cycles0);
        restored.push_back(e->get_state());
        itrs.push_back(e->open_loop(64));
        modeled_s.push_back(e->take_modeled_seconds());
    }
    EXPECT_EQ(restored[0].memories.at("f__mem"), snap.memories["f__mem"]);
    EXPECT_EQ(restored[0].regs.at("f__tail"), snap.regs["f__tail"]);
    for (size_t k = 1; k < kinds.size(); ++k) {
        SCOPED_TRACE(static_cast<int>(kinds[k]));
        EXPECT_EQ(tx[k], tx[0]);
        EXPECT_EQ(cycles[k], cycles[0]);
        EXPECT_EQ(restored[k], restored[0]);
        EXPECT_EQ(itrs[k], itrs[0]);
        EXPECT_EQ(outs[k].text(), outs[0].text());
        EXPECT_EQ(modeled_s[k], modeled_s[0]);
    }
    EXPECT_NE(outs[0].text().find("match"), std::string::npos)
        << outs[0].text();
    // The per-word restore clocked the fabric on every bus cycle; the
    // span skipped the two per element of the 256-entry ring.
    EXPECT_EQ(fabrics[0]->cycles(), engines[0]->fabric_cycles());
    EXPECT_EQ(engines[1]->fabric_cycles() - fabrics[1]->cycles(), 2u * 256);
}

// ---------------------------------------------------------------------------
// Tabulated cones: logic that depends on one narrow value is one table
// lookup in the kernel, and must still match the Bitstream bit for bit.
// ---------------------------------------------------------------------------

/// The `key=value` count \p key of the kernel header comment in \p unit.
long
header_count(const std::string& unit, const std::string& key)
{
    const size_t line = unit.find("// nodes=");
    const size_t at = unit.find(" " + key + "=", line);
    if (line == std::string::npos || at == std::string::npos ||
        at > unit.find('\n', line)) {
        return -1;
    }
    return std::stol(unit.substr(at + key.size() + 2));
}

/// A design with a table of every kind: a 64-arm constant case over the
/// 6-bit register round, an 8-bit decode of the input sel, and roots that
/// feed a register's next value (k), a register clock (gclk), a write
/// port's address and enable, outputs, and a node of another base (mix
/// reads a slice of kc). wide is wider than 64 bits, so it is evaluated
/// as before while the narrow slice of it is tabulated. The 9-bit cnt's
/// decode is as large as sel's, but its base is too wide; small's cone
/// drops two nodes for its one root, below the threshold.
std::string
tabulated_module()
{
    std::ostringstream src;
    src << "module T(input wire clk, input wire [7:0] sel,\n"
           "         input wire [3:0] small, input wire [31:0] d,\n"
           "         output wire [31:0] kc_out, output wire [31:0] k_out,\n"
           "         output wire [15:0] dec_out, output wire [7:0] mix_out,\n"
           "         output wire [3:0] small_out, output wire [69:0] wide,\n"
           "         output wire [9:0] wide_top, output wire [31:0] slow_out,\n"
           "         output wire [7:0] rd, output wire [15:0] cnt_out);\n"
           "  reg [5:0] round = 0;\n"
           "  reg [31:0] k = 0;\n"
           "  reg [31:0] slow = 0;\n"
           "  reg [8:0] cnt = 0;\n"
           "  reg [7:0] mem [0:15];\n"
           "  function [31:0] kconst;\n    input [5:0] r;\n"
           "    case (r)\n";
    for (uint32_t i = 0; i < 64; ++i) {
        src << "      6'd" << i << ": kconst = 32'd"
            << (0x9e3779b9u * (i + 1) ^ (i << 7)) << ";\n";
    }
    src << "    endcase\n"
           "  endfunction\n"
           "  function [15:0] dec8;\n    input [7:0] s;\n"
           "    case (s)\n"
           "      8'd0: dec8 = 16'h1;\n"
           "      8'd3: dec8 = 16'h8;\n"
           "      8'd17: dec8 = 16'h40;\n"
           "      8'd99: dec8 = 16'h200;\n"
           "      8'd128: dec8 = 16'h1000;\n"
           "      8'd255: dec8 = 16'h8000;\n"
           "      default: dec8 = {s, s} ^ 16'h5a5a;\n"
           "    endcase\n"
           "  endfunction\n"
           "  function [15:0] dec9;\n    input [8:0] s;\n"
           "    case (s)\n"
           "      9'd0: dec9 = 16'h1;\n"
           "      9'd3: dec9 = 16'h8;\n"
           "      9'd17: dec9 = 16'h40;\n"
           "      9'd99: dec9 = 16'h200;\n"
           "      9'd300: dec9 = 16'h1000;\n"
           "      9'd511: dec9 = 16'h8000;\n"
           "      default: dec9 = {s[7:0], s[7:0]} ^ 16'h5a5a;\n"
           "    endcase\n"
           "  endfunction\n"
           "  wire [31:0] kc;\n"
           "  wire gclk;\n"
           "  wire [7:0] mix;\n"
           "  assign kc = kconst(round);\n"
           "  assign gclk = round[2:0] == 3'd5;\n"
           "  assign mix = kc[11:4] ^ sel;\n"
           "  always @(posedge clk) begin\n"
           "    round <= round + 6'd1;\n"
           "    k <= kconst(round + 6'd7) ^ 32'h5a5a5a5a;\n"
           "    cnt <= cnt + 9'd7;\n"
           "    if (round[1:0] == 2'd2) mem[round[5:2] ^ 4'd9] <= sel;\n"
           "  end\n"
           "  always @(posedge gclk) slow <= slow + d;\n"
           "  assign kc_out = kc;\n"
           "  assign k_out = k;\n"
           "  assign dec_out = dec8(sel);\n"
           "  assign mix_out = mix;\n"
           "  assign small_out = (small ^ 4'd5) + (small >> 1);\n"
           "  assign wide = {round, kc ^ 32'h1, kc};\n"
           "  assign wide_top = wide[69:60];\n"
           "  assign slow_out = slow;\n"
           "  assign rd = mem[small];\n"
           "  assign cnt_out = dec9(cnt);\n"
           "endmodule\n";
    return src.str();
}

/// Module \p src inside the Fig. 10 wrapper (open-loop clock "clk"),
/// synthesized, with its port list in declaration order.
struct Wrapped {
    std::shared_ptr<const fpga::Netlist> netlist;
    ir::WrapperMap map;
    std::vector<std::string> ports;
    std::vector<bool> is_input;
};

Wrapped
wrap_module(const std::string& src)
{
    Wrapped w;
    Diagnostics diags;
    SourceUnit unit = parse(src, &diags);
    Elaborator elab(&diags);
    auto em = diags.has_errors() ? nullptr : elab.elaborate(*unit.modules[0]);
    auto wrapper = em == nullptr
                       ? nullptr
                       : ir::generate_hw_wrapper(*em, "clk", &w.map, &diags);
    auto wrapped = wrapper == nullptr ? nullptr : elab.elaborate(*wrapper);
    if (wrapped != nullptr) {
        w.netlist = fpga::synthesize(*wrapped, &diags);
        for (const auto& p : em->decl->ports) {
            w.ports.push_back(p.name);
            w.is_input.push_back(p.dir == PortDir::Input);
        }
    }
    EXPECT_NE(w.netlist, nullptr) << diags.str();
    return w;
}

TEST(JitKernel, TabulatedConesMatchTheBitstream)
{
    REQUIRE_JIT();
    auto nl = synth(tabulated_module());
    ASSERT_NE(nl, nullptr);

    // The units' shape: the tables the rule builds, and none for small's
    // cone.
    const std::vector<std::string> units = jit::generate_units(*nl);
    EXPECT_EQ(header_count(units[0], "tables"), 10);
    EXPECT_EQ(header_count(units[0], "tabulated"), 670);
    const auto small_out = std::find_if(
        nl->outputs.begin(), nl->outputs.end(),
        [](const fpga::PortDef& p) { return p.name == "small_out"; });
    ASSERT_NE(small_out, nl->outputs.end());
    for (const std::string& u : units) {
        EXPECT_EQ(u.find("T" + std::to_string(small_out->node) + "["),
                  std::string::npos);
    }

    const std::vector<std::pair<std::string, uint32_t>> in = {
        {"sel", 8}, {"small", 4}, {"d", 32}};
    {
        fpga::Bitstream hw(nl);
        auto kern = make_kernel(nl);
        ASSERT_NE(kern, nullptr);
        lockstep(&hw, kern.get(), in, 29, 200);
    }

    // The wrapped design on the hardware engine, 200 design cycles in
    // lockstep; halfway, a fresh kernel takes over through get_state and
    // set_state, the handoff relocation makes.
    const Wrapped w = wrap_module(tabulated_module());
    ASSERT_NE(w.netlist, nullptr);
    EXPECT_GT(header_count(jit::generate_units(*w.netlist)[0], "tables"), 0);
    TaskText hw_out, kern_out;
    const auto engine = [&](std::unique_ptr<fpga::FabricExec> fabric,
                            TaskText* out) {
        return std::make_unique<runtime::HwEngine>(
            std::move(fabric), w.map, w.ports, w.is_input, out, 50.0, 1e-6);
    };
    auto hw = engine(std::make_unique<fpga::Bitstream>(w.netlist), &hw_out);
    auto kern = engine(make_kernel(w.netlist), &kern_out);
    std::mt19937_64 rng(31);
    for (int c = 0; c < 200; ++c) {
        if (c == 100) {
            const sim::StateSnapshot snap = kern->get_state();
            kern = engine(make_kernel(w.netlist), &kern_out);
            kern->set_state(snap);
            ASSERT_EQ(kern->get_state(), snap);
        }
        for (const auto& [name, width] : in) {
            const ir::VarSlot* slot = w.map.find(name);
            ASSERT_NE(slot, nullptr) << name;
            const BitVector v(width, rng());
            hw->write_var(*slot, v);
            kern->write_var(*slot, v);
        }
        ASSERT_EQ(hw->open_loop(2), kern->open_loop(2)) << "cycle " << c;
        ASSERT_EQ(hw->get_state(), kern->get_state()) << "cycle " << c;
        for (size_t p = 0; p < w.ports.size(); ++p) {
            if (!w.is_input[p]) {
                const ir::VarSlot& slot = *w.map.find(w.ports[p]);
                ASSERT_EQ(hw->read_var(slot), kern->read_var(slot))
                    << "cycle " << c << " output " << w.ports[p];
            }
        }
    }

    // The regex matcher's narrow cones are too small to pay for a table,
    // so its kernel keeps the straight-line code it had.
    const Wrapped regex = wrap_module(workloads::regex_fifo_module(true));
    ASSERT_NE(regex.netlist, nullptr);
    const std::string abi = jit::generate_units(*regex.netlist)[0];
    EXPECT_EQ(header_count(abi, "tables"), 0);
    EXPECT_EQ(header_count(abi, "tabulated"), 0);
}

// ---------------------------------------------------------------------------
// Randomized three-way differential: simulator vs Bitstream vs JitKernel.
// ---------------------------------------------------------------------------

std::string
fuzz_module(uint64_t seed)
{
    std::mt19937_64 rng(seed);
    auto pick = [&rng](uint32_t n) {
        return static_cast<uint32_t>(rng() % n);
    };
    std::vector<std::string> leaves = {"a", "b", "c"};
    std::function<std::string(int)> gen = [&](int depth) -> std::string {
        if (depth <= 0 || pick(4) == 0) {
            if (pick(3) == 0) {
                return "8'd" + std::to_string(pick(256));
            }
            return leaves[pick(static_cast<uint32_t>(leaves.size()))];
        }
        switch (pick(11)) {
          case 0: return "(" + gen(depth - 1) + " + " + gen(depth - 1) + ")";
          case 1: return "(" + gen(depth - 1) + " - " + gen(depth - 1) + ")";
          case 2: return "(" + gen(depth - 1) + " * " + gen(depth - 1) + ")";
          case 3: return "(" + gen(depth - 1) + " ^ " + gen(depth - 1) + ")";
          case 4: return "(" + gen(depth - 1) + " & " + gen(depth - 1) + ")";
          case 5: return "(" + gen(depth - 1) + " | " + gen(depth - 1) + ")";
          case 6: return "(~" + gen(depth - 1) + ")";
          case 7:
            return "(" + gen(depth - 1) + " >> " + std::to_string(pick(9)) +
                   ")";
          case 8:
            return "((" + gen(depth - 1) + " < " + gen(depth - 1) + ") ? " +
                   gen(depth - 1) + " : " + gen(depth - 1) + ")";
          case 9:
            return "(" + gen(depth - 1) + " == " + gen(depth - 1) + ")";
          default:
            return "{" + leaves[pick(3)] + "[3:0], " + leaves[pick(3)] +
                   "[7:4]}";
        }
    };
    std::ostringstream src;
    src << "module F(input wire clk, input wire [7:0] a, "
           "input wire [7:0] b, input wire [7:0] c,\n"
           "         output wire [7:0] o0, output wire [7:0] o1);\n";
    // Even seeds add a case with a constant per arm over a narrow slice
    // of r0, which o1 always reads: a table in the kernel.
    std::string table_fn;
    if (seed % 2 == 0) {
        const uint32_t w = 3 + pick(4);
        const uint32_t lsb = pick(9 - w);
        src << "  function [7:0] kf;\n    input [" << (w - 1)
            << ":0] s;\n    case (s)\n";
        for (uint32_t k = 0; k < (1u << w); ++k) {
            if (pick(4) != 0) {
                src << "      " << w << "'d" << k << ": kf = 8'd" << pick(256)
                    << ";\n";
            }
        }
        src << "      default: kf = 8'd" << pick(256)
            << ";\n    endcase\n  endfunction\n";
        table_fn = "kf(r0[" + std::to_string(lsb + w - 1) + ":" +
                   std::to_string(lsb) + "])";
    }
    src << "  wire [7:0] w0;\n  assign w0 = " << gen(3) << ";\n";
    leaves.push_back("w0");
    src << "  reg [7:0] r0 = " << (rng() % 256) << ";\n";
    leaves.push_back("r0");
    if (!table_fn.empty()) {
        leaves.push_back(table_fn);
    }
    src << "  always @(posedge clk) r0 <= " << gen(3) << ";\n";
    src << "  assign o0 = w0 ^ r0;\n";
    src << "  assign o1 = "
        << (table_fn.empty() ? gen(2) : "(" + table_fn + " ^ " + gen(2) + ")")
        << ";\n";
    src << "endmodule\n";
    return src.str();
}

class JitFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JitFuzz, ThreeWayDifferential)
{
    REQUIRE_JIT();
    const std::string src = fuzz_module(GetParam());
    Diagnostics diags;
    SourceUnit unit = parse(src, &diags);
    ASSERT_FALSE(diags.has_errors()) << diags.str() << "\n" << src;
    Elaborator elab(&diags);
    std::shared_ptr<const ElaboratedModule> em(
        elab.elaborate(*unit.modules[0]));
    ASSERT_NE(em, nullptr) << diags.str();
    auto nl_up = fpga::synthesize(*em, &diags);
    ASSERT_NE(nl_up, nullptr) << diags.str();
    std::shared_ptr<const fpga::Netlist> nl(std::move(nl_up));
    if (GetParam() % 2 == 0) {
        EXPECT_GT(header_count(jit::generate_units(*nl)[0], "tables"), 0)
            << src;
    }

    fpga::Bitstream hw(nl);
    auto kern = make_kernel(nl);
    ASSERT_NE(kern, nullptr);

    sim::ModuleInterpreter sw(em, nullptr);
    sw.run_initials();
    auto settle = [&sw] {
        for (int i = 0; i < 64; ++i) {
            sw.evaluate();
            if (!sw.there_are_updates()) {
                return;
            }
            sw.update();
        }
    };
    settle();
    hw.eval_comb();
    kern->eval_comb();

    std::mt19937_64 stim(GetParam() * 131 + 7);
    for (int cycle = 0; cycle < 40; ++cycle) {
        for (const char* in : {"a", "b", "c"}) {
            const BitVector v(8, stim());
            sw.set_input(in, v);
            hw.set_input(in, v);
            kern->set_input(in, v);
        }
        settle();
        hw.eval_comb();
        kern->eval_comb();
        sw.set_input("clk", BitVector(1, 1));
        settle();
        hw.set_input("clk", BitVector(1, 1));
        kern->set_input("clk", BitVector(1, 1));
        hw.step();
        kern->step();
        sw.set_input("clk", BitVector(1, 0));
        settle();
        hw.set_input("clk", BitVector(1, 0));
        kern->set_input("clk", BitVector(1, 0));
        hw.step();
        kern->step();
        for (const char* out : {"o0", "o1"}) {
            ASSERT_EQ(sw.get(out), hw.output(out))
                << "seed " << GetParam() << " cycle " << cycle << " " << out
                << "\n" << src;
            ASSERT_EQ(hw.output(out), kern->output(out))
                << "seed " << GetParam() << " cycle " << cycle << " " << out
                << "\n" << src;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JitFuzz,
                         ::testing::Range<uint64_t>(1, 21));

// ---------------------------------------------------------------------------
// Cache behavior and graceful degradation.
// ---------------------------------------------------------------------------

TEST(JitCache, SecondBuildIsWarm)
{
    REQUIRE_JIT();
    auto nl = synth("module C2(input wire clk, output wire [7:0] q);\n"
                    "  reg [7:0] n = 9;\n"
                    "  always @(posedge clk) n <= n + 3;\n"
                    "  assign q = n;\n"
                    "endmodule\n");
    ASSERT_NE(nl, nullptr);
    std::string err, d1, d2;
    bool hit1 = false, hit2 = false;
    auto k1 = jit::JitKernel::create(nl, &err, &d1, &hit1);
    ASSERT_NE(k1, nullptr) << err;
    auto k2 = jit::JitKernel::create(nl, &err, &d2, &hit2);
    ASSERT_NE(k2, nullptr) << err;
    EXPECT_EQ(d1, d2); // content-addressed: same netlist, same digest
    EXPECT_TRUE(hit2); // second build never re-invokes the compiler

    // The two kernels are independent instances of the same module.
    k1->set_input("clk", BitVector(1, 1));
    k1->step();
    EXPECT_EQ(k1->cycles(), 1u);
    EXPECT_EQ(k2->cycles(), 0u);

    // The generated source is persisted beside the object (CI artifact).
    EXPECT_TRUE(std::ifstream(jit::source_path_for(d1)).good());
}

TEST(JitCache, CompilerIsPartOfTheKey)
{
    REQUIRE_JIT();
    // The same source built by another compiler must not reuse the warm
    // object: a wrapper script is a distinct compiler path that produces
    // a working kernel, so only the cache key tells the two apart.
    auto nl = synth("module C4(input wire clk, output wire [7:0] q);\n"
                    "  reg [7:0] n = 5;\n"
                    "  always @(posedge clk) n <= n + 7;\n"
                    "  assign q = n;\n"
                    "endmodule\n");
    ASSERT_NE(nl, nullptr);
    std::string err, d1, d2, d3;
    bool hit = false;
    auto k1 = jit::JitKernel::create(nl, &err, &d1, &hit);
    ASSERT_NE(k1, nullptr) << err;

    const std::string wrapper =
        (std::filesystem::temp_directory_path() /
         ("cascade_jit_test_cxx" + std::to_string(::getpid())))
            .string();
    {
        std::ofstream f(wrapper);
        f << "#!/bin/sh\nexec '" << jit::find_compiler() << "' \"$@\"\n";
    }
    std::filesystem::permissions(wrapper,
                                 std::filesystem::perms::owner_all);
    ::setenv("CASCADE_JIT_CXX", wrapper.c_str(), 1);
    auto k2 = jit::JitKernel::create(nl, &err, &d2, &hit);
    ::unsetenv("CASCADE_JIT_CXX");
    std::filesystem::remove(wrapper);
    ASSERT_NE(k2, nullptr) << err;
    EXPECT_NE(d1, d2);
    EXPECT_FALSE(hit) << "the other compiler's build reused a warm object";

    auto k3 = jit::JitKernel::create(nl, &err, &d3, &hit);
    ASSERT_NE(k3, nullptr) << err;
    EXPECT_EQ(d1, d3);
    EXPECT_TRUE(hit);
}

TEST(JitCache, BogusCompilerDisablesTier)
{
    auto nl = synth("module C3(input wire clk, output wire [0:0] q);\n"
                    "  reg n = 0;\n"
                    "  always @(posedge clk) n <= ~n;\n"
                    "  assign q = n;\n"
                    "endmodule\n");
    ASSERT_NE(nl, nullptr);
    ::setenv("CASCADE_JIT_CXX", "/nonexistent/cascade-no-such-cxx", 1);
    EXPECT_FALSE(jit::compiler_available());
    std::string err;
    auto k = jit::JitKernel::create(nl, &err);
    EXPECT_EQ(k, nullptr);
    EXPECT_FALSE(err.empty());
    ::unsetenv("CASCADE_JIT_CXX");
}

/// Sets the environment variable \p name to \p value until destroyed,
/// then restores its previous value.
class ScopedEnv {
  public:
    ScopedEnv(const char* name, const std::string& value) : name_(name)
    {
        const char* old = std::getenv(name);
        if (old != nullptr) {
            old_ = old;
        }
        ::setenv(name, value.c_str(), 1);
    }

    ~ScopedEnv()
    {
        if (old_.has_value()) {
            ::setenv(name_, old_->c_str(), 1);
        } else {
            ::unsetenv(name_);
        }
    }

    ScopedEnv(const ScopedEnv&) = delete;
    ScopedEnv& operator=(const ScopedEnv&) = delete;

  private:
    const char* name_;
    std::optional<std::string> old_;
};

/// A fresh, empty directory under the system temp directory.
std::filesystem::path
fresh_dir(const std::string& stem)
{
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        (stem + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/// A chain of \p n 16-bit registers, each folding in its predecessor:
/// about three evaluated nodes per register, so a long chain spans
/// several eval_N units. \p salt makes the constants, hence the kernel,
/// distinct.
std::string
chain_module(const std::string& name, uint32_t salt, int n)
{
    std::ostringstream src;
    src << "module " << name
        << "(input wire clk, input wire [15:0] a, "
           "output wire [15:0] q);\n";
    for (int i = 0; i < n; ++i) {
        src << "  reg [15:0] r" << i << " = 16'd"
            << (salt * (i + 1)) % 65536 << ";\n";
    }
    src << "  always @(posedge clk) begin\n    r0 <= r0 + a;\n";
    for (int i = 1; i < n; ++i) {
        src << "    r" << i << " <= (r" << i << " ^ r" << (i - 1)
            << ") + 16'd" << (salt + 7 * i) % 65536 << ";\n";
    }
    src << "  end\n  assign q = r" << (n - 1) << ";\nendmodule\n";
    return src.str();
}

TEST(JitCache, FailingUnitFailsTheBuildAndLeavesNoObjects)
{
    REQUIRE_JIT();
    // A compiler that fails on one non-ABI unit (unit 2, eval_0) fails
    // the whole build: no kernel, an error that names the log, the
    // unit's stderr in that log, and nothing in the cache but the units
    // and the log. The next build with the real compiler succeeds cold.
    auto nl = synth(chain_module("U", 3, 40));
    ASSERT_NE(nl, nullptr);
    const std::filesystem::path dir = fresh_dir("cascade_jit_fault");
    ScopedEnv cache("CASCADE_JIT_CACHE_DIR", dir.string());
    const std::filesystem::path wrapper =
        dir.parent_path() /
        ("cascade_jit_fail_cxx" + std::to_string(::getpid()));
    {
        std::ofstream f(wrapper);
        f << "#!/bin/sh\n"
             "for a in \"$@\"; do\n"
             "  case \"$a\" in\n"
             "    *.2.cc) echo \"injected failure in $a\" >&2; exit 3 ;;\n"
             "  esac\n"
             "done\n"
             "exec '" << jit::find_compiler() << "' \"$@\"\n";
    }
    std::filesystem::permissions(wrapper,
                                 std::filesystem::perms::owner_all);
    std::string err, digest;
    bool hit = true;
    {
        ScopedEnv cxx("CASCADE_JIT_CXX", wrapper.string());
        EXPECT_EQ(jit::JitKernel::create(nl, &err, &digest, &hit), nullptr);
    }
    std::filesystem::remove(wrapper);
    EXPECT_FALSE(hit);

    const std::string log = (dir / (digest + ".log")).string();
    EXPECT_NE(err.find(log), std::string::npos) << err;
    std::ostringstream text;
    text << std::ifstream(log).rdbuf();
    EXPECT_NE(text.str().find("injected failure in " +
                              (dir / (digest + ".2.cc")).string()),
              std::string::npos)
        << text.str();
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        const std::string ext = entry.path().extension().string();
        EXPECT_TRUE((ext == ".cc" || ext == ".log") &&
                    name.find(".tmp") == std::string::npos)
            << "left behind: " << name;
    }

    std::string d2;
    auto k = jit::JitKernel::create(nl, &err, &d2, &hit);
    ASSERT_NE(k, nullptr) << err;
    EXPECT_FALSE(hit);
    fpga::Bitstream hw(nl);
    lockstep(&hw, k.get(), {{"a", 16}}, 5, 20);
    std::filesystem::remove_all(dir);
}

TEST(JitCache, ConcurrentBuildsMatchBitstreamAndExportOnlyTheAbi)
{
    REQUIRE_JIT();
    // Two threads build distinct multi-unit kernels at once, both cold,
    // so their compiler jobs share the process-wide job slots. Each
    // kernel matches the Bitstream, and its shared object exports the
    // cascade_jit_* ABI but none of the functions its units share and no
    // marshalling entry beyond the State words.
    const std::filesystem::path dir = fresh_dir("cascade_jit_concurrent");
    ScopedEnv cache("CASCADE_JIT_CACHE_DIR", dir.string());
    const std::shared_ptr<const fpga::Netlist> nls[2] = {
        synth(chain_module("P", 11, 120)), synth(chain_module("Q", 12, 120))};
    ASSERT_NE(nls[0], nullptr);
    ASSERT_NE(nls[1], nullptr);
    // The ABI unit, step() and at least two eval_N units.
    ASSERT_GE(jit::generate_units(*nls[0]).size(), 4u);

    std::unique_ptr<jit::JitKernel> kernels[2];
    std::string errs[2];
    bool hits[2] = {true, true};
    std::vector<std::thread> builders;
    for (int i = 0; i < 2; ++i) {
        builders.emplace_back([&, i] {
            kernels[i] =
                jit::JitKernel::create(nls[i], &errs[i], nullptr, &hits[i]);
        });
    }
    for (std::thread& t : builders) {
        t.join();
    }
    for (int i = 0; i < 2; ++i) {
        SCOPED_TRACE("kernel " + std::to_string(i));
        ASSERT_NE(kernels[i], nullptr) << errs[i];
        EXPECT_FALSE(hits[i]);
        fpga::Bitstream hw(nls[i]);
        lockstep(&hw, kernels[i].get(), {{"a", 16}}, 31 + i, 40);

        std::string digest, err;
        bool hit = false;
        const jit::JitModule* m = jit::build_module(
            jit::generate_units(*nls[i]), &digest, &hit, &err);
        ASSERT_NE(m, nullptr) << err;
        EXPECT_TRUE(hit);
        for (const char* entry : {"cascade_jit_step", "cascade_jit_state"}) {
            EXPECT_NE(::dlsym(m->handle, entry), nullptr) << entry;
        }
        // No port, register or memory marshalling entry: the host reaches
        // the State words through cascade_jit_state.
        for (const char* internal :
             {"eval_0", "eval_1", "cascade_jit_set_input",
              "cascade_jit_get_output", "cascade_jit_get_reg",
              "cascade_jit_set_reg", "cascade_jit_get_mem",
              "cascade_jit_set_mem", "cascade_jit_cycles"}) {
            EXPECT_EQ(::dlsym(m->handle, internal), nullptr) << internal;
        }
    }
    std::filesystem::remove_all(dir);
}

TEST(JitCache, CancelKillsTheRunningCompilers)
{
    REQUIRE_JIT();
    // A compiler that records its pid and then hangs: a cancel 100 ms
    // into the build stops every running job, so the build fails at once
    // and leaves no compiler process behind.
    const std::filesystem::path dir = fresh_dir("cascade_jit_cancel");
    ScopedEnv cache("CASCADE_JIT_CACHE_DIR", dir.string());
    const std::filesystem::path pids = dir / "pids";
    const std::filesystem::path wrapper = dir / "hung-cxx";
    {
        std::ofstream f(wrapper);
        f << "#!/bin/sh\necho $$ >> '" << pids.string()
          << "'\nexec sleep 30\n";
    }
    std::filesystem::permissions(wrapper,
                                 std::filesystem::perms::owner_all);
    ScopedEnv cxx("CASCADE_JIT_CXX", wrapper.string());
    auto nl = synth(chain_module("K", 21, 120));
    ASSERT_NE(nl, nullptr);
    const std::vector<std::string> units = jit::generate_units(*nl);
    ASSERT_GE(units.size(), 2u);

    std::atomic<bool> cancel{false};
    const jit::JitModule* m = nullptr;
    std::string err;
    std::chrono::steady_clock::time_point returned;
    std::thread builder([&] {
        m = jit::build_module(units, nullptr, nullptr, &err, &cancel);
        returned = std::chrono::steady_clock::now();
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const auto cancelled = std::chrono::steady_clock::now();
    cancel = true;
    builder.join();
    EXPECT_EQ(m, nullptr);
    EXPECT_LT(std::chrono::duration<double>(returned - cancelled).count(),
              0.5);
    EXPECT_NE(err.find("cancelled"), std::string::npos) << err;

    std::vector<pid_t> started;
    std::ifstream in(pids);
    for (pid_t pid = 0; in >> pid;) {
        started.push_back(pid);
    }
    // Each unit's job started in its own slot.
    EXPECT_GE(started.size(),
              std::min<size_t>(units.size(),
                               std::thread::hardware_concurrency()));
    for (pid_t pid : started) {
        EXPECT_TRUE(::kill(pid, 0) != 0 && errno == ESRCH)
            << "compiler " << pid << " still runs";
    }
    std::filesystem::remove_all(dir);
}

/// The DT_NEEDED entries of the 64-bit ELF shared object at \p path, or
/// nullopt if it has no dynamic section.
std::optional<std::vector<std::string>>
dt_needed(const std::string& path)
{
    std::ifstream f(path, std::ios::binary);
    const std::string img((std::istreambuf_iterator<char>(f)),
                          std::istreambuf_iterator<char>());
    Elf64_Ehdr eh;
    if (img.size() < sizeof eh || img.compare(0, SELFMAG, ELFMAG) != 0 ||
        img[EI_CLASS] != ELFCLASS64) {
        return std::nullopt;
    }
    std::memcpy(&eh, img.data(), sizeof eh);
    const auto section = [&](size_t i) {
        Elf64_Shdr sh;
        std::memcpy(&sh, img.data() + eh.e_shoff + i * sizeof sh,
                    sizeof sh);
        return sh;
    };
    for (size_t i = 0; i < eh.e_shnum; ++i) {
        const Elf64_Shdr dyn = section(i);
        if (dyn.sh_type != SHT_DYNAMIC) {
            continue;
        }
        const Elf64_Shdr strtab = section(dyn.sh_link);
        std::vector<std::string> needed;
        for (size_t at = 0; at + sizeof(Elf64_Dyn) <= dyn.sh_size;
             at += sizeof(Elf64_Dyn)) {
            Elf64_Dyn d;
            std::memcpy(&d, img.data() + dyn.sh_offset + at, sizeof d);
            if (d.d_tag == DT_NEEDED) {
                needed.emplace_back(img.data() + strtab.sh_offset +
                                    d.d_un.d_val);
            }
        }
        return needed;
    }
    return std::nullopt;
}

TEST(JitCache, KernelLinksWithoutTheCxxRuntime)
{
    REQUIRE_JIT();
    // The kernel allocates its State with calloc and links without the
    // C++ runtime: no DT_NEEDED entry of the shared object names
    // libstdc++, and the kernel still runs.
    const std::filesystem::path dir = fresh_dir("cascade_jit_needed");
    ScopedEnv cache("CASCADE_JIT_CACHE_DIR", dir.string());
    auto nl = synth(chain_module("N", 5, 4));
    ASSERT_NE(nl, nullptr);
    std::string err, digest;
    bool hit = true;
    auto k = jit::JitKernel::create(nl, &err, &digest, &hit);
    ASSERT_NE(k, nullptr) << err;
    EXPECT_FALSE(hit);
    const auto needed = dt_needed((dir / (digest + ".so")).string());
    ASSERT_TRUE(needed.has_value());
    for (const std::string& lib : *needed) {
        EXPECT_EQ(lib.find("libstdc++"), std::string::npos) << lib;
    }
    fpga::Bitstream hw(nl);
    lockstep(&hw, k.get(), {{"a", 16}}, 7, 20);
    k.reset();
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Runtime-level ladder tests: interpreter -> JIT -> fabric, with $monitor
// and VCD continuity, record/replay, and graceful degradation.
// ---------------------------------------------------------------------------

std::string
temp_path(const char* name)
{
    return (std::filesystem::temp_directory_path() /
            (std::string("cascade_jit_test_") + name +
             std::to_string(::getpid())))
        .string();
}

std::string
read_file(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/// A VCD file minus its `$date` header line (the only wall-clock-bearing
/// byte in the dump), so two runs of the same ticks compare byte-equal.
std::string
read_vcd_dateless(const std::string& path)
{
    std::string text = read_file(path);
    const size_t at = text.find("$date");
    if (at != std::string::npos) {
        const size_t eol = text.find('\n', at);
        text.erase(at, eol == std::string::npos ? std::string::npos
                                                : eol - at + 1);
    }
    return text;
}

/// Fabric slow, JIT fast: the kernel adopts first, so the middle rung of
/// the ladder is observable before the fabric upgrade races it away.
runtime::Runtime::Options
jit_first()
{
    runtime::Runtime::Options opts;
    opts.enable_hardware = true;
    opts.compile_effort = 3.0; // fabric lands seconds later than the JIT
    opts.open_loop_target_wall_s = 0.02;
    return opts;
}

/// A counter with $display and $monitor: enough observable output that a
/// botched tier handoff changes the printed byte stream.
const char* const kLadderProgram =
    "reg [15:0] n = 0;\n"
    "wire [15:0] h;\n"
    "assign h = (n * 16'h9E37) ^ (n >> 3);\n"
    "always @(posedge clk.val) begin\n"
    "  n <= n + 1;\n"
    "  if (n % 32 == 0) $display(\"n=%d h=%d\", n, h);\n"
    "end\n"
    "initial $monitor(\"mon h=%d\", h[7:0]);\n";

/// Steps until the program reaches the JIT tier (bounded by wall time).
/// The tick count on arrival is not deterministic — a cold on-disk cache
/// lets the interpreter run for the length of a compiler invocation —
/// so callers measure ticks afterwards instead of assuming them.
bool
step_until_jit(runtime::Runtime* rt, double timeout_s = 120.0)
{
    const auto start = std::chrono::steady_clock::now();
    while (rt->user_location() != runtime::Location::Jit) {
        if (rt->telemetry().counter("jit.unavailable")->value() > 0 ||
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                    .count() > timeout_s) {
            return false;
        }
        rt->step();
    }
    return true;
}

TEST(JitRuntime, LadderClimbsSwToJitToFabricByteIdentically)
{
    REQUIRE_JIT();
    std::string out;
    uint64_t total_ticks = 0;
    uint64_t jit_arrival_ticks = 0;
    {
        runtime::Runtime rt(jit_first());
        rt.on_output = [&out](const std::string& s) { out += s; };
        std::string err;
        ASSERT_TRUE(rt.eval(kLadderProgram, &err)) << err;

        // Climb to the middle rung and run there for a while.
        ASSERT_TRUE(step_until_jit(&rt));
        EXPECT_EQ(rt.user_location(), runtime::Location::Jit);
        EXPECT_FALSE(rt.hardware_ready()); // the JIT tier is not the fabric
        jit_arrival_ticks = rt.virtual_ticks();
        rt.run_for_ticks(200);

        // The fabric upgrade discards the kernel; state carries across.
        // (wait_for_hardware polls without advancing virtual time.)
        ASSERT_TRUE(rt.wait_for_hardware(120.0));
        EXPECT_NE(rt.user_location(), runtime::Location::Jit);
        EXPECT_NE(rt.user_location(), runtime::Location::Software);
        EXPECT_GE(rt.telemetry().counter("jit.discarded")->value(), 1u);
        rt.run_for_ticks(200);

        total_ticks = rt.virtual_ticks();
        EXPECT_EQ(total_ticks, jit_arrival_ticks + 400);
        EXPECT_GE(rt.telemetry().counter("jit.adopted")->value(), 1u);
        EXPECT_GE(rt.transitions().size(), 2u); // sw->jit, jit->hw
    }

    // Reference: the same program for the same tick count, interpreter
    // only. The $display/$monitor stream must be byte-identical across
    // both tier transitions.
    std::string ref_out;
    {
        runtime::Runtime::Options opts;
        opts.enable_hardware = false;
        runtime::Runtime rt(opts);
        rt.on_output = [&ref_out](const std::string& s) { ref_out += s; };
        std::string err;
        ASSERT_TRUE(rt.eval(kLadderProgram, &err)) << err;
        rt.run_for_ticks(total_ticks);
    }
    EXPECT_EQ(out, ref_out)
        << "ladder run diverged from interpreter (jit adopted at tick "
        << jit_arrival_ticks << ", total " << total_ticks << ")";
}

TEST(JitRuntime, EachTierLearnsItsOwnOpenLoopBatch)
{
    REQUIRE_JIT();
    // The adaptive batch doubles while grants finish fast. A batch grown
    // on the kernel would run many times longer on the bitstream
    // evaluator, so the fabric starts again from the initial size.
    runtime::Runtime::Options opts = jit_first();
    opts.open_loop_iterations = 256;
    runtime::Runtime rt(opts);
    std::vector<uint64_t> grants;
    rt.journal().add_tap([&grants](const telemetry::Journal::Event& ev) {
        if (ev.type == "openloop.grant") {
            telemetry::JsonValue data;
            ASSERT_TRUE(telemetry::parse_json(ev.data, &data));
            grants.push_back(data.get_u64("batch"));
        }
    });
    std::string err;
    // The Led merges into the user engine, which lets it free-run.
    ASSERT_TRUE(rt.eval("Led#(8) led(); reg [31:0] n = 0;\n"
                        "always @(posedge clk.val) n <= n + 1;\n"
                        "assign led.val = n[7:0];\n",
                        &err))
        << err;
    ASSERT_TRUE(step_until_jit(&rt));
    rt.run(16);
    ASSERT_FALSE(grants.empty());
    EXPECT_GT(grants.back(), opts.open_loop_iterations);

    grants.clear();
    ASSERT_TRUE(rt.wait_for_hardware(120.0));
    rt.run(4);
    ASSERT_FALSE(grants.empty());
    EXPECT_EQ(grants.front(), opts.open_loop_iterations);
}

TEST(JitRuntime, MonitorAndVcdContinuityAcrossJitAdoption)
{
    REQUIRE_JIT();
    const std::string ref_vcd = temp_path("ref.vcd");
    const std::string jit_vcd = temp_path("jit.vcd");

    std::string out;
    uint64_t total_ticks = 0;
    {
        runtime::Runtime rt(jit_first());
        rt.on_output = [&out](const std::string& s) { out += s; };
        std::string err;
        ASSERT_TRUE(rt.eval(kLadderProgram, &err)) << err;
        ASSERT_TRUE(rt.add_probe("n", &err)) << err;
        ASSERT_TRUE(rt.vcd_open(jit_vcd, &err)) << err;
        ASSERT_TRUE(step_until_jit(&rt));
        ASSERT_EQ(rt.user_location(), runtime::Location::Jit);
        rt.run_for_ticks(150);
        total_ticks = rt.virtual_ticks();
        rt.close_vcd();
    }

    std::string ref_out;
    {
        runtime::Runtime::Options opts;
        opts.enable_hardware = false;
        runtime::Runtime rt(opts);
        rt.on_output = [&ref_out](const std::string& s) { ref_out += s; };
        std::string err;
        ASSERT_TRUE(rt.eval(kLadderProgram, &err)) << err;
        ASSERT_TRUE(rt.add_probe("n", &err)) << err;
        ASSERT_TRUE(rt.vcd_open(ref_vcd, &err)) << err;
        rt.run_for_ticks(total_ticks);
        rt.close_vcd();
    }

    // The dump spans the sw -> jit handoff with continuous values: the
    // whole file (virtual timestamps included; only the wall-clock $date
    // header differs) matches the interpreter-only run.
    EXPECT_EQ(read_vcd_dateless(jit_vcd), read_vcd_dateless(ref_vcd));
    EXPECT_EQ(out, ref_out);

    std::filesystem::remove(ref_vcd);
    std::filesystem::remove(jit_vcd);
}

TEST(JitRuntime, ReplayRoundTripPinsJitAdoption)
{
    REQUIRE_JIT();
    const std::string path = temp_path("jit_replay.jsonl");

    std::string recorded;
    // Growth over the recording of each counter an events.h row declares.
    std::map<std::string, uint64_t> counted;
    {
        runtime::Runtime rt(jit_first());
        rt.on_output = [&recorded](const std::string& s) { recorded += s; };
        const auto counter = [&rt](const char* name) {
            return rt.telemetry().counter(name)->value();
        };
        for (const runtime::EventSpec& spec : runtime::kEvents) {
            if (spec.counter != nullptr) {
                counted[spec.type] -= counter(spec.counter);
            }
        }
        std::string err;
        ASSERT_TRUE(rt.start_recording(path, &err)) << err;
        ASSERT_TRUE(rt.eval(kLadderProgram, &err)) << err;
        ASSERT_TRUE(step_until_jit(&rt));
        rt.run_for_ticks(400);
        rt.stop_recording();
        EXPECT_EQ(rt.user_location(), runtime::Location::Jit);
        for (const runtime::EventSpec& spec : runtime::kEvents) {
            if (spec.counter != nullptr) {
                counted[spec.type] += counter(spec.counter);
            }
        }
    }
    ASSERT_FALSE(recorded.empty());

    runtime::ReplayLog log;
    std::string err;
    ASSERT_TRUE(runtime::load_journal(path, &log, &err)) << err;
    // The event table is the whole vocabulary, and a row's counter
    // moves exactly once per event of its kind.
    std::map<std::string, uint64_t> journaled;
    for (const auto& ev : log.events) {
        EXPECT_NE(runtime::find_event(ev.type), nullptr)
            << ev.type << " has no events.h row";
        ++journaled[ev.type];
    }
    for (const auto& [type, n] : counted) {
        EXPECT_EQ(n, journaled[type]) << type;
    }
    bool saw_launch = false, saw_adopt = false;
    for (const auto& ev : log.events) {
        saw_launch |= ev.type == "jit.launch";
        saw_adopt |= ev.type == "jit.adopt";
        if (ev.type == "jit.adopt") {
            // The kernel digest is content-addressed and deterministic,
            // so it is part of the compared payload.
            EXPECT_FALSE(ev.data.get_str("digest", "").empty());
        }
    }
    ASSERT_TRUE(saw_launch);
    ASSERT_TRUE(saw_adopt);

    runtime::Runtime rt2(runtime::options_from_header(log.header));
    std::string replayed;
    rt2.on_output = [&replayed](const std::string& s) { replayed += s; };
    const runtime::ReplayReport report = runtime::replay_into(&rt2, log);
    EXPECT_TRUE(report.ok) << report.summary();
    EXPECT_FALSE(report.diverged) << report.summary();
    EXPECT_EQ(replayed, recorded);
    EXPECT_EQ(rt2.user_location(), runtime::Location::Jit);
    EXPECT_GE(rt2.telemetry().counter("jit.adopted")->value(), 1u);

    std::filesystem::remove(path);
}

TEST(JitRuntime, FifoBacklogGaugeFollowsTheKernelFeed)
{
    REQUIRE_JIT();
    // The fabric fits nothing, so the matcher parks on the kernel with the
    // FIFO merged in: the runtime refills it between open-loop grants.
    runtime::Runtime::Options opts;
    opts.enable_hardware = true;
    opts.device_les = 10;
    opts.open_loop_target_wall_s = 0.02;
    runtime::Runtime rt(opts);
    std::string err;
    ASSERT_TRUE(rt.eval(workloads::regex_stream_source(), &err)) << err;
    ASSERT_TRUE(step_until_jit(&rt));

    // 600 bytes, more than two FIFO depths, with two matches per line.
    std::vector<uint8_t> bytes;
    for (int line = 0; line < 40; ++line) {
        const std::string text = "GET /a GET /bc ";
        bytes.insert(bytes.end(), text.begin(), text.end());
    }
    rt.fifo_push(bytes);
    const telemetry::Gauge* backlog = rt.telemetry().gauge("fifo.backlog");
    EXPECT_EQ(backlog->value(), static_cast<int64_t>(bytes.size()));
    for (int i = 0; i < 10000 && rt.fifo_backlog() > 0; ++i) {
        rt.step();
    }
    ASSERT_EQ(rt.user_location(), runtime::Location::Jit);
    EXPECT_EQ(rt.fifo_backlog(), 0u);
    EXPECT_EQ(backlog->value(), static_cast<int64_t>(rt.fifo_backlog()));
    rt.run_for_ticks(2 * 256);
    EXPECT_EQ(rt.fifo_bytes_consumed(), bytes.size());
    EXPECT_EQ(rt.led_state().to_uint64(), 80u);
}

TEST(JitRuntime, NoCompilerDegradesGracefullyAndJournals)
{
    // No REQUIRE_JIT: this is the no-compiler path itself. The env knob
    // the runtime honors verbatim doubles as the test hook. A warm cache
    // serves kernels without invoking the compiler at all (by design), so
    // this test needs a cold, isolated cache dir AND a program no other
    // test compiled (the in-process registry has no eviction).
    ::setenv("CASCADE_JIT_CXX", "/nonexistent/cascade-no-such-cxx", 1);
    const std::string cache = temp_path("cold_cache");
    std::filesystem::remove_all(cache);
    ::setenv("CASCADE_JIT_CACHE_DIR", cache.c_str(), 1);
    const std::string path = temp_path("jit_unavailable.jsonl");

    runtime::Runtime::Options opts;
    opts.enable_hardware = true;
    opts.compile_effort = 0.05;
    runtime::Runtime rt(opts);
    std::string out;
    rt.on_output = [&out](const std::string& s) { out += s; };
    std::string err;
    ASSERT_TRUE(rt.start_recording(path, &err)) << err;
    // Distinct from kLadderProgram: its kernel is already in the
    // in-process registry from the ladder tests above.
    ASSERT_TRUE(rt.eval("reg [23:0] q = 1;\n"
                        "always @(posedge clk.val)\n"
                        "  q <= {q[22:0], q[23] ^ q[17]};\n",
                        &err))
        << err;

    const auto start = std::chrono::steady_clock::now();
    while (rt.telemetry().counter("jit.unavailable")->value() == 0) {
        rt.step();
        ASSERT_LT(std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count(),
                  60.0)
            << "jit.unavailable never surfaced";
    }
    // The program never left the interpreter for the JIT tier and keeps
    // making progress; the fabric rung still works.
    EXPECT_EQ(rt.telemetry().counter("jit.adopted")->value(), 0u);
    const uint64_t ticks = rt.virtual_ticks();
    rt.run_for_ticks(32);
    EXPECT_EQ(rt.virtual_ticks(), ticks + 32);
    ASSERT_TRUE(rt.wait_for_hardware(60.0));
    rt.stop_recording();

    runtime::ReplayLog log;
    ASSERT_TRUE(runtime::load_journal(path, &log, &err)) << err;
    bool saw_unavailable = false;
    for (const auto& ev : log.events) {
        if (ev.type == "jit.unavailable") {
            saw_unavailable = true;
            // Compared payload: no error text (it carries machine paths).
            EXPECT_EQ(ev.data.get_str("error", ""), "");
        }
    }
    EXPECT_TRUE(saw_unavailable);

    // Replay with the compiler restored: the recorded jit.unavailable is
    // forced verbatim, so the kernel the replay host could now build is
    // never adopted and the session still matches the recording.
    ::unsetenv("CASCADE_JIT_CXX");
    const std::string rerecord = temp_path("jit_unavailable_replay.jsonl");
    runtime::ReplayOptions ropts;
    ropts.record_path = rerecord;
    runtime::Runtime replayed(runtime::options_from_header(log.header));
    const runtime::ReplayReport report =
        runtime::replay_into(&replayed, log, ropts);
    EXPECT_TRUE(report.ok) << report.summary();
    EXPECT_EQ(replayed.telemetry().counter("jit.adopted")->value(), 0u);

    // The forced outcome takes the live path: the same `jit` warning,
    // naming the version (the reason after the colon is the recording's
    // verdict rather than this host's compiler error).
    const auto jit_warnings = [](const runtime::ReplayLog& journal) {
        std::vector<std::string> out;
        for (const auto& ev : journal.events) {
            if (ev.type == "log" && ev.data.get_str("component") == "jit" &&
                ev.data.get_str("level") == "warn") {
                const std::string msg = ev.data.get_str("msg");
                out.push_back(msg.substr(0, msg.find(':')));
            }
        }
        return out;
    };
    runtime::ReplayLog relog;
    ASSERT_TRUE(runtime::load_journal(rerecord, &relog, &err)) << err;
    ASSERT_FALSE(jit_warnings(log).empty());
    EXPECT_EQ(jit_warnings(relog), jit_warnings(log));

    ::unsetenv("CASCADE_JIT_CACHE_DIR");
    std::filesystem::remove(path);
    std::filesystem::remove(rerecord);
    std::filesystem::remove_all(cache);
}


/// A compiler that sleeps 2 s and then runs the real one, over a private
/// cold cache, for the fixture's lifetime: every kernel build then takes
/// seconds, far longer than an eval may. \p stem names the directory
/// that holds both, so each test's kernels are cold in the in-process
/// registry too (the compiler's path is part of a kernel's digest).
class SlowCompiler {
  public:
    explicit SlowCompiler(const std::string& stem)
        : dir_(fresh_dir(stem)), cache_("CASCADE_JIT_CACHE_DIR", dir_.string()),
          cxx_("CASCADE_JIT_CXX", write_wrapper(dir_))
    {}

    ~SlowCompiler() { std::filesystem::remove_all(dir_); }

    SlowCompiler(const SlowCompiler&) = delete;
    SlowCompiler& operator=(const SlowCompiler&) = delete;

  private:
    static std::string
    write_wrapper(const std::filesystem::path& dir)
    {
        const std::filesystem::path wrapper = dir / "slow-cxx";
        {
            std::ofstream f(wrapper);
            f << "#!/bin/sh\nsleep 2\nexec '" << jit::find_compiler()
              << "' \"$@\"\n";
        }
        std::filesystem::permissions(wrapper,
                                     std::filesystem::perms::owner_all);
        return wrapper.string();
    }

    std::filesystem::path dir_;
    ScopedEnv cache_;
    ScopedEnv cxx_;
};

double
seconds_since(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

TEST(JitRuntime, EvalsNeverWaitForAKernelBuild)
{
    REQUIRE_JIT();
    SlowCompiler slow("cascade_jit_slow_evals");
    runtime::Runtime::Options opts;
    opts.enable_hardware = true;
    opts.device_les = 10; // every fabric compile is rejected
    opts.compile_effort = 0.05;
    uint64_t launched = 0;
    std::vector<uint64_t> adopted;
    runtime::Runtime rt(opts);
    rt.journal().add_tap([&](const telemetry::Journal::Event& ev) {
        telemetry::JsonValue data;
        ASSERT_TRUE(telemetry::parse_json(ev.data, &data));
        if (ev.type == "jit.launch") {
            launched = data.get_u64("version");
        } else if (ev.type == "jit.adopt") {
            adopted.push_back(data.get_u64("version"));
        }
    });

    // Typed back to back: each eval after the first supersedes a build
    // still sleeping in the compiler, and none may wait for it.
    for (const char* line : {"reg [7:0] a = 1;\n",
                             "always @(posedge clk.val) a <= a + 1;\n",
                             "reg [7:0] b = 3;\n"}) {
        const auto t0 = std::chrono::steady_clock::now();
        std::string err;
        ASSERT_TRUE(rt.eval(line, &err)) << err;
        EXPECT_LT(seconds_since(t0), 0.5) << line;
    }

    // Only the latest version's kernel is ever adopted.
    ASSERT_TRUE(step_until_jit(&rt, 60.0));
    ASSERT_EQ(adopted.size(), 1u);
    EXPECT_EQ(adopted[0], launched);
}

TEST(JitRuntime, FabricLandsWithoutWaitingForTheKernel)
{
    REQUIRE_JIT();
    SlowCompiler slow("cascade_jit_slow_fabric");
    runtime::Runtime::Options opts;
    opts.enable_hardware = true;
    opts.compile_effort = 0.05;
    runtime::Runtime rt(opts);
    const auto t0 = std::chrono::steady_clock::now();
    std::string err;
    ASSERT_TRUE(rt.eval("reg [7:0] c = 5;\n"
                        "always @(posedge clk.val) c <= c + 3;\n",
                        &err))
        << err;
    ASSERT_TRUE(rt.wait_for_hardware(30.0));
    // The kernel of this version sleeps 2 s before its compiler even
    // starts, so the fabric landed while the kernel was still building.
    EXPECT_LT(seconds_since(t0), 1.5);
    EXPECT_EQ(rt.telemetry().counter("jit.adopted")->value(), 0u);
}

} // namespace
} // namespace cascade
