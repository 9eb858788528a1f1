/// \file
/// Op-level differential test of the three netlist evaluators. Every
/// fpga::Op is built into one-op netlists at widths {1, 7, 32, 63, 64, 65,
/// 128} and driven with edge operands (0, 1, all-ones, the sign bit alone)
/// plus a seeded random set: shift amounts at and past the width, divides
/// by zero, Slice/DynSlice offsets past the top bit, and SExt/ZExt that
/// shrink as well as grow. Each output is compared against the reference
/// `fpga::eval_node` (BitVector semantics) on a Bitstream, a profiled
/// Bitstream (which recomputes every node) and, when a system compiler
/// exists, the JIT kernel built from the same netlist. Without a compiler
/// the Bitstream half still runs.

#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fpga/bitstream.h"
#include "fpga/netlist.h"
#include "fpga/word_ops.h"
#include "jit/jit_cache.h"
#include "jit/jit_kernel.h"

namespace cascade {
namespace {

using fpga::Netlist;
using fpga::Node;
using fpga::Op;

constexpr uint32_t kWidths[] = {1, 7, 32, 63, 64, 65, 128};
constexpr uint32_t kMemSize = 5;

/// A netlist of independent one-op nodes over shared inputs, one output
/// per node.
struct OpNetlist {
    Netlist nl;
    uint32_t a = 0, b = 0, sel = 0, amt = 0, c7 = 0, addr = 0;
    std::vector<std::string> labels; ///< per output

    uint32_t
    input(const std::string& name, uint32_t width)
    {
        Node n;
        n.op = Op::Input;
        n.width = width;
        n.aux = static_cast<uint32_t>(nl.inputs.size());
        nl.nodes.push_back(n);
        const auto id = static_cast<uint32_t>(nl.nodes.size() - 1);
        nl.inputs.push_back({name, id, width});
        return id;
    }

    /// Adds \p node and an output port for it.
    void
    add(const std::string& label, Node node)
    {
        nl.nodes.push_back(std::move(node));
        const auto id = static_cast<uint32_t>(nl.nodes.size() - 1);
        nl.outputs.push_back(
            {"y" + std::to_string(labels.size()), id, nl.nodes[id].width});
        labels.push_back(label);
    }

    void
    op(const std::string& label, Op op, uint32_t width,
       std::vector<uint32_t> args, uint32_t aux = 0)
    {
        Node n;
        n.op = op;
        n.width = width;
        n.aux = aux;
        n.args = std::move(args);
        add(label, std::move(n));
    }
};

BitVector
random_value(uint32_t width, std::mt19937_64& rng)
{
    BitVector v(width, 0);
    for (uint32_t w = 0; w < v.num_words(); ++w) {
        v.set_word(w, rng());
    }
    return v;
}

/// All ops at width \p W; Pow only \p with_pow (its reference cost grows
/// with the square of the width times the exponent's width).
OpNetlist
build(uint32_t W, bool with_pow, std::mt19937_64& rng)
{
    OpNetlist g;
    g.a = g.input("a", W);
    g.b = g.input("b", W);
    g.sel = g.input("sel", 1);
    g.amt = g.input("amt", 8);
    g.c7 = g.input("c7", 7);
    g.addr = g.input("addr", 3);
    const uint32_t a = g.a, b = g.b;

    Node c;
    c.op = Op::Const;
    c.width = W;
    c.cval = random_value(W, rng);
    g.add("Const", c);
    g.nl.outputs.push_back({"in_a", a, W});
    g.labels.push_back("Input");

    // A register that never latches (set_reg drives it) and a memory
    // read at an address that runs past the memory's end.
    {
        Node q;
        q.op = Op::RegQ;
        q.width = W;
        q.aux = 0;
        g.add("RegQ", q);
        fpga::RegDef r;
        r.name = "r";
        r.width = W;
        r.q = g.nl.outputs.back().node;
        r.next = r.q;
        r.init = BitVector(W, 0);
        g.nl.regs.push_back(r);
        g.nl.mems.push_back({"m", W, kMemSize, {}});
        g.op("MemRead", Op::MemRead, W, {g.addr});
    }

    g.op("Not", Op::Not, W, {a});
    for (const auto& [name, op] :
         std::vector<std::pair<const char*, Op>>{
             {"And", Op::And}, {"Or", Op::Or}, {"Xor", Op::Xor},
             {"Add", Op::Add}, {"Sub", Op::Sub}, {"Mul", Op::Mul},
             {"Divu", Op::Divu}, {"Remu", Op::Remu}, {"Divs", Op::Divs},
             {"Rems", Op::Rems}}) {
        g.op(name, op, W, {a, b});
    }
    if (with_pow) {
        g.op("Pow", Op::Pow, W, {a, b});
    }
    g.op("Eq", Op::Eq, 1, {a, b});
    g.op("Ult", Op::Ult, 1, {a, b});
    g.op("Slt", Op::Slt, 1, {a, b});
    for (const auto& [name, op] : std::vector<std::pair<const char*, Op>>{
             {"Shl", Op::Shl}, {"Lshr", Op::Lshr}, {"Ashr", Op::Ashr}}) {
        // An 8-bit amount reaches past every width; a W-bit one carries
        // the edge operands (all-ones, the sign bit) as amounts.
        g.op(std::string(name) + "/amt8", op, W, {a, g.amt});
        g.op(std::string(name) + "/amtW", op, W, {a, b});
    }
    g.op("Mux", Op::Mux, W, {g.sel, a, b});
    g.op("Concat/ab", Op::Concat, 2 * W, {a, b});
    g.op("Concat/c7,a,sel", Op::Concat, W + 8, {g.c7, a, g.sel});
    g.op("Slice/0", Op::Slice, W, {a}, 0);
    if (W > 1) {
        g.op("Slice/1", Op::Slice, W - 1, {a}, 1);
    }
    g.op("Slice/top-straddle", Op::Slice, 4, {a}, W - 1);
    g.op("Slice/past-top", Op::Slice, 5, {a}, W + 3);
    g.op("Slice/wide-straddle", Op::Slice, 70, {a}, W / 2);
    g.op("DynSlice/5", Op::DynSlice, 5, {a, g.amt});
    g.op("DynSlice/W", Op::DynSlice, W, {a, g.amt});
    g.op("DynSlice/amtW", Op::DynSlice, 3, {a, b});
    g.op("ReduceAnd", Op::ReduceAnd, 1, {a});
    g.op("ReduceOr", Op::ReduceOr, 1, {a});
    g.op("ReduceXor", Op::ReduceXor, 1, {a});
    for (const uint32_t to : {W + 5, W / 2 + 1, uint32_t{128}}) {
        g.op("ZExt/" + std::to_string(to), Op::ZExt, to, {a});
        g.op("SExt/" + std::to_string(to), Op::SExt, to, {a});
    }
    return g;
}

/// The reference value of output \p o under \p in (input node -> value).
BitVector
reference(const OpNetlist& g, size_t o,
          const std::vector<BitVector>& node_value, const BitVector& reg,
          const std::vector<BitVector>& mem)
{
    const uint32_t id = g.nl.outputs[o].node;
    const Node& n = g.nl.nodes[id];
    switch (n.op) {
      case Op::Input:
        return node_value[id];
      case Op::RegQ:
        return reg;
      case Op::MemRead: {
        const uint64_t at = node_value[n.args[0]].to_uint64();
        return at < mem.size() ? mem[at] : BitVector(n.width, 0);
      }
      default:
        break;
    }
    std::vector<BitVector> argv;
    for (uint32_t arg : n.args) {
        argv.push_back(node_value[arg]);
    }
    return fpga::eval_node(n, argv);
}

/// Drives every op at width \p W with the edge operands plus
/// \p random_values seeded ones, comparing a Bitstream, a profiled
/// Bitstream and (\p with_jit) the JIT kernel against the reference.
void
check_width(uint32_t W, bool with_pow, bool with_jit, int random_values,
            std::mt19937_64& rng)
{
    SCOPED_TRACE("width " + std::to_string(W));
    OpNetlist g = build(W, with_pow, rng);
    auto nl = std::make_shared<const Netlist>(g.nl);
    std::vector<std::unique_ptr<fpga::FabricExec>> fabrics;
    std::vector<std::string> names;
    fabrics.push_back(std::make_unique<fpga::Bitstream>(nl));
    names.push_back("bitstream");
    fabrics.push_back(std::make_unique<fpga::Bitstream>(nl));
    fabrics.back()->set_profiling(true);
    names.push_back("profiled bitstream");
    if (with_jit) {
        std::string error;
        auto kernel = jit::JitKernel::create(nl, &error);
        ASSERT_NE(kernel, nullptr) << error;
        fabrics.push_back(std::move(kernel));
        names.push_back("jit kernel");
    }

    std::vector<BitVector> values = {
        BitVector(W, 0), BitVector(W, 1), BitVector::all_ones(W),
        BitVector(W, 0)};
    values.back().set_bit(W - 1, true);
    for (int k = 0; k < random_values; ++k) {
        values.push_back(random_value(W, rng));
    }
    const std::vector<uint64_t> amounts = {
        0, 1, W - 1, W, W + 1, 63, 64, 65, 127, 128, 200, 255};

    std::vector<BitVector> node_value(g.nl.nodes.size());
    std::vector<BitVector> mem;
    for (uint32_t k = 0; k < kMemSize; ++k) {
        mem.push_back(random_value(W, rng));
        for (auto& f : fabrics) {
            f->set_mem("m", k, mem.back());
        }
    }
    size_t combo = 0;
    for (size_t i = 0; i < values.size(); ++i) {
        for (size_t j = 0; j < values.size(); ++j) {
            for (const uint64_t amount : amounts) {
                ++combo;
                const BitVector& reg = values[(i + j) % values.size()];
                mem[combo % kMemSize] = values[j];
                const std::vector<std::pair<uint32_t, BitVector>> in = {
                    {g.a, values[i]},
                    {g.b, values[j]},
                    {g.sel, BitVector(1, combo & 1)},
                    {g.amt, BitVector(8, amount)},
                    {g.c7, random_value(7, rng)},
                    {g.addr, BitVector(3, combo % 8)}};
                for (const auto& [node, v] : in) {
                    node_value[node] = v;
                }
                for (auto& f : fabrics) {
                    for (const auto& [node, v] : in) {
                        f->set_input(
                            static_cast<int>(g.nl.nodes[node].aux), v);
                    }
                    f->set_reg("r", reg);
                    f->set_mem("m", combo % kMemSize,
                               mem[combo % kMemSize]);
                    f->eval_comb();
                }
                for (size_t o = 0; o < g.nl.outputs.size(); ++o) {
                    const BitVector want =
                        reference(g, o, node_value, reg, mem);
                    for (size_t f = 0; f < fabrics.size(); ++f) {
                        const BitVector& got =
                            fabrics[f]->output(static_cast<int>(o));
                        ASSERT_EQ(got, want)
                            << names[f] << " " << g.labels[o]
                            << " a=" << values[i].to_hex_string()
                            << " b=" << values[j].to_hex_string()
                            << " amt=" << amount << " got "
                            << got.to_hex_string() << " want "
                            << want.to_hex_string();
                    }
                }
            }
        }
    }
}

TEST(OpDifferential, EveryOpAgreesWithTheReferenceAtEveryWidth)
{
    const bool have_jit = jit::compiler_available();
    if (!have_jit) {
        std::fprintf(stderr,
                     "no system compiler: comparing the Bitstream only\n");
    }
    std::mt19937_64 rng(20);
    for (const uint32_t W : kWidths) {
        check_width(W, true, have_jit, 4, rng);
    }
}

TEST(OpDifferential, ValuesPastTheHostScratchBoundTakeTheReferencePath)
{
    // The Bitstream's word helpers hold at most kMaxWords words of
    // scratch; a wider node evaluates through eval_node itself. The
    // kernel sizes its scratch per netlist, so this width is the
    // Bitstream's case only.
    std::mt19937_64 rng(21);
    check_width(64 * fpga::word_ops::kMaxWords + 1, false, false, 1, rng);
}

} // namespace
} // namespace cascade
