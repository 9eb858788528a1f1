/// \file
/// Tests for the netlist builder: constant folding, hash-consing,
/// constant-shift canonicalization (shifts by constants are wiring), and
/// eval_node semantics.

#include "fpga/netlist.h"

#include <random>
#include <set>

#include <gtest/gtest.h>

#include "fpga/synth.h"
#include "verilog/elaborate.h"
#include "verilog/parser.h"
#include "workloads/workloads.h"

namespace cascade::fpga {
namespace {

struct Fixture {
    Netlist nl;
    NetlistBuilder b{&nl};
};

TEST(NetlistBuilder, ConstantsAreConsed)
{
    Fixture f;
    const uint32_t a = f.b.constant(8, 42);
    const uint32_t b = f.b.constant(8, 42);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, f.b.constant(8, 43));
    EXPECT_NE(a, f.b.constant(9, 42)); // width matters
}

TEST(NetlistBuilder, OpsAreConsed)
{
    Fixture f;
    const uint32_t x = f.b.input("x", 8);
    const uint32_t y = f.b.input("y", 8);
    const uint32_t s1 = f.b.make(Op::Add, 8, {x, y});
    const uint32_t s2 = f.b.make(Op::Add, 8, {x, y});
    EXPECT_EQ(s1, s2);
    EXPECT_NE(s1, f.b.make(Op::Add, 8, {y, x}));
}

TEST(NetlistBuilder, ConstantFolding)
{
    Fixture f;
    const uint32_t a = f.b.constant(8, 20);
    const uint32_t b = f.b.constant(8, 30);
    const uint32_t s = f.b.make(Op::Add, 8, {a, b});
    ASSERT_TRUE(f.b.is_const(s));
    EXPECT_EQ(f.b.const_val(s).to_uint64(), 50u);
    const uint32_t m = f.b.make(Op::Mul, 8, {a, b});
    EXPECT_EQ(f.b.const_val(m).to_uint64(), (20 * 30) & 0xFFu);
}

TEST(NetlistBuilder, MuxWithConstantSelectorFolds)
{
    Fixture f;
    const uint32_t x = f.b.input("x", 8);
    const uint32_t y = f.b.input("y", 8);
    EXPECT_EQ(f.b.mux(f.b.constant(1, 1), x, y), x);
    EXPECT_EQ(f.b.mux(f.b.constant(1, 0), x, y), y);
    EXPECT_EQ(f.b.mux(f.b.input("s", 1), x, x), x);
}

TEST(NetlistBuilder, ConstShiftsBecomeWiring)
{
    Fixture f;
    const uint32_t x = f.b.input("x", 32);
    const uint32_t sh = f.b.make(Op::Lshr, 32, {x, f.b.constant(32, 4)});
    // No Lshr node should exist: only Slice/ZExt wiring.
    EXPECT_NE(f.nl.nodes[sh].op, Op::Lshr);
    const uint32_t shl = f.b.make(Op::Shl, 32, {x, f.b.constant(32, 8)});
    EXPECT_NE(f.nl.nodes[shl].op, Op::Shl);
    // Oversized shift folds to zero.
    const uint32_t big = f.b.make(Op::Lshr, 32, {x, f.b.constant(32, 99)});
    ASSERT_TRUE(f.b.is_const(big));
    EXPECT_TRUE(f.b.const_val(big).is_zero());
}

/// The canonicalized forms must be semantically identical to the raw ops.
TEST(NetlistBuilder, CanonicalizedShiftsMatchEval)
{
    std::mt19937_64 rng(11);
    for (int trial = 0; trial < 200; ++trial) {
        const uint32_t w = 1 + static_cast<uint32_t>(rng() % 64);
        const uint64_t xv = rng();
        const uint32_t amt = static_cast<uint32_t>(rng() % (w + 4));
        for (Op op : {Op::Shl, Op::Lshr, Op::Ashr, Op::DynSlice}) {
            Fixture f;
            const uint32_t x = f.b.input("x", w);
            const uint32_t out_w =
                op == Op::DynSlice
                    ? 1 + static_cast<uint32_t>(rng() % w)
                    : w;
            const uint32_t n =
                f.b.make(op, out_w, {x, f.b.constant(32, amt)});
            // Evaluate the canonicalized graph by hand.
            std::vector<BitVector> values(f.nl.nodes.size());
            BitVector input(w, xv);
            for (size_t i = 0; i < f.nl.nodes.size(); ++i) {
                const Node& node = f.nl.nodes[i];
                if (node.op == Op::Input) {
                    values[i] = input;
                } else if (node.op == Op::Const) {
                    values[i] = node.cval;
                } else {
                    std::vector<BitVector> argv;
                    for (uint32_t a : node.args) {
                        argv.push_back(values[a]);
                    }
                    values[i] = eval_node(node, argv);
                }
            }
            // Reference: the uncanonicalized operation.
            Node raw;
            raw.op = op;
            raw.width = out_w;
            const BitVector expected =
                eval_node(raw, {input, BitVector(32, amt)});
            EXPECT_EQ(values[n], expected)
                << "op=" << static_cast<int>(op) << " w=" << w
                << " amt=" << amt;
        }
    }
}

TEST(NetlistBuilder, SetSliceConstRoundTrip)
{
    Fixture f;
    const uint32_t base = f.b.constant(BitVector(16, 0xFFFF));
    const uint32_t v = f.b.constant(4, 0);
    const uint32_t out = f.b.set_slice_const(base, 4, v);
    ASSERT_TRUE(f.b.is_const(out));
    EXPECT_EQ(f.b.const_val(out).to_uint64(), 0xFF0Fu);
    // Writes past the top are dropped.
    const uint32_t clipped =
        f.b.set_slice_const(base, 14, f.b.constant(4, 0));
    EXPECT_EQ(f.b.const_val(clipped).to_uint64(), 0x3FFFu);
}

TEST(NetlistBuilder, ZextSextResize)
{
    Fixture f;
    const uint32_t x = f.b.constant(BitVector(4, 0xA));
    EXPECT_EQ(f.b.const_val(f.b.zext(x, 8)).to_uint64(), 0x0Au);
    EXPECT_EQ(f.b.const_val(f.b.sext(x, 8)).to_uint64(), 0xFAu);
    EXPECT_EQ(f.b.const_val(f.b.resize(x, 2, false)).to_uint64(), 0x2u);
}

TEST(NetlistBuilder, MemReadsAreNotConsed)
{
    Fixture f;
    const uint32_t mem = f.b.memory("m", 8, 16);
    const uint32_t addr = f.b.input("a", 4);
    const uint32_t r1 = f.b.mem_read(mem, addr, 8);
    const uint32_t r2 = f.b.mem_read(mem, addr, 8);
    EXPECT_NE(r1, r2); // contents are time-varying
}

TEST(EvalNode, CoreOps)
{
    auto run = [](Op op, uint32_t w, std::vector<BitVector> argv) {
        Node n;
        n.op = op;
        n.width = w;
        return eval_node(n, argv);
    };
    EXPECT_EQ(run(Op::Add, 8, {BitVector(8, 200), BitVector(8, 100)})
                  .to_uint64(),
              44u);
    EXPECT_EQ(run(Op::Eq, 1, {BitVector(8, 5), BitVector(8, 5)})
                  .to_uint64(),
              1u);
    EXPECT_EQ(run(Op::Slt, 1, {BitVector(8, 0xFF), BitVector(8, 1)})
                  .to_uint64(),
              1u);
    EXPECT_EQ(run(Op::Mux, 8,
                  {BitVector(1, 1), BitVector(8, 3), BitVector(8, 9)})
                  .to_uint64(),
              3u);
    EXPECT_EQ(run(Op::Concat, 8, {BitVector(4, 0xA), BitVector(4, 0xB)})
                  .to_uint64(),
              0xABu);
    EXPECT_EQ(run(Op::ReduceXor, 1, {BitVector(8, 0b0111)}).to_uint64(),
              1u);
}

std::shared_ptr<Netlist>
synthesize_src(const std::string& src)
{
    Diagnostics diags;
    verilog::SourceUnit unit = verilog::parse(src, &diags);
    verilog::Elaborator elab(&diags);
    auto em = elab.elaborate(*unit.modules.at(0));
    EXPECT_NE(em, nullptr) << diags.str();
    auto nl = synthesize(*em, &diags);
    EXPECT_NE(nl, nullptr) << diags.str();
    return nl;
}

TEST(NodeIdentities, NameSourcesNotIndices)
{
    // The same sum over inputs declared in the other order: every index
    // differs, and no identity does.
    Netlist a;
    NetlistBuilder ba(&a);
    const uint32_t ax = ba.input("x", 8);
    const uint32_t ay = ba.input("y", 8);
    const uint32_t asum = ba.make(Op::Add, 8, {ax, ay});
    Netlist b;
    NetlistBuilder bb(&b);
    const uint32_t by = bb.input("y", 8);
    const uint32_t bx = bb.input("x", 8);
    const uint32_t bsum = bb.make(Op::Add, 8, {bx, by});
    const std::vector<uint64_t> ia = node_identities(a);
    const std::vector<uint64_t> ib = node_identities(b);
    EXPECT_EQ(ia[ax], ib[bx]);
    EXPECT_EQ(ia[ay], ib[by]);
    EXPECT_EQ(ia[asum], ib[bsum]);
    EXPECT_NE(ia[ax], ia[ay]);
    // Operand order is structure.
    const uint32_t swapped = bb.make(Op::Add, 8, {by, bx});
    EXPECT_NE(ia[asum], node_identities(b)[swapped]);
}

TEST(NodeIdentities, RepeatsStayDistinct)
{
    // Memory reads are never consed: two reads of one address are two
    // nodes with one hash, told apart by their repeat count.
    Netlist nl;
    NetlistBuilder b(&nl);
    const uint32_t mem = b.memory("m", 8, 16);
    const uint32_t addr = b.input("a", 4);
    const uint32_t r0 = b.mem_read(mem, addr, 8);
    const uint32_t r1 = b.mem_read(mem, addr, 8);
    ASSERT_NE(r0, r1);
    const std::vector<uint64_t> ids = node_identities(nl);
    EXPECT_NE(ids[r0], ids[r1]);
    EXPECT_EQ(ids, node_identities(nl));
}

TEST(NodeIdentities, UnrelatedEditKeepsNinetyPercent)
{
    const std::string miner = workloads::proof_of_work_module(16);
    std::string edited = miner;
    edited.insert(edited.rfind("endmodule"),
                  "reg [15:0] probe = 0;\n"
                  "always @(posedge clk) if (round == 63) "
                  "probe <= probe + nonce[15:0];\n");
    const auto before = synthesize_src(miner);
    const auto after = synthesize_src(edited);
    const std::vector<uint64_t> old_ids = node_identities(*before);
    const std::set<uint64_t> old_set(old_ids.begin(), old_ids.end());
    EXPECT_EQ(old_set.size(), old_ids.size());
    const std::vector<uint64_t> new_ids = node_identities(*after);
    size_t kept = 0;
    for (const uint64_t id : new_ids) {
        kept += old_set.count(id);
    }
    EXPECT_GT(after->size(), before->size());
    EXPECT_GE(kept * 10, new_ids.size() * 9)
        << kept << " of " << new_ids.size();
}

} // namespace
} // namespace cascade::fpga
