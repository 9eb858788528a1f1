/// \file
/// Tests for the toolchain back half: technology mapping, placement,
/// timing analysis, and the compile driver — including the properties the
/// paper's evaluation leans on (compile time grows with design size; the
/// Fig. 10 wrapper costs area; timing can fail) and the device's admission
/// rule.

#include "fpga/compile.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <map>
#include <random>
#include <set>

#include "ir/hw_wrapper.h"
#include "telemetry/journal.h"
#include "telemetry/telemetry.h"
#include "verilog/parser.h"
#include "workloads/workloads.h"

namespace cascade::fpga {
namespace {

using namespace verilog;

std::shared_ptr<const ElaboratedModule>
elaborate_src(std::string_view src)
{
    Diagnostics diags;
    SourceUnit unit = parse(src, &diags);
    EXPECT_FALSE(diags.has_errors()) << diags.str();
    Elaborator elab(&diags);
    auto em = elab.elaborate(*unit.modules[0]);
    EXPECT_NE(em, nullptr) << diags.str();
    return std::shared_ptr<const ElaboratedModule>(std::move(em));
}

/// An N-stage 32-bit pipeline: area and compile time scale with N.
std::string
pipeline_src(int stages)
{
    std::string body;
    body += "module P(input wire clk, input wire [31:0] din, "
            "output wire [31:0] dout);\n";
    for (int i = 0; i < stages; ++i) {
        body += "  reg [31:0] s" + std::to_string(i) + " = 0;\n";
    }
    body += "  always @(posedge clk) begin\n";
    body += "    s0 <= din * 3 + 1;\n";
    for (int i = 1; i < stages; ++i) {
        body += "    s" + std::to_string(i) + " <= s" +
                std::to_string(i - 1) + " ^ (s" + std::to_string(i - 1) +
                " >> 3);\n";
    }
    body += "  end\n";
    body += "  assign dout = s" + std::to_string(stages - 1) + ";\n";
    body += "endmodule\n";
    return body;
}

TEST(TechMap, CostsAreMonotoneInWidth)
{
    Node add8{Op::Add, 8, 0, {}, BitVector()};
    Node add32{Op::Add, 32, 0, {}, BitVector()};
    EXPECT_LT(le_cost(add8), le_cost(add32));
    Node mul16{Op::Mul, 16, 0, {}, BitVector()};
    EXPECT_GT(le_cost(mul16), le_cost(add32));
    Node wire{Op::Slice, 32, 0, {}, BitVector()};
    EXPECT_EQ(le_cost(wire), 0u);
    EXPECT_GT(node_delay_ns(mul16), node_delay_ns(add8));
}

TEST(TechMap, AreaAccountsRegistersAndMemories)
{
    auto em = elaborate_src(R"(
        module M(input wire clk, input wire [7:0] d,
                 output wire [7:0] q);
          reg [7:0] r = 0;
          reg [7:0] mem [0:63];
          always @(posedge clk) begin
            r <= d + 1;
            mem[d[5:0]] <= d;
          end
          assign q = mem[r[5:0]] ^ r;
        endmodule
    )");
    Diagnostics diags;
    auto nl = synthesize(*em, &diags);
    ASSERT_NE(nl, nullptr) << diags.str();
    MappedDesign mapped = technology_map(*nl);
    EXPECT_GE(mapped.area.ffs, 8u);
    EXPECT_EQ(mapped.area.bram_bits, 64u * 8u);
    EXPECT_GT(mapped.cells.size(), 0u);
    EXPECT_FALSE(mapped.edges.empty());
}

TEST(Place, ImprovesWirelength)
{
    auto em = elaborate_src(pipeline_src(24));
    Diagnostics diags;
    auto nl = synthesize(*em, &diags);
    ASSERT_NE(nl, nullptr) << diags.str();
    MappedDesign mapped = technology_map(*nl);
    PlaceOptions opts;
    opts.effort = 0.3;
    PlacementResult r = place(mapped, opts);
    EXPECT_LE(r.final_wirelength, r.initial_wirelength);
    EXPECT_GT(r.moves_evaluated, 0u);
    // All locations within the grid, no two cells on one slot.
    std::set<std::pair<uint32_t, uint32_t>> seen;
    for (const auto& loc : r.locations) {
        EXPECT_LT(loc.first, r.grid);
        EXPECT_LT(loc.second, r.grid);
        EXPECT_TRUE(seen.insert(loc).second);
    }
}

TEST(Place, DeterministicForSeed)
{
    auto em = elaborate_src(pipeline_src(8));
    Diagnostics diags;
    auto nl = synthesize(*em, &diags);
    ASSERT_NE(nl, nullptr);
    MappedDesign mapped = technology_map(*nl);
    PlaceOptions opts;
    opts.effort = 0.2;
    opts.seed = 7;
    PlacementResult a = place(mapped, opts);
    PlacementResult b = place(mapped, opts);
    EXPECT_EQ(a.locations, b.locations);
    EXPECT_EQ(a.final_wirelength, b.final_wirelength);
}

MappedDesign
map_src(std::string_view src)
{
    auto em = elaborate_src(src);
    Diagnostics diags;
    auto nl = synthesize(*em, &diags);
    EXPECT_NE(nl, nullptr) << diags.str();
    return technology_map(*nl);
}

/// Everything a placement decides: each cell's location, both
/// wirelengths and the number of moves.
std::string
placement_digest(const PlacementResult& r)
{
    std::string text;
    for (const auto& [x, y] : r.locations) {
        text += std::to_string(x) + "," + std::to_string(y) + ";";
    }
    char tail[96];
    std::snprintf(tail, sizeof tail, "%a %a %llu", r.initial_wirelength,
                  r.final_wirelength,
                  static_cast<unsigned long long>(r.moves_evaluated));
    return telemetry::digest_hex(text + tail);
}

TEST(Place, MatchesTheParentAnnealer)
{
    // Digests recorded from the annealer before its per-move cost was
    // cut (std::mt19937_64, apply-and-revert deltas, std::exp per uphill
    // move). The faster loop must make every draw and accept decision
    // the same, so every placement stays bit-identical.
    const MappedDesign pipe = map_src(pipeline_src(24));
    const MappedDesign miner =
        map_src(workloads::proof_of_work_module(16));
    struct Case {
        const MappedDesign* design;
        double effort;
        uint64_t seed;
        const char* digest;
    };
    const Case cases[] = {
        {&pipe, 0.3, 1, "2aa1f24ad7705472"},
        {&pipe, 0.3, 7, "0ec966daf8d7f262"},
        {&miner, 0.05, 1, "5e5e9b3a60f1391e"},
    };
    for (const Case& c : cases) {
        PlaceOptions opts;
        opts.effort = c.effort;
        opts.seed = c.seed;
        EXPECT_EQ(placement_digest(place(*c.design, opts)), c.digest)
            << "effort " << c.effort << " seed " << c.seed;
    }
}

TEST(Place, FinalWirelengthIsTheHpwlOfItsLocations)
{
    const MappedDesign mapped = map_src(pipeline_src(24));
    PlaceOptions opts;
    opts.effort = 0.3;
    PlacementResult r = place(mapped, opts);
    ASSERT_FALSE(r.cancelled);
    double hpwl = 0;
    for (const CellEdge& e : mapped.edges) {
        const auto [ax, ay] = r.locations[e.a];
        const auto [bx, by] = r.locations[e.b];
        hpwl += std::abs(static_cast<int64_t>(ax) - bx) +
                std::abs(static_cast<int64_t>(ay) - by);
    }
    EXPECT_EQ(r.final_wirelength, hpwl);
}

TEST(Place, CancelledBeforeTheFirstMove)
{
    const MappedDesign mapped = map_src(pipeline_src(8));
    const std::atomic<bool> cancel{true};
    PlaceOptions opts;
    PlacementResult r = place(mapped, opts, &cancel);
    EXPECT_TRUE(r.cancelled);
    EXPECT_EQ(r.moves_evaluated, 0u);
}

/// A design ready to place, with each cell's identity.
struct Placeable {
    MappedDesign mapped;
    std::vector<uint64_t> ids;
};

Placeable
placeable(std::string_view src)
{
    auto em = elaborate_src(src);
    Diagnostics diags;
    auto nl = synthesize(*em, &diags);
    EXPECT_NE(nl, nullptr) << diags.str();
    Placeable p{technology_map(*nl), {}};
    const std::vector<uint64_t> node_ids = node_identities(*nl);
    for (const Cell& cell : p.mapped.cells) {
        p.ids.push_back(node_ids[cell.node]);
    }
    return p;
}

CellSites
sites_of(const Placeable& p, const PlacementResult& r)
{
    return CellSites{p.ids, r.locations};
}

/// \p src with one more register, folded into its last output: a small
/// edit that leaves the rest of the design as it was.
std::string
with_edit(std::string src)
{
    const std::string line = "  reg [31:0] edit_r = 0;\n"
                             "  always @(posedge clk) edit_r <= edit_r + 5;\n";
    src.insert(src.rfind("endmodule"), line);
    return src;
}

TEST(Place, PriorOfTheSameDesignKeepsEveryCell)
{
    const Placeable p = placeable(pipeline_src(24));
    PlaceOptions opts;
    opts.effort = 0.3;
    const PlacementResult cold = place(p.mapped, opts);
    EXPECT_EQ(cold.kept, 0u);
    EXPECT_EQ(cold.movable, p.mapped.cells.size());
    const CellSites prior = sites_of(p, cold);
    const PlacementResult again =
        place(p.mapped, opts, nullptr, p.ids, &prior);
    EXPECT_EQ(again.kept, p.mapped.cells.size());
    EXPECT_EQ(again.movable, 0u);
    EXPECT_EQ(again.moves_evaluated, 0u);
    EXPECT_EQ(again.locations, cold.locations);
    EXPECT_EQ(again.final_wirelength, cold.final_wirelength);
}

TEST(Place, SeededPlacementAnnealsOnlyAroundTheEdit)
{
    const Placeable base = placeable(pipeline_src(24));
    const Placeable edited = placeable(with_edit(pipeline_src(24)));
    PlaceOptions opts;
    opts.effort = 0.3;
    opts.seed = 3;
    const CellSites prior = sites_of(base, place(base.mapped, opts));
    const PlacementResult a =
        place(edited.mapped, opts, nullptr, edited.ids, &prior);
    const PlacementResult b =
        place(edited.mapped, opts, nullptr, edited.ids, &prior);
    // Same design, prior and seed: the same placement.
    EXPECT_EQ(placement_digest(a), placement_digest(b));
    EXPECT_GE(a.kept, base.mapped.cells.size() - 1);
    EXPECT_GT(a.movable, 0u);
    EXPECT_LT(a.movable, edited.mapped.cells.size() / 4);
    EXPECT_LT(a.moves_evaluated,
              place(edited.mapped, opts).moves_evaluated / 10);
    // A legal placement, with its wirelength the HPWL of its locations.
    std::set<std::pair<uint32_t, uint32_t>> seen;
    for (const auto& loc : a.locations) {
        EXPECT_LT(loc.first, a.grid);
        EXPECT_LT(loc.second, a.grid);
        EXPECT_TRUE(seen.insert(loc).second);
    }
    double hpwl = 0;
    for (const CellEdge& e : edited.mapped.edges) {
        const auto [ax, ay] = a.locations[e.a];
        const auto [bx, by] = a.locations[e.b];
        hpwl += std::abs(static_cast<int64_t>(ax) - bx) +
                std::abs(static_cast<int64_t>(ay) - by);
    }
    EXPECT_EQ(a.final_wirelength, hpwl);
}

TEST(Place, SitesOutsideTheGridAreDropped)
{
    // A prior from a larger design: the smaller design's grid is
    // smaller, and the cells whose prior site lies beyond it are placed
    // anew. Every other cell keeps its site.
    const Placeable large = placeable(pipeline_src(40));
    const Placeable small = placeable(pipeline_src(30));
    PlaceOptions opts;
    opts.effort = 0.1;
    const CellSites prior = sites_of(large, place(large.mapped, opts));
    const PlacementResult r =
        place(small.mapped, opts, nullptr, small.ids, &prior);
    ASSERT_LT(r.grid, place(large.mapped, opts).grid);
    std::map<uint64_t, std::pair<uint32_t, uint32_t>> old;
    for (size_t i = 0; i < prior.ids.size(); ++i) {
        old[prior.ids[i]] = prior.sites[i];
    }
    size_t inside = 0;
    size_t outside = 0;
    for (size_t c = 0; c < small.ids.size(); ++c) {
        const auto it = old.find(small.ids[c]);
        if (it == old.end()) {
            continue;
        }
        if (it->second.first < r.grid && it->second.second < r.grid) {
            ++inside;
        } else {
            ++outside;
        }
    }
    ASSERT_GT(outside, 0u);
    ASSERT_GT(2 * inside, small.ids.size());
    EXPECT_EQ(r.kept, inside);
    for (const auto& [x, y] : r.locations) {
        EXPECT_LT(x, r.grid);
        EXPECT_LT(y, r.grid);
    }

    // The larger design, seeded from the smaller one's placement, keeps
    // every site (they all exist in its grid) when the prior covers at
    // least half its cells; else it anneals from scratch, bit for bit.
    const CellSites back = sites_of(small, r);
    const PlacementResult grown =
        place(large.mapped, opts, nullptr, large.ids, &back);
    if (grown.kept == 0) {
        EXPECT_EQ(placement_digest(grown),
                  placement_digest(place(large.mapped, opts)));
    } else {
        EXPECT_EQ(grown.kept, inside + outside);
    }
}

TEST(Place, CancelledBeforeTheFirstMoveWithAPrior)
{
    const Placeable base = placeable(pipeline_src(8));
    const Placeable edited = placeable(with_edit(pipeline_src(8)));
    PlaceOptions opts;
    const CellSites prior = sites_of(base, place(base.mapped, opts));
    const std::atomic<bool> cancel{true};
    PlacementResult r =
        place(edited.mapped, opts, &cancel, edited.ids, &prior);
    EXPECT_GT(r.kept, 0u);
    EXPECT_TRUE(r.cancelled);
    EXPECT_EQ(r.moves_evaluated, 0u);
}

TEST(Compile, SeededCompileIsAsGoodAsCold)
{
    // The miner with one more register, placed from the miner's own
    // placement: it keeps nearly every cell at a tenth of the moves. Its
    // wirelength is the base anneal's plus the edit, so it matches a
    // full anneal of the edited design within the few percent two seeds
    // of the full anneal differ by.
    const std::string miner = workloads::proof_of_work_module(16);
    CompileOptions opts;
    opts.effort = 0.05;
    const CompileResult base = compile(*elaborate_src(miner), opts);
    ASSERT_TRUE(base.ok) << base.error;
    ASSERT_NE(base.placement, nullptr);
    const auto edited = elaborate_src(with_edit(miner));
    opts.seed = 2;
    const CompileResult cold = compile(*edited, opts);
    const CompileResult seeded =
        compile(*edited, opts, nullptr, {}, base.placement.get());
    ASSERT_TRUE(cold.ok && seeded.ok);
    EXPECT_EQ(cold.report.kept_cells, 0u);
    EXPECT_GT(seeded.report.kept_cells, seeded.report.cells * 9 / 10);
    EXPECT_LT(seeded.report.anneal_moves, cold.report.anneal_moves / 10);
    EXPECT_LE(seeded.report.wirelength, 1.05 * cold.report.wirelength);
    EXPECT_LE(seeded.report.timing.critical_path_ns,
              1.05 * cold.report.timing.critical_path_ns);
    EXPECT_TRUE(seeded.report.timing.met || !cold.report.timing.met);
    EXPECT_EQ(seeded.placement->ids.size(), seeded.report.cells);
}

static_assert(std::uniform_random_bit_generator<Mt19937_64>);

TEST(Mt19937_64, MatchesTheStandardEngine)
{
    for (uint64_t seed : {uint64_t{0}, uint64_t{1}, uint64_t{7},
                          std::numeric_limits<uint64_t>::max()}) {
        Mt19937_64 ours(seed);
        std::mt19937_64 theirs(seed);
        uint64_t mismatches = 0;
        for (int i = 0; i < 10'000'000; ++i) {
            mismatches += ours() != theirs();
        }
        EXPECT_EQ(mismatches, 0u) << "seed " << seed;
    }
}

TEST(Timing, CombDepthRaisesCriticalPath)
{
    auto shallow = elaborate_src(R"(
        module M(input wire clk, input wire [31:0] a,
                 output wire [31:0] o);
          reg [31:0] r = 0;
          always @(posedge clk) r <= a + 1;
          assign o = r;
        endmodule
    )");
    auto deep = elaborate_src(R"(
        module M(input wire clk, input wire [31:0] a,
                 output wire [31:0] o);
          reg [31:0] r = 0;
          always @(posedge clk)
            r <= ((a * 3) / 5) * ((a * 7) % 11) + (a * a);
          assign o = r;
        endmodule
    )");
    CompileOptions opts;
    opts.effort = 0.2;
    auto r1 = compile(*shallow, opts);
    auto r2 = compile(*deep, opts);
    ASSERT_TRUE(r1.ok);
    ASSERT_TRUE(r2.ok);
    EXPECT_LT(r1.report.timing.critical_path_ns,
              r2.report.timing.critical_path_ns);
}

TEST(Compile, TimeGrowsWithDesignSize)
{
    CompileOptions opts;
    opts.effort = 0.3;
    auto small = elaborate_src(pipeline_src(4));
    auto large = elaborate_src(pipeline_src(40));
    auto rs = compile(*small, opts);
    auto rl = compile(*large, opts);
    ASSERT_TRUE(rs.ok);
    ASSERT_TRUE(rl.ok);
    EXPECT_GT(rl.report.cells, rs.report.cells);
    EXPECT_GT(rl.report.anneal_moves, rs.report.anneal_moves);
    // Wall-clock compile time also grows (the property the JIT hides).
    EXPECT_GT(rl.report.place_seconds, rs.report.place_seconds);
}

TEST(Compile, ReportTotalIsSumOfPhases)
{
    // The invariant the telemetry sidecar relies on: total_seconds is
    // exactly the sum of the four per-phase timings, each nonnegative.
    CompileOptions opts;
    opts.effort = 0.2;
    auto em = elaborate_src(pipeline_src(12));
    auto r = compile(*em, opts);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_GE(r.report.synth_seconds, 0.0);
    EXPECT_GE(r.report.techmap_seconds, 0.0);
    EXPECT_GE(r.report.place_seconds, 0.0);
    EXPECT_GE(r.report.timing_seconds, 0.0);
    EXPECT_GT(r.report.total_seconds, 0.0);
    EXPECT_NEAR(r.report.total_seconds,
                r.report.synth_seconds + r.report.techmap_seconds +
                    r.report.place_seconds + r.report.timing_seconds,
                1e-12);
    EXPECT_DOUBLE_EQ(r.report.total_seconds, r.report.phase_sum_seconds());
}

TEST(Compile, WrapperCostsArea)
{
    // The Fig. 10 instrumentation (shadow registers, masks, MMIO mux)
    // costs real area: the paper reports 2.9x on proof-of-work.
    const char* src = R"(
        module Cnt(input wire clk, input wire [31:0] d,
                   output wire [31:0] led);
          reg [31:0] cnt = 0;
          always @(posedge clk) cnt <= cnt + d;
          assign led = cnt;
        endmodule
    )";
    auto em = elaborate_src(src);
    CompileOptions opts;
    opts.effort = 0.1;
    auto direct = compile(*em, opts);
    ASSERT_TRUE(direct.ok) << direct.error;

    ir::WrapperMap map;
    Diagnostics diags;
    auto wrapper = ir::generate_hw_wrapper(*em, "clk", &map, &diags);
    ASSERT_NE(wrapper, nullptr) << diags.str();
    Diagnostics d2;
    Elaborator elab(&d2);
    auto wem = elab.elaborate(*wrapper);
    ASSERT_NE(wem, nullptr) << d2.str();
    auto wrapped = compile(*wem, opts);
    ASSERT_TRUE(wrapped.ok) << wrapped.error;

    EXPECT_GT(wrapped.report.area.les, direct.report.area.les);
    const double overhead =
        static_cast<double>(wrapped.report.area.les) /
        static_cast<double>(direct.report.area.les);
    // Same order as the paper's 2.9x-6.5x range.
    EXPECT_GT(overhead, 1.2);
    EXPECT_LT(overhead, 40.0);
}

TEST(Device, RejectsOversizedDesign)
{
    auto em = elaborate_src(pipeline_src(8));
    CompileOptions opts;
    opts.effort = 0.1;
    auto result = compile(*em, opts);
    ASSERT_TRUE(result.ok);
    FpgaDevice tiny(/*les=*/10, /*bram_bits=*/16, /*clock_mhz=*/50.0);
    const Verdict v = tiny.admit(result);
    EXPECT_FALSE(v.ok);
    EXPECT_EQ(v.error, "design does not fit: needs " +
                           std::to_string(result.report.area.les) +
                           " LEs / " +
                           std::to_string(result.report.area.bram_bits) +
                           " BRAM bits");
}

TEST(Device, ProgramsAndRuns)
{
    auto em = elaborate_src(R"(
        module M(input wire clk, output wire [7:0] o);
          reg [7:0] cnt = 0;
          always @(posedge clk) cnt <= cnt + 1;
          assign o = cnt;
        endmodule
    )");
    CompileOptions opts;
    opts.effort = 0.1;
    auto result = compile(*em, opts);
    ASSERT_TRUE(result.ok) << result.error;
    FpgaDevice dev;
    const Verdict v = dev.admit(result);
    ASSERT_TRUE(v.ok) << v.error;
    Bitstream fabric(result.netlist);
    for (int i = 0; i < 5; ++i) {
        fabric.set_input("clk", BitVector(1, 1));
        fabric.step();
        fabric.set_input("clk", BitVector(1, 0));
        fabric.step();
    }
    EXPECT_EQ(fabric.output("o").to_uint64(), 5u);
}

// ---------------------------------------------------------------------
// FpgaDevice::admit: one test per verdict
// ---------------------------------------------------------------------

/// A successful compile of the given area that met timing, without
/// running the flow.
CompileResult
finished(uint64_t les, uint64_t bram_bits)
{
    CompileResult result;
    result.ok = true;
    result.report.area.les = les;
    result.report.area.bram_bits = bram_bits;
    result.report.timing.met = true;
    result.report.timing.fmax_mhz = 300.0;
    return result;
}

TEST(Admit, FailedCompileKeepsItsError)
{
    CompileResult result = finished(10, 0);
    result.ok = false;
    result.error = "synthesis failed:\nno driver";
    const Verdict v = FpgaDevice().admit(result, 1, 1);
    EXPECT_FALSE(v.ok);
    EXPECT_EQ(v.error, "synthesis failed:\nno driver");
}

TEST(Admit, LeQuotaIsCheckedBeforeTheDevice)
{
    // Over both the quota and the device: the quota speaks.
    const FpgaDevice dev(/*les=*/100, /*bram_bits=*/1000, 50.0);
    const Verdict v = dev.admit(finished(200, 0), /*le_quota=*/150, 0);
    EXPECT_FALSE(v.ok);
    EXPECT_EQ(v.error, "tenant LE quota exceeded: needs 200 LEs, quota 150");
    EXPECT_TRUE(dev.admit(finished(100, 0), /*le_quota=*/100, 0).ok);
}

TEST(Admit, BramQuota)
{
    const FpgaDevice dev(/*les=*/1000, /*bram_bits=*/1000, 50.0);
    const Verdict v = dev.admit(finished(10, 512), 0, /*bram_quota=*/256);
    EXPECT_FALSE(v.ok);
    EXPECT_EQ(v.error,
              "tenant BRAM quota exceeded: needs 512 bits, quota 256");
    EXPECT_TRUE(dev.admit(finished(10, 256), 0, /*bram_quota=*/256).ok);
}

TEST(Admit, DeviceFit)
{
    telemetry::Counter* rejected =
        telemetry::Registry::global().counter("fpga.program.rejected_fit");
    const uint64_t before = rejected->value();
    const FpgaDevice dev(/*les=*/100, /*bram_bits=*/1000, 50.0);
    Verdict v = dev.admit(finished(101, 16));
    EXPECT_FALSE(v.ok);
    EXPECT_EQ(v.error, "design does not fit: needs 101 LEs / 16 BRAM bits");
    v = dev.admit(finished(10, 1001));
    EXPECT_FALSE(v.ok);
    EXPECT_EQ(v.error, "design does not fit: needs 10 LEs / 1001 BRAM bits");
    EXPECT_EQ(rejected->value(), before + 2);
    EXPECT_TRUE(dev.admit(finished(100, 1000)).ok);
    EXPECT_EQ(rejected->value(), before + 2);
}

TEST(Admit, TimingMetRunsAtTheDeviceClock)
{
    const FpgaDevice dev(/*les=*/1000, /*bram_bits=*/1000, 75.0);
    const Verdict v = dev.admit(finished(10, 0));
    ASSERT_TRUE(v.ok) << v.error;
    EXPECT_TRUE(v.error.empty());
    EXPECT_EQ(v.clock_mhz, 75.0);
}

TEST(Admit, TimingMissedRunsAtNinetyPercentOfFmax)
{
    // A design that misses timing is not rejected: it runs PLL-clocked
    // below its achieved Fmax.
    auto em = elaborate_src(R"(
        module M(input wire clk, input wire [63:0] a,
                 output wire [63:0] o);
          reg [63:0] r = 0;
          always @(posedge clk) r <= (a * a) / (a + 1);
          assign o = r;
        endmodule
    )");
    CompileOptions opts;
    opts.effort = 0.1;
    opts.target_clock_mhz = 2000.0; // absurd target
    auto result = compile(*em, opts);
    ASSERT_TRUE(result.ok);
    ASSERT_FALSE(result.report.timing.met);
    const FpgaDevice dev(110000, 11000000, opts.target_clock_mhz);
    const Verdict v = dev.admit(result);
    ASSERT_TRUE(v.ok) << v.error;
    EXPECT_EQ(v.clock_mhz, result.report.timing.fmax_mhz * 0.9);
    EXPECT_LT(v.clock_mhz, result.report.timing.fmax_mhz);
}

} // namespace
} // namespace cascade::fpga
