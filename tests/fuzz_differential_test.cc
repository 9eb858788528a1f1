/// \file
/// Randomized differential testing: generate random (but well-formed)
/// Verilog modules, run the reference interpreter and the synthesized
/// levelized netlist side by side under random stimulus, and require
/// bit-identical outputs. This is the deepest correctness check in the
/// repository: it pins the interpreter, the synthesizer, the constant
/// folder, the canonicalizer, and the bitstream evaluator to one another.

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "fpga/bitstream.h"
#include "fpga/synth.h"
#include "sim/interpreter.h"
#include "telemetry/journal.h"
#include "verilog/parser.h"

namespace cascade {
namespace {

using namespace verilog;

class ExprGen {
  public:
    ExprGen(std::mt19937_64* rng, std::vector<std::string> leaves)
        : rng_(rng), leaves_(std::move(leaves))
    {}

    std::string
    gen(int depth)
    {
        if (depth <= 0 || pick(4) == 0) {
            return leaf();
        }
        switch (pick(12)) {
          case 0:
            return "(" + gen(depth - 1) + " + " + gen(depth - 1) + ")";
          case 1:
            return "(" + gen(depth - 1) + " - " + gen(depth - 1) + ")";
          case 2:
            return "(" + gen(depth - 1) + " * " + gen(depth - 1) + ")";
          case 3:
            return "(" + gen(depth - 1) + " ^ " + gen(depth - 1) + ")";
          case 4:
            return "(" + gen(depth - 1) + " & " + gen(depth - 1) + ")";
          case 5:
            return "(" + gen(depth - 1) + " | " + gen(depth - 1) + ")";
          case 6:
            return "(~" + gen(depth - 1) + ")";
          case 7:
            return "(" + gen(depth - 1) + " >> " +
                   std::to_string(pick(9)) + ")";
          case 8:
            return "(" + gen(depth - 1) + " << " +
                   std::to_string(pick(9)) + ")";
          case 9:
            return "((" + gen(depth - 1) + " < " + gen(depth - 1) +
                   ") ? " + gen(depth - 1) + " : " + gen(depth - 1) + ")";
          case 10:
            // Selects only apply to names in Verilog.
            return "{" + var_leaf() + "[3:0], " + var_leaf() + "[7:4]}";
          default:
            return "(" + gen(depth - 1) + " == " + gen(depth - 1) + ")";
        }
    }

  private:
    uint32_t pick(uint32_t n) { return static_cast<uint32_t>((*rng_)() % n); }

    std::string
    var_leaf()
    {
        return leaves_[pick(static_cast<uint32_t>(leaves_.size()))];
    }

    std::string
    leaf()
    {
        if (pick(3) == 0) {
            return std::to_string(pick(2) ? 8 : 16) + "'d" +
                   std::to_string(pick(1000));
        }
        return leaves_[pick(static_cast<uint32_t>(leaves_.size()))];
    }

    std::mt19937_64* rng_;
    std::vector<std::string> leaves_;
};

/// Generates one random module: 3 inputs, a few comb wires, a couple of
/// registers with random next-state logic, and outputs tapping everything.
std::string
gen_module(uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::ostringstream src;
    src << "module F(input wire clk, input wire [7:0] a, "
           "input wire [7:0] b, input wire [7:0] c,\n"
           "         output wire [7:0] o0, output wire [7:0] o1, "
           "output wire [7:0] o2);\n";
    ExprGen comb_gen(&rng, {"a", "b", "c"});
    src << "  wire [7:0] w0;\n  wire [7:0] w1;\n";
    src << "  assign w0 = " << comb_gen.gen(3) << ";\n";
    ExprGen comb_gen2(&rng, {"a", "b", "c", "w0"});
    src << "  assign w1 = " << comb_gen2.gen(3) << ";\n";
    src << "  reg [7:0] r0 = " << (rng() % 256) << ";\n";
    src << "  reg [7:0] r1 = " << (rng() % 256) << ";\n";
    ExprGen seq_gen(&rng, {"a", "b", "c", "w0", "w1", "r0", "r1"});
    src << "  always @(posedge clk) begin\n";
    src << "    r0 <= " << seq_gen.gen(3) << ";\n";
    if (rng() % 2 == 0) {
        src << "    if (" << seq_gen.gen(2) << ")\n";
        src << "      r1 <= " << seq_gen.gen(2) << ";\n";
    } else {
        src << "    case (" << seq_gen.gen(1) << ")\n";
        src << "      8'd0: r1 <= " << seq_gen.gen(2) << ";\n";
        src << "      8'd1, 8'd2: r1 <= " << seq_gen.gen(2) << ";\n";
        src << "      default: r1 <= " << seq_gen.gen(2) << ";\n";
        src << "    endcase\n";
    }
    src << "  end\n";
    src << "  assign o0 = w0 ^ w1;\n";
    src << "  assign o1 = r0;\n";
    src << "  assign o2 = r1 + w0;\n";
    src << "endmodule\n";
    return src.str();
}

/// Cap on retained repro bundles: an unattended fuzz loop (or a broken
/// build failing every seed) would otherwise grow repro/ without bound.
constexpr size_t kMaxRepros = 20;

/// Keeps only the newest kMaxRepros .v/.jsonl bundles under repro/ (by
/// file mtime, the fuzzer's discovery order). Every dropped bundle is
/// recorded in \p journal as a `repro.pruned` event, so the ring that
/// ships with the surviving repro says what was discarded and when.
void
prune_repros(telemetry::Journal* journal)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    std::vector<std::pair<fs::file_time_type, fs::path>> bundles;
    for (const auto& entry : fs::directory_iterator("repro", ec)) {
        if (entry.path().extension() == ".v") {
            bundles.emplace_back(fs::last_write_time(entry.path(), ec),
                                 entry.path());
        }
    }
    if (bundles.size() <= kMaxRepros) {
        return;
    }
    std::sort(bundles.begin(), bundles.end()); // oldest first
    const size_t excess = bundles.size() - kMaxRepros;
    for (size_t i = 0; i < excess; ++i) {
        fs::path verilog = bundles[i].second;
        fs::path ring = verilog;
        ring.replace_extension(".jsonl");
        fs::remove(verilog, ec);
        fs::remove(ring, ec);
        journal->record("repro.pruned",
                        JsonWriter()
                            .str("file", verilog.filename().string())
                            .num("kept", kMaxRepros)
                            .build());
    }
}

/// On a mismatch, preserves everything needed to reproduce the failure
/// offline: the generated module and a `cascade.events.v1` journal of the
/// stimulus that exposed it, under repro/ in the test's working directory
/// (build/tests/repro under ctest; CI uploads it as an artifact).
std::string
write_repro(uint64_t seed, const std::string& src,
            telemetry::Journal* journal)
{
    std::error_code ec;
    std::filesystem::create_directories("repro", ec);
    const std::string base = "repro/fuzz_" + std::to_string(seed);
    std::ofstream(base + ".v") << src;
    // Prune after writing so the fresh bundle is the newest of the
    // survivors, then dump the ring (which now also carries any
    // repro.pruned events from this pass).
    prune_repros(journal);
    std::string err;
    journal->write_ring(base + ".jsonl",
                        JsonWriter()
                            .str("kind", "fuzz_differential")
                            .num("seed", seed)
                            .build(),
                        &err);
    return base;
}

class FuzzDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzDifferential, InterpreterMatchesNetlist)
{
    const std::string src = gen_module(GetParam());
    Diagnostics diags;
    SourceUnit unit = parse(src, &diags);
    ASSERT_FALSE(diags.has_errors()) << diags.str() << "\n" << src;
    Elaborator elab(&diags);
    std::shared_ptr<const ElaboratedModule> em(
        elab.elaborate(*unit.modules[0]));
    ASSERT_NE(em, nullptr) << diags.str() << "\n" << src;

    auto nl = fpga::synthesize(*em, &diags);
    ASSERT_NE(nl, nullptr) << diags.str() << "\n" << src;
    fpga::Bitstream hw(std::shared_ptr<const fpga::Netlist>(std::move(nl)));

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

    // Every cycle's stimulus goes into a journal ring large enough to
    // hold the whole run, so a mismatch ships with its full history.
    telemetry::Journal journal(256);
    std::mt19937_64 stim(GetParam() * 977 + 3);
    for (int cycle = 0; cycle < 60; ++cycle) {
        JsonWriter inputs;
        inputs.num("cycle", static_cast<uint64_t>(cycle));
        for (const char* in : {"a", "b", "c"}) {
            const BitVector v(8, stim());
            sw.set_input(in, v);
            hw.set_input(in, v);
            inputs.num(in, v.to_uint64());
        }
        journal.record("fuzz.input", inputs.build());
        settle();
        hw.eval_comb();
        sw.set_input("clk", BitVector(1, 1));
        settle();
        hw.set_input("clk", BitVector(1, 1));
        hw.step();
        sw.set_input("clk", BitVector(1, 0));
        settle();
        hw.set_input("clk", BitVector(1, 0));
        hw.step();
        for (const char* out : {"o0", "o1", "o2"}) {
            if (sw.get(out) == hw.output(out)) {
                continue;
            }
            journal.record("fuzz.mismatch",
                           JsonWriter()
                               .num("cycle", static_cast<uint64_t>(cycle))
                               .str("output", out)
                               .num("sw", sw.get(out).to_uint64())
                               .num("hw", hw.output(out).to_uint64())
                               .build());
            const std::string base =
                write_repro(GetParam(), src, &journal);
            FAIL() << "cycle " << cycle << " output " << out << ": sw="
                   << sw.get(out).to_uint64()
                   << " hw=" << hw.output(out).to_uint64()
                   << "\nrepro artifacts: " << base << ".v and " << base
                   << ".jsonl\nre-run just this seed with:\n"
                   << "  ./fuzz_differential_test --gtest_filter="
                   << "'Seeds/FuzzDifferential.InterpreterMatchesNetlist/"
                   << (GetParam() - 1) << "'\nmodule:\n"
                   << src;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDifferential,
                         ::testing::Range<uint64_t>(1, 41));

/// The repro directory is bounded: seed it past the cap, prune, and
/// exactly kMaxRepros bundles survive -- the newest ones -- with every
/// eviction journaled as repro.pruned.
TEST(ReproPrune, KeepsNewestBundles)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::remove_all("repro", ec);
    fs::create_directories("repro", ec);

    // Seed kMaxRepros + 5 bundles with strictly increasing mtimes
    // (explicit timestamps: no sleeping on filesystem granularity).
    const auto now = fs::file_time_type::clock::now();
    for (size_t i = 0; i < kMaxRepros + 5; ++i) {
        const std::string base = "repro/fuzz_" + std::to_string(9000 + i);
        std::ofstream(base + ".v") << "// seeded bundle\n";
        std::ofstream(base + ".jsonl") << "{}\n";
        fs::last_write_time(base + ".v",
                            now - std::chrono::seconds(1000 - i), ec);
    }

    telemetry::Journal journal(64);
    prune_repros(&journal);

    size_t survivors = 0;
    bool oldest_gone = true;
    for (const auto& entry : fs::directory_iterator("repro", ec)) {
        if (entry.path().extension() != ".v") {
            continue;
        }
        ++survivors;
        const std::string name = entry.path().filename().string();
        // The five oldest (9000..9004) must be the ones evicted.
        for (size_t i = 0; i < 5; ++i) {
            if (name == "fuzz_" + std::to_string(9000 + i) + ".v") {
                oldest_gone = false;
            }
        }
    }
    EXPECT_EQ(survivors, kMaxRepros);
    EXPECT_TRUE(oldest_gone);

    // The evictions are on the record: dump the ring and count them.
    const std::string ring_path = "repro/prune_audit.jsonl";
    std::string err;
    ASSERT_TRUE(journal.write_ring(ring_path, "{}", &err)) << err;
    std::ifstream in(ring_path);
    std::string line;
    size_t pruned_events = 0;
    while (std::getline(in, line)) {
        if (line.find("\"repro.pruned\"") != std::string::npos) {
            ++pruned_events;
        }
    }
    EXPECT_EQ(pruned_events, 5u);

    fs::remove_all("repro", ec);
}

} // namespace
} // namespace cascade
