/// \file
/// Google-benchmark micro suite for the substrate hot paths: BitVector
/// arithmetic, interpreter scheduling, levelized bitstream evaluation, the
/// JIT kernel, the wrapped design each hardware rung runs open loop, and
/// the placement an edit on the fabric rung waits for.
/// These are the quantities the macro benches (Figs. 11/12) are built from.

#include <benchmark/benchmark.h>

#include <mutex>

#include "fpga/bitstream.h"
#include "fpga/place.h"
#include "fpga/synth.h"
#include "ir/hw_wrapper.h"
#include "jit/jit_cache.h"
#include "jit/jit_kernel.h"
#include "runtime/hw_engine.h"
#include "runtime/runtime.h"
#include "sim/interpreter.h"
#include "telemetry/sync.h"
#include "verilog/parser.h"
#include "workloads/workloads.h"

namespace {

using namespace cascade;

void
BM_BitVectorAdd(benchmark::State& state)
{
    const uint32_t w = static_cast<uint32_t>(state.range(0));
    BitVector a = BitVector::all_ones(w);
    BitVector b(w, 12345);
    for (auto _ : state) {
        benchmark::DoNotOptimize(BitVector::add(a, b));
    }
}
BENCHMARK(BM_BitVectorAdd)->Arg(8)->Arg(32)->Arg(64)->Arg(256);

void
BM_BitVectorMul(benchmark::State& state)
{
    const uint32_t w = static_cast<uint32_t>(state.range(0));
    BitVector a = BitVector::all_ones(w);
    BitVector b(w, 98765);
    for (auto _ : state) {
        benchmark::DoNotOptimize(BitVector::mul(a, b));
    }
}
BENCHMARK(BM_BitVectorMul)->Arg(32)->Arg(256);

std::shared_ptr<const verilog::ElaboratedModule>
counter_module()
{
    static std::shared_ptr<const verilog::ElaboratedModule> em = [] {
        Diagnostics diags;
        auto unit = verilog::parse(R"(
            module M(input wire clk, output wire [31:0] o);
              reg [31:0] cnt = 0;
              always @(posedge clk) cnt <= cnt * 3 + 1;
              assign o = cnt ^ (cnt >> 7);
            endmodule
        )", &diags);
        verilog::Elaborator elab(&diags);
        return std::shared_ptr<const verilog::ElaboratedModule>(
            elab.elaborate(*unit.modules[0]));
    }();
    return em;
}

void
BM_InterpreterTick(benchmark::State& state)
{
    sim::ModuleInterpreter interp(counter_module(), nullptr);
    interp.run_initials();
    bool level = false;
    for (auto _ : state) {
        level = !level;
        interp.set_input("clk", BitVector(1, level ? 1 : 0));
        interp.evaluate();
        if (interp.there_are_updates()) {
            interp.update();
        }
        interp.evaluate();
    }
}
BENCHMARK(BM_InterpreterTick);

/// Same loop with the source-level profiler toggled by the benchmark arg.
/// Arg(0) vs Arg(1) vs BM_InterpreterTick is the acceptance check that
/// disabled profiling costs nothing on the interpreter hot path (counts
/// are always kept; only the per-process clock reads are gated).
void
BM_InterpreterTickProfiling(benchmark::State& state)
{
    sim::ModuleInterpreter interp(counter_module(), nullptr);
    interp.set_profiling(state.range(0) != 0);
    interp.run_initials();
    bool level = false;
    for (auto _ : state) {
        level = !level;
        interp.set_input("clk", BitVector(1, level ? 1 : 0));
        interp.evaluate();
        if (interp.there_are_updates()) {
            interp.update();
        }
        interp.evaluate();
    }
}
BENCHMARK(BM_InterpreterTickProfiling)->Arg(0)->Arg(1);

void
BM_BitstreamCycle(benchmark::State& state)
{
    Diagnostics diags;
    auto nl = fpga::synthesize(*counter_module(), &diags);
    fpga::Bitstream bs(std::shared_ptr<const fpga::Netlist>(std::move(nl)));
    bool level = false;
    for (auto _ : state) {
        level = !level;
        bs.set_input("clk", BitVector(1, level ? 1 : 0));
        bs.step();
    }
}
BENCHMARK(BM_BitstreamCycle);

/// The same netlist through the native-code JIT tier. The acceptance
/// gate for the tier (EXPERIMENTS.md) is >=10x over BM_BitstreamCycle:
/// levelized dispatch, BitVector boxing, and per-cell virtual calls all
/// compile away. Skips when no system compiler is usable.
void
BM_JitCycle(benchmark::State& state)
{
    if (!jit::compiler_available()) {
        state.SkipWithError("no system compiler; JIT tier unavailable");
        return;
    }
    Diagnostics diags;
    auto nl = fpga::synthesize(*counter_module(), &diags);
    std::shared_ptr<const fpga::Netlist> shared(std::move(nl));
    std::string error;
    auto kern = jit::JitKernel::create(shared, &error);
    if (kern == nullptr) {
        state.SkipWithError(("jit build failed: " + error).c_str());
        return;
    }
    bool level = false;
    for (auto _ : state) {
        level = !level;
        kern->set_input("clk", BitVector(1, level ? 1 : 0));
        kern->step();
    }
}
BENCHMARK(BM_JitCycle);

/// BM_JitCycle through the raw-word calls the hardware engine drives its
/// AXI pins with: the clock's port index is resolved once and its level
/// passed as a word, so no BitVector is built and no name looked up.
void
BM_JitCycleRaw(benchmark::State& state)
{
    if (!jit::compiler_available()) {
        state.SkipWithError("no system compiler; JIT tier unavailable");
        return;
    }
    Diagnostics diags;
    auto nl = fpga::synthesize(*counter_module(), &diags);
    std::shared_ptr<const fpga::Netlist> shared(std::move(nl));
    std::string error;
    auto kern = jit::JitKernel::create(shared, &error);
    if (kern == nullptr) {
        state.SkipWithError(("jit build failed: " + error).c_str());
        return;
    }
    const int clk = kern->input_index("clk");
    uint64_t level = 0;
    for (auto _ : state) {
        level ^= 1;
        kern->set_input_word(clk, level);
        kern->step();
    }
}
BENCHMARK(BM_JitCycleRaw);

/// Fabric-activity counters toggled by the benchmark arg; Arg(0) must
/// match BM_BitstreamCycle (the instrumented eval is a separate twin, so
/// the disabled path carries no per-cell bookkeeping).
void
BM_BitstreamCycleProfiling(benchmark::State& state)
{
    Diagnostics diags;
    auto nl = fpga::synthesize(*counter_module(), &diags);
    fpga::Bitstream bs(std::shared_ptr<const fpga::Netlist>(std::move(nl)));
    bs.set_profiling(state.range(0) != 0);
    bool level = false;
    for (auto _ : state) {
        level = !level;
        bs.set_input("clk", BitVector(1, level ? 1 : 0));
        bs.step();
    }
}
BENCHMARK(BM_BitstreamCycleProfiling)->Arg(0)->Arg(1);

void
BM_ShaBitstreamCycle(benchmark::State& state)
{
    Diagnostics diags;
    auto unit = verilog::parse(workloads::proof_of_work_module(16), &diags);
    verilog::Elaborator elab(&diags);
    std::shared_ptr<const verilog::ElaboratedModule> em(
        elab.elaborate(*unit.modules[0]));
    auto nl = fpga::synthesize(*em, &diags);
    fpga::Bitstream bs(std::shared_ptr<const fpga::Netlist>(std::move(nl)));
    bool level = false;
    for (auto _ : state) {
        level = !level;
        bs.set_input("clk", BitVector(1, level ? 1 : 0));
        bs.step();
    }
}
BENCHMARK(BM_ShaBitstreamCycle);

/// The SHA round datapath through the JIT tier — the wide-datapath
/// counterpart of BM_JitCycle (compare against BM_ShaBitstreamCycle).
void
BM_ShaJitCycle(benchmark::State& state)
{
    if (!jit::compiler_available()) {
        state.SkipWithError("no system compiler; JIT tier unavailable");
        return;
    }
    Diagnostics diags;
    auto unit = verilog::parse(workloads::proof_of_work_module(16), &diags);
    verilog::Elaborator elab(&diags);
    std::shared_ptr<const verilog::ElaboratedModule> em(
        elab.elaborate(*unit.modules[0]));
    auto nl = fpga::synthesize(*em, &diags);
    std::shared_ptr<const fpga::Netlist> shared(std::move(nl));
    std::string error;
    auto kern = jit::JitKernel::create(shared, &error);
    if (kern == nullptr) {
        state.SkipWithError(("jit build failed: " + error).c_str());
        return;
    }
    bool level = false;
    for (auto _ : state) {
        level = !level;
        kern->set_input("clk", BitVector(1, level ? 1 : 0));
        kern->step();
    }
}
BENCHMARK(BM_ShaJitCycle);

/// A design inside the Fig. 10 MMIO wrapper, synthesized: the netlist the
/// JIT and fabric rungs actually run.
struct WrappedDesign {
    std::shared_ptr<const fpga::Netlist> netlist;
    ir::WrapperMap map;
};

/// Wraps module \p src (open-loop clock "clk") and synthesizes it.
WrappedDesign
wrap_design(const std::string& src)
{
    Diagnostics diags;
    auto unit = verilog::parse(src, &diags);
    verilog::Elaborator elab(&diags);
    auto em = elab.elaborate(*unit.modules[0]);
    WrappedDesign out;
    auto wrapper = ir::generate_hw_wrapper(*em, "clk", &out.map, &diags);
    auto wrapped = elab.elaborate(*wrapper);
    out.netlist = fpga::synthesize(*wrapped, &diags);
    return out;
}

/// The miner above, wrapped.
const WrappedDesign&
wrapped_sha()
{
    static const WrappedDesign w =
        wrap_design(workloads::proof_of_work_module(16));
    return w;
}

/// Times HwEngine::open_loop over \p fabric in grants of 64 design clock
/// ticks; the tick_s counter is wall time per tick (two fabric cycles).
void
run_wrapped_open_loop(benchmark::State& state,
                      std::unique_ptr<fpga::FabricExec> fabric)
{
    const WrappedDesign& w = wrapped_sha();
    runtime::HwEngine eng(std::move(fabric), w.map, {"clk", "led_val"},
                          {true, false}, nullptr, 50.0, 0.0);
    uint64_t ticks = 0;
    for (auto _ : state) {
        ticks += eng.open_loop(64);
    }
    state.counters["tick_s"] = benchmark::Counter(
        static_cast<double>(ticks),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void
BM_WrappedShaBitstreamOpenLoopCycle(benchmark::State& state)
{
    run_wrapped_open_loop(
        state, std::make_unique<fpga::Bitstream>(wrapped_sha().netlist));
}
BENCHMARK(BM_WrappedShaBitstreamOpenLoopCycle);

void
BM_WrappedShaJitOpenLoopCycle(benchmark::State& state)
{
    if (!jit::compiler_available()) {
        state.SkipWithError("no system compiler; JIT tier unavailable");
        return;
    }
    std::string error;
    auto kern = jit::JitKernel::create(wrapped_sha().netlist, &error);
    if (kern == nullptr) {
        state.SkipWithError(("jit build failed: " + error).c_str());
        return;
    }
    run_wrapped_open_loop(state, std::move(kern));
}
BENCHMARK(BM_WrappedShaJitOpenLoopCycle);

/// Anneals the wrapped miner at effort 0.05, the effort perfbench's fabric
/// rung compiles at: the edit cost of that rung. moves_s is anneal moves
/// per wall second.
void
BM_PlaceWrappedSha(benchmark::State& state)
{
    const fpga::MappedDesign mapped =
        fpga::technology_map(*wrapped_sha().netlist);
    fpga::PlaceOptions opts;
    opts.effort = 0.05;
    uint64_t moves = 0;
    for (auto _ : state) {
        const fpga::PlacementResult r = fpga::place(mapped, opts);
        benchmark::DoNotOptimize(r.final_wirelength);
        moves += r.moves_evaluated;
    }
    state.counters["moves_s"] = benchmark::Counter(
        static_cast<double>(moves), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PlaceWrappedSha)->Unit(benchmark::kMillisecond);

/// The regex matcher reading a 256-entry FIFO ring in its own state, in
/// the Fig. 10 wrapper: the design the stream workload's kernel runs.
const WrappedDesign&
wrapped_regex()
{
    static const WrappedDesign w =
        wrap_design(workloads::regex_fifo_module());
    return w;
}

/// One host refill of the FIFO, as the runtime feeds it between grants
/// (read head and tail, store 256 bytes, advance tail), plus the grant of
/// 256 design ticks that drains it. Arg(1) stores the bytes in one span
/// (HwEngine::write_mem); Arg(0) writes each byte over MMIO, as the feed
/// did before the span write. byte_s is wall time per byte.
void
run_wrapped_refill(benchmark::State& state,
                   std::unique_ptr<fpga::FabricExec> fabric)
{
    const WrappedDesign& w = wrapped_regex();
    runtime::HwEngine eng(std::move(fabric), w.map, {"clk", "nhits"},
                          {true, false}, nullptr, 50.0, 0.0);
    const ir::VarSlot& mem = *eng.map().find("f__mem");
    const ir::VarSlot& head = *eng.map().find("f__head");
    const ir::VarSlot& tail = *eng.map().find("f__tail");
    std::vector<uint64_t> bytes(256);
    for (size_t i = 0; i < bytes.size(); ++i) {
        bytes[i] = "GET /index.html HTTP/1.1 "[i % 25];
    }
    const bool span = state.range(0) != 0;
    uint64_t fed = 0;
    for (auto _ : state) {
        const uint64_t h = eng.read_var(head).to_uint64();
        const uint64_t t = eng.read_var(tail).to_uint64();
        if (((t - h) & 511) != 0) {
            state.SkipWithError("grant did not drain the refill");
            break;
        }
        if (span) {
            eng.write_mem(mem, t & 255, bytes.data(), bytes.size());
        } else {
            for (size_t i = 0; i < bytes.size(); ++i) {
                eng.write_var(mem, BitVector(8, bytes[i]), (t + i) & 255);
            }
        }
        eng.write_var(tail, BitVector(9, (t + bytes.size()) & 511));
        eng.open_loop(2 * bytes.size());
        fed += bytes.size();
    }
    state.counters["byte_s"] = benchmark::Counter(
        static_cast<double>(fed),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void
BM_WrappedRegexBitstreamRefillCycle(benchmark::State& state)
{
    run_wrapped_refill(
        state, std::make_unique<fpga::Bitstream>(wrapped_regex().netlist));
}
BENCHMARK(BM_WrappedRegexBitstreamRefillCycle)->Arg(0)->Arg(1);

void
BM_WrappedRegexJitRefillCycle(benchmark::State& state)
{
    if (!jit::compiler_available()) {
        state.SkipWithError("no system compiler; JIT tier unavailable");
        return;
    }
    std::string error;
    auto kern = jit::JitKernel::create(wrapped_regex().netlist, &error);
    if (kern == nullptr) {
        state.SkipWithError(("jit build failed: " + error).c_str());
        return;
    }
    run_wrapped_refill(state, std::move(kern));
}
BENCHMARK(BM_WrappedRegexJitRefillCycle)->Arg(0)->Arg(1);

/// Uncontended lock/unlock cost of the raw std::mutex — the baseline for
/// BM_TelemetryMutexLockUnlock below.
void
BM_StdMutexLockUnlock(benchmark::State& state)
{
    std::mutex m;
    for (auto _ : state) {
        m.lock();
        benchmark::DoNotOptimize(&m);
        m.unlock();
    }
}
BENCHMARK(BM_StdMutexLockUnlock);

/// Instrumented wrapper on its uncontended fast path (try_lock success:
/// two relaxed counter bumps, an owner store, and two clock reads).
/// Compare against BM_StdMutexLockUnlock for the wrapper overhead.
void
BM_TelemetryMutexLockUnlock(benchmark::State& state)
{
    telemetry::Mutex m("bench.micro");
    for (auto _ : state) {
        m.lock();
        benchmark::DoNotOptimize(&m);
        m.unlock();
    }
}
BENCHMARK(BM_TelemetryMutexLockUnlock);

/// Runtime scheduler tick with the interactive debugger disarmed (0) vs
/// one armed-but-never-firing breakpoint (1). The disarmed cost is the
/// guarded fast path -- a single relaxed atomic load per inter-timestep
/// window -- so Arg(0) must sit within noise of a build that predates
/// the debugger entirely; Arg(1) prices the per-window condition sweep.
void
BM_RuntimeTickDebugger(benchmark::State& state)
{
    using cascade::runtime::Runtime;
    Runtime::Options opts;
    opts.enable_hardware = false;
    Runtime rt(opts);
    rt.on_output = [](const std::string&) {};
    std::string errors;
    rt.eval("reg [31:0] cnt = 0; "
            "always @(posedge clk.val) cnt <= cnt + 1;",
            &errors);
    if (state.range(0) != 0) {
        rt.debug_break("cnt", "==", "4000000000", &errors);
    }
    for (auto _ : state) {
        rt.run_for_ticks(1);
    }
}
BENCHMARK(BM_RuntimeTickDebugger)->Arg(0)->Arg(1);

void
BM_RuntimeEval(benchmark::State& state)
{
    using cascade::runtime::Runtime;
    for (auto _ : state) {
        Runtime::Options opts;
        opts.enable_hardware = false;
        Runtime rt(opts);
        std::string errors;
        benchmark::DoNotOptimize(rt.eval(
            "Led#(8) led(); reg [7:0] c = 0; "
            "always @(posedge clk.val) c <= c + 1; assign led.val = c;",
            &errors));
    }
}
BENCHMARK(BM_RuntimeEval);

} // namespace

BENCHMARK_MAIN();
