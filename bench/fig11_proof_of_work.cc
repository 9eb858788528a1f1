/// \file
/// Figure 11: proof-of-work performance over time for three toolchains.
///
/// Paper result: iVerilog starts in <1 s but plateaus at ~650 Hz; Quartus
/// produces nothing until compilation finishes (~600 s) and then runs at
/// the native 50 MHz; Cascade starts in <1 s, simulates ~2.4x faster than
/// iVerilog, and after background compilation reaches a virtual clock
/// within ~2.9x of native. Our timeline is ~60x shorter than the paper's
/// (the simulated toolchain compiles this miner in seconds, not minutes);
/// the shape — who wins, where the crossover lands — is the claim.
///
/// Output: CSV rows "series,time_s,virtual_hz". The cascade run also
/// writes a machine-readable telemetry sidecar
/// (fig11_proof_of_work.stats.json: per-phase compile timings, scheduler
/// and engine counters, the sw->hw transition log), a Chrome
/// trace_event dump (fig11_proof_of_work.trace.json), and a headline
/// result file (BENCH_fig11_proof_of_work.json: final rates per series,
/// adoption status, the source-level profile) next to wherever the bench
/// is invoked from. CI's smoke-bench job uploads all three.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>

#include "fpga/compile.h"
#include "runtime/runtime.h"
#include "telemetry/trace.h"
#include "verilog/parser.h"
#include "workloads/workloads.h"

using cascade::runtime::Runtime;

namespace {

constexpr uint32_t kDifficulty = 16;
constexpr double kComplexityBoost = 1.0; // effort for the real compile

double
now_s()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// Headline numbers one series ends with (for the BENCH result file).
struct SeriesResult {
    double wall_seconds = 0;
    double final_hz = 0;
    uint64_t virtual_ticks = 0;
    bool adopted = false;
    std::string profile_json;
};

/// Samples virtual-clock rate over wall time for a runtime configuration.
/// When \p stats_sidecar is non-null, the runtime's final stats_json()
/// snapshot is written there.
void
run_series(const char* name, Runtime::Options options, double duration_s,
           bool stop_after_hw, const char* stats_sidecar = nullptr,
           SeriesResult* result = nullptr)
{
    Runtime rt(options);
    rt.on_output = [](const std::string&) {};
    std::string errors;
    if (!rt.eval(cascade::workloads::proof_of_work_source(kDifficulty),
                 &errors)) {
        std::fprintf(stderr, "%s: eval failed: %s\n", name,
                     errors.c_str());
        return;
    }
    const double t0 = now_s();
    double last_sample = t0;
    uint64_t last_ticks = 0;
    int hw_samples = 0;
    double last_hz = 0;
    while (now_s() - t0 < duration_s) {
        if (rt.hardware_ready()) {
            // Hardware phase: the rate is the modeled virtual timeline.
            const uint64_t ticks0 = rt.virtual_ticks();
            const double tl0 = rt.timeline_seconds();
            rt.run(8);
            const uint64_t dticks = rt.virtual_ticks() - ticks0;
            const double dtl = rt.timeline_seconds() - tl0;
            if (dtl > 0 && dticks > 0) {
                last_hz = static_cast<double>(dticks) / dtl;
                std::printf("%s,%.2f,%.1f\n", name, now_s() - t0,
                            last_hz);
                ++hw_samples;
            }
            if (stop_after_hw && hw_samples >= 5) {
                break;
            }
            continue;
        }
        // One iteration at a time, sampled after each: adoption lands
        // inside a run() call, and the rest of a longer call would run
        // unsampled on the fabric. On the JIT rung one iteration is an
        // open-loop grant of up to ~1 s.
        rt.run(1);
        const double t = now_s();
        if (t - last_sample >= 0.25 && !rt.hardware_ready()) {
            const uint64_t ticks = rt.virtual_ticks();
            last_hz = static_cast<double>(ticks - last_ticks) /
                      (t - last_sample);
            std::printf("%s,%.2f,%.1f\n", name, t - t0, last_hz);
            last_ticks = ticks;
            last_sample = t;
        }
    }
    if (result != nullptr) {
        result->wall_seconds = now_s() - t0;
        result->final_hz = last_hz;
        result->virtual_ticks = rt.virtual_ticks();
        result->adopted = rt.hardware_ready();
        result->profile_json = rt.profiler().profile_json();
    }
    if (stats_sidecar != nullptr) {
        std::ofstream sidecar(stats_sidecar);
        sidecar << rt.stats_json() << '\n';
        std::fprintf(stderr, "# %s: stats sidecar -> %s\n", name,
                     stats_sidecar);
    }
}

} // namespace

int
main()
{
    const double bench_t0 = now_s();
    std::printf("series,time_s,virtual_hz\n");
    double quartus_compile_s = 0;
    double quartus_native_hz = 0;
    uint64_t quartus_les = 0;

    // "Quartus": direct compilation of the design as written; nothing runs
    // until the toolchain finishes, then the native clock rate applies.
    {
        cascade::Diagnostics diags;
        auto unit = cascade::verilog::parse(
            cascade::workloads::proof_of_work_module(kDifficulty), &diags);
        cascade::verilog::Elaborator elab(&diags);
        auto em = elab.elaborate(*unit.modules[0]);
        const double t0 = now_s();
        cascade::fpga::CompileOptions copts;
        copts.effort = kComplexityBoost;
        auto result = cascade::fpga::compile(*em, copts);
        const double compile_s = now_s() - t0;
        std::printf("quartus,%.2f,%.1f\n", compile_s * 0.5, 0.0);
        const double native_hz =
            std::min(50.0, result.report.timing.fmax_mhz) * 1e6;
        std::printf("quartus,%.2f,%.1f\n", compile_s, native_hz);
        std::printf("quartus,%.2f,%.1f\n", compile_s + 2.0, native_hz);
        std::fprintf(stderr,
                     "# quartus compile: %.2f s, %llu LEs, Fmax %.1f MHz\n",
                     compile_s,
                     static_cast<unsigned long long>(
                         result.report.area.les),
                     result.report.timing.fmax_mhz);
        quartus_compile_s = compile_s;
        quartus_native_hz = native_hz;
        quartus_les = result.report.area.les;
    }

    // "iVerilog": software simulation only, forever.
    SeriesResult iverilog;
    {
        Runtime::Options opts;
        opts.enable_hardware = false;
        run_series("iverilog", opts, 4.0, false, nullptr, &iverilog);
    }

    // Cascade: the full JIT. Smaller open-loop batches keep the wall cost
    // of simulating the fabric manageable on small hosts; the modeled
    // virtual rate is batch-size independent once batches amortize the
    // re-arm MMIO.
    SeriesResult casc;
    {
        Runtime::Options opts;
        opts.compile_effort = kComplexityBoost;
        run_series("cascade", opts, 150.0, true,
                   "fig11_proof_of_work.stats.json", &casc);
        cascade::telemetry::Tracer::global().write_chrome_json(
            "fig11_proof_of_work.trace.json");
        std::fprintf(stderr,
                     "# trace -> fig11_proof_of_work.trace.json\n");
    }

    // Headline result file (BENCH_*.json: what CI and regression diffing
    // consume; the CSV stream above stays the plotting source).
    {
        char buf[512];
        std::ofstream out("BENCH_fig11_proof_of_work.json");
        std::snprintf(
            buf, sizeof buf,
            "{\"schema\":\"cascade.bench.v1\","
            "\"bench\":\"fig11_proof_of_work\",\"wall_seconds\":%.3f,"
            "\"quartus\":{\"compile_seconds\":%.3f,\"native_hz\":%.1f,"
            "\"les\":%llu},"
            "\"iverilog\":{\"final_virtual_hz\":%.1f,"
            "\"virtual_ticks\":%llu},"
            "\"cascade\":{\"adopted\":%s,\"final_virtual_hz\":%.1f,"
            "\"virtual_ticks\":%llu,\"speedup_vs_iverilog\":%.2f},",
            now_s() - bench_t0, quartus_compile_s, quartus_native_hz,
            static_cast<unsigned long long>(quartus_les),
            iverilog.final_hz,
            static_cast<unsigned long long>(iverilog.virtual_ticks),
            casc.adopted ? "true" : "false", casc.final_hz,
            static_cast<unsigned long long>(casc.virtual_ticks),
            iverilog.final_hz > 0 ? casc.final_hz / iverilog.final_hz
                                  : 0.0);
        out << buf << "\"profile\":"
            << (casc.profile_json.empty() ? "null" : casc.profile_json)
            << "}\n";
        std::fprintf(stderr,
                     "# results -> BENCH_fig11_proof_of_work.json\n");
    }
    return 0;
}
