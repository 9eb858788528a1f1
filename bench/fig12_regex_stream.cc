/// \file
/// Figure 12: streaming regular-expression IO throughput over time.
///
/// Paper result: Cascade reaches 32 KIO/s in simulation immediately; in
/// the time Quartus needs to compile (9.5 min), Cascade transitions to
/// open-loop hardware and sustains 492 KIO/s vs. Quartus's 560 KIO/s —
/// both limited by the memory-mapped host-to-FPGA transport, processed one
/// byte at a time. Our MMIO model (1 us per transaction) produces the same
/// bus-bound plateau; Cascade pays a small extra head/tail-pointer sync
/// cost per batch, matching the paper's slight deficit.
///
/// Output: CSV rows "series,time_s,kio_per_s". The cascade run also
/// writes a machine-readable telemetry sidecar
/// (fig12_regex_stream.stats.json), a Chrome trace_event dump
/// (fig12_regex_stream.trace.json), and a headline result file
/// (BENCH_fig12_regex_stream.json) next to wherever the bench is invoked
/// from, matching fig11's artifacts. CI's smoke-bench job uploads all
/// three.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "fpga/compile.h"
#include "runtime/runtime.h"
#include "telemetry/trace.h"
#include "verilog/parser.h"
#include "workloads/workloads.h"

using cascade::runtime::Runtime;

namespace {

constexpr double kMmioLatency = 1e-6;

double
now_s()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::vector<uint8_t>
log_bytes(size_t n)
{
    static const std::string chunk = "GET /status x GET /api ";
    std::vector<uint8_t> out;
    out.reserve(n);
    while (out.size() < n) {
        out.insert(out.end(), chunk.begin(), chunk.end());
    }
    out.resize(n);
    return out;
}

} // namespace

int
main()
{
    const double bench_t0 = now_s();
    std::printf("series,time_s,kio_per_s\n");
    double quartus_compile_s = 0;
    double quartus_kio_result = 0;

    // "Quartus": the native design consumes one byte per MMIO write after
    // compilation completes; throughput is transport-bound.
    {
        cascade::Diagnostics diags;
        auto unit = cascade::verilog::parse(
            cascade::workloads::regex_stream_module(), &diags);
        cascade::verilog::Elaborator elab(&diags);
        auto em = elab.elaborate(*unit.modules[0]);
        const double t0 = now_s();
        cascade::fpga::CompileOptions copts;
        copts.effort = 1.0;
        auto result = cascade::fpga::compile(*em, copts);
        const double compile_s = now_s() - t0;
        // One byte = one 32-bit MMIO write plus ~12% framing overhead
        // (address setup, occasional status reads).
        const double quartus_kio = 1.0 / (kMmioLatency * 1.12) / 1e3;
        std::printf("quartus,%.2f,%.1f\n", compile_s * 0.5, 0.0);
        std::printf("quartus,%.2f,%.1f\n", compile_s, quartus_kio);
        std::printf("quartus,%.2f,%.1f\n", compile_s + 2.0, quartus_kio);
        std::fprintf(stderr, "# quartus compile: %.2f s (%llu LEs)\n",
                     compile_s,
                     static_cast<unsigned long long>(
                         result.report.area.les));
        quartus_compile_s = compile_s;
        quartus_kio_result = quartus_kio;
    }

    // Cascade: software engine first, open-loop hardware after the JIT.
    {
        Runtime::Options opts;
        opts.compile_effort = 1.0;
        opts.mmio_latency_s = kMmioLatency;
        // IO-bound: the 256-deep FIFO refills between batches, so short
        // batches maximize IO/s (the adaptive profiler's tradeoff).
        opts.open_loop_iterations = 1024;
        opts.open_loop_target_wall_s = 0.05;
        Runtime rt(opts);
        rt.on_output = [](const std::string&) {};
        std::string errors;
        if (!rt.eval(cascade::workloads::regex_stream_source(false),
                     &errors)) {
            std::fprintf(stderr, "eval failed: %s\n", errors.c_str());
            return 1;
        }
        const double t0 = now_s();
        double last_sample = t0;
        uint64_t last_bytes = 0;
        int hw_samples = 0;
        double sw_kio = 0;
        double hw_kio = 0;
        uint64_t feed = 8192;
        while (now_s() - t0 < 150.0) {
            if (rt.fifo_backlog() < 4096) {
                rt.fifo_push(log_bytes(8192));
            }
            if (!rt.hardware_ready()) {
                rt.run(256);
                const double t = now_s();
                if (t - last_sample >= 0.25 && !rt.hardware_ready()) {
                    const uint64_t bytes = rt.fifo_bytes_consumed();
                    sw_kio = static_cast<double>(bytes - last_bytes) /
                             (t - last_sample) / 1e3;
                    std::printf("cascade,%.2f,%.1f\n", t - t0, sw_kio);
                    last_bytes = bytes;
                    last_sample = t;
                }
                continue;
            }
            // Hardware phase: throughput against the virtual timeline.
            // The paper's host keeps up with the bus, so before every
            // scheduler call the host queue holds at least `feed` bytes.
            // A grant that empties it idles on the FIFO for the rest of
            // its ticks, and the modeled clock counts that idle time, so
            // the feed doubles whenever one does.
            const uint64_t bytes0 = rt.fifo_bytes_consumed();
            const double tl0 = rt.timeline_seconds();
            for (int i = 0; i < 8; ++i) {
                if (rt.fifo_backlog() < feed) {
                    rt.fifo_push(log_bytes(2 * feed - rt.fifo_backlog()));
                }
                rt.run(1);
                if (rt.fifo_backlog() == 0) {
                    feed *= 2;
                }
            }
            const double dtl = rt.timeline_seconds() - tl0;
            const uint64_t dbytes = rt.fifo_bytes_consumed() - bytes0;
            if (dtl > 0 && dbytes > 0) {
                hw_kio = static_cast<double>(dbytes) / dtl / 1e3;
                std::printf("cascade,%.2f,%.1f\n", now_s() - t0, hw_kio);
                if (++hw_samples >= 5) {
                    break;
                }
            }
        }
        {
            char buf[512];
            std::ofstream out("BENCH_fig12_regex_stream.json");
            std::snprintf(
                buf, sizeof buf,
                "{\"schema\":\"cascade.bench.v1\","
                "\"bench\":\"fig12_regex_stream\",\"wall_seconds\":%.3f,"
                "\"quartus\":{\"compile_seconds\":%.3f,"
                "\"kio_per_s\":%.1f},"
                "\"cascade\":{\"adopted\":%s,\"sw_kio_per_s\":%.1f,"
                "\"hw_kio_per_s\":%.1f,\"bytes_consumed\":%llu},",
                now_s() - bench_t0, quartus_compile_s, quartus_kio_result,
                rt.hardware_ready() ? "true" : "false", sw_kio, hw_kio,
                static_cast<unsigned long long>(rt.fifo_bytes_consumed()));
            out << buf << "\"profile\":" << rt.profiler().profile_json()
                << "}\n";
            std::fprintf(stderr,
                         "# results -> BENCH_fig12_regex_stream.json\n");
        }
        {
            std::ofstream sidecar("fig12_regex_stream.stats.json");
            sidecar << rt.stats_json() << '\n';
            std::fprintf(
                stderr,
                "# cascade: stats sidecar -> fig12_regex_stream.stats.json\n");
        }
        cascade::telemetry::Tracer::global().write_chrome_json(
            "fig12_regex_stream.trace.json");
        std::fprintf(stderr, "# trace -> fig12_regex_stream.trace.json\n");
    }
    return 0;
}
