/// \file
/// Table 3 (paper §1/§6 prose): time from initiating compilation to
/// running code. The paper's headline: "Cascade reduces the time between
/// initiating compilation and running code to less than a second", versus
/// ~10 minutes for Quartus on the proof-of-work design. Both the software
/// baseline and Cascade must start in under a second regardless of design
/// size; the direct toolchain grows with size.
///
/// Each Cascade row runs over a fresh private CASCADE_JIT_CACHE_DIR: the
/// cold start a user meets first.
///
/// Output: one row per (workload, toolchain): seconds to first execution.
/// Like fig11/fig12, the bench also writes telemetry sidecars next to
/// wherever it is invoked from: table3_startup_latency.stats.json (one
/// stats_json() snapshot per cascade run, keyed by workload),
/// table3_startup_latency.trace.json (Chrome trace_event spans), and a
/// headline result file (BENCH_table3_startup_latency.json: the latency
/// matrix CI's smoke-bench job uploads and diffs).

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "fpga/compile.h"
#include "runtime/runtime.h"
#include "telemetry/trace.h"
#include "verilog/parser.h"
#include "workloads/workloads.h"

using cascade::runtime::Runtime;

namespace {

double
time_eval_to_running(Runtime::Options options, const std::string& src,
                     std::string* stats_json = nullptr)
{
    Runtime rt(options);
    rt.on_output = [](const std::string&) {};
    const auto t0 = std::chrono::steady_clock::now();
    std::string errors;
    if (!rt.eval(src, &errors)) {
        std::fprintf(stderr, "eval failed: %s\n", errors.c_str());
        return -1;
    }
    rt.run_for_ticks(2); // code demonstrably executing
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    if (stats_json != nullptr) {
        *stats_json = rt.stats_json();
    }
    return elapsed;
}

double
time_direct_compile(const std::string& module_src)
{
    cascade::Diagnostics diags;
    auto unit = cascade::verilog::parse(module_src, &diags);
    cascade::verilog::Elaborator elab(&diags);
    auto em = elab.elaborate(*unit.modules[0]);
    if (em == nullptr) {
        std::fprintf(stderr, "elab failed: %s\n", diags.str().c_str());
        return -1;
    }
    cascade::fpga::CompileOptions opts;
    opts.effort = 1.0;
    const auto t0 = std::chrono::steady_clock::now();
    auto result = cascade::fpga::compile(*em, opts);
    (void)result;
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

int
main()
{
    std::printf("Table 3: seconds from initiating compilation to running "
                "code\n");
    std::printf("%-16s %12s %12s %12s\n", "workload", "sw-sim",
                "cascade", "direct");

    struct Case {
        const char* name;
        std::string repl_src;
        std::string module_src;
    };
    const Case cases[] = {
        {"proof_of_work",
         cascade::workloads::proof_of_work_source(16, false),
         cascade::workloads::proof_of_work_module(16)},
        {"regex_stream", cascade::workloads::regex_stream_source(false),
         cascade::workloads::regex_stream_module()},
        {"nw_16", cascade::workloads::needleman_wunsch_source(16, 0),
         // NW has no standalone-module variant; reuse regex for the
         // direct column's third size point.
         cascade::workloads::regex_stream_module()},
    };
    const std::filesystem::path cache_root =
        std::filesystem::temp_directory_path() /
        ("cascade_table3_jit" + std::to_string(::getpid()));
    std::string sidecar_body;
    std::string results_body;
    for (const Case& c : cases) {
        Runtime::Options sw;
        sw.enable_hardware = false;
        const double t_sw = time_eval_to_running(sw, c.repl_src);
        Runtime::Options jit;
        jit.compile_effort = 1.0;
        const std::filesystem::path cache = cache_root / c.name;
        std::filesystem::create_directories(cache);
        ::setenv("CASCADE_JIT_CACHE_DIR", cache.c_str(), 1);
        std::string stats;
        const double t_cascade =
            time_eval_to_running(jit, c.repl_src, &stats);
        const double t_direct = time_direct_compile(c.module_src);
        std::printf("%-16s %11.3fs %11.3fs %11.2fs\n", c.name, t_sw,
                    t_cascade, t_direct);
        {
            char row[192];
            std::snprintf(row, sizeof row,
                          "\"%s\":{\"sw_seconds\":%.4f,"
                          "\"cascade_seconds\":%.4f,"
                          "\"direct_seconds\":%.4f}",
                          c.name, t_sw, t_cascade, t_direct);
            if (!results_body.empty()) {
                results_body += ',';
            }
            results_body += row;
        }
        if (!stats.empty()) {
            if (!sidecar_body.empty()) {
                sidecar_body += ',';
            }
            sidecar_body += '"';
            sidecar_body += c.name;
            sidecar_body += "\":";
            sidecar_body += stats;
        }
    }
    std::filesystem::remove_all(cache_root);
    {
        std::ofstream out("BENCH_table3_startup_latency.json");
        out << "{\"schema\":\"cascade.bench.v1\","
            << "\"bench\":\"table3_startup_latency\",\"workloads\":{"
            << results_body << "}}\n";
        std::fprintf(stderr,
                     "# results -> BENCH_table3_startup_latency.json\n");
    }
    {
        std::ofstream sidecar("table3_startup_latency.stats.json");
        sidecar << '{' << sidecar_body << "}\n";
        std::fprintf(stderr, "# stats sidecar -> "
                             "table3_startup_latency.stats.json\n");
    }
    cascade::telemetry::Tracer::global().write_chrome_json(
        "table3_startup_latency.trace.json");
    std::fprintf(stderr, "# trace -> table3_startup_latency.trace.json\n");
    std::printf("\npaper: Cascade <1 s on every design; Quartus ~600 s "
                "for proof-of-work\n");
    return 0;
}
