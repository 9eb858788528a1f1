/// \file
/// Table 6 (request tracing, beyond the paper): end-to-end edit ->
/// hardware latency measured by the causal request tracker, for four
/// request classes, and edit -> JIT-rung latency for two more:
///
///   - cold: a fresh runtime per iteration, each compile a distinct
///     placement seed, so every request takes the full synthesize /
///     techmap / place / adopt path;
///   - warm: fresh runtimes sharing ONE pooled CompileService with a
///     pinned seed, so every compile after the first is a
///     content-addressed bitstream cache hit;
///   - shared: a 4-tenant fleet on one fabric through the hypervisor,
///     each tenant's first compile admitted onto a device slice;
///   - edit: a one-line edit (a new print process, as perfbench types)
///     to the SHA-256 miner once it is adopted on the fabric, JIT off,
///     timed like cold. Its placement is seeded from the adopted one, so
///     only the cells the edit added and their neighbours anneal.
///     edit_base is the miner's own first compile in the same runtimes: a
///     full anneal of nearly the same design;
///   - jit_cold: the cold native-kernel build of the Fig. 10-wrapped
///     SHA-256 miner, timed from eval() until the program runs on the JIT
///     rung, with fabric admission rejected (a 10-LE device). Every
///     sample is a distinct salted design built into a fresh
///     CASCADE_JIT_CACHE_DIR, so neither the on-disk cache nor the
///     in-process module registry answers it. Skipped without a usable
///     system compiler;
///   - jit_burst: as jit_cold, but the salted miner runs for 60 ms, its
///     kernel still building, before a second salt register is evaluated;
///     that edit is timed until the program runs on the JIT rung. Its
///     kernel build follows a superseded one, whose compilers the cancel
///     stops, so its p50 should match jit_cold's.
///
/// Each sample of every class but the jit ones is a finished "compile"
/// request from the runtime's own tracker -- the submit-to-first-hardware-
/// tick wall time the REPL's `:why` decomposes -- so the bench measures
/// exactly what the observability surface reports, and asserts the
/// tracker's invariant (segments sum to end-to-end latency within 1%) on
/// every sample.
///
/// Output: BENCH_table6_request_latency.json with p50/p99 per class, the
/// mean segment breakdown (queue, cache, synth, techmap, place, timing,
/// admission, adoption) of the cold and edit classes, and the mean
/// jit_cold kernel-build layers (codegen, the units' compile, link plus
/// dlopen). The edit breakdown is the ledger of an incremental edit; the
/// edit_base p50, a full anneal of nearly the same design, is what its
/// place segment is measured against.

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "hypervisor/fabric_manager.h"
#include "jit/jit_cache.h"
#include "runtime/runtime.h"
#include "service/compile_service.h"
#include "telemetry/request_trace.h"
#include "telemetry/telemetry.h"
#include "workloads/workloads.h"

using cascade::hypervisor::FabricManager;
using cascade::runtime::Location;
using cascade::runtime::Runtime;
using cascade::service::CompileService;
using cascade::telemetry::Histogram;
using cascade::telemetry::RequestRecord;

namespace {

constexpr int kColdRuns = 8;
constexpr int kEditRuns = 8;
constexpr int kWarmRuns = 16;
constexpr int kSharedTenants = 4;
constexpr int kJitColdRuns = 8;

Runtime::Options
bench_options(uint64_t seed)
{
    Runtime::Options opts;
    opts.enable_hardware = true;
    opts.compile_effort = 0.05;
    opts.open_loop_target_wall_s = 0.02;
    opts.compile_seed = seed;
    return opts;
}

const char* const kProgram = "reg [15:0] n = 0;\n"
                             "wire [15:0] h;\n"
                             "assign h = (n * 16'h9E37) ^ (n >> 3);\n"
                             "always @(posedge clk.val) n <= n + 1;\n";

/// Evals \p source into \p rt and runs it until the adopted compile
/// request retires (the request closes at the first post-adoption
/// hardware tick) and returns it; requests up to \p after_id are
/// earlier ones. Exits the process on timeout or a failed compile.
RequestRecord
measure_compile_request(Runtime& rt, const char* what,
                        const std::string& source = kProgram,
                        uint64_t after_id = 0)
{
    std::string errors;
    if (!rt.eval(source, &errors)) {
        std::fprintf(stderr, "%s: eval failed: %s\n", what,
                     errors.c_str());
        std::exit(1);
    }
    if (!rt.wait_for_hardware(120)) {
        std::fprintf(stderr, "%s: never reached hardware\n", what);
        std::exit(1);
    }
    const auto t0 = std::chrono::steady_clock::now();
    while (true) {
        rt.step();
        for (const RequestRecord& r : rt.request_tracker().recent()) {
            if (std::string(r.kind) == "compile" && r.done && r.ok &&
                r.id > after_id) {
                return r;
            }
        }
        if (std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count() > 60) {
            std::fprintf(stderr, "%s: compile request never retired\n",
                         what);
            std::exit(1);
        }
    }
}

/// The edit class's one line: a new print process over the miner's nets.
const char* const kMinerEdit =
    "always @(posedge clk.val) if (round == 63 && nonce[3:0] == 4'd5) "
    "$display(\"e %h %h\", nonce, final_a);\n";

/// Sums each segment of \p r into \p us, by name.
void
add_segments(const RequestRecord& r, std::map<std::string, double>* us)
{
    for (const auto& s : r.segments) {
        (*us)[s.name] += s.dur_us;
    }
}

/// {"<segment>_seconds":mean,...} over \p runs requests, also printed.
std::string
segments_json(const char* what, const std::map<std::string, double>& us,
              int runs)
{
    std::string json;
    for (const auto& [name, total] : us) {
        char row[96];
        std::snprintf(row, sizeof row, "%s\"%s_seconds\":%.6f",
                      json.empty() ? "" : ",", name.c_str(),
                      total * 1e-6 / runs);
        json += row;
        std::printf("  %s mean %-10s %.4fs\n", what, name.c_str(),
                    total * 1e-6 / runs);
    }
    return json;
}

/// The tracker's contract, asserted on every sample the bench reports.
void
check_partition(const RequestRecord& r, const char* what)
{
    const double total = r.total_us();
    if (total <= 0 ||
        std::fabs(r.segment_sum_us() - total) > 0.01 * total) {
        std::fprintf(stderr,
                     "%s: request %llu segments sum %.3fus != "
                     "end-to-end %.3fus\n",
                     what, static_cast<unsigned long long>(r.id),
                     r.segment_sum_us(), total);
        std::exit(1);
    }
}

/// A register counting by a step unique to \p salt: added to the miner,
/// it changes the netlist, hence the kernel digest.
std::string
salt_source(const char* name, int salt)
{
    const std::string reg = name;
    return "reg [31:0] " + reg + " = 0;\n"
           "always @(posedge clk.val) " + reg + " <= " + reg + " + " +
           std::to_string(1001 + salt) + ";\n";
}

/// Evals \p source into \p rt; exits the process if the eval fails.
void
eval_or_exit(Runtime& rt, const std::string& source, const char* what)
{
    std::string errors;
    if (!rt.eval(source, &errors)) {
        std::fprintf(stderr, "%s: eval failed: %s\n", what, errors.c_str());
        std::exit(1);
    }
}

/// Evals \p source into \p rt and returns the seconds until the program
/// runs on the JIT rung. Exits the process on a failed eval, a build
/// the tier could not make, or a timeout.
double
seconds_to_jit(Runtime& rt, const std::string& source, const char* what)
{
    const auto t0 = std::chrono::steady_clock::now();
    eval_or_exit(rt, source, what);
    while (rt.user_location() != Location::Jit) {
        if (rt.telemetry().counter("jit.unavailable")->value() != 0 ||
            std::chrono::steady_clock::now() - t0 >
                std::chrono::seconds(120)) {
            std::fprintf(stderr, "%s: never reached the JIT\n", what);
            std::exit(1);
        }
        rt.run(1);
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/// One sample of a JIT class, in the fresh cache directory \p cache with
/// fabric admission rejected (a 10-LE device). jit_cold (\p burst false):
/// seconds from eval() of the miner salted by \p salt until it runs on
/// the JIT rung. jit_burst: that miner runs for 60 ms, its kernel still
/// building, then a second salt register is evaluated and timed the
/// same way, so its kernel build follows a superseded one. Exits the
/// process if the timed kernel was not a cold build.
double
measure_jit(int salt, const std::string& cache, bool burst)
{
    std::filesystem::create_directories(cache);
    ::setenv("CASCADE_JIT_CACHE_DIR", cache.c_str(), 1);
    Runtime::Options opts = bench_options(300 + salt);
    opts.device_les = 10; // admission rejects the fabric: the JIT rung
    const char* const what = burst ? "jit_burst" : "jit_cold";
    double seconds = 0;
    {
        Runtime rt(opts);
        rt.on_output = [](const std::string&) {};
        const std::string miner =
            cascade::workloads::proof_of_work_source(8) +
            salt_source("salt", salt);
        if (!burst) {
            seconds = seconds_to_jit(rt, miner, what);
        } else {
            eval_or_exit(rt, miner, what);
            const auto t0 = std::chrono::steady_clock::now();
            while (std::chrono::steady_clock::now() - t0 <
                   std::chrono::milliseconds(60)) {
                rt.run(1);
            }
            if (rt.user_location() == Location::Jit) {
                std::fprintf(stderr,
                             "%s: sample %d's first kernel landed within "
                             "60 ms: no build was superseded\n",
                             what, salt);
            }
            seconds = seconds_to_jit(rt, salt_source("burst", salt), what);
        }
    }
    bool built = false;
    for (const auto& e : std::filesystem::directory_iterator(cache)) {
        built |= e.path().extension() == ".so";
    }
    if (!built) {
        std::fprintf(stderr, "%s: sample %d was not a cold build\n", what,
                     salt);
        std::exit(1);
    }
    return seconds;
}

/// A kernel-build layer's process histogram (jit.build.<layer>_ns).
Histogram*
jit_build_hist(const char* layer)
{
    return cascade::telemetry::Registry::global().histogram(
        std::string("jit.build.") + layer + "_ns");
}

double
percentile(std::vector<double> v, double p)
{
    std::sort(v.begin(), v.end());
    const size_t at = static_cast<size_t>(p * (v.size() - 1) + 0.5);
    return v[std::min(at, v.size() - 1)];
}

std::string
class_json(const char* name, const std::vector<double>& seconds)
{
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\"%s\":{\"samples\":%zu,\"p50_s\":%.6f,"
                  "\"p99_s\":%.6f}",
                  name, seconds.size(), percentile(seconds, 0.5),
                  percentile(seconds, 0.99));
    return buf;
}

} // namespace

int
main()
{
    std::printf("Table 6: edit->hardware request latency "
                "(cold / edit / warm / shared)\n");

    // -- Cold: fresh runtime, fresh seed, full compile path. ------------
    std::vector<double> cold_s;
    std::map<std::string, double> cold_segment_us;
    for (int i = 0; i < kColdRuns; ++i) {
        Runtime rt(bench_options(100 + i));
        rt.on_output = [](const std::string&) {};
        const RequestRecord r = measure_compile_request(rt, "cold");
        check_partition(r, "cold");
        if (r.cache_hit) {
            std::fprintf(stderr, "cold run %d unexpectedly hit cache\n",
                         i);
            return 1;
        }
        cold_s.push_back(r.total_us() * 1e-6);
        add_segments(r, &cold_segment_us);
    }

    // -- Edit: one line added to the adopted miner. ---------------------
    std::vector<double> edit_base_s;
    std::vector<double> edit_s;
    std::map<std::string, double> edit_segment_us;
    for (int i = 0; i < kEditRuns; ++i) {
        Runtime::Options opts = bench_options(400 + i);
        opts.enable_jit = false;
        Runtime rt(opts);
        rt.on_output = [](const std::string&) {};
        const RequestRecord base = measure_compile_request(
            rt, "edit base", cascade::workloads::proof_of_work_source(16));
        const RequestRecord r =
            measure_compile_request(rt, "edit", kMinerEdit, base.id);
        check_partition(base, "edit base");
        check_partition(r, "edit");
        if (r.cache_hit || r.kept_cells == 0) {
            std::fprintf(stderr, "edit run %d: no seeded placement\n", i);
            return 1;
        }
        edit_base_s.push_back(base.total_us() * 1e-6);
        edit_s.push_back(r.total_us() * 1e-6);
        add_segments(r, &edit_segment_us);
    }

    // -- Warm: one pooled service, pinned seed -> cache hits. -----------
    std::vector<double> warm_s;
    {
        CompileService::Config cfg;
        cfg.workers = 1;
        CompileService service(cfg);
        for (int i = 0; i < kWarmRuns + 1; ++i) {
            FabricManager fabric;
            Runtime rt(bench_options(7), service, fabric);
            rt.on_output = [](const std::string&) {};
            const RequestRecord r = measure_compile_request(rt, "warm");
            check_partition(r, "warm");
            if (i == 0) {
                continue; // the priming miss populates the cache
            }
            if (!r.cache_hit) {
                std::fprintf(stderr, "warm run %d missed the cache\n",
                             i);
                return 1;
            }
            warm_s.push_back(r.total_us() * 1e-6);
        }
    }

    // -- Shared: a tenant fleet through the hypervisor. -----------------
    std::vector<double> shared_s(kSharedTenants, 0);
    {
        CompileService::Config cfg;
        CompileService service(cfg);
        FabricManager fabric;
        std::barrier start(kSharedTenants);
        std::vector<std::thread> threads;
        threads.reserve(kSharedTenants);
        for (int i = 0; i < kSharedTenants; ++i) {
            threads.emplace_back([&, i] {
                Runtime::Options opts = bench_options(200 + i);
                opts.tenant_name = "bench-t" + std::to_string(i);
                Runtime rt(opts, service, fabric);
                rt.on_output = [](const std::string&) {};
                start.arrive_and_wait();
                const RequestRecord r =
                    measure_compile_request(rt, "shared");
                check_partition(r, "shared");
                shared_s[i] = r.total_us() * 1e-6;
            });
        }
        for (std::thread& t : threads) {
            t.join();
        }
    }

    // -- Jit cold and burst: a salted miner per sample, each in a fresh
    // cache. The kernel-build layers of the cold samples: the process
    // histograms JitKernel::create and build_module record, emptied of
    // the kernels the classes above built.
    std::vector<double> jit_cold_s;
    std::vector<double> jit_burst_s;
    std::string jit_segments_json;
    if (cascade::jit::compiler_available()) {
        const char* const kLayers[] = {"codegen", "compile", "link"};
        for (const char* layer : kLayers) {
            jit_build_hist(layer)->reset();
        }
        const char* old = std::getenv("CASCADE_JIT_CACHE_DIR");
        const std::string restore = old != nullptr ? old : "";
        const std::filesystem::path root =
            std::filesystem::temp_directory_path() /
            ("cascade_table6_jit" + std::to_string(::getpid()));
        for (int i = 0; i < kJitColdRuns; ++i) {
            jit_cold_s.push_back(
                measure_jit(i, (root / std::to_string(i)).string(), false));
        }
        for (const char* layer : kLayers) {
            const Histogram* h = jit_build_hist(layer);
            char row[96];
            std::snprintf(row, sizeof row, "%s\"%s_seconds\":%.6f",
                          jit_segments_json.empty() ? "" : ",", layer,
                          h->mean() * 1e-9);
            jit_segments_json += row;
            std::printf("  jit_cold mean %-8s %.4fs  (%llu builds)\n",
                        layer, h->mean() * 1e-9,
                        static_cast<unsigned long long>(h->count()));
        }
        // Salts past jit_cold's, so no first build is a registry hit.
        for (int i = kJitColdRuns; i < 2 * kJitColdRuns; ++i) {
            jit_burst_s.push_back(
                measure_jit(i, (root / std::to_string(i)).string(), true));
        }
        std::filesystem::remove_all(root);
        if (old != nullptr) {
            ::setenv("CASCADE_JIT_CACHE_DIR", restore.c_str(), 1);
        } else {
            ::unsetenv("CASCADE_JIT_CACHE_DIR");
        }
    }

    std::printf("cold   p50 %.4fs  p99 %.4fs  (%d runs)\n",
                percentile(cold_s, 0.5), percentile(cold_s, 0.99),
                kColdRuns);
    std::printf("edit   p50 %.4fs  p99 %.4fs  (%d runs, seeded placement;"
                " the miner's first compile p50 %.4fs)\n",
                percentile(edit_s, 0.5), percentile(edit_s, 0.99),
                kEditRuns, percentile(edit_base_s, 0.5));
    std::printf("warm   p50 %.4fs  p99 %.4fs  (%d runs, cache hits)\n",
                percentile(warm_s, 0.5), percentile(warm_s, 0.99),
                kWarmRuns);
    std::printf("shared p50 %.4fs  p99 %.4fs  (%d tenants)\n",
                percentile(shared_s, 0.5), percentile(shared_s, 0.99),
                kSharedTenants);

    if (!jit_cold_s.empty()) {
        std::printf("jit    p50 %.4fs  p99 %.4fs  (%d runs, cold kernel "
                    "builds)\n",
                    percentile(jit_cold_s, 0.5), percentile(jit_cold_s, 0.99),
                    kJitColdRuns);
        std::printf("burst  p50 %.4fs  p99 %.4fs  (%d runs, cold kernel "
                    "builds after a superseded one)\n",
                    percentile(jit_burst_s, 0.5),
                    percentile(jit_burst_s, 0.99), kJitColdRuns);
    }

    const std::string cold_segments =
        segments_json("cold", cold_segment_us, kColdRuns);
    const std::string edit_segments =
        segments_json("edit", edit_segment_us, kEditRuns);

    std::ofstream out("BENCH_table6_request_latency.json");
    out << "{\"schema\":\"cascade.bench.v1\","
        << "\"bench\":\"table6_request_latency\","
        << class_json("cold", cold_s) << ','
        << class_json("edit", edit_s) << ','
        << class_json("edit_base", edit_base_s) << ','
        << class_json("warm", warm_s) << ','
        << class_json("shared", shared_s)
        << (jit_cold_s.empty() ? ""
                               : "," + class_json("jit_cold", jit_cold_s) +
                                     "," +
                                     class_json("jit_burst", jit_burst_s))
        << ",\"cold_segments_mean\":{" << cold_segments << "}"
        << ",\"edit_segments_mean\":{" << edit_segments << "}"
        << (jit_cold_s.empty() ? ""
                               : ",\"jit_cold_segments_mean\":{" +
                                     jit_segments_json + "}")
        << "}\n";
    std::fprintf(stderr,
                 "# results -> BENCH_table6_request_latency.json\n");
    return 0;
}
