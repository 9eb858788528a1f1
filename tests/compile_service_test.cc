/// \file
/// Tests for the pooled compile service: the content-addressed bitstream
/// cache (a warm hit is byte-identical to the cold miss that populated it,
/// with the hit bit set and the flow timings zeroed; any change to the
/// device configuration or placement seed misses), per-client cancellation
/// of superseded jobs (queued, running, or finished but unpolled),
/// multi-worker completion, the kernel stage that shares the job's one
/// netlist, and the cache/queue metrics surfaced through the process
/// telemetry registry.

#include "service/compile_service.h"

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "jit/jit_cache.h"
#include "telemetry/telemetry.h"
#include "verilog/parser.h"

namespace cascade::service {
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

std::shared_ptr<const ElaboratedModule>
counter_module()
{
    return elaborate_src(R"(
        module C(input wire clk, output wire [15:0] q);
          reg [15:0] cnt = 0;
          always @(posedge clk) cnt <= cnt + 1;
          assign q = cnt;
        endmodule
    )");
}

fpga::CompileOptions
fast_options(uint64_t seed = 7)
{
    fpga::CompileOptions o;
    o.effort = 0.05;
    o.target_clock_mhz = 50.0;
    o.seed = seed;
    return o;
}

CompileService::Job
job_for(uint64_t version,
        std::shared_ptr<const ElaboratedModule> em,
        const fpga::CompileOptions& options)
{
    CompileService::Job j;
    j.version = version;
    j.module = std::move(em);
    j.options = options;
    return j;
}

/// Drains until exactly one Done arrives (worker completions are async).
CompileService::Done
wait_one(CompileService& svc, uint64_t client)
{
    std::vector<CompileService::Done> out;
    for (int i = 0; i < 400 && out.empty(); ++i) {
        svc.wait_for_done(client, 0.25);
        out = svc.poll(client);
    }
    EXPECT_EQ(out.size(), 1u);
    return out.empty() ? CompileService::Done() : std::move(out[0]);
}

/// Drains until \p n stages have finished, returned in delivery order.
std::vector<CompileService::Done>
wait_stages(CompileService& svc, uint64_t client, size_t n)
{
    std::vector<CompileService::Done> out;
    for (int i = 0; i < 400 && out.size() < n; ++i) {
        svc.wait_for_done(client, 0.25);
        for (CompileService::Done& done : svc.poll(client)) {
            out.push_back(std::move(done));
        }
    }
    EXPECT_EQ(out.size(), n);
    return out;
}

/// The stage of \p stages that is a \p stage (the last one), or null.
const CompileService::Done*
find_stage(const std::vector<CompileService::Done>& stages,
           CompileService::Done::Stage stage)
{
    const CompileService::Done* found = nullptr;
    for (const CompileService::Done& done : stages) {
        if (done.stage == stage) {
            found = &done;
        }
    }
    return found;
}

// ---------------------------------------------------------------------
// The content-addressed cache
// ---------------------------------------------------------------------

TEST(CompileCache, WarmHitIsByteIdenticalWithZeroPhaseTimes)
{
    CompileService svc;
    const uint64_t client = svc.register_client();
    auto em = counter_module();

    svc.submit(client, job_for(1, em, fast_options()));
    const CompileService::Done cold = wait_one(svc, client);
    ASSERT_TRUE(cold.result.ok) << cold.result.error;
    EXPECT_FALSE(cold.result.report.cache_hit);
    EXPECT_GT(cold.result.report.total_seconds, 0.0);
    EXPECT_EQ(svc.cache_entries(), 1u);

    svc.submit(client, job_for(2, em, fast_options()));
    const CompileService::Done warm = wait_one(svc, client);
    ASSERT_TRUE(warm.result.ok) << warm.result.error;
    EXPECT_TRUE(warm.result.report.cache_hit);

    // No flow ran: every per-phase time (and the total) is zero.
    EXPECT_EQ(warm.result.report.synth_seconds, 0.0);
    EXPECT_EQ(warm.result.report.techmap_seconds, 0.0);
    EXPECT_EQ(warm.result.report.place_seconds, 0.0);
    EXPECT_EQ(warm.result.report.timing_seconds, 0.0);
    EXPECT_EQ(warm.result.report.total_seconds, 0.0);

    // Everything deterministic is byte-identical to the cold compile —
    // the cached entry even shares the immutable netlist object.
    EXPECT_EQ(warm.result.netlist.get(), cold.result.netlist.get());
    EXPECT_EQ(warm.result.report.seed, cold.result.report.seed);
    EXPECT_EQ(warm.result.report.area.les, cold.result.report.area.les);
    EXPECT_EQ(warm.result.report.area.bram_bits,
              cold.result.report.area.bram_bits);
    EXPECT_EQ(warm.result.report.cells, cold.result.report.cells);
    EXPECT_EQ(warm.result.report.anneal_moves,
              cold.result.report.anneal_moves);
    EXPECT_EQ(warm.result.report.wirelength, cold.result.report.wirelength);
    EXPECT_EQ(warm.result.report.timing.fmax_mhz,
              cold.result.report.timing.fmax_mhz);
    EXPECT_EQ(warm.result.report.critical_path_names,
              cold.result.report.critical_path_names);

    svc.unregister_client(client);
}

TEST(CompileCache, HitRateGettersTrackLocalTraffic)
{
    CompileService svc;
    const uint64_t client = svc.register_client();
    auto em = counter_module();
    EXPECT_EQ(svc.cache_hits(), 0u);
    EXPECT_EQ(svc.cache_misses(), 0u);
    EXPECT_EQ(svc.cache_hit_rate(), 0.0); // no traffic yet

    svc.submit(client, job_for(1, em, fast_options()));
    wait_one(svc, client);
    svc.submit(client, job_for(2, em, fast_options()));
    wait_one(svc, client);

    // Same content twice: one miss populated the cache, one hit reused
    // it. These getters count THIS service's traffic (the process-wide
    // registry counters aggregate across services).
    EXPECT_EQ(svc.cache_misses(), 1u);
    EXPECT_EQ(svc.cache_hits(), 1u);
    EXPECT_DOUBLE_EQ(svc.cache_hit_rate(), 0.5);
    svc.unregister_client(client);
}

TEST(CompileCache, KeyCoversDeviceConfigEffortAndSeed)
{
    auto em = counter_module();
    const std::string base = CompileService::cache_key(*em, fast_options());
    EXPECT_FALSE(base.empty());

    // Same inputs -> same address.
    EXPECT_EQ(base, CompileService::cache_key(*em, fast_options()));

    // A different placement seed, annealing effort, or device target
    // clock is a different compile.
    fpga::CompileOptions seed2 = fast_options(8);
    EXPECT_NE(base, CompileService::cache_key(*em, seed2));
    fpga::CompileOptions effort2 = fast_options();
    effort2.effort = 0.1;
    EXPECT_NE(base, CompileService::cache_key(*em, effort2));
    fpga::CompileOptions clock2 = fast_options();
    clock2.target_clock_mhz = 100.0;
    EXPECT_NE(base, CompileService::cache_key(*em, clock2));

    // And so is a different design.
    auto other = elaborate_src(R"(
        module D(input wire clk, output wire [15:0] q);
          reg [15:0] cnt = 0;
          always @(posedge clk) cnt <= cnt + 2;
          assign q = cnt;
        endmodule
    )");
    EXPECT_NE(base, CompileService::cache_key(*other, fast_options()));
}

TEST(CompileCache, DifferentSeedMissesAndRunsTheFlow)
{
    CompileService svc;
    const uint64_t client = svc.register_client();
    auto em = counter_module();

    svc.submit(client, job_for(1, em, fast_options(7)));
    const CompileService::Done first = wait_one(svc, client);
    ASSERT_TRUE(first.result.ok);

    svc.submit(client, job_for(2, em, fast_options(8)));
    const CompileService::Done second = wait_one(svc, client);
    ASSERT_TRUE(second.result.ok);
    EXPECT_FALSE(second.result.report.cache_hit);
    EXPECT_GT(second.result.report.total_seconds, 0.0);
    EXPECT_EQ(svc.cache_entries(), 2u);

    svc.unregister_client(client);
}

// ---------------------------------------------------------------------
// Queue semantics (workers = 0 keeps jobs queued deterministically)
// ---------------------------------------------------------------------

TEST(CompileCache, PriorSeedsAMissAndLeavesAHitAlone)
{
    CompileService svc;
    const uint64_t client = svc.register_client();
    auto em = counter_module();

    svc.submit(client, job_for(1, em, fast_options()));
    const CompileService::Done cold = wait_one(svc, client);
    ASSERT_TRUE(cold.result.ok) << cold.result.error;
    ASSERT_NE(cold.result.placement, nullptr);
    EXPECT_EQ(cold.result.report.kept_cells, 0u);

    // The same key with a prior: answered from the cache, as placed.
    CompileService::Job hit = job_for(2, em, fast_options());
    hit.prior = cold.result.placement;
    svc.submit(client, std::move(hit));
    const CompileService::Done warm = wait_one(svc, client);
    EXPECT_TRUE(warm.result.report.cache_hit);
    EXPECT_EQ(warm.result.report.kept_cells, 0u);
    EXPECT_EQ(warm.result.placement, cold.result.placement);

    // Another seed misses; the prior of the same design keeps every cell.
    CompileService::Job miss = job_for(3, em, fast_options(8));
    miss.prior = cold.result.placement;
    svc.submit(client, std::move(miss));
    const CompileService::Done seeded = wait_one(svc, client);
    ASSERT_TRUE(seeded.result.ok) << seeded.result.error;
    EXPECT_FALSE(seeded.result.report.cache_hit);
    EXPECT_EQ(seeded.result.report.kept_cells, seeded.result.report.cells);
    EXPECT_EQ(seeded.result.report.anneal_moves, 0u);
    EXPECT_EQ(seeded.result.placement->sites,
              cold.result.placement->sites);
}

TEST(CompileQueue, NewerVersionCancelsQueuedJobOfSameClient)
{
    CompileService::Config cfg;
    cfg.workers = 0;
    CompileService svc(cfg);
    const uint64_t a = svc.register_client();
    const uint64_t b = svc.register_client();
    auto em = counter_module();

    svc.submit(a, job_for(1, em, fast_options(1)));
    svc.submit(b, job_for(1, em, fast_options(2)));
    EXPECT_EQ(svc.queued_jobs(), 2u);

    // A newer program version from client a replaces a's queued job but
    // leaves b's untouched.
    svc.submit(a, job_for(2, em, fast_options(3)));
    EXPECT_EQ(svc.queued_jobs(), 2u);
    EXPECT_TRUE(svc.busy(a));
    EXPECT_TRUE(svc.busy(b));

    svc.unregister_client(a);
    EXPECT_EQ(svc.queued_jobs(), 1u);
    EXPECT_FALSE(svc.busy(a));
    svc.unregister_client(b);
    EXPECT_EQ(svc.queued_jobs(), 0u);
}

TEST(CompileQueue, CancelDropsTheQueuedJob)
{
    CompileService::Config cfg;
    cfg.workers = 0;
    CompileService svc(cfg);
    const uint64_t client = svc.register_client();
    svc.submit(client, job_for(1, counter_module(), fast_options()));
    EXPECT_TRUE(svc.busy(client));

    svc.cancel(client);
    EXPECT_EQ(svc.queued_jobs(), 0u);
    EXPECT_FALSE(svc.busy(client));
    svc.unregister_client(client);
}

TEST(CompileQueue, NewerJobDiscardsTheUndeliveredResultOfTheOldOne)
{
    CompileService svc;
    auto em = counter_module();
    const uint64_t primer = svc.register_client();
    svc.submit(primer, job_for(1, em, fast_options(7)));
    ASSERT_TRUE(wait_one(svc, primer).result.ok);

    // A cache hit: its Done is queued at submit, undelivered until a poll.
    const uint64_t client = svc.register_client();
    svc.submit(client, job_for(1, em, fast_options(7)));
    // An uncached job supersedes it before the client polls.
    svc.submit(client, job_for(2, em, fast_options(8)));
    svc.wait_idle();
    const std::vector<CompileService::Done> done = svc.poll(client);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].version, 2u);
    EXPECT_TRUE(done[0].result.ok);
    EXPECT_FALSE(done[0].result.report.cache_hit);
    svc.unregister_client(primer);
    svc.unregister_client(client);
}

TEST(CompileQueue, WaitForDoneReturnsFalseWithNothingInFlight)
{
    CompileService svc;
    const uint64_t client = svc.register_client();
    // Nothing submitted: returns immediately, not after the timeout.
    EXPECT_FALSE(svc.wait_for_done(client, 60.0));
    svc.unregister_client(client);
}

// ---------------------------------------------------------------------
// The worker pool
// ---------------------------------------------------------------------

TEST(CompilePool, MultipleWorkersCompleteAllJobs)
{
    CompileService::Config cfg;
    cfg.workers = 3;
    CompileService svc(cfg);
    auto em = counter_module();

    std::vector<uint64_t> clients;
    for (int i = 0; i < 6; ++i) {
        clients.push_back(svc.register_client());
    }
    for (size_t i = 0; i < clients.size(); ++i) {
        // Same design, distinct seeds: the first six are all misses.
        svc.submit(clients[i],
                   job_for(1, em, fast_options(100 + i)));
    }
    svc.wait_idle();
    for (const uint64_t c : clients) {
        auto out = svc.poll(c);
        ASSERT_EQ(out.size(), 1u);
        EXPECT_TRUE(out[0].result.ok);
        svc.unregister_client(c);
    }
    EXPECT_EQ(svc.cache_entries(), 6u);
}

TEST(CompilePool, ResultsAreIsolatedPerClient)
{
    CompileService svc;
    const uint64_t a = svc.register_client();
    const uint64_t b = svc.register_client();
    auto em = counter_module();

    svc.submit(a, job_for(41, em, fast_options(1)));
    const CompileService::Done da = wait_one(svc, a);
    EXPECT_EQ(da.version, 41u);
    // b never submitted: nothing to poll, and nothing was stolen.
    EXPECT_TRUE(svc.poll(b).empty());

    svc.unregister_client(a);
    svc.unregister_client(b);
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

TEST(CompileMetrics, CacheAndQueueCountersAdvance)
{
    telemetry::Registry& reg = telemetry::Registry::global();
    telemetry::Counter* hits = reg.counter("compile.cache.hits");
    telemetry::Counter* misses = reg.counter("compile.cache.misses");
    telemetry::Gauge* depth = reg.gauge("compile.queue.depth");
    const uint64_t hits0 = hits->value();
    const uint64_t misses0 = misses->value();

    CompileService svc;
    const uint64_t client = svc.register_client();
    auto em = counter_module();

    svc.submit(client, job_for(1, em, fast_options(55)));
    wait_one(svc, client);
    svc.submit(client, job_for(2, em, fast_options(55)));
    wait_one(svc, client);

    EXPECT_EQ(misses->value(), misses0 + 1);
    EXPECT_EQ(hits->value(), hits0 + 1);
    EXPECT_EQ(depth->value(), 0); // drained
    svc.unregister_client(client);
}


// ---------------------------------------------------------------------
// One job, two stages
// ---------------------------------------------------------------------

using Stage = CompileService::Done::Stage;

TEST(CompileStages, KernelAndFabricShareOneSynthesis)
{
    if (!jit::compiler_available()) {
        GTEST_SKIP() << "no system compiler; JIT tier unavailable";
    }
    CompileService svc;
    const uint64_t client = svc.register_client();
    auto em = counter_module();
    CompileService::Job job = job_for(1, em, fast_options(61));
    job.kernel = true;
    svc.submit(client, job);
    const auto cold = wait_stages(svc, client, 2);
    const CompileService::Done* kernel = find_stage(cold, Stage::Kernel);
    const CompileService::Done* fabric = find_stage(cold, Stage::Fabric);
    ASSERT_NE(kernel, nullptr);
    ASSERT_NE(fabric, nullptr);
    ASSERT_NE(kernel->kernel, nullptr) << kernel->result.error;
    ASSERT_TRUE(fabric->result.ok) << fabric->result.error;
    EXPECT_EQ(kernel->version, 1u);
    EXPECT_FALSE(kernel->kernel_digest.empty());
    // Synthesis ran once: both stages hold the one netlist object.
    EXPECT_EQ(&kernel->kernel->netlist(), fabric->result.netlist.get());
    EXPECT_EQ(kernel->result.netlist.get(), fabric->result.netlist.get());

    // A bitstream-cache hit still gets its kernel, from the cached
    // netlist.
    job.version = 2;
    svc.submit(client, job);
    const auto warm = wait_stages(svc, client, 2);
    const CompileService::Done* warm_kernel = find_stage(warm, Stage::Kernel);
    const CompileService::Done* warm_fabric = find_stage(warm, Stage::Fabric);
    ASSERT_NE(warm_kernel, nullptr);
    ASSERT_NE(warm_fabric, nullptr);
    EXPECT_TRUE(warm_fabric->result.report.cache_hit);
    ASSERT_NE(warm_kernel->kernel, nullptr) << warm_kernel->result.error;
    EXPECT_EQ(&warm_kernel->kernel->netlist(), fabric->result.netlist.get());
    EXPECT_EQ(warm_kernel->kernel_digest, kernel->kernel_digest);
    EXPECT_TRUE(warm_kernel->result.report.cache_hit);
    svc.unregister_client(client);
}

TEST(CompileStages, NewerJobCancelsTheRunningPlacement)
{
    CompileService::Config cfg;
    cfg.workers = 1;
    CompileService svc(cfg);
    const uint64_t client = svc.register_client();
    auto em = counter_module();
    telemetry::Counter* cancelled =
        telemetry::Registry::global().counter("compile.cancelled");
    const uint64_t cancelled0 = cancelled->value();

    // At this effort the anneal runs over a hundred temperature steps of
    // tens of millions of moves each: many minutes of work.
    fpga::CompileOptions slow = fast_options(71);
    slow.effort = 2000;
    svc.submit(client, job_for(1, em, slow));
    // Wait for the worker to take it off the queue.
    for (int i = 0; i < 2000 && svc.queued_jobs() > 0; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(svc.queued_jobs(), 0u);
    ASSERT_TRUE(svc.busy(client));

    // The one worker is annealing version 1: version 2 lands only once
    // that placement has stopped early.
    const auto t0 = std::chrono::steady_clock::now();
    svc.submit(client, job_for(2, em, fast_options(72)));
    const auto out = wait_stages(svc, client, 1);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_LT(std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0)
                  .count(),
              20.0);
    EXPECT_EQ(out[0].version, 2u);
    EXPECT_TRUE(out[0].result.ok) << out[0].result.error;
    // The cancelled placement is neither delivered nor cached.
    svc.wait_idle();
    EXPECT_TRUE(svc.poll(client).empty());
    EXPECT_EQ(svc.cache_entries(), 1u);
    EXPECT_EQ(cancelled->value(), cancelled0 + 1);
    svc.unregister_client(client);
}

TEST(CompileStages, NoCompilerFailsTheKernelStageOnly)
{
    // A cold private cache and a module no other test builds a kernel
    // for, so nothing can answer the kernel without a compiler.
    const std::string cache =
        (std::filesystem::temp_directory_path() /
         ("cascade_svc_no_cxx" + std::to_string(::getpid())))
            .string();
    std::filesystem::remove_all(cache);
    ::setenv("CASCADE_JIT_CACHE_DIR", cache.c_str(), 1);
    ::setenv("CASCADE_JIT_CXX", "/nonexistent/cascade-no-such-cxx", 1);
    CompileService svc;
    const uint64_t client = svc.register_client();
    CompileService::Job job = job_for(1, elaborate_src(R"(
        module NoCxx(input wire clk, output wire [7:0] q);
          reg [7:0] r = 3;
          always @(posedge clk) r <= r + 5;
          assign q = r;
        endmodule
    )"),
                                      fast_options(81));
    job.kernel = true;
    svc.submit(client, job);
    const auto out = wait_stages(svc, client, 2);
    const CompileService::Done* kernel = find_stage(out, Stage::Kernel);
    const CompileService::Done* fabric = find_stage(out, Stage::Fabric);
    ASSERT_NE(kernel, nullptr);
    ASSERT_NE(fabric, nullptr);
    EXPECT_EQ(kernel->kernel, nullptr);
    EXPECT_FALSE(kernel->result.ok);
    EXPECT_FALSE(kernel->result.error.empty());
    EXPECT_TRUE(fabric->result.ok) << fabric->result.error;
    svc.unregister_client(client);
    ::unsetenv("CASCADE_JIT_CXX");
    ::unsetenv("CASCADE_JIT_CACHE_DIR");
    std::filesystem::remove_all(cache);
}

TEST(CompileStages, DestructorStopsTheRunningKernelBuild)
{
    if (!jit::compiler_available()) {
        GTEST_SKIP() << "no system compiler; JIT tier unavailable";
    }
    // A compiler that records its pid and then hangs: the service's
    // destructor cancels the kernel build, which stops the compiler, so
    // the kernel thread it joins ends at once.
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("cascade_svc_hung_cxx" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::filesystem::path pids = dir / "pids";
    const std::filesystem::path wrapper = dir / "hung-cxx";
    {
        std::ofstream f(wrapper);
        f << "#!/bin/sh\necho $$ >> '" << pids.string()
          << "'\nexec sleep 30\n";
    }
    std::filesystem::permissions(wrapper,
                                 std::filesystem::perms::owner_all);
    ::setenv("CASCADE_JIT_CACHE_DIR", dir.c_str(), 1);
    ::setenv("CASCADE_JIT_CXX", wrapper.c_str(), 1);
    auto svc = std::make_unique<CompileService>();
    const uint64_t client = svc->register_client();
    CompileService::Job job = job_for(1, counter_module(), fast_options(95));
    job.kernel = true;
    svc->submit(client, job);
    for (int i = 0; i < 10000 && !std::filesystem::exists(pids); ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(std::filesystem::exists(pids)) << "no compiler started";
    const auto t0 = std::chrono::steady_clock::now();
    svc.reset();
    EXPECT_LT(std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0)
                  .count(),
              0.5);
    ::unsetenv("CASCADE_JIT_CXX");
    ::unsetenv("CASCADE_JIT_CACHE_DIR");
    std::filesystem::remove_all(dir);
}

TEST(CompileStages, SynthesisFailureFailsBothStages)
{
    CompileService svc;
    const uint64_t client = svc.register_client();
    CompileService::Job job = job_for(1, elaborate_src(R"(
        module Loop(output wire o);
          wire a, b;
          assign a = ~b;
          assign b = a;
          assign o = a;
        endmodule
    )"),
                                      fast_options(91));
    job.kernel = true;
    svc.submit(client, job);
    const auto out = wait_stages(svc, client, 2);
    const CompileService::Done* kernel = find_stage(out, Stage::Kernel);
    const CompileService::Done* fabric = find_stage(out, Stage::Fabric);
    ASSERT_NE(kernel, nullptr);
    ASSERT_NE(fabric, nullptr);
    EXPECT_EQ(kernel->kernel, nullptr);
    EXPECT_NE(kernel->result.error.find("synthesis failed"),
              std::string::npos)
        << kernel->result.error;
    EXPECT_FALSE(fabric->result.ok);
    svc.unregister_client(client);
}

} // namespace
} // namespace cascade::service
