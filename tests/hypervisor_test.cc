/// \file
/// Tests for the fabric hypervisor: several runtimes spatially sharing one
/// FpgaDevice through a FabricManager, with admission control, per-tenant
/// quotas, LRU eviction under capacity pressure, and the observability
/// guarantees across a forced hw -> sw -> hw round trip ($monitor output,
/// VCD dumps and profile totals all byte-identical to an exclusive run).

#include "hypervisor/fabric_manager.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "fpga/compile.h"
#include "runtime/replay.h"
#include "runtime/runtime.h"
#include "service/compile_service.h"
#include "telemetry/journal.h"
#include "telemetry/sync.h"
#include "verilog/parser.h"

namespace cascade {
namespace {

using hypervisor::FabricManager;
using runtime::Runtime;
using service::CompileService;

Runtime::Options
hw_fast()
{
    Runtime::Options opts;
    opts.enable_hardware = true;
    opts.compile_effort = 0.05;
    opts.open_loop_target_wall_s = 0.02;
    // A fixed placement seed keeps every compile of one program
    // content-identical, so re-compiles after an eviction hit the cache.
    opts.compile_seed = 7;
    return opts;
}

/// Tenant i's program: same shape, different arithmetic, so the printed
/// streams are distinct per tenant and any cross-tenant state bleed would
/// change the bytes.
std::string
tenant_program(int i)
{
    const int inc = i + 1;
    std::string src;
    src += "reg [15:0] n = 0;\n";
    src += "wire [15:0] h;\n";
    src += "assign h = (n * 16'h9E37) ^ (n >> " + std::to_string(i + 1) +
           ");\n";
    src += "always @(posedge clk.val) begin\n";
    src += "  n <= n + " + std::to_string(inc) + ";\n";
    src += "  if (n % 64 == 0) $display(\"t" + std::to_string(i) +
           " n=%d h=%d\", n, h);\n";
    src += "end\n";
    src += "initial $monitor(\"t" + std::to_string(i) +
           " mon h=%d\", h[7:0]);\n";
    return src;
}

bool
step_until_hardware(Runtime* rt, double timeout_s = 60.0)
{
    const auto start = std::chrono::steady_clock::now();
    while (!rt->hardware_ready()) {
        rt->step();
        if (std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count() > timeout_s) {
            return false;
        }
    }
    return true;
}

std::string
temp_path(const std::string& name)
{
    return std::string(::testing::TempDir()) + "hyp_" + name;
}

std::string
read_file(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::string
strip_date(const std::string& vcd)
{
    const size_t pos = vcd.find("$date");
    if (pos == std::string::npos) {
        return vcd;
    }
    const size_t end = vcd.find("$end\n", pos);
    if (end == std::string::npos) {
        return vcd;
    }
    return vcd.substr(0, pos) + vcd.substr(end + 5);
}

/// Flattens a profile into identity -> deterministic trigger totals
/// (eval_ns is wall time and excluded on purpose).
std::map<std::string, uint64_t>
trigger_totals(const std::vector<runtime::ProfileEntry>& entries)
{
    std::map<std::string, uint64_t> out;
    for (const auto& e : entries) {
        std::string id = e.instance + '|' + e.kind + '|' + e.key + '|';
        for (const auto& t : e.triggers) {
            id += t + ',';
        }
        out[id] += e.total_triggers();
    }
    return out;
}

// ---------------------------------------------------------------------
// Multi-tenant sharing: the acceptance scenario
// ---------------------------------------------------------------------

/// Exclusive reference: tenant i's program on a private device, same API
/// call sequence as the shared run (two run_for_ticks halves).
std::string
exclusive_run(int i, uint64_t half_ticks)
{
    Runtime rt(hw_fast());
    std::string out;
    rt.on_output = [&out](const std::string& text) { out += text; };
    EXPECT_TRUE(rt.eval(tenant_program(i)));
    EXPECT_TRUE(rt.wait_for_hardware(60.0));
    rt.run_for_ticks(half_ticks);
    rt.run_for_ticks(half_ticks);
    return out;
}

TEST(Hypervisor, FourConcurrentTenantsByteIdenticalWithForcedEviction)
{
    constexpr int kTenants = 4;
    constexpr uint64_t kHalf = 400;

    // References first (no shared state involved).
    std::vector<std::string> expected(kTenants);
    for (int i = 0; i < kTenants; ++i) {
        expected[i] = exclusive_run(i, kHalf);
        ASSERT_FALSE(expected[i].empty());
    }

    // One device, one compile service, four concurrent runtimes.
    CompileService::Config cfg;
    cfg.workers = 2;
    CompileService svc(cfg);
    FabricManager fm; // Cyclone V-class default: all four fit
    std::vector<std::string> actual(kTenants);
    std::vector<uint64_t> evictions(kTenants, 0);
    std::vector<std::thread> threads;
    for (int i = 0; i < kTenants; ++i) {
        threads.emplace_back([&, i] {
            Runtime::Options opts = hw_fast();
            opts.tenant_name = "tenant" + std::to_string(i);
            Runtime rt(opts, svc, fm);
            rt.on_output = [&actual, i](const std::string& text) {
                actual[i] += text;
            };
            ASSERT_TRUE(rt.eval(tenant_program(i)));
            ASSERT_TRUE(rt.wait_for_hardware(120.0));
            rt.run_for_ticks(kHalf);
            // Forced eviction: the tenant falls back to software at its
            // next window, recompiles, and is re-admitted mid-run.
            fm.request_eviction(rt.tenant_id());
            ASSERT_TRUE(step_until_hardware(&rt, 120.0));
            rt.run_for_ticks(kHalf);
            // The count of completed evictions for this slot is visible
            // in the slot map.
            for (const auto& s : fm.slot_map()) {
                if (s.tenant == rt.tenant_id()) {
                    evictions[i] = s.evictions;
                }
            }
        });
    }
    for (auto& t : threads) {
        t.join();
    }

    for (int i = 0; i < kTenants; ++i) {
        // step_until_hardware advances the clock past the reference run's
        // tick count, so the shared stream is a strict superset: the
        // reference must be a prefix, byte for byte.
        ASSERT_GE(actual[i].size(), expected[i].size()) << "tenant " << i;
        EXPECT_EQ(actual[i].substr(0, expected[i].size()), expected[i])
            << "tenant " << i << " diverged from its exclusive run";
        EXPECT_GE(evictions[i], 1u) << "tenant " << i << " never evicted";
    }
    // All four unregistered on destruction.
    EXPECT_EQ(fm.tenant_count(), 0u);
    EXPECT_EQ(fm.resident_count(), 0u);
}

TEST(Hypervisor, MultiTenantContentionReportRoundTrip)
{
    // Concurrent tenants hammer the instrumented fabric and service
    // locks; afterwards the contention report must name those sites and
    // every shared-mode journal event must carry its tenant tag. Run
    // under TSan, this doubles as the wrappers' race check.
    telemetry::SyncRegistry::global().reset();
    constexpr int kTenants = 4;
    CompileService::Config cfg;
    cfg.workers = 2;
    CompileService svc(cfg);
    FabricManager fm;
    std::vector<std::thread> threads;
    std::vector<uint64_t> tenant_ids(kTenants, 0);
    std::vector<std::vector<telemetry::Journal::Event>> rings(kTenants);
    for (int i = 0; i < kTenants; ++i) {
        threads.emplace_back([&, i] {
            Runtime::Options opts = hw_fast();
            opts.tenant_name = "ct" + std::to_string(i);
            Runtime rt(opts, svc, fm);
            rt.on_output = [](const std::string&) {};
            ASSERT_TRUE(rt.eval(tenant_program(i)));
            ASSERT_TRUE(rt.wait_for_hardware(120.0));
            rt.run_for_ticks(200);
            tenant_ids[i] = rt.tenant_id();
            rings[i] = rt.journal().ring();
        });
    }
    for (auto& t : threads) {
        t.join();
    }

    const std::string json =
        telemetry::SyncRegistry::global().contention_json();
    EXPECT_NE(json.find("\"schema\":\"cascade.contention.v1\""),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"fabric.slots\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"service.queue\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"journal.ring\""), std::string::npos) << json;

    for (int i = 0; i < kTenants; ++i) {
        ASSERT_FALSE(rings[i].empty()) << "tenant " << i;
        ASSERT_NE(tenant_ids[i], 0u);
        for (const auto& event : rings[i]) {
            EXPECT_EQ(event.tenant, tenant_ids[i])
                << "tenant " << i << " event " << event.type;
            const std::string line =
                telemetry::Journal::event_json(event);
            EXPECT_NE(line.find("\"tenant\":" +
                                std::to_string(tenant_ids[i])),
                      std::string::npos)
                << line;
        }
    }
    telemetry::SyncRegistry::global().reset();
}

// ---------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------

TEST(Hypervisor, QuotaDenialIsFinalAndReported)
{
    CompileService svc;
    FabricManager fm;
    Runtime::Options opts = hw_fast();
    opts.tenant_name = "pinned";
    opts.tenant_le_quota = 1; // nothing real fits in one LE
    Runtime rt(opts, svc, fm);
    std::string out;
    rt.on_output = [&out](const std::string& text) { out += text; };
    ASSERT_TRUE(rt.eval(tenant_program(0)));
    EXPECT_FALSE(rt.wait_for_hardware(30.0));
    rt.run_for_ticks(4); // flush the rejection interrupt
    // The quota denial keeps the tenant off the FABRIC for good; the
    // JIT tier consumes no LEs, so the program may still climb to the
    // in-process kernel (or stay in software on hosts without a
    // compiler). Either way it never becomes fabric-resident.
    EXPECT_TRUE(rt.user_location() == runtime::Location::Software ||
                rt.user_location() == runtime::Location::Jit)
        << static_cast<int>(rt.user_location());
    EXPECT_NE(out.find("hardware compilation rejected"), std::string::npos)
        << out;
    EXPECT_NE(out.find("tenant LE quota exceeded"), std::string::npos)
        << out;
    EXPECT_EQ(fm.resident_count(), 0u);
}

TEST(Hypervisor, CapacityPressureEvictsIdleTenantAndAdmitsWaiter)
{
    // Size the device so exactly one of the two programs fits. Measure
    // the real fabric footprint (wrapper included) by adopting each
    // program once on an uncontended fabric; the compiles also warm the
    // shared service's cache, so the contended phase below re-admits
    // through cache hits.
    CompileService svc;
    uint64_t area = 0;
    for (int i = 0; i < 2; ++i) {
        FabricManager probe_fm;
        Runtime::Options po = hw_fast();
        Runtime rt(po, svc, probe_fm);
        rt.on_output = [](const std::string&) {};
        ASSERT_TRUE(rt.eval(tenant_program(i)));
        ASSERT_TRUE(rt.wait_for_hardware(60.0));
        for (const auto& s : probe_fm.slot_map()) {
            area = std::max(area, s.le_count);
        }
    }
    ASSERT_GT(area, 0u);
    const uint64_t one_fits = area + area / 2;

    FabricManager fm{fpga::FpgaDevice(one_fits, 11000000, 50.0)};

    Runtime::Options oa = hw_fast();
    oa.tenant_name = "first";
    Runtime a(oa, svc, fm);
    a.on_output = [](const std::string&) {};
    ASSERT_TRUE(a.eval(tenant_program(0)));
    ASSERT_TRUE(a.wait_for_hardware(60.0));
    EXPECT_EQ(fm.resident_count(), 1u);

    Runtime::Options ob = hw_fast();
    ob.tenant_name = "second";
    Runtime b(ob, svc, fm);
    b.on_output = [](const std::string&) {};
    ASSERT_TRUE(b.eval(tenant_program(1)));

    // Interleave: b's finished compile is denied retryably (fabric is
    // full), which flags `a` for eviction; `a` self-evicts at its next
    // window; the capacity change re-admits the parked `b`.
    const auto start = std::chrono::steady_clock::now();
    while (!b.hardware_ready()) {
        a.step();
        b.step();
        ASSERT_LT(std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count(),
                  120.0)
            << "second tenant was never admitted";
    }
    // Evicted off the FABRIC — but the JIT tier holds no LEs, so the
    // evictee may land on its in-process kernel instead of the bare
    // interpreter (the eviction-fallback rung of the tier ladder).
    EXPECT_TRUE(a.user_location() == runtime::Location::Software ||
                a.user_location() == runtime::Location::Jit)
        << static_cast<int>(a.user_location());
    EXPECT_EQ(fm.resident_count(), 1u);
    bool a_evicted = false;
    for (const auto& s : fm.slot_map()) {
        if (s.name == "first" && s.evictions >= 1) {
            a_evicted = true;
        }
    }
    EXPECT_TRUE(a_evicted);
}

/// The scheduler iterations of a journal's hypervisor.evict events.
std::vector<uint64_t>
eviction_iterations(const std::string& path)
{
    runtime::ReplayLog log;
    std::string err;
    EXPECT_TRUE(runtime::load_journal(path, &log, &err)) << err;
    std::vector<uint64_t> out;
    for (const auto& ev : log.events) {
        if (ev.type == "hypervisor.evict") {
            out.push_back(ev.data.get_u64("iteration"));
        }
    }
    return out;
}

TEST(Hypervisor, CapacityPressureEvictionReplaysOnExclusiveDevice)
{
    // The capacity-pressure scenario above, with the evictee recording.
    // Its replay runs on a private device where nothing ever contends,
    // so the eviction can only come from the journal: it must fire at
    // the recorded scheduler iteration and the session must match.
    CompileService svc;
    uint64_t area = 0;
    for (int i = 0; i < 2; ++i) {
        FabricManager probe_fm;
        Runtime rt(hw_fast(), svc, probe_fm);
        rt.on_output = [](const std::string&) {};
        ASSERT_TRUE(rt.eval(tenant_program(i)));
        ASSERT_TRUE(rt.wait_for_hardware(60.0));
        for (const auto& s : probe_fm.slot_map()) {
            area = std::max(area, s.le_count);
        }
    }
    ASSERT_GT(area, 0u);
    FabricManager fm{fpga::FpgaDevice(area + area / 2, 11000000, 50.0)};

    const std::string path = temp_path("evictee.jsonl");
    const std::string rerecord = temp_path("evictee_replay.jsonl");
    Runtime a(hw_fast(), svc, fm);
    a.on_output = [](const std::string&) {};
    std::string err;
    ASSERT_TRUE(a.start_recording(path, &err)) << err;
    ASSERT_TRUE(a.eval(tenant_program(0)));
    ASSERT_TRUE(a.wait_for_hardware(60.0));

    Runtime b(hw_fast(), svc, fm);
    b.on_output = [](const std::string&) {};
    ASSERT_TRUE(b.eval(tenant_program(1)));
    const auto start = std::chrono::steady_clock::now();
    while (!b.hardware_ready()) {
        a.step();
        b.step();
        ASSERT_LT(std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count(),
                  120.0)
            << "second tenant was never admitted";
    }
    a.run_for_ticks(64);
    a.stop_recording();
    const std::vector<uint64_t> recorded = eviction_iterations(path);
    ASSERT_FALSE(recorded.empty()) << "the recording holds no eviction";

    runtime::ReplayOptions ropts;
    ropts.record_path = rerecord;
    const runtime::ReplayReport report =
        runtime::replay_journal(path, ropts);
    EXPECT_TRUE(report.ok) << report.summary();
    EXPECT_EQ(eviction_iterations(rerecord), recorded);
    std::remove(path.c_str());
    std::remove(rerecord.c_str());
}

// ---------------------------------------------------------------------
// The hypervisor's device applies, not the tenant's Options
// ---------------------------------------------------------------------

TEST(Hypervisor, FabricTableShowsTheSharedDevice)
{
    CompileService svc;
    FabricManager fm{fpga::FpgaDevice(54321, 11000000, 50.0)};
    Runtime rt(hw_fast(), svc, fm);
    rt.on_output = [](const std::string&) {};
    ASSERT_TRUE(rt.eval(tenant_program(0)));
    ASSERT_TRUE(rt.wait_for_hardware(60.0));
    const std::string table = rt.fabric_table();
    EXPECT_NE(table.find(" / 54321 ("), std::string::npos) << table;
}

TEST(Hypervisor, CompilesTargetTheSharedDeviceClock)
{
    // A shared tenant compiles against the clock it will run at. On a
    // 200 MHz device a design either meets 200 MHz or runs derated below
    // its Fmax; it never runs above it.
    CompileService svc;
    FabricManager fm{fpga::FpgaDevice(110000, 11000000, 200.0)};
    Runtime rt(hw_fast(), svc, fm);
    rt.on_output = [](const std::string&) {};
    ASSERT_TRUE(rt.eval(tenant_program(0)));
    ASSERT_TRUE(rt.wait_for_hardware(60.0));
    const auto& report = rt.last_compile_report();
    ASSERT_TRUE(report.has_value());
    double clock = 0; // the journaled adopt.clock_mhz
    for (const auto& ev : rt.journal().ring()) {
        if (ev.type == "adopt") {
            telemetry::JsonValue data;
            ASSERT_TRUE(telemetry::parse_json(ev.data, &data));
            clock = data.get_num("clock_mhz");
        }
    }
    ASSERT_GT(clock, 0.0);
    EXPECT_LE(clock, report->timing.fmax_mhz);
    EXPECT_NE(rt.fabric_table().find("(target 200.0, "), std::string::npos)
        << rt.fabric_table();
}

// ---------------------------------------------------------------------
// Observability continuity across eviction
// ---------------------------------------------------------------------

TEST(Hypervisor, EvictionRoundTripPreservesMonitorVcdAndProfile)
{
    constexpr uint64_t kHalf = 12;
    // No continuous assign: interpreter-side continuous-eval counts are
    // not a placement-invariant observable (profile_test pins what is),
    // and this test isolates the eviction, not the placement.
    const char* const program =
        "reg [15:0] n = 0;\n"
        "always @(posedge clk.val) begin\n"
        "  n <= n + 3;\n"
        "  if (n % 8 == 0) $display(\"n=%d\", n);\n"
        "end\n"
        "initial $monitor(\"mon n=%d\", n[7:0]);\n";

    // The reference: the identical exclusive hardware run, uninterrupted.
    // The shared run below differs from it ONLY by the forced mid-run
    // hw -> sw -> hw round trip.
    std::string ref_out;
    std::string ref_vcd;
    std::map<std::string, uint64_t> ref_profile;
    uint64_t ref_ticks = 0;
    {
        Runtime::Options opts = hw_fast();
        opts.profiling = true;
        Runtime rt(opts);
        rt.on_output = [&ref_out](const std::string& t) { ref_out += t; };
        ASSERT_TRUE(rt.eval(program));
        std::string err;
        ASSERT_TRUE(rt.add_probe("n", &err)) << err;
        ASSERT_TRUE(rt.wait_for_hardware(60.0));
        ASSERT_TRUE(rt.vcd_open(temp_path("ref.vcd"), &err)) << err;
        rt.run_for_ticks(kHalf);
        rt.run_for_ticks(kHalf);
        rt.close_vcd();
        ref_vcd = strip_date(read_file(temp_path("ref.vcd")));
        ref_profile = trigger_totals(rt.profiler().profile());
        ref_ticks = rt.virtual_ticks();
    }
    ASSERT_FALSE(ref_out.empty());
    ASSERT_FALSE(ref_vcd.empty());

    // Shared-mode run with a forced eviction between the two halves. The
    // eviction relocates the program hw -> sw through the state-transfer
    // ABI; everything observable must carry across. (VCD capture holds
    // the runtime in step mode, so ticks advance identically to the
    // reference.)
    std::string out;
    std::string vcd;
    std::map<std::string, uint64_t> profile;
    {
        CompileService svc;
        FabricManager fm;
        Runtime::Options opts = hw_fast();
        opts.profiling = true;
        opts.tenant_name = "roundtrip";
        Runtime rt(opts, svc, fm);
        rt.on_output = [&out](const std::string& t) { out += t; };
        ASSERT_TRUE(rt.eval(program));
        std::string err;
        ASSERT_TRUE(rt.add_probe("n", &err)) << err;
        ASSERT_TRUE(rt.wait_for_hardware(60.0));
        ASSERT_TRUE(rt.vcd_open(temp_path("shared.vcd"), &err)) << err;
        rt.run_for_ticks(kHalf);
        // Force the eviction and step to the next window, where the
        // hw -> sw relocation executes. The recompile is a cache hit, so
        // re-admission can land in the very same window — observe the
        // round trip through the slot's eviction count, not a transient
        // location.
        fm.request_eviction(rt.tenant_id());
        auto evictions = [&] {
            for (const auto& s : fm.slot_map()) {
                if (s.tenant == rt.tenant_id()) {
                    return s.evictions;
                }
            }
            return uint64_t{0};
        };
        for (int i = 0; i < 16 && evictions() == 0; ++i) {
            rt.step();
        }
        EXPECT_GE(evictions(), 1u);
        // Re-adoption, then land on the reference's exact tick count.
        ASSERT_TRUE(step_until_hardware(&rt, 60.0));
        ASSERT_GE(ref_ticks, rt.virtual_ticks());
        rt.run_for_ticks(ref_ticks - rt.virtual_ticks());
        rt.close_vcd();
        vcd = strip_date(read_file(temp_path("shared.vcd")));
        profile = trigger_totals(rt.profiler().profile());
    }

    EXPECT_EQ(out, ref_out) << "$monitor/$display stream diverged";
    EXPECT_EQ(vcd, ref_vcd) << "VCD dump diverged";
    EXPECT_EQ(profile, ref_profile) << "profile totals diverged";
}

// ---------------------------------------------------------------------
// FabricManager unit behavior
// ---------------------------------------------------------------------

TEST(FabricManager, SlotMapTracksResidencyAndNames)
{
    FabricManager fm{fpga::FpgaDevice(1000, 10000, 50.0)};
    const uint64_t t1 = fm.add_tenant("alpha");
    const uint64_t t2 = fm.add_tenant("", 512, 0);
    EXPECT_EQ(fm.tenant_count(), 2u);

    const auto slots = fm.slot_map();
    ASSERT_EQ(slots.size(), 2u);
    EXPECT_EQ(slots[0].tenant, t1);
    EXPECT_EQ(slots[0].name, "alpha");
    EXPECT_FALSE(slots[0].resident);
    EXPECT_EQ(slots[1].name, "tenant-" + std::to_string(t2));
    EXPECT_EQ(slots[1].le_quota, 512u);

    const std::string table = fm.slot_map_table();
    EXPECT_NE(table.find("hypervisor slots"), std::string::npos);
    EXPECT_NE(table.find("alpha"), std::string::npos);
    EXPECT_NE(table.find("software"), std::string::npos);
    EXPECT_NE(table.find("512 LEs"), std::string::npos);

    fm.remove_tenant(t1);
    fm.remove_tenant(t2);
    EXPECT_EQ(fm.tenant_count(), 0u);
}

/// A successful compile of the given area, without running the flow.
fpga::CompileResult
finished_compile(uint64_t les, uint64_t bram_bits)
{
    fpga::CompileResult result;
    result.ok = true;
    result.report.area.les = les;
    result.report.area.bram_bits = bram_bits;
    return result;
}

TEST(FabricManager, HardDenialsAreTheDeviceVerdict)
{
    const fpga::FpgaDevice dev(1000, 10000, 50.0);
    FabricManager fm{dev};
    const uint64_t le_capped = fm.add_tenant("le", /*le_quota=*/100, 0);
    const uint64_t bram_capped = fm.add_tenant("bram", 0, /*bram_quota=*/64);
    const uint64_t uncapped = fm.add_tenant("free");
    fpga::CompileResult failed;
    failed.error = "synthesis failed:\nno driver";

    struct Case {
        uint64_t tenant;
        fpga::CompileResult result;
        uint64_t le_quota;
        uint64_t bram_quota;
        std::string error;
    };
    const std::vector<Case> cases = {
        {uncapped, failed, 0, 0, "synthesis failed:\nno driver"},
        {le_capped, finished_compile(200, 0), 100, 0,
         "tenant LE quota exceeded: needs 200 LEs, quota 100"},
        {bram_capped, finished_compile(10, 128), 0, 64,
         "tenant BRAM quota exceeded: needs 128 bits, quota 64"},
        {uncapped, finished_compile(2000, 0), 0, 0,
         "design does not fit: needs 2000 LEs / 0 BRAM bits"},
    };
    for (const Case& c : cases) {
        const hypervisor::Admission adm =
            fm.request_residency(c.tenant, c.result);
        EXPECT_FALSE(adm.verdict.ok) << c.error;
        EXPECT_FALSE(adm.retryable) << c.error;
        EXPECT_EQ(adm.verdict.error, c.error);
        EXPECT_EQ(dev.admit(c.result, c.le_quota, c.bram_quota).error,
                  c.error);
    }
    EXPECT_EQ(fm.resident_count(), 0u);

    // Within quota and device: admitted at the device clock.
    const hypervisor::Admission adm =
        fm.request_residency(le_capped, finished_compile(100, 0));
    ASSERT_TRUE(adm.verdict.ok) << adm.verdict.error;
    EXPECT_EQ(adm.verdict.clock_mhz, 50.0);
    EXPECT_EQ(adm.le_start, 0u);
    EXPECT_EQ(adm.le_count, 100u);
    EXPECT_EQ(fm.resident_count(), 1u);
    fm.release_residency(le_capped);
}

TEST(FabricManager, GrantsShrinkWithResidentCount)
{
    FabricManager fm;
    const uint64_t t1 = fm.add_tenant("a");
    // Sole (non-resident) tenant: the request passes through.
    EXPECT_EQ(fm.grant_open_loop(t1, 4096u), 4096u);
}

} // namespace
} // namespace cascade
