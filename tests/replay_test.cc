/// \file
/// Deterministic record/replay tests: a session recorded across a mid-run
/// software-to-hardware adoption must replay with byte-identical output
/// and identical counters; a tampered journal must report the exact first
/// diverging event; the placement seed must be pinnable and surfaced; a
/// session whose hardware compile was rejected must replay on the
/// exclusive device; a shared session must replay on its hypervisor's
/// device; a session that free-runs must replay its open-loop grants.

#include "runtime/replay.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "hypervisor/fabric_manager.h"
#include "runtime/repl.h"
#include "service/compile_service.h"

namespace cascade::runtime {
namespace {

std::string
temp_path(const char* name)
{
    return (std::filesystem::temp_directory_path() /
            (std::string("cascade_replay_test_") + name +
             std::to_string(::getpid())))
        .string();
}

Runtime::Options
hw_fast()
{
    Runtime::Options opts;
    opts.enable_hardware = true;
    opts.compile_effort = 0.05;          // keep tests fast
    opts.open_loop_target_wall_s = 0.02; // small adaptive batches too
    return opts;
}

/// A counter with both $display and $monitor output; enough state that a
/// botched sw -> hw handoff would change the printed sequence.
const char* kProgram = "reg [15:0] n = 0;\n"
                       "wire [15:0] h;\n"
                       "assign h = (n * 16'h9E37) ^ (n >> 3);\n"
                       "always @(posedge clk.val) begin\n"
                       "  n <= n + 1;\n"
                       "  if (n % 64 == 0) $display(\"n=%d h=%d\", n, h);\n"
                       "end\n"
                       "initial $monitor(\"mon h=%d\", h[7:0]);\n";

/// Steps until adoption (bounded by wall time), then keeps running.
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

TEST(Replay, RoundTripAcrossAdoptionIsByteIdentical)
{
    const std::string path = temp_path("roundtrip.jsonl");

    std::string recorded_output;
    uint64_t recorded_monitor_lines = 0;
    uint64_t recorded_interrupts = 0;
    {
        Runtime rt(hw_fast());
        rt.on_output = [&recorded_output](const std::string& text) {
            recorded_output += text;
        };
        std::string err;
        ASSERT_TRUE(rt.start_recording(path, &err)) << err;
        ASSERT_TRUE(rt.eval(kProgram));
        // Run in software, adopt hardware mid-run, keep running after.
        ASSERT_TRUE(step_until_hardware(&rt));
        EXPECT_TRUE(rt.hardware_ready());
        rt.run_for_ticks(1500);
        rt.stop_recording();
        recorded_monitor_lines =
            rt.telemetry().counter("monitor.lines")->value();
        recorded_interrupts =
            rt.telemetry().counter("interrupt.enqueued")->value();
        EXPECT_GT(recorded_monitor_lines, 0u);
    }
    ASSERT_FALSE(recorded_output.empty());

    ReplayLog log;
    std::string err;
    ASSERT_TRUE(load_journal(path, &log, &err)) << err;
    // The recording captured the adoption and at least one compile.
    bool saw_adopt = false;
    for (const auto& ev : log.events) {
        if (ev.type == "adopt") {
            saw_adopt = true;
        }
    }
    ASSERT_TRUE(saw_adopt);

    const Runtime::Options opts = options_from_header(log.header);
    EXPECT_EQ(opts.compile_effort, 0.05);

    Runtime rt2(opts);
    std::string replayed_output;
    rt2.on_output = [&replayed_output](const std::string& text) {
        replayed_output += text;
    };
    const ReplayReport report = replay_into(&rt2, log);
    EXPECT_TRUE(report.ok) << report.summary();
    EXPECT_FALSE(report.diverged) << report.summary();
    EXPECT_GT(report.outputs_compared, 0u);

    // Byte-identical view output and identical observable counters, even
    // though the original adoption was timed by a background compile.
    EXPECT_EQ(replayed_output, recorded_output);
    EXPECT_EQ(rt2.telemetry().counter("monitor.lines")->value(),
              recorded_monitor_lines);
    EXPECT_EQ(rt2.telemetry().counter("interrupt.enqueued")->value(),
              recorded_interrupts);
    EXPECT_TRUE(rt2.hardware_ready());

    std::filesystem::remove(path);
}

TEST(Replay, TamperedJournalReportsFirstDivergingEvent)
{
    const std::string path = temp_path("tamper.jsonl");
    {
        Runtime::Options opts;
        opts.enable_hardware = false;
        Runtime rt(opts);
        std::string err;
        ASSERT_TRUE(rt.start_recording(path, &err)) << err;
        ASSERT_TRUE(rt.eval("reg [7:0] n = 0;\n"
                            "always @(posedge clk.val) begin\n"
                            "  n <= n + 1;\n"
                            "  $display(\"n=%d\", n);\n"
                            "  if (n == 20) $finish;\n"
                            "end\n"));
        rt.run(4000);
        rt.stop_recording();
    }

    // Tamper with one recorded $display payload ("n=  7" -> "n=  9").
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    in.close();
    std::string text = ss.str();
    const std::string needle = "n=  7";
    const size_t at = text.find(needle);
    ASSERT_NE(at, std::string::npos);
    text.replace(at, needle.size(), "n=  9");

    // Recover the tampered line's recorded seq for the assertion below.
    const size_t line_start = text.rfind('\n', at) + 1;
    const size_t line_end = text.find('\n', at);
    telemetry::JsonValue tampered_line;
    ASSERT_TRUE(telemetry::parse_json(
        text.substr(line_start, line_end - line_start), &tampered_line));
    const uint64_t tampered_seq = tampered_line.get_u64("seq");
    ASSERT_GT(tampered_seq, 0u);

    std::ofstream out(path, std::ios::trunc);
    out << text;
    out.close();

    const ReplayReport report = replay_journal(path);
    EXPECT_FALSE(report.ok);
    ASSERT_TRUE(report.diverged) << report.summary();
    EXPECT_EQ(report.divergence_seq, tampered_seq) << report.summary();
    EXPECT_EQ(report.divergence_type, "interrupt.enqueue");
    EXPECT_NE(report.expected.find("n=  9"), std::string::npos)
        << report.summary();
    EXPECT_NE(report.actual.find("n=  7"), std::string::npos)
        << report.summary();

    std::filesystem::remove(path);
}

TEST(Replay, VcdDigestReplaysAfterTheWallClockSecondChanges)
{
    // vcd.digest is a compared event, so it must depend only on the
    // signal data, not on the dump's $date header line.
    const std::string path = temp_path("vcd_session.jsonl");
    const std::string vcd_path = temp_path("vcd_session.vcd");
    {
        Runtime::Options opts;
        opts.enable_hardware = false;
        Runtime rt(opts);
        std::string err;
        ASSERT_TRUE(rt.start_recording(path, &err)) << err;
        ASSERT_TRUE(rt.eval("reg [7:0] n = 0;\n"
                            "always @(posedge clk.val) n <= n + 1;\n"));
        ASSERT_TRUE(rt.add_probe("n", &err)) << err;
        ASSERT_TRUE(rt.vcd_open(vcd_path, &err)) << err;
        rt.run_for_ticks(8);
        rt.close_vcd();
        rt.stop_recording();
    }
    // Replay rewrites the dump at the same path with a later $date.
    const std::time_t recorded = std::time(nullptr);
    while (std::time(nullptr) == recorded) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    const ReplayReport report = replay_journal(path);
    EXPECT_TRUE(report.ok) << report.summary();
    EXPECT_FALSE(report.diverged) << report.summary();

    std::filesystem::remove(path);
    std::filesystem::remove(vcd_path);
}

TEST(Replay, RecordingRequiresFreshSession)
{
    Runtime::Options opts;
    opts.enable_hardware = false;
    Runtime rt(opts);
    ASSERT_TRUE(rt.eval("reg r = 0;"));
    std::string err;
    EXPECT_FALSE(rt.start_recording(temp_path("late.jsonl"), &err));
    EXPECT_NE(err.find("fresh session"), std::string::npos) << err;
}

TEST(Replay, CompileSeedIsPinnedAndSurfaced)
{
    Runtime::Options opts = hw_fast();
    opts.compile_seed = 12345;
    Runtime rt(opts);
    ASSERT_TRUE(rt.eval(kProgram));
    ASSERT_TRUE(step_until_hardware(&rt));
    ASSERT_TRUE(rt.last_compile_report().has_value());
    EXPECT_EQ(rt.last_compile_report()->seed, 12345u);
    EXPECT_NE(rt.stats_json().find("\"seed\":12345"), std::string::npos);
}

TEST(Replay, DefaultSeedIsProgramVersion)
{
    Runtime rt(hw_fast());
    ASSERT_TRUE(rt.eval(kProgram));
    ASSERT_TRUE(step_until_hardware(&rt));
    ASSERT_TRUE(rt.last_compile_report().has_value());
    // The bootstrap Clock eval is version 1; the user program is 2.
    EXPECT_EQ(rt.last_compile_report()->seed, 2u);
}

TEST(Replay, ReplRecordAndReplayMetaCommands)
{
    const std::string path = temp_path("repl.jsonl");
    {
        Runtime::Options opts;
        opts.enable_hardware = false;
        Runtime rt(opts);
        std::ostringstream out;
        Repl repl(&rt, &out);
        repl.feed(":record " + path + "\n");
        EXPECT_NE(out.str().find("recording"), std::string::npos);
        repl.feed("reg [7:0] n = 0;\n");
        repl.feed("always @(posedge clk.val) begin n <= n + 1; "
                  "$display(\"n=%d\", n); if (n == 3) $finish; end\n");
        rt.run(500);
        repl.feed(":record stop\n");
        EXPECT_NE(out.str().find("recording stopped"), std::string::npos);
    }
    {
        Runtime::Options opts;
        opts.enable_hardware = false;
        Runtime rt(opts);
        std::ostringstream out;
        Repl repl(&rt, &out);
        repl.feed(":replay " + path + "\n");
        EXPECT_NE(out.str().find("replay ok"), std::string::npos)
            << out.str();
    }
    std::filesystem::remove(path);
}

TEST(Replay, EditedFabricCompileSeedsFromThePriorAndReplays)
{
    // Two evals on the fabric: the edit's placement is seeded from the
    // adopted placement of the first. compile.done is compared on replay
    // and its digest covers the placement, so record and replay must
    // seed from the same prior.
    const std::string path = temp_path("prior.jsonl");
    Runtime::Options opts = hw_fast();
    opts.enable_jit = false;
    {
        Runtime rt(opts);
        rt.on_output = [](const std::string&) {};
        std::string err;
        ASSERT_TRUE(rt.start_recording(path, &err)) << err;
        ASSERT_TRUE(rt.eval(kProgram));
        ASSERT_TRUE(step_until_hardware(&rt));
        rt.run_for_ticks(300);
        ASSERT_TRUE(rt.eval("always @(posedge clk.val) if (n == 900) "
                            "$display(\"edit h=%d\", h);\n"));
        ASSERT_TRUE(step_until_hardware(&rt));
        rt.run_for_ticks(800);
        rt.stop_recording();
        // `:why` on the edit's compile shows the cells place kept.
        const auto requests = rt.request_tracker().recent();
        const auto edit = std::find_if(
            requests.rbegin(), requests.rend(),
            [](const auto& r) { return std::string(r.kind) == "compile"; });
        ASSERT_NE(edit, requests.rend());
        EXPECT_GT(edit->kept_cells, 0u);
        EXPECT_NE(rt.request_tracker().why(edit->id).find(
                      "kept " + std::to_string(edit->kept_cells) + " of"),
                  std::string::npos);
    }

    const auto compile_events = [](const ReplayLog& log) {
        std::vector<std::string> done;
        uint64_t seeded_version = 0;
        uint64_t kept = 0;
        for (const ReplayLogEvent& ev : log.events) {
            if (ev.type == "compile.launch" &&
                ev.data.get_u64("prior") != 0) {
                EXPECT_LT(ev.data.get_u64("prior"),
                          ev.data.get_u64("version"));
                seeded_version = ev.data.get_u64("version");
            } else if (ev.type == "compile.done") {
                done.push_back(ev.data_raw);
                if (ev.data.get_u64("version") == seeded_version) {
                    kept = ev.data.get_u64("kept");
                }
            }
        }
        EXPECT_NE(seeded_version, 0u) << "no compile launched with a prior";
        EXPECT_GT(kept, 0u) << "the seeded compile kept no cell";
        return done;
    };
    ReplayLog log;
    std::string err;
    ASSERT_TRUE(load_journal(path, &log, &err)) << err;
    const std::vector<std::string> recorded = compile_events(log);
    ASSERT_GE(recorded.size(), 2u);

    const std::string rerecord = temp_path("prior_replay.jsonl");
    {
        Runtime rt2(options_from_header(log.header));
        rt2.on_output = [](const std::string&) {};
        ReplayOptions ropts;
        ropts.record_path = rerecord;
        const ReplayReport report = replay_into(&rt2, log, ropts);
        EXPECT_TRUE(report.ok) << report.summary();
        EXPECT_FALSE(report.diverged) << report.summary();
    }
    ReplayLog replayed;
    ASSERT_TRUE(load_journal(rerecord, &replayed, &err)) << err;
    EXPECT_EQ(compile_events(replayed), recorded);

    std::filesystem::remove(path);
    std::filesystem::remove(rerecord);
}

TEST(Replay, RequestTracingIsDeterministicAcrossReplay)
{
    // Request ids are journal sequence numbers, and the request.done
    // journal event carries no wall-clock fields, so a recording made
    // with tracing active must replay byte-identically and reproduce
    // the exact same request ids/kinds/outcomes.
    const std::string path = temp_path("requests.jsonl");

    std::string recorded_output;
    {
        Runtime rt(hw_fast());
        rt.on_output = [&recorded_output](const std::string& text) {
            recorded_output += text;
        };
        std::string err;
        ASSERT_TRUE(rt.start_recording(path, &err)) << err;
        ASSERT_TRUE(rt.eval(kProgram));
        ASSERT_TRUE(step_until_hardware(&rt));
        rt.run_for_ticks(1500);
        rt.stop_recording();
    }

    ReplayLog log;
    std::string err;
    ASSERT_TRUE(load_journal(path, &log, &err)) << err;

    // Every request.done id resolves to an earlier journal event of the
    // matching kind -- request ids ARE the originating event's seq.
    std::vector<std::tuple<uint64_t, std::string, bool>> recorded_done;
    bool saw_compile_done = false;
    for (const auto& ev : log.events) {
        if (ev.type != "request.done") {
            continue;
        }
        const uint64_t id = ev.data.get_u64("id");
        const std::string kind = ev.data.get_str("kind");
        recorded_done.emplace_back(id, kind,
                                   ev.data.get_bool("ok"));
        if (id < log.events.front().seq) {
            // Originated before recording began (the bootstrap compile
            // is launched at construction); no line to cross-check.
            continue;
        }
        bool origin_found = false;
        for (const auto& origin : log.events) {
            if (origin.seq != id) {
                continue;
            }
            origin_found = true;
            if (kind == "eval") {
                EXPECT_EQ(origin.type, "eval");
            } else if (kind == "compile") {
                EXPECT_EQ(origin.type, "compile.launch");
            } else if (kind == "interrupt") {
                EXPECT_EQ(origin.type, "interrupt.flush");
            } else if (kind == "evict") {
                EXPECT_EQ(origin.type, "hypervisor.evict");
            }
        }
        EXPECT_TRUE(origin_found) << "request " << id
                                  << " has no originating event";
        if (kind == "compile" && ev.data.get_bool("ok")) {
            saw_compile_done = true;
        }
    }
    ASSERT_FALSE(recorded_done.empty());
    ASSERT_TRUE(saw_compile_done)
        << "no successful compile request in the recording";

    // Replay the recording twice, re-recording each run. The two
    // replayed journals must be BYTE-identical -- request.done events
    // carry no wall-clock fields, so tracing does not break the CI
    // determinism diff.
    const auto replay_once = [&](const std::string& rerecord_path,
                                 std::string* output)
        -> std::vector<std::tuple<uint64_t, std::string, bool>> {
        Runtime rt2(options_from_header(log.header));
        rt2.on_output = [output](const std::string& text) {
            *output += text;
        };
        ReplayOptions ropts;
        ropts.record_path = rerecord_path;
        const ReplayReport report = replay_into(&rt2, log, ropts);
        EXPECT_TRUE(report.ok) << report.summary();
        std::vector<std::tuple<uint64_t, std::string, bool>> done;
        for (const auto& r : rt2.request_tracker().recent()) {
            done.emplace_back(r.id, r.kind, r.ok);
        }
        // Every request id the replayed tracker holds is the seq of an
        // originating event in the replayed session's own journal.
        for (const auto& ev : rt2.journal().ring()) {
            for (auto& d : done) {
                if (ev.seq != std::get<0>(d)) {
                    continue;
                }
                const std::string& kind = std::get<1>(d);
                if (kind == "compile") {
                    EXPECT_EQ(ev.type, "compile.launch");
                } else if (kind == "eval") {
                    EXPECT_EQ(ev.type, "eval");
                } else if (kind == "interrupt") {
                    EXPECT_EQ(ev.type, "interrupt.flush");
                }
            }
        }
        return done;
    };

    const std::string replay1 = temp_path("requests_replay1.jsonl");
    const std::string replay2 = temp_path("requests_replay2.jsonl");
    std::string output1;
    std::string output2;
    const auto done1 = replay_once(replay1, &output1);
    const auto done2 = replay_once(replay2, &output2);

    // Byte-identical user-visible output, and the recording's output
    // reproduced exactly even with tracing active.
    EXPECT_EQ(output1, recorded_output);
    EXPECT_EQ(output2, output1);

    // Identical request histories: same ids, kinds, and outcomes.
    EXPECT_EQ(done1, done2);
    bool replay_saw_compile = false;
    for (const auto& d : done1) {
        if (std::get<1>(d) == "compile" && std::get<2>(d)) {
            replay_saw_compile = true;
        }
    }
    EXPECT_TRUE(replay_saw_compile);

    // And the journals themselves are byte-identical, request.done
    // lines included (the CI determinism check's exact comparison).
    std::ifstream f1(replay1);
    std::ifstream f2(replay2);
    std::stringstream s1;
    std::stringstream s2;
    s1 << f1.rdbuf();
    s2 << f2.rdbuf();
    ASSERT_FALSE(s1.str().empty());
    EXPECT_EQ(s1.str(), s2.str());
    EXPECT_NE(s1.str().find("request.done"), std::string::npos);

    std::filesystem::remove(path);
    std::filesystem::remove(replay1);
    std::filesystem::remove(replay2);
}

// ---------------------------------------------------------------------
// Rejected hardware compiles
// ---------------------------------------------------------------------

std::string
read_file(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/// Records \p rt running kProgram to \p path until its hardware compile
/// is rejected, then a while longer in software. Returns the output.
std::string
record_until_rejected(Runtime& rt, const std::string& path)
{
    std::string output;
    rt.on_output = [&output](const std::string& text) { output += text; };
    std::string err;
    EXPECT_TRUE(rt.start_recording(path, &err)) << err;
    EXPECT_TRUE(rt.eval(kProgram));
    const auto start = std::chrono::steady_clock::now();
    while (output.find("hardware compilation rejected") ==
               std::string::npos &&
           std::chrono::steady_clock::now() - start <
               std::chrono::seconds(60)) {
        rt.step();
    }
    rt.run_for_ticks(300);
    rt.stop_recording();
    EXPECT_FALSE(rt.hardware_ready());
    return output;
}

/// The error of \p path's one compile.rejected event ("" if none).
std::string
rejection_error(const std::string& path)
{
    ReplayLog log;
    std::string err;
    EXPECT_TRUE(load_journal(path, &log, &err)) << err;
    std::string error;
    for (const ReplayLogEvent& ev : log.events) {
        if (ev.type == "compile.rejected") {
            EXPECT_TRUE(error.empty()) << "more than one rejection";
            error = ev.data.get_str("error");
        }
    }
    return error;
}

/// Replays \p path twice on the exclusive device, re-recording each run:
/// both replay ok, the recorded rejection recurs, and the two
/// re-recordings are byte-identical.
void
expect_rejection_replays(const std::string& path)
{
    std::string journals[2];
    for (int i = 0; i < 2; ++i) {
        const std::string rerecord = path + ".replay" + std::to_string(i);
        ReplayOptions ropts;
        ropts.record_path = rerecord;
        const ReplayReport report = replay_journal(path, ropts);
        EXPECT_TRUE(report.ok) << report.summary();
        EXPECT_GT(report.outputs_compared, 0u);
        EXPECT_EQ(rejection_error(rerecord), rejection_error(path));
        journals[i] = read_file(rerecord);
        std::filesystem::remove(rerecord);
    }
    ASSERT_FALSE(journals[0].empty());
    EXPECT_EQ(journals[0], journals[1]);
}

TEST(Replay, FitRejectedExclusiveSessionReplays)
{
    const std::string path = temp_path("fit_rejected.jsonl");
    Runtime::Options opts = hw_fast();
    opts.device_les = 10; // nothing fits
    opts.enable_jit = false;
    {
        Runtime rt(opts);
        const std::string output = record_until_rejected(rt, path);
        EXPECT_NE(output.find("design does not fit"), std::string::npos)
            << output;
    }
    EXPECT_EQ(rejection_error(path).rfind("design does not fit: needs ", 0),
              0u);
    expect_rejection_replays(path);
    std::filesystem::remove(path);
}

TEST(Replay, QuotaDeniedSharedSessionReplaysOnTheExclusiveDevice)
{
    const std::string path = temp_path("quota_denied.jsonl");
    Runtime::Options opts = hw_fast();
    opts.tenant_le_quota = 1; // nothing real fits in one LE
    opts.enable_jit = false;
    {
        service::CompileService svc;
        hypervisor::FabricManager fm;
        Runtime rt(opts, svc, fm);
        const std::string output = record_until_rejected(rt, path);
        EXPECT_NE(output.find("tenant LE quota exceeded"),
                  std::string::npos)
            << output;
        EXPECT_EQ(fm.resident_count(), 0u);
    }
    EXPECT_EQ(rejection_error(path).rfind("tenant LE quota exceeded: ", 0),
              0u);
    // The replay device has no tenants and no quota: the denial can only
    // come from the journal.
    expect_rejection_replays(path);
    std::filesystem::remove(path);
}

TEST(Replay, SharedSessionReplaysOnTheHypervisorsDevice)
{
    // The hypervisor's device runs at 200 MHz, Options at the default 50:
    // the compile misses the 200 MHz target and the design loads
    // PLL-clocked, which a replay on a 50 MHz device would not reproduce.
    const std::string path = temp_path("shared_device.jsonl");
    Runtime::Options opts = hw_fast();
    opts.enable_jit = false;
    {
        service::CompileService svc;
        hypervisor::FabricManager fm(
            fpga::FpgaDevice(110000, 11000000, 200.0));
        Runtime rt(opts, svc, fm);
        std::string err;
        ASSERT_TRUE(rt.start_recording(path, &err)) << err;
        ASSERT_TRUE(rt.eval(kProgram));
        ASSERT_TRUE(step_until_hardware(&rt));
        rt.run_for_ticks(500);
        rt.stop_recording();
    }
    ReplayLog log;
    std::string err;
    ASSERT_TRUE(load_journal(path, &log, &err)) << err;
    EXPECT_EQ(options_from_header(log.header).device_clock_mhz, 200.0);

    std::string journals[2];
    for (int i = 0; i < 2; ++i) {
        const std::string rerecord = path + ".replay" + std::to_string(i);
        ReplayOptions ropts;
        ropts.record_path = rerecord;
        const ReplayReport report = replay_journal(path, ropts);
        EXPECT_TRUE(report.ok) << report.summary();
        EXPECT_GT(report.outputs_compared, 0u);
        journals[i] = read_file(rerecord);
        std::filesystem::remove(rerecord);
    }
    ASSERT_FALSE(journals[0].empty());
    EXPECT_EQ(journals[0], journals[1]);
    std::filesystem::remove(path);
}

// ---------------------------------------------------------------------
// Open-loop grants
// ---------------------------------------------------------------------

TEST(Replay, OpenLoopGrantsReplay)
{
    // The counter drives an LED, so once the fabric has inlined it the
    // program free-runs in open-loop grants, each journaled with its
    // batch; a replay must take those grants from the journal.
    const std::string path = temp_path("open_loop.jsonl");
    {
        Runtime rt(hw_fast());
        rt.on_output = [](const std::string&) {};
        uint64_t grants = 0;
        rt.journal().add_tap([&grants](const telemetry::Journal::Event& ev) {
            grants += ev.type == "openloop.grant";
        });
        std::string err;
        ASSERT_TRUE(rt.start_recording(path, &err)) << err;
        ASSERT_TRUE(rt.eval(std::string(kProgram) +
                                "Led#(8) led();\n"
                                "assign led.val = n[7:0];\n",
                            &err))
            << err;
        const auto start = std::chrono::steady_clock::now();
        while (rt.user_location() != Location::HardwareForwarded ||
               grants < 2) {
            ASSERT_LT(std::chrono::steady_clock::now() - start,
                      std::chrono::seconds(60))
                << grants << " grants";
            rt.run_for_ticks(100);
        }
        rt.stop_recording();
    }

    std::string journals[2];
    for (int i = 0; i < 2; ++i) {
        const std::string rerecord = path + ".replay" + std::to_string(i);
        ReplayOptions ropts;
        ropts.record_path = rerecord;
        const ReplayReport report = replay_journal(path, ropts);
        EXPECT_TRUE(report.ok) << report.summary();
        EXPECT_GT(report.outputs_compared, 0u);
        journals[i] = read_file(rerecord);
        std::filesystem::remove(rerecord);
    }
    ASSERT_FALSE(journals[0].empty());
    EXPECT_EQ(journals[0], journals[1]);
    std::filesystem::remove(path);
}

} // namespace
} // namespace cascade::runtime
