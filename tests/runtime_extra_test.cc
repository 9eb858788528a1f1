/// \file
/// Additional runtime coverage: GPIO, native-mode rejection of
/// unsynthesizable code, timeline accounting, $write ordering, multiple
/// evals building a program incrementally, location reporting, and
/// compile jobs superseded by later evals.

#include "runtime/runtime.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "workloads/workloads.h"

namespace cascade::runtime {
namespace {

Runtime::Options
sw_only()
{
    Runtime::Options opts;
    opts.enable_hardware = false;
    return opts;
}

TEST(RuntimeExtra, GpioRoundTrip)
{
    Runtime rt(sw_only());
    std::string errors;
    ASSERT_TRUE(rt.eval(R"(
        GPIO#(8) gpio();
        reg [7:0] echo = 0;
        always @(posedge clk.val)
          echo <= gpio.in_val + 1;
        assign gpio.val = echo;
    )", &errors)) << errors;
    rt.set_pad(41); // drives every host-facing pin net, including GPIO in
    rt.run_for_ticks(2);
    // The GPIO out_pins reflect echo == in + 1.
    EXPECT_EQ(rt.led_state().to_uint64(), 42u);
}

TEST(RuntimeExtra, WriteThenDisplayOrdering)
{
    Runtime rt(sw_only());
    std::string output;
    rt.on_output = [&output](const std::string& s) { output += s; };
    std::string errors;
    ASSERT_TRUE(rt.eval(R"(
        reg fired = 0;
        always @(posedge clk.val)
          if (!fired) begin
            fired <= 1;
            $write("a");
            $write("b");
            $display("c");
          end
    )", &errors)) << errors;
    rt.run_for_ticks(2);
    EXPECT_EQ(output, "abc\n");
}

TEST(RuntimeExtra, IncrementalProgramConstruction)
{
    Runtime rt(sw_only());
    std::string errors;
    // Build the running example in five separate evals (Fig. 3's flow).
    ASSERT_TRUE(rt.eval("module Rol(input wire [7:0] x, "
                        "output wire [7:0] y); "
                        "assign y = (x == 8'h80) ? 8'd1 : (x << 1); "
                        "endmodule", &errors)) << errors;
    ASSERT_TRUE(rt.eval("Pad#(4) pad();", &errors)) << errors;
    ASSERT_TRUE(rt.eval("Led#(8) led();", &errors)) << errors;
    ASSERT_TRUE(rt.eval("reg [7:0] cnt = 1; Rol r(.x(cnt));", &errors))
        << errors;
    ASSERT_TRUE(rt.eval("always @(posedge clk.val) if (pad.val == 0) "
                        "cnt <= r.y; assign led.val = cnt;", &errors))
        << errors;
    rt.run_for_ticks(3);
    EXPECT_EQ(rt.led_state().to_uint64(), 8u);
}

TEST(RuntimeExtra, NativeModeRejectsUnsynthesizable)
{
    Runtime::Options opts;
    opts.native_mode = true;
    opts.compile_effort = 0.05;
    Runtime rt(opts);
    std::string output;
    rt.on_output = [&output](const std::string& s) { output += s; };
    std::string errors;
    ASSERT_TRUE(rt.eval(R"(
        reg [7:0] cnt = 0;
        always @(posedge clk.val) begin
          cnt <= cnt + 1;
          $display("%0d", cnt);
        end
    )", &errors)) << errors;
    // The program still runs (in software, with printfs), but native
    // compilation cannot adopt it.
    rt.run_for_ticks(3);
    EXPECT_EQ(rt.user_location(), Location::Software);
    EXPECT_NE(output.find("0\n"), std::string::npos);
}

TEST(RuntimeExtra, TimelineAdvancesMonotonically)
{
    Runtime rt(sw_only());
    std::string errors;
    ASSERT_TRUE(rt.eval("reg [7:0] c = 0; "
                        "always @(posedge clk.val) c <= c + 1;", &errors))
        << errors;
    double last = rt.timeline_seconds();
    for (int i = 0; i < 10; ++i) {
        rt.run_for_ticks(1);
        EXPECT_GE(rt.timeline_seconds(), last);
        last = rt.timeline_seconds();
    }
    EXPECT_GT(last, 0.0);
}

TEST(RuntimeExtra, SchedulerIterationsTrackTicks)
{
    Runtime rt(sw_only());
    std::string errors;
    ASSERT_TRUE(rt.eval("reg [7:0] c = 0; "
                        "always @(posedge clk.val) c <= c + 1;", &errors))
        << errors;
    const uint64_t it0 = rt.scheduler_iterations();
    rt.run_for_ticks(10);
    const uint64_t dit = rt.scheduler_iterations() - it0;
    // A handful of iterations per tick (paper §4.1: "every two iterations
    // ... correspond to a single virtual tick" in the idealized model;
    // our batching adds the window iteration).
    EXPECT_GE(dit, 20u);
    EXPECT_LE(dit, 80u);
}

TEST(RuntimeExtra, FinishFromSecondEval)
{
    Runtime rt(sw_only());
    std::string errors;
    ASSERT_TRUE(rt.eval("reg [7:0] c = 0; "
                        "always @(posedge clk.val) c <= c + 1;", &errors))
        << errors;
    rt.run_for_ticks(5);
    ASSERT_TRUE(rt.eval("always @(posedge clk.val) if (c >= 8) $finish;",
                        &errors)) << errors;
    rt.run(100000);
    EXPECT_TRUE(rt.finished());
    // No further progress after finish.
    const uint64_t ticks = rt.virtual_ticks();
    rt.run(100);
    EXPECT_EQ(rt.virtual_ticks(), ticks);
}

TEST(RuntimeExtra, MemoryComponentSurvivesEval)
{
    Runtime rt(sw_only());
    std::string errors;
    ASSERT_TRUE(rt.eval(R"(
        Memory#(4, 8) m(.clk(clk.val), .wen(we), .waddr(wa), .wdata(wd),
                        .raddr1(ra), .rdata1(rd), .raddr2(4'd0));
        reg we = 1;
        reg [3:0] wa = 0;
        reg [7:0] wd = 100;
        wire [3:0] ra;
        wire [7:0] rd;
        assign ra = 2;
        always @(posedge clk.val) begin
          wa <= wa + 1;
          wd <= wd + 1;
        end
    )", &errors)) << errors;
    rt.run_for_ticks(6); // writes 100..105 to cells 0..5
    // Attach an LED afterwards; memory contents must be preserved.
    ASSERT_TRUE(rt.eval("Led#(8) led(); assign led.val = rd;", &errors))
        << errors;
    rt.run(8);
    EXPECT_EQ(rt.led_state().to_uint64(), 102u);
}

TEST(RuntimeExtra, DeviceOptionsGateHardwareAdoption)
{
    // Options::device_les must actually reach FpgaDevice::admit's
    // capacity check: on a 10-LE device nothing fits, so the JIT reports
    // the rejection and the program stays in software.
    Runtime::Options opts;
    opts.enable_hardware = true;
    opts.compile_effort = 0.05;
    opts.device_les = 10;
    // This test is about the FABRIC capacity gate; the JIT tier needs no
    // LEs and would otherwise adopt (and open-loop free-run) while the
    // doomed compile is in flight.
    opts.enable_jit = false;
    // Every queued interrupt line is counted: interrupt.enqueued must
    // match the lines the journaled flushes drained, the rejection
    // notice included.
    uint64_t flushed = 0;
    Runtime rt(opts);
    rt.journal().add_tap([&flushed](const telemetry::Journal::Event& ev) {
        if (ev.type == "interrupt.flush") {
            telemetry::JsonValue data;
            ASSERT_TRUE(telemetry::parse_json(ev.data, &data));
            flushed += data.get_u64("count");
        }
    });
    std::string output;
    rt.on_output = [&output](const std::string& s) { output += s; };
    std::string errors;
    ASSERT_TRUE(rt.eval("Led#(8) led(); reg [7:0] cnt = 0; "
                        "always @(posedge clk.val) cnt <= cnt + 1; "
                        "assign led.val = cnt;", &errors)) << errors;
    const auto start = std::chrono::steady_clock::now();
    while (rt.telemetry().counter("compile.rejected")->value() == 0) {
        rt.run(256);
        ASSERT_LT(std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count(),
                  60.0)
            << "compile never rejected; output so far: " << output;
    }
    rt.run(64); // drain the rejection interrupt
    EXPECT_EQ(rt.user_location(), Location::Software);
    EXPECT_FALSE(rt.hardware_ready());
    EXPECT_NE(output.find("does not fit"), std::string::npos) << output;
    EXPECT_TRUE(rt.transitions().empty());
    EXPECT_GT(flushed, 0u);
    EXPECT_EQ(rt.telemetry().counter("interrupt.enqueued")->value(),
              flushed);
}

TEST(RuntimeExtra, DisplayOrderingAcrossTransitionAndOpenLoop)
{
    // $display side effects must surface in program order even as the
    // scheduler hands the program from the software engine to hardware
    // and batches cycles through the open-loop fast path: the sequence
    // numbers printed every cycle stay gapless and duplicate-free.
    Runtime::Options opts;
    opts.enable_hardware = true;
    opts.compile_effort = 0.05;
    opts.open_loop_target_wall_s = 0.02;
    Runtime rt(opts);
    std::string output;
    rt.on_output = [&output](const std::string& s) { output += s; };
    std::string errors;
    ASSERT_TRUE(rt.eval(R"(
        Pad#(1) pad();
        reg [15:0] cnt = 0;
        always @(posedge clk.val) begin
          cnt <= cnt + 1;
          $display("%0d", cnt);
          if (pad.val)
            $finish;
        end
    )", &errors)) << errors;

    const auto start = std::chrono::steady_clock::now();
    while (!rt.hardware_ready()) {
        rt.run(256);
        ASSERT_LT(std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count(),
                  60.0)
            << "hardware never adopted";
    }
    ASSERT_FALSE(rt.transitions().empty());
    const uint64_t displays_at_transition =
        std::count(output.begin(), output.end(), '\n');
    // Let the open-loop path run some batches in hardware before finishing.
    rt.run_for_ticks(64);
    rt.set_pad(1);
    while (!rt.finished()) {
        rt.run(1u << 14);
        ASSERT_LT(std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count(),
                  120.0)
            << "program never finished";
    }

    // Every line is the next integer in sequence: no drops, duplicates,
    // or reordering across the engine swap.
    std::istringstream lines(output);
    std::string line;
    uint64_t expect = 0;
    while (std::getline(lines, line)) {
        ASSERT_EQ(line, std::to_string(expect))
            << "at line " << expect << "; transition happened after "
            << displays_at_transition << " displays";
        ++expect;
    }
    EXPECT_GT(expect, displays_at_transition + 64)
        << "expected hardware-phase displays after the transition";
    EXPECT_GT(rt.telemetry().counter("openloop.iterations")->value(), 0u);
}

/// Steps \p rt until \p done holds; false after 60 wall seconds.
template <typename Pred>
bool
step_until(Runtime* rt, Pred done)
{
    const auto start = std::chrono::steady_clock::now();
    while (!done()) {
        rt->step();
        if (std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count() > 60.0) {
            return false;
        }
    }
    return true;
}

TEST(RuntimeExtra, EvalWithClockHighRunsNoExtraPosedge)
{
    // Edit with the clock high: right after the posedge reached the
    // engines, and once it fully executed. The edge runs exactly once,
    // in the engines that saw it, and never again in the rebuilt ones.
    for (const bool executed : {false, true}) {
        SCOPED_TRACE(executed ? "posedge executed" : "posedge delivered");
        Runtime rt(sw_only());
        ASSERT_TRUE(rt.eval("reg [31:0] cnt = 0;\n"
                            "always @(posedge clk.val) cnt <= cnt + 1;"));
        const auto cnt = [&] { return rt.debug_peek("cnt")->to_uint64(); };
        ASSERT_TRUE(step_until(&rt, [&] {
            return rt.virtual_ticks() >= 2 &&
                   rt.posedges_seen() > rt.virtual_ticks() &&
                   (cnt() == rt.posedges_seen()) == executed;
        }));
        ASSERT_TRUE(rt.eval("reg [3:0] zz = 0;"));
        rt.run_for_ticks(8);
        EXPECT_EQ(cnt(), rt.virtual_ticks());
    }
}

/// The live oracle's answers, except that no finished build is acted on
/// until *release is set: a test pins the scheduler iteration a build is
/// adopted at, however long the build takes.
class HoldAdoption : public Runtime::Oracle {
  public:
    explicit HoldAdoption(const bool* release) : release_(release) {}

    bool
    act_now(Build, uint64_t, uint64_t,
            const std::function<bool(double)>& ready) override
    {
        return *release_ && ready(0);
    }

    std::optional<std::string>
    forced_failure(Build, uint64_t) override
    {
        return std::nullopt;
    }

    bool
    evict_now(uint64_t, bool) override
    {
        return false;
    }

    uint64_t
    placement_seed(uint64_t, uint64_t derived) override
    {
        return derived;
    }

    uint64_t
    open_loop_grant(uint64_t adaptive) override
    {
        return adaptive;
    }

  private:
    const bool* release_;
};

TEST(RuntimeExtra, AdoptWithClockHighRunsNoLostPosedge)
{
    // Adoption with the clock high: right after the posedge reached the
    // software engines, and once it fully executed. The edge runs
    // exactly once, in the engines that saw it: the adopted engine
    // neither drops it nor runs it again. Every adopting rung: the JIT
    // kernel (the 10-LE device rejects the fabric), the fabric, and
    // native mode. The oracle holds every build until the clock is high,
    // so the adoption happens in that state however fast the build is.
    for (const Location rung : {Location::Jit, Location::HardwareForwarded,
                                Location::Native}) {
        for (const bool executed : {false, true}) {
            SCOPED_TRACE(std::string(location_name(rung)) +
                         (executed ? ", posedge executed"
                                   : ", posedge delivered"));
            Runtime::Options opts;
            opts.enable_open_loop = false;
            opts.compile_effort = 0.05;
            if (rung == Location::Jit) {
                opts.device_les = 10;
            } else if (rung == Location::HardwareForwarded) {
                opts.enable_jit = false;
            } else {
                opts.native_mode = true;
            }
            Runtime rt(opts);
            bool release = false;
            rt.set_oracle(std::make_unique<HoldAdoption>(&release));
            // The count shows on the Led.
            const std::string src =
                "Led#(8) led();\n"
                "reg [31:0] cnt = 0;\n"
                "assign led.val = cnt[7:0];\n"
                "always @(posedge clk.val) cnt <= cnt + 1;";
            std::string err;
            ASSERT_TRUE(rt.eval(src, &err)) << err;
            const auto cnt = [&] { return rt.led_state().to_uint64(); };
            ASSERT_TRUE(step_until(&rt, [&] {
                return rt.virtual_ticks() >= 2 &&
                       rt.posedges_seen() > rt.virtual_ticks() &&
                       (cnt() == rt.posedges_seen()) == executed;
            }));
            ASSERT_EQ(rt.user_location(), Location::Software);
            // From here on the runtime only waits: no scheduler iteration
            // runs until the build is adopted.
            release = true;
            const auto start = std::chrono::steady_clock::now();
            while (rt.user_location() == Location::Software) {
                if (rt.wait_for_hardware(0.01)) {
                    break;
                }
                if (rt.telemetry().counter("jit.unavailable")->value() !=
                    0) {
                    break; // no usable compiler on this host
                }
                ASSERT_LT(std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count(),
                          120.0);
                std::this_thread::sleep_for(std::chrono::milliseconds(10));
            }
            if (rt.user_location() == Location::Software) {
                continue;
            }
            ASSERT_EQ(rt.user_location(), rung);
            rt.run_for_ticks(8);
            EXPECT_EQ(cnt(), rt.virtual_ticks());
        }
    }
}

TEST(RuntimeExtra, EvictingAForwardedFifoPopsNoPhantomByte)
{
    // A program with the stdlib FIFO merged into its adopted engine is
    // rebuilt into software by the next eval; the split-out FIFO must
    // resume exactly where the engine left it, so the user logic pops
    // no byte the host never pushed. Both forwarded rungs: the JIT
    // kernel (the 10-LE device rejects the fabric) and the fabric.
    for (const bool jit_rung : {true, false}) {
        SCOPED_TRACE(jit_rung ? "jit rung" : "fabric rung");
        Runtime::Options opts;
        opts.compile_effort = 0.05;
        opts.open_loop_target_wall_s = 0.02;
        if (jit_rung) {
            opts.device_les = 10;
        } else {
            opts.enable_jit = false;
        }
        Runtime rt(opts);
        rt.on_output = [](const std::string&) {};
        std::string err;
        ASSERT_TRUE(rt.eval(workloads::regex_stream_source(), &err)) << err;
        if (jit_rung) {
            ASSERT_TRUE(step_until(&rt, [&] {
                return rt.user_location() == Location::Jit ||
                       rt.telemetry().counter("jit.unavailable")->value();
            }));
            if (rt.user_location() != Location::Jit) {
                continue; // no usable compiler on this host
            }
        } else {
            ASSERT_TRUE(rt.wait_for_hardware(60.0));
        }
        ASSERT_EQ(rt.user_location(),
                  jit_rung ? Location::Jit : Location::HardwareForwarded);

        std::vector<uint8_t> bytes;
        const std::string line = "GET /index HTTP/1.1 ";
        while (bytes.size() < 1000) {
            bytes.push_back(
                static_cast<uint8_t>(line[bytes.size() % line.size()]));
        }
        rt.fifo_push(bytes);
        // Every byte fed to the FIFO, and popped by the user logic.
        const auto consumed = [&] {
            return rt.debug_peek("consumed")->to_uint64();
        };
        ASSERT_TRUE(step_until(&rt, [&] {
            return rt.fifo_bytes_consumed() == 1000 && consumed() == 1000;
        }));
        // Edit with the clock high (posedge run, negedge not yet): the
        // rebuilt engines then see the clock already at 1.
        ASSERT_TRUE(step_until(
            &rt, [&] { return rt.posedges_seen() > rt.virtual_ticks(); }));
        ASSERT_TRUE(rt.eval("reg [3:0] zz = 0;", &err)) << err;
        rt.run_for_ticks(64);
        EXPECT_EQ(consumed(), 1000u);
    }
}

TEST(RuntimeExtra, ForwardedFifoRateDoesNotDependOnTheGrantSize)
{
    // Open-loop grants are sized by host wall time, and the host refills
    // the forwarded FIFO between them. A grant that drains the FIFO while
    // the host still holds bytes ends there and continues after a refill,
    // so the fabric never idles on an empty FIFO: the modeled rate (bytes
    // per second of virtual timeline) is the same at any grant size.
    const auto modeled_rate = [](double target_wall_s) {
        Runtime::Options opts;
        opts.compile_effort = 0.05;
        opts.enable_jit = false;
        opts.open_loop_target_wall_s = target_wall_s;
        Runtime rt(opts);
        rt.on_output = [](const std::string&) {};
        std::string err;
        EXPECT_TRUE(rt.eval(workloads::regex_stream_source(false), &err))
            << err;
        EXPECT_TRUE(rt.wait_for_hardware(60.0));
        EXPECT_EQ(rt.user_location(), Location::HardwareForwarded);
        const std::string line = "GET /index HTTP/1.1 ";
        std::vector<uint8_t> chunk;
        while (chunk.size() < 65536) {
            chunk.push_back(
                static_cast<uint8_t>(line[chunk.size() % line.size()]));
        }
        // The host holds more than any grant consumes, so it never runs
        // dry inside the measured window.
        const auto run_to = [&](uint64_t bytes) {
            return step_until(&rt, [&] {
                while (rt.fifo_backlog() < 8 * chunk.size()) {
                    rt.fifo_push(chunk);
                }
                return rt.fifo_bytes_consumed() >= bytes;
            });
        };
        EXPECT_TRUE(run_to(4096));
        const uint64_t bytes0 = rt.fifo_bytes_consumed();
        const double timeline0 = rt.timeline_seconds();
        EXPECT_TRUE(run_to(bytes0 + chunk.size()));
        return static_cast<double>(rt.fifo_bytes_consumed() - bytes0) /
               (rt.timeline_seconds() - timeline0);
    };
    // Even the short grants hold several FIFO depths on a slow
    // (sanitized) build, so their fixed per-grant bus cost stays small.
    const double short_grants = modeled_rate(0.03);
    const double long_grants = modeled_rate(0.3);
    EXPECT_NEAR(long_grants / short_grants, 1.0, 0.03)
        << "bytes/s: " << short_grants << " at 30 ms grants, "
        << long_grants << " at 300 ms grants";
}


TEST(RuntimeExtra, TeardownCancelsAnInFlightPlacement)
{
    // The miner's placement at full effort runs for seconds; destroying
    // the runtime cancels it instead of waiting it out.
    Runtime::Options opts;
    opts.enable_hardware = true;
    opts.enable_jit = false;
    opts.compile_effort = 1.0;
    auto rt = std::make_unique<Runtime>(opts);
    std::string err;
    ASSERT_TRUE(rt->eval(workloads::proof_of_work_source(16, false), &err))
        << err;
    rt->run_for_ticks(2);
    const auto t0 = std::chrono::steady_clock::now();
    rt.reset();
    EXPECT_LT(std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0)
                  .count(),
              0.1);
}

TEST(RuntimeExtra, AnEvalWithoutAJobSupersedesTheRunningOne)
{
    // The miner's placement at full effort runs for seconds. An eval the
    // Fig. 10 wrapper rejects ($dumpvars in an always block) submits no
    // job, yet it supersedes the running one: the service cancels it,
    // and its request closes unadopted at that eval.
    Runtime::Options opts;
    opts.enable_hardware = true;
    opts.enable_jit = false;
    opts.compile_effort = 1.0;
    Runtime rt(opts);
    std::string err;
    ASSERT_TRUE(rt.eval(workloads::proof_of_work_source(16, false), &err))
        << err;
    uint64_t request = 0;
    for (const telemetry::Journal::Event& ev : rt.journal().ring()) {
        if (ev.type == "compile.launch") {
            request = ev.seq;
        }
    }
    ASSERT_NE(request, 0u);
    telemetry::Counter* cancelled =
        telemetry::Registry::global().counter("compile.cancelled");
    const uint64_t cancelled_before = cancelled->value();

    ASSERT_TRUE(rt.eval("always @(posedge clk.val) $dumpvars;", &err))
        << err;
    EXPECT_EQ(cancelled->value(), cancelled_before + 1);
    telemetry::RequestRecord record;
    ASSERT_TRUE(rt.request_tracker().find(request, &record));
    EXPECT_TRUE(record.done);
    EXPECT_FALSE(record.ok);
    const std::string closed = "\"id\":" + std::to_string(request) + ",";
    bool journaled = false;
    for (const telemetry::Journal::Event& ev : rt.journal().ring()) {
        if (ev.type == "request.done" &&
            ev.data.find(closed) != std::string::npos) {
            journaled = ev.data.find("\"ok\":false") != std::string::npos;
        }
    }
    EXPECT_TRUE(journaled);
}

} // namespace
} // namespace cascade::runtime
