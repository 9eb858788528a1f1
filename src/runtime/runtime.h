/// \file
/// The Cascade runtime (paper §3.4, Fig. 5/6): REPL eval, the
/// distributed-system IR instantiated as engines wired by global nets over
/// the data/control plane, the batching scheduler, the interrupt queue,
/// background compilation with software-to-hardware engine transitions,
/// ABI forwarding (standard components inlined into the user hardware
/// engine), open-loop scheduling, and native mode.

#ifndef CASCADE_RUNTIME_RUNTIME_H
#define CASCADE_RUNTIME_RUNTIME_H

#include <array>
#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/diagnostics.h"
#include "fpga/compile.h"
#include "ir/hw_wrapper.h"
#include "ir/subprogram.h"
#include "runtime/capture.h"
#include "runtime/debugger.h"
#include "runtime/engine.h"
#include "runtime/events.h"
#include "runtime/monitor.h"
#include "runtime/profiler.h"
#include "service/compile_service.h"
#include "telemetry/journal.h"
#include "telemetry/request_trace.h"
#include "telemetry/telemetry.h"
#include "verilog/elaborate.h"

namespace cascade::hypervisor {
class FabricManager;
struct Admission;
}

namespace cascade::runtime {

/// Where a subprogram's engine currently executes (Fig. 9 stages).
enum class Location {
    Software,
    Hardware,
    HardwareForwarded, ///< stdlib components inlined into the user engine
    Native,            ///< compiled exactly as written, no instrumentation
    /// Native-code JIT tier: the levelized netlist compiled to machine
    /// code and driven through the hardware-engine ABI. Fabric semantics
    /// (same wrapper, MMIO map, open loop) on the host CPU — the middle
    /// rung of the software -> jit -> fabric ladder, and the landing spot
    /// after a hypervisor eviction while the fabric recompile is pending.
    Jit,
};

/// Stable display name for a tier ("Software", "Jit", "Hardware", ...):
/// the string used in transition logs, stats_json, and the per-tenant
/// residency column of the multi-tenant bench.
const char* location_name(Location loc);

class Runtime : public EngineCallbacks {
  public:
    struct Options {
        /// §4.2: merge user logic into a single subprogram.
        bool enable_inlining = true;
        /// Background compilation to hardware engines.
        bool enable_hardware = true;
        /// Native-code JIT tier: every background compile also lowers the
        /// levelized netlist to C++, compiles it in-process (system
        /// compiler, content-addressed cache), and adopts the resulting
        /// kernel while the (much slower) fabric place-and-route is still
        /// running. Degrades cleanly to software-only when no compiler is
        /// usable (journaled as jit.unavailable).
        bool enable_jit = true;
        /// §4.3: inline standard components into the user hardware engine.
        bool enable_forwarding = true;
        /// §4.4: let the hardware engine toggle its own clock.
        bool enable_open_loop = true;
        /// §4.5: compile as written; requires no unsynthesizable code.
        bool native_mode = false;

        double compile_effort = 1.0;
        double device_clock_mhz = 50.0;
        double mmio_latency_s = 1e-6;
        uint64_t device_les = 110000;
        uint64_t device_bram_bits = 11000000;
        /// Initial open-loop batch size (clock toggles per relinquish).
        /// Adaptive profiling (§4.4) then resizes batches so the engine
        /// relinquishes control about every open_loop_target_wall_s.
        uint64_t open_loop_iterations = 1u << 12;
        /// Paper §4.4: engines relinquish control every "small number of
        /// seconds". IO-bound programs benefit from a smaller target
        /// (peripheral service happens between batches).
        double open_loop_target_wall_s = 1.0;
        /// Source-level profiler (REPL :profile / :fabric). Per-process
        /// trigger counts are always collected (one counter add per
        /// process execution, same cost class as the existing scheduler
        /// counters); this switch additionally enables wall-time
        /// attribution in the interpreter and per-node eval/toggle
        /// counters on the fabric. Off by default so benches measure the
        /// uninstrumented paths.
        bool profiling = false;
        /// Placement RNG seed for background compiles. 0 (the default)
        /// derives a per-compile seed from the program version — already
        /// deterministic, and now reported in CompileReport::seed and the
        /// journal so any compile is reproducible from its logs. Nonzero
        /// forces every compile to that seed.
        uint64_t compile_seed = 0;
        /// @{ Shared mode only (the FabricManager constructor): how this
        /// runtime registers with the hypervisor. An empty name becomes
        /// "tenant-<id>"; a zero quota means unlimited (the device's
        /// capacity still applies).
        std::string tenant_name;
        uint64_t tenant_le_quota = 0;
        uint64_t tenant_bram_quota = 0;
        /// @}
        /// @{ Live monitoring (README §Monitoring). A nonzero
        /// monitor_port starts the embedded HTTP server on
        /// 127.0.0.1:<port> at construction (CLI --monitor, REPL
        /// :monitor). Deliberately excluded from the journal header:
        /// monitoring is observational, so a replay neither needs nor
        /// wants to rebind the recorded session's port.
        uint16_t monitor_port = 0;
        /// Wall-second period of the in-scheduler time-series sampler
        /// and SLO evaluation (<= 0 disables both; sampling also runs
        /// whenever a monitor server is active).
        double timeseries_interval_s = 0.5;
        /// @}
        /// @{ SLO thresholds, evaluated over a rolling window. A zero
        /// threshold disables that objective; breach transitions are
        /// journaled as `slo.breach` and surfaced at GET /slo.
        double slo_window_s = 60;
        double slo_max_cold_compile_p99_s = 0;
        double slo_max_warm_compile_p99_s = 0;
        double slo_max_interrupt_p99_s = 0;
        double slo_min_ticks_per_s = 0;
        /// @}

        /// Calls \p f(key, option) for each option that shapes execution,
        /// in journal-header order: what a replayer needs to reconstruct
        /// an identically configured Runtime. journal_header_json()
        /// writes these and options_from_header() (replay.h) reads them
        /// back. \p o is an Options, const or not.
        template <typename O, typename F>
        static void
        for_each_journaled(O& o, F&& f)
        {
            f("enable_inlining", o.enable_inlining);
            f("enable_hardware", o.enable_hardware);
            f("enable_jit", o.enable_jit);
            f("enable_forwarding", o.enable_forwarding);
            f("enable_open_loop", o.enable_open_loop);
            f("native_mode", o.native_mode);
            f("compile_effort", o.compile_effort);
            f("device_clock_mhz", o.device_clock_mhz);
            f("mmio_latency_s", o.mmio_latency_s);
            f("device_les", o.device_les);
            f("device_bram_bits", o.device_bram_bits);
            f("open_loop_iterations", o.open_loop_iterations);
            f("open_loop_target_wall_s", o.open_loop_target_wall_s);
            f("profiling", o.profiling);
            f("compile_seed", o.compile_seed);
        }
    };

    Runtime(); ///< default options
    explicit Runtime(Options options);
    /// Shared mode: compiles go through the pooled \p service and
    /// hardware residency through the \p fabric hypervisor (one shared
    /// FpgaDevice hosting many tenants; this runtime self-evicts back to
    /// software when flagged). Both must outlive the runtime. Default
    /// construction keeps today's exclusive device + private single
    /// worker.
    Runtime(Options options, service::CompileService& service,
            hypervisor::FabricManager& fabric);
    ~Runtime() override;

    Runtime(const Runtime&) = delete;
    Runtime& operator=(const Runtime&) = delete;

    /// View: $display lines (newline-terminated) and $write chunks.
    std::function<void(const std::string&)> on_output;

    /// Lexes/parses/type-checks one eval; on success integrates the code
    /// and (re)starts engines. On failure reports via \p errors and leaves
    /// the running program untouched.
    bool eval(std::string_view source, std::string* errors = nullptr);

    /// One scheduler iteration (Fig. 6). Returns false once $finish ran.
    bool step();
    /// Runs until \p ticks virtual clock ticks elapsed (or finished).
    bool run_for_ticks(uint64_t ticks);
    /// Runs scheduler iterations until finished or the iteration budget is
    /// exhausted. Returns true if finished.
    bool run(uint64_t max_iterations);

    bool finished() const { return finished_; }

    /// @{ Peripherals.
    void set_pad(uint64_t buttons);
    BitVector led_state();
    void fifo_push(const std::vector<uint8_t>& bytes);
    uint64_t fifo_bytes_consumed() const { return fifo_consumed_; }
    size_t fifo_backlog() const { return fifo_queue_.size(); }
    /// @}

    /// @{ Introspection for benches and tests.
    uint64_t virtual_ticks() const { return clock_toggles_ / 2; }
    /// Posedges already executed — unlike virtual_ticks() this counts a
    /// tick whose posedge ran but whose negedge hasn't yet. Engine
    /// handoffs open/close their attribution windows on this boundary so
    /// a mid-window adoption never double-counts (or drops) the
    /// in-flight tick.
    uint64_t posedges_seen() const { return (clock_toggles_ + 1) / 2; }
    /// The virtual timeline (seconds): wall time while user logic runs in
    /// software, modeled device/bus time while it runs in hardware.
    double timeline_seconds() const { return timeline_s_; }
    Location user_location() const
    {
        return resident_.has_value() ? resident_->location
                                     : Location::Software;
    }
    /// A fabric compile finished and was adopted (Hardware,
    /// HardwareForwarded or Native). The JIT tier does not count: it is
    /// hardware-shaped but fabric-free, so callers waiting on real
    /// residency keep waiting through a JIT adoption.
    bool hardware_ready() const;
    const std::optional<fpga::CompileReport>& last_compile_report() const
    {
        return last_report_;
    }
    uint64_t scheduler_iterations() const { return iterations_; }
    /// Shared mode: the hypervisor tenant id this runtime registered as
    /// (0 in exclusive mode).
    uint64_t tenant_id() const { return tenant_; }
    /// @}

    /// @{ Waveform capture (IEEE-1364 VCD). The dump is runtime-owned and
    /// engine-agnostic (capture.h): probe values are sampled at end of
    /// timestep from global nets and the user engine's peek, so the same
    /// .vcd is produced whichever engine runs the subprogram — and a
    /// mid-run engine adoption splices into the open dump. While a dump
    /// is active, open-loop scheduling is suspended (free running would
    /// skip samples).

    /// Opens (truncates) the dump file and starts capture at the next end
    /// of timestep. Fails (false + *err) on IO error.
    bool vcd_open(const std::string& path, std::string* err = nullptr)
    {
        return capture_.open(path, err);
    }
    /// Flushes and closes the current dump (no-op without one); capture
    /// stops and a new vcd_open() may start a fresh file.
    void close_vcd() { capture_.close(); }
    /// Capture requested and the file is (or will be) open.
    bool vcd_active() const { return capture_.active(); }
    /// Adds a probe on a global net or a user-subprogram register. Errors
    /// on unknown signal, or once the first sample froze the signal set.
    /// With no explicit probes (or after $dumpvars) every net and register
    /// is dumped.
    bool add_probe(const std::string& name, std::string* err = nullptr)
    {
        return capture_.add_probe(name, err);
    }
    /// Removes an explicit probe by name (before the set freezes).
    bool remove_probe(const std::string& name)
    {
        return capture_.remove_probe(name);
    }
    std::vector<std::string> probes() const { return capture_.probes(); }

    /// Blocks (bounded by \p timeout_s wall seconds) until the in-flight
    /// background compile is adopted, polling without advancing virtual
    /// time — so a program can start on the simulated fabric at tick 0.
    /// Returns true once the user subprogram left software.
    bool wait_for_hardware(double timeout_s = 10.0);
    /// @}

    /// @{ Interactive debugger (README §Interactive debugging, REPL
    /// :break/:watch/:step/:continue/:peek). Conditions are named-signal
    /// breakpoints and value-change watchpoints, evaluated uniformly
    /// across engines: in software they are checked once per
    /// inter-timestep window behind a single relaxed atomic load (zero
    /// cost while disarmed); while the program is hardware-resident the
    /// synthesis path emits an ILA-style instrumented twin — trigger
    /// comparator cells on the watched nets plus a bounded pre-trigger
    /// capture ring — and a fabric fire cooperatively evicts the program
    /// to software over the state-transfer ABI so stepping is
    /// cycle-accurate in the interpreter. A fire pauses the virtual
    /// clock: the scheduler holds at the halted iteration (open-loop
    /// grants suspended, like VCD capture) until debug_step()/
    /// debug_continue(). All fires/steps/peeks are journaled, so a
    /// recorded debug session replays deterministically.

    /// Arms `signal op value` (op: == != < > <= >=; value: unsigned
    /// decimal, resized to the signal's width). Returns the point id, or
    /// 0 with *err set.
    uint64_t debug_break(const std::string& signal, const std::string& op,
                         const std::string& value,
                         std::string* err = nullptr);
    /// Arms a value-change watchpoint. Returns the point id, or 0.
    uint64_t debug_watch(const std::string& signal,
                         std::string* err = nullptr);
    /// Disarms one point by id. False if no such point.
    bool debug_delete(uint64_t id);
    /// While halted: advances exactly \p cycles virtual clock cycles,
    /// then re-halts. No-op (false + *err) when not halted.
    bool debug_step(uint64_t cycles = 1, std::string* err = nullptr);
    /// Releases the halt; execution (and hardware re-admission, if a
    /// compile is pending) resumes on the next scheduler call.
    bool debug_continue();
    /// Live value of one signal at honest cost (interpreter map lookup
    /// in software, one MMIO readback in hardware). Journaled as
    /// `debug.peek`, which replay compares.
    std::optional<BitVector> debug_peek(const std::string& signal,
                                        std::string* err = nullptr);
    bool debug_halted() const
    {
        return debug_halted_.load(std::memory_order_relaxed);
    }
    Debugger& debugger() { return debugger_; }
    /// True when trigger comparator cells are live in the fabric twin.
    bool hw_debug_armed() const
    {
        return hw_debug_armed_.load(std::memory_order_relaxed);
    }
    /// Where a fired point's pre-trigger window is dumped (VCD).
    void set_debug_window_path(const std::string& path)
    {
        debug_window_path_ = path;
    }
    /// Human-readable point table (the REPL's :debug view).
    std::string debug_table() const
    {
        return debugger_.table(debug_halted(), virtual_ticks(),
                               hw_debug_armed());
    }
    /// {"schema":"cascade.debug.v1"} snapshot (GET /debug). Thread-safe.
    std::string debug_json() const
    {
        return debugger_.json(debug_halted(), hw_debug_armed());
    }
    /// @}

    /// @{ Telemetry (see README.md §Observability).
    /// One engine-location transition this runtime performed (recorded on
    /// hardware adoption; also traced as an instant event).
    struct TransitionRecord {
        uint64_t version = 0;    ///< adopted program version
        Location to = Location::Software;
        double timeline_seconds = 0; ///< virtual time at adoption
        double trace_ts_us = 0;      ///< tracer timestamp at adoption
        double clock_mhz = 0;        ///< adopted fabric clock
    };

    /// This runtime's scoped metrics view (scheduler/engine counters).
    /// Process-wide metrics (compile flow, device programming) live in
    /// telemetry::Registry::global().
    telemetry::Registry& telemetry() { return telemetry_; }
    const std::vector<TransitionRecord>& transitions() const
    {
        return transitions_;
    }
    /// Machine-readable snapshot: scheduler/engine metrics, per-phase
    /// compile timings from the last report, and the transition log, as
    /// one JSON object (benches write this next to their output).
    std::string stats_json() const;
    /// The REPL's :top view: per-tenant ticks/s, resident state, and
    /// wait-time share via the hypervisor's fleet table in shared mode;
    /// a one-line session summary in exclusive mode.
    std::string top_table() const;
    /// Human-readable snapshot (the REPL's :stats view).
    std::string stats_table() const;
    /// @}

    /// @{ Live monitoring (README §Monitoring): the time series, the SLO
    /// tracker and the embedded HTTP server. Opt-in:
    /// Options::monitor_port, monitor().start(), CLI --monitor, or the
    /// REPL's :monitor.
    Monitor& monitor() { return *monitor_; }

    /// Clears every measurement surface in one shot (the REPL's
    /// :stats reset): both metric registries, the sync registry's sites,
    /// blocked-on matrix, and per-tenant wait totals, and the monitor's
    /// time-series rings, SLO windows and breach counters.
    void reset_stats();
    /// @}

    /// @{ Causal request tracing (README §Request tracing). Every
    /// user-visible operation — eval, background compile, interrupt
    /// batch, eviction — carries a request id (the journal seq of its
    /// originating event) through the compile service, the hypervisor's
    /// admission decisions, and the adoption window. The tracker's
    /// critical-path analyzer partitions each request's wall time into
    /// named segments (queue, cache, synth/techmap/place/timing,
    /// admission, adoption, first_tick) that sum to end-to-end latency.
    telemetry::RequestTracker& request_tracker() { return requests_; }
    const telemetry::RequestTracker& request_tracker() const
    {
        return requests_;
    }
    /// @}

    /// @{ Source-level profiler (README §Profiling, REPL :profile).
    Profiler& profiler() { return profiler_; }
    const Profiler& profiler() const { return profiler_; }
    /// Toggles timing/fabric instrumentation at runtime (the REPL's
    /// :profile on/off). Applies to live engines and to every engine
    /// created afterwards.
    void set_profiling(bool on);
    bool profiling() const { return options_.profiling; }
    /// Fabric residency report (the REPL's :fabric view): LE utilization,
    /// Fmax, and the critical path rendered as named user signals, plus
    /// live per-source activity counters while profiling on hardware.
    std::string fabric_table() const;
    /// @}

    /// @{ Flight recorder (README §Flight recorder & replay). The journal
    /// is always on: every event (events.h lists them) lands in a bounded
    /// in-memory ring that the crash black box dumps on a fatal error.
    /// start_recording() additionally mirrors events to a JSONL file
    /// (`cascade.events.v1`) that replay.h re-executes deterministically.

    telemetry::Journal& journal() { return journal_; }

    /// Records one \p kind event and applies the rest of its events.h
    /// row: journals pending api.step calls ahead of an input, bumps the
    /// row's counter and fires its trace instant (argument \p trace_arg).
    /// Returns the event's journal seq.
    uint64_t emit(EventKind kind, const JsonWriter& payload = {},
                  uint64_t trace_arg = 0);

    /// Starts mirroring the journal to \p path. Must be called on a fresh
    /// session (before any user eval): the journal replays a whole
    /// session, so a partial recording would not be re-executable.
    bool start_recording(const std::string& path, std::string* err = nullptr);
    void stop_recording();
    bool recording() const { return journal_.writing(); }
    /// The recording header: this runtime's options as one JSON object
    /// (doubles printed round-trip exact), with the device_* keys taken
    /// from device(), from which replay reconstructs an identical runtime.
    std::string journal_header_json() const;

    /// The runtime's six replay-pinned decisions, taken in one place.
    /// Every tier transition happens at an inter-timestep window (paper
    /// §3.3); what varies between a live and a replayed session is only
    /// who answers these questions. The live oracle (the default) answers
    /// from what it observes: build readiness, the hypervisor, and the
    /// wall-clock-adapted batch size. The replay oracle (replay.h) answers
    /// from the journal, so a recorded session re-takes every decision at
    /// the same scheduler iteration.
    class Oracle {
      public:
        enum class Build { Jit, Fabric };
        virtual ~Oracle() = default;
        /// 1-2. Act now, at scheduler iteration \p iteration, on the
        /// in-flight \p kind build of program \p version? \p ready(s)
        /// reports whether that build finished, waiting up to s wall
        /// seconds. True means the build finished and is to be acted on.
        virtual bool act_now(Build kind, uint64_t version,
                             uint64_t iteration,
                             const std::function<bool(double)>& ready) = 0;
        /// 3. A failure to force on \p version's finished \p kind build
        /// instead of its observed outcome (a recorded compile.rejected
        /// text, or a recorded jit.unavailable); nullopt keeps the
        /// observed outcome.
        virtual std::optional<std::string> forced_failure(
            Build kind, uint64_t version) = 0;
        /// 4. Relocate the program to software at this window? \p resident
        /// says whether it currently runs off the interpreter.
        virtual bool evict_now(uint64_t iteration, bool resident) = 0;
        /// 5. Placement seed for \p version's compile; \p derived is the
        /// seed the options give.
        virtual uint64_t placement_seed(uint64_t version,
                                        uint64_t derived) = 0;
        /// 6. Clock toggles for the next open-loop batch; \p adaptive is
        /// the wall-clock-adapted batch size (§4.4).
        virtual uint64_t open_loop_grant(uint64_t adaptive) = 0;
    };

    /// Replaces the live oracle (replay_into() installs the journal's).
    /// Only on a fresh session, before any user eval.
    void set_oracle(std::unique_ptr<Oracle> oracle);
    /// @}

    /// EngineCallbacks:
    void on_display(const std::string& text) override;
    void on_write(const std::string& text) override;
    void on_finish() override;
    uint64_t virtual_time() const override { return virtual_ticks(); }
    /// $monitor suppression: a line prints only when its text differs from
    /// the previous line for the same monitor key. The map lives here, not
    /// in an engine, so the once-per-change guarantee survives a sw -> hw
    /// engine handoff.
    void on_monitor(const std::string& key, const std::string& text) override;
    void on_dumpfile(const std::string& path) override
    {
        capture_.on_dumpfile(path);
    }
    void on_dumpvars() override { capture_.on_dumpvars(); }
    void on_dumpoff() override { capture_.on_dumpoff(); }
    void on_dumpon() override { capture_.on_dumpon(); }

  private:
    /// Reads nets and the user engine, and reports through emit, the
    /// interrupt queue and the vcd.* counters.
    friend class Capture;

    /// The delegate both public constructors funnel into (null service =
    /// construct a private one; null fabric = exclusive mode).
    Runtime(Options options, service::CompileService* service,
            hypervisor::FabricManager* fabric);

    struct Net {
        std::string name;
        BitVector value;
        bool has_value = false;
        std::vector<std::pair<size_t, uint32_t>> readers;
    };

    struct Slot {
        ir::Subprogram sub;
        std::unique_ptr<Engine> engine;
        std::vector<int32_t> port_net; ///< port index -> net index
        std::vector<bool> port_is_input;
        bool is_clock = false;
        bool is_stdlib = false;
        std::string instance; ///< last path component
    };

    /// How a compiled user engine is wired into the program. launch_compile
    /// builds it from the stdlib slots it walks (both stages of the job
    /// share it), adoption completes it, and it stays as resident_ while
    /// that engine runs; a rebuild into software clears it.
    struct Wiring {
        ir::WrapperMap map;
        /// Wrapper port wiring: (port name, net name, is_input).
        std::vector<std::tuple<std::string, std::string, bool>> ports;
        /// Prefixes for stdlib state transfer: instance -> inline prefix.
        std::map<std::string, std::string> prefixes;
        bool native = false;
        std::string clock_net;
        /// @{ Set at adoption.
        Location location = Location::Software;
        double clock_mhz = 0;
        /// The compiled netlist (cache-shared, never mutated; both stages
        /// of a job hold the one object): the debugger rebuilds the engine
        /// around an instrumented copy, or around the plain tier again,
        /// without a recompile.
        std::shared_ptr<const fpga::Netlist> netlist;
        /// @}
        /// The stdlib components are merged into the engine: their state
        /// lives under \p prefixes, the FIFO is fed by state writes
        /// between open-loop batches, and the engine may free-run.
        bool merged() const { return native || !prefixes.empty(); }
    };

    using Done = service::CompileService::Done;

    /// The compile-service job of the current program version, from its
    /// launch until the next version supersedes it. The service delivers
    /// only this job's stages (launch_compile() cancels the job it
    /// supersedes), each as one Done: the fabric compile, and the JIT
    /// kernel built from its netlist (null when the tier is unavailable,
    /// with result.error saying why).
    struct Job {
        uint64_t version = 0;
        /// @{ Request tracing: the causal id (journal seq of this job's
        /// compile.launch event) and the launch time. With the Done's
        /// service anchors and polled_us (when the fabric Done was
        /// polled), they are the timeline the critical-path analyzer
        /// partitions into segments.
        uint64_t request = 0;
        double submit_us = 0;
        double polled_us = 0;
        /// @}
        /// Both stages adopt under it.
        Wiring wiring;
        /// @{ Each stage is pending until acted on; its Done is held
        /// from delivery on. The kernel stage exists only when the job
        /// builds one.
        bool fabric_pending = true;
        bool kernel_pending = false;
        std::optional<Done> fabric;
        std::optional<Done> kernel;
        /// @}
        /// Shared mode: set while the finished fabric stage waits for
        /// fabric capacity (its admission was denied retryable); it is
        /// re-tried once the hypervisor's capacity epoch moves past this.
        std::optional<uint64_t> parked_epoch;
    };

    /// Runtime wiring for one FIFO standard component.
    struct FifoBinding {
        std::string pins_net;
        std::string push_net;
        std::string full_net;
        std::string prefix; ///< inline prefix for hardware state access
        /// @{ The merged FIFO's slots in the adopted hardware engine's
        /// map, resolved at each relocate (null when none is resident).
        const ir::VarSlot* mem = nullptr;
        const ir::VarSlot* head = nullptr;
        const ir::VarSlot* tail = nullptr;
        /// @}
    };

    bool rebuild_program(std::string* errors, const char* reason);
    /// One scheduler iteration; step()/run()/run_for_ticks() wrap this so
    /// the public entry points journal api.* input events exactly once.
    /// In shared mode each iteration is also a "sched.iter" span on this
    /// tenant's trace lane (step_body carries the actual phases).
    bool step_internal();
    bool step_body();
    /// Stamps the calling thread with this runtime's tenant id (shared
    /// mode only) so lock waits and trace events attribute correctly.
    /// Public entry points call this: a tenant's Runtime is driven from
    /// its own thread, which may not be the one that constructed it.
    void bind_thread_tenant() const;
    /// Journals coalesced api.step{n} for any pending public step() calls.
    /// emit() calls it before every input-class event; an input whose
    /// call may journal other events first calls it on entry.
    void flush_api_steps();
    /// Journals a `log` event and mirrors it through the process Logger.
    void log_event(LogLevel level, const char* component,
                   const std::string& message);
    /// Journals compile.cache + compile.done for the job's fabric stage,
    /// takes the verdict on it (a forced rejection, the hypervisor's
    /// admission, or device().admit) and adopts it through adopt_fabric().
    /// \p admission is the hypervisor's answer in shared mode, null in
    /// exclusive mode.
    void act_on_compile(hypervisor::Admission* admission);
    /// Shared mode: asks the hypervisor for a slot before acting. A
    /// retryable denial parks the fabric stage (journaled
    /// hypervisor.defer) until the fabric's capacity epoch moves.
    void maybe_admit_and_act();
    /// Re-attempts a parked admission once the fabric changed.
    void retry_parked();
    /// Relocates the user program from hardware back to its software
    /// engines (the hypervisor's cooperative eviction path; also driven
    /// by replay at recorded hypervisor.evict iterations). State-transfer
    /// safe at any scheduler iteration per the Cascade ABI.
    void evict_to_software();
    void settle_evaluations();
    /// Queues \p text for the next flush, keeping interrupt.enqueued,
    /// interrupt.queue_depth and the entry's enqueue stamp in step.
    void enqueue_interrupt(std::string text);
    void flush_interrupts();
    void wire_nets();
    void route_outputs();
    void inject_net(const std::string& name, const BitVector& value);
    int find_net(const std::string& name) const;
    void window();
    void resolve_peripherals();
    void service_peripherals();
    uint32_t pad_width_hint(const std::string& net) const;
    /// Polls both stages of the compile-service job, the kernel's first,
    /// unless the debugger is halted: a halted program stays in the
    /// interpreter. Neither poll blocks (the live oracle never waits).
    void poll_builds();
    /// The fabric stage's poll: acts on the finished compile when the
    /// oracle says so.
    void poll_compiles();
    /// Drains the compile service (waiting up to \p wait_s for a result)
    /// into the job. True once the job's \p stage is pending and
    /// delivered.
    bool build_finished(Done::Stage stage, double wait_s);
    /// Supersedes the current job (its request closes, the service
    /// cancels it) and submits the new version's, if the program has
    /// one the hardware can run.
    void launch_compile();
    /// Relocates the user program onto an adopted engine, under the job's
    /// wiring, and journals the transition. The engine runs
    /// \p stage.kernel when it holds one (the JIT tier), else the
    /// bitstream of \p stage's netlist at \p actual_clock_mhz.
    void adopt_fabric(Done& stage, double actual_clock_mhz,
                      hypervisor::Admission* admission);
    /// The one relocation (paper §3.3), behind every engine swap: an
    /// eval's or an eviction's rebuild, both adoption kinds, and the
    /// debugger's instrumented-twin swap. The slots \p incoming replaces
    /// retire: those at an incoming path, and every non-clock slot when
    /// \p resident merges the stdlib. It finishes the in-flight timestep
    /// in the engines, banks each retiring profile once, moves the
    /// retiring state into the incoming engines (splitting the old
    /// wiring's merged stdlib state out, merging it under the new one's)
    /// with their input ports at their net levels, and rewires the nets.
    /// \p resident describes the new user engine; nullopt is software.
    void relocate(std::vector<Slot> incoming,
                  std::optional<Wiring> resident);
    /// Runs delivered edges and queued nonblocking updates to completion
    /// in every engine (not the clock's armed toggle, which starts the
    /// next timestep).
    void finish_timestep();
    /// A root slot running \p fabric under \p wiring's ports, at the
    /// modeled MMIO latency of \p wiring's rung.
    Slot engine_slot(const Wiring& wiring,
                     std::unique_ptr<fpga::FabricExec> fabric);
    /// The kernel stage's poll: adopts or discards the finished kernel
    /// when the oracle says so.
    void poll_jit();
    /// The user program occupies actual fabric (Hardware,
    /// HardwareForwarded or Native — not Jit, not Software). Gates
    /// hypervisor residency release and hardware_ready().
    bool fabric_resident() const
    {
        const Location loc = user_location();
        return loc == Location::Hardware ||
               loc == Location::HardwareForwarded ||
               loc == Location::Native;
    }
    /// Closes an adopted compile request once the fabric executed its
    /// first post-adoption tick (called from window()); also closes it
    /// at the adoption point if the tenant is evicted before ticking.
    void note_first_hw_tick();
    /// Journals request.done and closes the request in the tracker.
    void finish_request(uint64_t id, const char* kind, uint64_t version,
                        bool ok, double end_us);
    void run_open_loop();
    void feed_fifo_hw(const FifoBinding& f);
    void promote_pins(
        verilog::ModuleDecl* merged,
        const std::vector<std::tuple<std::string, std::string, bool>>&
            pins);
    std::vector<bool> initial_skip_mask(
        const verilog::ElaboratedModule& em, const std::string& path,
        bool record);
    Slot* user_slot();

    /// @{ Debugger internals (see the public block above).
    /// Armed-condition evaluation hook, called once per inter-timestep
    /// window when debugger_.armed(), after the pre-trigger ring sample:
    /// evaluates software conditions (or drains the fabric's trigger
    /// state while hw_debug_armed_), and dispatches fires.
    void debug_eval_window();
    /// The arming tail debug_break and debug_watch share: records point
    /// \p id's arming event \p seq (a trace flow to its fire), updates
    /// the point gauge, and re-instruments a hardware engine.
    uint64_t arm_point(uint64_t seq, uint64_t id);
    /// One fired point: journals `debug.fire`, posts the operator line,
    /// dumps the pre-trigger window, halts the virtual clock, and — on a
    /// hardware-origin fire — evicts to software so stepping is
    /// cycle-accurate in the interpreter.
    void handle_debug_fire(const Debugger::Fire& fire, bool hw_fire);
    /// Swaps the resident hardware engine for an instrumented twin
    /// (trigger comparator cells + capture ring) — or back to the plain
    /// tier when the last point is deleted — rebuilt from resident_ and
    /// moved in by relocate(). False + *err when
    /// instrumentation is unavailable (condition evaluation then falls
    /// back to per-window software reads with open loop suspended).
    bool rearm_hardware_debug(std::string* err);
    /// @}

    /// Cached handles into telemetry_ so hot-path recording is a single
    /// relaxed atomic op (no name lookup). Initialized in the ctor.
    struct Metrics {
        telemetry::Counter* iterations = nullptr;
        telemetry::Counter* evals_accepted = nullptr;
        telemetry::Counter* evals_rejected = nullptr;
        telemetry::Counter* engine_evals_sw = nullptr;
        telemetry::Counter* engine_evals_hw = nullptr;
        telemetry::Counter* engine_updates_sw = nullptr;
        telemetry::Counter* engine_updates_hw = nullptr;
        telemetry::Counter* net_events = nullptr;
        telemetry::Counter* interrupts = nullptr;
        telemetry::Counter* clock_toggles = nullptr;
        telemetry::Counter* transitions = nullptr;
        telemetry::Counter* open_loop_iterations = nullptr;
        telemetry::Counter* vcd_samples = nullptr;
        telemetry::Counter* vcd_bytes = nullptr;
        telemetry::Counter* monitor_suppressed = nullptr;
        telemetry::Counter* debug_steps = nullptr;
        telemetry::Gauge* interrupt_depth = nullptr;
        telemetry::Gauge* fifo_backlog = nullptr;
        telemetry::Gauge* debug_points = nullptr;
        telemetry::Gauge* debug_halted = nullptr;
        telemetry::Histogram* step_ns = nullptr;
        telemetry::Histogram* eval_ns = nullptr;
        telemetry::Histogram* open_loop_batch = nullptr;
        telemetry::Histogram* open_loop_wall_ns = nullptr;
        telemetry::Histogram* compile_wait_ns = nullptr;
    };

    void init_metrics();

    Options options_;
    telemetry::Registry telemetry_;
    /// The flight-recorder journal (ring always on; file when recording).
    telemetry::Journal journal_;
    /// Public step() calls not yet journaled (coalesced into api.step{n}).
    uint64_t pending_api_steps_ = 0;
    /// Crash black-box source registration (removed in the dtor).
    int blackbox_id_ = 0;
    /// Who takes the replay-pinned decisions (live unless replaying).
    std::unique_ptr<Oracle> oracle_;
    Metrics m_;
    /// The counter each events.h row declares, indexed by EventKind.
    std::array<telemetry::Counter*, kEventKinds> event_counters_{};
    /// True only during the ctor's implicit "Clock clk();" eval, which
    /// stays out of the user-facing repl.* metrics.
    bool bootstrapping_ = false;
    std::vector<TransitionRecord> transitions_;
    Diagnostics startup_diags_;
    verilog::ModuleLibrary lib_;
    std::vector<verilog::ItemPtr> root_items_;
    uint64_t version_ = 0;

    std::vector<Slot> slots_;
    std::vector<Net> nets_;
    std::map<std::string, size_t> net_index_;

    /// One queued $display/$write line, stamped (tracer µs) for the
    /// interrupt-latency SLO and the interrupt request's queue segment.
    struct Interrupt {
        std::string text;
        double enqueue_us = 0;
    };
    std::deque<Interrupt> interrupt_queue_;
    bool finished_ = false;
    uint64_t clock_toggles_ = 0;
    uint64_t iterations_ = 0;
    double timeline_s_ = 0;
    /// The resident compiled user engine's wiring (nullopt: software).
    std::optional<Wiring> resident_;
    std::optional<fpga::CompileReport> last_report_;

    /// Executed-initial bookkeeping: path -> printed-initial -> count.
    std::map<std::string, std::map<std::string, int>> executed_initials_;

    /// $monitor on-change suppression: key -> last printed text.
    std::map<std::string, std::string> monitor_last_;

    /// Probes, the VCD dump and the pre-trigger ring.
    Capture capture_{*this};

    // Peripheral state. The peripheral nets keep their names when the
    // stdlib merges into an adopted engine, so these lists, resolved at
    // each rebuild, hold across adoptions.
    std::deque<uint8_t> fifo_queue_;
    uint64_t fifo_consumed_ = 0;
    bool fifo_push_high_ = false;
    std::vector<std::string> pads_;
    std::vector<std::string> leds_;
    std::vector<FifoBinding> fifos_;

    /// Retired engines' banked profiles; reads the live ones.
    Profiler profiler_;
    /// Posedges seen when the open hardware window started (restarted
    /// whenever the user program changes tier).
    uint64_t hw_adopt_ticks_ = 0;

    // Engine shortcuts (owned by slots_).
    class ClockEngine* clock_engine_ = nullptr;
    class HwEngine* hw_engine_ = nullptr;

    // Interactive-debugger state.
    Debugger debugger_;
    /// Virtual clock paused at a fired point (read by the monitor
    /// thread for GET /debug and the halted heartbeat).
    std::atomic<bool> debug_halted_{false};
    /// Inside debug_step(): the halt gate lets exactly the requested
    /// cycles through.
    bool debug_stepping_ = false;
    /// The resident hardware engine carries synthesized trigger cells
    /// (conditions fire in the fabric; the runtime only drains state).
    std::atomic<bool> hw_debug_armed_{false};
    std::string debug_window_path_ = "cascade-debug-window.vcd";
    /// Point id -> journal seq of its arming event (flow arrows from
    /// arming eval to fire on the trace timeline).
    std::map<uint64_t, uint64_t> debug_arm_seq_;
    /// Tracer timestamp at the halting fire (closes a "debug.halt" span
    /// at debug_continue()).
    double debug_halt_start_us_ = 0;
    /// Adaptive open-loop batch size (§4.4).
    uint64_t open_loop_batch_ = 0;

    /// The device hardware compiles target and load onto: the
    /// hypervisor's in shared mode, else device_.
    const fpga::FpgaDevice& device() const;
    /// The device Options describes: exclusive mode's fabric, and the
    /// clock the JIT tier is modeled at in both modes.
    fpga::FpgaDevice device_;
    /// The compile pipeline: a private 1-worker service in exclusive
    /// mode, the shared pooled service in shared mode.
    service::CompileService* compile_service_ = nullptr;
    std::unique_ptr<service::CompileService> owned_compile_service_;
    uint64_t compile_client_ = 0;
    /// Shared mode: the fabric hypervisor this runtime is a tenant of
    /// (null in exclusive mode).
    hypervisor::FabricManager* fabric_ = nullptr;
    uint64_t tenant_ = 0;
    /// The current version's compile-service job (none before the first
    /// launch, or when the current version has none).
    std::optional<Job> job_;
    /// The placement of the last fabric result acted on (adopted, or
    /// rejected after placing) and its version: the next launch's prior.
    /// Replay acts at the recorded iterations, so it seeds the same way.
    std::shared_ptr<const fpga::CellSites> prior_;
    uint64_t prior_version_ = 0;

    /// Causal request tracker (REPL :requests/:why, GET /requests,
    /// cascade_request_* histograms). Feeds telemetry_, so it must be
    /// declared after it; read by the monitor thread (internally locked).
    telemetry::RequestTracker requests_{&telemetry_};
    /// An adopted compile request waiting for its first hardware tick
    /// (the request closes when virtual ticks move past the adoption
    /// point). 0 = none pending.
    uint64_t first_tick_request_ = 0;
    uint64_t first_tick_version_ = 0;
    double first_tick_adopt_us_ = 0;
    /// Declared last: its server thread reads members above through
    /// locked/atomic accessors, and must be gone before they are.
    std::unique_ptr<Monitor> monitor_;
};

} // namespace cascade::runtime

#endif // CASCADE_RUNTIME_RUNTIME_H
