#include "runtime/runtime.h"

#include <algorithm>
#include <set>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <type_traits>

#include "common/check.h"
#include "fpga/synth.h"
#include "hypervisor/fabric_manager.h"
#include "ir/rewrite.h"
#include "jit/jit_kernel.h"
#include "runtime/hw_engine.h"
#include "runtime/sw_engine.h"
#include "service/compile_service.h"
#include "stdlib/stdlib.h"
#include "telemetry/export.h"
#include "telemetry/sync.h"
#include "telemetry/trace.h"
#include "verilog/parser.h"
#include "verilog/printer.h"

namespace cascade::runtime {

using namespace verilog;

namespace {

/// Peripheral-facing ("pins") ports per standard-library type, with
/// direction from the device's point of view (true = driven by the host).
const std::vector<std::pair<std::string, bool>>&
peripheral_ports(const std::string& type)
{
    static const std::map<std::string,
                          std::vector<std::pair<std::string, bool>>>
        table = {
            {"Pad", {{"pins", true}}},
            {"Reset", {{"pins", true}}},
            {"Led", {{"pins", false}}},
            {"GPIO", {{"pins", true}, {"out_pins", false}}},
            {"FIFO", {{"pins", true}, {"push", true}}},
        };
    static const std::vector<std::pair<std::string, bool>> empty;
    const auto it = table.find(type);
    return it == table.end() ? empty : it->second;
}

double
wall_seconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// Journal payload for one interrupt: full digest, text capped so a hot
/// $display loop cannot bloat the ring/file (the digest still pins the
/// full content for divergence detection).
JsonWriter
interrupt_payload(const char* kind, const std::string& text)
{
    JsonWriter w;
    w.str("kind", kind);
    if (text.size() <= 200) {
        w.str("text", text);
    } else {
        w.str("text", std::string_view(text).substr(0, 200));
        w.num("len", text.size());
    }
    w.str("digest", telemetry::digest_hex(text));
    return w;
}

/// Digest over the deterministic fields of a compile report (everything
/// except the wall-clock phase timings), so a replayed compile with the
/// pinned seed produces the identical digest.
std::string
report_digest(const fpga::CompileReport& r)
{
    std::string s;
    s += std::to_string(r.netlist_nodes) + '|';
    s += std::to_string(r.cells) + '|';
    s += std::to_string(r.seed) + '|';
    s += std::to_string(r.area.les) + '|';
    s += std::to_string(r.area.bram_bits) + '|';
    s += std::to_string(r.anneal_moves) + '|';
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.12g|%.12g|", r.wirelength,
                  r.timing.fmax_mhz);
    s += buf;
    s += r.timing.met ? "1|" : "0|";
    for (const std::string& name : r.critical_path_names) {
        s += name;
        s += ',';
    }
    return telemetry::digest_hex(s);
}

/// @{ The stdlib state under an engine's inline prefixes, one pair for
/// every relocation: a merged engine's "root" snapshot splits into one
/// snapshot per instance at "root.<instance>", which merge back under the
/// prefixes.
void
split_stdlib_state(std::map<std::string, sim::StateSnapshot>* state,
                   const std::map<std::string, std::string>& prefixes)
{
    const auto root = state->find("root");
    if (root == state->end()) {
        return;
    }
    for (const auto& [instance, prefix] : prefixes) {
        sim::StateSnapshot sub;
        for (const auto& [name, value] : root->second.regs) {
            if (name.rfind(prefix, 0) == 0) {
                sub.regs[name.substr(prefix.size())] = value;
            }
        }
        for (const auto& [name, mem] : root->second.memories) {
            if (name.rfind(prefix, 0) == 0) {
                sub.memories[name.substr(prefix.size())] = mem;
            }
        }
        (*state)["root." + instance] = std::move(sub);
    }
}

sim::StateSnapshot
merge_stdlib_state(const std::map<std::string, sim::StateSnapshot>& state,
                   const std::map<std::string, std::string>& prefixes)
{
    sim::StateSnapshot merged;
    if (const auto root = state.find("root"); root != state.end()) {
        merged = root->second;
    }
    for (const auto& [instance, prefix] : prefixes) {
        const auto it = state.find("root." + instance);
        if (it == state.end()) {
            continue;
        }
        for (const auto& [name, value] : it->second.regs) {
            merged.regs[prefix + name] = value;
        }
        for (const auto& [name, mem] : it->second.memories) {
            merged.memories[prefix + name] = mem;
        }
    }
    return merged;
}
/// @}

} // namespace

const char*
location_name(Location loc)
{
    switch (loc) {
    case Location::Software: return "Software";
    case Location::Hardware: return "Hardware";
    case Location::HardwareForwarded: return "HardwareForwarded";
    case Location::Native: return "Native";
    case Location::Jit: return "Jit";
    }
    return "Unknown";
}

// ---------------------------------------------------------------------------
// ClockEngine: the standard clock is "just another engine" (§4.1) whose
// tick is re-queued by end_step.
// ---------------------------------------------------------------------------

class ClockEngine : public Engine {
  public:
    ClockEngine() : val_(1, 0) {}

    sim::StateSnapshot
    get_state() override
    {
        sim::StateSnapshot snap;
        snap.regs["val"] = val_;
        return snap;
    }

    void
    set_state(const sim::StateSnapshot& snapshot) override
    {
        const auto it = snapshot.regs.find("val");
        if (it != snapshot.regs.end()) {
            val_ = it->second.resized(1);
        }
    }

    void read(const Event&) override {}

    std::vector<Event>
    write() override
    {
        if (!changed_) {
            return {};
        }
        changed_ = false;
        return {{0, val_}};
    }

    bool there_are_evals() override { return false; }
    void evaluate() override {}
    bool there_are_updates() override { return armed_; }

    void
    update() override
    {
        armed_ = false;
        val_ = BitVector(1, val_.is_zero() ? 1 : 0);
        changed_ = true;
    }

    void end_step() override { armed_ = true; }
    bool is_hardware() const override { return true; }

    bool value() const { return !val_.is_zero(); }

    /// Open-loop resynchronization: adopt the clock value the hardware
    /// engine left behind, without emitting an event.
    void
    force_value(bool v)
    {
        val_ = BitVector(1, v ? 1 : 0);
    }

  private:
    BitVector val_;
    bool armed_ = true;
    bool changed_ = false;
};

// ---------------------------------------------------------------------------
// NativeEngine: §4.5 native mode — the design compiled exactly as written
// (no Fig. 10 instrumentation), running at full fabric speed.
// ---------------------------------------------------------------------------

class NativeEngine : public Engine {
  public:
    NativeEngine(std::unique_ptr<fpga::FabricExec> fabric,
                 std::vector<std::string> port_names,
                 std::vector<bool> port_is_input, std::string clock_port,
                 double clock_mhz)
        : fabric_(std::move(fabric)), port_names_(std::move(port_names)),
          port_is_input_(std::move(port_is_input)),
          clock_port_(std::move(clock_port)),
          clock_period_s_(1.0 / (clock_mhz * 1e6))
    {
        for (size_t p = 0; p < port_names_.size(); ++p) {
            port_index_.push_back(
                port_is_input_[p] ? fabric_->input_index(port_names_[p])
                                  : fabric_->output_index(port_names_[p]));
            output_cache_.emplace_back(1, 0);
        }
        fabric_->eval_comb();
    }

    sim::StateSnapshot
    get_state() override
    {
        sim::StateSnapshot snap;
        const fpga::Netlist& nl = fabric_->netlist();
        for (const fpga::RegDef& r : nl.regs) {
            snap.regs[r.name] = fabric_->reg_value(r.name);
        }
        for (const fpga::MemDef& m : nl.mems) {
            std::vector<BitVector> contents;
            contents.reserve(m.size);
            for (uint32_t i = 0; i < m.size; ++i) {
                contents.push_back(fabric_->mem_value(m.name, i));
            }
            snap.memories[m.name] = std::move(contents);
        }
        return snap;
    }

    void
    set_state(const sim::StateSnapshot& snapshot) override
    {
        // Inputs first, then one step that absorbs any edge they present
        // (the clock high): it latches against registers the restore
        // below overwrites, so the state arrives with no side effect.
        for (size_t p = 0; p < port_names_.size(); ++p) {
            const auto it = snapshot.regs.find(port_names_[p]);
            if (!port_is_input_[p] || port_index_[p] < 0 ||
                it == snapshot.regs.end()) {
                continue;
            }
            fabric_->set_input(port_index_[p], it->second);
            if (port_names_[p] == clock_port_) {
                clock_level_ = !it->second.is_zero();
            }
        }
        fabric_->step();
        const fpga::Netlist& nl = fabric_->netlist();
        for (const fpga::RegDef& r : nl.regs) {
            const auto it = snapshot.regs.find(r.name);
            if (it != snapshot.regs.end()) {
                fabric_->set_reg(r.name, it->second);
            }
        }
        for (const fpga::MemDef& m : nl.mems) {
            const auto it = snapshot.memories.find(m.name);
            if (it == snapshot.memories.end()) {
                continue;
            }
            for (size_t i = 0; i < it->second.size() && i < m.size; ++i) {
                fabric_->set_mem(m.name, i, it->second[i]);
            }
        }
        dirty_ = true;
    }

    void
    read(const Event& event) override
    {
        if (port_is_input_[event.port] && port_index_[event.port] >= 0) {
            fabric_->set_input(port_index_[event.port], event.value);
            dirty_ = true;
        }
    }

    std::vector<Event>
    write() override
    {
        std::vector<Event> events;
        for (size_t p = 0; p < port_names_.size(); ++p) {
            if (port_is_input_[p] || port_index_[p] < 0) {
                continue;
            }
            BitVector v = fabric_->output(port_index_[p]);
            if (v != output_cache_[p]) {
                output_cache_[p] = v;
                events.push_back({static_cast<uint32_t>(p), std::move(v)});
            }
        }
        return events;
    }

    bool there_are_evals() override { return dirty_; }

    void
    evaluate() override
    {
        // One fabric step settles logic and latches any input clock edge.
        fabric_->step();
        ++cycles_;
        dirty_ = false;
    }

    bool there_are_updates() override { return false; }
    void update() override {}
    bool is_hardware() const override { return true; }

    /// A register of the fabric's netlist; unknown names never reach the
    /// fabric's lookup.
    std::optional<BitVector>
    peek(const std::string& name) override
    {
        const auto& regs = fabric_->netlist().regs;
        if (std::none_of(regs.begin(), regs.end(),
                         [&name](const fpga::RegDef& r) {
                             return r.name == name;
                         })) {
            return std::nullopt;
        }
        return fabric_->reg_value(name);
    }

    uint64_t
    open_loop(uint64_t max_iterations) override
    {
        if (clock_port_.empty()) {
            return 0;
        }
        const int clk = fabric_->input_index(clock_port_);
        if (clk < 0) {
            return 0;
        }
        bool level = clock_level_;
        for (uint64_t i = 0; i < max_iterations; ++i) {
            level = !level;
            fabric_->set_input(clk, BitVector(1, level ? 1 : 0));
            fabric_->step();
        }
        clock_level_ = level;
        cycles_ += max_iterations;
        dirty_ = true;
        return max_iterations;
    }

    bool
    supports_open_loop() const override
    {
        return !clock_port_.empty();
    }

    double
    take_modeled_seconds() override
    {
        const double out =
            static_cast<double>(cycles_) * clock_period_s_;
        cycles_ = 0;
        return out;
    }

    bool clock_level() const { return clock_level_; }

  private:
    std::unique_ptr<fpga::FabricExec> fabric_;
    std::vector<std::string> port_names_;
    std::vector<bool> port_is_input_;
    std::vector<int> port_index_;
    std::vector<BitVector> output_cache_;
    std::string clock_port_;
    double clock_period_s_;
    bool dirty_ = true;
    bool clock_level_ = false;
    uint64_t cycles_ = 0;
};

// ---------------------------------------------------------------------------
// LiveOracle: the decisions of a live session, from what it observes.
// ---------------------------------------------------------------------------

namespace {

class LiveOracle : public Runtime::Oracle {
  public:
    /// \p fabric is the hypervisor in shared mode, null in exclusive mode.
    LiveOracle(hypervisor::FabricManager* fabric, uint64_t tenant)
        : fabric_(fabric), tenant_(tenant)
    {}

    /// Act on a build as soon as it is done; never wait for one.
    bool
    act_now(Build, uint64_t, uint64_t,
            const std::function<bool(double)>& ready) override
    {
        return ready(0);
    }

    std::optional<std::string>
    forced_failure(Build, uint64_t) override
    {
        return std::nullopt;
    }

    bool
    evict_now(uint64_t, bool resident) override
    {
        return resident && fabric_ != nullptr &&
               fabric_->eviction_pending(tenant_);
    }

    uint64_t
    placement_seed(uint64_t, uint64_t derived) override
    {
        return derived;
    }

    uint64_t
    open_loop_grant(uint64_t adaptive) override
    {
        // Fair-share ticking: the hypervisor trims the grant when other
        // tenants are resident so no one monopolizes the fabric between
        // scheduler windows.
        return fabric_ != nullptr ? fabric_->grant_open_loop(tenant_, adaptive)
                                  : adaptive;
    }

  private:
    hypervisor::FabricManager* fabric_;
    uint64_t tenant_;
};

} // namespace

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

Runtime::Runtime() : Runtime(Options()) {}

Runtime::Runtime(Options options)
    : Runtime(std::move(options), nullptr, nullptr)
{}

Runtime::Runtime(Options options, service::CompileService& service,
                 hypervisor::FabricManager& fabric)
    : Runtime(std::move(options), &service, &fabric)
{}

Runtime::Runtime(Options options, service::CompileService* service,
                 hypervisor::FabricManager* fabric)
    : options_(std::move(options)), profiler_([this] {
          Profiler::Live live;
          live.profiling = options_.profiling;
          live.location = location_name(user_location());
          live.virtual_ticks = virtual_ticks();
          live.hw_window_ticks = posedges_seen() - hw_adopt_ticks_;
          for (const Slot& slot : slots_) {
              live.engines.emplace_back(slot.instance, slot.engine.get());
          }
          return live;
      }),
      device_(options_.device_les, options_.device_bram_bits,
              options_.device_clock_mhz)
{
    // The compile pipeline: the background CompileServer that used to be
    // embedded here is now the process-wide service::CompileService;
    // exclusive construction keeps the old behavior with a private
    // single-worker instance (same thread count, plus the bitstream
    // cache).
    if (service != nullptr) {
        compile_service_ = service;
    } else {
        owned_compile_service_ =
            std::make_unique<service::CompileService>();
        compile_service_ = owned_compile_service_.get();
    }
    compile_client_ = compile_service_->register_client();
    fabric_ = fabric;
    if (fabric_ != nullptr) {
        tenant_ = fabric_->add_tenant(options_.tenant_name,
                                      options_.tenant_le_quota,
                                      options_.tenant_bram_quota);
        // From here on every journal event carries the tenant tag, and
        // this thread's lock waits / trace events attribute to it.
        journal_.set_tenant(tenant_);
        telemetry::set_thread_tenant(tenant_);
    }
    oracle_ = std::make_unique<LiveOracle>(fabric_, tenant_);
    init_metrics();
    journal_.set_clock([this] { return virtual_ticks(); });
    telemetry::SloTracker::Config slo;
    slo.window_s = options_.slo_window_s;
    slo.max_cold_compile_p99_s = options_.slo_max_cold_compile_p99_s;
    slo.max_warm_compile_p99_s = options_.slo_max_warm_compile_p99_s;
    slo.max_interrupt_p99_s = options_.slo_max_interrupt_p99_s;
    slo.min_ticks_per_s = options_.slo_min_ticks_per_s;
    monitor_ = std::make_unique<Monitor>(
        Monitor::Sources{
            telemetry_, *compile_service_, fabric_, tenant_, requests_,
            journal_, debug_halted_, [this] { return debug_json(); },
            [this](const JsonWriter& w) { emit(EventKind::SloBreach, w); }},
        options_.timeseries_interval_s, slo);
    // Register this session with the crash black box: a fatal error dumps
    // the journal ring plus stats/profile/time-series snapshots of every
    // live runtime.
    blackbox_id_ = telemetry::BlackBox::instance().add_source(
        "runtime", [this] {
            return JsonWriter()
                .raw("events", journal_.ring_json())
                .raw("stats", stats_json())
                .raw("profile", profiler_.profile_json())
                .raw("timeseries", monitor_->timeseries().json())
                .build();
        });
    telemetry::BlackBox::instance().install_handlers();
    // Load the standard library and implicitly instantiate the Clock
    // (paper §3.2: Clock/Pad/Led are implicitly provided; we instantiate
    // peripherals lazily when the user references them — see eval()).
    SourceUnit unit = parse(stdlib::stdlib_source(), &startup_diags_);
    CASCADE_CHECK(!startup_diags_.has_errors());
    for (auto& m : unit.modules) {
        lib_.add(std::move(m));
    }
    std::string errors;
    bootstrapping_ = true;
    const bool ok = eval("Clock clk();", &errors);
    bootstrapping_ = false;
    CASCADE_CHECK(ok);
    if (options_.monitor_port != 0) {
        std::string merr;
        if (!monitor_->start(options_.monitor_port, &merr)) {
            log_event(LogLevel::Warn, "monitor",
                      "monitor failed to start: " + merr);
        }
    }
}

Runtime::~Runtime()
{
    // The monitor server's thread reads this runtime through its
    // providers and the journal tap: it must be gone before anything
    // else is torn down.
    monitor_->stop();
    // The black-box provider captures `this`: deregister before members
    // are torn down so a crash during another runtime's dump cannot walk
    // into freed state.
    telemetry::BlackBox::instance().remove_source(blackbox_id_);
    if (fabric_ != nullptr) {
        fabric_->remove_tenant(tenant_);
    }
    compile_service_->unregister_client(compile_client_);
}

void
Runtime::init_metrics()
{
    m_.iterations = telemetry_.counter("scheduler.iterations");
    m_.evals_accepted = telemetry_.counter("repl.evals_accepted");
    m_.evals_rejected = telemetry_.counter("repl.evals_rejected");
    m_.engine_evals_sw = telemetry_.counter("engine.sw.evaluate");
    m_.engine_evals_hw = telemetry_.counter("engine.hw.evaluate");
    m_.engine_updates_sw = telemetry_.counter("engine.sw.update");
    m_.engine_updates_hw = telemetry_.counter("engine.hw.update");
    m_.net_events = telemetry_.counter("net.events_routed");
    m_.interrupts = telemetry_.counter("interrupt.enqueued");
    m_.clock_toggles = telemetry_.counter("clock.toggles");
    m_.transitions = telemetry_.counter("transition.count");
    m_.open_loop_iterations = telemetry_.counter("openloop.iterations");
    m_.vcd_samples = telemetry_.counter("vcd.samples");
    m_.vcd_bytes = telemetry_.counter("vcd.bytes_written");
    m_.monitor_suppressed = telemetry_.counter("monitor.suppressed");
    m_.debug_steps = telemetry_.counter("debug.steps");
    m_.interrupt_depth = telemetry_.gauge("interrupt.queue_depth");
    m_.fifo_backlog = telemetry_.gauge("fifo.backlog");
    m_.debug_points = telemetry_.gauge("debug.points");
    m_.debug_halted = telemetry_.gauge("debug.halted");
    m_.step_ns = telemetry_.histogram("scheduler.step_ns");
    m_.eval_ns = telemetry_.histogram("repl.eval_ns");
    m_.open_loop_batch = telemetry_.histogram("openloop.batch");
    m_.open_loop_wall_ns = telemetry_.histogram("openloop.wall_ns");
    m_.compile_wait_ns = telemetry_.histogram("compile.wait_ns");
    for (size_t k = 0; k < kEventKinds; ++k) {
        if (kEvents[k].counter != nullptr) {
            event_counters_[k] = telemetry_.counter(kEvents[k].counter);
        }
    }
}

uint64_t
Runtime::emit(EventKind kind, const JsonWriter& payload, uint64_t trace_arg)
{
    const EventSpec& spec = kEvents[static_cast<size_t>(kind)];
    if (spec.replay == ReplayClass::Input) {
        flush_api_steps();
    }
    const uint64_t seq = journal_.record(spec.type, payload.build());
    if (telemetry::Counter* c = event_counters_[static_cast<size_t>(kind)]) {
        c->inc();
    }
    if (spec.instant != nullptr) {
        telemetry::Tracer::global().instant(spec.instant, trace_arg);
    }
    return seq;
}

void
Runtime::bind_thread_tenant() const
{
    if (fabric_ != nullptr) {
        telemetry::set_thread_tenant(tenant_);
    }
}

bool
Runtime::eval(std::string_view source, std::string* errors)
{
    bind_thread_tenant();
    flush_api_steps();
    // The ctor's implicit "Clock clk();" eval is machinery, not a user
    // interaction: keep it out of the repl.* metrics.
    TELEM_SPAN_HIST("runtime.eval",
                    bootstrapping_ ? nullptr : m_.eval_ns);
    // Request tracing: the eval request's id is the journal seq of its
    // `eval` event (recorded at completion, so the id is known only when
    // the request closes — a single-segment request either way).
    const double eval_start_us = telemetry::Tracer::global().now_us();
    const auto track_eval = [&](uint64_t id, bool ok) {
        if (bootstrapping_) {
            return; // the ctor's implicit Clock eval is machinery
        }
        const double now_us = telemetry::Tracer::global().now_us();
        requests_.begin(id, "eval", version_, tenant_, eval_start_us);
        requests_.add_segment(id, "eval", now_us - eval_start_us);
        finish_request(id, "eval", version_, ok, now_us);
    };
    const auto reject = [&](const std::string& err_text) {
        if (errors != nullptr) {
            *errors = err_text;
        }
        m_.evals_rejected->inc();
        const uint64_t id = emit(EventKind::Eval, JsonWriter()
                                                      .boolean("ok", false)
                                                      .num("version", version_)
                                                      .str("src", source)
                                                      .str("err", err_text));
        track_eval(id, false);
        return false;
    };
    Diagnostics diags;
    SourceUnit unit = parse(source, &diags);
    if (diags.has_errors()) {
        return reject(diags.str());
    }

    // Integrate tentatively, roll back on elaboration failure (the REPL
    // rejects bad evals without disturbing the running program).
    std::vector<std::string> added_modules;
    for (auto& m : unit.modules) {
        if (lib_.find(m->name) != nullptr) {
            return reject("module '" + m->name +
                          "' is already declared (Cascade evals are "
                          "append-only, see paper §7.2)");
        }
        added_modules.push_back(m->name);
        lib_.add(std::move(m));
    }
    const size_t old_item_count = root_items_.size();
    for (auto& item : unit.root_items) {
        root_items_.push_back(std::move(item));
    }

    std::string rebuild_errors;
    if (!rebuild_program(&rebuild_errors, "eval")) {
        // Roll back.
        root_items_.resize(old_item_count);
        for (const std::string& name : added_modules) {
            lib_.remove(name);
        }
        if (!added_modules.empty() || old_item_count != 0 ||
            !root_items_.empty()) {
            std::string ignored;
            rebuild_program(&ignored, "rollback"); // restore previous good
        }
        return reject(rebuild_errors);
    }
    if (!bootstrapping_) {
        m_.evals_accepted->inc();
    }
    const uint64_t id = emit(EventKind::Eval, JsonWriter()
                                                  .boolean("ok", true)
                                                  .num("version", version_)
                                                  .str("src", source));
    track_eval(id, true);
    return true;
}

std::unique_ptr<ModuleDecl>
make_root(const std::vector<ItemPtr>& items)
{
    auto root = std::make_unique<ModuleDecl>();
    root->name = "Root";
    for (const auto& item : items) {
        root->items.push_back(item->clone());
    }
    return root;
}

std::vector<bool>
Runtime::initial_skip_mask(const ElaboratedModule& em,
                           const std::string& path, bool record)
{
    std::vector<bool> mask;
    std::map<std::string, int> used;
    auto& executed = executed_initials_[path];
    for (const auto& item : em.decl->items) {
        if (item->kind != ItemKind::Initial) {
            continue;
        }
        const std::string key = print(*item, 0);
        const int ran = [&] {
            const auto it = executed.find(key);
            return it == executed.end() ? 0 : it->second;
        }();
        if (used[key] < ran) {
            mask.push_back(true); // already fired in a past incarnation
        } else {
            mask.push_back(false);
            if (record) {
                ++executed[key];
            }
        }
        ++used[key];
    }
    return mask;
}

bool
Runtime::rebuild_program(std::string* errors, const char* reason)
{
    Diagnostics diags;
    auto root = make_root(root_items_);

    const ModuleDecl* top = root.get();
    std::unique_ptr<ModuleDecl> inlined;
    if (options_.enable_inlining) {
        inlined = ir::inline_hierarchy(*root, lib_,
                                       stdlib::stdlib_type_names(), &diags);
        if (inlined == nullptr) {
            if (errors != nullptr) {
                *errors = diags.str();
            }
            return false;
        }
        top = inlined.get();
    }
    auto subs = ir::split_program(*top, lib_,
                                  stdlib::stdlib_type_names(), &diags);
    if (subs.empty()) {
        if (errors != nullptr) {
            *errors = diags.str();
        }
        return false;
    }

    // The retiring engines finish their timestep before the new ones run
    // their initial blocks, so output keeps program order.
    finish_timestep();

    // Build the new engine set (everything starts in software, §3.3).
    std::vector<Slot> new_slots;
    for (auto& sub : subs) {
        Slot slot;
        slot.sub = std::move(sub);
        const size_t dot = slot.sub.path.rfind('.');
        slot.instance = dot == std::string::npos
                            ? slot.sub.path
                            : slot.sub.path.substr(dot + 1);
        slot.is_stdlib = slot.sub.is_stdlib;
        if (slot.sub.module_name == "Clock") {
            slot.is_clock = true;
            slot.engine = std::make_unique<ClockEngine>();
        } else {
            Diagnostics ediags;
            Elaborator elab(&ediags);
            auto em = elab.elaborate(*slot.sub.source, slot.sub.params);
            if (em == nullptr) {
                if (errors != nullptr) {
                    *errors = "internal elaboration failure for '" +
                              slot.sub.path + "':\n" + ediags.str();
                }
                return false;
            }
            std::shared_ptr<const ElaboratedModule> shared(std::move(em));
            const auto mask =
                initial_skip_mask(*shared, slot.sub.path, true);
            auto sw = std::make_unique<SwEngine>(
                shared, this, mask, /*hardware_resident=*/slot.is_stdlib);
            sw->set_profiling(options_.profiling);
            slot.engine = std::move(sw);
        }
        for (const Port& p : slot.sub.source->ports) {
            slot.port_is_input.push_back(p.dir == PortDir::Input);
        }
        new_slots.push_back(std::move(slot));
    }

    // Every failure path above returns with slots_ untouched, so each
    // engine retires (and banks its profile) exactly once.
    const bool was_fabric = fabric_resident();
    relocate(std::move(new_slots), std::nullopt);
    ++version_;
    // Falling off hardware hands our fabric slot back; in shared mode
    // that completes any pending eviction and wakes tenants parked on
    // capacity.
    if (was_fabric && fabric_ != nullptr) {
        fabric_->release_residency(tenant_);
    }

    resolve_peripherals();
    service_peripherals();

    settle_evaluations();

    emit(EventKind::Rebuild, JsonWriter()
                                 .num("version", version_)
                                 .str("reason", reason)
                                 .num("slots", slots_.size())
                                 .num("nets", nets_.size()));
    if (options_.enable_hardware) {
        launch_compile();
    }
    return true;
}

void
Runtime::finish_timestep()
{
    // An edge the engines were delivered but have not evaluated, and the
    // nonblocking updates they queued, belong to the engines that saw the
    // edge. (The clock's own armed toggle starts the next timestep.)
    settle_evaluations();
    for (int guard = 0; guard < 4096; ++guard) {
        bool any = false;
        for (Slot& slot : slots_) {
            if (!slot.is_clock && slot.engine->there_are_updates()) {
                slot.engine->update();
                any = true;
            }
        }
        if (!any) {
            break;
        }
        route_outputs();
        settle_evaluations();
    }
}

void
Runtime::relocate(std::vector<Slot> incoming, std::optional<Wiring> resident)
{
    finish_timestep();

    // Bank the retiring profiles once. A change of tier closes the open
    // hardware attribution window (posedge-exact: a mid-window swap right
    // after a posedge must not re-attribute the tick the retiring engine
    // already executed); software keeps no clock ports.
    const Location to =
        resident.has_value() ? resident->location : Location::Software;
    if (to != user_location()) {
        profiler_.close_hw_window(posedges_seen() - hw_adopt_ticks_);
        hw_adopt_ticks_ = posedges_seen();
        // The adaptive open-loop batch fits the retiring tier's speed (a
        // batch sized for the kernel runs for tens of seconds on the
        // bitstream evaluator): the new tier learns its own from the
        // initial size.
        open_loop_batch_ = 0;
    }
    if (!resident.has_value()) {
        profiler_.forget_clock_ports();
    }
    const bool merging = resident.has_value() && resident->merged();
    std::set<std::string> replaced;
    for (const Slot& slot : incoming) {
        replaced.insert(slot.sub.path);
    }
    std::vector<Slot> next;
    std::map<std::string, sim::StateSnapshot> state;
    for (Slot& slot : slots_) {
        if (replaced.count(slot.sub.path) == 0 &&
            !(merging && !slot.is_clock)) {
            next.push_back(std::move(slot)); // survives the swap
            continue;
        }
        state[slot.sub.path] = slot.engine->get_state();
        profiler_.retire(slot.instance, *slot.engine, slot.sub.bindings,
                         resident.has_value() ? resident->clock_net : "");
    }
    if (resident_.has_value() && resident_->merged()) {
        split_stdlib_state(&state, resident_->prefixes);
    }

    // Restore each incoming engine with its input ports already at their
    // net levels: the retired engines ran the edge that put the clock
    // where it is, so the new engine must not see it as an edge again (it
    // would run every clocked process once more — and, after a hw->sw
    // split, before the split-out FIFO drove its `empty`).
    std::map<std::string, BitVector> levels;
    for (const Net& net : nets_) {
        if (net.has_value) {
            levels[net.name] = net.value;
        }
    }
    for (Slot& slot : incoming) {
        sim::StateSnapshot snap =
            merging && slot.sub.path == "root"
                ? merge_stdlib_state(state, resident->prefixes)
                : std::move(state[slot.sub.path]);
        for (size_t p = 0; p < slot.sub.bindings.size() &&
                           p < slot.port_is_input.size();
             ++p) {
            const auto level = levels.find(slot.sub.bindings[p].global_net);
            if (slot.port_is_input[p] && level != levels.end()) {
                snap.regs[slot.sub.bindings[p].port] = level->second;
            }
        }
        slot.engine->set_state(snap);
        next.push_back(std::move(slot));
    }
    slots_ = std::move(next);
    resident_ = std::move(resident);

    clock_engine_ = nullptr;
    hw_engine_ = nullptr;
    for (Slot& slot : slots_) {
        if (slot.is_clock) {
            clock_engine_ = static_cast<ClockEngine*>(slot.engine.get());
        } else if (slot.sub.path == "root") {
            hw_engine_ = dynamic_cast<HwEngine*>(slot.engine.get());
        }
    }
    // A new engine carries no trigger cells (the debugger re-arms it).
    hw_debug_armed_.store(false, std::memory_order_relaxed);
    if (hw_engine_ != nullptr) {
        hw_engine_->set_profiling(options_.profiling);
    }
    const auto hw_slot = [this](const std::string& name) {
        return hw_engine_ != nullptr ? hw_engine_->map().find(name) : nullptr;
    };
    for (FifoBinding& f : fifos_) {
        f.mem = hw_slot(f.prefix + "mem");
        f.head = hw_slot(f.prefix + "head");
        f.tail = hw_slot(f.prefix + "tail");
    }
    // Net values survive the rewiring (pad levels, clock phase, ...); every
    // engine reading them already holds them.
    wire_nets();
    for (Net& net : nets_) {
        const auto it = levels.find(net.name);
        if (it != levels.end()) {
            net.value = it->second;
            net.has_value = true;
        }
    }
}

Runtime::Slot
Runtime::engine_slot(const Wiring& wiring,
                     std::unique_ptr<fpga::FabricExec> fabric)
{
    Slot slot;
    slot.sub.path = "root";
    slot.sub.module_name = "Root";
    slot.instance = "root";
    std::vector<std::string> port_names;
    for (const auto& [port, net, is_input] : wiring.ports) {
        slot.sub.bindings.push_back({port, net});
        slot.port_is_input.push_back(is_input);
        port_names.push_back(port);
    }
    if (wiring.native) {
        slot.engine = std::make_unique<NativeEngine>(
            std::move(fabric), port_names, slot.port_is_input,
            wiring.map.clock_input, wiring.clock_mhz);
    } else {
        // The JIT rung is in-process: the MMIO slot protocol is the same,
        // but each access is a function call, not a bus round trip, so
        // its modeled MMIO latency is zero, whatever engine runs there.
        slot.engine = std::make_unique<HwEngine>(
            std::move(fabric), wiring.map, port_names, slot.port_is_input,
            this, wiring.clock_mhz,
            wiring.location == Location::Jit ? 0.0
                                             : options_.mmio_latency_s);
    }
    return slot;
}

void
Runtime::settle_evaluations()
{
    for (int guard = 0; guard < 4096; ++guard) {
        bool any = false;
        for (Slot& slot : slots_) {
            if (slot.engine->there_are_evals()) {
                slot.engine->evaluate();
                any = true;
            }
        }
        if (!any) {
            return;
        }
        route_outputs();
    }
}

void
Runtime::flush_interrupts()
{
    uint64_t flush_id = 0;
    if (!interrupt_queue_.empty()) {
        flush_id = emit(EventKind::InterruptFlush,
                        JsonWriter().num("count", interrupt_queue_.size()));
    }
    // Every entry drains in this batch: each one's queue residency feeds
    // the SLO window, and the oldest's is the interrupt batch's traced
    // request latency (id = the flush event's seq).
    if (flush_id != 0) {
        const double now_us = telemetry::Tracer::global().now_us();
        for (const Interrupt& i : interrupt_queue_) {
            monitor_->record_interrupt((now_us - i.enqueue_us) * 1e-6);
        }
        const double dur_us =
            std::max(0.0, now_us - interrupt_queue_.front().enqueue_us);
        requests_.begin(flush_id, "interrupt", version_, tenant_,
                        now_us - dur_us);
        requests_.add_segment(flush_id, "queue", dur_us);
        finish_request(flush_id, "interrupt", version_, true, now_us);
    }
    while (!interrupt_queue_.empty()) {
        if (on_output) {
            on_output(interrupt_queue_.front().text);
        }
        interrupt_queue_.pop_front();
    }
    m_.interrupt_depth->set(0);
}

void
Runtime::wire_nets()
{
    nets_.clear();
    net_index_.clear();
    auto net_of = [this](const std::string& name) -> size_t {
        const auto it = net_index_.find(name);
        if (it != net_index_.end()) {
            return it->second;
        }
        const size_t idx = nets_.size();
        Net net;
        net.name = name;
        nets_.push_back(std::move(net));
        net_index_[name] = idx;
        return idx;
    };
    for (size_t s = 0; s < slots_.size(); ++s) {
        Slot& slot = slots_[s];
        slot.port_net.clear();
        for (size_t p = 0; p < slot.sub.bindings.size(); ++p) {
            const size_t n = net_of(slot.sub.bindings[p].global_net);
            slot.port_net.push_back(static_cast<int32_t>(n));
            if (p < slot.port_is_input.size() && slot.port_is_input[p]) {
                nets_[n].readers.emplace_back(s,
                                              static_cast<uint32_t>(p));
            }
        }
    }
}

int
Runtime::find_net(const std::string& name) const
{
    const auto it = net_index_.find(name);
    return it == net_index_.end() ? -1 : static_cast<int>(it->second);
}

void
Runtime::inject_net(const std::string& name, const BitVector& value)
{
    const int n = find_net(name);
    if (n < 0) {
        return;
    }
    Net& net = nets_[static_cast<size_t>(n)];
    if (net.has_value && net.value == value) {
        return;
    }
    net.value = value;
    net.has_value = true;
    for (const auto& [slot, port] : net.readers) {
        slots_[slot].engine->read({port, value});
    }
}

void
Runtime::route_outputs()
{
    for (size_t s = 0; s < slots_.size(); ++s) {
        Slot& slot = slots_[s];
        for (Event& e : slot.engine->write()) {
            const int32_t n = slot.port_net[e.port];
            if (n < 0) {
                continue;
            }
            Net& net = nets_[static_cast<size_t>(n)];
            if (net.has_value && net.value == e.value) {
                continue;
            }
            net.value = e.value;
            net.has_value = true;
            m_.net_events->inc();
            if (slot.is_clock) {
                ++clock_toggles_;
                m_.clock_toggles->inc();
            }
            for (const auto& [rs, rp] : net.readers) {
                slots_[rs].engine->read({rp, net.value});
            }
        }
    }
}

bool
Runtime::step()
{
    // Journaled lazily as one coalesced api.step{n} event: flushed before
    // the next non-step input event (step_internal itself is also driven
    // by run()/run_for_ticks(), which journal their own inputs).
    bind_thread_tenant();
    ++pending_api_steps_;
    return step_internal();
}

bool
Runtime::step_internal()
{
    // Exclusive sessions skip the span: the tracer push is mutex-guarded
    // and would tax the single-runtime hot path for a one-lane trace.
    if (fabric_ == nullptr) {
        return step_body();
    }
    telemetry::SpanGuard span(telemetry::Tracer::global(), "sched.iter");
    return step_body();
}

bool
Runtime::step_body()
{
    if (finished_) {
        return false;
    }
    if (debug_halted_.load(std::memory_order_relaxed) && !debug_stepping_) {
        // Halted at a fired point: the virtual clock is paused, so the
        // iteration is refused rather than executed. The monitor sampler
        // still runs — a halted session should read as "paused", not
        // "hung", on /timeseries.
        monitor_->sample(user_location() != Location::Software);
        return !finished_;
    }
    const double t0 = wall_seconds();
    ++iterations_;
    m_.iterations->inc();

    // Evaluation phase: run engines with active evaluation events to a
    // cross-engine fixed point (Fig. 6 lines 3-4, batched).
    for (int guard = 0; guard < 4096; ++guard) {
        bool any = false;
        for (Slot& slot : slots_) {
            if (slot.engine->there_are_evals()) {
                slot.engine->evaluate();
                (slot.engine->is_hardware() ? m_.engine_evals_hw
                                            : m_.engine_evals_sw)
                    ->inc();
                any = true;
            }
        }
        if (!any) {
            break;
        }
        route_outputs();
    }

    // Update phase (lines 5-8) or the inter-timestep window (line 10).
    bool any_updates = false;
    for (Slot& slot : slots_) {
        if (slot.engine->there_are_updates()) {
            any_updates = true;
        }
    }
    if (any_updates) {
        for (Slot& slot : slots_) {
            if (slot.engine->there_are_updates()) {
                slot.engine->update();
                (slot.engine->is_hardware() ? m_.engine_updates_hw
                                            : m_.engine_updates_sw)
                    ->inc();
            }
        }
        route_outputs();
    } else {
        window();
    }

    // Timeline: wall time while the user logic is interpreted, modeled
    // device/bus time once it lives in hardware.
    double modeled = 0;
    for (Slot& slot : slots_) {
        modeled += slot.engine->take_modeled_seconds();
    }
    if (!resident_.has_value()) {
        timeline_s_ += wall_seconds() - t0;
    } else {
        timeline_s_ += modeled;
    }
    m_.step_ns->record(
        static_cast<uint64_t>((wall_seconds() - t0) * 1e9));
    if (finished_) {
        // Shutdown: drain the interrupt queue so the final $display lines
        // reach the view, and notify engines (Fig. 6 line 14).
        flush_interrupts();
        for (Slot& slot : slots_) {
            slot.engine->end();
        }
        emit(EventKind::Finish,
             JsonWriter().num("iteration", iterations_), virtual_ticks());
    }
    return !finished_;
}

void
Runtime::window()
{
    // Close an adopted compile request once the fabric ticked (the
    // adoption itself happened in an earlier window's poll_compiles).
    note_first_hw_tick();
    // Ordered interrupt queue -> view.
    flush_interrupts();
    for (Slot& slot : slots_) {
        slot.engine->end_step();
        if (slot.engine->finished()) {
            finished_ = true;
        }
    }
    // end_step is where software engines flush $monitor candidates; drain
    // again so a monitor line reaches the view in the same window as its
    // timestep (the hardware engine's lines, serviced mid-step, already
    // made the first drain).
    flush_interrupts();
    // End-of-timestep waveform sample, before any engine adoption below:
    // the last pre-handoff sample and the first post-handoff sample then
    // bracket the transition with continuous values. The same sample
    // feeds the pre-trigger ring while points evaluate in software
    // (triggers in the fabric record into the fabric's own ring).
    const bool debugging = !finished_ && debugger_.armed();
    capture_.sample(debugging &&
                    !hw_debug_armed_.load(std::memory_order_relaxed));
    // Debugger evaluation window: one relaxed atomic load while
    // disarmed. Runs before the eviction checkpoint because a hardware
    // fire evicts to software right here — and in replay the recorded
    // hypervisor.evict for that same iteration then finds the program
    // already in software and no-ops.
    if (debugging) {
        debug_eval_window();
    }
    // Eviction checkpoint: a tenant flagged by the hypervisor (or, in
    // replay, recorded as evicted at this iteration) falls back to
    // software here, between timesteps, where get_state()/set_state()
    // relocation is safe.
    if (!finished_ &&
        oracle_->evict_now(iterations_,
                           user_location() != Location::Software)) {
        evict_to_software();
    }
    poll_builds();
    service_peripherals();
    // Time-series + SLO sampling (README §Monitoring): interval-gated,
    // so between samples this is one wall-clock read.
    monitor_->sample(user_location() != Location::Software);
    // Open-loop free-running skips the per-timestep windows a waveform
    // dump samples in, so it is suspended while a dump is active — and
    // likewise while halted at a fired point, or when debug conditions
    // are armed but not synthesized into the fabric (software-evaluated
    // conditions need every window).
    if (!finished_ && options_.enable_open_loop && !capture_.active() &&
        !debug_halted_.load(std::memory_order_relaxed) &&
        (!debugger_.armed() ||
         hw_debug_armed_.load(std::memory_order_relaxed))) {
        run_open_loop();
        // An open-loop batch right after adoption already executed the
        // first hardware ticks; close the request in the same window.
        note_first_hw_tick();
    }
}

bool
Runtime::run_for_ticks(uint64_t ticks)
{
    bind_thread_tenant();
    emit(EventKind::ApiRunTicks, JsonWriter().num("n", ticks));
    const uint64_t target = virtual_ticks() + ticks;
    uint64_t guard = 0;
    while (virtual_ticks() < target && !finished_) {
        if (debug_halted_.load(std::memory_order_relaxed)) {
            break; // halted at a breakpoint: the virtual clock is paused
        }
        if (!step_internal()) {
            break;
        }
        if (++guard > ticks * 64 + (1u << 22)) {
            break;
        }
    }
    return finished_;
}

bool
Runtime::run(uint64_t max_iterations)
{
    bind_thread_tenant();
    emit(EventKind::ApiRun, JsonWriter().num("n", max_iterations));
    for (uint64_t i = 0; i < max_iterations && !finished_; ++i) {
        if (debug_halted_.load(std::memory_order_relaxed)) {
            break; // halted at a breakpoint: the virtual clock is paused
        }
        step_internal();
    }
    return finished_;
}

bool
Runtime::hardware_ready() const
{
    return fabric_resident();
}

bool
Runtime::wait_for_hardware(double timeout_s)
{
    bind_thread_tenant();
    flush_api_steps();
    // Poll the compile service without stepping the scheduler: virtual
    // time does not advance, so an adopted program starts on the fabric
    // at the same tick a software run would start at (tick-0 adoption).
    // The wait blocks on the service's done condition variable (no
    // sleep-polling); time spent here is the `compile.wait` span.
    const double t0 = wall_seconds();
    {
        TELEM_SPAN_HIST("compile.wait", m_.compile_wait_ns);
        while (!fabric_resident() && !debug_halted()) {
            // A JIT kernel may land (and be adopted) while the fabric
            // compile is still running; the wait continues through it —
            // hardware_ready() means real residency.
            poll_builds();
            if (fabric_resident()) {
                break;
            }
            const double remaining = timeout_s - (wall_seconds() - t0);
            if (remaining <= 0) {
                break;
            }
            if (job_.has_value() && job_->parked_epoch.has_value() &&
                fabric_ != nullptr) {
                // Admission denied retryably: wake on fabric capacity
                // changes rather than compile completions.
                fabric_->wait_for_change(std::min(remaining, 0.05));
                continue;
            }
            // Only a fabric result still owed by the service can land
            // the program on the fabric (a kernel stage cannot).
            if (!job_.has_value() || !job_->fabric_pending ||
                job_->fabric.has_value() ||
                !compile_service_->busy(compile_client_)) {
                break;
            }
            compile_service_->wait_for_done(compile_client_, remaining);
        }
    }
    const bool ok = fabric_resident();
    emit(EventKind::ApiWaitHw, JsonWriter().boolean("ok", ok));
    return ok;
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

void
Runtime::flush_api_steps()
{
    // step() is the REPL/driver hot path; journaling each call would write
    // a line per scheduler iteration. Instead steps accumulate and one
    // coalesced api.step{n} is emitted before the next non-step input.
    if (pending_api_steps_ == 0) {
        return;
    }
    const uint64_t n = pending_api_steps_;
    pending_api_steps_ = 0;
    emit(EventKind::ApiStep, JsonWriter().num("n", n));
}

void
Runtime::log_event(LogLevel level, const char* component,
                   const std::string& message)
{
    emit(EventKind::Log, JsonWriter()
                             .str("level", log_level_name(level))
                             .str("component", component)
                             .str("msg", message));
    if (Logger::instance().enabled(level)) {
        Logger::instance().write(level, component, message);
    }
}

std::string
Runtime::journal_header_json() const
{
    // Doubles are printed round-trip exact (%.17g) by JsonWriter::dbl.
    // The device_* keys hold the device the session's compiles target and
    // load onto: the exclusive device is built from them, but a shared
    // session runs on the hypervisor's, and replay rebuilds it from these.
    Options journaled = options_;
    journaled.device_les = device().les();
    journaled.device_bram_bits = device().bram_bits();
    journaled.device_clock_mhz = device().clock_mhz();
    JsonWriter header;
    Options::for_each_journaled(journaled, [&header](const char* key,
                                                     auto value) {
        if constexpr (std::is_same_v<decltype(value), bool>) {
            header.boolean(key, value);
        } else if constexpr (std::is_same_v<decltype(value), double>) {
            header.dbl(key, value);
        } else {
            header.num(key, value);
        }
    });
    return header.build();
}

bool
Runtime::start_recording(const std::string& path, std::string* err)
{
    if (version_ > 1) {
        if (err != nullptr) {
            *err = "recording must start on a fresh session (the journal "
                   "replays the whole session from its beginning)";
        }
        return false;
    }
    return journal_.start_file(path, journal_header_json(), err);
}

void
Runtime::stop_recording()
{
    flush_api_steps();
    journal_.stop_file();
}

void
Runtime::set_oracle(std::unique_ptr<Oracle> oracle)
{
    oracle_ = std::move(oracle);
}

void
Runtime::enqueue_interrupt(std::string text)
{
    interrupt_queue_.push_back(
        {std::move(text), telemetry::Tracer::global().now_us()});
    m_.interrupts->inc();
    m_.interrupt_depth->set(
        static_cast<int64_t>(interrupt_queue_.size()));
}

void
Runtime::on_display(const std::string& text)
{
    enqueue_interrupt(text + "\n");
    emit(EventKind::InterruptEnqueue,
         interrupt_payload("display", interrupt_queue_.back().text));
}

void
Runtime::on_write(const std::string& text)
{
    enqueue_interrupt(text);
    emit(EventKind::InterruptEnqueue,
         interrupt_payload("write", interrupt_queue_.back().text));
}

void
Runtime::on_finish()
{
    finished_ = true;
}

void
Runtime::on_monitor(const std::string& key, const std::string& text)
{
    // Once-per-change: engines emit candidate lines (the software engine
    // every timestep, the hardware engine on argument change or first fire
    // after a handoff); only a changed text reaches the interrupt queue.
    const auto it = monitor_last_.find(key);
    if (it != monitor_last_.end() && it->second == text) {
        m_.monitor_suppressed->inc();
        return;
    }
    monitor_last_[key] = text;
    emit(EventKind::MonitorLine,
         JsonWriter()
             .str("key_digest", telemetry::digest_hex(key))
             .str("text", text));
    on_display(text);
}

// ---------------------------------------------------------------------------
// Interactive debugger
// ---------------------------------------------------------------------------

uint64_t
Runtime::debug_break(const std::string& signal, const std::string& op,
                     const std::string& value, std::string* err)
{
    bind_thread_tenant();
    if (!Debugger::valid_op(op)) {
        if (err != nullptr) {
            *err = "unknown comparison '" + op +
                   "' (use == != < > <= >=)";
        }
        return 0;
    }
    const auto parsed = BitVector::from_decimal(64, value);
    if (!parsed.has_value()) {
        if (err != nullptr) {
            *err = "bad value '" + value + "' (unsigned decimal)";
        }
        return 0;
    }
    if (!capture_.read(signal, err).has_value()) {
        return 0;
    }
    const uint64_t seq = emit(EventKind::ApiDebugBreak,
                              JsonWriter()
                                  .str("signal", signal)
                                  .str("op", op)
                                  .str("value", value));
    const uint64_t id =
        arm_point(seq, debugger_.add_break(signal, op, *parsed));
    log_event(LogLevel::Info, "debug",
              "breakpoint #" + std::to_string(id) + " armed: " + signal +
                  " " + op + " " + value);
    return id;
}

uint64_t
Runtime::debug_watch(const std::string& signal, std::string* err)
{
    bind_thread_tenant();
    if (!capture_.read(signal, err).has_value()) {
        return 0;
    }
    const uint64_t seq = emit(EventKind::ApiDebugWatch,
                              JsonWriter().str("signal", signal));
    const uint64_t id = arm_point(seq, debugger_.add_watch(signal));
    log_event(LogLevel::Info, "debug",
              "watchpoint #" + std::to_string(id) + " armed on " + signal);
    return id;
}

uint64_t
Runtime::arm_point(uint64_t seq, uint64_t id)
{
    debug_arm_seq_[id] = seq;
    m_.debug_points->set(static_cast<int64_t>(debugger_.size()));
    // Flow arrow from the arming eval to the eventual fire.
    telemetry::Tracer::global().flow("debug.arm", 's', seq);
    if (hw_engine_ != nullptr) {
        std::string derr;
        if (!rearm_hardware_debug(&derr)) {
            log_event(LogLevel::Warn, "debug",
                      "hardware trigger instrumentation unavailable: " +
                          derr + " (condition evaluates in software; "
                                 "open loop suspended)");
        }
    }
    return id;
}

bool
Runtime::debug_delete(uint64_t id)
{
    bind_thread_tenant();
    emit(EventKind::ApiDebugDelete, JsonWriter().num("id", id));
    if (!debugger_.remove(id)) {
        return false;
    }
    debug_arm_seq_.erase(id);
    m_.debug_points->set(static_cast<int64_t>(debugger_.size()));
    if (hw_engine_ != nullptr) {
        std::string derr;
        rearm_hardware_debug(&derr); // drops the point's trigger cell
    }
    return true;
}

bool
Runtime::debug_step(uint64_t cycles, std::string* err)
{
    bind_thread_tenant();
    if (!debug_halted_.load(std::memory_order_relaxed)) {
        if (err != nullptr) {
            *err = "not halted (a :break/:watch must fire first)";
        }
        return false;
    }
    if (finished_) {
        if (err != nullptr) {
            *err = "program finished";
        }
        return false;
    }
    emit(EventKind::ApiDebugStep, JsonWriter().num("n", cycles));
    m_.debug_steps->inc(cycles);
    emit(EventKind::DebugStep, JsonWriter()
                                   .num("n", cycles)
                                   .num("iteration", iterations_)
                                   .num("tick", virtual_ticks()));
    // Let exactly \p cycles virtual clock cycles through the halt gate.
    debug_stepping_ = true;
    const uint64_t target = virtual_ticks() + cycles;
    uint64_t guard = 0;
    while (virtual_ticks() < target && !finished_) {
        step_internal();
        if (++guard > cycles * 64 + (1u << 20)) {
            break; // clockless program: nothing will ever tick
        }
    }
    debug_stepping_ = false;
    return true;
}

bool
Runtime::debug_continue()
{
    bind_thread_tenant();
    if (!debug_halted_.load(std::memory_order_relaxed)) {
        return false;
    }
    emit(EventKind::ApiDebugContinue,
         JsonWriter().num("iteration", iterations_));
    debug_halted_.store(false, std::memory_order_relaxed);
    m_.debug_halted->set(0);
    // The halt is a span on this tenant's trace lane, from fire to here.
    telemetry::Tracer& tracer = telemetry::Tracer::global();
    const double now_us = tracer.now_us();
    tracer.record_complete_tenant("debug.halt", debug_halt_start_us_,
                                  now_us - debug_halt_start_us_, tenant_);
    emit(EventKind::DebugResume, JsonWriter()
                                     .num("iteration", iterations_)
                                     .num("tick", virtual_ticks()));
    log_event(LogLevel::Info, "debug",
              "continuing from tick " + std::to_string(virtual_ticks()));
    // Re-admission is already in flight: the eviction's rebuild
    // relaunched the background compile, so the normal poll/adopt path
    // moves the program back to hardware on the next windows.
    return true;
}

std::optional<BitVector>
Runtime::debug_peek(const std::string& signal, std::string* err)
{
    bind_thread_tenant();
    emit(EventKind::ApiDebugPeek, JsonWriter().str("signal", signal));
    std::optional<BitVector> v = capture_.read(signal, err);
    if (v.has_value()) {
        emit(EventKind::DebugPeek,
             JsonWriter()
                 .str("signal", signal)
                 .str("value", "0x" + v->to_hex_string())
                 .num("width", v->width())
                 .num("tick", virtual_ticks()));
    }
    return v;
}

void
Runtime::debug_eval_window()
{
    std::optional<Debugger::Fire> fire;
    bool hw_fire = false;
    if (hw_debug_armed_.load(std::memory_order_relaxed) &&
        hw_engine_ != nullptr) {
        const uint64_t id = hw_engine_->debug_fired();
        if (id != 0) {
            const auto point = debugger_.note_fire(id);
            if (point.has_value()) {
                Debugger::Fire f;
                f.id = id;
                f.kind = point->kind;
                f.signal = point->signal;
                if (auto v = capture_.read(point->signal)) {
                    f.value = std::move(*v);
                }
                fire = std::move(f);
                hw_fire = true;
            }
        }
    } else {
        fire = debugger_.evaluate([this](const std::string& name) {
            return capture_.sampled(name);
        });
    }
    if (fire.has_value()) {
        handle_debug_fire(*fire, hw_fire);
    }
}

void
Runtime::handle_debug_fire(const Debugger::Fire& fire, bool hw_fire)
{
    const bool was_halted =
        debug_halted_.load(std::memory_order_relaxed);
    const char* kind =
        fire.kind == Debugger::Kind::Watch ? "watch" : "break";
    emit(EventKind::DebugFire,
         JsonWriter()
             .num("id", fire.id)
             .str("kind", kind)
             .str("signal", fire.signal)
             .num("iteration", iterations_)
             .num("tick", virtual_ticks())
             .str("origin", hw_fire ? "hw" : "sw"),
         fire.id);
    telemetry::Tracer& tracer = telemetry::Tracer::global();
    const auto arm = debug_arm_seq_.find(fire.id);
    if (arm != debug_arm_seq_.end()) {
        // Close the causal arrow opened when the point was armed.
        tracer.flow("debug.arm", 'f', arm->second);
    }
    std::string line = "debug: ";
    line += fire.kind == Debugger::Kind::Watch ? "watchpoint #"
                                               : "breakpoint #";
    line += std::to_string(fire.id) + " fired on " + fire.signal;
    if (fire.value.width() != 0) {
        line += " (value 0x" + fire.value.to_hex_string() + ")";
    }
    line += " at tick " + std::to_string(virtual_ticks()) +
            (hw_fire ? " [hardware]" : "") + "\n";
    enqueue_interrupt(std::move(line));
    if (was_halted) {
        // Fired while single-stepping: report it, stay halted.
        flush_interrupts();
        return;
    }
    // Dump the pre-trigger window before any eviction tears the fabric
    // (and its capture ring) down.
    const bool hw_ring = hw_fire && hw_engine_ != nullptr &&
                         !hw_engine_->debug_ring().empty();
    capture_.dump_window(debug_window_path_, hw_ring ? hw_engine_ : nullptr);
    debug_halt_start_us_ = tracer.now_us();
    debug_halted_.store(true, std::memory_order_relaxed);
    m_.debug_halted->set(1);
    log_event(LogLevel::Info, "debug",
              std::string(kind) + "point #" + std::to_string(fire.id) +
                  " fired on " + fire.signal + " at iteration " +
                  std::to_string(iterations_) +
                  (hw_fire ? " (hardware trigger; evicting to software "
                             "for cycle-stepping)"
                           : ""));
    if (user_location() != Location::Software && !finished_) {
        // Cooperative eviction over the state-transfer ABI: the user
        // cycle-steps in the interpreter; :continue re-admits via the
        // compile the rebuild relaunches.
        evict_to_software();
        // The fabric already reported this edge; re-baseline the
        // software evaluator so the same condition does not fire again
        // on the next window.
        debugger_.prime(
            [this](const std::string& name) { return capture_.read(name); });
    }
    flush_interrupts();
}

bool
Runtime::rearm_hardware_debug(std::string* err)
{
    hw_debug_armed_.store(false, std::memory_order_relaxed);
    if (hw_engine_ == nullptr || resident_->netlist == nullptr) {
        if (err != nullptr) {
            *err = "no rebuildable hardware engine";
        }
        return false;
    }
    const auto points = debugger_.points();
    std::vector<fpga::DebugTriggerSpec> specs;
    specs.reserve(points.size());
    for (const auto& p : points) {
        fpga::DebugTriggerSpec spec;
        spec.id = p.id;
        spec.signal = p.signal;
        spec.watch = p.kind == Debugger::Kind::Watch;
        spec.op = p.op;
        spec.value = p.value;
        specs.push_back(std::move(spec));
    }
    const std::vector<std::string> probes = capture_.probe_set(false);

    std::unique_ptr<fpga::FabricExec> fabric;
    std::vector<fpga::Bitstream::DebugTrigger> triggers;
    std::vector<fpga::Bitstream::DebugProbe> ring_probes;
    if (!specs.empty()) {
        std::string ierr;
        fpga::DebugInstrumented inst = fpga::instrument_debug_triggers(
            *resident_->netlist, specs, probes, &ierr);
        if (inst.netlist == nullptr) {
            if (err != nullptr) {
                *err = ierr;
            }
            return false;
        }
        std::shared_ptr<const fpga::Netlist> twin(std::move(inst.netlist));
        fabric = std::make_unique<fpga::Bitstream>(twin);
        for (size_t i = 0; i < specs.size(); ++i) {
            fpga::Bitstream::DebugTrigger t;
            t.id = specs[i].id;
            t.output = static_cast<int>(inst.trigger_outputs[i]);
            t.watch = specs[i].watch;
            triggers.push_back(std::move(t));
        }
        for (size_t i = 0; i < inst.probe_names.size(); ++i) {
            fpga::Bitstream::DebugProbe p;
            p.name = inst.probe_names[i];
            p.output = static_cast<int>(inst.probe_outputs[i]);
            p.width = inst.probe_widths[i];
            ring_probes.push_back(std::move(p));
        }
        fabric->arm_debug(triggers, ring_probes, Capture::kRingDepth);
    } else {
        // Last point deleted: the resident tier's plain engine again. On
        // the JIT rung that is the kernel (an in-process cache hit).
        std::string jerr;
        if (resident_->location == Location::Jit) {
            fabric = jit::JitKernel::create(resident_->netlist, &jerr);
        }
        if (fabric == nullptr) {
            fabric = std::make_unique<fpga::Bitstream>(resident_->netlist);
        }
    }
    std::vector<Slot> incoming;
    incoming.push_back(engine_slot(*resident_, std::move(fabric)));
    relocate(std::move(incoming), resident_);
    hw_debug_armed_.store(!triggers.empty(), std::memory_order_relaxed);
    emit(EventKind::DebugRearm, JsonWriter()
                                    .num("triggers", triggers.size())
                                    .num("probes", ring_probes.size())
                                    .boolean("armed", !triggers.empty()));
    log_event(LogLevel::Info, "debug",
              !triggers.empty()
                  ? "fabric re-armed with " +
                        std::to_string(triggers.size()) +
                        " synthesized trigger cell(s), " +
                        std::to_string(ring_probes.size()) +
                        " capture-ring probe(s)"
                  : "fabric debug instrumentation removed");
    return true;
}

// ---------------------------------------------------------------------------
// Peripherals
// ---------------------------------------------------------------------------

void
Runtime::resolve_peripherals()
{
    pads_.clear();
    leds_.clear();
    fifos_.clear();
    for (const Slot& slot : slots_) {
        if (!slot.is_stdlib) {
            continue;
        }
        const std::string& type = slot.sub.module_name;
        if (type == "Pad" || type == "Reset") {
            pads_.push_back(slot.sub.path + ".pins");
        } else if (type == "Led") {
            leds_.push_back(slot.sub.path + ".pins");
        } else if (type == "GPIO") {
            pads_.push_back(slot.sub.path + ".pins");
            leds_.push_back(slot.sub.path + ".out_pins");
        } else if (type == "FIFO") {
            FifoBinding f;
            f.pins_net = slot.sub.path + ".pins";
            f.push_net = slot.sub.path + ".push";
            f.full_net = slot.sub.path + ".full";
            f.prefix = slot.instance + "__";
            fifos_.push_back(std::move(f));
        }
    }
}

void
Runtime::set_pad(uint64_t buttons)
{
    emit(EventKind::ApiSetPad, JsonWriter().num("value", buttons));
    for (const std::string& net : pads_) {
        const int n = find_net(net);
        if (n < 0) {
            continue;
        }
        // Width from the existing value, default 4 (the classic pad).
        const uint32_t width = nets_[static_cast<size_t>(n)].has_value
                                   ? nets_[static_cast<size_t>(n)]
                                         .value.width()
                                   : pad_width_hint(net);
        inject_net(net, BitVector(width, buttons));
    }
}

uint32_t
Runtime::pad_width_hint(const std::string& net) const
{
    // Find the stdlib slot whose pins net this is and use its elaborated
    // port width.
    for (const Slot& slot : slots_) {
        if (slot.sub.source == nullptr ||
            net.rfind(slot.sub.path + ".", 0) != 0) {
            continue;
        }
        Diagnostics diags;
        Elaborator elab(&diags);
        auto em = elab.elaborate(*slot.sub.source, slot.sub.params);
        if (em != nullptr) {
            const NetInfo* pins = em->find_net("pins");
            if (pins != nullptr) {
                return pins->width;
            }
        }
    }
    return 4;
}

BitVector
Runtime::led_state()
{
    flush_api_steps();
    // Refresh output nets (a free-running hardware engine's outputs are
    // only polled on demand).
    route_outputs();
    BitVector out(8, 0);
    for (const std::string& net : leds_) {
        const int n = find_net(net);
        if (n >= 0 && nets_[static_cast<size_t>(n)].has_value) {
            out = nets_[static_cast<size_t>(n)].value;
            break;
        }
    }
    emit(EventKind::ApiLed,
         JsonWriter().num("width", out.width()).num("value", out.to_uint64()));
    return out;
}

void
Runtime::fifo_push(const std::vector<uint8_t>& bytes)
{
    std::string hex;
    hex.reserve(bytes.size() * 2);
    for (const uint8_t b : bytes) {
        char buf[4];
        std::snprintf(buf, sizeof(buf), "%02x", b);
        hex += buf;
    }
    emit(EventKind::ApiFifoPush,
         JsonWriter().num("count", bytes.size()).str("hex", hex));
    fifo_queue_.insert(fifo_queue_.end(), bytes.begin(), bytes.end());
    m_.fifo_backlog->set(static_cast<int64_t>(fifo_queue_.size()));
}

void
Runtime::service_peripherals()
{
    if (fifos_.empty()) {
        return;
    }
    // Hardware-forwarded FIFOs are fed between open-loop batches through
    // direct state writes (run_open_loop); step-mode feeding happens here,
    // one byte per clock cycle, gated on the clock being low.
    if (resident_.has_value() && resident_->merged()) {
        return;
    }
    if (clock_engine_ == nullptr || clock_engine_->value()) {
        return;
    }
    const FifoBinding& f = fifos_.front();
    const int full_net = find_net(f.full_net);
    const bool full = full_net >= 0 &&
                      nets_[static_cast<size_t>(full_net)].has_value &&
                      !nets_[static_cast<size_t>(full_net)].value.is_zero();
    if (!fifo_queue_.empty() && !full) {
        inject_net(f.pins_net, BitVector(8, fifo_queue_.front()));
        inject_net(f.push_net, BitVector(1, 1));
        fifo_queue_.pop_front();
        ++fifo_consumed_;
        m_.fifo_backlog->set(static_cast<int64_t>(fifo_queue_.size()));
        fifo_push_high_ = true;
    } else if (fifo_push_high_) {
        inject_net(f.push_net, BitVector(1, 0));
        fifo_push_high_ = false;
    }
}

// ---------------------------------------------------------------------------
// Background compilation and engine transitions
// ---------------------------------------------------------------------------

void
Runtime::launch_compile()
{
    // This version supersedes the current job, whether or not it gets a
    // job of its own: a request not yet acted on closes unadopted, and
    // the service stops the build and drops its results.
    telemetry::Tracer& tracer = telemetry::Tracer::global();
    if (job_.has_value()) {
        if (job_->fabric_pending || job_->parked_epoch.has_value()) {
            finish_request(job_->request, "compile", job_->version, false,
                           tracer.now_us());
        }
        compile_service_->cancel(compile_client_);
        job_.reset();
    }
    if (root_items_.empty()) {
        return;
    }
    Diagnostics diags;
    auto root = make_root(root_items_);

    Job job;
    job.version = version_;
    Wiring& wiring = job.wiring;
    wiring.native = options_.native_mode;

    const bool merge_stdlib =
        options_.native_mode ||
        (options_.enable_forwarding && options_.enable_inlining);

    std::unique_ptr<ModuleDecl> merged;
    std::set<std::string> stops;
    if (merge_stdlib) {
        stops = {"Clock"};
    } else {
        stops = stdlib::stdlib_type_names();
    }
    merged = ir::inline_hierarchy(*root, lib_, stops, &diags);
    if (merged == nullptr) {
        return;
    }

    // Promote peripheral pins of merged stdlib instances to module ports
    // so the runtime can keep driving/observing them.
    std::vector<std::tuple<std::string, std::string, bool>> pin_ports;
    if (merge_stdlib) {
        for (const Slot& slot : slots_) {
            if (!slot.is_stdlib || slot.is_clock) {
                continue;
            }
            for (const auto& [port, is_input] :
                 peripheral_ports(slot.sub.module_name)) {
                const std::string net_name = slot.instance + "__" + port;
                pin_ports.emplace_back(net_name,
                                       slot.sub.path + "." + port,
                                       is_input);
            }
            // Every merged component, peripheral or not (Memory), hands
            // its state over under its inline prefix.
            wiring.prefixes.emplace(slot.instance, slot.instance + "__");
        }
        promote_pins(merged.get(), pin_ports);
    }

    auto subs = ir::split_program(*merged, lib_, {"Clock"}, &diags);
    if (subs.empty()) {
        return;
    }
    ir::Subprogram* user = nullptr;
    std::string clock_path;
    for (auto& sub : subs) {
        if (sub.path == "root") {
            user = &sub;
        } else if (sub.module_name == "Clock") {
            clock_path = sub.path;
        }
    }
    if (user == nullptr) {
        return;
    }

    // Identify the promoted clock port (bound to <clock instance>.val).
    std::string clock_port;
    for (const auto& b : user->bindings) {
        if (!clock_path.empty() && b.global_net == clock_path + ".val") {
            clock_port = b.port;
            wiring.clock_net = b.global_net;
        }
    }

    // Pins ports keep their original peripheral net names so the drivers
    // and the view observe the same nets across the transition.
    std::map<std::string, std::string> pin_net_of;
    for (const auto& [port, net, is_input] : pin_ports) {
        pin_net_of[port] = net;
    }
    for (size_t p = 0; p < user->source->ports.size(); ++p) {
        const std::string& name = user->source->ports[p].name;
        const auto it = pin_net_of.find(name);
        wiring.ports.emplace_back(
            name,
            it != pin_net_of.end() ? it->second
                                   : user->bindings[p].global_net,
            user->source->ports[p].dir == PortDir::Input);
    }

    Diagnostics ediags;
    Elaborator elab(&ediags);
    auto raw = elab.elaborate(*user->source, user->params);
    if (raw == nullptr) {
        return;
    }
    std::shared_ptr<const ElaboratedModule> em;
    if (options_.native_mode) {
        em = std::shared_ptr<const ElaboratedModule>(std::move(raw));
        wiring.map.clock_input = clock_port;
    } else {
        auto wrapper = ir::generate_hw_wrapper(*raw, clock_port,
                                               &wiring.map, &diags);
        if (wrapper == nullptr) {
            // Unsynthesizable in a way the wrapper cannot absorb; the
            // subprogram stays in software.
            return;
        }
        Diagnostics wdiags;
        Elaborator welab(&wdiags);
        auto wem = welab.elaborate(*wrapper);
        if (wem == nullptr) {
            return;
        }
        em = std::shared_ptr<const ElaboratedModule>(std::move(wem));
    }

    // Placement seed: per-version by default (each rebuild explores a new
    // placement), a fixed option when the user wants run-to-run identical
    // compiles, and the journaled value when replaying a recording.
    const uint64_t seed = oracle_->placement_seed(
        version_,
        options_.compile_seed != 0 ? options_.compile_seed : version_);

    // Request tracing: the id is the journal seq of the compile.launch
    // event, recorded before submission so the workers see it on the job.
    job.submit_us = tracer.now_us();
    job.request = emit(EventKind::CompileLaunch,
                       JsonWriter()
                           .num("version", version_)
                           .num("seed", seed)
                           .num("prior", prior_version_),
                       version_);
    requests_.begin(job.request, "compile", version_, tenant_,
                    job.submit_us);
    // Flow start: the causal arrow leaves the runtime thread here and
    // lands in the worker's compile.exec span (phase "t"), then back at
    // adoption (phase "f").
    tracer.flow("request", 's', job.request);

    // The same job also builds the JIT-tier kernel (the middle rung of
    // the interpreter → JIT → fabric ladder) from the netlist it
    // synthesizes. Native mode already runs the netlist in-process, so
    // the tier would be redundant there. The constructor's bootstrap
    // program is the clock alone: the first eval supersedes its kernel,
    // whose cancelled build would only take compiler slots from the
    // first real kernel.
    service::CompileService::Job submit;
    submit.kernel =
        options_.enable_jit && !options_.native_mode && !bootstrapping_;
    if (submit.kernel) {
        emit(EventKind::JitLaunch, JsonWriter().num("version", version_),
             version_);
    }
    submit.version = version_;
    submit.request = job.request;
    submit.module = em;
    submit.options.effort = options_.compile_effort;
    submit.options.target_clock_mhz = device().clock_mhz();
    submit.options.seed = seed;
    submit.prior = prior_;
    job.kernel_pending = submit.kernel;
    job_ = std::move(job);
    compile_service_->submit(compile_client_, std::move(submit));
}

void
Runtime::poll_builds()
{
    // A halted debugger pins the program in the interpreter, where the
    // user is cycle-stepping. Both builds stay pending (a warm cache hit
    // can otherwise land in the very window a hardware fire evicted the
    // program) and adopt when execution resumes.
    if (debug_halted()) {
        return;
    }
    // JIT results before fabric results: when both tiers finish inside
    // one window the kernel is adopted first and the fabric immediately
    // upgrades it, so the journal order (jit.adopt before adopt) is the
    // same one replay reproduces.
    poll_jit();
    poll_compiles();
}

void
Runtime::poll_compiles()
{
    const uint64_t version =
        job_.has_value() && job_->fabric_pending ? job_->version : 0;
    if (oracle_->act_now(Oracle::Build::Fabric, version, iterations_,
                         [this](double s) {
                             return build_finished(Done::Stage::Fabric, s);
                         })) {
        job_->fabric_pending = false;
        maybe_admit_and_act();
    }
    retry_parked();
}

bool
Runtime::build_finished(Done::Stage stage, double wait_s)
{
    const bool kernel = stage == Done::Stage::Kernel;
    if (!job_.has_value() ||
        !(kernel ? job_->kernel_pending : job_->fabric_pending)) {
        return false; // nothing in flight: leave the service's lock alone
    }
    if (wait_s > 0) {
        compile_service_->wait_for_done(compile_client_, wait_s);
    }
    for (Done& done : compile_service_->poll(compile_client_)) {
        if (done.stage == Done::Stage::Kernel) {
            job_->kernel = std::move(done);
        } else {
            job_->polled_us = telemetry::Tracer::global().now_us();
            job_->fabric = std::move(done);
        }
    }
    return (kernel ? job_->kernel : job_->fabric).has_value();
}

void
Runtime::maybe_admit_and_act()
{
    // Shared mode gates adoption on hypervisor admission, and the grant
    // is requested BEFORE compile.done is journaled so the compared
    // compile.done/adopt pair stays adjacent in both record and replay.
    const fpga::CompileResult& result = job_->fabric->result;
    if (fabric_ == nullptr || !result.ok) {
        act_on_compile(nullptr);
        return;
    }
    hypervisor::Admission adm = fabric_->request_residency(tenant_, result);
    if (adm.retryable) {
        // Capacity pressure: park the finished compile and re-request
        // when the fabric changes.
        const std::string& reason = adm.verdict.error;
        emit(EventKind::HypervisorDefer, JsonWriter()
                                             .num("version", job_->version)
                                             .num("req", job_->request)
                                             .str("reason", reason));
        log_event(LogLevel::Info, "hypervisor",
                  "admission deferred for v" +
                      std::to_string(job_->version) + ": " + reason);
        job_->parked_epoch = fabric_->capacity_epoch();
        return;
    }
    act_on_compile(&adm);
}

void
Runtime::retry_parked()
{
    if (!job_.has_value() || !job_->parked_epoch.has_value()) {
        return;
    }
    if (fabric_ != nullptr &&
        fabric_->capacity_epoch() == *job_->parked_epoch) {
        return; // nothing changed; asking again would re-flag a victim
    }
    job_->parked_epoch.reset();
    maybe_admit_and_act();
}

void
Runtime::act_on_compile(hypervisor::Admission* admission)
{
    Done& done = *job_->fabric;
    const uint64_t request = job_->request;
    const uint64_t version = job_->version;
    last_report_ = done.result.report;
    const fpga::CompileReport& r = done.result.report;
    telemetry::Tracer& tracer = telemetry::Tracer::global();
    const double act_start_us = tracer.now_us();
    // End-to-end compile latency (submit -> acted on) for the SLO
    // window; warm = answered from the bitstream cache.
    monitor_->record_compile(r.cache_hit,
                             (act_start_us - job_->submit_us) * 1e-6);
    emit(EventKind::CompileCache, JsonWriter()
                                      .num("version", version)
                                      .boolean("hit", r.cache_hit));
    emit(EventKind::CompileDone, JsonWriter()
                                     .num("version", version)
                                     .boolean("ok", done.result.ok)
                                     .num("seed", r.seed)
                                     .str("digest", report_digest(r))
                                     .num("les", r.area.les)
                                     .num("cells", r.cells)
                                     .num("kept", r.kept_cells)
                                     .boolean("timing_met", r.timing.met));
    if (done.result.placement != nullptr) {
        prior_ = done.result.placement;
        prior_version_ = version;
    }

    // Critical-path decomposition: the timeline anchors (submit ->
    // service done -> polled -> here) and the report's flow phases
    // partition the request's wall time into consecutive segments, so
    // the segment sum equals end-to-end latency by construction.
    // "overhead" absorbs the service-side slack the named segments
    // don't cover (submit lock wait, cache insert, clock jitter).
    if (request != 0) {
        const auto clamp0 = [](double us) { return std::max(0.0, us); };
        const double queue_us = clamp0(done.dequeue_us - done.enqueue_us);
        const double phases_us = r.phase_sum_seconds() * 1e6;
        requests_.annotate_cache(request, r.cache_hit);
        requests_.add_segment(request, "cache", done.cache_us);
        requests_.add_segment(request, "queue", queue_us);
        requests_.add_segment(request, "synth", r.synth_seconds * 1e6);
        requests_.add_segment(request, "techmap",
                              r.techmap_seconds * 1e6);
        requests_.add_segment(request, "place", r.place_seconds * 1e6);
        requests_.annotate_placement(request, r.kept_cells, r.cells);
        requests_.add_segment(request, "timing",
                              r.timing_seconds * 1e6);
        requests_.add_segment(
            request, "overhead",
            clamp0((done.done_us - job_->submit_us) - done.cache_us -
                   queue_us - phases_us));
        requests_.add_segment(request, "wait",
                              clamp0(job_->polled_us - done.done_us));
        requests_.add_segment(request, "admission",
                              clamp0(act_start_us - job_->polled_us));
    }
    // The fabric kind's step ahead of relocation: the device's verdict.
    // A forced (recorded) rejection stands in for it, as hypervisor
    // denials cannot be re-derived on another device; else the
    // hypervisor's admission in shared mode, or the device's own rule.
    fpga::Verdict verdict;
    if (auto forced =
            oracle_->forced_failure(Oracle::Build::Fabric, version)) {
        verdict.error = std::move(*forced);
    } else if (admission != nullptr) {
        verdict = admission->verdict;
    } else {
        verdict = device().admit(done.result);
    }
    if (verdict.ok) {
        adopt_fabric(done, verdict.clock_mhz, admission);
    } else {
        // A failed, over-quota or oversized compile: report and stay in
        // software.
        enqueue_interrupt("cascade: hardware compilation rejected: " +
                          verdict.error + "\n");
        emit(EventKind::CompileRejected,
             JsonWriter()
                 .num("version", version)
                 .num("iteration", iterations_)
                 .str("error", verdict.error),
             version);
        log_event(LogLevel::Warn, "compile",
                  "hardware compilation rejected: " + verdict.error);
    }
    // The request tracer closes a rejected request at the adoption
    // segment, an adopted one only after its first hardware tick.
    if (request != 0) {
        const double now_us = tracer.now_us();
        requests_.add_segment(request, "adoption",
                              now_us - act_start_us);
        if (verdict.ok) {
            // The request stays open until the fabric executes its
            // first post-adoption tick (note_first_hw_tick). The flow
            // arrow lands back on the runtime thread here.
            tracer.flow("request", 'f', request);
            first_tick_request_ = request;
            first_tick_version_ = version;
            first_tick_adopt_us_ = now_us;
        } else {
            finish_request(request, "compile", version, false, now_us);
        }
    }
}

void
Runtime::adopt_fabric(Done& stage, double actual_clock_mhz,
                      hypervisor::Admission* admission)
{
    const uint64_t version = job_->version;
    const bool is_jit = stage.kernel != nullptr;
    std::unique_ptr<fpga::FabricExec> fabric;
    if (is_jit) {
        fabric = std::move(stage.kernel);
    } else {
        // Programming the device: the bitstream's construction.
        fabric = std::make_unique<fpga::Bitstream>(stage.result.netlist);
        telemetry::Registry::global().counter("fpga.program.loaded")->inc();
    }
    // Upgrading: the real fabric landed while the same version was
    // running on the JIT tier.
    const bool upgrading = user_location() == Location::Jit;
    if (upgrading) {
        emit(EventKind::JitDiscard, JsonWriter()
                                        .num("version", version)
                                        .str("reason", "fabric"));
    }

    Wiring wiring = job_->wiring;
    wiring.location =
        is_jit ? Location::Jit
               : (wiring.native ? Location::Native
                                : (wiring.merged() ? Location::HardwareForwarded
                                                   : Location::Hardware));
    wiring.clock_mhz = actual_clock_mhz;
    wiring.netlist = stage.result.netlist;
    std::vector<Slot> incoming;
    incoming.push_back(engine_slot(wiring, std::move(fabric)));
    relocate(std::move(incoming), std::move(wiring));
    // Hardware-forwarded FIFOs are fed through direct state writes, not
    // the pins/push ports: park the step-mode drive lines low so a push
    // left high by the software phase cannot free-run.
    if (resident_->merged()) {
        for (const FifoBinding& f : fifos_) {
            inject_net(f.push_net, BitVector(1, 0));
        }
    }
    fifo_push_high_ = false;

    // The software-to-hardware (or software-to-JIT) transition, tagged
    // with the adopted version (the event SYNERGY-style schedulers key
    // off).
    m_.transitions->inc();
    TransitionRecord rec;
    rec.version = version;
    rec.to = user_location();
    rec.timeline_seconds = timeline_s_;
    rec.trace_ts_us = telemetry::Tracer::global().now_us();
    rec.clock_mhz = actual_clock_mhz;
    transitions_.push_back(rec);
    if (is_jit) {
        emit(EventKind::JitAdopt, JsonWriter()
                                      .num("version", version)
                                      .num("iteration", iterations_)
                                      .str("digest", stage.kernel_digest));
    } else {
        emit(EventKind::Adopt,
             JsonWriter()
                 .num("version", version)
                 .num("iteration", iterations_)
                 .str("location", location_name(user_location()))
                 .dbl("clock_mhz", actual_clock_mhz));
    }
    if (fabric_ != nullptr && admission != nullptr) {
        // Where on the shared fabric this tenant landed.
        emit(EventKind::HypervisorAdmit,
             JsonWriter()
                 .num("version", version)
                 .num("le_start", admission->le_start)
                 .num("le_count", admission->le_count)
                 .dbl("clock_mhz", actual_clock_mhz));
    }
    log_event(LogLevel::Info, is_jit ? "jit" : "adopt",
              std::string("program v") + std::to_string(version) +
                  " moved to " + location_name(user_location()) +
                  " at iteration " + std::to_string(iterations_));
    telemetry::Tracer::global().instant(
        is_jit ? "transition.sw_to_jit"
               : (upgrading ? "transition.jit_to_hw"
                            : "transition.sw_to_hw"),
        version);
    // Debugger support: arming a trigger on a fabric engine synthesizes
    // comparator cells into a copy of its netlist and swaps the engine.
    // Native engines run uninstrumented by definition, so conditions on
    // them stay in software.
    if (hw_engine_ != nullptr && debugger_.armed()) {
        std::string derr;
        if (!rearm_hardware_debug(&derr)) {
            log_event(LogLevel::Warn, "debug",
                      "hardware trigger instrumentation unavailable: " +
                          derr +
                          " (conditions evaluate in software; "
                          "open loop suspended)");
        }
    }
}

void
Runtime::poll_jit()
{
    if (!oracle_->act_now(Oracle::Build::Jit, version_, iterations_,
                          [this](double s) {
                              return build_finished(Done::Stage::Kernel, s);
                          })) {
        return;
    }
    job_->kernel_pending = false;
    Done& build = *job_->kernel;
    if (user_location() != Location::Software || finished_) {
        // The tenant is already somewhere faster than software.
        emit(EventKind::JitDiscard,
             JsonWriter().num("version", build.version).str("reason", "stale"));
        return;
    }
    if (auto forced =
            oracle_->forced_failure(Oracle::Build::Jit, build.version)) {
        build.kernel.reset();
        build.result.error = std::move(*forced);
    }
    if (build.kernel == nullptr) {
        // Graceful degradation: no usable compiler (or codegen/compile
        // failure) leaves the tenant on the interpreter tier until the
        // fabric compile lands.
        emit(EventKind::JitUnavailable,
             JsonWriter()
                 .num("version", build.version)
                 .num("iteration", iterations_),
             build.version);
        log_event(LogLevel::Warn, "jit",
                  "native tier unavailable for v" +
                      std::to_string(build.version) + ": " +
                      build.result.error);
        return;
    }
    emit(EventKind::JitCache,
         JsonWriter()
             .num("version", build.version)
             .boolean("hit", build.result.report.cache_hit));
    adopt_fabric(build, device_.clock_mhz(), nullptr);
}

void
Runtime::evict_to_software()
{
    if (user_location() == Location::Software || finished_) {
        return;
    }
    // Journal first: replay keys the eviction off this event's iteration
    // and must see it before the rebuild it triggers. The hw->sw move
    // itself is the standard Cascade state-transfer (get_state() off the
    // fabric engine, set_state() into fresh software engines), so the
    // program's architectural state — including $monitor, VCD and
    // profile continuity — carries across unchanged.
    const uint64_t request = emit(EventKind::HypervisorEvict,
                                  JsonWriter()
                                      .num("iteration", iterations_)
                                      .num("version", version_),
                                  version_);
    telemetry::Tracer::global().instant("transition.hw_to_sw",
                                        version_);
    // The eviction is itself a traced request (id = the evict event's
    // seq): its latency is the hw->sw rebuild the tenant experiences.
    const double evict_start_us = telemetry::Tracer::global().now_us();
    requests_.begin(request, "evict", version_, tenant_,
                    evict_start_us);
    std::string err;
    rebuild_program(&err, "evict");
    const double now_us = telemetry::Tracer::global().now_us();
    requests_.add_segment(request, "rebuild", now_us - evict_start_us);
    finish_request(request, "evict", version_, err.empty(), now_us);
    log_event(LogLevel::Info, "hypervisor",
              "tenant evicted to software at iteration " +
                  std::to_string(iterations_));
}

void
Runtime::note_first_hw_tick()
{
    if (first_tick_request_ == 0) {
        return;
    }
    if (user_location() == Location::Software) {
        // Evicted (or rebuilt) before the fabric ever ticked for this
        // request: it ends at its adoption point — the hardware ran no
        // cycles on its behalf, so there is no first_tick segment.
        finish_request(first_tick_request_, "compile",
                       first_tick_version_, true, first_tick_adopt_us_);
        first_tick_request_ = 0;
        return;
    }
    if (virtual_ticks() <= hw_adopt_ticks_) {
        return; // no post-adoption tick yet
    }
    const double now_us = telemetry::Tracer::global().now_us();
    requests_.add_segment(first_tick_request_, "first_tick",
                          now_us - first_tick_adopt_us_);
    finish_request(first_tick_request_, "compile", first_tick_version_,
                   true, now_us);
    first_tick_request_ = 0;
}

void
Runtime::finish_request(uint64_t id, const char* kind, uint64_t version,
                        bool ok, double end_us)
{
    if (!requests_.end(id, ok, end_us)) {
        return; // already closed (superseded) or never tracked
    }
    // The payload is deliberately wall-clock-free (ids are journal seqs,
    // durations stay in the tracker), so re-recorded replay journals
    // remain byte-identical with tracing on.
    emit(EventKind::RequestDone, JsonWriter()
                                     .num("id", id)
                                     .str("kind", kind)
                                     .num("version", version)
                                     .boolean("ok", ok));
}

void
Runtime::run_open_loop()
{
    // Free-running needs the stdlib merged into the adopted engine: with
    // software peripherals still alongside (plain Hardware, or the JIT
    // tier's analogue), every tick must interleave with their step-mode
    // servicing.
    if (!resident_.has_value() || !resident_->merged()) {
        return;
    }
    Slot* user = user_slot();
    if (user == nullptr || !user->engine->supports_open_loop()) {
        return;
    }
    // Feed the hardware FIFO before relinquishing control. While the host
    // still holds bytes for it, a grant that drains it ends there: refill
    // it and grant the rest, so the fabric never idles on a FIFO the host
    // could fill and the modeled rate does not depend on the grant size.
    const auto refill = [this] {
        if (hw_engine_ == nullptr) {
            return;
        }
        for (const FifoBinding& f : fifos_) {
            feed_fifo_hw(f);
        }
        const bool watch = !fifos_.empty() && !fifo_queue_.empty();
        hw_engine_->stop_on_drain(watch ? fifos_.front().head : nullptr,
                                  watch ? fifos_.front().tail : nullptr);
    };
    refill();
    // Adaptive profiling (§4.4): size batches so the engine relinquishes
    // control roughly every open_loop_target_wall_s of host time.
    if (open_loop_batch_ == 0) {
        open_loop_batch_ = std::max<uint64_t>(64,
                                              options_.open_loop_iterations);
    }
    // The adaptive batch below keeps tracking the untrimmed target.
    const uint64_t grant = oracle_->open_loop_grant(open_loop_batch_);
    const double wall0 = wall_seconds();
    uint64_t itrs = 0;
    {
        TELEM_SPAN_HIST("openloop.batch", m_.open_loop_wall_ns);
        itrs = user->engine->open_loop(grant);
        while (hw_engine_ != nullptr && hw_engine_->drained() &&
               itrs < grant) {
            refill();
            itrs += user->engine->open_loop(grant - itrs);
        }
    }
    const double wall = wall_seconds() - wall0;
    m_.open_loop_batch->record(grant);
    m_.open_loop_iterations->inc(itrs);
    if (fabric_ != nullptr) {
        // Report executed (not granted) ticks: the fleet view's ticks/s
        // reflects work done, even when a batch ends early on $finish.
        fabric_->note_ticks(tenant_, itrs);
    }
    emit(EventKind::OpenLoopGrant,
         JsonWriter().num("batch", grant).num("itrs", itrs));
    if (Logger::instance().enabled(LogLevel::Debug)) {
        char buf[96];
        std::snprintf(buf, sizeof buf, "itrs=%llu batch=%llu wall=%.3f",
                      static_cast<unsigned long long>(itrs),
                      static_cast<unsigned long long>(open_loop_batch_),
                      wall);
        Logger::instance().write(LogLevel::Debug, "openloop", buf);
    }
    const double target = std::max(0.01, options_.open_loop_target_wall_s);
    if (wall > 1.5 * target) {
        open_loop_batch_ = std::max<uint64_t>(64, open_loop_batch_ / 2);
    } else if (wall < 0.5 * target && itrs == grant) {
        open_loop_batch_ = std::min<uint64_t>(1u << 22, open_loop_batch_ * 2);
    }
    if (itrs == 0) {
        return;
    }
    clock_toggles_ += itrs;

    // Resynchronize the runtime's clock with the level the engine left.
    bool level = clock_engine_ != nullptr && clock_engine_->value();
    if (hw_engine_ != nullptr && !hw_engine_->map().clock_input.empty()) {
        const ir::VarSlot* clk =
            hw_engine_->map().find(hw_engine_->map().clock_input);
        if (clk != nullptr) {
            level = !hw_engine_->read_var(*clk).is_zero();
        }
    } else if (const auto* native =
                   dynamic_cast<const NativeEngine*>(user->engine.get())) {
        level = native->clock_level();
    }
    if (clock_engine_ != nullptr) {
        clock_engine_->force_value(level);
    }
    const int clk_net = find_net(resident_->clock_net);
    if (clk_net >= 0) {
        nets_[static_cast<size_t>(clk_net)].value = BitVector(1, level);
        nets_[static_cast<size_t>(clk_net)].has_value = true;
    }
    route_outputs();
    for (Slot& slot : slots_) {
        if (slot.engine->finished()) {
            finished_ = true;
        }
    }
}

void
Runtime::feed_fifo_hw(const FifoBinding& f)
{
    if (fifo_queue_.empty() || f.mem == nullptr || f.head == nullptr ||
        f.tail == nullptr) {
        return;
    }
    const uint64_t depth = f.mem->elems;
    const uint64_t ptr_mask = (uint64_t{1} << f.head->width) - 1;
    const uint64_t h = hw_engine_->read_var(*f.head).to_uint64();
    const uint64_t t = hw_engine_->read_var(*f.tail).to_uint64();
    const uint64_t used = (t - h) & ptr_mask;
    const uint64_t n =
        used < depth ? std::min<uint64_t>(fifo_queue_.size(), depth - used)
                     : 0;
    if (n == 0) {
        return;
    }
    // One span from the tail slot, split where it wraps the ring.
    const std::vector<uint64_t> bytes(fifo_queue_.begin(),
                                      fifo_queue_.begin() + n);
    const uint64_t first = t & (depth - 1);
    const uint64_t run = std::min(n, depth - first);
    hw_engine_->write_mem(*f.mem, first, bytes.data(), run);
    hw_engine_->write_mem(*f.mem, 0, bytes.data() + run, n - run);
    fifo_queue_.erase(fifo_queue_.begin(), fifo_queue_.begin() + n);
    fifo_consumed_ += n;
    m_.fifo_backlog->set(static_cast<int64_t>(fifo_queue_.size()));
    hw_engine_->write_var(*f.tail,
                          BitVector(f.tail->width, (t + n) & ptr_mask));
}

void
Runtime::promote_pins(
    ModuleDecl* merged,
    const std::vector<std::tuple<std::string, std::string, bool>>& pins)
{
    for (const auto& [name, net, is_input] : pins) {
        // Find and remove the net declaration, carrying its range over.
        Range range;
        bool found = false;
        for (auto it = merged->items.begin(); it != merged->items.end();
             ++it) {
            if ((*it)->kind != ItemKind::NetDecl) {
                continue;
            }
            auto* nd = static_cast<NetDecl*>(it->get());
            for (auto dit = nd->decls.begin(); dit != nd->decls.end();
                 ++dit) {
                if (dit->name == name) {
                    range = nd->range.clone();
                    nd->decls.erase(dit);
                    found = true;
                    break;
                }
            }
            if (found) {
                if (nd->decls.empty()) {
                    merged->items.erase(it);
                }
                break;
            }
        }
        if (!found) {
            continue; // instance exists but pin net optimized away
        }
        Port port;
        port.name = name;
        port.dir = is_input ? PortDir::Input : PortDir::Output;
        port.range = std::move(range);
        merged->ports.push_back(std::move(port));
    }
}

Runtime::Slot*
Runtime::user_slot()
{
    for (Slot& slot : slots_) {
        if (slot.sub.path == "root") {
            return &slot;
        }
    }
    return nullptr;
}

// ---------------------------------------------------------------------------
// Telemetry snapshots
// ---------------------------------------------------------------------------

std::string
Runtime::stats_json() const
{
    // Interpreter-level aggregates across the live software engines.
    uint64_t interp_evals = 0;
    uint64_t interp_updates = 0;
    uint64_t interp_processes = 0;
    for (const Slot& slot : slots_) {
        if (const auto* sw =
                dynamic_cast<const SwEngine*>(slot.engine.get())) {
            interp_evals += sw->evaluate_calls();
            interp_updates += sw->update_calls();
            interp_processes += sw->process_executions();
        }
    }

    constexpr JsonDouble kG9 = JsonDouble::G9;
    JsonWriter w;
    w.str("schema", "cascade.stats.v1")
        .str("location", location_name(user_location()))
        .num("virtual_ticks", virtual_ticks())
        .dbl("timeline_seconds", timeline_s_, kG9)
        .num("scheduler_iterations", iterations_)
        .boolean("finished", finished_)
        .object("fifo")
        .num("consumed", fifo_consumed_)
        .num("backlog", fifo_queue_.size())
        .end()
        .object("interpreter")
        .num("evaluate_calls", interp_evals)
        .num("update_calls", interp_updates)
        .num("process_executions", interp_processes)
        .end();
    if (hw_engine_ != nullptr) {
        w.object("hw_engine")
            .num("mmio_transactions", hw_engine_->mmio_transactions())
            .num("fabric_cycles", hw_engine_->fabric_cycles())
            .end();
    }
    w.object("compile_service")
        .num("cache_hits", compile_service_->cache_hits())
        .num("cache_misses", compile_service_->cache_misses())
        .dbl("cache_hit_rate", compile_service_->cache_hit_rate(), kG9)
        .num("queue_depth", compile_service_->queued_jobs())
        .end()
        .raw("metrics", telemetry_.json())
        .raw("process_metrics", telemetry::Registry::global().json());
    if (last_report_.has_value()) {
        const fpga::CompileReport& r = *last_report_;
        w.object("compile")
            .dbl("synth_seconds", r.synth_seconds, kG9)
            .dbl("techmap_seconds", r.techmap_seconds, kG9)
            .dbl("place_seconds", r.place_seconds, kG9)
            .dbl("timing_seconds", r.timing_seconds, kG9)
            .dbl("total_seconds", r.total_seconds, kG9)
            .num("area_les", r.area.les)
            .num("area_bram_bits", r.area.bram_bits)
            .dbl("fmax_mhz", r.timing.fmax_mhz, kG9)
            .boolean("timing_met", r.timing.met)
            .num("seed", r.seed)
            .boolean("cache_hit", r.cache_hit)
            .end();
    }
    w.array("transitions");
    for (const TransitionRecord& t : transitions_) {
        w.object()
            .num("version", t.version)
            .str("to", location_name(t.to))
            .dbl("timeline_seconds", t.timeline_seconds, kG9)
            .dbl("trace_ts_us", t.trace_ts_us, kG9)
            .dbl("clock_mhz", t.clock_mhz, kG9)
            .end();
    }
    return w.build();
}

std::string
Runtime::top_table() const
{
    if (fabric_ != nullptr) {
        return fabric_->fleet_table();
    }
    char line[160];
    std::string out = "exclusive session (no hypervisor)\n";
    std::snprintf(line, sizeof line,
                  "  location %-9s ticks %llu  iterations %llu  "
                  "timeline %.6fs\n",
                  location_name(user_location()),
                  static_cast<unsigned long long>(virtual_ticks()),
                  static_cast<unsigned long long>(iterations_),
                  timeline_s_);
    out += line;
    return out;
}

std::string
Runtime::stats_table() const
{
    char line[160];
    std::string out = "cascade stats\n";
    std::snprintf(line, sizeof line, "  %-26s %s\n", "location",
                  location_name(user_location()));
    out += line;
    std::snprintf(line, sizeof line, "  %-26s %llu\n", "virtual ticks",
                  static_cast<unsigned long long>(virtual_ticks()));
    out += line;
    std::snprintf(line, sizeof line, "  %-26s %.6f\n", "timeline seconds",
                  timeline_s_);
    out += line;
    out += "compile service\n";
    std::snprintf(line, sizeof line,
                  "  %-26s %.1f%% (%llu hits / %llu misses)\n",
                  "cache hit rate",
                  100.0 * compile_service_->cache_hit_rate(),
                  static_cast<unsigned long long>(
                      compile_service_->cache_hits()),
                  static_cast<unsigned long long>(
                      compile_service_->cache_misses()));
    out += line;
    std::snprintf(line, sizeof line, "  %-26s %zu\n", "queue depth",
                  compile_service_->queued_jobs());
    out += line;
    out += "runtime metrics\n";
    out += telemetry_.table();
    out += "process metrics\n";
    out += telemetry::Registry::global().table();
    if (last_report_.has_value()) {
        const fpga::CompileReport& r = *last_report_;
        out += "last compile\n";
        std::snprintf(line, sizeof line,
                      "  synth %.4fs  techmap %.4fs  place %.4fs  "
                      "timing %.4fs  total %.4fs\n",
                      r.synth_seconds, r.techmap_seconds, r.place_seconds,
                      r.timing_seconds, r.total_seconds);
        out += line;
        std::snprintf(line, sizeof line,
                      "  %llu LEs  %llu BRAM bits  Fmax %.1f MHz  "
                      "timing %s\n",
                      static_cast<unsigned long long>(r.area.les),
                      static_cast<unsigned long long>(r.area.bram_bits),
                      r.timing.fmax_mhz, r.timing.met ? "met" : "missed");
        out += line;
    }
    if (!transitions_.empty()) {
        out += "transitions\n";
        for (const TransitionRecord& t : transitions_) {
            std::snprintf(line, sizeof line,
                          "  v%llu -> %s at timeline %.6fs "
                          "(%.1f MHz fabric clock)\n",
                          static_cast<unsigned long long>(t.version),
                          location_name(t.to), t.timeline_seconds,
                          t.clock_mhz);
            out += line;
        }
    }
    return out;
}

void
Runtime::reset_stats()
{
    telemetry_.reset();
    telemetry::Registry::global().reset();
    telemetry::SyncRegistry::global().reset();
    monitor_->reset();
}

// ---------------------------------------------------------------------------
// Source-level profiler (README §Profiling)
// ---------------------------------------------------------------------------

void
Runtime::set_profiling(bool on)
{
    emit(EventKind::ApiProfiling, JsonWriter().boolean("on", on));
    options_.profiling = on;
    for (Slot& slot : slots_) {
        if (auto* sw = dynamic_cast<SwEngine*>(slot.engine.get())) {
            sw->set_profiling(on);
        }
    }
    if (hw_engine_ != nullptr) {
        hw_engine_->set_profiling(on);
    }
}

const fpga::FpgaDevice&
Runtime::device() const
{
    return fabric_ != nullptr ? fabric_->device() : device_;
}

std::string
Runtime::fabric_table() const
{
    char line[256];
    std::string out = "cascade fabric\n";
    std::snprintf(line, sizeof line, "  %-26s %s\n", "user location",
                  location_name(user_location()));
    out += line;
    if (!last_report_.has_value()) {
        out += "  (no hardware compile has completed)\n";
        if (fabric_ != nullptr) {
            out += fabric_->slot_map_table();
        }
        return out;
    }
    const fpga::CompileReport& r = *last_report_;
    const fpga::FpgaDevice& dev = device();
    const double util =
        dev.les() != 0 ? 100.0 * static_cast<double>(r.area.les) /
                             static_cast<double>(dev.les())
                       : 0.0;
    std::snprintf(line, sizeof line, "  %-26s %llu / %llu (%.1f%%)\n",
                  "logic elements",
                  static_cast<unsigned long long>(r.area.les),
                  static_cast<unsigned long long>(dev.les()), util);
    out += line;
    std::snprintf(line, sizeof line, "  %-26s %llu\n", "BRAM bits",
                  static_cast<unsigned long long>(r.area.bram_bits));
    out += line;
    std::snprintf(line, sizeof line, "  %-26s %llu\n", "mapped cells",
                  static_cast<unsigned long long>(r.cells));
    out += line;
    std::snprintf(line, sizeof line, "  %-26s %.1f MHz (target %.1f, %s)\n",
                  "fmax", r.timing.fmax_mhz, dev.clock_mhz(),
                  r.timing.met ? "met" : "missed");
    out += line;
    out += "critical path\n";
    if (r.critical_path_names.empty()) {
        out += "  (no combinational path)\n";
    }
    for (size_t i = 0; i < r.critical_path_names.size(); ++i) {
        std::snprintf(line, sizeof line, "  %8.3f ns  %s\n",
                      r.critical_path_arrival_ns[i],
                      r.critical_path_names[i].c_str());
        out += line;
    }
    if (hw_engine_ != nullptr && hw_engine_->profiling()) {
        out += "fabric activity (per source construct)\n";
        const auto activity = hw_engine_->fabric_activity();
        std::vector<std::pair<std::string, fpga::Bitstream::SourceActivity>>
            rows(activity.begin(), activity.end());
        std::sort(rows.begin(), rows.end(),
                  [](const auto& l, const auto& r2) {
                      if (l.second.toggles != r2.second.toggles) {
                          return l.second.toggles > r2.second.toggles;
                      }
                      return l.first < r2.first;
                  });
        for (const auto& [source, act] : rows) {
            std::snprintf(line, sizeof line,
                          "  %12llu evals %12llu toggles  %s\n",
                          static_cast<unsigned long long>(act.evals),
                          static_cast<unsigned long long>(act.toggles),
                          source.c_str());
            out += line;
        }
        if (rows.empty()) {
            out += "  (no fabric evaluations yet)\n";
        }
    } else if (hw_engine_ != nullptr) {
        out += "  (\":profile on\" enables per-source fabric activity)\n";
    }
    if (fabric_ != nullptr) {
        out += fabric_->slot_map_table();
    }
    return out;
}

} // namespace cascade::runtime
