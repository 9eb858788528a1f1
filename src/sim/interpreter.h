/// \file
/// Cycle-accurate event-driven interpretation of a single elaborated module
/// (one Cascade subprogram), in the style of iVerilog (paper §5.1).
///
/// The interpreter exposes the evaluate/update split of the Verilog
/// reference scheduler (Fig. 2): evaluate() runs combinational processes to
/// a fixed point and executes edge-triggered processes, queueing their
/// nonblocking assignments; update() commits those assignments. Software
/// engines wrap this class behind the Engine ABI (Fig. 7); dependency
/// tracking keeps re-evaluation lazy, only processes whose inputs changed
/// run again.

#ifndef CASCADE_SIM_INTERPRETER_H
#define CASCADE_SIM_INTERPRETER_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/bitvector.h"
#include "common/diagnostics.h"
#include "sim/format.h"
#include "verilog/elaborate.h"

namespace cascade::sim {

/// Receiver for unsynthesizable side effects. The Cascade runtime routes
/// these through its interrupt queue (paper §3.4); tests capture them
/// directly.
class SystemTaskHandler {
  public:
    virtual ~SystemTaskHandler() = default;

    /// $display (newline already excluded; caller appends).
    virtual void on_display(const std::string& text) = 0;
    /// $write.
    virtual void on_write(const std::string& text) = 0;
    /// $finish.
    virtual void on_finish() = 0;
    /// Logical time for $time.
    virtual uint64_t current_time() const = 0;

    /// $monitor output, emitted once per timestep by flush_monitors().
    /// \p key identifies the registered monitor statement (stable across
    /// engine incarnations) so the receiver can suppress lines whose text
    /// did not change. The default forwards to on_display, which keeps
    /// simple capture handlers working but prints every timestep.
    virtual void
    on_monitor(const std::string& key, const std::string& text)
    {
        (void)key;
        on_display(text);
    }

    /// @{ $dumpfile/$dumpvars/$dumpoff/$dumpon. Waveform capture is a
    /// runtime concern (the dump spans engines); handlers that do not
    /// support it ignore these.
    virtual void on_dumpfile(const std::string& path) { (void)path; }
    virtual void on_dumpvars() {}
    virtual void on_dumpoff() {}
    virtual void on_dumpon() {}
    /// @}
};

/// A saved register/memory snapshot, used for engine state handoff when a
/// subprogram migrates between software and hardware (get_state/set_state
/// in the Engine ABI).
struct StateSnapshot {
    std::map<std::string, BitVector> regs;
    std::map<std::string, std::vector<BitVector>> memories;

    bool operator==(const StateSnapshot&) const = default;
};

/// Per-process profile sample (see ModuleInterpreter::profile). Trigger
/// counts are always collected; eval_ns accumulates only while
/// set_profiling(true) is in effect.
struct ProcessProfile {
    /// Canonical id: the source print of the originating module item.
    /// Stable across engine incarnations of the same subprogram, so the
    /// runtime can splice profiles over rebuilds and the sw -> hw handoff
    /// (same idiom as $monitor keys).
    std::string key;
    /// Compressed one-line display label derived from the key.
    std::string label;
    /// "continuous" | "comb" | "seq" | "initial".
    std::string kind;
    /// For seq processes: trigger descriptions ("posedge clk_val").
    std::vector<std::string> triggers;
    uint64_t executions = 0; ///< times run_process fired this process
    uint64_t eval_ns = 0;    ///< cumulative wall time (0 when disabled)
};

class ModuleInterpreter {
  public:
    /// \p handler may be null when the module contains no system tasks.
    ModuleInterpreter(std::shared_ptr<const verilog::ElaboratedModule> em,
                      SystemTaskHandler* handler);

    const verilog::ElaboratedModule& module() const { return *em_; }

    /// Runs initial blocks (once, at t=0), skipping the first
    /// \p skip_first of them (REPL evals append items; initials that fired
    /// in a prior engine incarnation must not re-fire). Nonblocking
    /// assignments in initial blocks are queued like any others.
    void run_initials(size_t skip_first = 0);

    /// Runs initial blocks with a per-block skip mask (index = position of
    /// the initial block in item order; missing entries mean "run").
    void run_initials_masked(const std::vector<bool>& skip);

    /// Number of initial blocks in the module.
    size_t initial_count() const;

    /// @{ Value access by net name (ports, regs, wires alike).
    const BitVector& get(const std::string& name) const;
    const BitVector& get(uint32_t net_id) const;
    /// Like get(), but returns nullptr for unknown names and memories
    /// (debugger `:peek`/condition evaluation probes speculatively).
    const BitVector* find(const std::string& name) const;
    /// Drives an input port (or any net) from outside; triggers edge
    /// detection and marks dependents for re-evaluation.
    void set_input(const std::string& name, const BitVector& value);
    void set_input(uint32_t net_id, const BitVector& value);
    /// @}

    /// @{ The reference-scheduler interface (Fig. 2 / Fig. 7).
    bool there_are_evals() const;
    void evaluate();
    bool there_are_updates() const { return !nb_queue_.empty(); }
    void update();
    /// @}

    /// True once $finish has executed.
    bool finished() const { return finished_; }

    /// Evaluates every registered $monitor statement against current net
    /// values and emits SystemTaskHandler::on_monitor for each. IEEE-1364
    /// semantics: executing $monitor registers it; output happens at end
    /// of timestep, so the engine calls this from its end_step hook. The
    /// handler owns on-change suppression (it survives engine handoff).
    void flush_monitors();

    /// Number of $monitor statements registered so far.
    size_t monitor_count() const { return monitors_.size(); }

    /// Net ids of output ports whose value changed since the last call.
    std::vector<uint32_t> take_changed_outputs();

    /// @{ State handoff for engine transitions (sw -> hw and back).
    StateSnapshot get_state() const;
    /// Restores values without latching edge triggers: a restore is not
    /// a signal transition (the engine the state came from already ran
    /// the edges that produced it). Combinational dependents re-evaluate.
    void set_state(const StateSnapshot& snapshot);
    /// @}

    /// @{ Telemetry. Plain members, not atomics: bumping them costs one
    /// add on the interpreter hot path; aggregation into a
    /// telemetry::Registry happens at stats-snapshot time (Runtime owns
    /// that), keeping the <5% micro-bench overhead budget.
    /// Number of processes that executed since construction (profiling).
    uint64_t process_executions() const { return process_executions_; }
    /// Number of evaluate() / update() scheduler calls.
    uint64_t evaluate_calls() const { return evaluate_calls_; }
    uint64_t update_calls() const { return update_calls_; }
    /// @}

    /// @{ Source-level profiling. Per-process trigger counts are always
    /// collected (one indexed add on the run_process path, same cost class
    /// as process_executions_). Wall-clock attribution reads the steady
    /// clock twice per process execution, so it sits behind this flag and
    /// costs nothing when off (the guarded fast path never touches a
    /// clock).
    void set_profiling(bool on) { profiling_ = on; }
    bool profiling() const { return profiling_; }
    /// Snapshot of every process's profile, in item order. Keys/labels
    /// are rebuilt on each call (query path, not hot path).
    std::vector<ProcessProfile> profile() const;
    /// @}

  private:
    struct Trigger {
        uint32_t net = 0;
        verilog::EdgeKind edge = verilog::EdgeKind::Pos;
    };

    struct Process {
        enum class Kind { Continuous, Comb, Seq, Initial };
        Kind kind = Kind::Comb;
        /// For Continuous: the item; for blocks: the body statement.
        const verilog::ContinuousAssign* assign = nullptr;
        const verilog::Stmt* body = nullptr;
        /// Originating module item (profiling: canonical process ids).
        const verilog::ModuleItem* item = nullptr;
        std::vector<uint32_t> reads;    ///< comb dependency net ids
        std::vector<Trigger> triggers;  ///< seq edge triggers
    };

    /// Hot-path profile storage, indexed like processes_.
    struct ProcStat {
        uint64_t executions = 0;
        uint64_t eval_ns = 0;
    };

    struct NbUpdate {
        /// Target lvalue (re-resolved at commit for slices; the value and
        /// any dynamic indices were captured at enqueue time).
        const verilog::Expr* lhs = nullptr;
        /// Pre-resolved dynamic index values, in lvalue nesting order.
        std::vector<uint64_t> indices;
        BitVector value;
    };

    friend class Evaluator;

    void build_processes();
    void collect_reads(const verilog::Expr& expr,
                       std::vector<uint32_t>* out) const;
    void collect_reads(const verilog::Stmt& stmt,
                       std::vector<uint32_t>* out) const;
    void collect_lvalue_index_reads(const verilog::Expr& lhs,
                                    std::vector<uint32_t>* out) const;
    /// Root nets assigned anywhere in \p stmt.
    void collect_defs(const verilog::Stmt& stmt,
                      std::vector<uint32_t>* out) const;

    /// Writes \p value to net \p id, recording changes, waking dependent
    /// combinational processes, and latching edge triggers (unless
    /// \p edges is false).
    void commit_net(uint32_t id, BitVector value, bool edges = true);
    void commit_element(uint32_t id, uint64_t index, BitVector value);

    void run_process(size_t index);
    void dispatch_process(const Process& p);
    void execute_stmt(const verilog::Stmt& stmt, bool nonblocking_allowed);

    /// Registers \p stmt as an active monitor (idempotent per statement).
    void register_monitor(const verilog::SystemTaskStmt& stmt);
    /// Renders a $display-family task's argument list against current net
    /// values (string-format or space-separated-decimal form).
    std::string format_task_text(const verilog::SystemTaskStmt& stmt);

    std::shared_ptr<const verilog::ElaboratedModule> em_;
    SystemTaskHandler* handler_;

    std::vector<BitVector> values_;                 ///< scalar nets
    std::vector<std::vector<BitVector>> memories_;  ///< array nets
    std::vector<Process> processes_;
    /// net id -> comb process indices that read it.
    std::vector<std::vector<uint32_t>> comb_deps_;
    /// net id -> (process index, trigger) for seq processes.
    std::vector<std::vector<std::pair<uint32_t, verilog::EdgeKind>>>
        seq_deps_;

    std::vector<bool> comb_pending_;
    std::vector<uint32_t> comb_queue_;
    std::vector<bool> seq_pending_;
    std::vector<uint32_t> seq_queue_;
    std::vector<NbUpdate> nb_queue_;

    struct MonitorReg {
        const verilog::SystemTaskStmt* stmt = nullptr;
        /// Canonical source print of the statement: stable across engine
        /// incarnations of the same subprogram, so the runtime's on-change
        /// suppression splices over a sw -> hw handoff.
        std::string key;
        /// Candidate text rendered at the trigger site (the hardware
        /// wrapper's argument-save registers sample at the same point),
        /// emitted by flush_monitors at end of timestep.
        std::string pending;
        bool has_pending = false;
    };
    std::vector<MonitorReg> monitors_;
    std::unordered_set<const verilog::Stmt*> monitor_registered_;

    std::unordered_set<uint32_t> changed_outputs_;
    bool finished_ = false;
    bool profiling_ = false;
    std::vector<ProcStat> proc_stats_;
    uint64_t process_executions_ = 0;
    uint64_t evaluate_calls_ = 0;
    uint64_t update_calls_ = 0;
    Diagnostics runtime_diags_;
};

} // namespace cascade::sim

#endif // CASCADE_SIM_INTERPRETER_H
