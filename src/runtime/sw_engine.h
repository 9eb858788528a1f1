/// \file
/// Software engines (paper §5.1): cycle-accurate event-driven
/// interpretation of a subprogram, iVerilog style. Quickly created, slowly
/// executed — the starting point of every user subprogram's life.

#ifndef CASCADE_RUNTIME_SW_ENGINE_H
#define CASCADE_RUNTIME_SW_ENGINE_H

#include <memory>

#include "runtime/engine.h"
#include "verilog/elaborate.h"

namespace cascade::runtime {

class SwEngine : public Engine, private sim::SystemTaskHandler {
  public:
    /// \p initial_skip: per-initial-block skip mask for blocks that
    /// already executed in a previous engine incarnation of this
    /// subprogram (REPL evals append items; old initials must not
    /// re-fire). \p hardware_resident marks pre-compiled standard-library
    /// components, which the paper places in hardware immediately.
    SwEngine(std::shared_ptr<const verilog::ElaboratedModule> em,
             EngineCallbacks* callbacks,
             const std::vector<bool>& initial_skip = {},
             bool hardware_resident = false);

    sim::StateSnapshot get_state() override;
    void set_state(const sim::StateSnapshot& snapshot) override;
    void read(const Event& event) override;
    std::vector<Event> write() override;
    bool there_are_evals() override;
    void evaluate() override;
    bool there_are_updates() override;
    void update() override;
    void end_step() override;
    bool finished() const override;
    bool is_hardware() const override { return hardware_resident_; }

    std::optional<BitVector> peek(const std::string& name) override
    {
        const BitVector* v = interp_.find(name);
        return v != nullptr ? std::optional<BitVector>(*v) : std::nullopt;
    }

    const verilog::ElaboratedModule& module() const
    {
        return interp_.module();
    }

    /// Total initial blocks in this subprogram (for the runtime's skip
    /// bookkeeping).
    size_t initial_count() const { return initial_count_; }

    /// @{ Interpreter telemetry, surfaced for Runtime::stats_json().
    uint64_t evaluate_calls() const { return interp_.evaluate_calls(); }
    uint64_t update_calls() const { return interp_.update_calls(); }
    uint64_t process_executions() const
    {
        return interp_.process_executions();
    }
    /// @}

    /// @{ Source-level profiling (Profiler::profile_json / REPL :profile).
    /// Per-process trigger counts are always collected; eval-ns wall
    /// attribution follows the interpreter's profiling flag.
    void set_profiling(bool on) { interp_.set_profiling(on); }
    std::vector<sim::ProcessProfile> profile() const
    {
        return interp_.profile();
    }
    /// @}

  private:
    void on_display(const std::string& text) override;
    void on_write(const std::string& text) override;
    void on_finish() override;
    uint64_t current_time() const override;
    void on_monitor(const std::string& key, const std::string& text) override;
    void on_dumpfile(const std::string& path) override;
    void on_dumpvars() override;
    void on_dumpoff() override;
    void on_dumpon() override;

    EngineCallbacks* callbacks_;
    sim::ModuleInterpreter interp_;
    /// Port index -> net id, built from the subprogram's port order.
    std::vector<uint32_t> port_nets_;
    std::vector<int32_t> net_to_port_;
    size_t initial_count_ = 0;
    bool hardware_resident_ = false;
};

} // namespace cascade::runtime

#endif // CASCADE_RUNTIME_SW_ENGINE_H
