/// \file
/// The target-specific Engine ABI (paper Fig. 7). An engine is the runtime
/// state of one subprogram; the scheduler talks to every engine through
/// this interface and stays agnostic about whether the engine is a
/// software interpreter or FPGA-resident hardware — the mechanism behind
/// Cascade's interactivity guarantee.

#ifndef CASCADE_RUNTIME_ENGINE_H
#define CASCADE_RUNTIME_ENGINE_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bitvector.h"
#include "sim/interpreter.h"

namespace cascade::runtime {

/// A change to one subprogram port (index into the subprogram's port
/// order).
struct Event {
    uint32_t port = 0;
    BitVector value;
};

/// Runtime services an engine may invoke: system-task side effects are
/// posted to the interrupt queue (paper §3.4) and $time reads the virtual
/// clock.
class EngineCallbacks {
  public:
    virtual ~EngineCallbacks() = default;

    virtual void on_display(const std::string& text) = 0;
    virtual void on_write(const std::string& text) = 0;
    virtual void on_finish() = 0;
    virtual uint64_t virtual_time() const = 0;

    /// $monitor line from the monitor registered under \p key; emitted at
    /// most once per timestep per monitor by the owning engine. The
    /// runtime suppresses lines whose text matches the previous emission
    /// for the same key (so handing a subprogram from software to hardware
    /// does not re-print). Default: behave like $display.
    virtual void
    on_monitor(const std::string& key, const std::string& text)
    {
        (void)key;
        on_display(text);
    }

    /// @{ Waveform dump control ($dumpfile/$dumpvars/$dumpoff/$dumpon).
    /// The dump lives in the runtime, above any single engine, so it
    /// splices across engine transitions. Defaults ignore.
    virtual void on_dumpfile(const std::string& path) { (void)path; }
    virtual void on_dumpvars() {}
    virtual void on_dumpoff() {}
    virtual void on_dumpon() {}
    /// @}
};

class Engine {
  public:
    virtual ~Engine() = default;

    /// @{ State handoff for software/hardware transitions.
    virtual sim::StateSnapshot get_state() = 0;
    /// Installs \p snapshot with no side effect. Entries named after
    /// input ports carry the levels their nets hold (the runtime's
    /// relocation puts them there), and a level that differs from the
    /// engine's own is not an edge: no process runs, no update stays
    /// queued and no system task fires because of it. Names the engine
    /// does not know are ignored.
    virtual void set_state(const sim::StateSnapshot& snapshot) = 0;
    /// @}

    /// Broadcast of an input-port change (paper: read).
    virtual void read(const Event& event) = 0;
    /// Discovery of output-port changes since the last call (paper: write).
    virtual std::vector<Event> write() = 0;

    /// @{ Scheduler interface (Fig. 6).
    virtual bool there_are_evals() = 0;
    virtual void evaluate() = 0;
    virtual bool there_are_updates() = 0;
    virtual void update() = 0;
    virtual void end_step() {}
    virtual void end() {}
    /// @}

    /// True once the subprogram executed $finish.
    virtual bool finished() const { return false; }

    /// Open-loop scheduling (paper §4.4): run up to \p max_iterations
    /// clock toggles internally; returns the number completed. Engines
    /// that do not support it return 0.
    virtual uint64_t
    open_loop(uint64_t max_iterations)
    {
        (void)max_iterations;
        return 0;
    }
    virtual bool supports_open_loop() const { return false; }

    virtual bool is_hardware() const = 0;

    /// Live value of a named signal, for the debugger's `:peek` and
    /// condition evaluation. Unlike get_state() this reads one signal at
    /// honest cost (a map lookup in software, one MMIO read in hardware).
    /// Returns nullopt for unknown names or engines without name access.
    virtual std::optional<BitVector> peek(const std::string& name)
    {
        (void)name;
        return std::nullopt;
    }

    /// Modeled time consumed since the last call (seconds): fabric cycles
    /// and bus transactions for hardware engines; zero for software (the
    /// runtime measures software wall time directly).
    virtual double take_modeled_seconds() { return 0.0; }
};

} // namespace cascade::runtime

#endif // CASCADE_RUNTIME_ENGINE_H
