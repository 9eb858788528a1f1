/// \file
/// Hardware engines (paper §5.2): a subprogram compiled through the Fig. 10
/// wrapper and lowered onto the FPGA fabric, driven by a software stub that
/// speaks the AXI-style MMIO protocol. Supports get/set_state over MMIO,
/// task readback ($display from hardware), and open-loop scheduling.
///
/// Time model: each fabric cycle costs one device clock period and each
/// bus transaction costs the modeled MMIO latency; the runtime folds these
/// into the virtual timeline (see DESIGN.md §1).

#ifndef CASCADE_RUNTIME_HW_ENGINE_H
#define CASCADE_RUNTIME_HW_ENGINE_H

#include <memory>
#include <unordered_map>

#include "fpga/fabric_exec.h"
#include "ir/hw_wrapper.h"
#include "runtime/engine.h"

namespace cascade::runtime {

class HwEngine : public Engine {
  public:
    /// \p port_names: the subprogram's port order (each must be a VarSlot
    /// in \p map). \p clock_mhz / \p mmio_latency_s define the time model.
    /// The fabric may be a levelized-netlist interpreter (Bitstream) or a
    /// native-code JIT kernel — the stub drives either via FabricExec.
    HwEngine(std::unique_ptr<fpga::FabricExec> fabric, ir::WrapperMap map,
             std::vector<std::string> port_names,
             std::vector<bool> port_is_input, EngineCallbacks* callbacks,
             double clock_mhz, double mmio_latency_s);

    sim::StateSnapshot get_state() override;
    void set_state(const sim::StateSnapshot& snapshot) override;
    void read(const Event& event) override;
    std::vector<Event> write() override;
    bool there_are_evals() override;
    void evaluate() override;
    bool there_are_updates() override;
    void update() override;
    bool finished() const override { return finished_; }
    bool is_hardware() const override { return true; }

    /// Free-runs the fabric for up to \p max_iterations design clock
    /// ticks. Ends early on a task, on a debugger trigger, and on a drain
    /// of the FIFO set by stop_on_drain (drained() then reports it); the
    /// latter two cancel the rest of the grant.
    uint64_t open_loop(uint64_t max_iterations) override;
    /// Makes open_loop end its grant once the FIFO whose read and write
    /// pointers are the slots \p head and \p tail (of map(), at most 64
    /// bits each) drains, that is once they are equal. Null slots clear
    /// the stop. The pointers are read straight from the fabric's
    /// registers, with no bus transaction, and only as often as a FIFO
    /// that pops at most one element per tick could have drained.
    void stop_on_drain(const ir::VarSlot* head, const ir::VarSlot* tail);
    /// Whether the last open_loop ended on a drain of that FIFO.
    bool drained() const { return drained_; }
    bool
    supports_open_loop() const override
    {
        return !map_.clock_input.empty();
    }

    /// One MMIO slot read — the honest cost of `:peek` against hardware.
    std::optional<BitVector> peek(const std::string& name) override
    {
        const ir::VarSlot* slot = map_.find(name);
        if (slot == nullptr || slot->elems != 0) {
            return std::nullopt;
        }
        return read_var(*slot);
    }

    double take_modeled_seconds() override;

    /// @{ Raw slot access for the runtime's peripheral drivers (hardware
    /// FIFO feeding during open loop, state sync).
    BitVector read_var(const ir::VarSlot& slot, uint64_t element = 0);
    void write_var(const ir::VarSlot& slot, const BitVector& value,
                   uint64_t element = 0);
    /// Stores \p values[0..count) into elements first..first+count-1 of
    /// the memory slot \p slot (one of map().vars, at most 64 bits per
    /// element): the state `count` write_var calls leave, in one transfer
    /// straight into the fabric's memory. The open-loop controller must be
    /// idle. The transfer is charged like those writes: slot.words bus
    /// transactions and two device cycles per word. A fabric with
    /// profiling counters or an armed debugger capture ring observes every
    /// device cycle, so it receives the words over the bus instead.
    void write_mem(const ir::VarSlot& slot, uint64_t first,
                   const uint64_t* values, size_t count);
    const ir::WrapperMap& map() const { return map_; }
    /// @}

    uint64_t mmio_transactions() const { return transactions_; }
    /// Device cycles this engine caused, a span's bus cycles included.
    uint64_t fabric_cycles() const { return cycles_; }

    /// @{ Debugger instrumentation: forwards to the programmed fabric's
    /// trigger cells and pre-trigger capture ring (see Bitstream). While a
    /// trigger is pending, open_loop stops early: the remaining grant is
    /// cancelled (reading the completed count first — the cancel write
    /// resets it) so the runtime can halt and evict at the firing cycle.
    bool debug_armed() const { return fabric_->debug_armed(); }
    uint64_t debug_fired() const { return fabric_->debug_fired(); }
    const std::vector<fpga::FabricExec::DebugProbe>& debug_probes() const
    {
        return fabric_->debug_probes();
    }
    const std::deque<fpga::FabricExec::DebugSample>& debug_ring() const
    {
        return fabric_->debug_ring();
    }
    /// @}

    /// @{ Source-level activity profiling: forwards to the programmed
    /// fabric's per-node eval/toggle counters (provenance-labeled).
    void set_profiling(bool on) { fabric_->set_profiling(on); }
    bool profiling() const { return fabric_->profiling(); }
    std::map<std::string, fpga::FabricExec::SourceActivity>
    fabric_activity() const
    {
        return fabric_->activity_by_source();
    }
    /// @}

  private:
    uint32_t mmio_read(uint32_t addr);
    void mmio_write(uint32_t addr, uint32_t value);
    /// Services pending task sites; returns true if any fired.
    bool service_tasks();

    std::unique_ptr<fpga::FabricExec> fabric_;
    ir::WrapperMap map_;
    std::vector<const ir::VarSlot*> port_slots_;
    /// Per map_.vars entry: its fabric memory index for write_mem (-1 for
    /// scalars and read-only slots).
    std::vector<int> slot_mem_;
    /// Per map_.vars entry: its fabric register index for reg_word (-1
    /// for memories, read-only slots and slots over 64 bits).
    std::vector<int> slot_reg_;
    /// @{ The FIFO pointers' register indices (-1: no drain stop) and
    /// the mask their difference wraps at.
    int drain_head_ = -1;
    int drain_tail_ = -1;
    uint64_t drain_mask_ = 0;
    bool drained_ = false;
    /// @}
    std::vector<bool> port_is_input_;
    std::vector<BitVector> output_cache_;
    EngineCallbacks* callbacks_;
    double clock_period_s_;
    double mmio_latency_s_;

    // Cached fabric port indices for the AXI pins (driven as raw words).
    int in_clk_, in_rw_, in_addr_, in_in_;
    int out_out_, out_wait_;

    bool input_dirty_ = true;
    bool task_pending_ = false;
    bool finished_ = false;
    uint64_t transactions_ = 0;
    uint64_t transactions_reported_ = 0;
    uint64_t cycles_ = 0;
    uint64_t cycles_reported_ = 0;
};

} // namespace cascade::runtime

#endif // CASCADE_RUNTIME_HW_ENGINE_H
