/// \file
/// The "bitstream": a levelized, cycle-based evaluator for a synthesized
/// netlist. This plays the role of the programmed FPGA fabric in our
/// substrate — orders of magnitude faster than AST interpretation, with
/// per-cycle semantics identical to real registered hardware (including
/// derived/gated clock domains, which cascade within a device cycle).
/// Settling is domain-gated (fpga/source_domains.h): a pass recomputes
/// only the nodes whose input port, register clock domain or memory
/// changed since the previous pass.

#ifndef CASCADE_FPGA_BITSTREAM_H
#define CASCADE_FPGA_BITSTREAM_H

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bitvector.h"
#include "fpga/fabric_exec.h"
#include "fpga/netlist.h"
#include "fpga/source_domains.h"

namespace cascade::fpga {

class Bitstream : public FabricExec {
  public:
    explicit Bitstream(std::shared_ptr<const Netlist> netlist);

    const Netlist& netlist() const override { return *nl_; }

    /// @{ Port access by name (cached index lookups available below).
    void set_input(const std::string& name, const BitVector& value) override;
    const BitVector& output(const std::string& name) const override;
    int input_index(const std::string& name) const override;
    int output_index(const std::string& name) const override;
    void set_input(int index, const BitVector& value) override;
    const BitVector& output(int index) const override;
    /// @}

    /// @{ Raw-word access by index (see FabricExec).
    void set_input_word(int index, uint64_t value) override;
    uint64_t output_word(int index) const override
    {
        return values_[nl_->outputs[static_cast<size_t>(index)].node].word(0);
    }
    int mem_index(const std::string& name) const override;
    void write_mem(int mem, uint64_t first, const uint64_t* values,
                   size_t count) override;
    /// @}

    /// Settles combinational logic for the current inputs/state,
    /// recomputing only nodes whose source domain changed (the profiled
    /// twin recomputes every node).
    void eval_comb() override;

    /// One device clock cycle: settle, latch every register whose clock
    /// rose (cascading derived clock domains), settle again.
    void step() override;

    /// @{ Direct state access (used by native mode and tests; the hardware
    /// engine goes through MMIO instead).
    const BitVector& reg_value(const std::string& name) const override;
    void set_reg(const std::string& name, const BitVector& value) override;
    const BitVector& mem_value(const std::string& name,
                               uint64_t idx) const override;
    void set_mem(const std::string& name, uint64_t idx,
                 const BitVector& value) override;
    /// @}

    uint64_t cycles() const override { return cycles_; }

    /// @{ Source-level activity profiling. When enabled, eval_comb counts
    /// per-node evaluations and value toggles; when off, the evaluator
    /// runs the original uninstrumented loop (no per-node overhead).
    /// Register latch events are always counted (one add per actual
    /// latch, far off the hot path).
    void set_profiling(bool on) override;
    bool profiling() const override { return profile_; }
    /// Per-source-construct activity, aggregated over nodes through the
    /// netlist's provenance labels (synth -> techmap -> fabric).
    std::map<std::string, SourceActivity>
    activity_by_source() const override;
    /// Latch events for register \p name (0 if unknown). Every commit of
    /// a new value into the register counts.
    uint64_t latch_count(const std::string& name) const override;
    /// @}

    /// @{ Debugger instrumentation (ILA-style). arm_debug installs the
    /// trigger/probe output set produced by instrument_debug_triggers;
    /// while armed, every step() runs one guarded epilogue (rising-edge /
    /// value-change detection on the trigger outputs, plus a push into the
    /// bounded pre-trigger capture ring). Like profiling, the disarmed
    /// cost is a single branch per step. A fire is sticky — the ring
    /// freezes on the firing cycle so the window survives the MMIO
    /// traffic that follows — until the twin is discarded or cleared.
    void arm_debug(std::vector<DebugTrigger> triggers,
                   std::vector<DebugProbe> probes,
                   size_t ring_depth) override;
    void disarm_debug() override;
    bool debug_armed() const override { return debug_armed_; }
    /// Point id of the first trigger that fired, or 0 while none has.
    uint64_t debug_fired() const override { return debug_fired_; }
    const std::vector<DebugProbe>& debug_probes() const override {
        return debug_probes_;
    }
    const std::deque<DebugSample>& debug_ring() const override {
        return debug_ring_;
    }
    /// @}

  private:
    void eval_range(size_t first);
    void eval_comb_profiled();
    void debug_step_check();

    struct MemLatch {
        uint32_t mem;
        uint64_t addr;
        BitVector data;
    };

    std::shared_ptr<const Netlist> nl_;
    SourceDomains domains_;
    /// Domain bits changed since the last settle (all set until the first).
    uint64_t dirty_ = ~uint64_t{0};
    std::vector<BitVector> values_;       ///< per node
    std::vector<BitVector> reg_state_;    ///< per register
    std::vector<std::vector<BitVector>> mem_state_;
    std::vector<bool> prev_reg_clock_;
    std::vector<bool> prev_port_clock_;
    std::unordered_map<std::string, int> input_index_;
    std::unordered_map<std::string, int> output_index_;
    std::unordered_map<std::string, uint32_t> reg_index_;
    std::unordered_map<std::string, uint32_t> mem_index_;
    uint64_t cycles_ = 0;
    /// @{ Per-pass scratch, kept to reuse its capacity.
    std::vector<BitVector> argv_;
    std::vector<std::pair<uint32_t, BitVector>> latches_;
    std::vector<MemLatch> mem_latches_;
    /// @}
    bool profile_ = false;
    std::vector<uint64_t> eval_count_;   ///< per node (profiling only)
    std::vector<uint64_t> toggle_count_; ///< per node (profiling only)
    std::vector<uint64_t> reg_latch_count_; ///< per register (always)

    bool debug_armed_ = false;
    std::vector<DebugTrigger> debug_triggers_;
    std::vector<DebugProbe> debug_probes_;
    std::deque<DebugSample> debug_ring_;
    size_t debug_ring_depth_ = 64;
    uint64_t debug_fired_ = 0;
};

} // namespace cascade::fpga

#endif // CASCADE_FPGA_BITSTREAM_H
