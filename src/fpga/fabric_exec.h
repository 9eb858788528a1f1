/// \file
/// FabricExec: a "programmed fabric" as the hardware engine stub sees it,
/// and the one implementation of its state access. Two evaluators derive
/// from it: the levelized netlist interpreter (`Bitstream`, the modeled
/// FPGA) and the native-code JIT kernel (`jit::JitKernel`, the same
/// netlist compiled to machine code via the system compiler). Both keep
/// their state in the word layout of fpga/word_ops.h (`compute_layout`)
/// and hand this class pointers to it; every port, register and memory
/// accessor below works on those words, so an evaluator supplies only
/// evaluation (eval_comb, step). HwEngine drives either one through this
/// interface, so MMIO state access, task readback, open-loop scheduling,
/// `$monitor` splicing, and VCD capture are tier-agnostic by construction.
///
/// Profiling and debugger instrumentation have default "not supported"
/// implementations: the JIT tier reports per-register latch counts only,
/// and the debugger swaps in an instrumented Bitstream twin when it arms
/// (see Runtime::rearm_hardware_debug), so a fabric implementation without
/// trigger cells never sees an arm_debug call in practice.

#ifndef CASCADE_FPGA_FABRIC_EXEC_H
#define CASCADE_FPGA_FABRIC_EXEC_H

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bitvector.h"
#include "fpga/netlist.h"
#include "fpga/source_domains.h"
#include "fpga/word_ops.h"

namespace cascade::fpga {

class FabricExec {
  public:
    virtual ~FabricExec() = default;

    FabricExec(const FabricExec&) = delete;
    FabricExec& operator=(const FabricExec&) = delete;

    const Netlist& netlist() const { return *nl_; }

    /// @{ Port access by name (cached index lookups available below). An
    /// input marks its port's domain dirty only on a real change.
    void set_input(const std::string& name, const BitVector& value);
    const BitVector& output(const std::string& name) const;
    int input_index(const std::string& name) const;
    int output_index(const std::string& name) const;
    void set_input(int index, const BitVector& value);
    const BitVector& output(int index) const;
    /// @}

    /// @{ Raw-word access by index, for a caller that resolved its
    /// indices once (the hardware engine's AXI pins, its FIFO storage and
    /// pointers):
    /// no BitVector is built and no name is looked up. The port or memory
    /// element must be at most 64 bits wide. set_input_word masks \p value
    /// to the port width and, like set_input, marks the port's domain only
    /// on a real change; output_word returns the settled value.
    void set_input_word(int index, uint64_t value);
    uint64_t
    output_word(int index) const
    {
        return words_.v[out_off_[static_cast<size_t>(index)]];
    }
    /// Index of register \p name for reg_word, or -1.
    int reg_index(const std::string& name) const;
    /// The low word of register \p index's value.
    uint64_t
    reg_word(int index) const
    {
        return words_.r[layout_.roff[static_cast<size_t>(index)]];
    }
    /// Index of memory \p name for write_mem, or -1.
    int mem_index(const std::string& name) const;
    /// Stores \p values[0..count) (each masked to the element width) at
    /// elements first..first+count-1 of memory \p mem, and marks only
    /// that memory's domain dirty.
    void write_mem(int mem, uint64_t first, const uint64_t* values,
                   size_t count);
    /// @}

    /// Settles all combinational logic for the current inputs/state.
    virtual void eval_comb() = 0;

    /// One device clock cycle: settle, latch every register whose clock
    /// rose (cascading derived clock domains), settle again.
    virtual void step() = 0;

    uint64_t cycles() const { return *words_.cycles; }

    /// @{ Direct state access by name (native mode and tests; the
    /// hardware engine goes through the raw-word calls). Values are
    /// resized to the register or element width: a wider value is
    /// clamped, a narrower one zero-extends. set_reg marks every domain
    /// dirty, set_mem only the memory's.
    const BitVector& reg_value(const std::string& name) const;
    void set_reg(const std::string& name, const BitVector& value);
    const BitVector& mem_value(const std::string& name, uint64_t idx) const;
    void set_mem(const std::string& name, uint64_t idx,
                 const BitVector& value);
    /// @}

    /// Latch events for register \p name (0 if unknown). Every commit of
    /// a new value into the register counts.
    virtual uint64_t latch_count(const std::string&) const { return 0; }

    /// @{ Source-level activity profiling. Implementations without
    /// per-node instrumentation ignore the toggle and report nothing.
    struct SourceActivity {
        uint64_t evals = 0;   ///< node evaluations attributed to the label
        uint64_t toggles = 0; ///< evaluations that changed the value
    };
    virtual void set_profiling(bool) {}
    virtual bool profiling() const { return false; }
    virtual std::map<std::string, SourceActivity> activity_by_source() const
    {
        return {};
    }
    /// @}

    /// @{ Debugger instrumentation (ILA-style; see Bitstream for the full
    /// contract). The defaults report "never armed, never fired": the
    /// runtime only arms the instrumented Bitstream twin it builds itself.
    struct DebugTrigger {
        uint64_t id = 0;    ///< debugger point id (reported on fire)
        int output = -1;    ///< trigger cell's output index
        bool watch = false; ///< change-detect instead of condition edge
        bool has_prev = false;
        BitVector prev;
    };
    struct DebugProbe {
        std::string name;
        int output = -1;
        uint32_t width = 1;
    };
    struct DebugSample {
        uint64_t cycle = 0; ///< device cycle (cycles())
        std::vector<BitVector> values; ///< parallel to debug_probes()
    };
    virtual void arm_debug(std::vector<DebugTrigger>,
                           std::vector<DebugProbe>, size_t)
    {
    }
    virtual void disarm_debug() {}
    virtual bool debug_armed() const { return false; }
    /// Point id of the first trigger that fired, or 0 while none has.
    virtual uint64_t debug_fired() const { return 0; }
    virtual const std::vector<DebugProbe>& debug_probes() const
    {
        static const std::vector<DebugProbe> kEmpty;
        return kEmpty;
    }
    virtual const std::deque<DebugSample>& debug_ring() const
    {
        static const std::deque<DebugSample> kEmpty;
        return kEmpty;
    }
    /// @}

  protected:
    /// An evaluator's state in the layout's word arrays: node values,
    /// registers, memories, the device cycle count and the source-domain
    /// bits changed since the last settle.
    struct StateWords {
        uint64_t* v = nullptr;
        uint64_t* r = nullptr;
        uint64_t* m = nullptr;
        const uint64_t* cycles = nullptr;
        uint64_t* dirty = nullptr;
    };

    /// Computes the layout, the source domains and the name maps of
    /// \p netlist. The evaluator's constructor then calls bind_state once,
    /// before any accessor runs.
    explicit FabricExec(std::shared_ptr<const Netlist> netlist);
    void bind_state(const StateWords& words) { words_ = words; }

    /// Stores \p value, resized to \p width, at \p words[0..].
    static void store(uint64_t* words, uint32_t width,
                      const BitVector& value);
    /// Fills \p out (already sized) from \p words[0..].
    static void load(BitVector* out, const uint64_t* words);

    const std::shared_ptr<const Netlist> nl_;
    const SourceDomains domains_;
    const Layout layout_;

  private:
    StateWords words_;
    std::vector<uint32_t> out_off_; ///< per output: its word offset
    std::unordered_map<std::string, int> input_index_;
    std::unordered_map<std::string, int> output_index_;
    std::unordered_map<std::string, int> reg_index_;
    std::unordered_map<std::string, int> mem_index_;
    /// @{ The BitVector accessors' per-slot caches, refreshed on access.
    mutable std::vector<BitVector> out_cache_;
    mutable std::vector<BitVector> reg_cache_;
    mutable std::map<std::pair<uint32_t, uint64_t>, BitVector> mem_cache_;
    /// @}
};

} // namespace cascade::fpga

#endif // CASCADE_FPGA_FABRIC_EXEC_H
