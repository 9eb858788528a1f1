/// \file
/// FabricExec: the execution surface a "programmed fabric" presents to the
/// hardware engine stub. Two implementations exist: the levelized netlist
/// interpreter (`Bitstream`, the modeled FPGA) and the native-code JIT
/// kernel (`jit::JitKernel`, the same netlist compiled to machine code via
/// the system compiler). HwEngine drives either one through this interface,
/// so MMIO state access, task readback, open-loop scheduling, `$monitor`
/// splicing, and VCD capture are tier-agnostic by construction.
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
#include <string>
#include <vector>

#include "common/bitvector.h"
#include "fpga/netlist.h"

namespace cascade::fpga {

class FabricExec {
  public:
    virtual ~FabricExec() = default;

    virtual const Netlist& netlist() const = 0;

    /// @{ Port access by name (cached index lookups available below).
    virtual void set_input(const std::string& name,
                           const BitVector& value) = 0;
    virtual const BitVector& output(const std::string& name) const = 0;
    virtual int input_index(const std::string& name) const = 0;
    virtual int output_index(const std::string& name) const = 0;
    virtual void set_input(int index, const BitVector& value) = 0;
    virtual const BitVector& output(int index) const = 0;
    /// @}

    /// @{ Raw-word access by index, for a caller that resolved its
    /// indices once (the hardware engine's AXI pins, its FIFO storage and
    /// pointers):
    /// no BitVector is built and no name is looked up. The port or memory
    /// element must be at most 64 bits wide. set_input_word masks \p value
    /// to the port width and, like set_input, marks the port's domain only
    /// on a real change; output_word returns the settled value.
    virtual void set_input_word(int index, uint64_t value) = 0;
    virtual uint64_t output_word(int index) const = 0;
    /// Index of register \p name for reg_word, or -1.
    virtual int reg_index(const std::string& name) const = 0;
    /// The low word of register \p index's value.
    virtual uint64_t reg_word(int index) const = 0;
    /// Index of memory \p name for write_mem, or -1.
    virtual int mem_index(const std::string& name) const = 0;
    /// Stores \p values[0..count) (each masked to the element width) at
    /// elements first..first+count-1 of memory \p mem, and marks only
    /// that memory's domain dirty.
    virtual void write_mem(int mem, uint64_t first, const uint64_t* values,
                           size_t count) = 0;
    /// @}

    /// Settles all combinational logic for the current inputs/state.
    virtual void eval_comb() = 0;

    /// One device clock cycle: settle, latch every register whose clock
    /// rose (cascading derived clock domains), settle again.
    virtual void step() = 0;

    virtual uint64_t cycles() const = 0;

    /// @{ Direct state access (used by native mode and tests; the hardware
    /// engine goes through MMIO instead).
    virtual const BitVector& reg_value(const std::string& name) const = 0;
    virtual void set_reg(const std::string& name, const BitVector& value) = 0;
    virtual const BitVector& mem_value(const std::string& name,
                                       uint64_t idx) const = 0;
    virtual void set_mem(const std::string& name, uint64_t idx,
                         const BitVector& value) = 0;
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
};

} // namespace cascade::fpga

#endif // CASCADE_FPGA_FABRIC_EXEC_H
