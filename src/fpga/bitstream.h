/// \file
/// The "bitstream": a levelized, cycle-based evaluator for a synthesized
/// netlist. This plays the role of the programmed FPGA fabric in our
/// substrate, with per-cycle semantics identical to real registered
/// hardware (including derived/gated clock domains, which cascade within
/// a device cycle). The constructor compiles the netlist into a tape: one
/// pre-resolved instruction per node over flat uint64_t state in the JIT
/// kernel's layout (fpga/word_ops.h), run with the kernel's own word-op
/// helpers, so no BitVector is built on the hot path. Port, register and
/// memory access is FabricExec's, over the same words. Settling is
/// domain-gated (fpga/source_domains.h): a pass runs only the blocks of
/// nodes whose input port, register clock domain or memory changed since
/// the previous pass.
///
/// On the Fig. 10-wrapped SHA-256 miner (1,067 nodes) the perfbench
/// `--trace 1` ledger reads 4.3-4.9 us per virtual tick (7.4 us on a busy
/// host), against 27-47 us for the AST interpreter on the unwrapped
/// design and 0.30-0.33 us for the JIT kernel, which looks up what the
/// tape evaluates node by node for the 6-bit round counter's cone
/// (jit/codegen.h; shared 4-core x86-64 host).

#ifndef CASCADE_FPGA_BITSTREAM_H
#define CASCADE_FPGA_BITSTREAM_H

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/bitvector.h"
#include "fpga/fabric_exec.h"
#include "fpga/netlist.h"

namespace cascade::fpga {

class Bitstream : public FabricExec {
  public:
    explicit Bitstream(std::shared_ptr<const Netlist> netlist);

    /// Settles combinational logic for the current inputs/state,
    /// recomputing only nodes whose source domain changed (with profiling
    /// on, every node).
    void eval_comb() override;

    /// One device clock cycle: settle, latch every register whose clock
    /// rose (cascading derived clock domains), settle again.
    void step() override;

    /// @{ Source-level activity profiling. When enabled, eval_comb counts
    /// per-node evaluations and value toggles; when off, the evaluator
    /// runs the uninstrumented instantiation of the same loop (no
    /// per-node overhead).
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
    /// One node of the tape: its op with every operand resolved to a word
    /// offset into v_.
    struct Insn {
        Op op = Op::Const;
        /// Multi-word path (the node or an operand is over 64 bits).
        bool wide = false;
        uint32_t width = 0;
        uint32_t node = 0;   ///< netlist node id
        uint32_t dst = 0;    ///< word offset of the node's value
        /// Word offsets of the first three operands (0 past the last).
        uint32_t arg[3] = {0, 0, 0};
        uint32_t argw[3] = {0, 0, 0}; ///< their widths
        /// Slice: the lsb. RegQ: the register's word offset. MemRead: the
        /// memory index. Concat: its operands are concat_[aux, aux +
        /// nargs).
        uint32_t aux = 0;
        uint32_t nargs = 0;
        uint64_t mask = 0; ///< fullmask(width)
    };
    /// A run of tape entries sharing one source-domain mask.
    struct Block {
        uint64_t mask = 0;
        uint32_t begin = 0;
        uint32_t end = 0;
    };
    struct RegLatch {
        uint32_t reg = 0;
        uint32_t roff = 0;  ///< register words at r_[roff]
        uint32_t words = 0;
        uint32_t next = 0;  ///< next value at v_[next]
        uint32_t copy = 0;  ///< words taken from next; the rest are zero
    };
    struct ClockLatch {
        uint32_t clock = 0; ///< clock level at v_[clock]
        uint64_t bit = 0;
        bool prev = false;
        std::vector<RegLatch> regs;
    };
    struct PortLatch {
        uint32_t clock = 0, enable = 0, enable_words = 0, addr = 0, data = 0;
        uint32_t mem = 0;
        uint32_t copy = 0; ///< data words stored; the rest are zero
        bool prev = false;
    };

    void compile_tape();
    template <bool kProfile>
    void settle();
    void exec_wide(const Insn& in);
    /// Evaluates \p in through eval_node: the path for values wider than
    /// the word helpers' scratch bound (word_ops::kMaxWords).
    void exec_reference(const Insn& in);
    void debug_step_check();

    /// Domain bits changed since the last settle (all set until the first).
    uint64_t dirty_ = ~uint64_t{0};
    /// @{ State in the layout's three word arrays.
    std::vector<uint64_t> v_; ///< node values
    std::vector<uint64_t> r_; ///< registers
    std::vector<uint64_t> m_; ///< memories
    /// @}
    std::vector<Insn> tape_;
    std::vector<Block> blocks_;
    std::vector<std::pair<uint32_t, uint32_t>> concat_; ///< (offset, width)
    std::vector<ClockLatch> clocks_;
    std::vector<PortLatch> ports_;
    uint64_t cycles_ = 0;
    std::vector<BitVector> argv_; ///< exec_reference scratch
    std::vector<uint64_t> prev_;  ///< a wide node's value before a pass
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
