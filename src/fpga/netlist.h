/// \file
/// Word-level RTL netlist: the output of synthesis and the input to
/// technology mapping, placement, timing analysis, and the levelized
/// bitstream evaluator. Nodes are hash-consed and constant-folded at
/// construction.

#ifndef CASCADE_FPGA_NETLIST_H
#define CASCADE_FPGA_NETLIST_H

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bitvector.h"

namespace cascade::fpga {

enum class Op : uint8_t {
    Const,   ///< cval
    Input,   ///< aux = input index
    RegQ,    ///< aux = register index
    MemRead, ///< aux = memory index, args = {addr}

    Not, And, Or, Xor,                   ///< bitwise, equal widths
    Add, Sub, Mul, Divu, Remu, Divs, Rems, Pow,
    Eq, Ult, Slt,                        ///< 1-bit results
    Shl, Lshr, Ashr,                     ///< args = {value, amount}
    Mux,                                 ///< args = {sel(1), a, b}
    Concat,                              ///< args MSB-first
    Slice,                               ///< aux = lsb, width = out width
    DynSlice,                            ///< args = {value, offset}
    ReduceAnd, ReduceOr, ReduceXor,      ///< 1-bit results
    ZExt, SExt,                          ///< width = out width
};

struct Node {
    Op op = Op::Const;
    uint32_t width = 1;
    uint32_t aux = 0;
    std::vector<uint32_t> args;
    BitVector cval; ///< Const only
};

/// Sentinel clock for registers that never latch (pure state).
inline constexpr uint32_t kNoClock = ~0u;

struct RegDef {
    std::string name;
    uint32_t width = 1;
    uint32_t q = 0;          ///< the RegQ node
    uint32_t next = 0;       ///< data input (node id)
    uint32_t clock = kNoClock; ///< 1-bit clock node; latches on its rise
    BitVector init;
};

struct MemDef {
    std::string name;
    uint32_t width = 1;
    uint32_t size = 0;
    /// Sparse initial contents (from initial blocks).
    std::map<uint64_t, BitVector> init;
};

struct MemWritePort {
    uint32_t mem = 0;
    uint32_t addr = 0;
    uint32_t data = 0;
    uint32_t enable = 0; ///< 1-bit
    uint32_t clock = 0;  ///< 1-bit, rising edge
};

struct PortDef {
    std::string name;
    uint32_t node = 0;
    uint32_t width = 1;
};

struct Netlist {
    std::vector<Node> nodes;
    std::vector<RegDef> regs;
    std::vector<MemDef> mems;
    std::vector<MemWritePort> write_ports;
    std::vector<PortDef> inputs;
    std::vector<PortDef> outputs;

    /// @{ Source provenance. Every node carries the label of the source
    /// construct (net, process, or port) that synthesis was elaborating
    /// when the node was created; labels are interned in src_labels and
    /// node_src holds one index per node (parallel to nodes). Hash-consed
    /// nodes keep the label of their first creator. node_names records
    /// exact net-name aliases for nodes that hold a named signal's value,
    /// so timing reports can name path hops after user signals.
    std::vector<std::string> src_labels;
    std::vector<uint32_t> node_src;
    std::map<uint32_t, std::string> node_names;
    /// @}

    size_t size() const { return nodes.size(); }

    /// Provenance label of \p node ("" when unlabeled).
    const std::string& source_of(uint32_t node) const;
    /// Best human name for \p node: exact net alias, else reg/port name,
    /// else the provenance label. Never empty for labeled netlists; falls
    /// back to "n<id>" otherwise.
    std::string name_of(uint32_t node) const;
};

/// Builds nodes with hash-consing and constant folding.
class NetlistBuilder {
  public:
    explicit NetlistBuilder(Netlist* nl) : nl_(nl)
    {
        // Label 0 is the fallback for nodes created before any
        // set_source call.
        if (nl_->src_labels.empty()) {
            nl_->src_labels.emplace_back("(unattributed)");
        }
        src_index_[nl_->src_labels[0]] = 0;
    }

    uint32_t constant(const BitVector& v);
    uint32_t constant(uint32_t width, uint64_t v);
    uint32_t input(const std::string& name, uint32_t width);
    uint32_t reg(const std::string& name, uint32_t width,
                 const BitVector& init);
    uint32_t memory(const std::string& name, uint32_t width, uint32_t size);
    uint32_t mem_read(uint32_t mem_index, uint32_t addr, uint32_t width);
    void mem_write(uint32_t mem_index, uint32_t addr, uint32_t data,
                   uint32_t enable, uint32_t clock);
    void set_reg_next(uint32_t reg_index, uint32_t next,
                      uint32_t clock);
    void output(const std::string& name, uint32_t node);

    /// Generic op constructor with folding + consing.
    uint32_t make(Op op, uint32_t width, std::vector<uint32_t> args,
                  uint32_t aux = 0);

    /// @{ Convenience wrappers (all fold constants).
    uint32_t zext(uint32_t a, uint32_t width);
    uint32_t sext(uint32_t a, uint32_t width);
    /// Resize with explicit signedness (slice when shrinking).
    uint32_t resize(uint32_t a, uint32_t width, bool sign);
    uint32_t slice(uint32_t a, uint32_t lsb, uint32_t width);
    uint32_t mux(uint32_t sel, uint32_t a, uint32_t b);
    uint32_t to_bool(uint32_t a); ///< ReduceOr unless already 1 bit
    /// Write \p v into bits [lsb +: v.width] of \p base (constant lsb).
    uint32_t set_slice_const(uint32_t base, uint32_t lsb, uint32_t v);
    /// Write \p v into bits [offset +: width(v)] of \p base (dynamic).
    uint32_t set_slice_dyn(uint32_t base, uint32_t offset, uint32_t v);
    /// @}

    /// @{ Provenance. set_source establishes the label attached to every
    /// node created until the next call (synthesis sets it per source
    /// process/net); name_node records an exact net-name alias for a node
    /// (first writer wins, so a CSE-shared node keeps its original name).
    void set_source(const std::string& label);
    void name_node(uint32_t node, const std::string& name);
    /// @}

    uint32_t width_of(uint32_t n) const { return nl_->nodes[n].width; }
    bool is_const(uint32_t n) const
    {
        return nl_->nodes[n].op == Op::Const;
    }
    const BitVector& const_val(uint32_t n) const
    {
        return nl_->nodes[n].cval;
    }

  private:
    /// Attempts to fold \p node; returns the folded constant id or ~0.
    uint32_t try_fold(const Node& node);
    uint32_t intern(Node node);

    /// Tags nodes appended since the last bookkeeping pass with the
    /// current source label (cheap: called from every append site).
    void tag_new_nodes();

    Netlist* nl_;
    std::unordered_map<uint64_t, std::vector<uint32_t>> cse_;
    std::unordered_map<std::string, uint32_t> src_index_;
    uint32_t current_src_ = 0;
};

/// A structural identity for every node, in index order, that survives
/// edits elsewhere in the design: a hash of the node's op, width, aux,
/// constant words and its arguments' identities. Inputs, registers and
/// memory reads hash the port, register or memory name in place of their
/// index, so renumbering does not change them. The k-th repeat of a hash
/// is mixed with k, which keeps the identities distinct. Placement keys
/// the sites it keeps across an edit by these.
std::vector<uint64_t> node_identities(const Netlist& nl);

/// Evaluates a single node given already-evaluated argument values; shared
/// by the constant folder and the bitstream evaluator so their semantics
/// cannot diverge.
BitVector eval_node(const Node& node, const std::vector<BitVector>& argv);

} // namespace cascade::fpga

#endif // CASCADE_FPGA_NETLIST_H
