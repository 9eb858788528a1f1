/// \file
/// Source-domain analysis shared by the two netlist evaluators (the
/// Bitstream interpreter and the generated JIT kernel). A node's value is
/// a function of three kinds of source: input ports, register state and
/// memory contents. Each source gets one bit of a 64-bit mask: every input
/// port, every distinct register clock node (all registers latched by one
/// clock change together) and every memory. A node's mask is the union of
/// its sources' bits, so an evaluator that records which bits changed
/// since the last settle (its "dirty" word) need only recompute the nodes
/// whose mask meets it.

#ifndef CASCADE_FPGA_SOURCE_DOMAINS_H
#define CASCADE_FPGA_SOURCE_DOMAINS_H

#include <cstdint>
#include <vector>

#include "fpga/netlist.h"

namespace cascade::fpga {

/// Bit 63: state written from outside the netlist. Evaluators set every
/// bit on construction and on set_reg (a memory write marks only that
/// memory's bit); registers that never latch (kNoClock) and nodes with no
/// varying source carry this bit, so they settle exactly then.
inline constexpr uint64_t kExternalDomain = uint64_t{1} << 63;
/// Bit 62: shared by every domain after the first 62 (a conservative
/// merge: a change in any of them re-settles the nodes of all of them).
inline constexpr uint64_t kSharedDomain = uint64_t{1} << 62;

struct SourceDomains {
    std::vector<uint64_t> node;  ///< per node: union of its sources' bits
    std::vector<uint64_t> input; ///< per input port
    std::vector<uint64_t> reg;   ///< per register: its clock's bit
    std::vector<uint64_t> mem;   ///< per memory
};

/// Assigns bits in order: input ports, then register clock nodes in
/// first-use order, then memories. Every argument's mask is a subset of
/// its node's mask.
SourceDomains source_domains(const Netlist& nl);

/// Every evaluated node (all but Const and Input) in settle order:
/// blocks of equal source mask, run in (popcount, mask) order, each in
/// node-index order. An argument's mask is a subset of its node's mask,
/// so the argument sits earlier in the same block or in a block with
/// fewer bits: the order is topological, and one pass that skips the
/// blocks whose mask misses the dirty bits settles like an index-ordered
/// pass over every node.
std::vector<uint32_t> settle_order(const Netlist& nl,
                                   const SourceDomains& dom);

/// Registers latched by one clock node: they commit together, and the
/// domain bit they share marks their RegQ nodes dirty.
struct ClockDomain {
    uint32_t clock = 0;
    uint64_t bit = 0;
    std::vector<uint32_t> regs;
};

/// One entry per distinct register clock node, in first-use order
/// (registers that never latch belong to none).
std::vector<ClockDomain> clock_domains(const Netlist& nl,
                                       const SourceDomains& dom);

} // namespace cascade::fpga

#endif // CASCADE_FPGA_SOURCE_DOMAINS_H
