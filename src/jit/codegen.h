/// \file
/// Netlist → C++ lowering for the native JIT tier. generate_units emits a
/// kernel as several self-contained translation units (no cascade
/// headers) that the builder compiles concurrently and links into one
/// shared object (jit_cache.h). The kernel implements the netlist with
/// the exact semantics of fpga::Bitstream — straight-line blocks of nodes
/// grouped by source domain (fpga/source_domains.h), each run only when a
/// source it reads changed, word-level ops on the ≤64-bit fast path, and
/// one straight-line latch section per clock domain in step() — behind a
/// flat extern "C" ABI (see kJitAbiVersion in jit_cache.h): create, free,
/// eval, step, latch counts, and one entry that hands the host the State
/// words, whose ports, registers and memories fpga::FabricExec reads and
/// writes at the offsets of fpga::compute_layout. The emitted
/// source deliberately mirrors Bitstream::eval_comb / Bitstream::step and
/// the BitVector op definitions bit for bit, and carries as text the same
/// word-op helpers (fpga/word_ops.inc) the Bitstream runs as host code,
/// so the differential suite can require byte-identical outputs across
/// all three tiers.
///
/// The split is a fixed rule of the netlist, never of the host, so a
/// kernel's digest does not depend on the core count: one unit per eval_N
/// function (at most 256 nodes each), one for step(), and one for the
/// init and latch-domain tables, the eval() dispatcher, init() and the
/// ABI. Each unit repeats the State definition and carries the word-op
/// helpers it calls (with the helpers those call) and no others; the
/// functions one unit calls in another have hidden visibility, so the
/// shared object exports only the cascade_jit_* ABI.
///
/// Every node value has a word in State::v, but a one-word value whose
/// readers all sit later in its own gated block of one eval_N is emitted
/// as a `const u64` local of that block and never stored. Values read by
/// another block, by step(), by the host (outputs) or through a multi-word
/// helper's pointer are stored, and so are multi-word values and memory
/// reads. Locals spare the system compiler its alias walks over 256
/// dependent stores per function, which took about half of a unit's
/// compile time. The kernel allocates State with calloc and references
/// nothing of the C++ runtime.
///
/// Logic that depends on one narrow value is a table. A node's base is the
/// one non-constant node it is a function of, when that node is at most 8
/// bits wide: an input, a register, a memory read, or a node with several
/// sources. Where a base's cone drops at least 4 nodes per table, codegen
/// evaluates the cone once for every base value with fpga::eval_node (the
/// reference semantics constant folding uses) and emits each root, a cone
/// node that something outside the cone reads, as `T<n>[V[base]]`; the
/// other cone nodes leave the settle order. Bases stay stored in V, and
/// values wider than 64 bits are never tabulated. The header comment
/// counts the tables and the nodes they drop (`tables=`, `tabulated=`).
/// On the wrapped SHA-256 miner the 6-bit round counter's cone (the
/// 64-arm K-constant case, the message schedule's indices, the round
/// compares) drops 328 of 845 evaluated nodes behind 12 tables; the regex
/// matcher builds none. The netlist, and so the Bitstream, is untouched.

#ifndef CASCADE_JIT_CODEGEN_H
#define CASCADE_JIT_CODEGEN_H

#include <string>
#include <vector>

#include "fpga/netlist.h"

namespace cascade::jit {

/// The kernel's translation units: [0] is the ABI unit, [1] holds step(),
/// and [2 + k] holds eval_k. The digest symbol is not in them (the
/// builder digests the units and appends `cascade_jit_digest` to the ABI
/// unit, so the kernel is content-addressed by its own source).
std::vector<std::string> generate_units(const fpga::Netlist& nl);

/// Every unit of generate_units, concatenated in order: the whole kernel
/// text, for callers that time or inspect codegen on its own.
std::string generate_source(const fpga::Netlist& nl);

} // namespace cascade::jit

#endif // CASCADE_JIT_CODEGEN_H
