/// \file
/// Netlist → C++ lowering for the native JIT tier. generate_source emits a
/// self-contained translation unit (no cascade headers) that implements the
/// netlist with the exact semantics of fpga::Bitstream — straight-line
/// blocks of nodes grouped by source domain (fpga/source_domains.h), each
/// run only when a source it reads changed, word-level ops on the ≤64-bit
/// fast path, and one straight-line latch section per clock domain in
/// step() — behind a flat extern "C" ABI (see kJitAbiVersion in
/// jit_cache.h). The emitted
/// source deliberately mirrors Bitstream::eval_comb / Bitstream::step and
/// the BitVector op definitions bit for bit, so the differential suite can
/// require byte-identical outputs across all three tiers.

#ifndef CASCADE_JIT_CODEGEN_H
#define CASCADE_JIT_CODEGEN_H

#include <string>

#include "fpga/netlist.h"

namespace cascade::jit {

/// The generated translation unit, minus the digest symbol (the builder
/// digests this text and appends `cascade_jit_digest` afterwards, so the
/// kernel is content-addressed by its own source).
std::string generate_source(const fpga::Netlist& nl);

} // namespace cascade::jit

#endif // CASCADE_JIT_CODEGEN_H
