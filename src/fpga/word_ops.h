/// \file
/// The flat word layout and word-level op semantics shared by the two
/// netlist evaluators that keep their state as uint64_t words: the
/// Bitstream's tape and the generated JIT kernel. Every node value, every
/// register and every memory element lives at a fixed word offset
/// (Layout). The op helpers are defined once, in fpga/word_ops.inc:
/// included here they are host code (namespace word_ops), and jit/codegen
/// embeds the same file as text in every kernel it emits.

#ifndef CASCADE_FPGA_WORD_OPS_H
#define CASCADE_FPGA_WORD_OPS_H

#include <cstdint>
#include <vector>

#include "fpga/netlist.h"

namespace cascade::fpga {

inline uint32_t
words_of(uint32_t width)
{
    return (width + 63) / 64;
}

/// Mask of the valid bits in the top word of a \p width bit value.
inline uint64_t
topmask(uint32_t width)
{
    const uint32_t r = width % 64;
    return r == 0 ? ~uint64_t{0} : ((uint64_t{1} << r) - 1);
}

/// Mask of a width<=64 value within one word.
inline uint64_t
fullmask(uint32_t width)
{
    return width >= 64 ? ~uint64_t{0} : ((uint64_t{1} << width) - 1);
}

/// Word offsets of a netlist's state in three flat arrays: node values
/// (v), registers (r) and memories (m, element-major).
struct Layout {
    std::vector<uint32_t> voff;   ///< node id -> offset into v
    std::vector<uint32_t> roff;   ///< reg index -> offset into r
    std::vector<uint32_t> rwords; ///< reg index -> words
    std::vector<uint32_t> moff;   ///< mem index -> base offset into m
    std::vector<uint32_t> ew;     ///< mem index -> words per element
    uint32_t vtotal = 0;
    uint32_t rtotal = 0;
    uint32_t mtotal = 0;
    uint32_t maxw = 1; ///< widest value, in words (the scratch bound)
};

Layout compute_layout(const Netlist& nl);

/// True when node \p n and all of its argument values fit in one word:
/// both evaluators then take the scalar path for it.
bool is_scalar(const Netlist& nl, const Node& n);

/// The op helpers as host code. Their scratch arrays hold kMaxWords
/// words, so a host caller takes the multi-word path only for values of
/// at most kMaxWords words.
namespace word_ops {
using u64 = uint64_t;
using u32 = uint32_t;
inline constexpr u32 kMaxWords = 64;
#define JIT_MAXW kMaxWords
#define CASCADE_WORD_OP(...) __VA_ARGS__
// GCC cannot see that wdivs/wrems fill their scratch over the same word
// count they read it back with.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#include "fpga/word_ops.inc"
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#undef CASCADE_WORD_OP
#undef JIT_MAXW
} // namespace word_ops

} // namespace cascade::fpga

#endif // CASCADE_FPGA_WORD_OPS_H
