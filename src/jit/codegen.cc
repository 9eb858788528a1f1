#include "jit/codegen.h"

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <map>
#include <sstream>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/check.h"
#include "fpga/source_domains.h"
#include "fpga/word_ops.h"
#include "jit/jit_cache.h"

namespace cascade::jit {

namespace {

using fpga::ClockDomain;
using fpga::fullmask;
using fpga::Layout;
using fpga::Netlist;
using fpga::Node;
using fpga::Op;
using fpga::topmask;
using fpga::words_of;

std::string
hex(uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%" PRIx64 "ull", v);
    return buf;
}

/// The shared word-op helpers (fpga/word_ops.inc) as emitted text, one
/// line each, in definition order: a helper calls only helpers before it.
/// JIT_MAXW bounds every scratch array.
const char* const kHelperText[] = {
#define CASCADE_WORD_OP(...) #__VA_ARGS__,
#include "fpga/word_ops.inc"
#undef CASCADE_WORD_OP
};
constexpr size_t kHelpers = std::size(kHelperText);

/// The identifiers \p text calls: each one that '(' directly follows.
std::unordered_set<std::string>
calls_in(std::string_view text)
{
    const auto ident = [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
    };
    std::unordered_set<std::string> out;
    for (size_t k = 0; k < text.size();) {
        if (!ident(text[k])) {
            ++k;
            continue;
        }
        const size_t start = k;
        while (k < text.size() && ident(text[k])) {
            ++k;
        }
        if (k < text.size() && text[k] == '(') {
            out.emplace(text.substr(start, k - start));
        }
    }
    return out;
}

/// The helpers \p code calls and the helpers those call, as emitted text
/// in definition order.
std::string
helpers_for(std::string_view code)
{
    std::unordered_set<std::string> called = calls_in(code);
    std::vector<bool> need(kHelpers, false);
    // A helper calls only helpers before it: one backward pass closes the
    // set.
    for (size_t k = kHelpers; k-- > 0;) {
        // "inline <type> <name>(...": the name ends at the first '('.
        const std::string_view text = kHelperText[k];
        const size_t paren = text.find('(');
        const size_t start = text.rfind(' ', paren) + 1;
        if (called.count(std::string(text.substr(start, paren - start)))) {
            need[k] = true;
            called.merge(calls_in(text));
        }
    }
    std::string out;
    for (size_t k = 0; k < kHelpers; ++k) {
        if (need[k]) {
            out += kHelperText[k];
            out += '\n';
        }
    }
    return out;
}

/// True when node \p n can be a `const u64 vN` local: its one-word value
/// is assigned by a single expression (see emit_node). Multi-word values
/// and MemRead results always live in V.
bool
local_candidate(const Netlist& nl, const Node& n)
{
    return fpga::is_scalar(nl, n) && n.op != Op::Const &&
           n.op != Op::Input && n.op != Op::MemRead;
}

/// True when emit_node reads argument \p k of node \p n by value (`A`)
/// rather than through a pointer into V (`AP`, the multi-word helpers).
bool
reads_by_value(const Netlist& nl, const Node& n, size_t k)
{
    if (fpga::is_scalar(nl, n) || n.op == Op::MemRead) {
        return true;
    }
    switch (n.op) {
      case Op::Shl:
      case Op::Lshr:
      case Op::Ashr:
      case Op::DynSlice:
        return k == 1; // the shift amount or offset
      default:
        return false;
    }
}

/// Marks a node that no table covers (Tabulation::base).
constexpr uint32_t kNoBase = ~0u;

/// Emits the evaluation statement(s) for one node into \p os. `V` is the
/// node-value word array; offsets come from the layout. A node marked in
/// \p local is a `const u64 vN` of its block instead, and so is an
/// argument marked there. A table root (\p base is not kNoBase) is one
/// lookup in its table `T<i>`, indexed by its base's word.
void
emit_node(std::ostream& os, const Netlist& nl, const Layout& L,
          const std::vector<bool>& local, uint32_t base, uint32_t i)
{
    const Node& n = nl.nodes[i];
    const uint32_t d = L.voff[i];
    const uint32_t W = n.width;
    const uint32_t NW = words_of(W);
    // Built by appending: GCC 12 at -O3 reports a false -Wrestrict
    // overlap for `"V[" + std::to_string(...)` here.
    auto A = [&](size_t k) {
        const uint32_t a = n.args[k];
        std::string s = local[a] ? "v" : "V[";
        s += std::to_string(local[a] ? a : L.voff[a]);
        if (!local[a]) {
            s += ']';
        }
        return s;
    };
    auto AP = [&](size_t k) {
        CASCADE_CHECK(!local[n.args[k]]);
        return "&V[" + std::to_string(L.voff[n.args[k]]) + "]";
    };
    auto aw = [&](size_t k) { return nl.nodes[n.args[k]].width; };
    auto D = [&] {
        return local[i] ? "const u64 v" + std::to_string(i)
                        : "V[" + std::to_string(d) + "]";
    };
    auto DP = [&] {
        CASCADE_CHECK(!local[i]);
        return "&V[" + std::to_string(d) + "]";
    };
    const std::string M = hex(fullmask(W));

    if (base != kNoBase) {
        // The mask keeps the index inside the table whatever the base's
        // producer stored above its width.
        os << "    " << D() << " = T" << i << "[V[" << L.voff[base]
           << "] & " << hex(fullmask(nl.nodes[base].width)) << "];\n";
        return;
    }
    switch (n.op) {
      case Op::Const:
      case Op::Input:
        return; // set by init / set_input; never re-evaluated
      case Op::RegQ: {
        const uint32_t r = n.aux;
        if (NW == 1) {
            os << "    " << D() << " = S->r[" << L.roff[r] << "];\n";
        } else {
            os << "    wcopy(" << DP() << ", &S->r[" << L.roff[r] << "], "
               << NW << ");\n";
        }
        return;
      }
      case Op::MemRead: {
        const fpga::MemDef& mem = nl.mems[n.aux];
        const uint32_t ew = L.ew[n.aux];
        os << "    { const u64 a_ = " << A(0) << ";\n";
        if (ew == 1 && NW == 1) {
            os << "      " << D() << " = a_ < " << mem.size << "ull ? S->m["
               << L.moff[n.aux] << " + a_] : 0; }\n";
        } else {
            os << "      if (a_ < " << mem.size << "ull) wcopy(" << DP()
               << ", &S->m[" << L.moff[n.aux] << " + a_ * " << ew << "], "
               << ew << ");\n"
               << "      else wzero(" << DP() << ", " << NW << "); }\n";
        }
        return;
      }
      default:
        break;
    }

    if (fpga::is_scalar(nl, n)) {
        std::string e;
        switch (n.op) {
          case Op::Not:
            e = "(~" + A(0) + ") & " + M;
            break;
          case Op::And:
            e = A(0) + " & " + A(1);
            break;
          case Op::Or:
            e = A(0) + " | " + A(1);
            break;
          case Op::Xor:
            e = A(0) + " ^ " + A(1);
            break;
          case Op::Add:
            e = "(" + A(0) + " + " + A(1) + ") & " + M;
            break;
          case Op::Sub:
            e = "(" + A(0) + " - " + A(1) + ") & " + M;
            break;
          case Op::Mul:
            e = "(" + A(0) + " * " + A(1) + ") & " + M;
            break;
          case Op::Divu:
            e = A(1) + " ? " + A(0) + " / " + A(1) + " : 0";
            break;
          case Op::Remu:
            e = A(1) + " ? " + A(0) + " % " + A(1) + " : 0";
            break;
          case Op::Divs:
            e = "sdivs(" + A(0) + ", " + A(1) + ", " + std::to_string(W) +
                ", " + M + ")";
            break;
          case Op::Rems:
            e = "srems(" + A(0) + ", " + A(1) + ", " + std::to_string(W) +
                ", " + M + ")";
            break;
          case Op::Pow:
            e = "spow(" + A(0) + ", " + A(1) + ", " + M + ", " +
                std::to_string(aw(1)) + ")";
            break;
          case Op::Eq:
            e = "(u64)(" + A(0) + " == " + A(1) + ")";
            break;
          case Op::Ult:
            e = "(u64)(" + A(0) + " < " + A(1) + ")";
            break;
          case Op::Slt:
            e = "(u64)(ssext(" + A(0) + ", " + std::to_string(aw(0)) +
                ") < ssext(" + A(1) + ", " + std::to_string(aw(1)) + "))";
            break;
          case Op::Shl:
            e = "sshl(" + A(0) + ", " + std::to_string(W) + ", " + M + ", " +
                A(1) + ")";
            break;
          case Op::Lshr:
            e = "slshr(" + A(0) + ", " + std::to_string(W) + ", " + A(1) +
                ")";
            break;
          case Op::Ashr:
            e = "sashr(" + A(0) + ", " + std::to_string(W) + ", " + M +
                ", " + A(1) + ")";
            break;
          case Op::Mux:
            e = A(0) + " ? " + A(1) + " : " + A(2);
            break;
          case Op::Concat: {
            e = A(0);
            for (size_t k = 1; k < n.args.size(); ++k) {
                e = "((" + e + " << " + std::to_string(aw(k)) + ") | " +
                    A(k) + ")";
            }
            break;
          }
          case Op::Slice:
            if (n.aux >= aw(0)) {
                e = "0";
            } else {
                e = "(" + A(0) + " >> " + std::to_string(n.aux) + ") & " + M;
            }
            break;
          case Op::DynSlice:
            e = "(" + A(1) + " < 64 ? " + A(0) + " >> " + A(1) + " : 0) & " +
                M;
            break;
          case Op::ReduceAnd:
            e = "(u64)(" + A(0) + " == " + hex(fullmask(aw(0))) + ")";
            break;
          case Op::ReduceOr:
            e = "(u64)(" + A(0) + " != 0)";
            break;
          case Op::ReduceXor:
            e = "(u64)__builtin_parityll(" + A(0) + ")";
            break;
          case Op::ZExt:
            e = A(0) + " & " + M;
            break;
          case Op::SExt:
            if (W > aw(0)) {
                const uint64_t ext = fullmask(W) & ~fullmask(aw(0));
                e = A(0) + " | (((" + A(0) + " >> " +
                    std::to_string(aw(0) - 1) + ") & 1) ? " + hex(ext) +
                    " : 0)";
            } else {
                e = A(0) + " & " + M;
            }
            break;
          default:
            CASCADE_CHECK(false);
        }
        os << "    " << D() << " = " << e << ";\n";
        return;
    }

    // Wide path: word-array helpers mirroring BitVector ops.
    const std::string Ws = std::to_string(W);
    switch (n.op) {
      case Op::Not:
        os << "    wnot(" << DP() << ", " << AP(0) << ", " << Ws << ");\n";
        break;
      case Op::And:
        os << "    wand_(" << DP() << ", " << AP(0) << ", " << AP(1) << ", "
           << NW << ");\n";
        break;
      case Op::Or:
        os << "    wor_(" << DP() << ", " << AP(0) << ", " << AP(1) << ", "
           << NW << ");\n";
        break;
      case Op::Xor:
        os << "    wxor_(" << DP() << ", " << AP(0) << ", " << AP(1) << ", "
           << NW << ");\n";
        break;
      case Op::Add:
        os << "    wadd(" << DP() << ", " << AP(0) << ", " << AP(1) << ", "
           << Ws << ");\n";
        break;
      case Op::Sub:
        os << "    wsub(" << DP() << ", " << AP(0) << ", " << AP(1) << ", "
           << Ws << ");\n";
        break;
      case Op::Mul:
        os << "    wmul(" << DP() << ", " << AP(0) << ", " << AP(1) << ", "
           << Ws << ");\n";
        break;
      case Op::Divu:
        os << "    wdivu(" << DP() << ", " << AP(0) << ", " << AP(1) << ", "
           << Ws << ");\n";
        break;
      case Op::Remu:
        os << "    wremu(" << DP() << ", " << AP(0) << ", " << AP(1) << ", "
           << Ws << ");\n";
        break;
      case Op::Divs:
        os << "    wdivs(" << DP() << ", " << AP(0) << ", " << AP(1) << ", "
           << Ws << ");\n";
        break;
      case Op::Rems:
        os << "    wrems(" << DP() << ", " << AP(0) << ", " << AP(1) << ", "
           << Ws << ");\n";
        break;
      case Op::Pow:
        os << "    wpow(" << DP() << ", " << AP(0) << ", " << AP(1) << ", "
           << Ws << ", " << aw(1) << ");\n";
        break;
      case Op::Eq:
        os << "    " << D() << " = (u64)weq(" << AP(0) << ", " << AP(1)
           << ", " << words_of(aw(0)) << ");\n";
        break;
      case Op::Ult:
        os << "    " << D() << " = (u64)wult(" << AP(0) << ", " << AP(1)
           << ", " << words_of(aw(0)) << ");\n";
        break;
      case Op::Slt:
        os << "    " << D() << " = (u64)wslt(" << AP(0) << ", " << AP(1)
           << ", " << aw(0) << ");\n";
        break;
      case Op::Shl:
        os << "    wshl(" << DP() << ", " << AP(0) << ", " << Ws << ", "
           << A(1) << ");\n";
        break;
      case Op::Lshr:
        os << "    wlshr(" << DP() << ", " << AP(0) << ", " << Ws << ", "
           << A(1) << ");\n";
        break;
      case Op::Ashr:
        os << "    washr(" << DP() << ", " << AP(0) << ", " << Ws << ", "
           << A(1) << ");\n";
        break;
      case Op::Mux:
        os << "    if (wbool(" << AP(0) << ", " << words_of(aw(0))
           << ")) wcopy(" << DP() << ", " << AP(1) << ", " << NW
           << "); else wcopy(" << DP() << ", " << AP(2) << ", " << NW
           << ");\n";
        break;
      case Op::Concat: {
        os << "    wzero(" << DP() << ", " << NW << ");\n";
        uint64_t pos = 0;
        for (size_t k = n.args.size(); k-- > 0;) {
            os << "    winsert(" << DP() << ", " << Ws << ", " << pos << ", "
               << AP(k) << ", " << aw(k) << ");\n";
            pos += aw(k);
        }
        break;
      }
      case Op::Slice:
        os << "    wslice(" << DP() << ", " << Ws << ", " << AP(0) << ", "
           << aw(0) << ", " << n.aux << "ull);\n";
        break;
      case Op::DynSlice:
        os << "    wslice(" << DP() << ", " << Ws << ", " << AP(0) << ", "
           << aw(0) << ", " << A(1) << ");\n";
        break;
      case Op::ReduceAnd:
        os << "    " << D() << " = (u64)wredand(" << AP(0) << ", " << aw(0)
           << ");\n";
        break;
      case Op::ReduceOr:
        os << "    " << D() << " = (u64)wbool(" << AP(0) << ", "
           << words_of(aw(0)) << ");\n";
        break;
      case Op::ReduceXor:
        os << "    " << D() << " = (u64)wredxor(" << AP(0) << ", "
           << words_of(aw(0)) << ");\n";
        break;
      case Op::ZExt:
        os << "    wzext(" << DP() << ", " << Ws << ", " << AP(0) << ", "
           << aw(0) << ");\n";
        break;
      case Op::SExt:
        os << "    wsext(" << DP() << ", " << Ws << ", " << AP(0) << ", "
           << aw(0) << ");\n";
        break;
      default:
        CASCADE_CHECK(false);
    }
}

/// Emits `name[] = {v0, v1, ...};` (with a dummy 0 for empty lists, since
/// zero-length arrays are ill-formed).
template <typename T>
void
emit_table(std::ostream& os, const char* type, const char* name,
           const std::vector<T>& vals)
{
    os << "static const " << type << " " << name << "[] = {";
    if (vals.empty()) {
        os << "0";
    } else {
        for (size_t i = 0; i < vals.size(); ++i) {
            os << (i ? ", " : "") << vals[i];
            if (std::string(type) == "u64") {
                os << "ull";
            }
        }
    }
    os << "};\n";
}

/// Most nodes emitted into one generated function. The system compiler's
/// optimizer time grows faster than linearly with function size, so the
/// settle pass is split into functions of at most this many nodes to keep
/// kernel builds fast. On the Fig. 10-wrapped SHA-256 miner (918
/// evaluated nodes, block-local values as locals, g++ -O1, one job at a
/// time on a 4-core x86-64 host) an eval_N unit compiled in 50-70 ms at
/// 128 nodes, 70-140 ms at 256, 120-190 ms at 512, and the whole pass as
/// one function in 950 ms. With one compiler job per core, 256 keeps the
/// slowest unit near the ABI and step() units without multiplying units.
constexpr size_t kMaxFnNodes = 256;

/// Widest base a table is indexed by: at most 256 entries per table.
constexpr uint32_t kMaxBaseWidth = 8;

/// Fewest nodes a base's tables must drop from the settle order per table
/// they add. A lookup is one dependent load, so a table pays only for a
/// cone of several nodes. On the Fig. 10-wrapped SHA-256 miner every
/// threshold from 1 to 16 builds the same 12 tables (round's cone drops
/// 328 nodes). The wrapped regex matcher's cones are small: thresholds 1
/// and 2 build 17 and 9 tables there, and its refill tick
/// (BM_WrappedRegexJitRefillCycle, best of 3 on a shared 4-core x86-64
/// host) read 291 and 340 ns per byte against 292 ns at 4, which builds
/// none. At 4 its kernel text stays as it was.
constexpr size_t kMinDroppedPerTable = 4;

/// The narrow cones the kernel evaluates by table lookup. A node's base
/// is the one non-constant node it is a function of, when that node is at
/// most kMaxBaseWidth bits wide: an input, a register, a memory read, or a
/// node with several sources. A covered node is a root when something
/// outside its base's cone reads it: a node of another cone or of none, a
/// register's next value or clock, a write port or an output. Roots are
/// looked up in their table; the other covered nodes leave the settle
/// order.
struct Tabulation {
    std::vector<uint32_t> base; ///< per node: its base if covered, else kNoBase
    std::vector<bool> root;     ///< per node: a covered node that is a root
    /// Per root: its value for each value of its base.
    std::map<uint32_t, std::vector<uint64_t>> table;
    size_t dropped = 0; ///< covered nodes that are not roots
};

Tabulation
tabulate(const Netlist& nl)
{
    const uint32_t N = static_cast<uint32_t>(nl.nodes.size());
    // src[i]: the one non-constant node node i is a function of; i itself
    // for a source or a node of several. Arguments precede their readers.
    constexpr uint32_t kConstant = ~0u;
    std::vector<uint32_t> src(N, kConstant);
    for (uint32_t i = 0; i < N; ++i) {
        const Node& n = nl.nodes[i];
        if (n.op == Op::Const) {
            continue;
        }
        uint32_t s = kConstant;
        if (n.op != Op::Input && n.op != Op::RegQ && n.op != Op::MemRead) {
            for (uint32_t a : n.args) {
                CASCADE_CHECK(a < i);
                if (src[a] != kConstant && src[a] != s) {
                    s = s == kConstant ? src[a] : i;
                }
            }
        }
        src[i] = s == kConstant ? i : s;
    }

    // Each narrow base's cone, in index order. Values wider than one word
    // are evaluated with it but never covered: they stay in the settle
    // order, and the covered nodes they read become roots.
    Tabulation t;
    t.base.assign(N, kNoBase);
    t.root.assign(N, false);
    std::map<uint32_t, std::vector<uint32_t>> cones;
    for (uint32_t i = 0; i < N; ++i) {
        const uint32_t b = src[i];
        if (b != kConstant && b != i && nl.nodes[b].width <= kMaxBaseWidth) {
            cones[b].push_back(i);
            if (nl.nodes[i].width <= 64) {
                t.base[i] = b;
            }
        }
    }
    const auto read_by = [&](uint32_t node, uint32_t reader_base) {
        if (t.base[node] != kNoBase && t.base[node] != reader_base) {
            t.root[node] = true;
        }
    };
    for (uint32_t i = 0; i < N; ++i) {
        for (uint32_t a : nl.nodes[i].args) {
            read_by(a, t.base[i]);
        }
    }
    for (const fpga::RegDef& r : nl.regs) {
        read_by(r.next, kNoBase);
        if (r.clock != fpga::kNoClock) {
            read_by(r.clock, kNoBase);
        }
    }
    for (const fpga::MemWritePort& p : nl.write_ports) {
        for (uint32_t node : {p.addr, p.data, p.enable, p.clock}) {
            read_by(node, kNoBase);
        }
    }
    for (const fpga::PortDef& p : nl.outputs) {
        read_by(p.node, kNoBase);
    }

    // Keep the cones that pay for their tables, and evaluate each once per
    // base value with the reference semantics.
    std::vector<BitVector> val(N);
    std::vector<BitVector> argv;
    for (const auto& [b, cone] : cones) {
        size_t covered = 0;
        size_t roots = 0;
        for (uint32_t i : cone) {
            covered += t.base[i] != kNoBase;
            roots += t.root[i];
        }
        if (roots == 0 || covered - roots < kMinDroppedPerTable * roots) {
            for (uint32_t i : cone) {
                t.base[i] = kNoBase;
                t.root[i] = false;
            }
            continue;
        }
        t.dropped += covered - roots;
        const uint32_t w = nl.nodes[b].width;
        for (uint64_t x = 0; x < (uint64_t{1} << w); ++x) {
            val[b] = BitVector(w, x);
            for (uint32_t i : cone) {
                argv.clear();
                for (uint32_t a : nl.nodes[i].args) {
                    argv.push_back(nl.nodes[a].op == Op::Const
                                       ? nl.nodes[a].cval
                                       : val[a]);
                }
                val[i] = fpga::eval_node(nl.nodes[i], argv);
                if (t.root[i]) {
                    t.table[i].push_back(val[i].word(0));
                }
            }
        }
    }
    return t;
}

} // namespace

std::vector<std::string>
generate_units(const Netlist& nl)
{
    const Layout L = fpga::compute_layout(nl);
    const fpga::SourceDomains dom = fpga::source_domains(nl);
    const std::vector<ClockDomain> clocks = fpga::clock_domains(nl, dom);

    // Every evaluated node in settle order, less the nodes the tables
    // cover: one gated pass settles exactly like Bitstream::eval_comb.
    const Tabulation tab = tabulate(nl);
    std::vector<uint32_t> order;
    for (uint32_t i : fpga::settle_order(nl, dom)) {
        if (tab.base[i] == kNoBase || tab.root[i]) {
            order.push_back(i);
        }
    }
    size_t blocks = 0;
    for (size_t k = 0; k < order.size(); ++k) {
        blocks += k == 0 || dom.node[order[k]] != dom.node[order[k - 1]];
    }

    // --- Shared prefix: helpers, State, the cross-unit functions ----------
    // Every unit starts with it, and carries only the helpers it calls.
    // The functions one unit calls in another are extern "C" with hidden
    // visibility: they link inside the shared object, and only the
    // cascade_jit_* ABI is exported from it.
    std::ostringstream head;
    head << "// Generated by cascade jit::generate_units: one translation\n"
            "// unit of a kernel (the ABI unit, step(), or one eval_N), all\n"
            "// linked into one shared object. Domain-gated straight-line\n"
            "// evaluation with Bitstream-identical semantics behind the\n"
            "// cascade_jit_* ABI.\n"
            "// nodes=" << nl.nodes.size() << " regs=" << nl.regs.size()
         << " mems=" << nl.mems.size() << " blocks=" << blocks
         << " clocks=" << clocks.size() << " tables=" << tab.table.size()
         << " tabulated=" << tab.dropped << "\n"
         << "#define JIT_MAXW " << L.maxw << "\n"
         // The compiler's own width macros instead of <cstdint>, whose
         // parse cost is paid by every unit; they name the same types.
         << "\ntypedef __UINT64_TYPE__ u64;\n"
            "typedef __UINT32_TYPE__ u32;\n"
            "typedef __INT64_TYPE__ int64_t;\n\nnamespace {\n\n";
    std::ostringstream state;
    state << "\n} // namespace\n"
          << "\nstruct State {\n"
          << "    u64 v[" << std::max<uint32_t>(1, L.vtotal) << "];\n"
          << "    u64 r[" << std::max<uint32_t>(1, L.rtotal) << "];\n"
          << "    u64 m[" << std::max<uint32_t>(1, L.mtotal) << "];\n"
          << "    u64 latch[" << std::max<size_t>(1, clocks.size())
          << "]; // commits per clock domain\n"
          << "    u64 cycles;\n"
          << "    u64 dirty; // source-domain bits changed since the last "
             "eval\n"
          << "    unsigned char pc[" << std::max<size_t>(1, clocks.size())
          << "]; // previous level per clock domain\n"
          << "    unsigned char ppc["
          << std::max<size_t>(1, nl.write_ports.size())
          << "]; // previous level per memory write port\n"
          << "};\n\n"
          << "#define JIT_INTERNAL extern \"C\" "
             "__attribute__((visibility(\"hidden\")))\n"
          << "JIT_INTERNAL void eval(State* S);\n"
          << "JIT_INTERNAL void step(State* S);\n\n";
    const auto unit = [head = head.str(),
                       state = state.str()](const std::string& code) {
        return head + helpers_for(code) + state + code;
    };

    // units[0] is the ABI unit and units[1] holds step(); the eval_N
    // units follow in function order.
    std::vector<std::string> units(2);
    std::ostringstream os; // the ABI unit
    // calloc and free: the kernel uses nothing of the C++ runtime, so it
    // links without it (jit_cache.cc).
    os << "#include <stdlib.h>\n\n";

    // Every register of a clock domain latches on each of its commits, so
    // one count per domain serves them all (~0u: never latches).
    std::vector<uint32_t> reg_domain(nl.regs.size(), ~0u);
    for (size_t k = 0; k < clocks.size(); ++k) {
        for (uint32_t r : clocks[k].regs) {
            reg_domain[r] = static_cast<uint32_t>(k);
        }
    }
    emit_table(os, "u32", "g_reg_domain", reg_domain);

    // --- Combinational evaluation: gated blocks, bounded functions -------
    // Each function runs the blocks whose mask meets the dirty bits eval()
    // captured; eval() skips a function none of whose blocks is dirty.
    // Each function is its own unit.
    //
    // A one-word node whose readers all sit later in its own block (a run
    // of one mask within one function) is a `const u64 vN` local of that
    // block: the system compiler then keeps it in a register instead of
    // walking every V[] store for aliases. The rest are stored to V, and
    // so is every value read outside the eval functions: by step() and
    // init() (clocks, next values, write ports) or by the host (outputs).
    std::vector<uint32_t> block_of(nl.nodes.size(), ~0u);
    for (size_t k = 0, b = 0; k < order.size(); ++k) {
        b += k != 0 && (k % kMaxFnNodes == 0 ||
                        dom.node[order[k]] != dom.node[order[k - 1]]);
        block_of[order[k]] = static_cast<uint32_t>(b);
    }
    // The settle order is topological, so every argument's flag is set
    // before its readers can clear it.
    std::vector<bool> local(nl.nodes.size(), false);
    for (uint32_t i : order) {
        const Node& n = nl.nodes[i];
        local[i] = local_candidate(nl, n);
        if (tab.base[i] != kNoBase) {
            local[tab.base[i]] = false; // a root reads only its base
            continue;
        }
        for (size_t k = 0; k < n.args.size(); ++k) {
            if (block_of[n.args[k]] != block_of[i] ||
                !reads_by_value(nl, n, k)) {
                local[n.args[k]] = false;
            }
        }
    }
    for (const fpga::RegDef& r : nl.regs) {
        local[r.next] = false;
        if (r.clock != fpga::kNoClock) {
            local[r.clock] = false;
        }
    }
    for (const fpga::MemWritePort& p : nl.write_ports) {
        for (uint32_t node : {p.addr, p.data, p.enable, p.clock}) {
            local[node] = false;
        }
    }
    for (const fpga::PortDef& p : nl.outputs) {
        local[p.node] = false;
    }

    std::vector<std::pair<std::string, uint64_t>> fns;
    {
        std::ostringstream body;
        std::ostringstream tables; // the tables of the function's roots
        size_t in_fn = 0;
        uint64_t fn_mask = 0;
        uint64_t open = 0; // mask of the open block (0: none)
        const auto close_fn = [&] {
            if (in_fn == 0) {
                return;
            }
            const std::string name = "eval_" + std::to_string(fns.size());
            units.push_back(unit(tables.str() + "JIT_INTERNAL void " + name +
                                 "(State* S, u64 d) {\n"
                                 "    u64* const V = S->v;\n" +
                                 body.str() + "    }\n}\n"));
            fns.emplace_back(name, fn_mask);
            body.str("");
            tables.str("");
            in_fn = 0;
            fn_mask = 0;
            open = 0;
        };
        for (uint32_t i : order) {
            if (in_fn == kMaxFnNodes) {
                close_fn();
            }
            const uint64_t mask = dom.node[i];
            if (mask != open) {
                body << (open != 0 ? "    }\n" : "") << "    if (d & "
                     << hex(mask) << ") {\n";
                open = mask;
                fn_mask |= mask;
            }
            if (tab.root[i]) {
                emit_table(tables, "u64", ("T" + std::to_string(i)).c_str(),
                           tab.table.at(i));
            }
            emit_node(body, nl, L, local, tab.base[i], i);
            ++in_fn;
        }
        close_fn();
    }
    for (const auto& [name, mask] : fns) {
        os << "JIT_INTERNAL void " << name << "(State* S, u64 d);\n";
    }
    os << "JIT_INTERNAL void eval(State* S) {\n"
       << "    const u64 d = S->dirty;\n"
       << "    S->dirty = 0;\n"
       << "    (void)d;\n";
    for (const auto& [name, mask] : fns) {
        os << "    if (d & " << hex(mask) << ") " << name << "(S, d);\n";
    }
    os << "}\n\n";

    // --- step(): Bitstream::step's latch cascade -------------------------
    // One straight-line section per clock domain and per memory write
    // port. Commits write register and memory state, which the node values
    // they read (clocks, next values, ports) do not alias until the next
    // eval(), so no double buffer is needed. A commit marks its domain
    // dirty only if it changed a value.
    std::ostringstream st; // the step() unit
    st << "JIT_INTERNAL void step(State* S) {\n"
       << "    u64* const V = S->v;\n"
       << "    (void)V;\n"
       << "    S->cycles += 1;\n"
       << "    eval(S);\n"
       << "    for (int iter = 0; iter < 8; ++iter) {\n"
       << "        int any = 0;\n";
    for (size_t k = 0; k < clocks.size(); ++k) {
        const ClockDomain& cd = clocks[k];
        st << "        {\n"
           << "            const unsigned char now = (unsigned char)(V["
           << L.voff[cd.clock] << "] & 1);\n"
           << "            if (now && !S->pc[" << k << "]) {\n"
           << "                u64 ch = 0;\n";
        for (uint32_t r : cd.regs) {
            const uint32_t next = nl.regs[r].next;
            const uint32_t cw =
                std::min(words_of(nl.nodes[next].width), L.rwords[r]);
            for (uint32_t w = 0; w < L.rwords[r]; ++w) {
                const std::string q =
                    "S->r[" + std::to_string(L.roff[r] + w) + "]";
                const std::string x =
                    w < cw ? "V[" + std::to_string(L.voff[next] + w) + "]"
                           : std::string("0");
                st << "                ch |= " << q << " ^ " << x << "; "
                   << q << " = " << x << ";\n";
            }
        }
        st << "                S->latch[" << k << "] += 1;\n";
        st << "                if (ch) S->dirty |= " << hex(cd.bit) << ";\n"
           << "                any = 1;\n"
           << "            }\n"
           << "            S->pc[" << k << "] = now;\n"
           << "        }\n";
    }
    for (size_t p = 0; p < nl.write_ports.size(); ++p) {
        const fpga::MemWritePort& port = nl.write_ports[p];
        const uint32_t ew = L.ew[port.mem];
        const uint32_t copyw =
            std::min(words_of(nl.nodes[port.data].width), ew);
        st << "        {\n"
           << "            const unsigned char now = (unsigned char)(V["
           << L.voff[port.clock] << "] & 1);\n"
           << "            if (now && !S->ppc[" << p << "] && wbool(&V["
           << L.voff[port.enable] << "], "
           << words_of(nl.nodes[port.enable].width) << ")) {\n"
           << "                const u64 a_ = V[" << L.voff[port.addr]
           << "];\n"
           << "                if (a_ < " << nl.mems[port.mem].size
           << "ull) {\n"
           << "                    u64* e = &S->m[" << L.moff[port.mem]
           << " + a_ * " << ew << "];\n"
           << "                    wzero(e, " << ew << ");\n"
           << "                    wcopy(e, &V[" << L.voff[port.data]
           << "], " << copyw << ");\n"
           << "                    e[" << (ew - 1) << "] &= "
           << hex(topmask(nl.mems[port.mem].width)) << ";\n"
           << "                    S->dirty |= " << hex(dom.mem[port.mem])
           << ";\n"
           << "                }\n"
           << "                any = 1;\n"
           << "            }\n"
           << "            S->ppc[" << p << "] = now;\n"
           << "        }\n";
    }
    st << "        if (!any) break;\n"
       << "        eval(S);\n"
       << "    }\n"
       << "}\n\n";

    // --- init(): Bitstream's constructor ---------------------------------
    // The nonzero words of the constants and of the register and memory
    // initial values, as (offset, word) tables that one loop per state
    // array stores: tables compile much faster than a store per word.
    struct InitWords {
        std::vector<uint32_t> at;
        std::vector<uint64_t> word;
        void
        put(uint64_t offset, uint64_t w)
        {
            if (w != 0) {
                at.push_back(static_cast<uint32_t>(offset));
                word.push_back(w);
            }
        }
    } init_v, init_r, init_m;
    for (size_t i = 0; i < nl.nodes.size(); ++i) {
        const Node& n = nl.nodes[i];
        if (n.op != Op::Const) {
            continue;
        }
        for (uint32_t w = 0; w < n.cval.num_words(); ++w) {
            init_v.put(L.voff[i] + w, n.cval.word(w));
        }
    }
    for (size_t r = 0; r < nl.regs.size(); ++r) {
        const BitVector init = nl.regs[r].init.resized(nl.regs[r].width);
        for (uint32_t w = 0; w < L.rwords[r] && w < init.num_words(); ++w) {
            init_r.put(L.roff[r] + w, init.word(w));
        }
    }
    for (size_t m = 0; m < nl.mems.size(); ++m) {
        const fpga::MemDef& mem = nl.mems[m];
        for (const auto& [addr, value] : mem.init) {
            if (addr >= mem.size) {
                continue;
            }
            const BitVector v = value.resized(mem.width);
            for (uint32_t w = 0; w < v.num_words(); ++w) {
                init_m.put(L.moff[m] + addr * L.ew[m] + w, v.word(w));
            }
        }
    }
    std::ostringstream init_body;
    for (const auto& [a, words] :
         {std::pair{"v", &init_v}, {"r", &init_r}, {"m", &init_m}}) {
        const std::string at = std::string("g_init_") + a + "_at";
        const std::string word = std::string("g_init_") + a + "_word";
        emit_table(os, "u32", at.c_str(), words->at);
        emit_table(os, "u64", word.c_str(), words->word);
        init_body << "    for (u32 k = 0; k < " << words->at.size()
                  << "u; ++k) S->" << a << "[" << at << "[k]] = " << word
                  << "[k];\n";
    }
    os << "static void init(State* S) {\n" << init_body.str();
    os << "    S->dirty = ~0ull;\n"
       << "    eval(S);\n";
    for (size_t k = 0; k < clocks.size(); ++k) {
        os << "    S->pc[" << k << "] = (unsigned char)(S->v["
           << L.voff[clocks[k].clock] << "] & 1);\n";
    }
    for (size_t p = 0; p < nl.write_ports.size(); ++p) {
        os << "    S->ppc[" << p << "] = (unsigned char)(S->v["
           << L.voff[nl.write_ports[p].clock] << "] & 1);\n";
    }
    os << "}\n\n";

    // --- extern "C" ABI --------------------------------------------------
    // The host reaches ports, registers and memories through the State
    // words themselves (fpga::FabricExec), at the offsets of the layout.
    os << "extern \"C\" {\n"
       << "unsigned cascade_jit_abi_version() { return " << kJitAbiVersion
       << "; }\n"
       << "void* cascade_jit_new() {\n"
       << "    State* S = (State*)calloc(1, sizeof(State));\n"
       << "    if (S) init(S);\n"
       << "    return S;\n"
       << "}\n"
       << "void cascade_jit_free(void* p) { free(p); }\n"
       << "void cascade_jit_eval(void* p) { eval((State*)p); }\n"
       << "void cascade_jit_step(void* p) { step((State*)p); }\n"
       << "void cascade_jit_state(void* p, u64** v, u64** r, u64** m, "
          "u64** cycles, u64** dirty) {\n"
       << "    State* S = (State*)p;\n"
       << "    *v = S->v;\n"
       << "    *r = S->r;\n"
       << "    *m = S->m;\n"
       << "    *cycles = &S->cycles;\n"
       << "    *dirty = &S->dirty;\n"
       << "}\n"
       << "u64 cascade_jit_latch_count(void* p, u32 r) {\n"
       << "    const u32 k = g_reg_domain[r];\n"
       << "    return k == ~0u ? 0 : ((State*)p)->latch[k];\n"
       << "}\n"
       << "} // extern \"C\"\n";

    units[0] = unit(os.str());
    units[1] = unit(st.str());
    return units;
}

std::string
generate_source(const Netlist& nl)
{
    std::string text;
    for (const std::string& unit : generate_units(nl)) {
        text += unit;
    }
    return text;
}

} // namespace cascade::jit
