#include "jit/codegen.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <sstream>
#include <vector>

#include "common/check.h"
#include "fpga/source_domains.h"

namespace cascade::jit {

namespace {

using fpga::Netlist;
using fpga::Node;
using fpga::Op;

uint32_t
words_of(uint32_t width)
{
    return (width + 63) / 64;
}

uint64_t
topmask(uint32_t width)
{
    const uint32_t r = width % 64;
    return r == 0 ? ~uint64_t{0} : ((uint64_t{1} << r) - 1);
}

uint64_t
fullmask(uint32_t width)
{
    // Mask of a width<=64 value within one word.
    return width >= 64 ? ~uint64_t{0} : ((uint64_t{1} << width) - 1);
}

std::string
hex(uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%" PRIx64 "ull", v);
    return buf;
}

/// Flat word-array layout of the kernel's state: every node value, every
/// register, and every memory lives at a fixed word offset, so the
/// generated code addresses state with compile-time constants and the ABI
/// marshals through small constant tables.
struct Layout {
    std::vector<uint32_t> voff;   ///< node id -> offset into State::v
    std::vector<uint32_t> roff;   ///< reg index -> offset into State::r
    std::vector<uint32_t> rwords; ///< reg index -> words
    std::vector<uint32_t> moff;   ///< mem index -> base offset into State::m
    std::vector<uint32_t> ew;     ///< mem index -> words per element
    uint32_t vtotal = 0;
    uint32_t rtotal = 0;
    uint32_t mtotal = 0;
    uint32_t maxw = 1; ///< scratch bound for the wide-op helpers
};

Layout
compute_layout(const Netlist& nl)
{
    Layout L;
    L.voff.reserve(nl.nodes.size());
    for (const Node& n : nl.nodes) {
        L.voff.push_back(L.vtotal);
        const uint32_t w = words_of(n.width);
        L.vtotal += w;
        L.maxw = std::max(L.maxw, w);
    }
    for (const fpga::RegDef& r : nl.regs) {
        L.roff.push_back(L.rtotal);
        const uint32_t w = words_of(r.width);
        L.rwords.push_back(w);
        L.rtotal += w;
        L.maxw = std::max(L.maxw, w);
    }
    for (const fpga::MemDef& m : nl.mems) {
        L.moff.push_back(L.mtotal);
        const uint32_t w = words_of(m.width);
        L.ew.push_back(w);
        L.mtotal += w * m.size;
        L.maxw = std::max(L.maxw, w);
    }
    return L;
}

/// The emitted helper library: exact mirrors of the BitVector operations
/// (common/bitvector.cc) for both the one-word scalar fast path and the
/// multi-word wide path. JIT_MAXW bounds every scratch array.
const char kPreamble[] = R"JIT(
#include <cstdint>

typedef uint64_t u64;
typedef uint32_t u32;

namespace {

inline u64 jit_topmask(u32 w) {
    const u32 r = w % 64u;
    return r == 0 ? ~0ull : ((1ull << r) - 1);
}
inline void wzero(u64* d, u32 nw) { for (u32 i = 0; i < nw; ++i) d[i] = 0; }
inline void wcopy(u64* d, const u64* s, u32 nw) {
    for (u32 i = 0; i < nw; ++i) d[i] = s[i];
}
inline int wbool(const u64* a, u32 nw) {
    for (u32 i = 0; i < nw; ++i) if (a[i]) return 1;
    return 0;
}
inline int wbit(const u64* a, u32 w, u64 i) {
    return i < w ? (int)((a[i / 64] >> (i % 64)) & 1) : 0;
}
inline void wsetbit(u64* a, u64 i, int b) {
    const u64 m = 1ull << (i % 64);
    if (b) a[i / 64] |= m; else a[i / 64] &= ~m;
}
inline void wnot(u64* d, const u64* a, u32 w) {
    const u32 nw = (w + 63) / 64;
    for (u32 i = 0; i < nw; ++i) d[i] = ~a[i];
    d[nw - 1] &= jit_topmask(w);
}
inline void wand_(u64* d, const u64* a, const u64* b, u32 nw) {
    for (u32 i = 0; i < nw; ++i) d[i] = a[i] & b[i];
}
inline void wor_(u64* d, const u64* a, const u64* b, u32 nw) {
    for (u32 i = 0; i < nw; ++i) d[i] = a[i] | b[i];
}
inline void wxor_(u64* d, const u64* a, const u64* b, u32 nw) {
    for (u32 i = 0; i < nw; ++i) d[i] = a[i] ^ b[i];
}
inline void wadd(u64* d, const u64* a, const u64* b, u32 w) {
    const u32 nw = (w + 63) / 64;
    u64 carry = 0;
    for (u32 i = 0; i < nw; ++i) {
        const u64 s1 = a[i] + b[i];
        const u64 c1 = s1 < a[i];
        const u64 s2 = s1 + carry;
        const u64 c2 = s2 < s1;
        d[i] = s2;
        carry = c1 | c2;
    }
    d[nw - 1] &= jit_topmask(w);
}
inline void wneg(u64* d, const u64* a, u32 w) {
    const u32 nw = (w + 63) / 64;
    u64 carry = 1;
    for (u32 i = 0; i < nw; ++i) {
        const u64 s = ~a[i] + carry;
        carry = carry != 0 && s == 0;
        d[i] = s;
    }
    d[nw - 1] &= jit_topmask(w);
}
inline void wsub(u64* d, const u64* a, const u64* b, u32 w) {
    u64 t[JIT_MAXW];
    wneg(t, b, w);
    wadd(d, a, t, w);
}
inline void wmul(u64* d, const u64* a, const u64* b, u32 w) {
    const u32 nw = (w + 63) / 64;
    u64 t[JIT_MAXW];
    wzero(t, nw);
    for (u32 i = 0; i < nw; ++i) {
        if (a[i] == 0) continue;
        u64 carry = 0;
        for (u32 j = 0; i + j < nw; ++j) {
            const unsigned __int128 p =
                (unsigned __int128)a[i] * b[j] + t[i + j] + carry;
            t[i + j] = (u64)p;
            carry = (u64)(p >> 64);
        }
    }
    for (u32 i = 0; i < nw; ++i) d[i] = t[i];
    d[nw - 1] &= jit_topmask(w);
}
inline int weq(const u64* a, const u64* b, u32 nw) {
    for (u32 i = 0; i < nw; ++i) if (a[i] != b[i]) return 0;
    return 1;
}
inline int wult(const u64* a, const u64* b, u32 nw) {
    for (u32 i = nw; i-- > 0;) if (a[i] != b[i]) return a[i] < b[i];
    return 0;
}
inline int wule(const u64* a, const u64* b, u32 nw) { return !wult(b, a, nw); }
inline int wslt(const u64* a, const u64* b, u32 w) {
    const int sa = wbit(a, w, w - 1);
    const int sb = wbit(b, w, w - 1);
    if (sa != sb) return sa;
    return wult(a, b, (w + 63) / 64);
}
inline void wshl(u64* d, const u64* a, u32 w, u64 amt) {
    u64 t[JIT_MAXW];
    const u32 nw = (w + 63) / 64;
    wzero(t, nw);
    if (amt < w) {
        for (u64 i = amt; i < w; ++i) wsetbit(t, i, wbit(a, w, i - amt));
    }
    wcopy(d, t, nw);
}
inline void wslice(u64* d, u32 dw, const u64* a, u32 aw, u64 lsb) {
    u64 t[JIT_MAXW];
    const u32 nw = (dw + 63) / 64;
    wzero(t, nw);
    for (u32 i = 0; i < dw; ++i) wsetbit(t, i, wbit(a, aw, lsb + i));
    wcopy(d, t, nw);
}
inline void wlshr(u64* d, const u64* a, u32 w, u64 amt) {
    if (amt >= w) { wzero(d, (w + 63) / 64); return; }
    wslice(d, w, a, w, amt);
}
inline void washr(u64* d, const u64* a, u32 w, u64 amt) {
    const int sign = wbit(a, w, w - 1);
    const u32 nw = (w + 63) / 64;
    if (amt >= w) {
        if (sign) {
            for (u32 i = 0; i < nw; ++i) d[i] = ~0ull;
            d[nw - 1] &= jit_topmask(w);
        } else {
            wzero(d, nw);
        }
        return;
    }
    wlshr(d, a, w, amt);
    if (sign) {
        for (u64 i = w - amt; i < w; ++i) wsetbit(d, i, 1);
    }
}
inline void wudivrem(u64* q, u64* r, const u64* a, const u64* b, u32 w) {
    const u32 nw = (w + 63) / 64;
    wzero(q, nw);
    wzero(r, nw);
    if (!wbool(b, nw)) return;
    if (nw == 1) { q[0] = a[0] / b[0]; r[0] = a[0] % b[0]; return; }
    u64 t[JIT_MAXW];
    for (int64_t i = (int64_t)w - 1; i >= 0; --i) {
        wshl(t, r, w, 1);
        wcopy(r, t, nw);
        wsetbit(r, 0, wbit(a, w, (u64)i));
        if (wule(b, r, nw)) {
            wsub(t, r, b, w);
            wcopy(r, t, nw);
            wsetbit(q, (u64)i, 1);
        }
    }
}
inline void wdivu(u64* d, const u64* a, const u64* b, u32 w) {
    u64 q[JIT_MAXW], r[JIT_MAXW];
    wudivrem(q, r, a, b, w);
    wcopy(d, q, (w + 63) / 64);
}
inline void wremu(u64* d, const u64* a, const u64* b, u32 w) {
    u64 q[JIT_MAXW], r[JIT_MAXW];
    wudivrem(q, r, a, b, w);
    wcopy(d, r, (w + 63) / 64);
}
inline void wdivs(u64* d, const u64* a, const u64* b, u32 w) {
    const u32 nw = (w + 63) / 64;
    const int na = wbit(a, w, w - 1);
    const int nb = wbit(b, w, w - 1);
    u64 pa[JIT_MAXW], pb[JIT_MAXW], q[JIT_MAXW];
    if (na) wneg(pa, a, w); else wcopy(pa, a, nw);
    if (nb) wneg(pb, b, w); else wcopy(pb, b, nw);
    wdivu(q, pa, pb, w);
    if (na != nb) wneg(d, q, w); else wcopy(d, q, nw);
}
inline void wrems(u64* d, const u64* a, const u64* b, u32 w) {
    const u32 nw = (w + 63) / 64;
    const int na = wbit(a, w, w - 1);
    u64 pa[JIT_MAXW], pb[JIT_MAXW], r[JIT_MAXW];
    if (na) wneg(pa, a, w); else wcopy(pa, a, nw);
    if (wbit(b, w, w - 1)) wneg(pb, b, w); else wcopy(pb, b, nw);
    wremu(r, pa, pb, w);
    if (na) wneg(d, r, w); else wcopy(d, r, nw);
}
inline void wpow(u64* d, const u64* a, const u64* b, u32 w, u32 bw) {
    const u32 nw = (w + 63) / 64;
    u64 res[JIT_MAXW], base[JIT_MAXW], t[JIT_MAXW];
    wzero(res, nw);
    res[0] = 1;
    res[nw - 1] &= jit_topmask(w);
    wcopy(base, a, nw);
    for (u32 i = 0; i < bw; ++i) {
        if (wbit(b, bw, i)) { wmul(t, res, base, w); wcopy(res, t, nw); }
        wmul(t, base, base, w);
        wcopy(base, t, nw);
    }
    wcopy(d, res, nw);
}
inline int wredand(const u64* a, u32 w) {
    const u32 nw = (w + 63) / 64;
    for (u32 i = 0; i + 1 < nw; ++i) {
        if (a[i] != ~0ull) return 0;
    }
    return a[nw - 1] == jit_topmask(w);
}
inline int wredxor(const u64* a, u32 nw) {
    u64 acc = 0;
    for (u32 i = 0; i < nw; ++i) acc ^= a[i];
    return (int)__builtin_parityll(acc);
}
inline void winsert(u64* d, u32 dw, u64 at, const u64* s, u32 sw) {
    for (u32 i = 0; i < sw && at + i < dw; ++i) {
        wsetbit(d, at + i, wbit(s, sw, i));
    }
}
inline void wzext(u64* d, u32 dw, const u64* a, u32 aw) {
    const u32 dnw = (dw + 63) / 64;
    const u32 anw = (aw + 63) / 64;
    for (u32 i = 0; i < dnw; ++i) d[i] = i < anw ? a[i] : 0;
    d[dnw - 1] &= jit_topmask(dw);
}
inline void wsext(u64* d, u32 dw, const u64* a, u32 aw) {
    const int sign = wbit(a, aw, aw - 1);
    wzext(d, dw, a, aw);
    if (sign && dw > aw) {
        for (u32 i = aw; i < dw; ++i) wsetbit(d, i, 1);
        d[(dw - 1) / 64] &= jit_topmask(dw);
    }
}
inline u64 sneg(u64 a, u64 m) { return (~a + 1) & m; }
inline int64_t ssext(u64 a, u32 w) {
    return (int64_t)(a << (64u - w)) >> (64u - w);
}
inline u64 sdivs(u64 a, u64 b, u32 w, u64 m) {
    const int na = (int)((a >> (w - 1)) & 1);
    const int nb = (int)((b >> (w - 1)) & 1);
    const u64 pa = na ? sneg(a, m) : a;
    const u64 pb = nb ? sneg(b, m) : b;
    const u64 q = pb ? pa / pb : 0;
    return na != nb ? sneg(q, m) : q;
}
inline u64 srems(u64 a, u64 b, u32 w, u64 m) {
    const int na = (int)((a >> (w - 1)) & 1);
    const u64 pa = na ? sneg(a, m) : a;
    const u64 pb = ((b >> (w - 1)) & 1) ? sneg(b, m) : b;
    const u64 r = pb ? pa % pb : 0;
    return na ? sneg(r, m) : r;
}
inline u64 spow(u64 a, u64 b, u64 m, u32 bw) {
    u64 res = 1 & m;
    u64 base = a;
    for (u32 i = 0; i < bw; ++i) {
        if ((b >> i) & 1) res = (res * base) & m;
        base = (base * base) & m;
    }
    return res;
}
inline u64 sshl(u64 a, u32 w, u64 m, u64 amt) {
    return amt >= w ? 0 : (a << amt) & m;
}
inline u64 slshr(u64 a, u32 w, u64 amt) { return amt >= w ? 0 : a >> amt; }
inline u64 sashr(u64 a, u32 w, u64 m, u64 amt) {
    const int sign = (int)((a >> (w - 1)) & 1);
    if (amt >= w) return sign ? m : 0;
    u64 r = a >> amt;
    if (sign) r |= m & ~(m >> amt);
    return r;
}

} // namespace
)JIT";

/// True when node \p i and all of its argument values fit in one word, so
/// the scalar fast path applies.
bool
is_scalar(const Netlist& nl, const Node& n)
{
    if (n.width > 64) {
        return false;
    }
    for (uint32_t a : n.args) {
        if (nl.nodes[a].width > 64) {
            return false;
        }
    }
    return true;
}

/// Emits the evaluation statement(s) for one node into \p os. `V` is the
/// node-value word array; offsets come from the layout.
void
emit_node(std::ostream& os, const Netlist& nl, const Layout& L, uint32_t i)
{
    const Node& n = nl.nodes[i];
    const uint32_t d = L.voff[i];
    const uint32_t W = n.width;
    const uint32_t NW = words_of(W);
    auto A = [&](size_t k) {
        return "V[" + std::to_string(L.voff[n.args[k]]) + "]";
    };
    auto AP = [&](size_t k) {
        return "&V[" + std::to_string(L.voff[n.args[k]]) + "]";
    };
    auto aw = [&](size_t k) { return nl.nodes[n.args[k]].width; };
    auto D = [&] { return "V[" + std::to_string(d) + "]"; };
    auto DP = [&] { return "&V[" + std::to_string(d) + "]"; };
    const std::string M = hex(fullmask(W));

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

    if (is_scalar(nl, n)) {
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
/// kernel builds fast.
constexpr size_t kMaxFnNodes = 256;

/// Registers latched by one clock node: they commit together, and the
/// domain bit they share marks their RegQ nodes dirty.
struct ClockDomain {
    uint32_t clock = 0;
    uint64_t bit = 0;
    std::vector<uint32_t> regs;
};

std::vector<ClockDomain>
clock_domains(const Netlist& nl, const fpga::SourceDomains& dom)
{
    std::vector<ClockDomain> out;
    std::map<uint32_t, size_t> index;
    for (uint32_t r = 0; r < nl.regs.size(); ++r) {
        const uint32_t clock = nl.regs[r].clock;
        if (clock == fpga::kNoClock) {
            continue;
        }
        const auto [it, inserted] = index.emplace(clock, out.size());
        if (inserted) {
            out.push_back({clock, dom.reg[r], {}});
        }
        out[it->second].regs.push_back(r);
    }
    return out;
}

} // namespace

std::vector<std::string>
generate_units(const Netlist& nl)
{
    const Layout L = compute_layout(nl);
    const fpga::SourceDomains dom = fpga::source_domains(nl);
    const std::vector<ClockDomain> clocks = clock_domains(nl, dom);

    // Every evaluated node, grouped into blocks of equal source mask. The
    // blocks run in (popcount, mask) order and each keeps node-index
    // order. An argument's mask is a subset of its node's mask, so the
    // argument sits either earlier in the same block or in a block with
    // fewer bits: the order is topological, and one gated pass settles
    // exactly like Bitstream::eval_comb's index-ordered pass.
    std::vector<uint32_t> order;
    for (uint32_t i = 0; i < nl.nodes.size(); ++i) {
        if (nl.nodes[i].op != Op::Const && nl.nodes[i].op != Op::Input) {
            order.push_back(i);
        }
    }
    const auto block_key = [&dom](uint32_t i) {
        return std::make_pair(std::popcount(dom.node[i]), dom.node[i]);
    };
    std::stable_sort(order.begin(), order.end(),
                     [&](uint32_t a, uint32_t b) {
                         return block_key(a) < block_key(b);
                     });
    size_t blocks = 0;
    for (size_t k = 0; k < order.size(); ++k) {
        blocks += k == 0 || dom.node[order[k]] != dom.node[order[k - 1]];
    }

    // --- Shared prefix: helpers, State, the cross-unit functions ----------
    // Every unit starts with it. The functions one unit calls in another
    // are extern "C" with hidden visibility: they link inside the shared
    // object, and only the cascade_jit_* ABI is exported from it.
    std::ostringstream pre;
    pre << "// Generated by cascade jit::generate_units: one translation\n"
           "// unit of a kernel (the ABI unit, step(), or one eval_N), all\n"
           "// linked into one shared object. Domain-gated straight-line\n"
           "// evaluation with Bitstream-identical semantics behind the\n"
           "// cascade_jit_* ABI.\n"
           "// nodes=" << nl.nodes.size() << " regs=" << nl.regs.size()
        << " mems=" << nl.mems.size() << " blocks=" << blocks
        << " clocks=" << clocks.size() << "\n";
    pre << "#define JIT_MAXW " << L.maxw << "\n";
    pre << kPreamble;
    pre << "\nstruct State {\n"
        << "    u64 v[" << std::max<uint32_t>(1, L.vtotal) << "];\n"
        << "    u64 r[" << std::max<uint32_t>(1, L.rtotal) << "];\n"
        << "    u64 m[" << std::max<uint32_t>(1, L.mtotal) << "];\n"
        << "    u64 latch[" << std::max<size_t>(1, nl.regs.size()) << "];\n"
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
    const std::string prefix = pre.str();

    // units[0] is the ABI unit and units[1] holds step(); the eval_N
    // units follow in function order.
    std::vector<std::string> units(2);
    std::ostringstream os; // the ABI unit

    // --- ABI marshalling tables -----------------------------------------
    {
        emit_table(os, "u32", "g_reg_off", L.roff);
        emit_table(os, "u32", "g_reg_w", L.rwords);
        std::vector<uint64_t> rmask;
        for (const fpga::RegDef& r : nl.regs) {
            rmask.push_back(topmask(r.width));
        }
        emit_table(os, "u64", "g_reg_mask", rmask);
        std::vector<uint32_t> in_off, in_w;
        std::vector<uint64_t> in_mask;
        for (const fpga::PortDef& p : nl.inputs) {
            in_off.push_back(L.voff[p.node]);
            in_w.push_back(words_of(p.width));
            in_mask.push_back(topmask(p.width));
        }
        emit_table(os, "u32", "g_in_off", in_off);
        emit_table(os, "u32", "g_in_w", in_w);
        emit_table(os, "u64", "g_in_mask", in_mask);
        emit_table(os, "u64", "g_in_bit", dom.input);
        std::vector<uint32_t> out_off, out_w;
        for (const fpga::PortDef& p : nl.outputs) {
            out_off.push_back(L.voff[p.node]);
            out_w.push_back(words_of(nl.nodes[p.node].width));
        }
        emit_table(os, "u32", "g_out_off", out_off);
        emit_table(os, "u32", "g_out_w", out_w);
        std::vector<uint32_t> mem_off, mem_ew;
        std::vector<uint64_t> mem_size, mem_mask;
        for (size_t m = 0; m < nl.mems.size(); ++m) {
            mem_off.push_back(L.moff[m]);
            mem_ew.push_back(L.ew[m]);
            mem_size.push_back(nl.mems[m].size);
            mem_mask.push_back(topmask(nl.mems[m].width));
        }
        emit_table(os, "u32", "g_mem_off", mem_off);
        emit_table(os, "u32", "g_mem_ew", mem_ew);
        emit_table(os, "u64", "g_mem_size", mem_size);
        emit_table(os, "u64", "g_mem_mask", mem_mask);
        emit_table(os, "u64", "g_mem_bit", dom.mem);
    }

    // --- Combinational evaluation: gated blocks, bounded functions -------
    // Each function runs the blocks whose mask meets the dirty bits eval()
    // captured; eval() skips a function none of whose blocks is dirty.
    // Each function is its own unit.
    std::vector<std::pair<std::string, uint64_t>> fns;
    {
        std::ostringstream body;
        size_t in_fn = 0;
        uint64_t fn_mask = 0;
        uint64_t open = 0; // mask of the open block (0: none)
        const auto close_fn = [&] {
            if (in_fn == 0) {
                return;
            }
            const std::string name = "eval_" + std::to_string(fns.size());
            units.push_back(prefix + "JIT_INTERNAL void " + name +
                            "(State* S, u64 d) {\n"
                            "    u64* const V = S->v;\n" +
                            body.str() + "    }\n}\n");
            fns.emplace_back(name, fn_mask);
            body.str("");
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
            emit_node(body, nl, L, i);
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
            st << "                S->latch[" << r << "] += 1;\n";
        }
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
    os << "static void init(State* S) {\n";
    for (size_t i = 0; i < nl.nodes.size(); ++i) {
        const Node& n = nl.nodes[i];
        if (n.op != Op::Const) {
            continue;
        }
        for (uint32_t w = 0; w < n.cval.num_words(); ++w) {
            if (n.cval.word(w) != 0) {
                os << "    S->v[" << (L.voff[i] + w) << "] = "
                   << hex(n.cval.word(w)) << ";\n";
            }
        }
    }
    for (size_t r = 0; r < nl.regs.size(); ++r) {
        const BitVector init = nl.regs[r].init.resized(nl.regs[r].width);
        for (uint32_t w = 0; w < L.rwords[r] && w < init.num_words(); ++w) {
            if (init.word(w) != 0) {
                os << "    S->r[" << (L.roff[r] + w) << "] = "
                   << hex(init.word(w)) << ";\n";
            }
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
                if (v.word(w) != 0) {
                    os << "    S->m["
                       << (L.moff[m] + addr * L.ew[m] + w) << "] = "
                       << hex(v.word(w)) << ";\n";
                }
            }
        }
    }
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
    // set_input marks its port's domain only on a real change, set_mem its
    // memory's domain; set_reg marks every domain.
    os << "extern \"C\" {\n"
       << "unsigned cascade_jit_abi_version() { return 1; }\n"
       << "void* cascade_jit_new() { State* S = new State(); init(S); "
          "return S; }\n"
       << "void cascade_jit_free(void* p) { delete (State*)p; }\n"
       << "void cascade_jit_eval(void* p) { eval((State*)p); }\n"
       << "void cascade_jit_step(void* p) { step((State*)p); }\n"
       << "u64 cascade_jit_cycles(void* p) { return ((State*)p)->cycles; "
          "}\n"
       << "void cascade_jit_set_input(void* p, u32 i, const u64* w) {\n"
       << "    State* S = (State*)p;\n"
       << "    const u32 off = g_in_off[i];\n"
       << "    const u32 nw = g_in_w[i];\n"
       << "    u64 ch = 0;\n"
       << "    for (u32 k = 0; k < nw; ++k) {\n"
       << "        const u64 x = k + 1 == nw ? w[k] & g_in_mask[i] : w[k];\n"
       << "        ch |= S->v[off + k] ^ x;\n"
       << "        S->v[off + k] = x;\n"
       << "    }\n"
       << "    if (ch) S->dirty |= g_in_bit[i];\n"
       << "}\n"
       << "void cascade_jit_get_output(void* p, u32 i, u64* w) {\n"
       << "    State* S = (State*)p;\n"
       << "    for (u32 k = 0; k < g_out_w[i]; ++k) "
          "w[k] = S->v[g_out_off[i] + k];\n"
       << "}\n"
       << "void cascade_jit_get_reg(void* p, u32 r, u64* w) {\n"
       << "    State* S = (State*)p;\n"
       << "    for (u32 k = 0; k < g_reg_w[r]; ++k) "
          "w[k] = S->r[g_reg_off[r] + k];\n"
       << "}\n"
       << "void cascade_jit_set_reg(void* p, u32 r, const u64* w) {\n"
       << "    State* S = (State*)p;\n"
       << "    for (u32 k = 0; k < g_reg_w[r]; ++k) "
          "S->r[g_reg_off[r] + k] = w[k];\n"
       << "    S->r[g_reg_off[r] + g_reg_w[r] - 1] &= g_reg_mask[r];\n"
       << "    S->dirty = ~0ull;\n"
       << "}\n"
       << "void cascade_jit_get_mem(void* p, u32 m, u64 idx, u64* w) {\n"
       << "    State* S = (State*)p;\n"
       << "    const u32 off = g_mem_off[m] + (u32)(idx * g_mem_ew[m]);\n"
       << "    for (u32 k = 0; k < g_mem_ew[m]; ++k) w[k] = S->m[off + "
          "k];\n"
       << "}\n"
       << "void cascade_jit_set_mem(void* p, u32 m, u64 idx, const u64* w) "
          "{\n"
       << "    State* S = (State*)p;\n"
       << "    if (idx >= g_mem_size[m]) return;\n"
       << "    const u32 off = g_mem_off[m] + (u32)(idx * g_mem_ew[m]);\n"
       << "    for (u32 k = 0; k < g_mem_ew[m]; ++k) S->m[off + k] = "
          "w[k];\n"
       << "    S->m[off + g_mem_ew[m] - 1] &= g_mem_mask[m];\n"
       << "    S->dirty |= g_mem_bit[m];\n"
       << "}\n"
       << "u64 cascade_jit_latch_count(void* p, u32 r) { return "
          "((State*)p)->latch[r]; }\n"
       << "} // extern \"C\"\n";

    units[0] = prefix + os.str();
    units[1] = prefix + st.str();
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
