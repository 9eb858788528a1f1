#include "fpga/bitstream.h"

#include <algorithm>

#include "common/check.h"

namespace cascade::fpga {

using namespace word_ops;

Bitstream::Bitstream(std::shared_ptr<const Netlist> netlist)
    : FabricExec(std::move(netlist))
{
    v_.assign(layout_.vtotal, 0);
    r_.assign(layout_.rtotal, 0);
    m_.assign(layout_.mtotal, 0);
    for (size_t i = 0; i < nl_->nodes.size(); ++i) {
        const Node& n = nl_->nodes[i];
        if (n.op == Op::Const) {
            store(&v_[layout_.voff[i]], n.width, n.cval);
        }
    }
    for (size_t r = 0; r < nl_->regs.size(); ++r) {
        store(&r_[layout_.roff[r]], nl_->regs[r].width, nl_->regs[r].init);
    }
    for (size_t m = 0; m < nl_->mems.size(); ++m) {
        const MemDef& mem = nl_->mems[m];
        for (const auto& [addr, value] : mem.init) {
            if (addr < mem.size) {
                store(&m_[layout_.moff[m] + addr * layout_.ew[m]], mem.width,
                      value);
            }
        }
    }
    bind_state({v_.data(), r_.data(), m_.data(), &cycles_, &dirty_});
    reg_latch_count_.assign(nl_->regs.size(), 0);
    prev_.resize(layout_.maxw);
    compile_tape();
    eval_comb();
    for (ClockLatch& c : clocks_) {
        c.prev = (v_[c.clock] & 1) != 0;
    }
    for (PortLatch& p : ports_) {
        p.prev = (v_[p.clock] & 1) != 0;
    }
}

void
Bitstream::compile_tape()
{
    const Netlist& nl = *nl_;
    const Layout& L = layout_;
    for (const uint32_t i : settle_order(nl, domains_)) {
        const Node& n = nl.nodes[i];
        Insn in;
        in.op = n.op;
        in.wide = !is_scalar(nl, n);
        in.width = n.width;
        in.node = i;
        in.dst = L.voff[i];
        in.mask = fullmask(n.width);
        in.aux = n.aux;
        in.nargs = static_cast<uint32_t>(n.args.size());
        for (size_t k = 0; k < n.args.size() && k < 3; ++k) {
            in.arg[k] = L.voff[n.args[k]];
            in.argw[k] = nl.nodes[n.args[k]].width;
        }
        if (n.op == Op::RegQ) {
            in.aux = L.roff[n.aux];
        } else if (n.op == Op::Concat) {
            in.aux = static_cast<uint32_t>(concat_.size());
            for (const uint32_t a : n.args) {
                concat_.emplace_back(L.voff[a], nl.nodes[a].width);
            }
        }
        const uint64_t mask = domains_.node[i];
        if (blocks_.empty() || blocks_.back().mask != mask) {
            const auto at = static_cast<uint32_t>(tape_.size());
            blocks_.push_back({mask, at, at});
        }
        tape_.push_back(in);
        ++blocks_.back().end;
    }
    for (const ClockDomain& cd : clock_domains(nl, domains_)) {
        ClockLatch c;
        c.clock = L.voff[cd.clock];
        c.bit = cd.bit;
        for (const uint32_t r : cd.regs) {
            const uint32_t next = nl.regs[r].next;
            c.regs.push_back(
                {r, L.roff[r], L.rwords[r], L.voff[next],
                 std::min(words_of(nl.nodes[next].width), L.rwords[r])});
        }
        clocks_.push_back(std::move(c));
    }
    for (const MemWritePort& port : nl.write_ports) {
        PortLatch p;
        p.clock = L.voff[port.clock];
        p.enable = L.voff[port.enable];
        p.enable_words = words_of(nl.nodes[port.enable].width);
        p.addr = L.voff[port.addr];
        p.data = L.voff[port.data];
        p.mem = port.mem;
        p.copy = std::min(words_of(nl.nodes[port.data].width),
                          L.ew[port.mem]);
        ports_.push_back(p);
    }
}

void
Bitstream::eval_comb()
{
    if (profile_) {
        settle<true>();
    } else {
        settle<false>();
    }
}

// One pass over the tape in settle order. Unprofiled, a block none of
// whose source domains changed still holds its settled value and is
// skipped. Profiled, every node is recomputed, gated or not, so the
// counts do not depend on the gating, and each evaluation and each
// change of value is counted.
template <bool kProfile>
void
Bitstream::settle()
{
    const uint64_t dirty = dirty_;
    if (!kProfile && dirty == 0) {
        return;
    }
    dirty_ = 0;
    uint64_t* const V = v_.data();
    for (const Block& blk : blocks_) {
        if (!kProfile && (blk.mask & dirty) == 0) {
            continue;
        }
        for (uint32_t t = blk.begin; t < blk.end; ++t) {
            const Insn& in = tape_[t];
            const uint32_t nw = words_of(in.width);
            if constexpr (kProfile) {
                wcopy(prev_.data(), &V[in.dst], nw);
            }
            if (in.wide) {
                exec_wide(in);
            } else {
                const uint64_t a = V[in.arg[0]];
                const uint64_t b = V[in.arg[1]];
                const uint64_t m = in.mask;
                const uint32_t W = in.width;
                uint64_t& d = V[in.dst];
                switch (in.op) {
                  case Op::Const:
                  case Op::Input:
                    CASCADE_UNREACHABLE(); // not on the tape
                  case Op::RegQ:
                    d = r_[in.aux];
                    break;
                  case Op::MemRead:
                    d = a < nl_->mems[in.aux].size
                            ? m_[layout_.moff[in.aux] + a]
                            : 0;
                    break;
                  case Op::Not:
                    d = ~a & m;
                    break;
                  case Op::And:
                    d = a & b;
                    break;
                  case Op::Or:
                    d = a | b;
                    break;
                  case Op::Xor:
                    d = a ^ b;
                    break;
                  case Op::Add:
                    d = (a + b) & m;
                    break;
                  case Op::Sub:
                    d = (a - b) & m;
                    break;
                  case Op::Mul:
                    d = (a * b) & m;
                    break;
                  case Op::Divu:
                    d = b ? a / b : 0;
                    break;
                  case Op::Remu:
                    d = b ? a % b : 0;
                    break;
                  case Op::Divs:
                    d = sdivs(a, b, W, m);
                    break;
                  case Op::Rems:
                    d = srems(a, b, W, m);
                    break;
                  case Op::Pow:
                    d = spow(a, b, m, in.argw[1]);
                    break;
                  case Op::Eq:
                    d = a == b;
                    break;
                  case Op::Ult:
                    d = a < b;
                    break;
                  case Op::Slt:
                    d = ssext(a, in.argw[0]) < ssext(b, in.argw[1]);
                    break;
                  case Op::Shl:
                    d = sshl(a, W, m, b);
                    break;
                  case Op::Lshr:
                    d = slshr(a, W, b);
                    break;
                  case Op::Ashr:
                    d = sashr(a, W, m, b);
                    break;
                  case Op::Mux:
                    d = a ? b : V[in.arg[2]];
                    break;
                  case Op::Concat: {
                    uint64_t acc = a;
                    for (uint32_t k = in.aux + 1; k < in.aux + in.nargs;
                         ++k) {
                        acc = (acc << concat_[k].second) |
                              V[concat_[k].first];
                    }
                    d = acc;
                    break;
                  }
                  case Op::Slice:
                    d = in.aux >= in.argw[0] ? 0 : (a >> in.aux) & m;
                    break;
                  case Op::DynSlice:
                    d = (b < 64 ? a >> b : 0) & m;
                    break;
                  case Op::ReduceAnd:
                    d = a == fullmask(in.argw[0]);
                    break;
                  case Op::ReduceOr:
                    d = a != 0;
                    break;
                  case Op::ReduceXor:
                    d = static_cast<uint64_t>(__builtin_parityll(a));
                    break;
                  case Op::ZExt:
                    d = a & m;
                    break;
                  case Op::SExt:
                    d = W > in.argw[0] ? static_cast<uint64_t>(
                                             ssext(a, in.argw[0])) &
                                             m
                                       : a & m;
                    break;
                }
            }
            if constexpr (kProfile) {
                ++eval_count_[in.node];
                if (!weq(prev_.data(), &V[in.dst], nw)) {
                    ++toggle_count_[in.node];
                }
            }
        }
    }
}

void
Bitstream::exec_wide(const Insn& in)
{
    const uint32_t W = in.width;
    const uint32_t NW = words_of(W);
    if (NW > kMaxWords && in.op != Op::RegQ && in.op != Op::MemRead) {
        exec_reference(in);
        return;
    }
    uint64_t* const V = v_.data();
    uint64_t* const d = &V[in.dst];
    const uint64_t* const a = &V[in.arg[0]];
    const uint64_t* const b = &V[in.arg[1]];
    const uint32_t aw = in.argw[0];
    switch (in.op) {
      case Op::Const:
      case Op::Input:
        CASCADE_UNREACHABLE(); // not on the tape
      case Op::RegQ:
        wcopy(d, &r_[in.aux], NW);
        break;
      case Op::MemRead: {
        const uint32_t ew = layout_.ew[in.aux];
        if (a[0] < nl_->mems[in.aux].size) {
            wcopy(d, &m_[layout_.moff[in.aux] + a[0] * ew], ew);
        } else {
            wzero(d, NW);
        }
        break;
      }
      case Op::Not:
        wnot(d, a, W);
        break;
      case Op::And:
        wand_(d, a, b, NW);
        break;
      case Op::Or:
        wor_(d, a, b, NW);
        break;
      case Op::Xor:
        wxor_(d, a, b, NW);
        break;
      case Op::Add:
        wadd(d, a, b, W);
        break;
      case Op::Sub:
        wsub(d, a, b, W);
        break;
      case Op::Mul:
        wmul(d, a, b, W);
        break;
      case Op::Divu:
        wdivu(d, a, b, W);
        break;
      case Op::Remu:
        wremu(d, a, b, W);
        break;
      case Op::Divs:
        wdivs(d, a, b, W);
        break;
      case Op::Rems:
        wrems(d, a, b, W);
        break;
      case Op::Pow:
        wpow(d, a, b, W, in.argw[1]);
        break;
      case Op::Eq:
        d[0] = static_cast<uint64_t>(weq(a, b, words_of(aw)));
        break;
      case Op::Ult:
        d[0] = static_cast<uint64_t>(wult(a, b, words_of(aw)));
        break;
      case Op::Slt:
        d[0] = static_cast<uint64_t>(wslt(a, b, aw));
        break;
      case Op::Shl:
        wshl(d, a, W, b[0]);
        break;
      case Op::Lshr:
        wlshr(d, a, W, b[0]);
        break;
      case Op::Ashr:
        washr(d, a, W, b[0]);
        break;
      case Op::Mux:
        wcopy(d, wbool(a, words_of(aw)) ? b : &V[in.arg[2]], NW);
        break;
      case Op::Concat: {
        wzero(d, NW);
        uint64_t pos = 0;
        for (uint32_t k = in.aux + in.nargs; k-- > in.aux;) {
            const auto [off, w] = concat_[k];
            winsert(d, W, pos, &V[off], w);
            pos += w;
        }
        break;
      }
      case Op::Slice:
        wslice(d, W, a, aw, in.aux);
        break;
      case Op::DynSlice:
        wslice(d, W, a, aw, b[0]);
        break;
      case Op::ReduceAnd:
        d[0] = static_cast<uint64_t>(wredand(a, aw));
        break;
      case Op::ReduceOr:
        d[0] = static_cast<uint64_t>(wbool(a, words_of(aw)));
        break;
      case Op::ReduceXor:
        d[0] = static_cast<uint64_t>(wredxor(a, words_of(aw)));
        break;
      case Op::ZExt:
        wzext(d, W, a, aw);
        break;
      case Op::SExt:
        wsext(d, W, a, aw);
        break;
    }
}

void
Bitstream::exec_reference(const Insn& in)
{
    const Node& node = nl_->nodes[in.node];
    argv_.resize(node.args.size());
    for (size_t k = 0; k < node.args.size(); ++k) {
        const uint32_t a = node.args[k];
        argv_[k] = BitVector(nl_->nodes[a].width, 0);
        load(&argv_[k], &v_[layout_.voff[a]]);
    }
    store(&v_[in.dst], in.width, eval_node(node, argv_));
}

void
Bitstream::set_profiling(bool on)
{
    profile_ = on;
    if (on && eval_count_.size() != nl_->nodes.size()) {
        eval_count_.assign(nl_->nodes.size(), 0);
        toggle_count_.assign(nl_->nodes.size(), 0);
    }
}

std::map<std::string, Bitstream::SourceActivity>
Bitstream::activity_by_source() const
{
    std::map<std::string, SourceActivity> out;
    for (size_t i = 0; i < eval_count_.size(); ++i) {
        if (eval_count_[i] == 0) {
            continue;
        }
        SourceActivity& a = out[nl_->source_of(static_cast<uint32_t>(i))];
        a.evals += eval_count_[i];
        a.toggles += toggle_count_[i];
    }
    return out;
}

uint64_t
Bitstream::latch_count(const std::string& name) const
{
    const int r = reg_index(name);
    return r < 0 ? 0 : reg_latch_count_[static_cast<size_t>(r)];
}

void
Bitstream::step()
{
    ++cycles_;
    eval_comb();
    // Cascade derived clock domains: latch every register whose clock
    // rose, re-settle, repeat until no clock rises (bounded). Commits
    // write register and memory state, which the node values they read
    // (clocks, next values, ports) do not alias until the next settle, so
    // each commits as it is found. A commit marks its domain dirty only
    // if it changed a value.
    uint64_t* const V = v_.data();
    for (int iter = 0; iter < 8; ++iter) {
        bool any = false;
        for (ClockLatch& c : clocks_) {
            const bool now = (V[c.clock] & 1) != 0;
            if (now && !c.prev) {
                uint64_t changed = 0;
                for (const RegLatch& r : c.regs) {
                    for (uint32_t k = 0; k < r.words; ++k) {
                        const uint64_t x = k < r.copy ? V[r.next + k] : 0;
                        changed |= r_[r.roff + k] ^ x;
                        r_[r.roff + k] = x;
                    }
                    ++reg_latch_count_[r.reg];
                }
                if (changed != 0) {
                    dirty_ |= c.bit;
                }
                any = true;
            }
            c.prev = now;
        }
        for (PortLatch& p : ports_) {
            const bool now = (V[p.clock] & 1) != 0;
            if (now && !p.prev && wbool(&V[p.enable], p.enable_words)) {
                const uint64_t addr = V[p.addr];
                if (addr < nl_->mems[p.mem].size) {
                    const uint32_t ew = layout_.ew[p.mem];
                    uint64_t* e = &m_[layout_.moff[p.mem] + addr * ew];
                    wzero(e, ew);
                    wcopy(e, &V[p.data], p.copy);
                    e[ew - 1] &= topmask(nl_->mems[p.mem].width);
                    dirty_ |= domains_.mem[p.mem];
                }
                any = true;
            }
            p.prev = now;
        }
        if (!any) {
            break;
        }
        eval_comb();
    }
    if (debug_armed_) {
        debug_step_check();
    }
}

void
Bitstream::arm_debug(std::vector<DebugTrigger> triggers,
                     std::vector<DebugProbe> probes, size_t ring_depth)
{
    debug_triggers_ = std::move(triggers);
    debug_probes_ = std::move(probes);
    debug_ring_.clear();
    debug_ring_depth_ = ring_depth == 0 ? 1 : ring_depth;
    debug_fired_ = 0;
    debug_armed_ = !debug_triggers_.empty() || !debug_probes_.empty();
}

void
Bitstream::disarm_debug()
{
    debug_armed_ = false;
    debug_triggers_.clear();
    debug_probes_.clear();
    debug_ring_.clear();
    debug_fired_ = 0;
}

void
Bitstream::debug_step_check()
{
    if (debug_fired_ != 0) {
        // Sticky: the window is frozen at the firing cycle so the MMIO
        // traffic that drains the fire does not scroll it away.
        return;
    }
    if (!debug_probes_.empty()) {
        std::vector<BitVector> vals;
        vals.reserve(debug_probes_.size());
        for (const DebugProbe& p : debug_probes_) {
            vals.push_back(output(p.output));
        }
        debug_ring_.push_back(DebugSample{cycles_, std::move(vals)});
        while (debug_ring_.size() > debug_ring_depth_) {
            debug_ring_.pop_front();
        }
    }
    for (DebugTrigger& t : debug_triggers_) {
        const BitVector& v = output(t.output);
        bool fired = false;
        if (t.watch) {
            fired = t.has_prev && v != t.prev;
        } else {
            // Condition cells are 1-bit comparators; fire on the rising
            // edge so a condition already true at arming does not trip.
            fired = t.has_prev && !t.prev.to_bool() && v.to_bool();
        }
        t.prev = v;
        t.has_prev = true;
        if (fired && debug_fired_ == 0) {
            debug_fired_ = t.id;
        }
    }
}

} // namespace cascade::fpga
