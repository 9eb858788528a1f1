#include "fpga/bitstream.h"

#include "common/check.h"

namespace cascade::fpga {

Bitstream::Bitstream(std::shared_ptr<const Netlist> netlist)
    : nl_(std::move(netlist))
{
    CASCADE_CHECK(nl_ != nullptr);
    domains_ = source_domains(*nl_);
    values_.resize(nl_->nodes.size());
    for (size_t i = 0; i < nl_->nodes.size(); ++i) {
        const Node& n = nl_->nodes[i];
        values_[i] = n.op == Op::Const ? n.cval : BitVector(n.width, 0);
    }
    reg_state_.reserve(nl_->regs.size());
    for (const RegDef& r : nl_->regs) {
        reg_state_.push_back(r.init);
    }
    mem_state_.reserve(nl_->mems.size());
    for (const MemDef& m : nl_->mems) {
        std::vector<BitVector> contents(m.size, BitVector(m.width, 0));
        for (const auto& [addr, value] : m.init) {
            if (addr < m.size) {
                contents[addr] = value.resized(m.width);
            }
        }
        mem_state_.push_back(std::move(contents));
    }
    for (size_t i = 0; i < nl_->inputs.size(); ++i) {
        input_index_[nl_->inputs[i].name] = static_cast<int>(i);
    }
    for (size_t i = 0; i < nl_->outputs.size(); ++i) {
        output_index_[nl_->outputs[i].name] = static_cast<int>(i);
    }
    for (size_t i = 0; i < nl_->regs.size(); ++i) {
        reg_index_[nl_->regs[i].name] = static_cast<uint32_t>(i);
    }
    for (size_t i = 0; i < nl_->mems.size(); ++i) {
        mem_index_[nl_->mems[i].name] = static_cast<uint32_t>(i);
    }
    reg_latch_count_.assign(nl_->regs.size(), 0);
    eval_comb();
    prev_reg_clock_.resize(nl_->regs.size());
    for (size_t i = 0; i < nl_->regs.size(); ++i) {
        prev_reg_clock_[i] = nl_->regs[i].clock != kNoClock &&
                             values_[nl_->regs[i].clock].bit(0);
    }
    prev_port_clock_.resize(nl_->write_ports.size());
    for (size_t i = 0; i < nl_->write_ports.size(); ++i) {
        prev_port_clock_[i] = values_[nl_->write_ports[i].clock].bit(0);
    }
}

int
Bitstream::input_index(const std::string& name) const
{
    const auto it = input_index_.find(name);
    return it == input_index_.end() ? -1 : it->second;
}

int
Bitstream::output_index(const std::string& name) const
{
    const auto it = output_index_.find(name);
    return it == output_index_.end() ? -1 : it->second;
}

void
Bitstream::set_input(const std::string& name, const BitVector& value)
{
    const int i = input_index(name);
    CASCADE_CHECK(i >= 0);
    set_input(i, value);
}

void
Bitstream::set_input(int index, const BitVector& value)
{
    const PortDef& port = nl_->inputs[static_cast<size_t>(index)];
    BitVector v = value.resized(port.width);
    if (values_[port.node] != v) {
        values_[port.node] = std::move(v);
        dirty_ |= domains_.input[static_cast<size_t>(index)];
    }
}

void
Bitstream::set_input_word(int index, uint64_t value)
{
    const PortDef& port = nl_->inputs[static_cast<size_t>(index)];
    CASCADE_CHECK(port.width <= 64);
    if (port.width < 64) {
        value &= (uint64_t{1} << port.width) - 1;
    }
    BitVector& cur = values_[port.node];
    if (cur.word(0) != value) {
        cur.set_word(0, value);
        dirty_ |= domains_.input[static_cast<size_t>(index)];
    }
}

const BitVector&
Bitstream::output(const std::string& name) const
{
    const int i = output_index(name);
    CASCADE_CHECK(i >= 0);
    return output(i);
}

const BitVector&
Bitstream::output(int index) const
{
    return values_[nl_->outputs[static_cast<size_t>(index)].node];
}

void
Bitstream::eval_comb()
{
    if (profile_) {
        eval_comb_profiled();
        return;
    }
    // Nodes are in topological order by construction: a single pass
    // settles everything. A node none of whose source domains changed
    // still holds its settled value.
    const uint64_t dirty = dirty_;
    if (dirty == 0) {
        return;
    }
    dirty_ = 0;
    const size_t n = nl_->nodes.size();
    for (size_t i = 0; i < n; ++i) {
        if ((domains_.node[i] & dirty) == 0) {
            continue;
        }
        const Node& node = nl_->nodes[i];
        switch (node.op) {
          case Op::Const:
          case Op::Input:
            continue;
          case Op::RegQ:
            values_[i] = reg_state_[node.aux];
            continue;
          case Op::MemRead: {
            const uint64_t addr = values_[node.args[0]].to_uint64();
            const auto& mem = mem_state_[node.aux];
            values_[i] = addr < mem.size()
                             ? mem[addr]
                             : BitVector(node.width, 0);
            continue;
          }
          default: {
            argv_.clear();
            for (uint32_t a : node.args) {
                argv_.push_back(values_[a]);
            }
            values_[i] = eval_node(node, argv_);
            continue;
          }
        }
    }
}

void
Bitstream::eval_comb_profiled()
{
    // Instrumented twin of eval_comb: same evaluation order and
    // semantics, plus per-node eval/toggle counting. Kept separate so
    // the unprofiled path stays branch-free per node. It recomputes every
    // node, gated or not, so counts do not depend on the gating.
    dirty_ = 0;
    const size_t n = nl_->nodes.size();
    for (size_t i = 0; i < n; ++i) {
        const Node& node = nl_->nodes[i];
        BitVector next;
        switch (node.op) {
          case Op::Const:
          case Op::Input:
            continue;
          case Op::RegQ:
            next = reg_state_[node.aux];
            break;
          case Op::MemRead: {
            const uint64_t addr = values_[node.args[0]].to_uint64();
            const auto& mem = mem_state_[node.aux];
            next = addr < mem.size() ? mem[addr]
                                     : BitVector(node.width, 0);
            break;
          }
          default: {
            argv_.clear();
            for (uint32_t a : node.args) {
                argv_.push_back(values_[a]);
            }
            next = eval_node(node, argv_);
            break;
          }
        }
        ++eval_count_[i];
        if (!(values_[i] == next)) {
            ++toggle_count_[i];
        }
        values_[i] = std::move(next);
    }
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
    const auto it = reg_index_.find(name);
    return it == reg_index_.end() ? 0 : reg_latch_count_[it->second];
}

void
Bitstream::step()
{
    ++cycles_;
    eval_comb();
    // Cascade derived clock domains: latch every register whose clock
    // rose, re-settle, repeat until no clock rises (bounded). A commit
    // marks its domain dirty only if it changed a value.
    for (int iter = 0; iter < 8; ++iter) {
        latches_.clear();
        mem_latches_.clear();
        for (size_t r = 0; r < nl_->regs.size(); ++r) {
            const RegDef& reg = nl_->regs[r];
            if (reg.clock == kNoClock) {
                continue;
            }
            const bool now = values_[reg.clock].bit(0);
            if (now && !prev_reg_clock_[r]) {
                latches_.emplace_back(static_cast<uint32_t>(r),
                                      values_[reg.next]);
                ++reg_latch_count_[r];
            }
            prev_reg_clock_[r] = now;
        }
        for (size_t p = 0; p < nl_->write_ports.size(); ++p) {
            const MemWritePort& port = nl_->write_ports[p];
            const bool now = values_[port.clock].bit(0);
            if (now && !prev_port_clock_[p] &&
                values_[port.enable].to_bool()) {
                mem_latches_.push_back({port.mem,
                                        values_[port.addr].to_uint64(),
                                        values_[port.data]});
            }
            prev_port_clock_[p] = now;
        }
        if (latches_.empty() && mem_latches_.empty()) {
            break;
        }
        for (auto& [r, v] : latches_) {
            if (reg_state_[r] != v) {
                reg_state_[r] = std::move(v);
                dirty_ |= domains_.reg[r];
            }
        }
        for (auto& ml : mem_latches_) {
            if (ml.addr < mem_state_[ml.mem].size()) {
                mem_state_[ml.mem][ml.addr] = std::move(ml.data);
                dirty_ |= domains_.mem[ml.mem];
            }
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

const BitVector&
Bitstream::reg_value(const std::string& name) const
{
    return reg_state_[reg_index_.at(name)];
}

void
Bitstream::set_reg(const std::string& name, const BitVector& value)
{
    const uint32_t r = reg_index_.at(name);
    reg_state_[r] = value.resized(nl_->regs[r].width);
    dirty_ = ~uint64_t{0};
}

const BitVector&
Bitstream::mem_value(const std::string& name, uint64_t idx) const
{
    return mem_state_[mem_index_.at(name)][idx];
}

void
Bitstream::set_mem(const std::string& name, uint64_t idx,
                   const BitVector& value)
{
    const uint32_t m = mem_index_.at(name);
    CASCADE_CHECK(idx < mem_state_[m].size());
    mem_state_[m][idx] = value.resized(nl_->mems[m].width);
    dirty_ |= domains_.mem[m];
}

int
Bitstream::mem_index(const std::string& name) const
{
    const auto it = mem_index_.find(name);
    return it == mem_index_.end() ? -1 : static_cast<int>(it->second);
}

void
Bitstream::write_mem(int mem, uint64_t first, const uint64_t* values,
                     size_t count)
{
    const auto m = static_cast<size_t>(mem);
    auto& contents = mem_state_[m];
    CASCADE_CHECK(nl_->mems[m].width <= 64 && first <= contents.size() &&
                  count <= contents.size() - first);
    for (size_t k = 0; k < count; ++k) {
        contents[first + k].set_word(0, values[k]);
    }
    dirty_ |= domains_.mem[m];
}

} // namespace cascade::fpga
