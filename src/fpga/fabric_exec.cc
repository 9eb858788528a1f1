#include "fpga/fabric_exec.h"

#include "common/check.h"

namespace cascade::fpga {

namespace {

int
find_index(const std::unordered_map<std::string, int>& index,
           const std::string& name)
{
    const auto it = index.find(name);
    return it == index.end() ? -1 : it->second;
}

const Netlist&
checked(const std::shared_ptr<const Netlist>& nl)
{
    CASCADE_CHECK(nl != nullptr);
    return *nl;
}

} // namespace

FabricExec::FabricExec(std::shared_ptr<const Netlist> netlist)
    : nl_(std::move(netlist)), domains_(source_domains(checked(nl_))),
      layout_(compute_layout(*nl_))
{
    for (size_t i = 0; i < nl_->inputs.size(); ++i) {
        input_index_[nl_->inputs[i].name] = static_cast<int>(i);
    }
    for (size_t i = 0; i < nl_->outputs.size(); ++i) {
        const PortDef& port = nl_->outputs[i];
        output_index_[port.name] = static_cast<int>(i);
        out_off_.push_back(layout_.voff[port.node]);
        out_cache_.emplace_back(nl_->nodes[port.node].width, 0);
    }
    for (size_t i = 0; i < nl_->regs.size(); ++i) {
        reg_index_[nl_->regs[i].name] = static_cast<int>(i);
        reg_cache_.emplace_back(nl_->regs[i].width, 0);
    }
    for (size_t i = 0; i < nl_->mems.size(); ++i) {
        mem_index_[nl_->mems[i].name] = static_cast<int>(i);
    }
}

void
FabricExec::store(uint64_t* words, uint32_t width, const BitVector& value)
{
    const BitVector v = value.resized(width);
    for (uint32_t k = 0; k < v.num_words(); ++k) {
        words[k] = v.word(k);
    }
}

void
FabricExec::load(BitVector* out, const uint64_t* words)
{
    for (uint32_t k = 0; k < out->num_words(); ++k) {
        out->set_word(k, words[k]);
    }
}

int
FabricExec::input_index(const std::string& name) const
{
    return find_index(input_index_, name);
}

int
FabricExec::output_index(const std::string& name) const
{
    return find_index(output_index_, name);
}

int
FabricExec::reg_index(const std::string& name) const
{
    return find_index(reg_index_, name);
}

int
FabricExec::mem_index(const std::string& name) const
{
    return find_index(mem_index_, name);
}

void
FabricExec::set_input(const std::string& name, const BitVector& value)
{
    const int i = input_index(name);
    CASCADE_CHECK(i >= 0);
    set_input(i, value);
}

void
FabricExec::set_input(int index, const BitVector& value)
{
    const PortDef& port = nl_->inputs[static_cast<size_t>(index)];
    const BitVector v = value.resized(port.width);
    uint64_t* cur = &words_.v[layout_.voff[port.node]];
    uint64_t changed = 0;
    for (uint32_t k = 0; k < v.num_words(); ++k) {
        changed |= cur[k] ^ v.word(k);
        cur[k] = v.word(k);
    }
    if (changed != 0) {
        *words_.dirty |= domains_.input[static_cast<size_t>(index)];
    }
}

void
FabricExec::set_input_word(int index, uint64_t value)
{
    const PortDef& port = nl_->inputs[static_cast<size_t>(index)];
    CASCADE_CHECK(port.width <= 64);
    value &= fullmask(port.width);
    uint64_t& cur = words_.v[layout_.voff[port.node]];
    if (cur != value) {
        cur = value;
        *words_.dirty |= domains_.input[static_cast<size_t>(index)];
    }
}

const BitVector&
FabricExec::output(const std::string& name) const
{
    const int i = output_index(name);
    CASCADE_CHECK(i >= 0);
    return output(i);
}

const BitVector&
FabricExec::output(int index) const
{
    const auto i = static_cast<size_t>(index);
    load(&out_cache_[i], &words_.v[out_off_[i]]);
    return out_cache_[i];
}

const BitVector&
FabricExec::reg_value(const std::string& name) const
{
    const auto r = static_cast<size_t>(reg_index_.at(name));
    load(&reg_cache_[r], &words_.r[layout_.roff[r]]);
    return reg_cache_[r];
}

void
FabricExec::set_reg(const std::string& name, const BitVector& value)
{
    const auto r = static_cast<size_t>(reg_index_.at(name));
    store(&words_.r[layout_.roff[r]], nl_->regs[r].width, value);
    *words_.dirty = ~uint64_t{0};
}

const BitVector&
FabricExec::mem_value(const std::string& name, uint64_t idx) const
{
    const auto m = static_cast<uint32_t>(mem_index_.at(name));
    CASCADE_CHECK(idx < nl_->mems[m].size);
    BitVector& out =
        mem_cache_
            .emplace(std::make_pair(m, idx),
                     BitVector(nl_->mems[m].width, 0))
            .first->second;
    load(&out, &words_.m[layout_.moff[m] + idx * layout_.ew[m]]);
    return out;
}

void
FabricExec::set_mem(const std::string& name, uint64_t idx,
                    const BitVector& value)
{
    const auto m = static_cast<size_t>(mem_index_.at(name));
    CASCADE_CHECK(idx < nl_->mems[m].size);
    store(&words_.m[layout_.moff[m] + idx * layout_.ew[m]],
          nl_->mems[m].width, value);
    *words_.dirty |= domains_.mem[m];
}

void
FabricExec::write_mem(int mem, uint64_t first, const uint64_t* values,
                      size_t count)
{
    const auto m = static_cast<size_t>(mem);
    const MemDef& def = nl_->mems[m];
    CASCADE_CHECK(def.width <= 64 && first <= def.size &&
                  count <= def.size - first);
    const uint64_t mask = fullmask(def.width);
    uint64_t* const base = &words_.m[layout_.moff[m] + first];
    for (size_t k = 0; k < count; ++k) {
        base[k] = values[k] & mask;
    }
    *words_.dirty |= domains_.mem[m];
}

} // namespace cascade::fpga
