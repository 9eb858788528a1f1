#include "jit/jit_kernel.h"

#include <algorithm>

#include "common/check.h"
#include "fpga/word_ops.h"
#include "jit/codegen.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace cascade::jit {

using fpga::words_of;

std::unique_ptr<JitKernel>
JitKernel::create(std::shared_ptr<const fpga::Netlist> nl,
                  std::string* error, std::string* digest_out,
                  bool* cache_hit, const std::atomic<bool>* cancel)
{
    CASCADE_CHECK(nl != nullptr);
    static telemetry::Histogram* const codegen_ns =
        telemetry::Registry::global().histogram("jit.build.codegen_ns");
    std::vector<std::string> units;
    {
        TELEM_SPAN_HIST("jit.codegen", codegen_ns);
        units = generate_units(*nl);
    }
    std::string digest;
    const JitModule* mod =
        build_module(units, &digest, cache_hit, error, cancel);
    if (digest_out != nullptr) {
        *digest_out = digest;
    }
    if (mod == nullptr) {
        return nullptr;
    }
    void* state = mod->create();
    if (state == nullptr) {
        *error = "jit kernel instantiation failed";
        return nullptr;
    }
    return std::unique_ptr<JitKernel>(
        new JitKernel(std::move(nl), mod, state, digest));
}

JitKernel::JitKernel(std::shared_ptr<const fpga::Netlist> nl,
                     const JitModule* mod, void* state, std::string digest)
    : nl_(std::move(nl)), mod_(mod), state_(state),
      digest_(std::move(digest))
{
    uint32_t maxw = 1;
    for (size_t i = 0; i < nl_->inputs.size(); ++i) {
        input_index_[nl_->inputs[i].name] = static_cast<int>(i);
        maxw = std::max(maxw, words_of(nl_->inputs[i].width));
    }
    out_cache_.reserve(nl_->outputs.size());
    for (size_t i = 0; i < nl_->outputs.size(); ++i) {
        output_index_[nl_->outputs[i].name] = static_cast<int>(i);
        const uint32_t w = nl_->nodes[nl_->outputs[i].node].width;
        out_cache_.emplace_back(w, 0);
        maxw = std::max(maxw, words_of(w));
    }
    reg_cache_.reserve(nl_->regs.size());
    for (size_t i = 0; i < nl_->regs.size(); ++i) {
        reg_index_[nl_->regs[i].name] = static_cast<uint32_t>(i);
        reg_cache_.emplace_back(nl_->regs[i].width, 0);
        maxw = std::max(maxw, words_of(nl_->regs[i].width));
    }
    for (size_t i = 0; i < nl_->mems.size(); ++i) {
        mem_index_[nl_->mems[i].name] = static_cast<uint32_t>(i);
        maxw = std::max(maxw, words_of(nl_->mems[i].width));
    }
    scratch_.resize(maxw);
}

JitKernel::~JitKernel()
{
    mod_->destroy(state_);
}

int
JitKernel::input_index(const std::string& name) const
{
    const auto it = input_index_.find(name);
    return it == input_index_.end() ? -1 : it->second;
}

int
JitKernel::output_index(const std::string& name) const
{
    const auto it = output_index_.find(name);
    return it == output_index_.end() ? -1 : it->second;
}

void
JitKernel::set_input(const std::string& name, const BitVector& value)
{
    const int i = input_index(name);
    CASCADE_CHECK(i >= 0);
    set_input(i, value);
}

void
JitKernel::set_input(int index, const BitVector& value)
{
    const fpga::PortDef& port = nl_->inputs[static_cast<size_t>(index)];
    const uint32_t nw = words_of(port.width);
    for (uint32_t k = 0; k < nw; ++k) {
        scratch_[k] = k < value.num_words() ? value.word(k) : 0;
    }
    // The kernel masks the top word, matching value.resized(port.width).
    mod_->set_input(state_, static_cast<uint32_t>(index), scratch_.data());
}

void
JitKernel::set_input_word(int index, uint64_t value)
{
    CASCADE_CHECK(nl_->inputs[static_cast<size_t>(index)].width <= 64);
    mod_->set_input(state_, static_cast<uint32_t>(index), &value);
}

uint64_t
JitKernel::output_word(int index) const
{
    mod_->get_output(state_, static_cast<uint32_t>(index),
                     scratch_.data());
    return scratch_[0];
}

const BitVector&
JitKernel::output(const std::string& name) const
{
    const int i = output_index(name);
    CASCADE_CHECK(i >= 0);
    return output(i);
}

const BitVector&
JitKernel::output(int index) const
{
    mod_->get_output(state_, static_cast<uint32_t>(index),
                     scratch_.data());
    BitVector& out = out_cache_[static_cast<size_t>(index)];
    for (uint32_t k = 0; k < out.num_words(); ++k) {
        out.set_word(k, scratch_[k]);
    }
    return out;
}

const BitVector&
JitKernel::reg_value(const std::string& name) const
{
    const uint32_t r = reg_index_.at(name);
    mod_->get_reg(state_, r, scratch_.data());
    BitVector& out = reg_cache_[r];
    for (uint32_t k = 0; k < out.num_words(); ++k) {
        out.set_word(k, scratch_[k]);
    }
    return out;
}

void
JitKernel::set_reg(const std::string& name, const BitVector& value)
{
    const uint32_t r = reg_index_.at(name);
    const uint32_t nw = words_of(nl_->regs[r].width);
    for (uint32_t k = 0; k < nw; ++k) {
        scratch_[k] = k < value.num_words() ? value.word(k) : 0;
    }
    mod_->set_reg(state_, r, scratch_.data());
}

const BitVector&
JitKernel::mem_value(const std::string& name, uint64_t idx) const
{
    const uint32_t m = mem_index_.at(name);
    CASCADE_CHECK(idx < nl_->mems[m].size);
    mod_->get_mem(state_, m, idx, scratch_.data());
    BitVector& out =
        mem_cache_
            .emplace(std::make_pair(m, idx),
                     BitVector(nl_->mems[m].width, 0))
            .first->second;
    for (uint32_t k = 0; k < out.num_words(); ++k) {
        out.set_word(k, scratch_[k]);
    }
    return out;
}

void
JitKernel::set_mem(const std::string& name, uint64_t idx,
                   const BitVector& value)
{
    const uint32_t m = mem_index_.at(name);
    CASCADE_CHECK(idx < nl_->mems[m].size);
    const uint32_t nw = words_of(nl_->mems[m].width);
    for (uint32_t k = 0; k < nw; ++k) {
        scratch_[k] = k < value.num_words() ? value.word(k) : 0;
    }
    mod_->set_mem(state_, m, idx, scratch_.data());
}

int
JitKernel::reg_index(const std::string& name) const
{
    const auto it = reg_index_.find(name);
    return it == reg_index_.end() ? -1 : static_cast<int>(it->second);
}

uint64_t
JitKernel::reg_word(int index) const
{
    mod_->get_reg(state_, static_cast<uint32_t>(index), scratch_.data());
    return scratch_[0];
}

int
JitKernel::mem_index(const std::string& name) const
{
    const auto it = mem_index_.find(name);
    return it == mem_index_.end() ? -1 : static_cast<int>(it->second);
}

void
JitKernel::write_mem(int mem, uint64_t first, const uint64_t* values,
                     size_t count)
{
    const auto m = static_cast<uint32_t>(mem);
    const fpga::MemDef& def = nl_->mems[m];
    CASCADE_CHECK(def.width <= 64 && first <= def.size &&
                  count <= def.size - first);
    for (size_t k = 0; k < count; ++k) {
        mod_->set_mem(state_, m, first + k, &values[k]);
    }
}

uint64_t
JitKernel::latch_count(const std::string& name) const
{
    const auto it = reg_index_.find(name);
    return it == reg_index_.end() ? 0
                                  : mod_->latch_count(state_, it->second);
}

} // namespace cascade::jit
