/// \file
/// JitKernel: a netlist compiled to native code, presented through the
/// FabricExec surface so HwEngine can drive it exactly like a programmed
/// Bitstream — same MMIO slot map, same task readback, same open-loop FSM.
/// create() runs the whole pipeline: codegen → content-addressed compile
/// (or warm load) → dlopen → instantiate.
///
/// Profiling/debug instrumentation use the FabricExec defaults (none):
/// the debugger hot-swaps an instrumented Bitstream twin when it arms, so
/// a kernel never needs trigger cells. Per-register latch counters are
/// kept (they are part of the profiler's adoption-merge contract).

#ifndef CASCADE_JIT_JIT_KERNEL_H
#define CASCADE_JIT_JIT_KERNEL_H

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fpga/fabric_exec.h"
#include "jit/jit_cache.h"

namespace cascade::jit {

class JitKernel : public fpga::FabricExec {
  public:
    /// Generates, compiles (or cache-loads), and instantiates a kernel
    /// for \p nl. Returns nullptr with \p *error set when the tier is
    /// unavailable (no compiler, compile failure, dlopen failure) or the
    /// build was cancelled (see build_module).
    /// \p digest_out / \p cache_hit report the content address and
    /// whether the compile was skipped.
    static std::unique_ptr<JitKernel>
    create(std::shared_ptr<const fpga::Netlist> nl, std::string* error,
           std::string* digest_out = nullptr, bool* cache_hit = nullptr,
           const std::atomic<bool>* cancel = nullptr);

    ~JitKernel() override;

    JitKernel(const JitKernel&) = delete;
    JitKernel& operator=(const JitKernel&) = delete;

    const fpga::Netlist& netlist() const override { return *nl_; }
    const std::string& digest() const { return digest_; }

    void set_input(const std::string& name, const BitVector& value) override;
    const BitVector& output(const std::string& name) const override;
    int input_index(const std::string& name) const override;
    int output_index(const std::string& name) const override;
    void set_input(int index, const BitVector& value) override;
    const BitVector& output(int index) const override;

    /// @{ Raw-word access by index, straight onto the kernel ABI.
    void set_input_word(int index, uint64_t value) override;
    uint64_t output_word(int index) const override;
    int reg_index(const std::string& name) const override;
    uint64_t reg_word(int index) const override;
    int mem_index(const std::string& name) const override;
    void write_mem(int mem, uint64_t first, const uint64_t* values,
                   size_t count) override;
    /// @}

    void eval_comb() override { mod_->eval(state_); }
    void step() override { mod_->step(state_); }
    uint64_t cycles() const override { return mod_->cycles(state_); }

    const BitVector& reg_value(const std::string& name) const override;
    void set_reg(const std::string& name, const BitVector& value) override;
    const BitVector& mem_value(const std::string& name,
                               uint64_t idx) const override;
    void set_mem(const std::string& name, uint64_t idx,
                 const BitVector& value) override;

    uint64_t latch_count(const std::string& name) const override;

  private:
    JitKernel(std::shared_ptr<const fpga::Netlist> nl, const JitModule* mod,
              void* state, std::string digest);

    std::shared_ptr<const fpga::Netlist> nl_;
    const JitModule* mod_; ///< resident for the process lifetime
    void* state_;          ///< kernel-owned State (freed via the ABI)
    std::string digest_;

    std::unordered_map<std::string, int> input_index_;
    std::unordered_map<std::string, int> output_index_;
    std::unordered_map<std::string, uint32_t> reg_index_;
    std::unordered_map<std::string, uint32_t> mem_index_;

    /// Marshalling caches: the FabricExec read API returns references, so
    /// reads land in per-slot BitVectors refreshed on access.
    mutable std::vector<BitVector> out_cache_;
    mutable std::vector<BitVector> reg_cache_;
    mutable std::map<std::pair<uint32_t, uint64_t>, BitVector> mem_cache_;
    mutable std::vector<uint64_t> scratch_;
};

} // namespace cascade::jit

#endif // CASCADE_JIT_JIT_KERNEL_H
