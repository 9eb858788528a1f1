/// \file
/// JitKernel: a netlist compiled to native code, presented through the
/// FabricExec surface so HwEngine can drive it exactly like a programmed
/// Bitstream — same MMIO slot map, same task readback, same open-loop FSM.
/// create() runs the whole pipeline: codegen → content-addressed compile
/// (or warm load) → dlopen → instantiate. The kernel's State uses the
/// Bitstream's word layout, and the constructor hands FabricExec its
/// words (cascade_jit_state), so ports, registers and memories are read
/// and written in place; the kernel itself supplies eval and step.
///
/// Profiling/debug instrumentation use the FabricExec defaults (none):
/// the debugger hot-swaps an instrumented Bitstream twin when it arms, so
/// a kernel never needs trigger cells. Latch counts are kept per clock
/// domain by the kernel (they are part of the profiler's adoption-merge
/// contract).

#ifndef CASCADE_JIT_JIT_KERNEL_H
#define CASCADE_JIT_JIT_KERNEL_H

#include <memory>
#include <string>

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

    const std::string& digest() const { return digest_; }

    void eval_comb() override { mod_->eval(state_); }
    void step() override { mod_->step(state_); }

    uint64_t latch_count(const std::string& name) const override;

  private:
    JitKernel(std::shared_ptr<const fpga::Netlist> nl, const JitModule* mod,
              void* state, std::string digest);

    const JitModule* mod_; ///< resident for the process lifetime
    void* state_;          ///< kernel-owned State (freed via the ABI)
    std::string digest_;
};

} // namespace cascade::jit

#endif // CASCADE_JIT_JIT_KERNEL_H
