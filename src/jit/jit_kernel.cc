#include "jit/jit_kernel.h"

#include "common/check.h"
#include "jit/codegen.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace cascade::jit {

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
    : FabricExec(std::move(nl)), mod_(mod), state_(state),
      digest_(std::move(digest))
{
    uint64_t* v = nullptr;
    uint64_t* r = nullptr;
    uint64_t* m = nullptr;
    uint64_t* cycles = nullptr;
    uint64_t* dirty = nullptr;
    mod_->state(state_, &v, &r, &m, &cycles, &dirty);
    bind_state({v, r, m, cycles, dirty});
}

JitKernel::~JitKernel()
{
    mod_->destroy(state_);
}

uint64_t
JitKernel::latch_count(const std::string& name) const
{
    const int r = reg_index(name);
    return r < 0 ? 0 : mod_->latch_count(state_, static_cast<uint32_t>(r));
}

} // namespace cascade::jit
