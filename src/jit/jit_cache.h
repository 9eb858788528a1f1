/// \file
/// In-process native-code cache for the JIT tier: writes a kernel's
/// generated translation units (codegen.h) to an on-disk,
/// content-addressed cache (same FNV digest scheme as the bitstream cache
/// key in service::CompileService), compiles the units concurrently with
/// the system compiler, links the objects into one shared object, and
/// dlopens the result. Warm sessions — including a re-launch after a
/// hypervisor eviction, since the digest depends only on the generated
/// units, the compiler and its flags — skip the build entirely and pay one
/// dlopen.
///
/// The build runs its compiler jobs, the units and then the link, from
/// the calling thread, with no helper thread: each job is spawned without
/// a shell (posix_spawn, stderr appended to `<digest>.log`) in a process
/// group of its own, and reaped by a poll that also watches the build's
/// cancel flag. A process-wide cap of hardware_concurrency() running jobs
/// covers every in-flight build, so concurrent tenants do not
/// oversubscribe the host. A cancel or a failed job stops the running
/// jobs' process groups (the compiler, its cc1plus and assembler) within
/// milliseconds. Objects and temporaries are deleted whether the build
/// succeeds or fails; the units stay as `<digest>.cc` (the ABI unit) and
/// `<digest>.<k>.cc`.
///
/// Loaded modules are retained for the life of the process (dlclose while
/// generated code may still be referenced is never safe), keyed by digest
/// so re-adoption of the same design reuses the resident mapping. A module
/// exports create/free, eval, step, latch counts and cascade_jit_state,
/// which hands out a State's words: the host reads and writes ports,
/// registers and memories there itself (fpga::FabricExec), so no
/// per-port or per-register entry exists.
///
/// Environment knobs:
///  - CASCADE_JIT_CXX: compiler to use, a name looked up on $PATH or a
///    path (a value that names no executable disables the tier — the
///    graceful-degradation hook CI exercises).
///  - CASCADE_JIT_CACHE_DIR: cache directory (default under $TMPDIR).

#ifndef CASCADE_JIT_JIT_CACHE_H
#define CASCADE_JIT_JIT_CACHE_H

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace cascade::jit {

inline constexpr uint32_t kJitAbiVersion = 2;

/// Resolved symbols of one loaded kernel. Pointers stay valid for the
/// process lifetime (modules are never unloaded).
struct JitModule {
    void* handle = nullptr;
    void* (*create)() = nullptr;
    void (*destroy)(void*) = nullptr;
    void (*eval)(void*) = nullptr;
    void (*step)(void*) = nullptr;
    /// Hands out the addresses of a State's node-value, register and
    /// memory words (fpga::compute_layout) and of its cycle count and
    /// dirty bits; fpga::FabricExec reads and writes them directly.
    void (*state)(void*, uint64_t**, uint64_t**, uint64_t**, uint64_t**,
                  uint64_t**) = nullptr;
    uint64_t (*latch_count)(void*, uint32_t) = nullptr;
};

/// The path of the compiler the builder would invoke: CASCADE_JIT_CXX if
/// set, else the first of c++, g++, clang++ on $PATH. "" when none is
/// usable — the JIT tier is then unavailable and the runtime journals
/// jit.unavailable.
std::string find_compiler();

/// True iff a system compiler is usable right now.
bool compiler_available();

/// The resolved on-disk cache directory (created on demand).
std::string cache_dir();

/// Where the ABI unit of the kernel \p digest is persisted (the CI
/// artifact path; written on every cold build, and backfilled on warm
/// loads). Unit k >= 1 sits beside it as `<digest>.<k>.cc`.
std::string source_path_for(const std::string& digest);

/// Builds (or cache-loads) the kernel made of \p units (generate_units
/// order: units[0] is the ABI unit) and returns the resident module. The
/// digest of the compiler find_compiler() names, the compile and link
/// flags and every unit in order is returned via \p digest_out, and the
/// `cascade_jit_digest` symbol is appended to the ABI unit before
/// compiling, so kernels self-identify. \p cache_hit reports whether the
/// build was skipped (either an in-process resident module or an on-disk
/// .so). On failure returns nullptr with \p error set; a failed compile
/// or link names the log that holds the compiler's stderr. Once
/// \p cancel is set no further job starts, the running ones are stopped
/// and reaped, and the build fails with an error that says it was
/// cancelled; the first failed job does the same to the rest.
const JitModule* build_module(const std::vector<std::string>& units,
                              std::string* digest_out, bool* cache_hit,
                              std::string* error,
                              const std::atomic<bool>* cancel = nullptr);

} // namespace cascade::jit

#endif // CASCADE_JIT_JIT_CACHE_H
