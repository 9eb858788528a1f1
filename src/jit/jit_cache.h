/// \file
/// In-process native-code cache for the JIT tier: writes the generated
/// translation unit to an on-disk, content-addressed cache (same FNV digest
/// scheme as the bitstream cache key in service::CompileService), invokes
/// the system compiler into a shared object, and dlopens the result. Warm
/// sessions — including a re-launch after a hypervisor eviction, since the
/// digest depends only on the generated source, the compiler and its flags
/// — skip the compile entirely and pay one dlopen.
///
/// Loaded modules are retained for the life of the process (dlclose while
/// generated code may still be referenced is never safe), keyed by digest
/// so re-adoption of the same design reuses the resident mapping.
///
/// Environment knobs:
///  - CASCADE_JIT_CXX: compiler to use (a nonexistent path disables the
///    tier — the graceful-degradation hook CI exercises).
///  - CASCADE_JIT_CACHE_DIR: cache directory (default under $TMPDIR).

#ifndef CASCADE_JIT_JIT_CACHE_H
#define CASCADE_JIT_JIT_CACHE_H

#include <cstdint>
#include <string>

namespace cascade::jit {

inline constexpr uint32_t kJitAbiVersion = 1;

/// Resolved symbols of one loaded kernel. Pointers stay valid for the
/// process lifetime (modules are never unloaded).
struct JitModule {
    void* handle = nullptr;
    void* (*create)() = nullptr;
    void (*destroy)(void*) = nullptr;
    void (*eval)(void*) = nullptr;
    void (*step)(void*) = nullptr;
    uint64_t (*cycles)(void*) = nullptr;
    void (*set_input)(void*, uint32_t, const uint64_t*) = nullptr;
    void (*get_output)(void*, uint32_t, uint64_t*) = nullptr;
    void (*get_reg)(void*, uint32_t, uint64_t*) = nullptr;
    void (*set_reg)(void*, uint32_t, const uint64_t*) = nullptr;
    void (*get_mem)(void*, uint32_t, uint64_t, uint64_t*) = nullptr;
    void (*set_mem)(void*, uint32_t, uint64_t, const uint64_t*) = nullptr;
    uint64_t (*latch_count)(void*, uint32_t) = nullptr;
};

/// The compiler the builder would invoke ("" when none is usable — the
/// JIT tier is then unavailable and the runtime journals jit.unavailable).
std::string find_compiler();

/// True iff a system compiler is usable right now.
bool compiler_available();

/// The resolved on-disk cache directory (created on demand).
std::string cache_dir();

/// Where the generated source for \p digest is persisted (the CI artifact
/// path; written on every cold build, and backfilled on warm loads).
std::string source_path_for(const std::string& digest);

/// Compiles (or cache-loads) \p source_body and returns the resident
/// module. The digest of the body, the compiler find_compiler() names and
/// the compile flags is returned via \p digest_out and the
/// `cascade_jit_digest` symbol is appended before compiling, so kernels
/// self-identify. \p cache_hit reports whether the compile was skipped
/// (either an in-process resident module or an on-disk .so). On failure
/// returns nullptr with \p error set.
const JitModule* build_module(const std::string& source_body,
                              std::string* digest_out, bool* cache_hit,
                              std::string* error);

} // namespace cascade::jit

#endif // CASCADE_JIT_JIT_CACHE_H
