#include "jit/jit_cache.h"

#include <dlfcn.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>

#include "telemetry/journal.h"

namespace cascade::jit {

namespace {

/// Options every kernel is compiled with. The build sits on the path from
/// an edit to its first kernel tick, and on generated kernels (gated blocks
/// of word arithmetic) -O1 compiles in about half the time of -O2 for a
/// few percent of kernel speed.
constexpr char kCompileFlags[] = "-std=c++17 -O1 -fPIC -shared";

/// Resident modules, keyed by digest; never unloaded (see header).
std::mutex g_mutex;
std::map<std::string, JitModule>& registry()
{
    static auto* r = new std::map<std::string, JitModule>();
    return *r;
}

bool
file_exists(const std::string& path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

bool
runnable(const std::string& cmd)
{
    if (cmd.empty()) {
        return false;
    }
    const std::string probe =
        "command -v '" + cmd + "' >/dev/null 2>&1";
    return std::system(probe.c_str()) == 0;
}

/// Resolves every ABI symbol from \p handle; false (with *error) if the
/// object is not a cascade JIT kernel of the expected ABI revision.
bool
resolve(void* handle, const std::string& digest, JitModule* m,
        std::string* error)
{
    auto sym = [&](const char* name) { return ::dlsym(handle, name); };
    auto* abi = reinterpret_cast<unsigned (*)()>(
        sym("cascade_jit_abi_version"));
    auto* dig = reinterpret_cast<const char* (*)()>(
        sym("cascade_jit_digest"));
    m->handle = handle;
    m->create = reinterpret_cast<void* (*)()>(sym("cascade_jit_new"));
    m->destroy = reinterpret_cast<void (*)(void*)>(sym("cascade_jit_free"));
    m->eval = reinterpret_cast<void (*)(void*)>(sym("cascade_jit_eval"));
    m->step = reinterpret_cast<void (*)(void*)>(sym("cascade_jit_step"));
    m->cycles = reinterpret_cast<uint64_t (*)(void*)>(
        sym("cascade_jit_cycles"));
    m->set_input = reinterpret_cast<void (*)(void*, uint32_t,
                                             const uint64_t*)>(
        sym("cascade_jit_set_input"));
    m->get_output = reinterpret_cast<void (*)(void*, uint32_t, uint64_t*)>(
        sym("cascade_jit_get_output"));
    m->get_reg = reinterpret_cast<void (*)(void*, uint32_t, uint64_t*)>(
        sym("cascade_jit_get_reg"));
    m->set_reg = reinterpret_cast<void (*)(void*, uint32_t,
                                           const uint64_t*)>(
        sym("cascade_jit_set_reg"));
    m->get_mem = reinterpret_cast<void (*)(void*, uint32_t, uint64_t,
                                           uint64_t*)>(
        sym("cascade_jit_get_mem"));
    m->set_mem = reinterpret_cast<void (*)(void*, uint32_t, uint64_t,
                                           const uint64_t*)>(
        sym("cascade_jit_set_mem"));
    m->latch_count = reinterpret_cast<uint64_t (*)(void*, uint32_t)>(
        sym("cascade_jit_latch_count"));
    if (abi == nullptr || dig == nullptr || m->create == nullptr ||
        m->destroy == nullptr || m->eval == nullptr || m->step == nullptr ||
        m->cycles == nullptr || m->set_input == nullptr ||
        m->get_output == nullptr || m->get_reg == nullptr ||
        m->set_reg == nullptr || m->get_mem == nullptr ||
        m->set_mem == nullptr || m->latch_count == nullptr) {
        *error = "jit kernel is missing ABI symbols";
        return false;
    }
    if (abi() != kJitAbiVersion) {
        *error = "jit kernel ABI version mismatch";
        return false;
    }
    if (digest != dig()) {
        *error = "jit kernel digest mismatch";
        return false;
    }
    return true;
}

bool
write_file(const std::string& path, const std::string& text)
{
    std::ofstream f(path, std::ios::trunc);
    if (!f) {
        return false;
    }
    f << text;
    f.flush();
    return static_cast<bool>(f);
}

} // namespace

std::string
find_compiler()
{
    const char* env = std::getenv("CASCADE_JIT_CXX");
    if (env != nullptr && *env != '\0') {
        // Explicit override: honored verbatim, never falls back — a bogus
        // path is how tests force the tier unavailable.
        return runnable(env) ? std::string(env) : std::string();
    }
    for (const char* cand : {"c++", "g++", "clang++"}) {
        if (runnable(cand)) {
            return cand;
        }
    }
    return {};
}

bool
compiler_available()
{
    return !find_compiler().empty();
}

std::string
cache_dir()
{
    std::string dir;
    const char* env = std::getenv("CASCADE_JIT_CACHE_DIR");
    if (env != nullptr && *env != '\0') {
        dir = env;
    } else {
        const char* tmp = std::getenv("TMPDIR");
        dir = std::string(tmp != nullptr && *tmp != '\0' ? tmp : "/tmp") +
              "/cascade-jit-" + std::to_string(::getuid());
    }
    ::mkdir(dir.c_str(), 0700); // EEXIST is fine
    return dir;
}

std::string
source_path_for(const std::string& digest)
{
    return cache_dir() + "/" + digest + ".cc";
}

const JitModule*
build_module(const std::string& source_body, std::string* digest_out,
             bool* cache_hit, std::string* error)
{
    // The object depends on the compiler and its flags as much as on the
    // source, so all three address the cache: a warm cache never hands
    // back an object another compiler or other flags produced.
    const std::string cxx = find_compiler();
    const std::string digest = telemetry::digest_hex(
        cxx + "\n" + kCompileFlags + "\n" + source_body);
    if (digest_out != nullptr) {
        *digest_out = digest;
    }
    if (cache_hit != nullptr) {
        *cache_hit = false;
    }
    {
        std::lock_guard<std::mutex> lock(g_mutex);
        const auto it = registry().find(digest);
        if (it != registry().end()) {
            if (cache_hit != nullptr) {
                *cache_hit = true;
            }
            return &it->second;
        }
    }

    const std::string dir = cache_dir();
    const std::string so_path = dir + "/" + digest + ".so";
    const std::string cc_path = source_path_for(digest);
    const std::string full =
        source_body + "\nextern \"C\" const char* cascade_jit_digest() { "
                      "return \"" + digest + "\"; }\n";

    // Keep the generated source beside the object: it is the CI artifact
    // and the debuggable form of the kernel.
    if (!file_exists(cc_path)) {
        write_file(cc_path, full);
    }

    // Warm path: a previous session (or tenant) already compiled this
    // exact source.
    if (file_exists(so_path)) {
        void* handle = ::dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
        if (handle != nullptr) {
            JitModule m;
            std::string verify_err;
            if (resolve(handle, digest, &m, &verify_err)) {
                std::lock_guard<std::mutex> lock(g_mutex);
                auto [it, inserted] = registry().emplace(digest, m);
                if (!inserted) {
                    ::dlclose(handle); // raced another builder; theirs wins
                }
                if (cache_hit != nullptr) {
                    *cache_hit = true;
                }
                return &it->second;
            }
            ::dlclose(handle); // stale or foreign object: rebuild below
        }
    }

    if (cxx.empty()) {
        *error = "no usable C++ compiler (set CASCADE_JIT_CXX or install "
                 "c++/g++/clang++)";
        return nullptr;
    }
    const std::string tmp_so =
        so_path + ".tmp" + std::to_string(::getpid());
    const std::string log_path = dir + "/" + digest + ".log";
    const std::string cmd = "'" + cxx + "' " + kCompileFlags + " -o '" +
                            tmp_so + "' '" + cc_path + "' 2> '" + log_path +
                            "'";
    const int rc = std::system(cmd.c_str());
    if (rc != 0 || !file_exists(tmp_so)) {
        *error = "jit compile failed (exit " + std::to_string(rc) +
                 ", log: " + log_path + ")";
        ::unlink(tmp_so.c_str());
        return nullptr;
    }
    if (::rename(tmp_so.c_str(), so_path.c_str()) != 0) {
        *error = "jit cache rename failed for " + so_path;
        ::unlink(tmp_so.c_str());
        return nullptr;
    }

    void* handle = ::dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (handle == nullptr) {
        const char* why = ::dlerror();
        *error = std::string("dlopen failed: ") +
                 (why != nullptr ? why : "unknown");
        return nullptr;
    }
    JitModule m;
    if (!resolve(handle, digest, &m, error)) {
        ::dlclose(handle);
        return nullptr;
    }
    std::lock_guard<std::mutex> lock(g_mutex);
    auto [it, inserted] = registry().emplace(digest, m);
    if (!inserted) {
        ::dlclose(handle);
    }
    return &it->second;
}

} // namespace cascade::jit
