#include "jit/jit_cache.h"

#include <dlfcn.h>
#include <fcntl.h>
#include <spawn.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <system_error>
#include <thread>

#include "telemetry/journal.h"
#include "telemetry/telemetry.h"

extern char** environ;

namespace cascade::jit {

namespace {

/// Options every unit is compiled with, then the options that link the
/// objects into the kernel. The build sits on the path from an edit to
/// its first kernel tick, and on generated kernels (gated blocks of word
/// arithmetic) -O1 compiles in about half the time of -O2 for a few
/// percent of kernel speed. A kernel uses nothing of the C++ runtime (its
/// State comes from calloc), so the link leaves libstdc++ out: on the
/// SHA-256 miner's 37 KB kernel that link took 8-9 ms instead of 70-80.
/// libgcc stays for the helpers the compiler may call; the C library's
/// calloc and free resolve against the process that dlopens the kernel.
const std::vector<std::string> kCompileFlags = {"-std=c++17", "-O1",
                                                "-fPIC", "-c"};
const std::vector<std::string> kLinkFlags = {"-shared", "-nodefaultlibs",
                                             "-lgcc"};

/// Resident modules, keyed by digest; never unloaded (see header).
std::mutex g_mutex;
std::map<std::string, JitModule>& registry()
{
    static auto* r = new std::map<std::string, JitModule>();
    return *r;
}

/// Kernel-build phase durations in the process registry (builds run on
/// the compile service's kernel thread, which has no Runtime handle), of
/// the builds that link: jit.build.compile_ns (every unit's compile) and
/// jit.build.link_ns (link and dlopen). JitKernel::create records
/// jit.build.codegen_ns.
telemetry::Histogram*
phase_hist(const char* phase)
{
    return telemetry::Registry::global().histogram(
        std::string("jit.build.") + phase + "_ns");
}

uint64_t
ns_since(std::chrono::steady_clock::time_point start)
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
}

/// Numbers this process's builds, so concurrent builders of one digest
/// never share a temporary file.
std::atomic<uint64_t> g_builds{0};

/// The process-wide cap on running compiler jobs, shared by every
/// in-flight build.
class JobSlots {
  public:
    static unsigned
    count()
    {
        return std::max(1u, std::thread::hardware_concurrency());
    }

    void
    acquire()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        freed_.wait(lock, [this] { return free_ > 0; });
        --free_;
    }

    void
    release()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++free_;
        }
        freed_.notify_one();
    }

  private:
    std::mutex mutex_;
    std::condition_variable freed_;
    unsigned free_ = count();
};

JobSlots&
job_slots()
{
    static auto* slots = new JobSlots();
    return *slots;
}

bool
file_exists(const std::string& path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

bool
executable(const std::string& path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode) &&
           ::access(path.c_str(), X_OK) == 0;
}

/// What the shell's `command -v` finds for \p cmd, without a shell: a
/// path is taken as it is, a name is looked up on $PATH. "" if it names
/// no executable file.
std::string
find_executable(const std::string& cmd)
{
    if (cmd.find('/') != std::string::npos) {
        return executable(cmd) ? cmd : std::string();
    }
    if (cmd.empty()) {
        return {};
    }
    const char* env = std::getenv("PATH");
    const std::string path = env != nullptr ? env : "/usr/bin:/bin";
    for (size_t begin = 0;;) {
        const size_t end = path.find(':', begin);
        const std::string dir = path.substr(begin, end - begin);
        const std::string candidate = (dir.empty() ? "." : dir) + "/" + cmd;
        if (executable(candidate)) {
            return candidate;
        }
        if (end == std::string::npos) {
            return {};
        }
        begin = end + 1;
    }
}

/// Runs \p argv (argv[0] is the program's path) without a shell, in one
/// of the process-wide job slots, with stdout and stderr appended to
/// \p log_path. Returns its exit status, or -1 if it did not start or
/// did not exit normally.
int
run_job(const std::vector<std::string>& argv, const std::string& log_path)
{
    std::vector<char*> args;
    for (const std::string& a : argv) {
        args.push_back(const_cast<char*>(a.c_str()));
    }
    args.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    ::posix_spawn_file_actions_init(&actions);
    ::posix_spawn_file_actions_addopen(&actions, STDERR_FILENO,
                                       log_path.c_str(),
                                       O_WRONLY | O_CREAT | O_APPEND, 0644);
    ::posix_spawn_file_actions_adddup2(&actions, STDERR_FILENO,
                                       STDOUT_FILENO);
    job_slots().acquire();
    pid_t pid = 0;
    int status = -1;
    if (::posix_spawn(&pid, args[0], &actions, nullptr, args.data(),
                      environ) == 0) {
        int ws = 0;
        pid_t waited = -1;
        do {
            waited = ::waitpid(pid, &ws, 0);
        } while (waited < 0 && errno == EINTR);
        if (waited == pid && WIFEXITED(ws)) {
            status = WEXITSTATUS(ws);
        }
    }
    job_slots().release();
    ::posix_spawn_file_actions_destroy(&actions);
    return status;
}

/// Compiles srcs[k] to objs[k] for every unit, in unit order, on at most
/// one thread per job slot. Returns "" on success, else which unit failed
/// and how (or that \p cancel stopped the build).
std::string
compile_units(const std::string& cxx, const std::vector<std::string>& srcs,
              const std::vector<std::string>& objs,
              const std::string& log_path, const std::atomic<bool>* cancel)
{
    std::atomic<size_t> next{0};
    std::mutex mutex;
    std::string failure;
    const auto worker = [&] {
        for (size_t k = next++; k < srcs.size(); k = next++) {
            {
                std::lock_guard<std::mutex> lock(mutex);
                if (failure.empty() && cancel != nullptr &&
                    cancel->load(std::memory_order_relaxed)) {
                    failure = "cancelled";
                }
                if (!failure.empty()) {
                    return; // the build has failed: start no more jobs
                }
            }
            std::vector<std::string> argv = {cxx};
            argv.insert(argv.end(), kCompileFlags.begin(),
                        kCompileFlags.end());
            argv.insert(argv.end(), {"-o", objs[k], srcs[k]});
            const int rc = run_job(argv, log_path);
            if (rc != 0) {
                std::lock_guard<std::mutex> lock(mutex);
                if (failure.empty()) {
                    failure = "unit " + srcs[k] + " exit " +
                              std::to_string(rc);
                }
            }
        }
    };
    std::vector<std::thread> helpers;
    const size_t threads =
        std::min<size_t>(srcs.size(), JobSlots::count());
    for (size_t t = 1; t < threads; ++t) {
        try {
            helpers.emplace_back(worker);
        } catch (const std::system_error&) {
            break; // no thread to spare: this one compiles the rest
        }
    }
    worker();
    for (std::thread& t : helpers) {
        t.join();
    }
    return failure;
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
    m->create = reinterpret_cast<decltype(m->create)>(sym("cascade_jit_new"));
    m->destroy =
        reinterpret_cast<decltype(m->destroy)>(sym("cascade_jit_free"));
    m->eval = reinterpret_cast<decltype(m->eval)>(sym("cascade_jit_eval"));
    m->step = reinterpret_cast<decltype(m->step)>(sym("cascade_jit_step"));
    m->state = reinterpret_cast<decltype(m->state)>(sym("cascade_jit_state"));
    m->latch_count = reinterpret_cast<decltype(m->latch_count)>(
        sym("cascade_jit_latch_count"));
    if (abi == nullptr || dig == nullptr || m->create == nullptr ||
        m->destroy == nullptr || m->eval == nullptr || m->step == nullptr ||
        m->state == nullptr || m->latch_count == nullptr) {
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

/// Writes \p text to \p path through the temporary \p tmp and a rename,
/// so a concurrent builder never reads a partly written unit.
void
publish_file(const std::string& path, const std::string& tmp,
             const std::string& text)
{
    {
        std::ofstream f(tmp, std::ios::trunc);
        f << text;
        if (!f.flush()) {
            f.close();
            ::unlink(tmp.c_str());
            return;
        }
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        ::unlink(tmp.c_str());
    }
}

} // namespace

std::string
find_compiler()
{
    const char* env = std::getenv("CASCADE_JIT_CXX");
    if (env != nullptr && *env != '\0') {
        // Explicit override: honored verbatim, never falls back — a bogus
        // path is how tests force the tier unavailable.
        return find_executable(env);
    }
    for (const char* cand : {"c++", "g++", "clang++"}) {
        std::string path = find_executable(cand);
        if (!path.empty()) {
            return path;
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
build_module(const std::vector<std::string>& units, std::string* digest_out,
             bool* cache_hit, std::string* error,
             const std::atomic<bool>* cancel)
{
    // The object depends on the compiler and its flags as much as on the
    // source, so all of them address the cache: a warm cache never hands
    // back an object another compiler or other flags produced.
    const std::string cxx = find_compiler();
    std::string key = cxx;
    for (const auto* flags : {&kCompileFlags, &kLinkFlags}) {
        key += "\n";
        for (const std::string& f : *flags) {
            key += f + " ";
        }
    }
    for (const std::string& unit : units) {
        key += "\n" + std::to_string(unit.size()) + "\n" + unit;
    }
    const std::string digest = telemetry::digest_hex(key);
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

    const std::string base = cache_dir() + "/" + digest;
    const std::string so_path = base + ".so";
    const std::string tmp = ".tmp" + std::to_string(::getpid()) + "-" +
                            std::to_string(g_builds++);
    std::vector<std::string> srcs;
    std::vector<std::string> objs;
    for (size_t k = 0; k < units.size(); ++k) {
        const std::string stem =
            k == 0 ? base : base + "." + std::to_string(k);
        srcs.push_back(stem + ".cc");
        objs.push_back(stem + tmp + ".o");
    }

    // Keep the units beside the object: they are the CI artifact and the
    // debuggable form of the kernel.
    for (size_t k = 0; k < units.size(); ++k) {
        if (!file_exists(srcs[k])) {
            publish_file(srcs[k], srcs[k] + tmp,
                         k == 0 ? units[0] +
                                      "\nextern \"C\" const char* "
                                      "cascade_jit_digest() { return \"" +
                                      digest + "\"; }\n"
                                : units[k]);
        }
    }

    // Warm path: a previous session (or tenant) already built this exact
    // kernel.
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
    // The log holds this build's compiler output, appended by every job.
    const std::string log_path = base + ".log";
    const int log_fd =
        ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (log_fd >= 0) {
        ::close(log_fd);
    }
    const std::string tmp_so = so_path + tmp;
    static telemetry::Histogram* const compile_ns = phase_hist("compile");
    static telemetry::Histogram* const link_ns = phase_hist("link");
    auto t = std::chrono::steady_clock::now();
    std::string failure = compile_units(cxx, srcs, objs, log_path, cancel);
    if (failure.empty()) {
        compile_ns->record(ns_since(t));
        t = std::chrono::steady_clock::now();
        std::vector<std::string> argv = {cxx};
        argv.insert(argv.end(), kLinkFlags.begin(), kLinkFlags.end());
        argv.insert(argv.end(), {"-o", tmp_so});
        argv.insert(argv.end(), objs.begin(), objs.end());
        const int rc = run_job(argv, log_path);
        if (rc != 0 || !file_exists(tmp_so)) {
            failure = "link exit " + std::to_string(rc);
        }
    }
    for (const std::string& obj : objs) {
        ::unlink(obj.c_str());
    }
    if (failure.empty() && ::rename(tmp_so.c_str(), so_path.c_str()) != 0) {
        failure = "rename to " + so_path + " failed";
    }
    if (!failure.empty()) {
        ::unlink(tmp_so.c_str());
        *error = "jit compile failed (" + failure + ", log: " + log_path +
                 ")";
        return nullptr;
    }

    void* handle = ::dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (handle == nullptr) {
        const char* why = ::dlerror();
        *error = std::string("dlopen failed: ") +
                 (why != nullptr ? why : "unknown");
        return nullptr;
    }
    link_ns->record(ns_since(t));
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
