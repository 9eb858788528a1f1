#include "jit/jit_cache.h"

#include <dlfcn.h>
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
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

/// Compiler jobs running in this process, over every in-flight build.
std::atomic<unsigned> g_jobs{0};

/// Takes one of the process-wide job slots, hardware_concurrency() of
/// them, so concurrent builds do not oversubscribe the host. False when
/// every slot is taken.
bool
take_job_slot()
{
    static const unsigned slots =
        std::max(1u, std::thread::hardware_concurrency());
    unsigned running = g_jobs.load();
    while (running < slots) {
        if (g_jobs.compare_exchange_weak(running, running + 1)) {
            return true;
        }
    }
    return false;
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

/// A compiler job: its argv (argv[0] is the program's path) and what a
/// failure calls it.
struct Job {
    std::vector<std::string> argv;
    std::string name;
};

/// Stops the jobs in \p running (pid, job) and reaps them: SIGTERM to
/// each job's process group, so g++ deletes its temporary files as it
/// dies (a SIGKILLed g++ leaves its `cc*.s` behind), then SIGKILL to a
/// group whose leader still runs 100 ms later.
void
stop_jobs(const std::vector<std::pair<pid_t, size_t>>& running)
{
    for (const auto& job : running) {
        ::kill(-job.first, SIGTERM);
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(100);
    for (const auto& job : running) {
        int ws = 0;
        while (::waitpid(job.first, &ws, WNOHANG) == 0) {
            if (std::chrono::steady_clock::now() > deadline) {
                ::kill(-job.first, SIGKILL);
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        --g_jobs;
    }
}

/// Runs \p jobs from the calling thread: each without a shell, in its
/// own process group, whenever a process-wide job slot is free, with
/// stdout and stderr appended to \p log_path. It reaps only its own
/// children, polling every millisecond, and checks \p cancel as often.
/// Returns "" once every job has exited 0. Else no further job starts,
/// the running ones are stopped and reaped (stop_jobs), and it returns
/// "cancelled" or how the first failure went: "<name> exit <status>",
/// status -1 for a job that did not start or did not exit normally.
std::string
spawn_and_reap(const std::vector<Job>& jobs, const std::string& log_path,
               const std::atomic<bool>* cancel)
{
    posix_spawn_file_actions_t actions;
    ::posix_spawn_file_actions_init(&actions);
    ::posix_spawn_file_actions_addopen(&actions, STDERR_FILENO,
                                       log_path.c_str(),
                                       O_WRONLY | O_CREAT | O_APPEND, 0644);
    ::posix_spawn_file_actions_adddup2(&actions, STDERR_FILENO,
                                       STDOUT_FILENO);
    posix_spawnattr_t attr;
    ::posix_spawnattr_init(&attr);
    // Process group 0: the job leads a group of its own, which the
    // compiler's cc1plus and as join.
    ::posix_spawnattr_setflags(&attr, POSIX_SPAWN_SETPGROUP);
    std::vector<std::pair<pid_t, size_t>> running;
    std::string failure;
    const auto fail = [&](size_t k, int status) {
        failure = jobs[k].name + " exit " + std::to_string(status);
    };
    for (size_t next = 0;
         failure.empty() && (next < jobs.size() || !running.empty());) {
        if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
            failure = "cancelled";
            break;
        }
        for (; next < jobs.size() && failure.empty() && take_job_slot();
             ++next) {
            std::vector<char*> args;
            for (const std::string& a : jobs[next].argv) {
                args.push_back(const_cast<char*>(a.c_str()));
            }
            args.push_back(nullptr);
            pid_t pid = 0;
            if (::posix_spawn(&pid, args[0], &actions, &attr, args.data(),
                              environ) == 0) {
                running.emplace_back(pid, next);
            } else {
                --g_jobs;
                fail(next, -1);
            }
        }
        bool reaped = false;
        for (auto it = running.begin();
             failure.empty() && it != running.end();) {
            int ws = 0;
            const pid_t waited = ::waitpid(it->first, &ws, WNOHANG);
            if (waited == 0) {
                ++it;
                continue;
            }
            --g_jobs;
            const int status =
                waited == it->first && WIFEXITED(ws) ? WEXITSTATUS(ws) : -1;
            if (status != 0) {
                fail(it->second, status);
            }
            it = running.erase(it);
            reaped = true;
        }
        if (!reaped && failure.empty()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }
    stop_jobs(running);
    ::posix_spawnattr_destroy(&attr);
    ::posix_spawn_file_actions_destroy(&actions);
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
    std::vector<Job> compiles;
    for (size_t k = 0; k < units.size(); ++k) {
        Job job{{cxx}, "unit " + srcs[k]};
        job.argv.insert(job.argv.end(), kCompileFlags.begin(),
                        kCompileFlags.end());
        job.argv.insert(job.argv.end(), {"-o", objs[k], srcs[k]});
        compiles.push_back(std::move(job));
    }
    std::string failure = spawn_and_reap(compiles, log_path, cancel);
    if (failure.empty()) {
        compile_ns->record(ns_since(t));
        t = std::chrono::steady_clock::now();
        Job link{{cxx}, "link"};
        link.argv.insert(link.argv.end(), kLinkFlags.begin(),
                         kLinkFlags.end());
        link.argv.insert(link.argv.end(), {"-o", tmp_so});
        link.argv.insert(link.argv.end(), objs.begin(), objs.end());
        failure = spawn_and_reap({link}, log_path, cancel);
        if (failure.empty() && !file_exists(tmp_so)) {
            failure = "link exit 0";
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
