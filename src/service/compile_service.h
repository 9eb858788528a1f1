/// \file
/// The pooled compile service: every background build of a program
/// version, for any number of registered clients (Runtimes). One job per
/// edit: an N-worker pool synthesizes the job's module once, then runs
/// two stages from that one netlist. The fabric stage (techmap, place,
/// timing) continues on the worker; the kernel stage, when the job asks
/// for it, builds the native JIT kernel on a thread the service starts
/// for it, so a worker never waits for a compiler. Each stage delivers
/// its own Done on the client's channel.
///
/// A client has at most one job. Its newer job, or its cancel() or
/// unregistering, cancels the one it has: a queued job leaves the FIFO
/// queue, placement stops within a few thousand moves, the kernel build
/// stops its running compilers within milliseconds, the client's
/// undelivered results are discarded, and a cancelled job delivers
/// nothing and caches nothing.
/// So the queue holds at most one job per client, and every Done a
/// client polls belongs to its latest job.
///
/// A content-addressed bitstream cache keys results by a digest of the
/// canonical elaborated source, the bound parameter values, the
/// device/target configuration, the annealing effort, and the placement
/// seed. A hit skips synth/techmap/place entirely and returns the cached
/// CompileResult with `CompileReport::cache_hit = true` and zeroed
/// per-phase timings (recompiling an unchanged program, the dominant REPL
/// pattern, becomes near-free); a wanted kernel still builds, from the
/// cached netlist.
///
/// A job may carry a prior placement (Job::prior), which seeds the
/// placement of a miss (see fpga/compile.h). The prior is not part of the
/// cache key: a hit is answered as without one, with the placement the
/// cached compile found.

#ifndef CASCADE_SERVICE_COMPILE_SERVICE_H
#define CASCADE_SERVICE_COMPILE_SERVICE_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "fpga/compile.h"
#include "jit/jit_kernel.h"
#include "telemetry/sync.h"
#include "telemetry/telemetry.h"
#include "verilog/elaborate.h"

namespace cascade::service {

class CompileService {
  public:
    struct Config {
        /// Worker threads. 0 is legal (jobs queue but never run — used by
        /// tests that need deterministic queue/cancellation behavior; the
        /// cache still answers hits synchronously at submit).
        size_t workers = 1;
    };

    /// Cached CompileResults retained (LRU beyond this).
    static constexpr size_t kCacheCapacity = 128;

    struct Job {
        uint64_t version = 0;
        std::shared_ptr<const verilog::ElaboratedModule> module;
        fpga::CompileOptions options;
        /// Causal request id (the submitting runtime's journal seq for
        /// the compile.launch event); 0 when the caller doesn't trace.
        /// Bound into the worker's trace spans as a flow step, so a
        /// request's spans chain across threads.
        uint64_t request = 0;
        /// Also build a JIT kernel from the job's netlist (the kernel
        /// stage).
        bool kernel = false;
        /// Seeds the placement on a cache miss; null for a full anneal.
        std::shared_ptr<const fpga::CellSites> prior;
    };

    /// One finished stage of a job.
    struct Done {
        enum class Stage { Fabric, Kernel };
        Stage stage = Stage::Fabric;
        uint64_t version = 0;
        /// The fabric stage's flow result. The kernel stage fills ok,
        /// error, netlist (the fabric's own netlist object) and
        /// report.cache_hit (whether the kernel build was skipped).
        fpga::CompileResult result;
        /// @{ Kernel stage: the kernel (null when the tier is
        /// unavailable, with result.error saying why) and its content
        /// address.
        std::unique_ptr<jit::JitKernel> kernel;
        std::string kernel_digest;
        /// @}
        /// @{ Request-tracing timeline anchors (tracer microseconds):
        /// the service-side boundaries the critical-path analyzer turns
        /// into the cache/queue/flow segments of the request. On a cache
        /// hit dequeue_us == done_us == enqueue_us (answered at submit).
        double cache_us = 0;   ///< cache key digest + lookup duration
        double enqueue_us = 0; ///< queued (after the cache lookup)
        double dequeue_us = 0; ///< a worker popped the job
        double done_us = 0;    ///< result pushed to the done queue
        /// @}
    };

    // Two overloads rather than `Config config = Config()`: a default
    // argument of a nested NSDMI class inside its enclosing class is
    // ill-formed until the class is complete.
    CompileService();
    explicit CompileService(Config config);
    /// Cancels every running job and joins the workers and the kernel
    /// threads. A cancelled kernel build stops its compilers, so this
    /// returns within milliseconds of the running placement's stop.
    ~CompileService();

    CompileService(const CompileService&) = delete;
    CompileService& operator=(const CompileService&) = delete;

    /// @{ Client registry. Each Runtime registers once; results are
    /// delivered per-client, and unregistering cancels that client's job.
    uint64_t register_client();
    void unregister_client(uint64_t client);
    /// @}

    /// Cancels \p client's job, queued or running, and discards its
    /// undelivered results.
    void cancel(uint64_t client);

    /// Enqueues a compile for \p client. It supersedes the client's job,
    /// which is cancelled first (a newer program version obsoletes it).
    /// On a cache hit the fabric result is delivered immediately without
    /// touching the queue or the workers, and a wanted kernel stage
    /// starts from the cached netlist.
    void submit(uint64_t client, Job job);

    /// Drains and returns every finished stage for \p client.
    std::vector<Done> poll(uint64_t client);

    /// True while \p client has a job queued or a stage running.
    bool busy(uint64_t client) const;

    /// Blocks until a finished compile is available for \p client (true)
    /// or \p timeout_s elapsed / the client has nothing in flight (false).
    /// This is the condition-variable replacement for the old 1 ms
    /// adoption-poll sleep loops.
    bool wait_for_done(uint64_t client, double timeout_s);

    /// Blocks until the queue is empty and no stage is running (benches
    /// bracket measurements with this).
    void wait_idle();

    /// @{ Introspection.
    size_t queued_jobs() const;
    size_t cache_entries() const;
    /// Per-instance cache counters (the process-registry counters
    /// aggregate across every service in the process; :stats wants this
    /// service's numbers).
    uint64_t cache_hits() const;
    uint64_t cache_misses() const;
    /// hits / (hits + misses); 0.0 before the first keyed lookup.
    double cache_hit_rate() const;
    /// The content-address of one compile: digest over the canonical
    /// printed elaborated source, bound parameter values, effort, target
    /// clock (the device configuration the flow compiles against), and
    /// placement seed. Exposed for tests.
    static std::string cache_key(const verilog::ElaboratedModule& em,
                                 const fpga::CompileOptions& options);
    /// @}

  private:
    struct Pending {
        uint64_t client = 0;
        Job job;
        std::string key; ///< cache key (empty when caching is off)
        uint64_t tenant = 0;   ///< submitting thread's tenant (lanes)
        double enqueue_us = 0; ///< tracer time at submit (queue span)
        double cache_us = 0;   ///< cache lookup duration at submit
    };

    /// Set when a running job is cancelled; its stages poll it.
    using CancelFlag = std::shared_ptr<std::atomic<bool>>;

    /// A kernel stage's thread; `finished` once it no longer needs the
    /// service, so the next start (or the destructor) can join it.
    struct KernelThread {
        std::thread thread;
        bool finished = false;
    };

    void worker_loop();
    /// Starts \p job's kernel stage over \p netlist on its own thread.
    void start_kernel_locked(uint64_t client, const Job& job,
                             std::shared_ptr<const fpga::Netlist> netlist,
                             const CancelFlag& cancel);
    void kernel_stage(uint64_t client, uint64_t version,
                      std::shared_ptr<const fpga::Netlist> netlist,
                      CancelFlag cancel,
                      std::list<KernelThread>::iterator self);
    /// Cancels \p client's job and discards its undelivered results.
    void cancel_locked(uint64_t client);
    /// Retires one running stage of \p client; true if its job was not
    /// cancelled and its client is still registered (deliver its Done).
    bool finish_stage_locked(uint64_t client, const CancelFlag& cancel);
    bool inflight_locked(uint64_t client) const;
    void cache_insert_locked(const std::string& key,
                             const fpga::CompileResult& result);

    const Config config_;

    mutable telemetry::Mutex mutex_{"service.queue"};
    telemetry::CondVar work_cv_{
        "service.work_cv"}; ///< workers wait for queue items
    telemetry::CondVar done_cv_{
        "service.done_cv"}; ///< clients wait for results
    bool stop_ = false;
    uint64_t next_client_ = 0;
    std::set<uint64_t> clients_;
    std::deque<Pending> queue_;
    /// client -> one entry per running stage (a job's two stages share
    /// its flag)
    std::multimap<uint64_t, CancelFlag> running_;
    std::map<uint64_t, std::vector<Done>> done_;    ///< client -> results
    std::map<std::string, fpga::CompileResult> cache_;
    std::list<std::string> cache_lru_; ///< front = most recently used
    std::vector<std::thread> workers_;
    std::list<KernelThread> kernel_threads_;

    /// Process-registry metrics (telemetry::Registry::global()): pointers
    /// are stable for the registry's lifetime.
    telemetry::Counter* hits_ = nullptr;
    telemetry::Counter* misses_ = nullptr;
    telemetry::Counter* cancelled_ = nullptr;
    telemetry::Gauge* depth_ = nullptr;

    /// This service's own hit/miss tally (guarded by mutex_).
    uint64_t local_hits_ = 0;
    uint64_t local_misses_ = 0;
};

} // namespace cascade::service

#endif // CASCADE_SERVICE_COMPILE_SERVICE_H
