#include "service/compile_service.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <system_error>

#include "common/check.h"
#include "telemetry/journal.h"
#include "telemetry/sync.h"
#include "telemetry/trace.h"
#include "verilog/printer.h"

namespace cascade::service {

CompileService::CompileService() : CompileService(Config()) {}

CompileService::CompileService(Config config)
    : config_(std::move(config))
{
    telemetry::Registry& reg = telemetry::Registry::global();
    hits_ = reg.counter("compile.cache.hits");
    misses_ = reg.counter("compile.cache.misses");
    cancelled_ = reg.counter("compile.cancelled");
    depth_ = reg.gauge("compile.queue.depth");
    workers_.reserve(config_.workers);
    for (size_t i = 0; i < config_.workers; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

CompileService::~CompileService()
{
    {
        std::lock_guard<telemetry::Mutex> lock(mutex_);
        stop_ = true;
        for (auto& [client, cancel] : running_) {
            cancel->store(true);
        }
    }
    work_cv_.notify_all();
    done_cv_.notify_all();
    for (std::thread& w : workers_) {
        w.join();
    }
    // No worker is left to start a kernel stage; a running one ends as
    // soon as its cancelled build has stopped its compilers.
    for (KernelThread& k : kernel_threads_) {
        k.thread.join();
    }
}

uint64_t
CompileService::register_client()
{
    std::lock_guard<telemetry::Mutex> lock(mutex_);
    const uint64_t id = ++next_client_;
    clients_.insert(id);
    return id;
}

void
CompileService::unregister_client(uint64_t client)
{
    {
        std::lock_guard<telemetry::Mutex> lock(mutex_);
        clients_.erase(client);
        cancel_locked(client);
    }
    done_cv_.notify_all();
}

void
CompileService::cancel(uint64_t client)
{
    {
        std::lock_guard<telemetry::Mutex> lock(mutex_);
        cancel_locked(client);
    }
    done_cv_.notify_all();
}

void
CompileService::cancel_locked(uint64_t client)
{
    const size_t before = queue_.size();
    queue_.erase(std::remove_if(queue_.begin(), queue_.end(),
                                [client](const Pending& p) {
                                    return p.client == client;
                                }),
                 queue_.end());
    uint64_t cancelled = before - queue_.size();
    const auto [first, last] = running_.equal_range(client);
    for (auto it = first; it != last; ++it) {
        // A job's two stages share one flag: count the job once.
        if (!it->second->exchange(true)) {
            ++cancelled;
        }
    }
    cancelled_->inc(cancelled);
    depth_->set(static_cast<int64_t>(queue_.size()));
    done_.erase(client);
}

bool
CompileService::finish_stage_locked(uint64_t client,
                                    const CancelFlag& cancel)
{
    const auto [first, last] = running_.equal_range(client);
    for (auto it = first; it != last; ++it) {
        if (it->second == cancel) {
            running_.erase(it);
            break;
        }
    }
    return !cancel->load() && clients_.count(client) != 0;
}

std::string
CompileService::cache_key(const verilog::ElaboratedModule& em,
                          const fpga::CompileOptions& options)
{
    // The canonical printed declaration is cloned pre-parameter-binding,
    // so the bound parameter values are part of the address (two
    // elaborations of one module text with different parameters are
    // different designs).
    std::string s = verilog::print(*em.decl);
    s += '\x1f';
    std::map<std::string, std::string> params;
    for (const auto& [name, value] : em.params) {
        params[name] = value.to_hex_string();
    }
    for (const auto& [name, hex] : params) {
        s += name;
        s += '=';
        s += hex;
        s += ';';
    }
    char buf[96];
    std::snprintf(buf, sizeof buf, "|e=%.17g|clk=%.17g|seed=%llu",
                  options.effort, options.target_clock_mhz,
                  static_cast<unsigned long long>(options.seed));
    s += buf;
    return telemetry::digest_hex(s);
}

void
CompileService::cache_insert_locked(const std::string& key,
                                    const fpga::CompileResult& result)
{
    if (key.empty() || !result.ok) {
        return;
    }
    const auto it = cache_.find(key);
    if (it == cache_.end()) {
        cache_[key] = result;
        cache_lru_.push_front(key);
        if (cache_.size() > kCacheCapacity &&
            !cache_lru_.empty()) {
            cache_.erase(cache_lru_.back());
            cache_lru_.pop_back();
        }
    }
}

void
CompileService::submit(uint64_t client, Job job)
{
    bool notify_done = false;
    {
        std::lock_guard<telemetry::Mutex> lock(mutex_);
        if (clients_.count(client) == 0) {
            return;
        }
        // A newer program version obsoletes this client's queued and
        // running jobs: the REPL's compile-cancellation path.
        cancel_locked(client);

        Pending pending;
        pending.client = client;
        // The content-address digest + map probe IS the cache lookup the
        // request tracer bills to the "cache" segment; bracket it.
        telemetry::Tracer& tracer = telemetry::Tracer::global();
        const double lookup_start_us = tracer.now_us();
        pending.key = job.module != nullptr
                          ? cache_key(*job.module, job.options)
                          : std::string();
        pending.tenant = telemetry::thread_tenant();
        pending.job = std::move(job);

        // Content-addressed lookup: a hit is answered synchronously, with
        // the per-phase flow timings zeroed (no flow ran) and the hit bit
        // set; everything deterministic (netlist, area, placement, seed,
        // Fmax) is byte-identical to the cold compile that populated the
        // entry.
        const auto hit = !pending.key.empty() ? cache_.find(pending.key)
                                              : cache_.end();
        pending.enqueue_us = tracer.now_us();
        pending.cache_us = pending.enqueue_us - lookup_start_us;
        if (hit != cache_.end()) {
            hits_->inc();
            ++local_hits_;
            cache_lru_.remove(pending.key);
            cache_lru_.push_front(pending.key);
            Done done;
            done.version = pending.job.version;
            done.cache_us = pending.cache_us;
            done.enqueue_us = pending.enqueue_us;
            done.dequeue_us = pending.enqueue_us;
            done.done_us = pending.enqueue_us;
            done.result = hit->second;
            done.result.report.cache_hit = true;
            done.result.report.synth_seconds = 0;
            done.result.report.techmap_seconds = 0;
            done.result.report.place_seconds = 0;
            done.result.report.timing_seconds = 0;
            done.result.report.total_seconds = 0;
            if (pending.job.kernel) {
                start_kernel_locked(client, pending.job,
                                    done.result.netlist,
                                    std::make_shared<std::atomic<bool>>());
            }
            done_[client].push_back(std::move(done));
            notify_done = true;
        } else {
            if (!pending.key.empty()) {
                misses_->inc();
                ++local_misses_;
            }
            queue_.push_back(std::move(pending));
        }
        depth_->set(static_cast<int64_t>(queue_.size()));
    }
    if (notify_done) {
        done_cv_.notify_all();
    } else {
        work_cv_.notify_one();
    }
}

std::vector<CompileService::Done>
CompileService::poll(uint64_t client)
{
    std::lock_guard<telemetry::Mutex> lock(mutex_);
    const auto it = done_.find(client);
    if (it == done_.end()) {
        return {};
    }
    std::vector<Done> out = std::move(it->second);
    it->second.clear();
    return out;
}

bool
CompileService::inflight_locked(uint64_t client) const
{
    if (running_.count(client) != 0) {
        return true;
    }
    for (const Pending& p : queue_) {
        if (p.client == client) {
            return true;
        }
    }
    return false;
}

bool
CompileService::busy(uint64_t client) const
{
    std::lock_guard<telemetry::Mutex> lock(mutex_);
    return inflight_locked(client);
}

bool
CompileService::wait_for_done(uint64_t client, double timeout_s)
{
    std::unique_lock<telemetry::Mutex> lock(mutex_);
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(std::max(0.0, timeout_s)));
    done_cv_.wait_until(lock, deadline, [&] {
        const auto it = done_.find(client);
        return stop_ || (it != done_.end() && !it->second.empty()) ||
               !inflight_locked(client);
    });
    const auto it = done_.find(client);
    return it != done_.end() && !it->second.empty();
}

void
CompileService::wait_idle()
{
    std::unique_lock<telemetry::Mutex> lock(mutex_);
    done_cv_.wait(lock, [&] {
        if (stop_) {
            return true;
        }
        return queue_.empty() && running_.empty();
    });
}

size_t
CompileService::queued_jobs() const
{
    std::lock_guard<telemetry::Mutex> lock(mutex_);
    return queue_.size();
}

size_t
CompileService::cache_entries() const
{
    std::lock_guard<telemetry::Mutex> lock(mutex_);
    return cache_.size();
}

uint64_t
CompileService::cache_hits() const
{
    std::lock_guard<telemetry::Mutex> lock(mutex_);
    return local_hits_;
}

uint64_t
CompileService::cache_misses() const
{
    std::lock_guard<telemetry::Mutex> lock(mutex_);
    return local_misses_;
}

double
CompileService::cache_hit_rate() const
{
    std::lock_guard<telemetry::Mutex> lock(mutex_);
    const uint64_t total = local_hits_ + local_misses_;
    return total == 0 ? 0.0
                      : static_cast<double>(local_hits_) /
                            static_cast<double>(total);
}

void
CompileService::start_kernel_locked(
    uint64_t client, const Job& job,
    std::shared_ptr<const fpga::Netlist> netlist, const CancelFlag& cancel)
{
    running_.emplace(client, cancel);
    // Join the threads of finished stages (they no longer touch the
    // service; join only waits for them to exit).
    for (auto it = kernel_threads_.begin(); it != kernel_threads_.end();) {
        if (it->finished) {
            it->thread.join();
            it = kernel_threads_.erase(it);
        } else {
            ++it;
        }
    }
    const auto self = kernel_threads_.emplace(kernel_threads_.end());
    try {
        self->thread = std::thread(&CompileService::kernel_stage, this,
                                   client, job.version, std::move(netlist),
                                   cancel, self);
    } catch (const std::system_error& e) {
        // No thread to spare: the tier is unavailable for this version.
        kernel_threads_.erase(self);
        if (finish_stage_locked(client, cancel)) {
            Done done;
            done.stage = Done::Stage::Kernel;
            done.version = job.version;
            done.result.error =
                std::string("no thread for the jit build: ") + e.what();
            done_[client].push_back(std::move(done));
        }
    }
}

void
CompileService::kernel_stage(uint64_t client, uint64_t version,
                             std::shared_ptr<const fpga::Netlist> netlist,
                             CancelFlag cancel,
                             std::list<KernelThread>::iterator self)
{
    Done done;
    done.stage = Done::Stage::Kernel;
    done.version = version;
    try {
        done.kernel = jit::JitKernel::create(
            netlist, &done.result.error, &done.kernel_digest,
            &done.result.report.cache_hit, cancel.get());
    } catch (const std::exception& e) {
        // Nothing above this thread could catch it: report the tier
        // unavailable for this version instead.
        done.result.error = std::string("jit build failed: ") + e.what();
    }
    done.result.ok = done.kernel != nullptr;
    done.result.netlist = std::move(netlist);
    {
        std::lock_guard<telemetry::Mutex> lock(mutex_);
        if (finish_stage_locked(client, cancel)) {
            done_[client].push_back(std::move(done));
        }
        self->finished = true;
    }
    done_cv_.notify_all();
}

void
CompileService::worker_loop()
{
    while (true) {
        Pending pending;
        const CancelFlag cancel = std::make_shared<std::atomic<bool>>();
        {
            std::unique_lock<telemetry::Mutex> lock(mutex_);
            work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
            if (stop_) {
                return;
            }
            pending = std::move(queue_.front());
            queue_.pop_front();
            running_.emplace(pending.client, cancel);
            depth_->set(static_cast<int64_t>(queue_.size()));
        }
        // Queue-residency span on the submitting tenant's lane: how
        // long the job sat behind other tenants' compiles.
        telemetry::Tracer& tracer = telemetry::Tracer::global();
        tracer.record_complete_tenant(
            "compile.queued", pending.enqueue_us,
            tracer.now_us() - pending.enqueue_us, pending.tenant);
        Done done;
        done.version = pending.job.version;
        done.cache_us = pending.cache_us;
        done.enqueue_us = pending.enqueue_us;
        const double exec_start_us = tracer.now_us();
        done.dequeue_us = exec_start_us;
        // Synthesis runs once: the kernel stage starts from its netlist
        // while this worker goes on to place it.
        bool synthesized = false;
        done.result = fpga::compile(
            *pending.job.module, pending.job.options, cancel.get(),
            [&](std::shared_ptr<const fpga::Netlist> netlist) {
                synthesized = true;
                if (!pending.job.kernel) {
                    return;
                }
                std::lock_guard<telemetry::Mutex> lock(mutex_);
                if (!cancel->load()) {
                    start_kernel_locked(pending.client, pending.job,
                                        std::move(netlist), cancel);
                }
            },
            pending.job.prior.get());
        tracer.record_complete_tenant("compile.exec", exec_start_us,
                                      tracer.now_us() - exec_start_us,
                                      pending.tenant);
        done.done_us = tracer.now_us();
        if (pending.job.request != 0) {
            // Flow step inside the compile.exec span just recorded: the
            // request's causal arrow hops from the submitting runtime
            // thread onto this worker (and this tenant's lane).
            tracer.flow_tenant("request", 't', pending.job.request,
                               pending.tenant, exec_start_us);
        }
        {
            std::lock_guard<telemetry::Mutex> lock(mutex_);
            // A cancelled job (superseded, or its client unregistered)
            // delivers nothing, and a cancelled placement is no result
            // to cache.
            if (finish_stage_locked(pending.client, cancel)) {
                cache_insert_locked(pending.key, done.result);
                if (pending.job.kernel && !synthesized) {
                    // The kernel stage fails with synthesis.
                    Done kernel;
                    kernel.stage = Done::Stage::Kernel;
                    kernel.version = done.version;
                    kernel.result.error = done.result.error;
                    done_[pending.client].push_back(std::move(kernel));
                }
                done_[pending.client].push_back(std::move(done));
            }
        }
        done_cv_.notify_all();
    }
}

} // namespace cascade::service
