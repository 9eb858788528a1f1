/// \file
/// The contention half of the observability subsystem: drop-in
/// instrumented replacements for std::mutex and std::condition_variable
/// that record, per named site, how long threads wait to acquire, how
/// long holders keep the lock, and *who* was holding it while a tenant
/// stalled (the blocked-on matrix behind the REPL's :contention view and
/// the cascade.contention.v1 report).
///
/// Design points:
///  - A site is a name ("fabric.slots"), not a mutex instance: several
///    mutexes may share one site and aggregate into one row. Site
///    pointers are stable for the process lifetime, like Registry
///    metrics.
///  - The uncontended path is a try_lock plus two relaxed counter
///    bumps; only the contended path touches clocks, the blocked-on
///    table, and the tracer ("blocked:<site>" spans on the waiter's
///    tenant lane).
///  - Tenant identity is a thread-local set by the Runtime at its
///    public entry points; untenanted threads (compile workers, tests)
///    report tenant 0 and are excluded from tenant-wait rankings so a
///    worker parked on its work CV does not masquerade as contention.

#ifndef CASCADE_TELEMETRY_SYNC_H
#define CASCADE_TELEMETRY_SYNC_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/telemetry.h"

namespace cascade::telemetry {

/// Binds the calling thread to a tenant id for contention attribution
/// and trace-lane assignment (0 = untenanted / exclusive mode).
void set_thread_tenant(uint64_t tenant);
uint64_t thread_tenant();

/// Monotonic nanoseconds (steady clock), the wrappers' time base.
uint64_t sync_now_ns();

/// Per-site contention statistics. Returned pointers are stable for the
/// process lifetime; reset() zeroes samples in place.
class SyncSite {
  public:
    SyncSite(std::string name, const char* kind);

    const std::string& name() const { return name_; }
    const char* kind() const { return kind_; } ///< "mutex" or "cv"

    Counter acquisitions; ///< lock() + successful try_lock(); CV: waits
    Counter contended;    ///< acquisitions that blocked
    Histogram wait_ns;    ///< time blocked before acquiring (0 if not)
    Histogram hold_ns;    ///< lock() .. unlock() (mutex sites only)
    /// Wait nanoseconds accrued by tenant-bound threads only — the
    /// quantity :contention ranks by and the bench attributes with.
    std::atomic<uint64_t> tenant_wait_ns{0};

    /// Static-storage span name for the tracer ("blocked:<site>").
    const char* blocked_span_name() const { return blocked_name_.c_str(); }

    void reset();

  private:
    const std::string name_;
    const char* kind_;
    const std::string blocked_name_;
};

/// One blocked-on observation, aggregated: waiter tenant W spent
/// wait_ns (over count events) blocked on \p site while holder tenant H
/// had it (holder 0 = untenanted thread or unknown).
struct BlockedEdge {
    std::string site;
    uint64_t waiter = 0;
    uint64_t holder = 0;
    uint64_t count = 0;
    uint64_t wait_ns = 0;
};

/// Process-wide table of sync sites plus the blocked-on matrix and
/// per-tenant wait totals. Site lookup takes a mutex (done once per
/// Mutex/CondVar construction); edge recording takes it too but only on
/// the already-blocked path.
class SyncRegistry {
  public:
    SyncRegistry() = default;
    SyncRegistry(const SyncRegistry&) = delete;
    SyncRegistry& operator=(const SyncRegistry&) = delete;

    static SyncRegistry& global();

    SyncSite* site(const std::string& name, const char* kind);

    void record_blocked(const SyncSite& site, uint64_t waiter,
                        uint64_t holder, uint64_t wait_ns);

    /// Point-in-time copy of one site's stats (quantiles precomputed).
    struct SiteSnapshot {
        std::string name;
        std::string kind;
        uint64_t acquisitions = 0;
        uint64_t contended = 0;
        uint64_t wait_sum_ns = 0;
        uint64_t wait_max_ns = 0;
        uint64_t wait_p50_ns = 0;
        uint64_t wait_p99_ns = 0;
        uint64_t hold_sum_ns = 0;
        uint64_t hold_max_ns = 0;
        uint64_t tenant_wait_ns = 0;
    };

    /// Every site, ranked by tenant_wait_ns then total wait descending.
    std::vector<SiteSnapshot> snapshot() const;
    /// The blocked-on matrix, aggregated per (site, waiter, holder).
    std::vector<BlockedEdge> blocked_edges() const;
    /// Total blocked nanoseconds per tenant id (tenant threads only).
    std::map<uint64_t, uint64_t> tenant_waits() const;

    /// The cascade.contention.v1 report:
    /// {"schema":"cascade.contention.v1","sites":[...ranked...],
    ///  "blocked_on":[{"site":..,"waiter":..,"holder":..,..}],
    ///  "tenant_wait_ns":{"1":..}}
    std::string contention_json() const;
    /// Fixed-width human table of the same data (the REPL's :contention).
    std::string contention_table() const;

    /// Zeroes every site's samples, the blocked-on matrix, and the
    /// per-tenant totals; site pointers stay valid (measurement-window
    /// bracketing, same contract as Registry::reset).
    void reset();

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<SyncSite>> sites_;
    /// (site name, waiter, holder) -> {count, wait_ns}
    std::map<std::string,
             std::map<std::pair<uint64_t, uint64_t>,
                      std::pair<uint64_t, uint64_t>>>
        edges_;
    std::map<uint64_t, uint64_t> tenant_wait_;
};

/// Instrumented std::mutex: BasicLockable/Lockable, so it works with
/// std::lock_guard / std::unique_lock / std::scoped_lock unchanged.
class Mutex {
  public:
    explicit Mutex(const char* site_name);

    Mutex(const Mutex&) = delete;
    Mutex& operator=(const Mutex&) = delete;

    void lock();
    bool try_lock();
    void unlock();

    SyncSite* site() const { return site_; }
    /// Tenant currently holding the mutex (0 if none or untenanted).
    uint64_t owner_tenant() const;

  private:
    static constexpr uint64_t kNoOwner = UINT64_MAX;

    void lock_contended();

    std::mutex m_;
    SyncSite* const site_;
    std::atomic<uint64_t> owner_{kNoOwner};
    uint64_t locked_at_ns_ = 0; ///< guarded by m_
};

/// Instrumented condition variable over condition_variable_any (so it
/// waits on telemetry::Mutex). Wait durations — including the predicate
/// re-check loop — are recorded against the CV's site.
class CondVar {
  public:
    explicit CondVar(const char* site_name);

    CondVar(const CondVar&) = delete;
    CondVar& operator=(const CondVar&) = delete;

    void notify_one() { cv_.notify_one(); }
    void notify_all() { cv_.notify_all(); }

    template <typename Lock>
    void
    wait(Lock& lock)
    {
        const uint64_t t0 = sync_now_ns();
        cv_.wait(lock);
        note_wait(sync_now_ns() - t0);
    }

    template <typename Lock, typename Pred>
    void
    wait(Lock& lock, Pred pred)
    {
        const uint64_t t0 = sync_now_ns();
        cv_.wait(lock, std::move(pred));
        note_wait(sync_now_ns() - t0);
    }

    template <typename Lock, typename Rep, typename Period, typename Pred>
    bool
    wait_for(Lock& lock, const std::chrono::duration<Rep, Period>& dur,
             Pred pred)
    {
        const uint64_t t0 = sync_now_ns();
        const bool satisfied = cv_.wait_for(lock, dur, std::move(pred));
        note_wait(sync_now_ns() - t0);
        return satisfied;
    }

    template <typename Lock, typename Clock, typename Duration,
              typename Pred>
    bool
    wait_until(Lock& lock,
               const std::chrono::time_point<Clock, Duration>& deadline,
               Pred pred)
    {
        const uint64_t t0 = sync_now_ns();
        const bool satisfied =
            cv_.wait_until(lock, deadline, std::move(pred));
        note_wait(sync_now_ns() - t0);
        return satisfied;
    }

    SyncSite* site() const { return site_; }

  private:
    void note_wait(uint64_t waited_ns);

    std::condition_variable_any cv_;
    SyncSite* const site_;
};

} // namespace cascade::telemetry

#endif // CASCADE_TELEMETRY_SYNC_H
