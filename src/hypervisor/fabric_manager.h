/// \file
/// The fabric hypervisor: one shared FpgaDevice hosting multiple tenant
/// Runtimes via spatial partitioning of the LE grid into slots. Each
/// tenant carries optional LE/BRAM quotas; admission control places a
/// finished compile into a contiguous free LE range (first fit), and
/// under capacity pressure the least-recently-active resident tenant is
/// flagged for eviction back to its software engines — safe at any
/// scheduler iteration precisely because of the Cascade state-transfer
/// ABI (get_state()/set_state() make a running program relocatable, the
/// primitive SYNERGY-style FPGA virtualization builds on). Eviction is
/// cooperative: the manager only raises a flag; the owning Runtime
/// observes it at its next inter-timestep window and relocates itself, so
/// no tenant's engine state is ever touched from another thread.
/// Open-loop ticking of resident tenants is kept fair by capping each
/// tenant's batch grant to an equal share of the fabric.

#ifndef CASCADE_HYPERVISOR_FABRIC_MANAGER_H
#define CASCADE_HYPERVISOR_FABRIC_MANAGER_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "fpga/compile.h"
#include "telemetry/sync.h"
#include "telemetry/telemetry.h"

namespace cascade::hypervisor {

/// The outcome of one admission request. \p verdict is the device's
/// (FpgaDevice::admit under the tenant's quotas), or a capacity denial.
/// On success \p le_start/le_count describe the slot, and the tenant's
/// Runtime loads the bitstream as on an exclusive device. On denial
/// \p retryable distinguishes transient capacity pressure (an eviction
/// was requested; ask again when the fabric changes) from hard failures
/// (over quota, does not fit the device, failed compile).
struct Admission {
    fpga::Verdict verdict;
    bool retryable = false;
    uint64_t le_start = 0;
    uint64_t le_count = 0;
};

/// One row of the slot map (the REPL's :fabric rendering and tests).
struct SlotInfo {
    uint64_t tenant = 0;
    std::string name;
    bool resident = false;
    bool evict_requested = false;
    uint64_t le_start = 0;
    uint64_t le_count = 0;
    uint64_t bram_bits = 0;
    uint64_t le_quota = 0;   ///< 0 = unlimited (device capacity applies)
    uint64_t bram_quota = 0; ///< 0 = unlimited
    uint64_t evictions = 0;  ///< completed evictions of this tenant
    uint64_t ticks_granted = 0; ///< open-loop ticks granted while resident
    uint64_t ticks_done = 0; ///< ticks actually executed (note_ticks)
    double active_s = 0;     ///< wall seconds since the tenant registered
    double ticks_per_s = 0;  ///< ticks_done over active_s
    uint64_t wait_ns = 0;    ///< blocked time of the tenant's threads
    double wait_share = 0;   ///< of the fleet's total blocked time
};

class FabricManager {
  public:
    explicit FabricManager(fpga::FpgaDevice device = fpga::FpgaDevice());

    FabricManager(const FabricManager&) = delete;
    FabricManager& operator=(const FabricManager&) = delete;

    /// @{ Tenant registry. A Runtime in shared mode registers itself at
    /// construction and removes itself at destruction (which releases any
    /// residency). An empty \p name becomes "tenant-<id>".
    uint64_t add_tenant(const std::string& name, uint64_t le_quota = 0,
                        uint64_t bram_quota = 0);
    void remove_tenant(uint64_t tenant);
    /// The registered name ("" for an unknown tenant).
    std::string tenant_name(uint64_t tenant) const;
    /// @}

    /// Admission control: the device's verdict under the tenant's quotas
    /// (FpgaDevice::admit), then first-fit allocation of a contiguous LE
    /// range and BRAM budget. When the design fits the device but no
    /// slot is free, the least-recently-active resident tenant (never the
    /// requester) is flagged for eviction and the request is denied
    /// retryable — the caller parks the outcome and retries after the
    /// fabric changes.
    Admission request_residency(uint64_t tenant,
                                const fpga::CompileResult& result);

    /// Releases \p tenant's slot (no-op if not resident). Completes a
    /// pending eviction: the eviction counters only move when the slot is
    /// actually vacated.
    void release_residency(uint64_t tenant);

    /// Flags \p tenant for eviction (tests and external policy); the
    /// owning Runtime self-evicts at its next window.
    void request_eviction(uint64_t tenant);
    bool eviction_pending(uint64_t tenant) const;

    /// Fair round-robin ticking: a resident tenant's open-loop batch is
    /// capped to an equal share of the fabric so control interleaves
    /// among tenants instead of one tenant free-running. Also refreshes
    /// the tenant's activity stamp (the eviction-victim LRU order).
    uint64_t grant_open_loop(uint64_t tenant, uint64_t requested);

    /// Records \p ticks open-loop ticks actually executed by \p tenant
    /// (the Runtime reports back after each batch; grant_open_loop only
    /// knows what was *offered*). Feeds the fleet view's ticks/s.
    void note_ticks(uint64_t tenant, uint64_t ticks);

    /// @{ Capacity-change notification. The epoch bumps on every
    /// admission, release, or tenant removal; parked admissions re-try
    /// only when it moved (lock-free read), and wait_for_change() blocks
    /// a waiter until it moves (or the timeout expires).
    uint64_t capacity_epoch() const
    {
        return capacity_epoch_.load(std::memory_order_acquire);
    }
    void wait_for_change(double timeout_s);
    /// @}

    /// @{ Introspection.
    std::vector<SlotInfo> slot_map() const; ///< sorted by tenant id
    /// The REPL's :fabric rendering of the slot map.
    std::string slot_map_table() const;
    /// The REPL's :top rendering: one row per tenant with live ticks/s,
    /// resident/evicted state, and wait-time share (each tenant's slice
    /// of the fleet's total blocked time, from the SyncRegistry).
    std::string fleet_table() const;
    const fpga::FpgaDevice& device() const { return device_; }
    size_t tenant_count() const;
    size_t resident_count() const;
    /// @}

  private:
    struct Tenant {
        std::string name;
        uint64_t le_quota = 0;
        uint64_t bram_quota = 0;
        bool resident = false;
        bool evict_requested = false;
        uint64_t le_start = 0;
        uint64_t le_count = 0;
        uint64_t bram_bits = 0;
        uint64_t last_active = 0; ///< logical activity stamp (LRU order)
        uint64_t evictions = 0;
        uint64_t ticks_granted = 0;
        uint64_t ticks_done = 0;
        std::chrono::steady_clock::time_point registered_at;
    };

    size_t resident_count_locked() const;
    /// First-fit contiguous free LE range of at least \p les elements;
    /// returns false when no gap is large enough.
    bool find_slot_locked(uint64_t les, uint64_t* start) const;
    uint64_t free_bram_locked() const;
    void bump_capacity_epoch_locked();

    const fpga::FpgaDevice device_;

    mutable telemetry::Mutex mutex_{"fabric.slots"};
    telemetry::CondVar change_cv_{"fabric.change_cv"};
    std::map<uint64_t, Tenant> tenants_;
    /// Tenants parked on a retryable denial. While any tenant is waiting,
    /// non-waiters are denied admission even into free capacity: without
    /// this, an evicted tenant whose recompile hits the bitstream cache
    /// re-admits itself in the same scheduler window and starves the
    /// waiter forever.
    std::set<uint64_t> waiters_;
    uint64_t next_tenant_ = 0;
    uint64_t activity_clock_ = 0;
    std::atomic<uint64_t> capacity_epoch_{0};

    telemetry::Gauge* tenants_gauge_ = nullptr;
    telemetry::Gauge* resident_gauge_ = nullptr;
    telemetry::Counter* evictions_ = nullptr;
    telemetry::Counter* admissions_ = nullptr;
    telemetry::Counter* denials_ = nullptr;
};

} // namespace cascade::hypervisor

#endif // CASCADE_HYPERVISOR_FABRIC_MANAGER_H
