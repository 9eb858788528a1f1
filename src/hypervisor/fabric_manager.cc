#include "hypervisor/fabric_manager.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "telemetry/trace.h"

namespace cascade::hypervisor {

FabricManager::FabricManager(fpga::FpgaDevice device)
    : device_(std::move(device))
{
    telemetry::Registry& reg = telemetry::Registry::global();
    tenants_gauge_ = reg.gauge("hypervisor.tenants");
    resident_gauge_ = reg.gauge("hypervisor.resident");
    evictions_ = reg.counter("hypervisor.evictions");
    admissions_ = reg.counter("hypervisor.admissions");
    denials_ = reg.counter("hypervisor.denials");
}

uint64_t
FabricManager::add_tenant(const std::string& name, uint64_t le_quota,
                          uint64_t bram_quota)
{
    std::lock_guard<telemetry::Mutex> lock(mutex_);
    const uint64_t id = ++next_tenant_;
    Tenant t;
    t.name = name.empty() ? "tenant-" + std::to_string(id) : name;
    t.le_quota = le_quota;
    t.bram_quota = bram_quota;
    t.registered_at = std::chrono::steady_clock::now();
    tenants_[id] = std::move(t);
    tenants_gauge_->set(static_cast<int64_t>(tenants_.size()));
    return id;
}

std::string
FabricManager::tenant_name(uint64_t tenant) const
{
    std::lock_guard<telemetry::Mutex> lock(mutex_);
    const auto it = tenants_.find(tenant);
    return it == tenants_.end() ? "" : it->second.name;
}

void
FabricManager::remove_tenant(uint64_t tenant)
{
    {
        std::lock_guard<telemetry::Mutex> lock(mutex_);
        const auto it = tenants_.find(tenant);
        if (it == tenants_.end()) {
            return;
        }
        tenants_.erase(it);
        waiters_.erase(tenant);
        tenants_gauge_->set(static_cast<int64_t>(tenants_.size()));
        resident_gauge_->set(
            static_cast<int64_t>(resident_count_locked()));
        bump_capacity_epoch_locked();
    }
    change_cv_.notify_all();
}

size_t
FabricManager::resident_count_locked() const
{
    size_t n = 0;
    for (const auto& [id, t] : tenants_) {
        if (t.resident) {
            ++n;
        }
    }
    return n;
}

bool
FabricManager::find_slot_locked(uint64_t les, uint64_t* start) const
{
    // First fit over the gaps between resident slots (a handful of
    // tenants; a scan beats a free-list here).
    std::vector<std::pair<uint64_t, uint64_t>> used;
    for (const auto& [id, t] : tenants_) {
        if (t.resident) {
            used.emplace_back(t.le_start, t.le_count);
        }
    }
    std::sort(used.begin(), used.end());
    uint64_t cursor = 0;
    for (const auto& [s, n] : used) {
        if (s > cursor && s - cursor >= les) {
            *start = cursor;
            return true;
        }
        cursor = std::max(cursor, s + n);
    }
    if (device_.les() > cursor && device_.les() - cursor >= les) {
        *start = cursor;
        return true;
    }
    return false;
}

uint64_t
FabricManager::free_bram_locked() const
{
    uint64_t used = 0;
    for (const auto& [id, t] : tenants_) {
        if (t.resident) {
            used += t.bram_bits;
        }
    }
    return used >= device_.bram_bits() ? 0 : device_.bram_bits() - used;
}

void
FabricManager::bump_capacity_epoch_locked()
{
    capacity_epoch_.fetch_add(1, std::memory_order_release);
}

Admission
FabricManager::request_residency(uint64_t tenant,
                                 const fpga::CompileResult& result)
{
    Admission out;
    bool notify = false;
    {
        std::lock_guard<telemetry::Mutex> lock(mutex_);
        const auto it = tenants_.find(tenant);
        if (it == tenants_.end()) {
            out.verdict.error = "unknown tenant";
            denials_->inc();
            return out;
        }
        Tenant& t = it->second;
        const fpga::Verdict verdict =
            device_.admit(result, t.le_quota, t.bram_quota);
        if (!verdict.ok) {
            out.verdict = verdict;
            denials_->inc();
            telemetry::Tracer::global().instant_tenant(
                "hypervisor.deny", tenant, result.report.area.les);
            return out;
        }
        const uint64_t les = result.report.area.les;
        const uint64_t bram = result.report.area.bram_bits;

        // Waiter priority: while someone is parked on capacity, a
        // non-waiter yields even if the fabric has room (fairness; see
        // the waiters_ comment in the header).
        if (waiters_.count(tenant) == 0 && !waiters_.empty()) {
            waiters_.insert(tenant);
            out.verdict.error = "awaiting fabric capacity (yielding to "
                                "waiting tenant)";
            out.retryable = true;
            denials_->inc();
            // Tracer instants under mutex_ are fine: the tracer's own
            // lock is a leaf (it never acquires anything else).
            telemetry::Tracer::global().instant_tenant("hypervisor.defer",
                                                       tenant, 0);
            return out;
        }

        uint64_t start = 0;
        if (bram > free_bram_locked() ||
            !find_slot_locked(les, &start)) {
            // Capacity pressure: flag the least-recently-active resident
            // tenant (never the requester, never one already flagged) and
            // deny retryable. The victim self-evicts at its next window;
            // its release bumps the capacity epoch and wakes waiters.
            const Tenant* victim = nullptr;
            uint64_t victim_id = 0;
            for (const auto& [id, cand] : tenants_) {
                if (id == tenant || !cand.resident ||
                    cand.evict_requested) {
                    continue;
                }
                if (victim == nullptr ||
                    cand.last_active < victim->last_active) {
                    victim = &cand;
                    victim_id = id;
                }
            }
            if (victim != nullptr) {
                tenants_[victim_id].evict_requested = true;
                out.verdict.error =
                    "awaiting fabric capacity (eviction of '" +
                    victim->name + "' requested)";
            } else {
                out.verdict.error = "awaiting fabric capacity";
            }
            waiters_.insert(tenant);
            out.retryable = true;
            denials_->inc();
            telemetry::Tracer::global().instant_tenant("hypervisor.defer",
                                                       tenant, victim_id);
            return out;
        }

        waiters_.erase(tenant);
        t.resident = true;
        t.le_start = start;
        t.le_count = les;
        t.bram_bits = bram;
        t.last_active = ++activity_clock_;
        admissions_->inc();
        resident_gauge_->set(
            static_cast<int64_t>(resident_count_locked()));
        bump_capacity_epoch_locked();
        out.verdict = verdict;
        out.le_start = start;
        out.le_count = les;
        telemetry::Tracer::global().instant_tenant("hypervisor.admit",
                                                   tenant, les);
        notify = true;
    }
    if (notify) {
        change_cv_.notify_all();
    }
    return out;
}

void
FabricManager::release_residency(uint64_t tenant)
{
    {
        std::lock_guard<telemetry::Mutex> lock(mutex_);
        const auto it = tenants_.find(tenant);
        if (it == tenants_.end() || !it->second.resident) {
            return;
        }
        Tenant& t = it->second;
        t.resident = false;
        t.le_start = 0;
        t.le_count = 0;
        t.bram_bits = 0;
        if (t.evict_requested) {
            t.evict_requested = false;
            ++t.evictions;
            evictions_->inc();
        }
        resident_gauge_->set(
            static_cast<int64_t>(resident_count_locked()));
        bump_capacity_epoch_locked();
    }
    change_cv_.notify_all();
}

void
FabricManager::request_eviction(uint64_t tenant)
{
    std::lock_guard<telemetry::Mutex> lock(mutex_);
    const auto it = tenants_.find(tenant);
    if (it != tenants_.end() && it->second.resident) {
        it->second.evict_requested = true;
    }
}

bool
FabricManager::eviction_pending(uint64_t tenant) const
{
    std::lock_guard<telemetry::Mutex> lock(mutex_);
    const auto it = tenants_.find(tenant);
    return it != tenants_.end() && it->second.evict_requested;
}

uint64_t
FabricManager::grant_open_loop(uint64_t tenant, uint64_t requested)
{
    uint64_t grant = requested;
    {
        std::lock_guard<telemetry::Mutex> lock(mutex_);
        const auto it = tenants_.find(tenant);
        if (it == tenants_.end()) {
            return requested;
        }
        Tenant& t = it->second;
        t.last_active = ++activity_clock_;
        const size_t residents = resident_count_locked();
        if (residents > 1) {
            grant = std::max<uint64_t>(
                64, requested / static_cast<uint64_t>(residents));
        }
        t.ticks_granted += grant;
    }
    telemetry::Tracer::global().instant_tenant("hypervisor.grant", tenant,
                                               grant);
    return grant;
}

void
FabricManager::note_ticks(uint64_t tenant, uint64_t ticks)
{
    std::lock_guard<telemetry::Mutex> lock(mutex_);
    const auto it = tenants_.find(tenant);
    if (it != tenants_.end()) {
        it->second.ticks_done += ticks;
    }
}

void
FabricManager::wait_for_change(double timeout_s)
{
    std::unique_lock<telemetry::Mutex> lock(mutex_);
    const uint64_t epoch = capacity_epoch();
    change_cv_.wait_for(
        lock,
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(std::max(0.0, timeout_s))),
        [&] { return capacity_epoch() != epoch; });
}

std::vector<SlotInfo>
FabricManager::slot_map() const
{
    const std::map<uint64_t, uint64_t> waits =
        telemetry::SyncRegistry::global().tenant_waits();
    uint64_t total_wait = 0;
    for (const auto& [tenant, ns] : waits) {
        total_wait += ns;
    }
    std::lock_guard<telemetry::Mutex> lock(mutex_);
    std::vector<SlotInfo> out;
    out.reserve(tenants_.size());
    for (const auto& [id, t] : tenants_) {
        SlotInfo s;
        s.tenant = id;
        s.name = t.name;
        s.resident = t.resident;
        s.evict_requested = t.evict_requested;
        s.le_start = t.le_start;
        s.le_count = t.le_count;
        s.bram_bits = t.bram_bits;
        s.le_quota = t.le_quota;
        s.bram_quota = t.bram_quota;
        s.evictions = t.evictions;
        s.ticks_granted = t.ticks_granted;
        s.ticks_done = t.ticks_done;
        s.active_s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() -
                         t.registered_at)
                         .count();
        s.ticks_per_s = s.active_s > 0
                            ? static_cast<double>(s.ticks_done) / s.active_s
                            : 0.0;
        if (const auto w = waits.find(id); w != waits.end()) {
            s.wait_ns = w->second;
            s.wait_share = total_wait > 0
                               ? static_cast<double>(w->second) /
                                     static_cast<double>(total_wait)
                               : 0.0;
        }
        out.push_back(std::move(s));
    }
    return out;
}

std::string
FabricManager::slot_map_table() const
{
    const std::vector<SlotInfo> slots = slot_map();
    char line[256];
    std::string out;
    std::snprintf(line, sizeof line,
                  "hypervisor slots (device %llu LEs, %llu BRAM bits)\n",
                  static_cast<unsigned long long>(device_.les()),
                  static_cast<unsigned long long>(device_.bram_bits()));
    out += line;
    if (slots.empty()) {
        out += "  (no tenants)\n";
        return out;
    }
    for (const SlotInfo& s : slots) {
        const char* state = s.resident
                                ? (s.evict_requested ? "evicting"
                                                     : "resident")
                                : "software";
        char slice[48] = "-";
        if (s.resident) {
            std::snprintf(slice, sizeof slice, "[%llu, %llu)",
                          static_cast<unsigned long long>(s.le_start),
                          static_cast<unsigned long long>(s.le_start +
                                                          s.le_count));
        }
        char quota[32] = "unlimited";
        if (s.le_quota != 0) {
            std::snprintf(quota, sizeof quota, "%llu LEs",
                          static_cast<unsigned long long>(s.le_quota));
        }
        std::snprintf(line, sizeof line,
                      "  t%-3llu %-12s %-9s LE %-18s quota %-12s "
                      "evictions %llu\n",
                      static_cast<unsigned long long>(s.tenant),
                      s.name.c_str(), state, slice, quota,
                      static_cast<unsigned long long>(s.evictions));
        out += line;
    }
    return out;
}

std::string
FabricManager::fleet_table() const
{
    const std::vector<SlotInfo> slots = slot_map();
    char line[256];
    std::string out;
    std::snprintf(line, sizeof line, "fleet (%zu tenants, %zu resident)\n",
                  slots.size(),
                  static_cast<size_t>(std::count_if(
                      slots.begin(), slots.end(),
                      [](const SlotInfo& s) { return s.resident; })));
    out += line;
    if (slots.empty()) {
        out += "  (no tenants)\n";
        return out;
    }
    std::snprintf(line, sizeof line, "  %-4s %-12s %-9s %12s %12s %6s %6s\n",
                  "id", "name", "state", "ticks", "ticks/s", "wait%",
                  "evict");
    out += line;
    for (const SlotInfo& s : slots) {
        const char* state = s.resident
                                ? (s.evict_requested ? "evicting"
                                                     : "resident")
                                : "software";
        std::snprintf(line, sizeof line,
                      "  t%-3" PRIu64 " %-12s %-9s %12" PRIu64
                      " %12.1f %5.1f%% %6" PRIu64 "\n",
                      s.tenant, s.name.c_str(), state, s.ticks_done,
                      s.ticks_per_s, 100.0 * s.wait_share, s.evictions);
        out += line;
    }
    return out;
}

size_t
FabricManager::tenant_count() const
{
    std::lock_guard<telemetry::Mutex> lock(mutex_);
    return tenants_.size();
}

size_t
FabricManager::resident_count() const
{
    std::lock_guard<telemetry::Mutex> lock(mutex_);
    return resident_count_locked();
}

} // namespace cascade::hypervisor
