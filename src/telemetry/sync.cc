#include "telemetry/sync.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "common/json.h"
#include "telemetry/trace.h"

namespace cascade::telemetry {

namespace {

thread_local uint64_t tls_tenant = 0;

/// Contended waits shorter than this are counted but not traced; keeps
/// the ring buffer for stalls a human would care about on a swimlane.
constexpr uint64_t kBlockedSpanNs = 10'000;

std::string
ns_pretty(uint64_t ns)
{
    char buf[32];
    if (ns >= 1'000'000'000ull) {
        std::snprintf(buf, sizeof buf, "%.2fs", ns / 1e9);
    } else if (ns >= 1'000'000ull) {
        std::snprintf(buf, sizeof buf, "%.2fms", ns / 1e6);
    } else if (ns >= 1'000ull) {
        std::snprintf(buf, sizeof buf, "%.1fus", ns / 1e3);
    } else {
        std::snprintf(buf, sizeof buf, "%" PRIu64 "ns", ns);
    }
    return buf;
}

} // namespace

void
set_thread_tenant(uint64_t tenant)
{
    tls_tenant = tenant;
}

uint64_t
thread_tenant()
{
    return tls_tenant;
}

uint64_t
sync_now_ns()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

SyncSite::SyncSite(std::string name, const char* kind)
    : name_(std::move(name)), kind_(kind), blocked_name_("blocked:" + name_)
{
}

void
SyncSite::reset()
{
    acquisitions.reset();
    contended.reset();
    wait_ns.reset();
    hold_ns.reset();
    tenant_wait_ns.store(0, std::memory_order_relaxed);
}

SyncRegistry&
SyncRegistry::global()
{
    static SyncRegistry* instance = new SyncRegistry();
    return *instance;
}

SyncSite*
SyncRegistry::site(const std::string& name, const char* kind)
{
    std::lock_guard<std::mutex> guard(mutex_);
    std::unique_ptr<SyncSite>& slot = sites_[name];
    if (slot == nullptr) {
        slot = std::make_unique<SyncSite>(name, kind);
    }
    return slot.get();
}

void
SyncRegistry::record_blocked(const SyncSite& site, uint64_t waiter,
                             uint64_t holder, uint64_t wait_ns)
{
    std::lock_guard<std::mutex> guard(mutex_);
    std::pair<uint64_t, uint64_t>& cell =
        edges_[site.name()][{waiter, holder}];
    cell.first += 1;
    cell.second += wait_ns;
    tenant_wait_[waiter] += wait_ns;
}

std::vector<SyncRegistry::SiteSnapshot>
SyncRegistry::snapshot() const
{
    std::vector<SiteSnapshot> out;
    {
        std::lock_guard<std::mutex> guard(mutex_);
        out.reserve(sites_.size());
        for (const auto& [name, site] : sites_) {
            SiteSnapshot s;
            s.name = name;
            s.kind = site->kind();
            s.acquisitions = site->acquisitions.value();
            s.contended = site->contended.value();
            s.wait_sum_ns = site->wait_ns.sum();
            s.wait_max_ns = site->wait_ns.max();
            s.wait_p50_ns = site->wait_ns.quantile(0.5);
            s.wait_p99_ns = site->wait_ns.quantile(0.99);
            s.hold_sum_ns = site->hold_ns.sum();
            s.hold_max_ns = site->hold_ns.max();
            s.tenant_wait_ns =
                site->tenant_wait_ns.load(std::memory_order_relaxed);
            out.push_back(std::move(s));
        }
    }
    std::sort(out.begin(), out.end(),
              [](const SiteSnapshot& a, const SiteSnapshot& b) {
                  if (a.tenant_wait_ns != b.tenant_wait_ns) {
                      return a.tenant_wait_ns > b.tenant_wait_ns;
                  }
                  if (a.wait_sum_ns != b.wait_sum_ns) {
                      return a.wait_sum_ns > b.wait_sum_ns;
                  }
                  return a.name < b.name;
              });
    return out;
}

std::vector<BlockedEdge>
SyncRegistry::blocked_edges() const
{
    std::vector<BlockedEdge> out;
    {
        std::lock_guard<std::mutex> guard(mutex_);
        for (const auto& [site, cells] : edges_) {
            for (const auto& [who, cell] : cells) {
                BlockedEdge e;
                e.site = site;
                e.waiter = who.first;
                e.holder = who.second;
                e.count = cell.first;
                e.wait_ns = cell.second;
                out.push_back(std::move(e));
            }
        }
    }
    std::sort(out.begin(), out.end(),
              [](const BlockedEdge& a, const BlockedEdge& b) {
                  return a.wait_ns > b.wait_ns;
              });
    return out;
}

std::map<uint64_t, uint64_t>
SyncRegistry::tenant_waits() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return tenant_wait_;
}

std::string
SyncRegistry::contention_json() const
{
    const std::vector<SiteSnapshot> sites = snapshot();
    const std::vector<BlockedEdge> edges = blocked_edges();
    const std::map<uint64_t, uint64_t> waits = tenant_waits();

    JsonWriter w;
    w.str("schema", "cascade.contention.v1").array("sites");
    for (const SiteSnapshot& s : sites) {
        w.object()
            .str("name", s.name)
            .str("kind", s.kind)
            .num("acquisitions", s.acquisitions)
            .num("contended", s.contended)
            .num("wait_sum_ns", s.wait_sum_ns)
            .num("wait_max_ns", s.wait_max_ns)
            .num("wait_p50_ns", s.wait_p50_ns)
            .num("wait_p99_ns", s.wait_p99_ns)
            .num("hold_sum_ns", s.hold_sum_ns)
            .num("hold_max_ns", s.hold_max_ns)
            .num("tenant_wait_ns", s.tenant_wait_ns)
            .end();
    }
    w.end().array("blocked_on");
    for (const BlockedEdge& e : edges) {
        w.object()
            .str("site", e.site)
            .num("waiter", e.waiter)
            .num("holder", e.holder)
            .num("count", e.count)
            .num("wait_ns", e.wait_ns)
            .end();
    }
    w.end().object("tenant_wait_ns");
    for (const auto& [tenant, ns] : waits) {
        w.key(std::to_string(tenant)).num(ns);
    }
    return w.build();
}

std::string
SyncRegistry::contention_table() const
{
    const std::vector<SiteSnapshot> sites = snapshot();
    const std::vector<BlockedEdge> edges = blocked_edges();

    char line[256];
    std::string out;
    out += "contention by site (ranked by tenant wait):\n";
    std::snprintf(line, sizeof line, "  %-22s %-5s %10s %10s %10s %10s %10s\n",
                  "site", "kind", "acquired", "contended", "tenant-wait",
                  "total-wait", "max-hold");
    out += line;
    for (const SiteSnapshot& s : sites) {
        std::snprintf(line, sizeof line,
                      "  %-22s %-5s %10" PRIu64 " %10" PRIu64
                      " %10s %10s %10s\n",
                      s.name.c_str(), s.kind.c_str(), s.acquisitions,
                      s.contended, ns_pretty(s.tenant_wait_ns).c_str(),
                      ns_pretty(s.wait_sum_ns).c_str(),
                      ns_pretty(s.hold_max_ns).c_str());
        out += line;
    }
    out += "blocked-on (waiter <- holder):\n";
    if (edges.empty()) {
        out += "  (none)\n";
    }
    for (const BlockedEdge& e : edges) {
        std::snprintf(line, sizeof line,
                      "  tenant %" PRIu64 " waited %s on %s held by tenant "
                      "%" PRIu64 " (%" PRIu64 "x)\n",
                      e.waiter, ns_pretty(e.wait_ns).c_str(), e.site.c_str(),
                      e.holder, e.count);
        out += line;
    }
    return out;
}

void
SyncRegistry::reset()
{
    std::lock_guard<std::mutex> guard(mutex_);
    for (auto& [name, site] : sites_) {
        site->reset();
    }
    edges_.clear();
    tenant_wait_.clear();
}

Mutex::Mutex(const char* site_name)
    : site_(SyncRegistry::global().site(site_name, "mutex"))
{
}

void
Mutex::lock()
{
    if (m_.try_lock()) {
        site_->acquisitions.inc();
        site_->wait_ns.record(0);
        owner_.store(tls_tenant, std::memory_order_relaxed);
        locked_at_ns_ = sync_now_ns();
        return;
    }
    lock_contended();
}

void
Mutex::lock_contended()
{
    // Snapshot the holder before blocking: by the time we acquire, the
    // contended holder is gone. kNoOwner (lost race) reports as 0.
    const uint64_t holder_raw = owner_.load(std::memory_order_relaxed);
    const uint64_t holder = holder_raw == kNoOwner ? 0 : holder_raw;
    const double start_us = Tracer::global().now_us();
    const uint64_t t0 = sync_now_ns();
    m_.lock();
    const uint64_t waited = sync_now_ns() - t0;
    site_->acquisitions.inc();
    site_->contended.inc();
    site_->wait_ns.record(waited);
    if (tls_tenant != 0) {
        site_->tenant_wait_ns.fetch_add(waited, std::memory_order_relaxed);
        SyncRegistry::global().record_blocked(*site_, tls_tenant, holder,
                                              waited);
        if (waited >= kBlockedSpanNs) {
            Tracer::global().record_complete(site_->blocked_span_name(),
                                             start_us, waited / 1e3, 0,
                                             holder);
        }
    }
    owner_.store(tls_tenant, std::memory_order_relaxed);
    locked_at_ns_ = sync_now_ns();
}

bool
Mutex::try_lock()
{
    if (!m_.try_lock()) {
        return false;
    }
    site_->acquisitions.inc();
    site_->wait_ns.record(0);
    owner_.store(tls_tenant, std::memory_order_relaxed);
    locked_at_ns_ = sync_now_ns();
    return true;
}

void
Mutex::unlock()
{
    const uint64_t held = sync_now_ns() - locked_at_ns_;
    owner_.store(kNoOwner, std::memory_order_relaxed);
    m_.unlock();
    site_->hold_ns.record(held);
}

uint64_t
Mutex::owner_tenant() const
{
    const uint64_t raw = owner_.load(std::memory_order_relaxed);
    return raw == kNoOwner ? 0 : raw;
}

CondVar::CondVar(const char* site_name)
    : site_(SyncRegistry::global().site(site_name, "cv"))
{
}

void
CondVar::note_wait(uint64_t waited_ns)
{
    site_->acquisitions.inc();
    site_->wait_ns.record(waited_ns);
    if (waited_ns > 0) {
        site_->contended.inc();
    }
    // CV waits have no single holder; they accrue to the waiter's
    // tenant total (holder 0) so deliberate parking by tenant threads
    // (e.g. blocking on compile completion) still shows up ranked.
    if (tls_tenant != 0 && waited_ns > 0) {
        site_->tenant_wait_ns.fetch_add(waited_ns,
                                        std::memory_order_relaxed);
        SyncRegistry::global().record_blocked(*site_, tls_tenant, 0,
                                              waited_ns);
    }
}

} // namespace cascade::telemetry
