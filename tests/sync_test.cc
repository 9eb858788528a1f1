/// \file
/// Tests for the instrumented sync wrappers: uncontended bookkeeping,
/// forced two-thread contention (wait histograms, blocked-on edges with
/// correct waiter/holder tenants), CV wait recording, the
/// cascade.contention.v1 report, registry reset, and the per-tenant
/// trace swimlanes (pid = 1 + tenant) the wrappers feed.

#include "telemetry/sync.h"

#include <atomic>
#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "telemetry/trace.h"

namespace cascade::telemetry {
namespace {

/// RAII tenant binding so a failed assertion cannot leak a nonzero
/// tenant into later tests (the TLS is process-global per thread).
class ScopedTenant {
  public:
    explicit ScopedTenant(uint64_t t) { set_thread_tenant(t); }
    ~ScopedTenant() { set_thread_tenant(0); }
};

TEST(Sync, ThreadTenantDefaultsToZeroAndIsThreadLocal)
{
    EXPECT_EQ(thread_tenant(), 0u);
    {
        ScopedTenant bind(7);
        EXPECT_EQ(thread_tenant(), 7u);
        std::thread other(
            [] { EXPECT_EQ(thread_tenant(), 0u); });
        other.join();
    }
    EXPECT_EQ(thread_tenant(), 0u);
}

TEST(Sync, UncontendedLockRecordsAcquisitionAndHold)
{
    Mutex m("test.uncontended");
    m.lock();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    m.unlock();

    SyncSite* site = m.site();
    ASSERT_NE(site, nullptr);
    EXPECT_STREQ(site->kind(), "mutex");
    EXPECT_EQ(site->acquisitions.value(), 1u);
    EXPECT_EQ(site->contended.value(), 0u);
    // The fast path records a zero wait sample (so acquisition count and
    // wait-sample count agree) and a real hold time.
    EXPECT_EQ(site->wait_ns.count(), 1u);
    EXPECT_EQ(site->wait_ns.sum(), 0u);
    EXPECT_EQ(site->hold_ns.count(), 1u);
    EXPECT_GE(site->hold_ns.sum(), 1'000'000u); // slept 2ms
}

TEST(Sync, OwnerTenantTracksHolder)
{
    Mutex m("test.owner");
    EXPECT_EQ(m.owner_tenant(), 0u);
    {
        ScopedTenant bind(5);
        m.lock();
        EXPECT_EQ(m.owner_tenant(), 5u);
        m.unlock();
    }
    EXPECT_EQ(m.owner_tenant(), 0u);
}

TEST(Sync, ContendedLockRecordsWaitAndBlockedEdge)
{
    Mutex m("test.contended");

    // Holder: tenant 2 (this thread) takes the lock, then releases it
    // ~20ms after the waiter is known to be blocked.
    ScopedTenant holder_bind(2);
    m.lock();
    std::atomic<bool> waiter_entered{false};
    std::thread waiter([&] {
        set_thread_tenant(3);
        waiter_entered.store(true);
        m.lock(); // blocks on tenant 2
        m.unlock();
        set_thread_tenant(0);
    });
    while (!waiter_entered.load()) {
        std::this_thread::yield();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    m.unlock();
    waiter.join();

    SyncSite* site = m.site();
    ASSERT_NE(site, nullptr);
    EXPECT_EQ(site->acquisitions.value(), 2u);
    EXPECT_GE(site->contended.value(), 1u);
    // The waiter blocked for roughly the holder's 20ms nap.
    EXPECT_GE(site->wait_ns.max(), 5'000'000u);
    EXPECT_GE(site->tenant_wait_ns.load(), 5'000'000u);

    // Blocked-on attribution: tenant 3 waited on tenant 2 at this site.
    bool found = false;
    for (const BlockedEdge& e : SyncRegistry::global().blocked_edges()) {
        if (e.site == "test.contended") {
            EXPECT_EQ(e.waiter, 3u);
            EXPECT_EQ(e.holder, 2u);
            EXPECT_GE(e.count, 1u);
            EXPECT_GE(e.wait_ns, 5'000'000u);
            found = true;
        }
    }
    EXPECT_TRUE(found) << "no blocked edge recorded for test.contended";

    const auto waits = SyncRegistry::global().tenant_waits();
    const auto it = waits.find(3);
    ASSERT_NE(it, waits.end());
    EXPECT_GE(it->second, 5'000'000u);
}

TEST(Sync, UntenantedWaiterRecordsNoBlockedEdge)
{
    Mutex m("test.untenanted");
    m.lock();
    std::atomic<bool> entered{false};
    std::thread waiter([&] {
        entered.store(true);
        m.lock(); // tenant 0: waits recorded, but no edge / tenant wait
        m.unlock();
    });
    while (!entered.load()) {
        std::this_thread::yield();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    m.unlock();
    waiter.join();

    EXPECT_EQ(m.site()->tenant_wait_ns.load(), 0u);
    for (const BlockedEdge& e : SyncRegistry::global().blocked_edges()) {
        EXPECT_NE(e.site, "test.untenanted");
    }
}

TEST(Sync, CondVarWaitRecordsAgainstItsSite)
{
    Mutex m("test.cv_mutex");
    CondVar cv("test.cv");
    std::unique_lock<Mutex> lock(m);
    // Timed wait with an always-false predicate: records one wait of
    // ~3ms against the CV site.
    const bool satisfied =
        cv.wait_for(lock, std::chrono::milliseconds(3), [] { return false; });
    EXPECT_FALSE(satisfied);

    SyncSite* site = cv.site();
    ASSERT_NE(site, nullptr);
    EXPECT_STREQ(site->kind(), "cv");
    EXPECT_EQ(site->acquisitions.value(), 1u);
    EXPECT_GE(site->contended.value(), 1u);
    EXPECT_GE(site->wait_ns.sum(), 1'000'000u);
}

TEST(Sync, SitesAggregateByNameAcrossInstances)
{
    Mutex a("test.shared_site");
    Mutex b("test.shared_site");
    EXPECT_EQ(a.site(), b.site());
    const uint64_t before = a.site()->acquisitions.value();
    a.lock();
    a.unlock();
    b.lock();
    b.unlock();
    EXPECT_EQ(a.site()->acquisitions.value(), before + 2);
}

TEST(Sync, ContentionJsonHasSchemaSitesAndBlockedOn)
{
    // Force one attributed edge so every section is populated.
    Mutex m("test.report");
    ScopedTenant holder_bind(1);
    m.lock();
    std::atomic<bool> entered{false};
    std::thread waiter([&] {
        set_thread_tenant(4);
        entered.store(true);
        m.lock();
        m.unlock();
        set_thread_tenant(0);
    });
    while (!entered.load()) {
        std::this_thread::yield();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    m.unlock();
    waiter.join();

    const std::string json = SyncRegistry::global().contention_json();
    EXPECT_NE(json.find("\"schema\":\"cascade.contention.v1\""),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"sites\":["), std::string::npos);
    EXPECT_NE(json.find("\"blocked_on\":["), std::string::npos);
    EXPECT_NE(json.find("\"tenant_wait_ns\":{"), std::string::npos);
    EXPECT_NE(json.find("\"test.report\""), std::string::npos);
    EXPECT_NE(json.find("\"waiter\":4"), std::string::npos);
    EXPECT_NE(json.find("\"holder\":1"), std::string::npos);

    const std::string table = SyncRegistry::global().contention_table();
    EXPECT_NE(table.find("contention by site"), std::string::npos)
        << table;
    EXPECT_NE(table.find("blocked-on"), std::string::npos);
    EXPECT_NE(table.find("test.report"), std::string::npos);
    EXPECT_NE(table.find("tenant 4"), std::string::npos);
}

TEST(Sync, ResetZeroesSamplesButKeepsSitePointers)
{
    Mutex m("test.reset");
    m.lock();
    m.unlock();
    SyncSite* site = m.site();
    ASSERT_GE(site->acquisitions.value(), 1u);

    SyncRegistry::global().reset();
    EXPECT_EQ(site->acquisitions.value(), 0u);
    EXPECT_EQ(site->wait_ns.count(), 0u);
    EXPECT_EQ(site->tenant_wait_ns.load(), 0u);
    EXPECT_TRUE(SyncRegistry::global().blocked_edges().empty());
    EXPECT_TRUE(SyncRegistry::global().tenant_waits().empty());

    // Same handle keeps recording after the reset.
    m.lock();
    m.unlock();
    EXPECT_EQ(site->acquisitions.value(), 1u);
}

TEST(Sync, TraceEventsLandOnTenantSwimlanes)
{
    Tracer tracer;
    tracer.record_complete("exclusive", 1.0, 2.0, 0); // tenant 0 -> pid 1
    tracer.record_complete_tenant("t3.span", 5.0, 1.0, 3);
    tracer.instant_tenant("t3.mark", 3, 42);
    const std::string json = tracer.chrome_json();

    // Tenant 3's lane is pid 4, with a process_name metadata record.
    EXPECT_NE(json.find("\"pid\":4"), std::string::npos) << json;
    EXPECT_NE(json.find("\"process_name\""), std::string::npos);
    EXPECT_NE(json.find("tenant 3"), std::string::npos);
    // Tenant-0 events stay on the original pid 1 lane.
    EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
}

TEST(Sync, ExclusiveTraceHasNoTenantMetadata)
{
    Tracer tracer;
    tracer.record_complete("only", 1.0, 2.0, 0);
    const std::string json = tracer.chrome_json();
    EXPECT_EQ(json.find("\"process_name\""), std::string::npos) << json;
}

TEST(Sync, BlockedWaitEmitsTracerSpanOnWaiterLane)
{
    // A tenant-bound waiter blocked >= 10us gets a "blocked:<site>" span
    // in the global tracer, tagged with the holder tenant.
    const size_t before = Tracer::global().events().size();
    Mutex m("test.span");
    ScopedTenant holder_bind(8);
    m.lock();
    std::atomic<bool> entered{false};
    std::thread waiter([&] {
        set_thread_tenant(9);
        entered.store(true);
        m.lock();
        m.unlock();
        set_thread_tenant(0);
    });
    while (!entered.load()) {
        std::this_thread::yield();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    m.unlock();
    waiter.join();

    bool found = false;
    const auto events = Tracer::global().events();
    for (size_t i = before; i < events.size(); ++i) {
        if (std::string(events[i].name) == "blocked:test.span") {
            EXPECT_EQ(events[i].tenant, 9u); // waiter's lane
            EXPECT_EQ(events[i].arg, 8u);    // ...tagged with the holder
            found = true;
        }
    }
    EXPECT_TRUE(found) << "no blocked:test.span event recorded";
}

TEST(Sync, ContentionJsonExactBytes)
{
    // A private registry fed fixed samples: sites rank by tenant wait,
    // then total wait; names are escaped; tenant ids key the wait map.
    SyncRegistry reg;
    SyncSite* a = reg.site("alpha", "mutex");
    a->acquisitions.inc(5);
    a->contended.inc(2);
    a->wait_ns.record(100);
    a->wait_ns.record(300);
    a->hold_ns.record(50);
    a->tenant_wait_ns.store(400);
    reg.record_blocked(*a, 2, 1, 300);
    SyncSite* b = reg.site("beta \"cv\"", "cv");
    b->acquisitions.inc(1);
    EXPECT_EQ(reg.contention_json(),
              R"({"schema":"cascade.contention.v1",)"
              R"("sites":[{"name":"alpha","kind":"mutex",)"
              R"("acquisitions":5,"contended":2,"wait_sum_ns":400,)"
              R"("wait_max_ns":300,"wait_p50_ns":300,"wait_p99_ns":300,)"
              R"("hold_sum_ns":50,"hold_max_ns":50,"tenant_wait_ns":400},)"
              R"({"name":"beta \"cv\"","kind":"cv","acquisitions":1,)"
              R"("contended":0,"wait_sum_ns":0,"wait_max_ns":0,)"
              R"("wait_p50_ns":0,"wait_p99_ns":0,"hold_sum_ns":0,)"
              R"("hold_max_ns":0,"tenant_wait_ns":0}],)"
              R"("blocked_on":[{"site":"alpha","waiter":2,"holder":1,)"
              R"("count":1,"wait_ns":300}],"tenant_wait_ns":{"2":300}})");
    EXPECT_EQ(SyncRegistry().contention_json(),
              R"({"schema":"cascade.contention.v1","sites":[],)"
              R"("blocked_on":[],"tenant_wait_ns":{}})");
}

} // namespace
} // namespace cascade::telemetry
