#include "telemetry/trace.h"

#include <atomic>
#include <fstream>
#include <set>

#include "common/json.h"
#include "telemetry/sync.h"

namespace cascade::telemetry {

namespace {

thread_local uint32_t tls_depth = 0;

uint32_t
next_thread_id()
{
    static std::atomic<uint32_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

} // namespace

Tracer::Tracer(size_t capacity)
    : ring_(capacity == 0 ? 1 : capacity),
      epoch_(std::chrono::steady_clock::now())
{}

Tracer&
Tracer::global()
{
    static Tracer instance;
    return instance;
}

double
Tracer::now_us() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

uint32_t
Tracer::thread_id()
{
    thread_local const uint32_t id = next_thread_id();
    return id;
}

void
Tracer::push(TraceEvent event)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (count_ == ring_.size()) {
        ++dropped_;
    } else {
        ++count_;
    }
    ring_[next_] = event;
    next_ = (next_ + 1) % ring_.size();
}

void
Tracer::record_complete(const char* name, double ts_us, double dur_us,
                        uint32_t depth)
{
    TraceEvent e;
    e.name = name;
    e.ts_us = ts_us;
    e.dur_us = dur_us;
    e.tid = thread_id();
    e.depth = depth;
    e.tenant = thread_tenant();
    push(e);
}

void
Tracer::record_complete(const char* name, double ts_us, double dur_us,
                        uint32_t depth, uint64_t arg)
{
    TraceEvent e;
    e.name = name;
    e.ts_us = ts_us;
    e.dur_us = dur_us;
    e.tid = thread_id();
    e.depth = depth;
    e.has_arg = true;
    e.arg = arg;
    e.tenant = thread_tenant();
    push(e);
}

void
Tracer::record_complete_tenant(const char* name, double ts_us,
                               double dur_us, uint64_t tenant)
{
    TraceEvent e;
    e.name = name;
    e.ts_us = ts_us;
    e.dur_us = dur_us;
    e.tid = thread_id();
    e.tenant = tenant;
    push(e);
}

void
Tracer::instant(const char* name)
{
    TraceEvent e;
    e.name = name;
    e.ts_us = now_us();
    e.tid = thread_id();
    e.instant = true;
    e.tenant = thread_tenant();
    push(e);
}

void
Tracer::instant(const char* name, uint64_t arg)
{
    TraceEvent e;
    e.name = name;
    e.ts_us = now_us();
    e.tid = thread_id();
    e.instant = true;
    e.has_arg = true;
    e.arg = arg;
    e.tenant = thread_tenant();
    push(e);
}

void
Tracer::instant_tenant(const char* name, uint64_t tenant, uint64_t arg)
{
    TraceEvent e;
    e.name = name;
    e.ts_us = now_us();
    e.tid = thread_id();
    e.instant = true;
    e.has_arg = true;
    e.arg = arg;
    e.tenant = tenant;
    push(e);
}

void
Tracer::flow(const char* name, char phase, uint64_t id)
{
    flow_tenant(name, phase, id, thread_tenant(), now_us());
}

void
Tracer::flow_tenant(const char* name, char phase, uint64_t id,
                    uint64_t tenant, double ts_us)
{
    TraceEvent e;
    e.name = name;
    e.ts_us = ts_us;
    e.tid = thread_id();
    e.tenant = tenant;
    e.flow_phase = phase;
    e.flow_id = id;
    push(e);
}

std::vector<TraceEvent>
Tracer::events() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<TraceEvent> out;
    out.reserve(count_);
    const size_t start =
        count_ == ring_.size() ? next_ : (next_ + ring_.size() - count_) %
                                             ring_.size();
    for (size_t i = 0; i < count_; ++i) {
        out.push_back(ring_[(start + i) % ring_.size()]);
    }
    return out;
}

size_t
Tracer::dropped() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return dropped_;
}

void
Tracer::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    next_ = 0;
    count_ = 0;
    dropped_ = 0;
}

std::string
Tracer::chrome_json() const
{
    const std::vector<TraceEvent> evs = events();
    JsonWriter w;
    w.str("displayTimeUnit", "ms").array("traceEvents");
    // Tenant lanes: tenant N exports as pid 1+N so a multi-tenant run
    // renders as one swimlane per tenant. pid 1 (tenant 0 / exclusive
    // mode) is unchanged and gets no metadata, preserving the legacy
    // single-process trace shape.
    std::set<uint64_t> tenants;
    for (const TraceEvent& e : evs) {
        if (e.tenant != 0) {
            tenants.insert(e.tenant);
        }
    }
    for (const uint64_t t : tenants) {
        w.object()
            .str("name", "process_name")
            .str("ph", "M")
            .num("pid", 1 + t)
            .object("args")
            .str("name", "tenant " + std::to_string(t))
            .end()
            .end();
    }
    for (const TraceEvent& e : evs) {
        w.object()
            .str("name", e.name)
            .str("cat", "cascade")
            .num("pid", 1 + e.tenant)
            .num("tid", e.tid)
            .dbl("ts", e.ts_us, JsonDouble::Fixed3);
        if (e.flow_phase != 0) {
            // Flow arrow anchor: binds to the slice enclosing ts on this
            // thread; "bp":"e" makes the finish bind to the enclosing
            // slice rather than the next one.
            w.str("ph", std::string_view(&e.flow_phase, 1))
                .num("id", e.flow_id);
            if (e.flow_phase == 'f') {
                w.str("bp", "e");
            }
        } else if (e.instant) {
            w.str("ph", "i").str("s", "t");
        } else {
            w.str("ph", "X").dbl("dur", e.dur_us, JsonDouble::Fixed3);
        }
        if (e.has_arg) {
            w.object("args").num("value", e.arg).end();
        }
        w.end();
    }
    return w.build();
}

bool
Tracer::write_chrome_json(const std::string& path) const
{
    std::ofstream file(path);
    if (!file) {
        return false;
    }
    file << chrome_json() << '\n';
    return static_cast<bool>(file);
}

SpanGuard::SpanGuard(Tracer& tracer, const char* name,
                     Histogram* duration_ns)
    : tracer_(tracer), name_(name), duration_ns_(duration_ns),
      start_us_(tracer.now_us()), depth_(tls_depth)
{
    ++tls_depth;
}

SpanGuard::~SpanGuard()
{
    --tls_depth;
    const double dur_us = tracer_.now_us() - start_us_;
    tracer_.record_complete(name_, start_us_, dur_us, depth_);
    if (duration_ns_ != nullptr) {
        duration_ns_->record(static_cast<uint64_t>(dur_us * 1000.0));
    }
}

} // namespace cascade::telemetry
