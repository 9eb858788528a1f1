#include "telemetry/request_trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/json.h"

namespace cascade::telemetry {

namespace {

/// Writes one request's members into the open object \p w (shared by
/// json() and ndjson()).
JsonWriter&
request_members(JsonWriter& w, const RequestRecord& r)
{
    w.num("id", r.id)
        .str("kind", r.kind)
        .num("version", r.version)
        .num("tenant", r.tenant)
        .boolean("done", r.done)
        .boolean("ok", r.ok)
        .boolean("cache_hit", r.cache_hit)
        .dbl("start_us", r.start_us, JsonDouble::Fixed3)
        .dbl("total_us", r.done ? r.total_us() : 0.0, JsonDouble::Fixed3)
        .array("segments");
    for (const RequestSegment& seg : r.segments) {
        w.object()
            .str("name", seg.name)
            .dbl("us", seg.dur_us, JsonDouble::Fixed3)
            .end();
    }
    return w.end();
}

std::string
request_line(const RequestRecord& r)
{
    JsonWriter w;
    return request_members(w, r).build() + '\n';
}

} // namespace

double
RequestRecord::segment_sum_us() const
{
    double sum = 0;
    for (const RequestSegment& s : segments) {
        sum += s.dur_us;
    }
    return sum;
}

RequestTracker::RequestTracker(Registry* registry, size_t capacity)
    : registry_(registry), ring_(capacity == 0 ? 1 : capacity)
{}

RequestRecord*
RequestTracker::find_open_locked(uint64_t id)
{
    for (RequestRecord& r : open_) {
        if (r.id == id) {
            return &r;
        }
    }
    return nullptr;
}

void
RequestTracker::begin(uint64_t id, const char* kind, uint64_t version,
                      uint64_t tenant, double start_us)
{
    std::lock_guard<std::mutex> lock(mutex_);
    RequestRecord r;
    r.id = id;
    r.kind = kind;
    r.version = version;
    r.tenant = tenant;
    r.start_us = start_us;
    open_.push_back(std::move(r));
}

void
RequestTracker::add_segment(uint64_t id, const char* name, double dur_us)
{
    std::lock_guard<std::mutex> lock(mutex_);
    RequestRecord* r = find_open_locked(id);
    if (r != nullptr) {
        r->segments.push_back({name, dur_us});
    }
}

void
RequestTracker::annotate_cache(uint64_t id, bool hit)
{
    std::lock_guard<std::mutex> lock(mutex_);
    RequestRecord* r = find_open_locked(id);
    if (r != nullptr) {
        r->cache_hit = hit;
    }
}

void
RequestTracker::annotate_placement(uint64_t id, uint64_t kept, uint64_t cells)
{
    std::lock_guard<std::mutex> lock(mutex_);
    RequestRecord* r = find_open_locked(id);
    if (r != nullptr) {
        r->kept_cells = kept;
        r->placed_cells = cells;
    }
}

void
RequestTracker::retire_locked(RequestRecord record)
{
    if (ring_count_ == ring_.size()) {
        // Full: overwrite the oldest.
    } else {
        ++ring_count_;
    }
    ring_[ring_next_] = std::move(record);
    ring_next_ = (ring_next_ + 1) % ring_.size();
    ++completed_;
}

void
RequestTracker::feed_histograms(const RequestRecord& record)
{
    if (registry_ == nullptr) {
        return;
    }
    const auto record_ns = [&](const std::string& name, double us) {
        Histogram*& h = histograms_[name];
        if (h == nullptr) {
            h = registry_->histogram(name);
        }
        h->record(static_cast<uint64_t>(std::max(0.0, us) * 1000.0));
    };
    for (const RequestSegment& s : record.segments) {
        record_ns(std::string("request.") + s.name + "_ns", s.dur_us);
    }
    record_ns("request.total_ns", record.total_us());
}

bool
RequestTracker::end(uint64_t id, bool ok, double end_us)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it =
        std::find_if(open_.begin(), open_.end(),
                     [id](const RequestRecord& r) { return r.id == id; });
    if (it == open_.end()) {
        return false;
    }
    RequestRecord finished = std::move(*it);
    open_.erase(it);
    finished.done = true;
    finished.ok = ok;
    finished.end_us = end_us;
    feed_histograms(finished);
    retire_locked(std::move(finished));
    return true;
}

void
RequestTracker::complete(uint64_t id, const char* kind, uint64_t version,
                         uint64_t tenant, double start_us, double end_us,
                         const char* segment, bool ok)
{
    begin(id, kind, version, tenant, start_us);
    add_segment(id, segment, end_us - start_us);
    end(id, ok, end_us);
}

std::vector<RequestRecord>
RequestTracker::recent() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<RequestRecord> out;
    out.reserve(ring_count_);
    const size_t start = ring_count_ == ring_.size()
                             ? ring_next_
                             : (ring_next_ + ring_.size() - ring_count_) %
                                   ring_.size();
    for (size_t i = 0; i < ring_count_; ++i) {
        out.push_back(ring_[(start + i) % ring_.size()]);
    }
    return out;
}

bool
RequestTracker::find(uint64_t id, RequestRecord* out) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const RequestRecord& r : open_) {
        if (r.id == id) {
            *out = r;
            return true;
        }
    }
    for (size_t i = 0; i < ring_count_; ++i) {
        if (ring_[i].id == id) {
            *out = ring_[i];
            return true;
        }
    }
    return false;
}

size_t
RequestTracker::open_count() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return open_.size();
}

uint64_t
RequestTracker::completed_total() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return completed_;
}

std::string
RequestTracker::json() const
{
    JsonWriter w;
    w.str("schema", "cascade.requests.v1");
    {
        std::lock_guard<std::mutex> lock(mutex_);
        w.num("completed", completed_).num("open", open_.size());
    }
    w.array("requests");
    for (const RequestRecord& r : recent()) {
        request_members(w.object(), r).end();
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const RequestRecord& r : open_) {
            request_members(w.object(), r).end();
        }
    }
    return w.build() + '\n';
}

std::string
RequestTracker::ndjson() const
{
    std::string out;
    for (const RequestRecord& r : recent()) {
        out += request_line(r);
    }
    std::lock_guard<std::mutex> lock(mutex_);
    for (const RequestRecord& r : open_) {
        out += request_line(r);
    }
    return out;
}

std::string
RequestTracker::table() const
{
    const std::vector<RequestRecord> finished = recent();
    std::vector<RequestRecord> open;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        open = open_;
    }
    std::string out = "      id  kind       ver  ok   cache  total_ms"
                      "  slowest segment\n";
    char buf[160];
    const auto row = [&](const RequestRecord& r) {
        const RequestSegment* hot = nullptr;
        for (const RequestSegment& s : r.segments) {
            if (hot == nullptr || s.dur_us > hot->dur_us) {
                hot = &s;
            }
        }
        const double total = r.done ? r.total_us() : 0.0;
        std::string slowest = "-";
        if (hot != nullptr && total > 0) {
            std::snprintf(buf, sizeof buf, "%s %.0f%%", hot->name,
                          100.0 * hot->dur_us / total);
            slowest = buf;
        }
        std::snprintf(buf, sizeof buf,
                      "%8llu  %-9s %4llu  %-4s %-6s %9.3f  %s\n",
                      static_cast<unsigned long long>(r.id), r.kind,
                      static_cast<unsigned long long>(r.version),
                      !r.done ? "..." : (r.ok ? "yes" : "no"),
                      r.cache_hit ? "hit" : "miss", total / 1000.0,
                      r.done ? slowest.c_str() : "(in flight)");
        out += buf;
    };
    for (const RequestRecord& r : finished) {
        row(r);
    }
    for (const RequestRecord& r : open) {
        row(r);
    }
    out += "(:why <id> decomposes one request; ids are journal seqs)\n";
    return out;
}

std::string
RequestTracker::why(uint64_t id) const
{
    RequestRecord r;
    if (!find(id, &r)) {
        return "request " + std::to_string(id) +
               " not found (the tracker keeps the most recent " +
               std::to_string(ring_.size()) + " finished requests)\n";
    }
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "request %llu (%s v%llu, tenant %llu): %s, cache %s\n",
                  static_cast<unsigned long long>(r.id), r.kind,
                  static_cast<unsigned long long>(r.version),
                  static_cast<unsigned long long>(r.tenant),
                  !r.done ? "in flight" : (r.ok ? "ok" : "failed"),
                  r.cache_hit ? "hit" : "miss");
    std::string out = buf;
    if (!r.done) {
        out += "  (still open; segments so far)\n";
    }
    const double total = r.done ? r.total_us() : r.segment_sum_us();
    std::snprintf(buf, sizeof buf, "  end-to-end   %12.3f ms\n",
                  total / 1000.0);
    out += buf;
    for (const RequestSegment& s : r.segments) {
        std::snprintf(buf, sizeof buf, "    %-10s %12.3f ms %5.1f%%",
                      s.name, s.dur_us / 1000.0,
                      total > 0 ? 100.0 * s.dur_us / total : 0.0);
        out += buf;
        if (r.placed_cells > 0 && std::strcmp(s.name, "place") == 0) {
            std::snprintf(buf, sizeof buf, "  kept %llu of %llu cells",
                          static_cast<unsigned long long>(r.kept_cells),
                          static_cast<unsigned long long>(r.placed_cells));
            out += buf;
        }
        out += '\n';
    }
    const double sum = r.segment_sum_us();
    std::snprintf(buf, sizeof buf,
                  "  segments sum %12.3f ms (%.1f%% of end-to-end)\n",
                  sum / 1000.0, total > 0 ? 100.0 * sum / total : 0.0);
    out += buf;
    return out;
}

} // namespace cascade::telemetry
