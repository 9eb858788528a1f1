/// \file
/// Causal request tracing: every user-visible operation (a source eval,
/// a background compile, an interrupt batch, an eviction) is assigned a
/// monotonic request id and tracked from submission to completion as a
/// span tree of named latency segments. The id is the journal sequence
/// number of the operation's originating event, so ids are stable across
/// record/replay and can be cross-referenced against the flight
/// recorder ("which journal event started request 12?").
///
/// The critical-path analyzer's contract is that a finished request's
/// segments PARTITION its end-to-end wall time: each segment is a
/// consecutive interval (queue wait, cache lookup, synth/techmap/place,
/// admission deferral, adoption, first hardware tick), so the segment
/// durations sum to total latency by construction. Consumers:
///
///   - REPL `:requests` (recent table) and `:why <id>` (decomposition);
///   - `/requests` on the monitor server (NDJSON, one request per line);
///   - `cascade_request_<segment>_ns` histograms on `/metrics` (each
///     segment feeds a `request.<segment>_ns` registry histogram);
///   - `{"schema":"cascade.requests.v1"}` JSON for tools.
///
/// Thread-safe: the runtime thread begins/annotates/ends requests while
/// the monitor server thread renders json()/ndjson() concurrently.

#ifndef CASCADE_TELEMETRY_REQUEST_TRACE_H
#define CASCADE_TELEMETRY_REQUEST_TRACE_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/telemetry.h"

namespace cascade::telemetry {

/// One named latency segment of a request. Names are string literals
/// (static storage), mirroring the tracer's span-name convention.
struct RequestSegment {
    const char* name = "";
    double dur_us = 0;
};

/// One tracked request: identity, outcome, and its segment partition.
struct RequestRecord {
    uint64_t id = 0;       ///< journal seq of the originating event
    const char* kind = ""; ///< "eval" | "compile" | "interrupt" | "evict"
    uint64_t version = 0;  ///< program version the request acted on
    uint64_t tenant = 0;   ///< submitting tenant (0 in exclusive mode)
    double start_us = 0;   ///< tracer timestamp at submission
    double end_us = 0;     ///< tracer timestamp at completion
    bool done = false;
    bool ok = false;
    bool cache_hit = false;
    /// @{ A compile's placement: the cells it placed, and how many kept
    /// their site in the prior placement (`:why` shows them by `place`).
    uint64_t placed_cells = 0;
    uint64_t kept_cells = 0;
    /// @}
    std::vector<RequestSegment> segments;

    double total_us() const { return end_us - start_us; }
    double segment_sum_us() const;
};

class RequestTracker {
  public:
    /// \p registry receives per-segment latency histograms
    /// ("request.<segment>_ns", "request.total_ns") when non-null;
    /// \p capacity bounds the ring of retained finished requests.
    explicit RequestTracker(Registry* registry = nullptr,
                            size_t capacity = 256);

    RequestTracker(const RequestTracker&) = delete;
    RequestTracker& operator=(const RequestTracker&) = delete;

    /// Opens a request. \p id must be this tracker's unique key (the
    /// journal seq of the originating event guarantees that).
    void begin(uint64_t id, const char* kind, uint64_t version,
               uint64_t tenant, double start_us);
    /// Appends one named segment to an open request.
    void add_segment(uint64_t id, const char* name, double dur_us);
    /// Tags an open request with the compile cache outcome.
    void annotate_cache(uint64_t id, bool hit);
    /// Tags an open compile request with its placement: \p kept of its
    /// \p cells sat where the prior placement had them.
    void annotate_placement(uint64_t id, uint64_t kept, uint64_t cells);
    /// Completes a request and feeds the segment histograms. Returns
    /// false (a no-op) for ids that are not open — already closed as
    /// superseded, or never tracked.
    bool end(uint64_t id, bool ok, double end_us);
    /// begin + one segment spanning the whole interval + end, for
    /// single-phase requests (evals, interrupt batches, evictions).
    void complete(uint64_t id, const char* kind, uint64_t version,
                  uint64_t tenant, double start_us, double end_us,
                  const char* segment, bool ok);

    /// Finished requests, oldest first (bounded by the ring capacity).
    std::vector<RequestRecord> recent() const;
    /// Looks up one request, open or finished. False if unknown.
    bool find(uint64_t id, RequestRecord* out) const;
    size_t open_count() const;
    uint64_t completed_total() const; ///< lifetime finished count

    /// {"schema":"cascade.requests.v1",...} over the retained requests.
    std::string json() const;
    /// One finished-or-open request object per line (GET /requests).
    std::string ndjson() const;
    /// The REPL's :requests view (recent requests, hottest segment).
    std::string table() const;
    /// The REPL's :why <id> view: the critical-path decomposition of one
    /// request, with the segment sum checked against end-to-end latency.
    std::string why(uint64_t id) const;

  private:
    RequestRecord* find_open_locked(uint64_t id);
    void retire_locked(RequestRecord record);
    void feed_histograms(const RequestRecord& record);

    mutable std::mutex mutex_;
    Registry* registry_;
    std::map<std::string, Histogram*> histograms_; ///< lazy, by name
    std::vector<RequestRecord> open_;
    std::vector<RequestRecord> ring_; ///< finished, insertion order
    size_t ring_next_ = 0;
    size_t ring_count_ = 0;
    uint64_t completed_ = 0;
};

} // namespace cascade::telemetry

#endif // CASCADE_TELEMETRY_REQUEST_TRACE_H
