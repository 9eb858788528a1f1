/// \file
/// The flight-recorder half of the observability subsystem: a structured
/// event journal (schema `cascade.events.v1`) that records every
/// nondeterminism-bearing event in a session — eval'ed program text,
/// interrupt enqueue/flush, engine adoption decisions, compile begin/end
/// with the placement RNG seed, open-loop grant sizes, and output digests
/// — each stamped with a monotonic sequence number and virtual time (never
/// wall time, so two replays of the same journal are byte-identical).
///
/// Three consumers:
///  - the **black box**: every Journal keeps a bounded in-memory ring of
///    the most recent events; the process-wide BlackBox dumps the rings of
///    all live runtimes (plus stats/profile snapshots) to
///    `cascade-crash-<pid>.json` on a CASCADE_CHECK failure, fatal signal,
///    or std::terminate;
///  - the **recorder**: start_file() mirrors every subsequent event to a
///    JSONL file that runtime/replay.h can re-execute deterministically;
///  - the **divergence detector**: set_observer() sees each event as it is
///    recorded, which replay uses to compare the re-executed session
///    against the recorded one event by event.

#ifndef CASCADE_TELEMETRY_JOURNAL_H
#define CASCADE_TELEMETRY_JOURNAL_H

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "telemetry/sync.h"

namespace cascade::telemetry {

/// FNV-1a 64-bit digest — the journal's output-digest function ($display
/// text, VCD file contents, compile reports). Stable across platforms.
uint64_t fnv1a64(std::string_view data);
/// fnv1a64 rendered as 16 lowercase hex digits.
std::string digest_hex(std::string_view data);

/// A parsed JSON value (what load_journal and tests read journals back
/// with). Minimal by design: objects keep insertion order, integers that
/// fit uint64 are preserved exactly.
struct JsonValue {
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool b = false;
    double num = 0;
    bool is_int = false;   ///< no '.', 'e', or '-' mantissa loss
    uint64_t u64 = 0;      ///< exact value when is_int
    std::string str;
    std::vector<JsonValue> arr;
    std::vector<std::pair<std::string, JsonValue>> obj;

    /// Object member lookup (nullptr when absent or not an object).
    const JsonValue* find(const std::string& k) const;
    /// Convenience accessors with defaults for absent/mistyped members.
    uint64_t get_u64(const std::string& k, uint64_t dflt = 0) const;
    double get_num(const std::string& k, double dflt = 0) const;
    bool get_bool(const std::string& k, bool dflt = false) const;
    std::string get_str(const std::string& k,
                        const std::string& dflt = "") const;
};

/// Parses one JSON document. Returns false (with *err) on malformed input.
bool parse_json(std::string_view text, JsonValue* out,
                std::string* err = nullptr);

/// The structured event journal. One per Runtime; always on (the ring),
/// optionally mirrored to a JSONL file (the recorder).
class Journal {
  public:
    /// Black-box depth: how many recent events a crash dump preserves.
    static constexpr size_t kDefaultRingCapacity = 256;

    struct Event {
        uint64_t seq = 0;  ///< monotonic per-journal sequence number
        uint64_t vt = 0;   ///< virtual time (clock ticks) at record time
        uint64_t tenant = 0; ///< owning tenant (0 = exclusive mode)
        std::string type;  ///< vocabulary entry, e.g. "interrupt.enqueue"
        std::string data;  ///< payload as one canonical JSON object
    };

    explicit Journal(size_t ring_capacity = kDefaultRingCapacity);
    ~Journal();

    Journal(const Journal&) = delete;
    Journal& operator=(const Journal&) = delete;

    /// Virtual-time source stamped onto each event (0 until set).
    void set_clock(std::function<uint64_t()> clock);

    /// Tenant id stamped onto each subsequent event. Shared-mode
    /// runtimes set this once at construction; exclusive sessions leave
    /// it 0 and the field never appears in the serialized stream
    /// (cascade.events.v1 stays backward-compatible).
    void set_tenant(uint64_t tenant);

    /// Records one event; returns its sequence number. \p data must be a
    /// JSON object (JsonWriter::build()).
    uint64_t record(const char* type, std::string data = "{}");

    /// @{ Recorder: mirror subsequent events to \p path as JSONL. The
    /// first line is `{"schema":"cascade.events.v1","header":<header>}`.
    bool start_file(const std::string& path, const std::string& header_json,
                    std::string* err = nullptr);
    void stop_file();
    bool writing() const;
    const std::string& path() const { return path_; }
    /// @}

    /// Dumps header + current ring contents to \p path (repro artifacts,
    /// e.g. the fuzz harness's failure capture).
    bool write_ring(const std::string& path, const std::string& header_json,
                    std::string* err = nullptr) const;

    /// Divergence-detector hook: called (outside the journal lock) for
    /// every recorded event. Pass nullptr to clear.
    void set_observer(std::function<void(const Event&)> observer);

    /// @{ Broadcast taps: like the observer but many may coexist, so
    /// passive listeners (the monitor server's /events stream) never
    /// fight replay's divergence detector for the single observer slot.
    /// Taps run outside the journal lock and must not record into the
    /// journal. Returns an id for remove_tap.
    int add_tap(std::function<void(const Event&)> tap);
    void remove_tap(int id);
    /// @}

    /// Oldest-first copy of the ring (the black-box view).
    std::vector<Event> ring() const;
    /// The ring as a JSON array (embedded in crash dumps).
    std::string ring_json() const;

    uint64_t events_recorded() const;

    /// One JSONL line for \p event (no trailing newline).
    static std::string event_json(const Event& event);

  private:
    mutable Mutex mutex_{"journal.ring"};
    std::function<uint64_t()> clock_;
    std::function<void(const Event&)> observer_;
    std::vector<std::pair<int, std::function<void(const Event&)>>> taps_;
    int next_tap_id_ = 1;
    std::vector<Event> ring_;
    size_t ring_capacity_;
    size_t next_ = 0;   ///< ring slot for the next event
    size_t count_ = 0;  ///< events currently in the ring
    uint64_t seq_ = 0;
    uint64_t tenant_ = 0;
    std::FILE* file_ = nullptr;
    std::string path_;
};

/// The crash black box: a process-wide registry of dump sources (one per
/// live Runtime: journal ring + stats + profile snapshots). On a fatal
/// signal, CASCADE_CHECK failure, or std::terminate it writes
/// `cascade-crash-<pid>.json` so a field failure carries the event
/// sequence that led to it.
class BlackBox {
  public:
    static BlackBox& instance();

    /// Installs the fatal-signal handlers, the std::terminate handler, and
    /// the CASCADE_CHECK failure hook. Idempotent; under ASan only the
    /// SIGABRT path is hooked (the sanitizer owns SIGSEGV reporting).
    void install_handlers();

    /// Registers a named JSON provider (must return one JSON value).
    /// Returns an id for remove_source. Providers run at dump time.
    int add_source(const std::string& name,
                   std::function<std::string()> provider);
    void remove_source(int id);

    /// Writes the dump to $CASCADE_CRASH_DIR, else the current working
    /// directory (schema `cascade.crash.v1`); returns the file path,
    /// or "" if a dump already happened or the file cannot be written.
    /// Safe to call directly (tests); the handlers call it on the way down.
    std::string dump(const std::string& reason);

    /// The dump as a string (no file IO) — unit-test support.
    std::string dump_json(const std::string& reason) const;

  private:
    BlackBox() = default;

    struct Source {
        int id;
        std::string name;
        std::function<std::string()> provider;
    };

    mutable std::mutex mutex_;
    std::vector<Source> sources_;
    int next_id_ = 1;
};

} // namespace cascade::telemetry

#endif // CASCADE_TELEMETRY_JOURNAL_H
