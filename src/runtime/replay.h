/// \file
/// Deterministic session replay (the consumer half of the flight
/// recorder, see telemetry/journal.h). A journal recorded with
/// `Runtime::start_recording()` captures every nondeterminism-bearing
/// event of a session; replay_journal() reconstructs an identically
/// configured Runtime from the journal header, re-feeds the recorded
/// inputs in order, pins the sources of nondeterminism through a replay
/// Runtime::Oracle (adoption iterations, forced outcomes, evictions,
/// placement seeds, open-loop grants), and compares every output
/// event the re-executed session produces against the recording — byte
/// for byte — reporting the first diverging event if any.

#ifndef CASCADE_RUNTIME_REPLAY_H
#define CASCADE_RUNTIME_REPLAY_H

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/runtime.h"
#include "telemetry/journal.h"

namespace cascade::runtime {

/// One journal line, parsed and raw. \p data_raw is the payload's exact
/// byte sequence from the file: divergence detection compares raw text
/// (JsonWriter regenerates the identical serialization on replay), so no
/// information is lost to a parse/re-print round trip.
struct ReplayLogEvent {
    uint64_t seq = 0;
    uint64_t vt = 0;
    std::string type;
    telemetry::JsonValue data;
    std::string data_raw;
};

/// A loaded journal: the options header plus the event sequence.
struct ReplayLog {
    telemetry::JsonValue header;
    std::vector<ReplayLogEvent> events;
};

/// Reads a `cascade.events.v1` JSONL file. Returns false (with \p err)
/// on IO failure, a bad schema tag, or a malformed line.
bool load_journal(const std::string& path, ReplayLog* out,
                  std::string* err = nullptr);

/// Reconstructs Runtime options from a journal header (fields absent in
/// the header keep their defaults, so old journals stay loadable).
Runtime::Options options_from_header(const telemetry::JsonValue& header);

struct ReplayOptions {
    /// When nonempty, the replayed session records itself to this path —
    /// replaying a recording twice must produce byte-identical journals
    /// (the CI determinism check diffs them).
    std::string record_path;
    /// Mirror replayed $display/$write output to stdout.
    bool echo = false;
    /// How long a replayed api.wait_hw{ok:true} may block on the compile
    /// server before giving up.
    double hardware_wait_s = 600.0;
};

struct ReplayReport {
    bool loaded = false;   ///< journal parsed and schedule extracted
    bool ok = false;       ///< replay ran to the end with no divergence
    bool diverged = false;

    /// First diverging event, identified by its *recorded* stamps.
    uint64_t divergence_seq = 0;
    uint64_t divergence_vt = 0;
    std::string divergence_type;
    std::string expected; ///< recorded payload ("<none>" for extra events)
    std::string actual;   ///< re-executed payload ("<missing>" if absent)

    uint64_t inputs_fed = 0;
    uint64_t outputs_compared = 0;
    std::string error; ///< loader/driver failure (distinct from divergence)

    /// One human-readable paragraph for the CLI.
    std::string summary() const;
};

/// Replays \p log into \p rt, which must be freshly constructed (no user
/// evals yet) with options matching the journal header. Prefer
/// replay_journal() unless the test needs its hands on the runtime.
ReplayReport replay_into(Runtime* rt, const ReplayLog& log,
                         const ReplayOptions& opts = {});

/// Load + construct + replay in one call.
ReplayReport replay_journal(const std::string& path,
                            const ReplayOptions& opts = {});

} // namespace cascade::runtime

#endif // CASCADE_RUNTIME_REPLAY_H
