/// \file
/// Breakpoint/watchpoint manager for the interactive debugger.
///
/// The Debugger owns the armed condition set (`:break <signal> <op>
/// <value>` and `:watch <signal>`) and the change/edge state needed to
/// evaluate it deterministically between timesteps. It is engine-agnostic:
/// the runtime hands it a name->value lookup each evaluation window, so the
/// same point set works whether the program is resident in the interpreter,
/// the modeled fabric, or (via synthesized trigger cells) skips software
/// evaluation entirely.
///
/// Concurrency: the monitor server's `GET /debug` handler lists points from
/// its own thread while the scheduler mutates them, so the point table is
/// internally locked. The hot-path question "is anything armed at all?" is
/// answered by a relaxed atomic counter — a disarmed debugger costs the
/// scheduler one load per timestep window, mirroring the profiler's
/// guarded fast path.
///
/// Semantics:
///  - breakpoints are edge-triggered: the first evaluation after arming
///    establishes a baseline and the point fires on a false->true
///    transition of the condition, so `:break n == 5` set while n is
///    already 5 does not fire until the condition goes away and returns;
///  - watchpoints fire on any value change after the first observation;
///  - comparison is unsigned, with the constant resized to the signal's
///    width (Verilog self-determined context).

#ifndef CASCADE_RUNTIME_DEBUGGER_H
#define CASCADE_RUNTIME_DEBUGGER_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/bitvector.h"

namespace cascade::runtime {

class Debugger {
  public:
    enum class Kind { Break, Watch };

    struct Point {
        uint64_t id = 0;
        Kind kind = Kind::Break;
        std::string signal;
        std::string op;   ///< one of == != < > <= >= (Break only)
        BitVector value;  ///< comparison constant (Break only)
        uint64_t hits = 0;
        /// Evaluation state: baseline established, last observed value
        /// (Watch) and last condition result (Break edge detection).
        bool has_last = false;
        BitVector last;
        bool last_cond = false;
    };

    /// A point firing: which point, on which signal, with what value.
    struct Fire {
        uint64_t id = 0;
        Kind kind = Kind::Break;
        std::string signal;
        BitVector value;
    };

    /// Reads the current value of a named signal, or nullopt when the
    /// signal cannot be read this window (it is then skipped).
    using Lookup =
        std::function<std::optional<BitVector>(const std::string&)>;

    static bool valid_op(const std::string& op);

    /// Unsigned comparison with \p rhs resized to \p lhs's width.
    /// \p op must satisfy valid_op().
    static bool compare(const BitVector& lhs, const std::string& op,
                        const BitVector& rhs);

    /// @{ Point management. add_* return the new point's id (ids are a
    /// monotonic counter, never reused, so journal events referencing
    /// them replay deterministically).
    uint64_t add_break(const std::string& signal, const std::string& op,
                       const BitVector& value);
    uint64_t add_watch(const std::string& signal);
    bool remove(uint64_t id);
    void clear();
    /// @}

    /// True iff any point is armed. One relaxed load; safe (and intended)
    /// for per-timestep hot paths.
    bool armed() const {
        return count_.load(std::memory_order_relaxed) != 0;
    }
    size_t size() const;

    /// Snapshot of the point table (for `:debug` listings and /debug).
    std::vector<Point> points() const;

    /// Evaluates every armed point against \p lookup, updating baselines,
    /// and returns the first point that fires (lowest table position), or
    /// nullopt. All points update their state even when an earlier one
    /// fires, so a single window never double-reports a change.
    std::optional<Fire> evaluate(const Lookup& lookup);

    /// Re-establishes every point's baseline from \p lookup without
    /// firing. Called after a hardware trigger fires (the synthesized
    /// comparator already reported the edge) so software evaluation does
    /// not immediately re-fire on the same condition after eviction.
    void prime(const Lookup& lookup);

    /// Records a hit on \p id (hardware-side fires, where evaluation
    /// happened in the fabric). Returns the point, if it still exists.
    std::optional<Point> note_fire(uint64_t id);

    uint64_t total_fires() const {
        return fires_.load(std::memory_order_relaxed);
    }

    /// @{ The point table formatted with the run state the runtime owns:
    /// the REPL's :debug view, and the {"schema":"cascade.debug.v1"}
    /// snapshot of GET /debug. Thread-safe (the table is snapshotted
    /// under the lock).
    std::string table(bool halted, uint64_t tick, bool hw_armed) const;
    std::string json(bool halted, bool hw_armed) const;
    /// @}

  private:
    mutable std::mutex mu_;
    std::vector<Point> points_;
    uint64_t next_id_ = 1;
    std::atomic<size_t> count_{0};
    std::atomic<uint64_t> fires_{0};
};

} // namespace cascade::runtime

#endif // CASCADE_RUNTIME_DEBUGGER_H
