/// \file
/// The source-level profiler (README §Profiling, REPL :profile). It banks
/// the per-process counters of every engine the runtime retires and
/// merges them with the live engines and the open hardware attribution
/// window. A process is keyed by its module instance and the printed
/// form of its module item, the same key in the interpreter and on the
/// fabric, so profiles splice across a mid-run adoption.

#ifndef CASCADE_RUNTIME_PROFILER_H
#define CASCADE_RUNTIME_PROFILER_H

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ir/subprogram.h"
#include "runtime/engine.h"

namespace cascade::runtime {

/// One user process (always/initial/continuous assign).
struct ProfileEntry {
    std::string instance; ///< last path component ("root", "fifo", ...)
    std::string key;      ///< canonical printed module item
    std::string label;    ///< compressed one-line form of the key
    std::string kind;     ///< "seq" | "comb" | "initial" | "continuous"
    std::vector<std::string> triggers; ///< e.g. "posedge clk_val"
    uint64_t sw_triggers = 0; ///< interpreter process executions
    /// Fabric executions, attributed from device ticks for processes
    /// whose sensitivity list is entirely the adopted clock.
    uint64_t hw_triggers = 0;
    uint64_t eval_ns = 0; ///< interpreter wall time (profiling on)
    uint64_t total_triggers() const { return sw_triggers + hw_triggers; }
};

class Profiler {
  public:
    /// What the profiler reads of the live session when it renders.
    struct Live {
        bool profiling = false; ///< wall-time attribution is on
        const char* location = "";
        uint64_t virtual_ticks = 0;
        /// Posedges since the open hardware attribution window started.
        uint64_t hw_window_ticks = 0;
        /// The live engines, by instance.
        std::vector<std::pair<std::string, const Engine*>> engines;
    };

    explicit Profiler(std::function<Live()> live) : live_(std::move(live))
    {}

    /// Banks a retiring engine's interpreter counters (a compiled engine
    /// has none) and, when its processes move onto a compiled engine
    /// wired to \p clock_net, notes the local port that clock entered
    /// through. Each engine is retired exactly once, before it is
    /// destroyed (counters are not reset, so a live engine must not be).
    void retire(const std::string& instance, const Engine& engine,
                const std::vector<ir::PortBinding>& bindings,
                const std::string& clock_net);
    /// Closes a hardware attribution window: adds \p ticks of fabric
    /// execution to every banked process driven purely by the adopted
    /// clock.
    void close_hw_window(uint64_t ticks)
    {
        attribute_hw_ticks(&acc_, ticks);
    }
    /// The program left hardware: software keeps no clock ports.
    void forget_clock_ports() { clock_ports_.clear(); }

    /// Merged view: banked counters + live engines + the open hardware
    /// window, sorted hottest-first.
    std::vector<ProfileEntry> profile() const;
    /// Machine-readable profile ({"schema":"cascade.profile.v1", ...}).
    std::string profile_json() const;
    /// Human-readable profile (the REPL's :profile view).
    std::string profile_table() const;
    /// Writes the profile as collapsed stacks ("instance;label weight"
    /// lines) for flamegraph.pl / speedscope. Weight is eval_ns when
    /// timing was collected, trigger counts otherwise.
    bool write_flamegraph(const std::string& path,
                          std::string* err = nullptr) const;

  private:
    /// instance -> canonical process key -> the process summed over its
    /// engine incarnations.
    using Accum =
        std::map<std::string, std::map<std::string, ProfileEntry>>;

    /// Adds an engine's interpreter counters into \p acc (no-op for a
    /// compiled engine).
    static void merge(const std::string& instance, const Engine& engine,
                      Accum* acc);
    void attribute_hw_ticks(Accum* acc, uint64_t ticks) const;
    std::vector<ProfileEntry> entries(const Live& live) const;

    std::function<Live()> live_;
    /// Retired engines' banked counters.
    Accum acc_;
    /// Per retired-into-hardware instance: the local port name the
    /// adopted clock entered through (trigger descriptions use local
    /// names).
    std::map<std::string, std::string> clock_ports_;
};

} // namespace cascade::runtime

#endif // CASCADE_RUNTIME_PROFILER_H
