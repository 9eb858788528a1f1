/// \file
/// Everything the runtime records about signal values: the explicit
/// probe list, the VCD dump (its freeze, $dumpoff/$dumpon and byte
/// counter), and the debugger's software pre-trigger capture ring with
/// its window dump.
///
/// Every value goes through one read path, read(): a global net's value
/// when it holds one, else Engine::peek on the user subprogram. So a
/// waveform, a `:peek` and a breakpoint condition read the same signal
/// the same way whichever engine the program runs on. The engine's full
/// get_state() is taken once per dump, at the freeze point, only to list
/// the registers `$dumpvars` covers.

#ifndef CASCADE_RUNTIME_CAPTURE_H
#define CASCADE_RUNTIME_CAPTURE_H

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/bitvector.h"
#include "sim/vcd.h"

namespace cascade::runtime {

class HwEngine;
class Runtime;

class Capture {
  public:
    /// Samples a pre-trigger window holds (the fabric twin's ring uses
    /// the same depth).
    static constexpr size_t kRingDepth = 64;

    explicit Capture(Runtime& rt) : rt_(rt) {}

    /// The one signal read: the net \p name's value when it holds one,
    /// else the user engine's peek. nullopt (and *err set) when neither
    /// knows the name.
    std::optional<BitVector> read(const std::string& name,
                                  std::string* err = nullptr) const;
    /// read() for the debugger's conditions: the value this scheduler
    /// iteration's ring sample holds, when it holds \p name, so a window
    /// reads each signal once.
    std::optional<BitVector> sampled(const std::string& name) const;

    /// The one probe-set rule, sorted: the frozen dump's signals once a
    /// dump started (so a ring window byte-matches the dump's tail), else
    /// the explicit probes, joined by the fallback when there are none or
    /// after $dumpvars. The fallback is every signal for the dump header
    /// (\p every_signal) and the armed points' signals otherwise.
    std::vector<std::string> probe_set(bool every_signal) const;

    /// @{ The Runtime API of the same names.
    bool add_probe(const std::string& name, std::string* err);
    bool remove_probe(const std::string& name);
    const std::vector<std::string>& probes() const { return probes_; }
    bool open(const std::string& path, std::string* err);
    void close();
    bool active() const { return capture_; }
    /// @}

    /// @{ $dumpfile/$dumpvars/$dumpoff/$dumpon.
    void on_dumpfile(const std::string& path);
    void on_dumpvars();
    void on_dumpoff();
    void on_dumpon();
    /// @}

    /// End-of-timestep sample: one read of the probe set feeds the dump
    /// and, when \p ring (software-evaluated points are armed), the
    /// pre-trigger ring. Without a dump or a ring it returns at once.
    void sample(bool ring);

    /// Writes the pre-trigger window to \p path: \p hw's capture ring
    /// when given (the fabric twin's probes, in fabric cycles), else the
    /// software ring (virtual-clock timestamps).
    void dump_window(const std::string& path, const HwEngine* hw);

  private:
    /// One window's values, index-aligned with a signal list (nullopt
    /// dumps as x).
    using Values = std::vector<std::optional<BitVector>>;

    /// Freezes the dump's signal set and declares it with the writer.
    void declare();
    /// Appends every driven net and every user register (the one
    /// get_state() of a dump, taken at its freeze point).
    void add_every_signal(std::vector<std::string>* names) const;

    Runtime& rt_;
    std::vector<std::string> probes_; ///< explicit :probe names

    sim::VcdWriter vcd_;
    std::string path_;            ///< from $dumpfile or :vcd
    bool capture_ = false;        ///< $dumpvars executed or :vcd issued
    bool declared_ = false;       ///< signal set frozen (header written)
    bool probe_all_ = false;      ///< $dumpvars: dump everything
    bool pending_off_ = false;    ///< $dumpoff seen mid-step
    bool pending_on_ = false;     ///< $dumpon seen mid-step
    std::vector<std::string> signals_; ///< the frozen set, declared order
    uint64_t bytes_seen_ = 0; ///< last writer byte count mirrored

    std::vector<std::string> ring_names_;
    std::deque<std::pair<uint64_t, Values>> ring_; ///< (time, values)
    uint64_t ring_iteration_ = 0; ///< scheduler iteration of ring_.back()
};

} // namespace cascade::runtime

#endif // CASCADE_RUNTIME_CAPTURE_H
