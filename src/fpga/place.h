/// \file
/// Placement and static timing analysis. Placement uses simulated
/// annealing over a 2-D logic-element grid minimizing half-perimeter
/// wirelength — this is the genuinely expensive, size-dependent step that
/// makes background compilation slow, exactly the property Cascade's JIT
/// hides (paper §1: "compilation for FPGAs is theoretically hard ...
/// constraint satisfaction").

#ifndef CASCADE_FPGA_PLACE_H
#define CASCADE_FPGA_PLACE_H

#include <atomic>
#include <cstdint>
#include <vector>

#include "fpga/techmap.h"

namespace cascade::fpga {

struct PlacementResult {
    /// Per-cell (x, y) grid coordinates.
    std::vector<std::pair<uint32_t, uint32_t>> locations;
    uint32_t grid = 1;            ///< grid side length
    double final_wirelength = 0;  ///< HPWL after annealing
    double initial_wirelength = 0;
    uint64_t moves_evaluated = 0; ///< annealing work performed
    bool cancelled = false;       ///< stopped early; not a placement
};

struct PlaceOptions {
    /// Scales the annealing schedule; 1.0 is the default effort. Higher
    /// effort: better wirelength/timing, longer compiles.
    double effort = 1.0;
    uint64_t seed = 1;
};

/// Anneals \p design. Once \p cancel is set the anneal stops within
/// 16k moves, and the result is marked cancelled.
PlacementResult place(const MappedDesign& design,
                      const PlaceOptions& options,
                      const std::atomic<bool>* cancel = nullptr);

struct TimingReport {
    double critical_path_ns = 1.0;
    double fmax_mhz = 1000.0;
    bool met = true; ///< meets the target clock
    /// The longest path as netlist node ids, source first. Rendered into
    /// user-signal names by the compile driver (Netlist::name_of), so
    /// timing reports read as a chain of source-level signals instead of
    /// anonymous cell ids.
    std::vector<uint32_t> critical_path;
    /// Per-hop arrival times (ns), parallel to critical_path.
    std::vector<double> critical_arrival_ns;
};

/// Static timing: longest register-to-register (or port-to-port)
/// combinational path through mapped delays plus placement-derived wire
/// delays.
TimingReport analyze_timing(const Netlist& nl, const MappedDesign& design,
                            const PlacementResult& placement,
                            double target_clock_mhz);

} // namespace cascade::fpga

#endif // CASCADE_FPGA_PLACE_H
