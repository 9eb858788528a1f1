/// \file
/// Placement and static timing analysis. Placement uses simulated
/// annealing over a 2-D logic-element grid minimizing half-perimeter
/// wirelength — this is the genuinely expensive, size-dependent step that
/// makes background compilation slow, exactly the property Cascade's JIT
/// hides (paper §1: "compilation for FPGAs is theoretically hard ...
/// constraint satisfaction"). The schedule fixes how many moves a design
/// costs; what one move costs in wall time is the implementation's, and is
/// kept small (see place.cc).
///
/// An edit keeps most of a design, so a placement can be seeded from the
/// previous one (a prior: cell identity -> site). Cells whose identity
/// survives keep their sites; only the new cells and their one-hop
/// neighbours anneal, on the same schedule sized by their count and
/// started at its floor temperature. A prior that keeps fewer than half
/// the cells is ignored, and the anneal is the full one, bit for bit.

#ifndef CASCADE_FPGA_PLACE_H
#define CASCADE_FPGA_PLACE_H

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "fpga/techmap.h"

namespace cascade::fpga {

/// MT19937-64: the same output sequence as std::mt19937_64 seeded with the
/// same value, with a twist the compiler can vectorize (libstdc++'s does
/// not vectorize at generic x86-64 flags). The annealer draws two or three
/// numbers a move through the std distributions, which see only the
/// outputs, so every draw matches the standard engine's.
class Mt19937_64 {
public:
    using result_type = uint64_t;

    explicit Mt19937_64(uint64_t seed);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type(0); }

    result_type operator()()
    {
        if (index_ == kN) {
            twist();
        }
        uint64_t y = state_[index_++];
        y ^= (y >> 29) & 0x5555555555555555ULL;
        y ^= (y << 17) & 0x71d67fffeda60000ULL;
        y ^= (y << 37) & 0xfff7eee000000000ULL;
        y ^= y >> 43;
        return y;
    }

private:
    static constexpr size_t kN = 312;
    static constexpr size_t kM = 156;

    void twist();

    std::array<uint64_t, kN> state_{};
    size_t index_ = kN;
};

struct PlacementResult {
    /// Per-cell (x, y) grid coordinates.
    std::vector<std::pair<uint32_t, uint32_t>> locations;
    uint32_t grid = 1;            ///< grid side length
    double final_wirelength = 0;  ///< HPWL after annealing
    double initial_wirelength = 0;
    uint64_t moves_evaluated = 0; ///< annealing work performed
    bool cancelled = false;       ///< stopped early; not a placement
    /// Cells placed at their prior site (0 when no prior was used).
    uint32_t kept = 0;
    /// Cells the anneal moved: all of them without a prior, else the
    /// cells new to the prior and their neighbours.
    uint32_t movable = 0;
};

/// Where each cell of a placement sits, by cell identity (the
/// node_identities() entry of the cell's node). The prior an edited
/// design's placement is seeded from.
struct CellSites {
    std::vector<uint64_t> ids;
    std::vector<std::pair<uint32_t, uint32_t>> sites; ///< parallel to ids
};

struct PlaceOptions {
    /// Scales the annealing schedule; 1.0 is the default effort. Higher
    /// effort: better wirelength/timing, longer compiles.
    double effort = 1.0;
    uint64_t seed = 1;
};

/// Anneals \p design. Once \p cancel is set the anneal stops within
/// 16k moves, and the result is marked cancelled. With \p prior, the
/// placement is seeded from it: \p cell_ids holds the identity of each of
/// \p design's cells, and a kept cell takes its prior site if the site
/// is inside the new grid and no other cell holds it. Each other cell
/// takes the free site nearest the centroid of its placed neighbours.
PlacementResult place(const MappedDesign& design,
                      const PlaceOptions& options,
                      const std::atomic<bool>* cancel = nullptr,
                      const std::vector<uint64_t>& cell_ids = {},
                      const CellSites* prior = nullptr);

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
