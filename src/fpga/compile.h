/// \file
/// The blackbox toolchain driver (our stand-in for Quartus/Vivado):
/// synthesis -> technology mapping -> placement -> timing closure. Compile
/// latency is genuine work that scales with design size; Cascade hides it
/// behind software execution (paper §1, §3).
///
/// A compile may be given a prior: the placement of an earlier result
/// (CompileResult::placement), typically the previous version of the same
/// program. Placement then keeps the sites of the cells whose identity
/// survived the edit and anneals only around the rest (see place.h), so a
/// one-line edit costs a fraction of a full anneal. The prior is a
/// parameter, not an option: it changes which placement a compile finds,
/// not what design it compiles, and the compile service's cache key
/// leaves it out. A cached result is the placement its first compile
/// found, whatever prior a later request brings.

#ifndef CASCADE_FPGA_COMPILE_H
#define CASCADE_FPGA_COMPILE_H

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fpga/bitstream.h"
#include "fpga/place.h"
#include "fpga/synth.h"
#include "fpga/techmap.h"

namespace cascade::fpga {

struct CompileOptions {
    /// Annealing effort multiplier (1.0 default; benches scale it).
    double effort = 1.0;
    double target_clock_mhz = 50.0;
    uint64_t seed = 1;
};

struct CompileReport {
    AreaEstimate area;
    TimingReport timing;
    size_t netlist_nodes = 0;
    size_t cells = 0;
    /// The placement RNG seed this compile actually ran with. Reported so
    /// a compile is reproducible from its logs/journal alone: re-running
    /// with the same seed yields the identical placement, wirelength and
    /// Fmax (replay pins it; `:stats json` surfaces it).
    uint64_t seed = 0;
    /// True when this result was served from the compile service's
    /// content-addressed bitstream cache: no flow ran, so every per-phase
    /// timing (and total_seconds) is zero, while the deterministic fields
    /// (netlist, area, placement, Fmax, seed) are byte-identical to the
    /// cold compile that populated the entry.
    bool cache_hit = false;
    uint64_t anneal_moves = 0;
    double wirelength = 0;
    /// Cells placed at their site in the prior (0 without one, or when the
    /// prior kept fewer than half the cells and a full anneal ran).
    uint64_t kept_cells = 0;
    /// The critical path rendered as source-level signal names (netlist
    /// provenance, consecutive duplicates collapsed), source first.
    /// Parallel to critical_path_arrival_ns. Lets report consumers show
    /// "clk -> cnt -> out" without holding the netlist.
    std::vector<std::string> critical_path_names;
    std::vector<double> critical_path_arrival_ns;
    /// Per-phase flow timing. Invariant (checked in compile()):
    /// total_seconds == synth + techmap + place + timing, so downstream
    /// consumers (telemetry sidecars, Table 3) can attribute every second
    /// of the flow to a phase.
    double synth_seconds = 0;
    double techmap_seconds = 0;
    double place_seconds = 0;
    double timing_seconds = 0;
    double total_seconds = 0;

    double
    phase_sum_seconds() const
    {
        return synth_seconds + techmap_seconds + place_seconds +
               timing_seconds;
    }
};

struct CompileResult {
    bool ok = false;
    std::string error;
    std::shared_ptr<const Netlist> netlist;
    CompileReport report;
    /// Every cell's site by identity: the prior for the next compile of
    /// an edited design. Set when placement finished.
    std::shared_ptr<const CellSites> placement;
};

/// Runs the full flow. Blocking; Cascade's runtime invokes this on a
/// compile-service worker. \p on_netlist, when set, is called once
/// synthesis succeeds, with the netlist the rest of the flow (and the
/// result) shares. Once \p cancel is set, placement stops early and the
/// result is an error. With \p prior, placement is seeded from it.
CompileResult compile(
    const verilog::ElaboratedModule& em, const CompileOptions& options,
    const std::atomic<bool>* cancel = nullptr,
    const std::function<void(std::shared_ptr<const Netlist>)>& on_netlist =
        {},
    const CellSites* prior = nullptr);

/// The device's decision on a finished compile (FpgaDevice::admit).
struct Verdict {
    bool ok = false;
    std::string error;    ///< why it may not load, when !ok
    double clock_mhz = 0; ///< the rate to run it at, when ok
};

/// The reprogrammable device (Cyclone V-class by default): capacity limits
/// plus the fabric clock the runtime models hardware time against.
class FpgaDevice {
  public:
    FpgaDevice(uint64_t les = 110000, uint64_t bram_bits = 11000000,
               double clock_mhz = 50.0)
        : les_(les), bram_bits_(bram_bits), clock_mhz_(clock_mhz)
    {}

    uint64_t les() const { return les_; }
    uint64_t bram_bits() const { return bram_bits_; }
    double clock_mhz() const { return clock_mhz_; }

    /// The one admission rule, for an exclusive device and for a tenant
    /// of a shared one: a compile loads if it succeeded, is within the
    /// tenant's LE and BRAM quotas (0 = unlimited) and fits the device.
    /// It then runs at the device clock, or, when it missed that target,
    /// PLL-clocked at 90% of its achieved Fmax. Loading is the caller's
    /// Bitstream construction: "programming ... requires less than a
    /// millisecond".
    Verdict admit(const CompileResult& result, uint64_t le_quota = 0,
                  uint64_t bram_quota = 0) const;

  private:
    uint64_t les_;
    uint64_t bram_bits_;
    double clock_mhz_;
};

} // namespace cascade::fpga

#endif // CASCADE_FPGA_COMPILE_H
