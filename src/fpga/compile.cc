#include "fpga/compile.h"

#include <chrono>
#include <cmath>

#include "common/check.h"
#include "telemetry/trace.h"

namespace cascade::fpga {

namespace {

double
seconds_since(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

/// Flow-phase duration histograms in the process registry (the compile
/// runs on a compile-service worker, which has no Runtime handle).
telemetry::Histogram*
phase_hist(const char* phase)
{
    return telemetry::Registry::global().histogram(
        std::string("fpga.compile.") + phase + "_ns");
}

} // namespace

CompileResult
compile(const verilog::ElaboratedModule& em, const CompileOptions& options,
        const std::atomic<bool>* cancel,
        const std::function<void(std::shared_ptr<const Netlist>)>& on_netlist,
        const CellSites* prior)
{
    CompileResult result;
    result.report.seed = options.seed;
    TELEM_SPAN("fpga.compile");

    static telemetry::Histogram* const synth_ns = phase_hist("synth");
    static telemetry::Histogram* const techmap_ns = phase_hist("techmap");
    static telemetry::Histogram* const place_ns = phase_hist("place");
    static telemetry::Histogram* const timing_ns = phase_hist("timing");

    std::shared_ptr<const Netlist> nl;
    {
        TELEM_SPAN_HIST("synth", synth_ns);
        const auto t = std::chrono::steady_clock::now();
        Diagnostics diags;
        nl = synthesize(em, &diags);
        result.report.synth_seconds = seconds_since(t);
        if (nl == nullptr) {
            result.error = "synthesis failed:\n" + diags.str();
            result.report.total_seconds =
                result.report.phase_sum_seconds();
            return result;
        }
    }
    result.report.netlist_nodes = nl->size();
    if (on_netlist) {
        on_netlist(nl);
    }

    MappedDesign mapped;
    {
        TELEM_SPAN_HIST("techmap", techmap_ns);
        const auto t = std::chrono::steady_clock::now();
        mapped = technology_map(*nl);
        result.report.techmap_seconds = seconds_since(t);
    }
    result.report.area = mapped.area;
    result.report.cells = mapped.cells.size();

    PlacementResult placement;
    auto sites = std::make_shared<CellSites>();
    {
        TELEM_SPAN_HIST("place", place_ns);
        const auto t = std::chrono::steady_clock::now();
        const std::vector<uint64_t> node_ids = node_identities(*nl);
        sites->ids.reserve(mapped.cells.size());
        for (const Cell& cell : mapped.cells) {
            sites->ids.push_back(node_ids[cell.node]);
        }
        PlaceOptions popts;
        popts.effort = options.effort;
        popts.seed = options.seed;
        placement = place(mapped, popts, cancel, sites->ids, prior);
        result.report.place_seconds = seconds_since(t);
    }
    result.report.anneal_moves = placement.moves_evaluated;
    result.report.wirelength = placement.final_wirelength;
    result.report.kept_cells = placement.kept;
    if (placement.cancelled) {
        result.error = "cancelled";
        result.report.total_seconds = result.report.phase_sum_seconds();
        return result;
    }

    {
        TELEM_SPAN_HIST("timing", timing_ns);
        const auto t = std::chrono::steady_clock::now();
        result.report.timing = analyze_timing(*nl, mapped, placement,
                                              options.target_clock_mhz);
        result.report.timing_seconds = seconds_since(t);
    }

    // Render the critical path as named user signals (provenance threads
    // from synthesis through mapping and placement). Consecutive hops
    // inside one named signal's cone collapse to a single entry.
    for (size_t i = 0; i < result.report.timing.critical_path.size();
         ++i) {
        const uint32_t node = result.report.timing.critical_path[i];
        std::string name = nl->name_of(node);
        if (!result.report.critical_path_names.empty() &&
            result.report.critical_path_names.back() == name) {
            result.report.critical_path_arrival_ns.back() =
                result.report.timing.critical_arrival_ns[i];
            continue;
        }
        result.report.critical_path_names.push_back(std::move(name));
        result.report.critical_path_arrival_ns.push_back(
            result.report.timing.critical_arrival_ns[i]);
    }

    result.report.total_seconds = result.report.phase_sum_seconds();
    CASCADE_CHECK(std::abs(result.report.total_seconds -
                           (result.report.synth_seconds +
                            result.report.techmap_seconds +
                            result.report.place_seconds +
                            result.report.timing_seconds)) <= 1e-12);

    sites->sites = std::move(placement.locations);
    result.placement = std::move(sites);
    result.netlist = std::move(nl);
    result.ok = true;
    return result;
}

Verdict
FpgaDevice::admit(const CompileResult& result, uint64_t le_quota,
                  uint64_t bram_quota) const
{
    Verdict v;
    const uint64_t les = result.report.area.les;
    const uint64_t bram = result.report.area.bram_bits;
    if (!result.ok) {
        v.error = result.error;
    } else if (le_quota != 0 && les > le_quota) {
        v.error = "tenant LE quota exceeded: needs " + std::to_string(les) +
                  " LEs, quota " + std::to_string(le_quota);
    } else if (bram_quota != 0 && bram > bram_quota) {
        v.error = "tenant BRAM quota exceeded: needs " +
                  std::to_string(bram) + " bits, quota " +
                  std::to_string(bram_quota);
    } else if (!result.report.area.fits(les_, bram_bits_)) {
        v.error = "design does not fit: needs " + std::to_string(les) +
                  " LEs / " + std::to_string(bram) + " BRAM bits";
        telemetry::Registry::global()
            .counter("fpga.program.rejected_fit")
            ->inc();
    } else {
        v.ok = true;
        v.clock_mhz = result.report.timing.met
                          ? clock_mhz_
                          : result.report.timing.fmax_mhz * 0.9;
    }
    return v;
}

} // namespace cascade::fpga
