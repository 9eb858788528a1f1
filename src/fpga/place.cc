#include "fpga/place.h"

#include <algorithm>
#include <cmath>
#include <random>

#include "common/check.h"

namespace cascade::fpga {

namespace {

/// Wire delay per unit of Manhattan distance (ns).
constexpr double kWireDelayPerUnit = 0.035;
/// Register clock-to-Q plus setup margin (ns).
constexpr double kRegOverheadNs = 0.6;

uint32_t
grid_side(size_t cells)
{
    // 50% fill leaves room to move during annealing.
    const double side = std::sqrt(static_cast<double>(cells) * 2.0) + 1.0;
    return std::max<uint32_t>(2, static_cast<uint32_t>(std::ceil(side)));
}

} // namespace

PlacementResult
place(const MappedDesign& design, const PlaceOptions& options,
      const std::atomic<bool>* cancel)
{
    PlacementResult out;
    const size_t n = design.cells.size();
    out.grid = grid_side(n);
    out.locations.resize(n);
    if (n == 0) {
        return out;
    }

    std::mt19937_64 rng(options.seed);
    const uint32_t g = out.grid;

    // Initial placement: row-major scatter.
    std::vector<int32_t> slot_of_cell(n);
    std::vector<int32_t> cell_at_slot(static_cast<size_t>(g) * g, -1);
    for (size_t i = 0; i < n; ++i) {
        slot_of_cell[i] = static_cast<int32_t>(i);
        cell_at_slot[i] = static_cast<int32_t>(i);
    }

    auto xy = [g](int32_t slot) {
        return std::pair<int32_t, int32_t>(slot % g, slot / g);
    };
    auto edge_len = [&](const CellEdge& e) {
        const auto [ax, ay] = xy(slot_of_cell[e.a]);
        const auto [bx, by] = xy(slot_of_cell[e.b]);
        return std::abs(ax - bx) + std::abs(ay - by);
    };

    // Per-cell incident edge lists for incremental cost evaluation.
    std::vector<std::vector<uint32_t>> incident(n);
    for (size_t e = 0; e < design.edges.size(); ++e) {
        incident[design.edges[e].a].push_back(static_cast<uint32_t>(e));
        incident[design.edges[e].b].push_back(static_cast<uint32_t>(e));
    }

    double cost = 0;
    for (const CellEdge& e : design.edges) {
        cost += edge_len(e);
    }
    out.initial_wirelength = cost;

    // Annealing schedule: O(n^1.5) moves per temperature step, geometric
    // cooling. This is the deliberate compile-time sink: at effort 1.0 a
    // mid-sized design (a few hundred cells) takes seconds, and time grows
    // superlinearly with size — the property the JIT hides.
    const double effort = std::max(0.01, options.effort);
    const uint64_t moves_per_temp = static_cast<uint64_t>(
        effort * 400.0 * static_cast<double>(n) *
        std::sqrt(static_cast<double>(std::max<size_t>(16, n))));
    double temp = std::max(4.0, cost / std::max<size_t>(1, n));
    const double cooling = 0.92;
    const int temp_steps =
        static_cast<int>(20 + 10 * std::log2(1.0 + effort));

    std::uniform_int_distribution<uint32_t> pick_cell(
        0, static_cast<uint32_t>(n - 1));
    std::uniform_int_distribution<uint32_t> pick_slot(
        0, static_cast<uint32_t>(g) * g - 1);
    std::uniform_real_distribution<double> unit(0.0, 1.0);

    for (int step = 0; step < temp_steps; ++step) {
        for (uint64_t m = 0; m < moves_per_temp; ++m) {
            // A temperature step of a large design at full effort is
            // millions of moves, so the cancel check runs every 16k.
            if ((m & 0x3fff) == 0 && cancel != nullptr &&
                cancel->load(std::memory_order_relaxed)) {
                out.cancelled = true;
                return out;
            }
            ++out.moves_evaluated;
            const uint32_t c = pick_cell(rng);
            const int32_t from = slot_of_cell[c];
            const int32_t to = static_cast<int32_t>(pick_slot(rng));
            if (from == to) {
                continue;
            }
            const int32_t other = cell_at_slot[static_cast<size_t>(to)];

            double before = 0;
            for (uint32_t e : incident[c]) {
                before += edge_len(design.edges[e]);
            }
            if (other >= 0) {
                for (uint32_t e : incident[static_cast<size_t>(other)]) {
                    before += edge_len(design.edges[e]);
                }
            }
            // Apply tentatively.
            slot_of_cell[c] = to;
            if (other >= 0) {
                slot_of_cell[static_cast<size_t>(other)] = from;
            }
            double after = 0;
            for (uint32_t e : incident[c]) {
                after += edge_len(design.edges[e]);
            }
            if (other >= 0) {
                for (uint32_t e : incident[static_cast<size_t>(other)]) {
                    after += edge_len(design.edges[e]);
                }
            }
            const double delta = after - before;
            if (delta <= 0 || unit(rng) < std::exp(-delta / temp)) {
                // Accept.
                cell_at_slot[static_cast<size_t>(from)] = other;
                cell_at_slot[static_cast<size_t>(to)] =
                    static_cast<int32_t>(c);
                cost += delta;
            } else {
                // Revert.
                slot_of_cell[c] = from;
                if (other >= 0) {
                    slot_of_cell[static_cast<size_t>(other)] = to;
                }
            }
        }
        temp *= cooling;
    }

    out.final_wirelength = cost;
    for (size_t i = 0; i < n; ++i) {
        const auto [x, y] = xy(slot_of_cell[i]);
        out.locations[i] = {static_cast<uint32_t>(x),
                            static_cast<uint32_t>(y)};
    }
    return out;
}

TimingReport
analyze_timing(const Netlist& nl, const MappedDesign& design,
               const PlacementResult& placement, double target_clock_mhz)
{
    // Longest-path DP over the (already topologically ordered) DAG.
    // Sources (inputs, registers, constants) start at zero; each node adds
    // its intrinsic delay plus the wire delay from its farthest argument.
    std::vector<double> arrival(nl.nodes.size(), 0.0);
    auto loc_of_node = [&](uint32_t node) -> std::pair<double, double> {
        const int32_t cell = design.cell_of_node[node];
        if (cell < 0) {
            return {-1.0, -1.0};
        }
        const auto [x, y] = placement.locations[static_cast<size_t>(cell)];
        return {static_cast<double>(x), static_cast<double>(y)};
    };

    // pred[i]: the argument whose (wire-delayed) arrival dominates node
    // i, so the critical path can be walked back from its endpoint and
    // reported as a chain of named signals.
    std::vector<int32_t> pred(nl.nodes.size(), -1);
    double critical = kRegOverheadNs;
    int32_t endpoint = -1;
    for (size_t i = 0; i < nl.nodes.size(); ++i) {
        const Node& node = nl.nodes[i];
        double in_arrival = 0.0;
        const auto [sx, sy] = loc_of_node(static_cast<uint32_t>(i));
        for (uint32_t a : node.args) {
            double t = arrival[a];
            const auto [ax, ay] = loc_of_node(a);
            if (sx >= 0 && ax >= 0) {
                t += kWireDelayPerUnit *
                     (std::abs(sx - ax) + std::abs(sy - ay));
            }
            if (t > in_arrival || pred[i] < 0) {
                in_arrival = std::max(in_arrival, t);
                pred[i] = static_cast<int32_t>(a);
            }
        }
        const bool source = node.op == Op::RegQ || node.op == Op::Input ||
                            node.op == Op::Const;
        arrival[i] =
            source ? 0.0 : in_arrival + design.node_delay_ns[i];
        if (source) {
            pred[i] = -1;
        }
        if (arrival[i] + kRegOverheadNs > critical) {
            critical = arrival[i] + kRegOverheadNs;
            endpoint = static_cast<int32_t>(i);
        }
    }

    TimingReport report;
    report.critical_path_ns = critical;
    report.fmax_mhz = 1000.0 / critical;
    report.met = report.fmax_mhz >= target_clock_mhz;
    for (int32_t n = endpoint; n >= 0; n = pred[n]) {
        report.critical_path.push_back(static_cast<uint32_t>(n));
        report.critical_arrival_ns.push_back(arrival[n]);
    }
    std::reverse(report.critical_path.begin(),
                 report.critical_path.end());
    std::reverse(report.critical_arrival_ns.begin(),
                 report.critical_arrival_ns.end());
    return report;
}

} // namespace cascade::fpga
