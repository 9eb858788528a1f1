#include "fpga/place.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <random>
#include <unordered_map>

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

/// std::uniform_real_distribution<double>(0, 1) over a 64-bit engine:
/// libstdc++'s generate_canonical rounds one draw to a double, divides it
/// by 2^64 (in long double bookkeeping that costs more than the draw) and
/// clamps a result of 1.0 to the largest double below it. Same bits,
/// without the bookkeeping. The draw converts as two exact 32-bit halves
/// and one correctly rounded addition, which is the rounding the direct
/// conversion does, minus the branch on the top bit that it compiles to.
double
unit_draw(Mt19937_64& rng)
{
    const uint64_t x = rng();
    const double u =
        static_cast<double>(static_cast<int64_t>(x >> 32)) * 0x1p-32 +
        static_cast<double>(static_cast<int64_t>(x & 0xffffffffu)) * 0x1p-64;
    return u < 1.0 ? u : std::nextafter(1.0, 0.0);
}

struct Pos {
    int32_t x, y;
};

/// Per-cell neighbour lists: the far endpoint of every incident edge,
/// once per endpoint, as the cost sum counts them. Cell c's neighbours
/// are neighbour[first[c] .. first[c + 1]).
struct Neighbours {
    std::vector<uint32_t> first;
    std::vector<int32_t> neighbour;

    explicit Neighbours(const MappedDesign& design)
        : first(design.cells.size() + 1, 0)
    {
        const size_t n = design.cells.size();
        for (const CellEdge& e : design.edges) {
            ++first[e.a + 1];
            ++first[e.b + 1];
        }
        for (size_t i = 0; i < n; ++i) {
            first[i + 1] += first[i];
        }
        neighbour.resize(first[n]);
        std::vector<uint32_t> fill(first.begin(), first.end() - 1);
        for (const CellEdge& e : design.edges) {
            neighbour[fill[e.a]++] = static_cast<int32_t>(e.b);
            neighbour[fill[e.b]++] = static_cast<int32_t>(e.a);
        }
    }
};

/// The free slot nearest (\p tx, \p ty) by Manhattan distance; ties go to
/// the first found, scanning each distance ring by row. The grid always
/// has a free slot: it holds at least twice the cells.
int32_t
nearest_free(const std::vector<int32_t>& cell_at_slot, int32_t g, int32_t tx,
             int32_t ty)
{
    for (int32_t r = 0; r <= 2 * g; ++r) {
        for (int32_t dy = -r; dy <= r; ++dy) {
            const int32_t y = ty + dy;
            if (y < 0 || y >= g) {
                continue;
            }
            const int32_t dx = r - std::abs(dy);
            for (const int32_t x : {tx - dx, tx + dx}) {
                if (x >= 0 && x < g && cell_at_slot[y * g + x] < 0) {
                    return y * g + x;
                }
            }
        }
    }
    CASCADE_UNREACHABLE();
}

/// Seeds a placement from \p prior. Kept cells take their prior sites;
/// then each other cell, in index order, takes the free slot nearest the
/// centroid of its neighbours placed so far (the grid's centre if none
/// is). Fills \p movable with the cells the anneal moves, the new cells
/// and their neighbours, in index order. Returns the kept count, or 0
/// with nothing placed when fewer than half the cells keep their site.
uint32_t
seed_from_prior(const CellSites& prior, const std::vector<uint64_t>& cell_ids,
                const Neighbours& nbrs, int32_t g, std::vector<Pos>* pos,
                std::vector<int32_t>* cell_at_slot,
                std::vector<uint32_t>* movable)
{
    const size_t n = cell_ids.size();
    std::unordered_map<uint64_t, size_t> prior_index;
    prior_index.reserve(prior.ids.size());
    for (size_t i = 0; i < prior.ids.size(); ++i) {
        prior_index.emplace(prior.ids[i], i);
    }
    std::vector<char> placed(n, 0);
    uint32_t kept = 0;
    for (size_t c = 0; c < n; ++c) {
        const auto it = prior_index.find(cell_ids[c]);
        if (it == prior_index.end()) {
            continue;
        }
        const auto [x, y] = prior.sites[it->second];
        if (x >= static_cast<uint32_t>(g) || y >= static_cast<uint32_t>(g)) {
            continue;
        }
        int32_t& at = (*cell_at_slot)[y * g + x];
        if (at >= 0) {
            continue;
        }
        at = static_cast<int32_t>(c);
        (*pos)[c] = {static_cast<int32_t>(x), static_cast<int32_t>(y)};
        placed[c] = 1;
        ++kept;
    }
    if (2 * static_cast<size_t>(kept) < n) {
        std::fill(cell_at_slot->begin(), cell_at_slot->end(), -1);
        return 0;
    }
    std::vector<char> moves(n, 0);
    for (size_t c = 0; c < n; ++c) {
        if (placed[c] != 0) {
            continue;
        }
        int64_t sx = 0;
        int64_t sy = 0;
        int64_t count = 0;
        for (uint32_t k = nbrs.first[c]; k < nbrs.first[c + 1]; ++k) {
            const size_t nb = static_cast<size_t>(nbrs.neighbour[k]);
            moves[nb] = 1;
            if (placed[nb] != 0) {
                sx += (*pos)[nb].x;
                sy += (*pos)[nb].y;
                ++count;
            }
        }
        const int32_t tx = count == 0 ? g / 2
                                      : static_cast<int32_t>(
                                            (2 * sx + count) / (2 * count));
        const int32_t ty = count == 0 ? g / 2
                                      : static_cast<int32_t>(
                                            (2 * sy + count) / (2 * count));
        const int32_t slot = nearest_free(*cell_at_slot, g, tx, ty);
        (*cell_at_slot)[static_cast<size_t>(slot)] = static_cast<int32_t>(c);
        (*pos)[c] = {slot % g, slot / g};
        placed[c] = 1;
        moves[c] = 1;
    }
    for (size_t c = 0; c < n; ++c) {
        if (moves[c] != 0) {
            movable->push_back(static_cast<uint32_t>(c));
        }
    }
    return kept;
}

} // namespace

Mt19937_64::Mt19937_64(uint64_t seed)
{
    state_[0] = seed;
    for (size_t i = 1; i < kN; ++i) {
        const uint64_t prev = state_[i - 1];
        state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
    }
}

void
Mt19937_64::twist()
{
    // Three loops, so that none reads an index that wraps, and a mask in
    // place of the odd-word branch: both keep the loops vectorizable.
    constexpr uint64_t kMatrixA = 0xb5026f5aa96619e9ULL;
    constexpr uint64_t kUpper = ~uint64_t(0) << 31;
    constexpr uint64_t kLower = ~kUpper;
    auto mix = [](uint64_t hi, uint64_t lo, uint64_t far) {
        const uint64_t y = (hi & kUpper) | (lo & kLower);
        return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
    };
    uint64_t* mt = state_.data();
    for (size_t k = 0; k < kN - kM; ++k) {
        mt[k] = mix(mt[k], mt[k + 1], mt[k + kM]);
    }
    for (size_t k = kN - kM; k < kN - 1; ++k) {
        mt[k] = mix(mt[k], mt[k + 1], mt[k + kM - kN]);
    }
    mt[kN - 1] = mix(mt[kN - 1], mt[0], mt[kM - 1]);
    index_ = 0;
}

PlacementResult
place(const MappedDesign& design, const PlaceOptions& options,
      const std::atomic<bool>* cancel, const std::vector<uint64_t>& cell_ids,
      const CellSites* prior)
{
    PlacementResult out;
    const size_t n = design.cells.size();
    out.grid = grid_side(n);
    out.locations.resize(n);
    if (n == 0) {
        return out;
    }

    Mt19937_64 rng(options.seed);
    const uint32_t g = out.grid;

    // Cells keep their coordinates and slots' are looked up, so that no
    // move divides by the side.
    std::vector<Pos> slot_pos(static_cast<size_t>(g) * g);
    for (size_t s = 0; s < slot_pos.size(); ++s) {
        slot_pos[s] = {static_cast<int32_t>(s % g),
                       static_cast<int32_t>(s / g)};
    }
    const Neighbours nbrs(design);
    const std::vector<uint32_t>& first = nbrs.first;
    const std::vector<int32_t>& neighbour = nbrs.neighbour;

    // Initial placement: seeded from the prior, else a row-major scatter
    // in which every cell may move.
    std::vector<Pos> pos(n);
    std::vector<int32_t> cell_at_slot(slot_pos.size(), -1);
    std::vector<uint32_t> movable;
    if (prior != nullptr) {
        CASCADE_CHECK(cell_ids.size() == n);
        out.kept = seed_from_prior(*prior, cell_ids, nbrs,
                                   static_cast<int32_t>(g), &pos,
                                   &cell_at_slot, &movable);
    }
    if (out.kept == 0) {
        movable.resize(n);
        for (size_t i = 0; i < n; ++i) {
            pos[i] = slot_pos[i];
            cell_at_slot[i] = static_cast<int32_t>(i);
            movable[i] = static_cast<uint32_t>(i);
        }
    }
    out.movable = static_cast<uint32_t>(movable.size());
    auto dist = [](Pos a, Pos b) {
        return std::abs(a.x - b.x) + std::abs(a.y - b.y);
    };

    // Wirelengths are integers; int64 sums convert exactly to the double
    // the result reports.
    int64_t cost = 0;
    for (const CellEdge& e : design.edges) {
        cost += dist(pos[e.a], pos[e.b]);
    }
    out.initial_wirelength = static_cast<double>(cost);

    // Annealing schedule: O(k^1.5) moves per temperature step over the k
    // movable cells, geometric cooling. This is the deliberate
    // compile-time sink: at effort 1.0 a mid-sized design (a few hundred
    // cells) anneals for tens of millions of moves, and the count grows
    // superlinearly with size — the property the JIT hides. What one move
    // costs in wall time is this implementation's, and the loop below
    // keeps it small. A seeded placement is already good: heating it
    // would only undo it, so it starts at the schedule's floor.
    const double effort = std::max(0.01, options.effort);
    const size_t k = movable.size();
    const uint64_t moves_per_temp = static_cast<uint64_t>(
        effort * 400.0 * static_cast<double>(k) *
        std::sqrt(static_cast<double>(std::max<size_t>(16, k))));
    constexpr double kFloorTemp = 4.0;
    double temp = out.kept > 0
                      ? kFloorTemp
                      : std::max(kFloorTemp, out.initial_wirelength /
                                                 static_cast<double>(n));
    const double cooling = 0.92;
    const int temp_steps =
        static_cast<int>(20 + 10 * std::log2(1.0 + effort));

    std::uniform_int_distribution<uint32_t> pick_cell(
        0, static_cast<uint32_t>(std::max<size_t>(k, 1) - 1));
    std::uniform_int_distribution<uint32_t> pick_slot(
        0, static_cast<uint32_t>(slot_pos.size() - 1));

    // Sum over c's neighbours of how much farther each lies once c moves
    // from `from` to `to`. Edges to c itself and to the cell it trades
    // places with keep their length.
    auto moved = [&](uint32_t c, int32_t other, Pos from, Pos to) {
        int64_t d = 0;
        for (uint32_t k = first[c]; k < first[c + 1]; ++k) {
            const int32_t nb = neighbour[k];
            if (nb == static_cast<int32_t>(c) || nb == other) {
                continue;
            }
            const Pos p = pos[static_cast<size_t>(nb)];
            d += dist(to, p) - dist(from, p);
        }
        return d;
    };

    // exp(-delta / temp) for the small uphill deltas most rejected moves
    // have, computed per temperature step by the same expression.
    constexpr int64_t kMemoDeltas = 64;
    std::array<double, kMemoDeltas> accept_p{};

    for (int step = 0; step < temp_steps; ++step) {
        for (int64_t d = 1; d < kMemoDeltas; ++d) {
            accept_p[d] = std::exp(-static_cast<double>(d) / temp);
        }
        for (uint64_t m = 0; m < moves_per_temp; ++m) {
            // A temperature step of a large design at full effort is
            // millions of moves, so the cancel check runs every 16k.
            if ((m & 0x3fff) == 0 && cancel != nullptr &&
                cancel->load(std::memory_order_relaxed)) {
                out.cancelled = true;
                return out;
            }
            ++out.moves_evaluated;
            const uint32_t c = movable[pick_cell(rng)];
            const Pos from_pos = pos[c];
            const int32_t from =
                from_pos.y * static_cast<int32_t>(g) + from_pos.x;
            const int32_t to = static_cast<int32_t>(pick_slot(rng));
            if (from == to) {
                continue;
            }
            const int32_t other = cell_at_slot[static_cast<size_t>(to)];
            const Pos to_pos = slot_pos[static_cast<size_t>(to)];
            int64_t delta = moved(c, other, from_pos, to_pos);
            if (other >= 0) {
                delta += moved(static_cast<uint32_t>(other),
                               static_cast<int32_t>(c), to_pos, from_pos);
            }
            if (delta > 0) {
                const double u = unit_draw(rng);
                const double p =
                    delta < kMemoDeltas
                        ? accept_p[delta]
                        : std::exp(-static_cast<double>(delta) / temp);
                if (!(u < p)) {
                    continue;
                }
            }
            pos[c] = to_pos;
            cell_at_slot[static_cast<size_t>(to)] = static_cast<int32_t>(c);
            cell_at_slot[static_cast<size_t>(from)] = other;
            if (other >= 0) {
                pos[static_cast<size_t>(other)] = from_pos;
            }
            cost += delta;
        }
        temp *= cooling;
    }

    out.final_wirelength = static_cast<double>(cost);
    for (size_t i = 0; i < n; ++i) {
        out.locations[i] = {static_cast<uint32_t>(pos[i].x),
                            static_cast<uint32_t>(pos[i].y)};
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
