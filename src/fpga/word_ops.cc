#include "fpga/word_ops.h"

#include <algorithm>

namespace cascade::fpga {

Layout
compute_layout(const Netlist& nl)
{
    Layout L;
    L.voff.reserve(nl.nodes.size());
    for (const Node& n : nl.nodes) {
        L.voff.push_back(L.vtotal);
        const uint32_t w = words_of(n.width);
        L.vtotal += w;
        L.maxw = std::max(L.maxw, w);
    }
    for (const RegDef& r : nl.regs) {
        L.roff.push_back(L.rtotal);
        const uint32_t w = words_of(r.width);
        L.rwords.push_back(w);
        L.rtotal += w;
        L.maxw = std::max(L.maxw, w);
    }
    for (const MemDef& m : nl.mems) {
        L.moff.push_back(L.mtotal);
        const uint32_t w = words_of(m.width);
        L.ew.push_back(w);
        L.mtotal += w * m.size;
        L.maxw = std::max(L.maxw, w);
    }
    return L;
}

bool
is_scalar(const Netlist& nl, const Node& n)
{
    if (n.width > 64) {
        return false;
    }
    for (uint32_t a : n.args) {
        if (nl.nodes[a].width > 64) {
            return false;
        }
    }
    return true;
}

} // namespace cascade::fpga
