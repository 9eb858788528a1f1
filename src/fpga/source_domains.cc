#include "fpga/source_domains.h"

#include <algorithm>
#include <bit>
#include <map>
#include <unordered_map>

namespace cascade::fpga {

SourceDomains
source_domains(const Netlist& nl)
{
    SourceDomains d;
    uint32_t next = 0;
    const auto fresh = [&next] {
        return next < 62 ? uint64_t{1} << next++ : kSharedDomain;
    };
    for (size_t i = 0; i < nl.inputs.size(); ++i) {
        d.input.push_back(fresh());
    }
    std::unordered_map<uint32_t, uint64_t> clock_bit;
    for (const RegDef& r : nl.regs) {
        if (r.clock == kNoClock) {
            d.reg.push_back(kExternalDomain);
            continue;
        }
        auto [it, inserted] = clock_bit.emplace(r.clock, 0);
        if (inserted) {
            it->second = fresh();
        }
        d.reg.push_back(it->second);
    }
    for (size_t m = 0; m < nl.mems.size(); ++m) {
        d.mem.push_back(fresh());
    }
    d.node.reserve(nl.nodes.size());
    for (const Node& n : nl.nodes) {
        uint64_t mask = 0;
        switch (n.op) {
          case Op::Const:
            break;
          case Op::Input:
            mask = d.input[n.aux];
            break;
          case Op::RegQ:
            mask = d.reg[n.aux];
            break;
          default:
            for (uint32_t a : n.args) {
                mask |= d.node[a];
            }
            if (n.op == Op::MemRead) {
                mask |= d.mem[n.aux];
            }
            if (mask == 0) {
                mask = kExternalDomain;
            }
            break;
        }
        d.node.push_back(mask);
    }
    return d;
}

std::vector<uint32_t>
settle_order(const Netlist& nl, const SourceDomains& dom)
{
    std::vector<uint32_t> order;
    for (uint32_t i = 0; i < nl.nodes.size(); ++i) {
        if (nl.nodes[i].op != Op::Const && nl.nodes[i].op != Op::Input) {
            order.push_back(i);
        }
    }
    const auto block_key = [&dom](uint32_t i) {
        return std::make_pair(std::popcount(dom.node[i]), dom.node[i]);
    };
    std::stable_sort(order.begin(), order.end(),
                     [&](uint32_t a, uint32_t b) {
                         return block_key(a) < block_key(b);
                     });
    return order;
}

std::vector<ClockDomain>
clock_domains(const Netlist& nl, const SourceDomains& dom)
{
    std::vector<ClockDomain> out;
    std::map<uint32_t, size_t> index;
    for (uint32_t r = 0; r < nl.regs.size(); ++r) {
        const uint32_t clock = nl.regs[r].clock;
        if (clock == kNoClock) {
            continue;
        }
        const auto [it, inserted] = index.emplace(clock, out.size());
        if (inserted) {
            out.push_back({clock, dom.reg[r], {}});
        }
        out[it->second].regs.push_back(r);
    }
    return out;
}

} // namespace cascade::fpga
