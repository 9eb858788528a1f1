#include "fpga/source_domains.h"

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

} // namespace cascade::fpga
