#include "fpga/netlist.h"

#include <algorithm>
#include <unordered_map>

#include "common/check.h"

namespace cascade::fpga {

namespace {

/// Folds \p v into the running hash \p h, then scrambles the bits with
/// splitmix64's finalizer.
uint64_t
mix(uint64_t h, uint64_t v)
{
    uint64_t z = h ^ (v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/// FNV-1a: a name's hash, the same on every host and build.
uint64_t
name_hash(const std::string& name)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : name) {
        h = (h ^ static_cast<uint8_t>(c)) * 0x100000001b3ull;
    }
    return h;
}

} // namespace

std::vector<uint64_t>
node_identities(const Netlist& nl)
{
    std::vector<uint64_t> ids(nl.nodes.size());
    std::unordered_map<uint64_t, uint64_t> repeats;
    for (size_t i = 0; i < nl.nodes.size(); ++i) {
        const Node& node = nl.nodes[i];
        uint64_t h = mix(static_cast<uint64_t>(node.op), node.width);
        switch (node.op) {
          case Op::Input:
            h = mix(h, name_hash(nl.inputs[node.aux].name));
            break;
          case Op::RegQ:
            h = mix(h, name_hash(nl.regs[node.aux].name));
            break;
          case Op::MemRead:
            h = mix(h, name_hash(nl.mems[node.aux].name));
            break;
          case Op::Const:
            for (uint32_t w = 0; w < node.cval.num_words(); ++w) {
                h = mix(h, node.cval.word(w));
            }
            break;
          default:
            h = mix(h, node.aux);
            break;
        }
        for (const uint32_t a : node.args) {
            h = mix(h, ids[a]);
        }
        const uint64_t k = repeats[h]++;
        ids[i] = k == 0 ? h : mix(h, k);
    }
    return ids;
}

BitVector
eval_node(const Node& node, const std::vector<BitVector>& argv)
{
    const uint32_t W = node.width;
    switch (node.op) {
      case Op::Const:
        return node.cval;
      case Op::Input:
      case Op::RegQ:
      case Op::MemRead:
        CASCADE_UNREACHABLE(); // sources are handled by the evaluator
      case Op::Not:
        return argv[0].bit_not();
      case Op::And:
        return BitVector::bit_and(argv[0], argv[1]);
      case Op::Or:
        return BitVector::bit_or(argv[0], argv[1]);
      case Op::Xor:
        return BitVector::bit_xor(argv[0], argv[1]);
      case Op::Add:
        return BitVector::add(argv[0], argv[1]);
      case Op::Sub:
        return BitVector::sub(argv[0], argv[1]);
      case Op::Mul:
        return BitVector::mul(argv[0], argv[1]);
      case Op::Divu:
        return BitVector::divu(argv[0], argv[1]);
      case Op::Remu:
        return BitVector::remu(argv[0], argv[1]);
      case Op::Divs:
        return BitVector::divs(argv[0], argv[1]);
      case Op::Rems:
        return BitVector::rems(argv[0], argv[1]);
      case Op::Pow:
        return BitVector::pow(argv[0], argv[1]);
      case Op::Eq:
        return BitVector::from_bool(BitVector::eq(argv[0], argv[1]));
      case Op::Ult:
        return BitVector::from_bool(BitVector::ult(argv[0], argv[1]));
      case Op::Slt:
        return BitVector::from_bool(BitVector::slt(argv[0], argv[1]));
      case Op::Shl:
        return argv[0].shl(argv[1].to_uint64());
      case Op::Lshr:
        return argv[0].lshr(argv[1].to_uint64());
      case Op::Ashr:
        return argv[0].ashr(argv[1].to_uint64());
      case Op::Mux:
        return argv[0].to_bool() ? argv[1] : argv[2];
      case Op::Concat: {
        BitVector acc = argv[0];
        for (size_t i = 1; i < argv.size(); ++i) {
            acc = BitVector::concat(acc, argv[i]);
        }
        return acc;
      }
      case Op::Slice:
        return argv[0].slice(node.aux, W);
      case Op::DynSlice:
        return argv[0]
            .lshr(argv[1].to_uint64())
            .slice(0, W)
            .resized(W);
      case Op::ReduceAnd:
        return BitVector::from_bool(argv[0].reduce_and());
      case Op::ReduceOr:
        return BitVector::from_bool(argv[0].reduce_or());
      case Op::ReduceXor:
        return BitVector::from_bool(argv[0].reduce_xor());
      case Op::ZExt:
        return argv[0].resized(W, false);
      case Op::SExt:
        return argv[0].resized(W, true);
    }
    CASCADE_UNREACHABLE();
}

uint32_t
NetlistBuilder::constant(const BitVector& v)
{
    Node n;
    n.op = Op::Const;
    n.width = v.width();
    n.cval = v;
    return intern(std::move(n));
}

uint32_t
NetlistBuilder::constant(uint32_t width, uint64_t v)
{
    return constant(BitVector(width, v));
}

uint32_t
NetlistBuilder::input(const std::string& name, uint32_t width)
{
    Node n;
    n.op = Op::Input;
    n.width = width;
    n.aux = static_cast<uint32_t>(nl_->inputs.size());
    nl_->nodes.push_back(std::move(n));
    tag_new_nodes();
    const uint32_t id = static_cast<uint32_t>(nl_->nodes.size() - 1);
    nl_->inputs.push_back({name, id, width});
    name_node(id, name);
    return id;
}

uint32_t
NetlistBuilder::reg(const std::string& name, uint32_t width,
                    const BitVector& init)
{
    Node n;
    n.op = Op::RegQ;
    n.width = width;
    n.aux = static_cast<uint32_t>(nl_->regs.size());
    nl_->nodes.push_back(std::move(n));
    tag_new_nodes();
    const uint32_t id = static_cast<uint32_t>(nl_->nodes.size() - 1);
    name_node(id, name);
    RegDef r;
    r.name = name;
    r.width = width;
    r.q = id;
    r.next = id; // hold by default
    r.init = init.resized(width);
    nl_->regs.push_back(std::move(r));
    return id;
}

uint32_t
NetlistBuilder::memory(const std::string& name, uint32_t width,
                       uint32_t size)
{
    nl_->mems.push_back({name, width, size, {}});
    return static_cast<uint32_t>(nl_->mems.size() - 1);
}

uint32_t
NetlistBuilder::mem_read(uint32_t mem_index, uint32_t addr, uint32_t width)
{
    Node n;
    n.op = Op::MemRead;
    n.width = width;
    n.aux = mem_index;
    n.args = {addr};
    // Memory reads are not consed: contents change over time.
    nl_->nodes.push_back(std::move(n));
    tag_new_nodes();
    return static_cast<uint32_t>(nl_->nodes.size() - 1);
}

void
NetlistBuilder::mem_write(uint32_t mem_index, uint32_t addr, uint32_t data,
                          uint32_t enable, uint32_t clock)
{
    nl_->write_ports.push_back({mem_index, addr, data, enable, clock});
}

void
NetlistBuilder::set_reg_next(uint32_t reg_index, uint32_t next,
                             uint32_t clock)
{
    nl_->regs[reg_index].next = next;
    nl_->regs[reg_index].clock = clock;
}

void
NetlistBuilder::output(const std::string& name, uint32_t node)
{
    nl_->outputs.push_back({name, node, nl_->nodes[node].width});
}

uint32_t
NetlistBuilder::make(Op op, uint32_t width, std::vector<uint32_t> args,
                     uint32_t aux)
{
    // Shifts and slices by a constant amount are wiring, not logic:
    // canonicalize them to Slice/Concat so mapping and timing see them as
    // free (a real technology mapper does the same).
    if ((op == Op::Shl || op == Op::Lshr || op == Op::Ashr ||
         op == Op::DynSlice) &&
        args.size() == 2 && is_const(args[1]) && !is_const(args[0])) {
        const uint64_t amount = const_val(args[1]).to_uint64();
        const uint32_t aw = width_of(args[0]);
        switch (op) {
          case Op::DynSlice: {
            if (amount >= aw) {
                return constant(width, 0);
            }
            const uint32_t avail =
                std::min<uint32_t>(width, aw - static_cast<uint32_t>(amount));
            return zext(slice(args[0], static_cast<uint32_t>(amount),
                              avail),
                        width);
          }
          case Op::Lshr: {
            if (amount >= aw) {
                return constant(width, 0);
            }
            return zext(slice(args[0], static_cast<uint32_t>(amount),
                              aw - static_cast<uint32_t>(amount)),
                        width);
          }
          case Op::Shl: {
            if (amount >= width) {
                return constant(width, 0);
            }
            if (amount == 0) {
                return zext(args[0], width);
            }
            const uint32_t keep =
                std::min(aw, width - static_cast<uint32_t>(amount));
            const uint32_t body = slice(args[0], 0, keep);
            const uint32_t zeros =
                constant(static_cast<uint32_t>(amount), 0);
            return zext(make(Op::Concat,
                             keep + static_cast<uint32_t>(amount),
                             {body, zeros}),
                        width);
          }
          case Op::Ashr: {
            if (amount == 0) {
                return sext(args[0], width);
            }
            // Sign-fill from the top bit.
            const uint32_t sign = slice(args[0], aw - 1, 1);
            if (amount >= aw) {
                return sext(sign, width);
            }
            const uint32_t body =
                slice(args[0], static_cast<uint32_t>(amount),
                      aw - static_cast<uint32_t>(amount));
            const uint32_t fill = sext(
                sign, std::max<uint32_t>(
                          1, static_cast<uint32_t>(amount)));
            uint32_t cat = make(Op::Concat, aw, {fill, body});
            return sext(cat, width);
          }
          default:
            break;
        }
    }

    Node n;
    n.op = op;
    n.width = width;
    n.aux = aux;
    n.args = std::move(args);
    const uint32_t folded = try_fold(n);
    if (folded != ~0u) {
        return folded;
    }
    return intern(std::move(n));
}

uint32_t
NetlistBuilder::try_fold(const Node& node)
{
    if (node.op == Op::Const || node.op == Op::Input ||
        node.op == Op::RegQ || node.op == Op::MemRead) {
        return ~0u;
    }
    std::vector<BitVector> argv;
    argv.reserve(node.args.size());
    for (uint32_t a : node.args) {
        if (!is_const(a)) {
            // Identity simplifications on partially-constant nodes.
            if (node.op == Op::Mux && is_const(node.args[0])) {
                return const_val(node.args[0]).to_bool() ? node.args[1]
                                                         : node.args[2];
            }
            if ((node.op == Op::ZExt || node.op == Op::SExt ||
                 node.op == Op::Slice) &&
                node.width == width_of(node.args[0]) && node.aux == 0) {
                return node.args[0];
            }
            return ~0u;
        }
        argv.push_back(const_val(a));
    }
    return constant(eval_node(node, argv));
}

uint32_t
NetlistBuilder::intern(Node node)
{
    uint64_t h = static_cast<uint64_t>(node.op) * 0x9e3779b97f4a7c15ull;
    h ^= node.width + (h << 6);
    h ^= node.aux + (h >> 3);
    for (uint32_t a : node.args) {
        h ^= a + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    }
    if (node.op == Op::Const) {
        h ^= node.cval.hash();
    }
    if (node.op != Op::MemRead) {
        for (uint32_t cand : cse_[h]) {
            const Node& c = nl_->nodes[cand];
            if (c.op == node.op && c.width == node.width &&
                c.aux == node.aux && c.args == node.args &&
                (node.op != Op::Const || c.cval == node.cval)) {
                return cand;
            }
        }
    }
    nl_->nodes.push_back(std::move(node));
    tag_new_nodes();
    const uint32_t id = static_cast<uint32_t>(nl_->nodes.size() - 1);
    cse_[h].push_back(id);
    return id;
}

void
NetlistBuilder::set_source(const std::string& label)
{
    auto it = src_index_.find(label);
    if (it == src_index_.end()) {
        const uint32_t id = static_cast<uint32_t>(nl_->src_labels.size());
        it = src_index_.emplace(label, id).first;
        nl_->src_labels.push_back(label);
    }
    current_src_ = it->second;
}

void
NetlistBuilder::name_node(uint32_t node, const std::string& name)
{
    nl_->node_names.emplace(node, name); // first writer wins
}

void
NetlistBuilder::tag_new_nodes()
{
    while (nl_->node_src.size() < nl_->nodes.size()) {
        nl_->node_src.push_back(current_src_);
    }
}

uint32_t
NetlistBuilder::zext(uint32_t a, uint32_t width)
{
    if (width_of(a) == width) {
        return a;
    }
    if (width_of(a) > width) {
        return slice(a, 0, width);
    }
    return make(Op::ZExt, width, {a});
}

uint32_t
NetlistBuilder::sext(uint32_t a, uint32_t width)
{
    if (width_of(a) == width) {
        return a;
    }
    if (width_of(a) > width) {
        return slice(a, 0, width);
    }
    return make(Op::SExt, width, {a});
}

uint32_t
NetlistBuilder::resize(uint32_t a, uint32_t width, bool sign)
{
    return sign ? sext(a, width) : zext(a, width);
}

uint32_t
NetlistBuilder::slice(uint32_t a, uint32_t lsb, uint32_t width)
{
    if (lsb == 0 && width == width_of(a)) {
        return a;
    }
    return make(Op::Slice, width, {a}, lsb);
}

uint32_t
NetlistBuilder::mux(uint32_t sel, uint32_t a, uint32_t b)
{
    if (a == b) {
        return a;
    }
    return make(Op::Mux, width_of(a), {to_bool(sel), a, b});
}

uint32_t
NetlistBuilder::to_bool(uint32_t a)
{
    if (width_of(a) == 1) {
        return a;
    }
    return make(Op::ReduceOr, 1, {a});
}

uint32_t
NetlistBuilder::set_slice_const(uint32_t base, uint32_t lsb, uint32_t v)
{
    const uint32_t bw = width_of(base);
    const uint32_t vw = width_of(v);
    if (lsb >= bw) {
        return base;
    }
    const uint32_t w = std::min(vw, bw - lsb);
    std::vector<uint32_t> parts;
    if (lsb + w < bw) {
        parts.push_back(slice(base, lsb + w, bw - lsb - w));
    }
    parts.push_back(slice(v, 0, w));
    if (lsb > 0) {
        parts.push_back(slice(base, 0, lsb));
    }
    if (parts.size() == 1) {
        return parts[0];
    }
    return make(Op::Concat, bw, std::move(parts));
}

uint32_t
NetlistBuilder::set_slice_dyn(uint32_t base, uint32_t offset, uint32_t v)
{
    const uint32_t bw = width_of(base);
    const uint32_t vw = width_of(v);
    if (is_const(offset)) {
        return set_slice_const(
            base, static_cast<uint32_t>(const_val(offset).to_uint64()), v);
    }
    // (base & ~(mask << off)) | (zext(v) << off)
    const uint32_t mask =
        constant(BitVector::all_ones(vw).resized(bw));
    const uint32_t off = zext(offset, 32);
    const uint32_t shifted_mask = make(Op::Shl, bw, {mask, off});
    const uint32_t cleared =
        make(Op::And, bw, {base, make(Op::Not, bw, {shifted_mask})});
    const uint32_t shifted_v =
        make(Op::Shl, bw, {zext(v, bw), off});
    return make(Op::Or, bw, {cleared, shifted_v});
}

const std::string&
Netlist::source_of(uint32_t node) const
{
    static const std::string kEmpty;
    if (node >= node_src.size() || node_src[node] >= src_labels.size()) {
        return kEmpty;
    }
    return src_labels[node_src[node]];
}

std::string
Netlist::name_of(uint32_t node) const
{
    const auto it = node_names.find(node);
    if (it != node_names.end()) {
        return it->second;
    }
    const Node& n = nodes[node];
    if (n.op == Op::RegQ && n.aux < regs.size()) {
        return regs[n.aux].name;
    }
    if (n.op == Op::Input && n.aux < inputs.size()) {
        return inputs[n.aux].name;
    }
    if (n.op == Op::MemRead && n.aux < mems.size()) {
        return mems[n.aux].name + "[]";
    }
    if (n.op == Op::Const) {
        return "const";
    }
    const std::string& src = source_of(node);
    if (!src.empty()) {
        return src;
    }
    return "n" + std::to_string(node);
}

} // namespace cascade::fpga
