#include "sim/interpreter.h"

#include <algorithm>
#include <chrono>

#include "common/check.h"
#include "verilog/printer.h"

namespace cascade::sim {

using namespace verilog;

namespace {

/// Resizes \p v to \p width, sign-extending when \p is_signed.
BitVector
extend(const BitVector& v, uint32_t width, bool is_signed)
{
    if (v.width() == width) {
        return v;
    }
    return v.resized(width, is_signed);
}

/// Iteration guard for while/repeat/for loops inside processes; a blown
/// guard indicates a runaway loop in user code.
constexpr uint64_t kLoopGuard = 1u << 22;

/// Iteration guard for the combinational fixed point; a blown guard
/// indicates a combinational cycle (oscillation).
constexpr uint64_t kFixedPointGuard = 1u << 16;

} // namespace

// ---------------------------------------------------------------------------
// Evaluator: expression evaluation with IEEE context-width semantics.
// ---------------------------------------------------------------------------

/// Evaluates expressions and performs lvalue writes against a
/// ModuleInterpreter's value store. Function calls push local frames,
/// which the width/signedness analysis consults through LocalScope.
class Evaluator : public LocalScope {
  public:
    explicit Evaluator(ModuleInterpreter* in)
        : in_(in), typer_(*in->em_, this)
    {}

    uint32_t
    local_width(const std::string& name) const override
    {
        const BitVector* local = find_local(name);
        return local != nullptr ? local->width() : 0;
    }

    bool
    local_signed(const std::string& name) const override
    {
        for (auto it = frames_.rbegin(); it != frames_.rend(); ++it) {
            const auto found = it->is_signed.find(name);
            if (found != it->is_signed.end()) {
                return found->second;
            }
        }
        return false;
    }

    /// Self-determined evaluation.
    BitVector
    eval(const Expr& e)
    {
        return eval_ctx(e, typer_.self_width(e));
    }

    /// Context-width evaluation: the result always has width \p W.
    BitVector eval_ctx(const Expr& e, uint32_t W);

    /// Executes "lhs op= rhs" with standard context sizing, writing through
    /// commit so dependents wake. Used for blocking assigns.
    void
    assign(const Expr& lhs, const Expr& rhs)
    {
        const uint32_t lw = lvalue_width(lhs);
        const uint32_t W = std::max(lw, typer_.self_width(rhs));
        BitVector v = eval_ctx(rhs, W).slice(0, lw);
        std::vector<uint64_t> indices;
        capture_indices(lhs, &indices);
        size_t pos = 0;
        apply(lhs, v, indices, &pos);
    }

    /// Evaluates the RHS and captures dynamic lvalue indices for a deferred
    /// (nonblocking) commit.
    BitVector
    eval_rhs_for(const Expr& lhs, const Expr& rhs,
                 std::vector<uint64_t>* indices)
    {
        const uint32_t lw = lvalue_width(lhs);
        const uint32_t W = std::max(lw, typer_.self_width(rhs));
        BitVector v = eval_ctx(rhs, W).slice(0, lw);
        capture_indices(lhs, indices);
        return v;
    }

    /// Replays a captured assignment (nonblocking commit path).
    void
    apply_captured(const Expr& lhs, const BitVector& value,
                   const std::vector<uint64_t>& indices)
    {
        size_t pos = 0;
        apply(lhs, value, indices, &pos);
    }

    uint32_t
    lvalue_width(const Expr& lhs) const
    {
        if (lhs.kind == ExprKind::Concat) {
            const auto& c = static_cast<const ConcatExpr&>(lhs);
            uint32_t sum = 0;
            for (const auto& e : c.elements) {
                sum += lvalue_width(*e);
            }
            return sum;
        }
        if (!frames_.empty() && lhs.kind == ExprKind::Identifier) {
            const auto& id = static_cast<const IdentifierExpr&>(lhs);
            if (id.simple()) {
                const BitVector* local = find_local(id.path[0]);
                if (local != nullptr) {
                    return local->width();
                }
            }
        }
        return typer_.self_width(lhs);
    }

    bool
    is_signed(const Expr& e) const
    {
        return typer_.is_signed(e);
    }

    /// Calls a user function with already-evaluated arguments.
    BitVector call_function(const FunctionDecl& fn,
                            const std::vector<const Expr*>& args);

  private:
    struct Frame {
        const FunctionDecl* fn;
        std::unordered_map<std::string, BitVector> locals;
        std::unordered_map<std::string, bool> is_signed;
    };

    const BitVector*
    find_local(const std::string& name) const
    {
        for (auto it = frames_.rbegin(); it != frames_.rend(); ++it) {
            const auto found = it->locals.find(name);
            if (found != it->locals.end()) {
                return &found->second;
            }
        }
        return nullptr;
    }

    BitVector*
    find_local(const std::string& name)
    {
        for (auto it = frames_.rbegin(); it != frames_.rend(); ++it) {
            const auto found = it->locals.find(name);
            if (found != it->locals.end()) {
                return &found->second;
            }
        }
        return nullptr;
    }

    /// Reads the current value of the expression base for read-modify-write
    /// slice assignment.
    BitVector read_base(const Expr& base);

    /// Declared [msb:lsb] low bound for a named base; zero otherwise.
    uint32_t base_lsb_offset(const Expr& base) const;

    void capture_indices(const Expr& lhs, std::vector<uint64_t>* out);
    void apply(const Expr& lhs, const BitVector& value,
               const std::vector<uint64_t>& indices, size_t* pos);
    void write_named(const IdentifierExpr& id, const BitVector& value);

    void execute_fn_stmt(const Stmt& stmt, uint64_t* guard);

    ModuleInterpreter* in_;
    ExprTyper typer_;
    std::vector<Frame> frames_;

    friend class ModuleInterpreter;
};

BitVector
Evaluator::eval_ctx(const Expr& e, uint32_t W)
{
    switch (e.kind) {
      case ExprKind::Number: {
        const auto& n = static_cast<const NumberExpr&>(e);
        return extend(n.value, W, n.is_signed);
      }
      case ExprKind::String:
        // Strings only appear as $display arguments; evaluating one is a
        // front-end bug caught by elaboration.
        return BitVector(W, 0);
      case ExprKind::Identifier: {
        const auto& id = static_cast<const IdentifierExpr&>(e);
        CASCADE_CHECK(id.simple());
        if (const BitVector* local = find_local(id.path[0])) {
            return extend(*local, W, local_signed(id.path[0]));
        }
        const auto pit = in_->em_->params.find(id.path[0]);
        if (pit != in_->em_->params.end()) {
            const auto sit = in_->em_->param_signed.find(id.path[0]);
            return extend(pit->second, W,
                          sit != in_->em_->param_signed.end() && sit->second);
        }
        const NetInfo* net = in_->em_->find_net(id.path[0]);
        CASCADE_CHECK(net != nullptr);
        return extend(in_->get(in_->em_->net_id(id.path[0])), W,
                      net->is_signed);
      }
      case ExprKind::Unary: {
        const auto& u = static_cast<const UnaryExpr&>(e);
        switch (u.op) {
          case UnaryOp::Plus:
            return eval_ctx(*u.operand, W);
          case UnaryOp::Minus:
            return eval_ctx(*u.operand, W).negated();
          case UnaryOp::BitwiseNot:
            return eval_ctx(*u.operand, W).bit_not();
          case UnaryOp::LogicalNot:
            return extend(BitVector::from_bool(eval(*u.operand).is_zero()),
                          W, false);
          case UnaryOp::ReduceAnd:
            return extend(
                BitVector::from_bool(eval(*u.operand).reduce_and()), W,
                false);
          case UnaryOp::ReduceOr:
            return extend(
                BitVector::from_bool(eval(*u.operand).reduce_or()), W,
                false);
          case UnaryOp::ReduceXor:
            return extend(
                BitVector::from_bool(eval(*u.operand).reduce_xor()), W,
                false);
          case UnaryOp::ReduceNand:
            return extend(
                BitVector::from_bool(!eval(*u.operand).reduce_and()), W,
                false);
          case UnaryOp::ReduceNor:
            return extend(
                BitVector::from_bool(!eval(*u.operand).reduce_or()), W,
                false);
          case UnaryOp::ReduceXnor:
            return extend(
                BitVector::from_bool(!eval(*u.operand).reduce_xor()), W,
                false);
        }
        CASCADE_UNREACHABLE();
      }
      case ExprKind::Binary: {
        const auto& b = static_cast<const BinaryExpr&>(e);
        const bool result_signed =
            typer_.is_signed(*b.lhs) && typer_.is_signed(*b.rhs);
        switch (b.op) {
          case BinaryOp::Add:
            return BitVector::add(eval_ctx(*b.lhs, W), eval_ctx(*b.rhs, W));
          case BinaryOp::Sub:
            return BitVector::sub(eval_ctx(*b.lhs, W), eval_ctx(*b.rhs, W));
          case BinaryOp::Mul:
            return BitVector::mul(eval_ctx(*b.lhs, W), eval_ctx(*b.rhs, W));
          case BinaryOp::Div:
            return result_signed
                       ? BitVector::divs(eval_ctx(*b.lhs, W),
                                         eval_ctx(*b.rhs, W))
                       : BitVector::divu(eval_ctx(*b.lhs, W),
                                         eval_ctx(*b.rhs, W));
          case BinaryOp::Mod:
            return result_signed
                       ? BitVector::rems(eval_ctx(*b.lhs, W),
                                         eval_ctx(*b.rhs, W))
                       : BitVector::remu(eval_ctx(*b.lhs, W),
                                         eval_ctx(*b.rhs, W));
          case BinaryOp::Pow:
            return BitVector::pow(eval_ctx(*b.lhs, W), eval(*b.rhs));
          case BinaryOp::BitAnd:
            return BitVector::bit_and(eval_ctx(*b.lhs, W),
                                      eval_ctx(*b.rhs, W));
          case BinaryOp::BitOr:
            return BitVector::bit_or(eval_ctx(*b.lhs, W),
                                     eval_ctx(*b.rhs, W));
          case BinaryOp::BitXor:
            return BitVector::bit_xor(eval_ctx(*b.lhs, W),
                                      eval_ctx(*b.rhs, W));
          case BinaryOp::BitXnor:
            return BitVector::bit_xor(eval_ctx(*b.lhs, W),
                                      eval_ctx(*b.rhs, W))
                .bit_not();
          case BinaryOp::Eq:
          case BinaryOp::CaseEq:
          case BinaryOp::Neq:
          case BinaryOp::CaseNeq:
          case BinaryOp::Lt:
          case BinaryOp::Leq:
          case BinaryOp::Gt:
          case BinaryOp::Geq: {
            const uint32_t Wc = std::max(typer_.self_width(*b.lhs),
                                         typer_.self_width(*b.rhs));
            const BitVector l = eval_ctx(*b.lhs, Wc);
            const BitVector r = eval_ctx(*b.rhs, Wc);
            bool res = false;
            switch (b.op) {
              case BinaryOp::Eq:
              case BinaryOp::CaseEq:
                res = BitVector::eq(l, r);
                break;
              case BinaryOp::Neq:
              case BinaryOp::CaseNeq:
                res = !BitVector::eq(l, r);
                break;
              case BinaryOp::Lt:
                res = result_signed ? BitVector::slt(l, r)
                                    : BitVector::ult(l, r);
                break;
              case BinaryOp::Leq:
                res = result_signed ? BitVector::sle(l, r)
                                    : BitVector::ule(l, r);
                break;
              case BinaryOp::Gt:
                res = result_signed ? BitVector::slt(r, l)
                                    : BitVector::ult(r, l);
                break;
              case BinaryOp::Geq:
                res = result_signed ? BitVector::sle(r, l)
                                    : BitVector::ule(r, l);
                break;
              default:
                CASCADE_UNREACHABLE();
            }
            return extend(BitVector::from_bool(res), W, false);
          }
          case BinaryOp::LogicalAnd: {
            const bool res =
                eval(*b.lhs).to_bool() && eval(*b.rhs).to_bool();
            return extend(BitVector::from_bool(res), W, false);
          }
          case BinaryOp::LogicalOr: {
            const bool res =
                eval(*b.lhs).to_bool() || eval(*b.rhs).to_bool();
            return extend(BitVector::from_bool(res), W, false);
          }
          case BinaryOp::Shl:
            return eval_ctx(*b.lhs, W).shl(eval(*b.rhs).to_uint64());
          case BinaryOp::Shr:
            return eval_ctx(*b.lhs, W).lshr(eval(*b.rhs).to_uint64());
          case BinaryOp::AShr: {
            if (typer_.is_signed(*b.lhs)) {
                // Arithmetic shift happens at the operand's width, then
                // extends (avoids manufacturing sign bits above W).
                const BitVector l = eval_ctx(*b.lhs, W);
                return l.ashr(eval(*b.rhs).to_uint64());
            }
            return eval_ctx(*b.lhs, W).lshr(eval(*b.rhs).to_uint64());
          }
        }
        CASCADE_UNREACHABLE();
      }
      case ExprKind::Ternary: {
        const auto& t = static_cast<const TernaryExpr&>(e);
        return eval(*t.cond).to_bool() ? eval_ctx(*t.then_expr, W)
                                       : eval_ctx(*t.else_expr, W);
      }
      case ExprKind::Concat: {
        const auto& c = static_cast<const ConcatExpr&>(e);
        BitVector acc(1, 0);
        bool first = true;
        for (const auto& el : c.elements) {
            BitVector v = eval(*el);
            acc = first ? std::move(v) : BitVector::concat(acc, v);
            first = false;
        }
        return extend(acc, W, false);
      }
      case ExprKind::Replicate: {
        const auto& r = static_cast<const ReplicateExpr&>(e);
        Diagnostics scratch;
        auto n = eval_const_expr(*r.count, in_->em_->params, &scratch);
        const uint64_t count = n.has_value() ? n->to_uint64() : 1;
        const BitVector body = eval(*r.body);
        BitVector acc = body;
        for (uint64_t i = 1; i < count; ++i) {
            acc = BitVector::concat(acc, body);
        }
        return extend(acc, W, false);
      }
      case ExprKind::Index: {
        const auto& ix = static_cast<const IndexExpr&>(e);
        const uint64_t idx = eval(*ix.index).to_uint64();
        // Memory element select?
        if (ix.base->kind == ExprKind::Identifier) {
            const auto& id = static_cast<const IdentifierExpr&>(*ix.base);
            if (id.simple()) {
                const NetInfo* net = in_->em_->find_net(id.path[0]);
                if (net != nullptr && net->array_size > 0) {
                    const uint32_t nid = in_->em_->net_id(id.path[0]);
                    const int64_t rel =
                        static_cast<int64_t>(idx) - net->array_base;
                    if (rel < 0 || rel >= net->array_size) {
                        return BitVector(W, 0);
                    }
                    return extend(
                        in_->memories_[nid][static_cast<size_t>(rel)], W,
                        net->is_signed);
                }
            }
        }
        // Bit select.
        const BitVector base = read_base(*ix.base);
        const bool bit = idx < base.width() &&
                         base.bit(static_cast<uint32_t>(idx));
        return extend(BitVector::from_bool(bit), W, false);
      }
      case ExprKind::RangeSelect: {
        const auto& r = static_cast<const RangeSelectExpr&>(e);
        Diagnostics scratch;
        auto msb = eval_const_expr(*r.msb, in_->em_->params, &scratch);
        auto lsb = eval_const_expr(*r.lsb, in_->em_->params, &scratch);
        if (!msb.has_value() || !lsb.has_value()) {
            return BitVector(W, 0);
        }
        const BitVector base = read_base(*r.base);
        const uint32_t declared_lsb = base_lsb_offset(*r.base);
        const uint64_t lo = lsb->to_uint64() - declared_lsb;
        const uint32_t width =
            static_cast<uint32_t>(msb->to_uint64() - lsb->to_uint64() + 1);
        return extend(base.slice(static_cast<uint32_t>(lo), width), W,
                      false);
      }
      case ExprKind::IndexedSelect: {
        const auto& s = static_cast<const IndexedSelectExpr&>(e);
        Diagnostics scratch;
        auto wv = eval_const_expr(*s.width, in_->em_->params, &scratch);
        const uint32_t width =
            wv.has_value()
                ? std::max<uint32_t>(
                      1, static_cast<uint32_t>(wv->to_uint64()))
                : 1;
        const uint64_t offset = eval(*s.offset).to_uint64();
        const BitVector base = read_base(*s.base);
        const uint32_t declared_lsb = base_lsb_offset(*s.base);
        // a[off +: w] covers [off + w - 1 : off]; -: covers [off : off-w+1].
        const uint64_t lo =
            (s.up ? offset : offset - width + 1) - declared_lsb;
        return extend(base.slice(static_cast<uint32_t>(lo), width), W,
                      false);
      }
      case ExprKind::Call: {
        const auto& c = static_cast<const CallExpr&>(e);
        const auto it = in_->em_->functions.find(c.callee);
        CASCADE_CHECK(it != in_->em_->functions.end());
        std::vector<const Expr*> args;
        args.reserve(c.args.size());
        for (const auto& a : c.args) {
            args.push_back(a.get());
        }
        const BitVector r = call_function(*it->second, args);
        return extend(r, W, it->second->ret_signed);
      }
      case ExprKind::SystemCall: {
        const auto& s = static_cast<const SystemCallExpr&>(e);
        if (s.callee == "$time") {
            const uint64_t t = in_->handler_ != nullptr
                                   ? in_->handler_->current_time()
                                   : 0;
            return extend(BitVector(64, t), W, false);
        }
        if (s.callee == "$signed") {
            return extend(eval(*s.args[0]), W, true);
        }
        if (s.callee == "$unsigned") {
            return extend(eval(*s.args[0]), W, false);
        }
        return BitVector(W, 0);
      }
    }
    CASCADE_UNREACHABLE();
}

BitVector
Evaluator::read_base(const Expr& base)
{
    if (base.kind == ExprKind::Identifier) {
        const auto& id = static_cast<const IdentifierExpr&>(base);
        if (id.simple()) {
            if (const BitVector* local = find_local(id.path[0])) {
                return *local;
            }
            const auto pit = in_->em_->params.find(id.path[0]);
            if (pit != in_->em_->params.end()) {
                return pit->second;
            }
            return in_->get(in_->em_->net_id(id.path[0]));
        }
    }
    return eval(base);
}

void
Evaluator::capture_indices(const Expr& lhs, std::vector<uint64_t>* out)
{
    switch (lhs.kind) {
      case ExprKind::Identifier:
        return;
      case ExprKind::Index: {
        const auto& ix = static_cast<const IndexExpr&>(lhs);
        capture_indices(*ix.base, out);
        out->push_back(eval(*ix.index).to_uint64());
        return;
      }
      case ExprKind::IndexedSelect: {
        const auto& s = static_cast<const IndexedSelectExpr&>(lhs);
        capture_indices(*s.base, out);
        out->push_back(eval(*s.offset).to_uint64());
        return;
      }
      case ExprKind::RangeSelect: {
        const auto& r = static_cast<const RangeSelectExpr&>(lhs);
        capture_indices(*r.base, out);
        return;
      }
      case ExprKind::Concat: {
        const auto& c = static_cast<const ConcatExpr&>(lhs);
        for (const auto& e : c.elements) {
            capture_indices(*e, out);
        }
        return;
      }
      default:
        return;
    }
}

void
Evaluator::write_named(const IdentifierExpr& id, const BitVector& value)
{
    CASCADE_CHECK(id.simple());
    if (BitVector* local = find_local(id.path[0])) {
        *local = value.resized(local->width());
        return;
    }
    const uint32_t nid = in_->em_->net_id(id.path[0]);
    in_->commit_net(nid, value.resized(in_->em_->nets[nid].width));
}

void
Evaluator::apply(const Expr& lhs, const BitVector& value,
                 const std::vector<uint64_t>& indices, size_t* pos)
{
    switch (lhs.kind) {
      case ExprKind::Identifier: {
        write_named(static_cast<const IdentifierExpr&>(lhs), value);
        return;
      }
      case ExprKind::Index: {
        const auto& ix = static_cast<const IndexExpr&>(lhs);
        // Memory element write?
        if (ix.base->kind == ExprKind::Identifier) {
            const auto& id = static_cast<const IdentifierExpr&>(*ix.base);
            if (id.simple()) {
                const NetInfo* net = in_->em_->find_net(id.path[0]);
                if (net != nullptr && net->array_size > 0) {
                    const uint64_t idx = indices[(*pos)++];
                    const int64_t rel =
                        static_cast<int64_t>(idx) - net->array_base;
                    if (rel >= 0 && rel < net->array_size) {
                        in_->commit_element(in_->em_->net_id(id.path[0]),
                                            static_cast<uint64_t>(rel),
                                            value.resized(net->width));
                    }
                    return;
                }
                // Bit write to a named net.
                const uint64_t idx = indices[(*pos)++];
                const uint32_t nid = in_->em_->net_id(id.path[0]);
                const uint32_t lsb = in_->em_->nets[nid].lsb;
                BitVector cur = in_->get(nid);
                const uint64_t bit_pos = idx - lsb;
                if (bit_pos < cur.width()) {
                    cur.set_bit(static_cast<uint32_t>(bit_pos),
                                value.bit(0));
                    in_->commit_net(nid, std::move(cur));
                }
                return;
            }
        }
        // Bit write into a function local or a memory element
        // (mem[a][bit]): read-modify-write through the base.
        const uint64_t idx = indices[(*pos)++];
        BitVector cur = read_base(*ix.base);
        if (idx < cur.width()) {
            cur.set_bit(static_cast<uint32_t>(idx), value.bit(0));
            apply(*ix.base, cur, indices, pos);
        }
        return;
      }
      case ExprKind::RangeSelect: {
        const auto& r = static_cast<const RangeSelectExpr&>(lhs);
        Diagnostics scratch;
        auto msb = eval_const_expr(*r.msb, in_->em_->params, &scratch);
        auto lsb = eval_const_expr(*r.lsb, in_->em_->params, &scratch);
        if (!msb.has_value() || !lsb.has_value()) {
            return;
        }
        BitVector cur = read_base(*r.base);
        const uint32_t declared_lsb = base_lsb_offset(*r.base);
        const uint32_t lo =
            static_cast<uint32_t>(lsb->to_uint64()) - declared_lsb;
        const uint32_t width =
            static_cast<uint32_t>(msb->to_uint64() - lsb->to_uint64() + 1);
        cur.set_slice(lo, value.resized(width));
        apply(*r.base, cur, indices, pos);
        return;
      }
      case ExprKind::IndexedSelect: {
        const auto& s = static_cast<const IndexedSelectExpr&>(lhs);
        Diagnostics scratch;
        auto wv = eval_const_expr(*s.width, in_->em_->params, &scratch);
        const uint32_t width =
            wv.has_value()
                ? std::max<uint32_t>(
                      1, static_cast<uint32_t>(wv->to_uint64()))
                : 1;
        const uint64_t offset = indices[(*pos)++];
        BitVector cur = read_base(*s.base);
        const uint32_t declared_lsb = base_lsb_offset(*s.base);
        const uint64_t lo =
            (s.up ? offset : offset - width + 1) - declared_lsb;
        cur.set_slice(static_cast<uint32_t>(lo), value.resized(width));
        apply(*s.base, cur, indices, pos);
        return;
      }
      case ExprKind::Concat: {
        // MSB-first: element 0 receives the top bits.
        const auto& c = static_cast<const ConcatExpr&>(lhs);
        uint32_t remaining = value.width();
        for (const auto& e : c.elements) {
            const uint32_t w = lvalue_width(*e);
            const uint32_t lo = remaining >= w ? remaining - w : 0;
            apply(*e, value.slice(lo, w), indices, pos);
            remaining = lo;
        }
        return;
      }
      default:
        return;
    }
}

uint32_t
Evaluator::base_lsb_offset(const Expr& base) const
{
    if (base.kind == ExprKind::Identifier) {
        const auto& id = static_cast<const IdentifierExpr&>(base);
        if (id.simple() && find_local(id.path[0]) == nullptr) {
            if (const NetInfo* net = in_->em_->find_net(id.path[0])) {
                return net->lsb;
            }
        }
    }
    return 0;
}

BitVector
Evaluator::call_function(const FunctionDecl& fn,
                         const std::vector<const Expr*>& args)
{
    Frame frame;
    frame.fn = &fn;

    // Bind inputs in declaration order, then zero locals and the return
    // variable.
    ExprTyper typer(*in_->em_);
    size_t arg_i = 0;
    for (size_t i = 0; i < fn.decls.size(); ++i) {
        const auto& nd = static_cast<const NetDecl&>(*fn.decls[i]);
        Diagnostics scratch;
        uint32_t width = 1;
        if (nd.range.valid()) {
            auto msb = eval_const_expr(*nd.range.msb, in_->em_->params,
                                       &scratch);
            auto lsb = eval_const_expr(*nd.range.lsb, in_->em_->params,
                                       &scratch);
            if (msb.has_value() && lsb.has_value()) {
                width = static_cast<uint32_t>(msb->to_uint64() -
                                              lsb->to_uint64() + 1);
            }
        }
        for (const auto& d : nd.decls) {
            if (fn.decl_is_input[i] && arg_i < args.size()) {
                frame.locals[d.name] =
                    eval_ctx(*args[arg_i++], width);
            } else {
                frame.locals[d.name] = BitVector(width, 0);
            }
            frame.is_signed[d.name] = nd.is_signed;
        }
    }
    uint32_t ret_width = 1;
    {
        Diagnostics scratch;
        if (fn.ret_range.valid()) {
            auto msb = eval_const_expr(*fn.ret_range.msb, in_->em_->params,
                                       &scratch);
            auto lsb = eval_const_expr(*fn.ret_range.lsb, in_->em_->params,
                                       &scratch);
            if (msb.has_value() && lsb.has_value()) {
                ret_width = static_cast<uint32_t>(msb->to_uint64() -
                                                  lsb->to_uint64() + 1);
            }
        }
    }
    frame.locals[fn.name] = BitVector(ret_width, 0);
    frame.is_signed[fn.name] = fn.ret_signed;

    frames_.push_back(std::move(frame));
    uint64_t guard = 0;
    if (fn.body != nullptr) {
        execute_fn_stmt(*fn.body, &guard);
    }
    BitVector result = frames_.back().locals.at(fn.name);
    frames_.pop_back();
    return result;
}

void
Evaluator::execute_fn_stmt(const Stmt& stmt, uint64_t* guard)
{
    if (++(*guard) > kLoopGuard) {
        return;
    }
    switch (stmt.kind) {
      case StmtKind::Block: {
        const auto& b = static_cast<const BlockStmt&>(stmt);
        for (const auto& s : b.stmts) {
            execute_fn_stmt(*s, guard);
        }
        return;
      }
      case StmtKind::BlockingAssign: {
        const auto& a = static_cast<const BlockingAssignStmt&>(stmt);
        assign(*a.lhs, *a.rhs);
        return;
      }
      case StmtKind::If: {
        const auto& s = static_cast<const IfStmt&>(stmt);
        if (eval(*s.cond).to_bool()) {
            execute_fn_stmt(*s.then_stmt, guard);
        } else if (s.else_stmt != nullptr) {
            execute_fn_stmt(*s.else_stmt, guard);
        }
        return;
      }
      case StmtKind::Case: {
        const auto& s = static_cast<const CaseStmt&>(stmt);
        const BitVector subject = eval(*s.subject);
        const Stmt* dflt = nullptr;
        for (const auto& item : s.items) {
            if (item.labels.empty()) {
                dflt = item.stmt.get();
                continue;
            }
            for (const auto& label : item.labels) {
                const uint32_t Wc =
                    std::max(subject.width(), typer_.self_width(*label));
                if (BitVector::eq(extend(subject, Wc, false),
                                  eval_ctx(*label, Wc))) {
                    execute_fn_stmt(*item.stmt, guard);
                    return;
                }
            }
        }
        if (dflt != nullptr) {
            execute_fn_stmt(*dflt, guard);
        }
        return;
      }
      case StmtKind::For: {
        const auto& s = static_cast<const ForStmt&>(stmt);
        execute_fn_stmt(*s.init, guard);
        while (eval(*s.cond).to_bool()) {
            execute_fn_stmt(*s.body, guard);
            execute_fn_stmt(*s.step, guard);
            if (*guard > kLoopGuard) {
                return;
            }
        }
        return;
      }
      case StmtKind::While: {
        const auto& s = static_cast<const WhileStmt&>(stmt);
        while (eval(*s.cond).to_bool()) {
            execute_fn_stmt(*s.body, guard);
            if (*guard > kLoopGuard) {
                return;
            }
        }
        return;
      }
      case StmtKind::Repeat: {
        const auto& s = static_cast<const RepeatStmt&>(stmt);
        const uint64_t n = eval(*s.count).to_uint64();
        for (uint64_t i = 0; i < n; ++i) {
            execute_fn_stmt(*s.body, guard);
            if (*guard > kLoopGuard) {
                return;
            }
        }
        return;
      }
      default:
        return; // system tasks etc. rejected by elaboration
    }
}

// ---------------------------------------------------------------------------
// ModuleInterpreter
// ---------------------------------------------------------------------------

ModuleInterpreter::ModuleInterpreter(
    std::shared_ptr<const ElaboratedModule> em, SystemTaskHandler* handler)
    : em_(std::move(em)), handler_(handler)
{
    CASCADE_CHECK(em_ != nullptr);
    const size_t n = em_->nets.size();
    values_.resize(n);
    memories_.resize(n);
    for (size_t i = 0; i < n; ++i) {
        const NetInfo& net = em_->nets[i];
        values_[i] = BitVector(net.width, 0);
        if (net.array_size > 0) {
            memories_[i].assign(net.array_size, BitVector(net.width, 0));
        }
    }
    build_processes();

    // Apply declaration initializers (reg [7:0] cnt = 1).
    Evaluator ev(this);
    for (size_t i = 0; i < n; ++i) {
        if (em_->nets[i].init != nullptr) {
            const uint32_t W = std::max(
                em_->nets[i].width,
                ExprTyper(*em_).self_width(*em_->nets[i].init));
            values_[i] = ev.eval_ctx(*em_->nets[i].init, W)
                             .slice(0, em_->nets[i].width);
        }
    }

    // Everything combinational is stale at t=0.
    for (size_t p = 0; p < processes_.size(); ++p) {
        const auto kind = processes_[p].kind;
        if (kind == Process::Kind::Comb ||
            kind == Process::Kind::Continuous) {
            comb_pending_[p] = true;
            comb_queue_.push_back(static_cast<uint32_t>(p));
        }
    }
}

void
ModuleInterpreter::build_processes()
{
    for (const auto& item : em_->decl->items) {
        switch (item->kind) {
          case ItemKind::ContinuousAssign: {
            Process p;
            p.kind = Process::Kind::Continuous;
            p.item = item.get();
            p.assign = static_cast<const ContinuousAssign*>(item.get());
            collect_reads(*p.assign->rhs, &p.reads);
            collect_lvalue_index_reads(*p.assign->lhs, &p.reads);
            processes_.push_back(std::move(p));
            break;
          }
          case ItemKind::Always: {
            const auto& ab = static_cast<const AlwaysBlock&>(*item);
            Process p;
            p.item = item.get();
            p.body = ab.body.get();
            bool has_edge = false;
            for (const auto& s : ab.sensitivity) {
                if (s.edge != EdgeKind::Level) {
                    has_edge = true;
                }
            }
            if (has_edge) {
                p.kind = Process::Kind::Seq;
                for (const auto& s : ab.sensitivity) {
                    const auto& id =
                        static_cast<const IdentifierExpr&>(*s.signal);
                    Trigger t;
                    t.net = em_->net_id(id.path[0]);
                    t.edge = s.edge;
                    p.triggers.push_back(t);
                }
            } else {
                p.kind = Process::Kind::Comb;
                if (ab.star) {
                    collect_reads(*ab.body, &p.reads);
                    // @(*) excludes variables the block itself assigns
                    // (loop counters, temporaries): re-triggering on our
                    // own writes would livelock the fixed point.
                    std::vector<uint32_t> defs;
                    collect_defs(*ab.body, &defs);
                    std::sort(defs.begin(), defs.end());
                    p.reads.erase(
                        std::remove_if(p.reads.begin(), p.reads.end(),
                                       [&defs](uint32_t r) {
                                           return std::binary_search(
                                               defs.begin(), defs.end(),
                                               r);
                                       }),
                        p.reads.end());
                } else {
                    for (const auto& s : ab.sensitivity) {
                        collect_reads(*s.signal, &p.reads);
                    }
                }
            }
            processes_.push_back(std::move(p));
            break;
          }
          case ItemKind::Initial: {
            Process p;
            p.kind = Process::Kind::Initial;
            p.item = item.get();
            p.body = static_cast<const InitialBlock&>(*item).body.get();
            processes_.push_back(std::move(p));
            break;
          }
          default:
            break;
        }
    }

    comb_deps_.resize(em_->nets.size());
    seq_deps_.resize(em_->nets.size());
    comb_pending_.assign(processes_.size(), false);
    seq_pending_.assign(processes_.size(), false);
    proc_stats_.assign(processes_.size(), ProcStat{});
    for (size_t p = 0; p < processes_.size(); ++p) {
        std::sort(processes_[p].reads.begin(), processes_[p].reads.end());
        processes_[p].reads.erase(std::unique(processes_[p].reads.begin(),
                                              processes_[p].reads.end()),
                                  processes_[p].reads.end());
        for (uint32_t net : processes_[p].reads) {
            comb_deps_[net].push_back(static_cast<uint32_t>(p));
        }
        for (const Trigger& t : processes_[p].triggers) {
            seq_deps_[t.net].emplace_back(static_cast<uint32_t>(p), t.edge);
        }
    }
}

void
ModuleInterpreter::collect_reads(const Expr& expr,
                                 std::vector<uint32_t>* out) const
{
    switch (expr.kind) {
      case ExprKind::Identifier: {
        const auto& id = static_cast<const IdentifierExpr&>(expr);
        if (id.simple()) {
            const auto it = em_->net_index.find(id.path[0]);
            if (it != em_->net_index.end()) {
                out->push_back(it->second);
            }
        }
        return;
      }
      case ExprKind::Unary:
        collect_reads(*static_cast<const UnaryExpr&>(expr).operand, out);
        return;
      case ExprKind::Binary: {
        const auto& b = static_cast<const BinaryExpr&>(expr);
        collect_reads(*b.lhs, out);
        collect_reads(*b.rhs, out);
        return;
      }
      case ExprKind::Ternary: {
        const auto& t = static_cast<const TernaryExpr&>(expr);
        collect_reads(*t.cond, out);
        collect_reads(*t.then_expr, out);
        collect_reads(*t.else_expr, out);
        return;
      }
      case ExprKind::Concat:
        for (const auto& e :
             static_cast<const ConcatExpr&>(expr).elements) {
            collect_reads(*e, out);
        }
        return;
      case ExprKind::Replicate:
        collect_reads(*static_cast<const ReplicateExpr&>(expr).body, out);
        return;
      case ExprKind::Index: {
        const auto& i = static_cast<const IndexExpr&>(expr);
        collect_reads(*i.base, out);
        collect_reads(*i.index, out);
        return;
      }
      case ExprKind::RangeSelect:
        collect_reads(*static_cast<const RangeSelectExpr&>(expr).base, out);
        return;
      case ExprKind::IndexedSelect: {
        const auto& s = static_cast<const IndexedSelectExpr&>(expr);
        collect_reads(*s.base, out);
        collect_reads(*s.offset, out);
        return;
      }
      case ExprKind::Call: {
        const auto& c = static_cast<const CallExpr&>(expr);
        for (const auto& a : c.args) {
            collect_reads(*a, out);
        }
        // Function bodies may read module nets directly.
        const auto it = em_->functions.find(c.callee);
        if (it != em_->functions.end() && it->second->body != nullptr) {
            collect_reads(*it->second->body, out);
        }
        return;
      }
      case ExprKind::SystemCall:
        for (const auto& a :
             static_cast<const SystemCallExpr&>(expr).args) {
            collect_reads(*a, out);
        }
        return;
      default:
        return;
    }
}

void
ModuleInterpreter::collect_reads(const Stmt& stmt,
                                 std::vector<uint32_t>* out) const
{
    switch (stmt.kind) {
      case StmtKind::Block:
        for (const auto& s : static_cast<const BlockStmt&>(stmt).stmts) {
            collect_reads(*s, out);
        }
        return;
      case StmtKind::BlockingAssign: {
        const auto& a = static_cast<const BlockingAssignStmt&>(stmt);
        collect_reads(*a.rhs, out);
        collect_lvalue_index_reads(*a.lhs, out);
        return;
      }
      case StmtKind::NonblockingAssign: {
        const auto& a = static_cast<const NonblockingAssignStmt&>(stmt);
        collect_reads(*a.rhs, out);
        collect_lvalue_index_reads(*a.lhs, out);
        return;
      }
      case StmtKind::If: {
        const auto& s = static_cast<const IfStmt&>(stmt);
        collect_reads(*s.cond, out);
        collect_reads(*s.then_stmt, out);
        if (s.else_stmt != nullptr) {
            collect_reads(*s.else_stmt, out);
        }
        return;
      }
      case StmtKind::Case: {
        const auto& s = static_cast<const CaseStmt&>(stmt);
        collect_reads(*s.subject, out);
        for (const auto& item : s.items) {
            for (const auto& label : item.labels) {
                collect_reads(*label, out);
            }
            collect_reads(*item.stmt, out);
        }
        return;
      }
      case StmtKind::For: {
        const auto& s = static_cast<const ForStmt&>(stmt);
        collect_reads(*s.init, out);
        collect_reads(*s.cond, out);
        collect_reads(*s.step, out);
        collect_reads(*s.body, out);
        return;
      }
      case StmtKind::While: {
        const auto& s = static_cast<const WhileStmt&>(stmt);
        collect_reads(*s.cond, out);
        collect_reads(*s.body, out);
        return;
      }
      case StmtKind::Repeat: {
        const auto& s = static_cast<const RepeatStmt&>(stmt);
        collect_reads(*s.count, out);
        collect_reads(*s.body, out);
        return;
      }
      case StmtKind::SystemTask:
        for (const auto& a :
             static_cast<const SystemTaskStmt&>(stmt).args) {
            if (a->kind != ExprKind::String) {
                collect_reads(*a, out);
            }
        }
        return;
      default:
        return;
    }
}

void
ModuleInterpreter::collect_defs(const Stmt& stmt,
                                std::vector<uint32_t>* out) const
{
    auto record_lhs = [this, out](const Expr* e) {
        while (e != nullptr) {
            switch (e->kind) {
              case ExprKind::Identifier: {
                const auto& id = static_cast<const IdentifierExpr&>(*e);
                if (id.simple()) {
                    const auto it = em_->net_index.find(id.path[0]);
                    if (it != em_->net_index.end()) {
                        out->push_back(it->second);
                    }
                }
                return;
              }
              case ExprKind::Index:
                e = static_cast<const IndexExpr&>(*e).base.get();
                break;
              case ExprKind::RangeSelect:
                e = static_cast<const RangeSelectExpr&>(*e).base.get();
                break;
              case ExprKind::IndexedSelect:
                e = static_cast<const IndexedSelectExpr&>(*e).base.get();
                break;
              default:
                return;
            }
        }
    };
    switch (stmt.kind) {
      case StmtKind::Block:
        for (const auto& s : static_cast<const BlockStmt&>(stmt).stmts) {
            collect_defs(*s, out);
        }
        return;
      case StmtKind::BlockingAssign: {
        const auto& a = static_cast<const BlockingAssignStmt&>(stmt);
        if (a.lhs->kind == ExprKind::Concat) {
            for (const auto& e :
                 static_cast<const ConcatExpr&>(*a.lhs).elements) {
                record_lhs(e.get());
            }
        } else {
            record_lhs(a.lhs.get());
        }
        return;
      }
      case StmtKind::NonblockingAssign: {
        const auto& a = static_cast<const NonblockingAssignStmt&>(stmt);
        if (a.lhs->kind == ExprKind::Concat) {
            for (const auto& e :
                 static_cast<const ConcatExpr&>(*a.lhs).elements) {
                record_lhs(e.get());
            }
        } else {
            record_lhs(a.lhs.get());
        }
        return;
      }
      case StmtKind::If: {
        const auto& s = static_cast<const IfStmt&>(stmt);
        collect_defs(*s.then_stmt, out);
        if (s.else_stmt != nullptr) {
            collect_defs(*s.else_stmt, out);
        }
        return;
      }
      case StmtKind::Case:
        for (const auto& item : static_cast<const CaseStmt&>(stmt).items) {
            collect_defs(*item.stmt, out);
        }
        return;
      case StmtKind::For: {
        const auto& s = static_cast<const ForStmt&>(stmt);
        collect_defs(*s.init, out);
        collect_defs(*s.step, out);
        collect_defs(*s.body, out);
        return;
      }
      case StmtKind::While:
        collect_defs(*static_cast<const WhileStmt&>(stmt).body, out);
        return;
      case StmtKind::Repeat:
        collect_defs(*static_cast<const RepeatStmt&>(stmt).body, out);
        return;
      default:
        return;
    }
}

void
ModuleInterpreter::collect_lvalue_index_reads(const Expr& lhs,
                                              std::vector<uint32_t>* out)
    const
{
    switch (lhs.kind) {
      case ExprKind::Index: {
        const auto& i = static_cast<const IndexExpr&>(lhs);
        collect_reads(*i.index, out);
        collect_lvalue_index_reads(*i.base, out);
        return;
      }
      case ExprKind::IndexedSelect: {
        const auto& s = static_cast<const IndexedSelectExpr&>(lhs);
        collect_reads(*s.offset, out);
        collect_lvalue_index_reads(*s.base, out);
        return;
      }
      case ExprKind::RangeSelect:
        collect_lvalue_index_reads(
            *static_cast<const RangeSelectExpr&>(lhs).base, out);
        return;
      case ExprKind::Concat:
        for (const auto& e : static_cast<const ConcatExpr&>(lhs).elements) {
            collect_lvalue_index_reads(*e, out);
        }
        return;
      default:
        return;
    }
}

void
ModuleInterpreter::run_initials(size_t skip_first)
{
    size_t seen = 0;
    for (size_t p = 0; p < processes_.size(); ++p) {
        if (processes_[p].kind == Process::Kind::Initial) {
            if (seen++ >= skip_first) {
                run_process(p);
            }
        }
    }
}

void
ModuleInterpreter::run_initials_masked(const std::vector<bool>& skip)
{
    size_t seen = 0;
    for (size_t p = 0; p < processes_.size(); ++p) {
        if (processes_[p].kind == Process::Kind::Initial) {
            const size_t index = seen++;
            if (index >= skip.size() || !skip[index]) {
                run_process(p);
            }
        }
    }
}

size_t
ModuleInterpreter::initial_count() const
{
    size_t count = 0;
    for (const Process& p : processes_) {
        if (p.kind == Process::Kind::Initial) {
            ++count;
        }
    }
    return count;
}

const BitVector&
ModuleInterpreter::get(const std::string& name) const
{
    return values_[em_->net_id(name)];
}

const BitVector&
ModuleInterpreter::get(uint32_t net_id) const
{
    return values_[net_id];
}

const BitVector*
ModuleInterpreter::find(const std::string& name) const
{
    const auto it = em_->net_index.find(name);
    return it == em_->net_index.end() || em_->nets[it->second].array_size > 0
               ? nullptr
               : &values_[it->second];
}

void
ModuleInterpreter::set_input(const std::string& name, const BitVector& value)
{
    set_input(em_->net_id(name), value);
}

void
ModuleInterpreter::set_input(uint32_t net_id, const BitVector& value)
{
    commit_net(net_id, value.resized(em_->nets[net_id].width));
}

bool
ModuleInterpreter::there_are_evals() const
{
    return !comb_queue_.empty() || !seq_queue_.empty();
}

void
ModuleInterpreter::commit_net(uint32_t id, BitVector value, bool edges)
{
    if (values_[id] == value) {
        return;
    }
    const bool was = values_[id].width() > 0 && values_[id].bit(0);
    const bool now = value.bit(0);
    values_[id] = std::move(value);

    if (em_->nets[id].is_port && em_->nets[id].dir == PortDir::Output) {
        changed_outputs_.insert(id);
    }
    for (uint32_t p : comb_deps_[id]) {
        if (!comb_pending_[p]) {
            comb_pending_[p] = true;
            comb_queue_.push_back(p);
        }
    }
    if (edges && was != now) {
        for (const auto& [p, edge] : seq_deps_[id]) {
            const bool fire = edge == EdgeKind::Pos ? (!was && now)
                                                    : (was && !now);
            if (fire && !seq_pending_[p]) {
                seq_pending_[p] = true;
                seq_queue_.push_back(p);
            }
        }
    }
}

void
ModuleInterpreter::commit_element(uint32_t id, uint64_t index,
                                  BitVector value)
{
    if (memories_[id][index] == value) {
        return;
    }
    memories_[id][index] = std::move(value);
    // Memory reads are tracked at the whole-array granularity.
    for (uint32_t p : comb_deps_[id]) {
        if (!comb_pending_[p]) {
            comb_pending_[p] = true;
            comb_queue_.push_back(p);
        }
    }
}

void
ModuleInterpreter::evaluate()
{
    ++evaluate_calls_;
    uint64_t guard = 0;
    while (!finished_ && (!comb_queue_.empty() || !seq_queue_.empty())) {
        if (++guard > kFixedPointGuard) {
            runtime_diags_.error({}, "combinational loop detected in '" +
                                         em_->name + "'");
            break;
        }
        if (!comb_queue_.empty()) {
            const uint32_t p = comb_queue_.back();
            comb_queue_.pop_back();
            comb_pending_[p] = false;
            run_process(p);
        } else {
            const uint32_t p = seq_queue_.back();
            seq_queue_.pop_back();
            seq_pending_[p] = false;
            run_process(p);
        }
    }
}

void
ModuleInterpreter::update()
{
    ++update_calls_;
    std::vector<NbUpdate> queue = std::move(nb_queue_);
    nb_queue_.clear();
    Evaluator ev(this);
    for (const NbUpdate& u : queue) {
        ev.apply_captured(*u.lhs, u.value, u.indices);
    }
}

void
ModuleInterpreter::run_process(size_t index)
{
    ++process_executions_;
    ProcStat& stat = proc_stats_[index];
    ++stat.executions;
    const Process& p = processes_[index];
    if (!profiling_) {
        // Fast path: no clock reads (see set_profiling).
        dispatch_process(p);
        return;
    }
    const auto t0 = std::chrono::steady_clock::now();
    dispatch_process(p);
    const auto t1 = std::chrono::steady_clock::now();
    stat.eval_ns += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
}

void
ModuleInterpreter::dispatch_process(const Process& p)
{
    if (p.kind == Process::Kind::Continuous) {
        Evaluator ev(this);
        ev.assign(*p.assign->lhs, *p.assign->rhs);
        return;
    }
    const bool nonblocking_allowed = p.kind != Process::Kind::Continuous;
    execute_stmt(*p.body, nonblocking_allowed);
}

void
ModuleInterpreter::execute_stmt(const Stmt& stmt, bool nonblocking_allowed)
{
    struct Walker {
        ModuleInterpreter* in;
        Evaluator ev;
        bool nb_allowed;
        uint64_t guard = 0;

        void
        walk(const Stmt& stmt)
        {
            if (in->finished_ || ++guard > kLoopGuard) {
                return;
            }
            switch (stmt.kind) {
              case StmtKind::Block: {
                for (const auto& s :
                     static_cast<const BlockStmt&>(stmt).stmts) {
                    walk(*s);
                }
                return;
              }
              case StmtKind::BlockingAssign: {
                const auto& a =
                    static_cast<const BlockingAssignStmt&>(stmt);
                ev.assign(*a.lhs, *a.rhs);
                return;
              }
              case StmtKind::NonblockingAssign: {
                const auto& a =
                    static_cast<const NonblockingAssignStmt&>(stmt);
                NbUpdate u;
                u.lhs = a.lhs.get();
                u.value = ev.eval_rhs_for(*a.lhs, *a.rhs, &u.indices);
                in->nb_queue_.push_back(std::move(u));
                return;
              }
              case StmtKind::If: {
                const auto& s = static_cast<const IfStmt&>(stmt);
                if (ev.eval(*s.cond).to_bool()) {
                    walk(*s.then_stmt);
                } else if (s.else_stmt != nullptr) {
                    walk(*s.else_stmt);
                }
                return;
              }
              case StmtKind::Case: {
                const auto& s = static_cast<const CaseStmt&>(stmt);
                const BitVector subject = ev.eval(*s.subject);
                const Stmt* dflt = nullptr;
                for (const auto& item : s.items) {
                    if (item.labels.empty()) {
                        dflt = item.stmt.get();
                        continue;
                    }
                    for (const auto& label : item.labels) {
                        const uint32_t W = std::max(subject.width(),
                                                    ev.eval(*label).width());
                        if (BitVector::eq(extend(subject, W, false),
                                          ev.eval_ctx(*label, W))) {
                            walk(*item.stmt);
                            return;
                        }
                    }
                }
                if (dflt != nullptr) {
                    walk(*dflt);
                }
                return;
              }
              case StmtKind::For: {
                const auto& s = static_cast<const ForStmt&>(stmt);
                walk(*s.init);
                while (ev.eval(*s.cond).to_bool() && guard <= kLoopGuard &&
                       !in->finished_) {
                    walk(*s.body);
                    walk(*s.step);
                }
                return;
              }
              case StmtKind::While: {
                const auto& s = static_cast<const WhileStmt&>(stmt);
                while (ev.eval(*s.cond).to_bool() && guard <= kLoopGuard &&
                       !in->finished_) {
                    walk(*s.body);
                }
                return;
              }
              case StmtKind::Repeat: {
                const auto& s = static_cast<const RepeatStmt&>(stmt);
                const uint64_t n = ev.eval(*s.count).to_uint64();
                for (uint64_t i = 0;
                     i < n && guard <= kLoopGuard && !in->finished_; ++i) {
                    walk(*s.body);
                }
                return;
              }
              case StmtKind::SystemTask: {
                const auto& s = static_cast<const SystemTaskStmt&>(stmt);
                if (s.name == "$finish") {
                    in->finished_ = true;
                    if (in->handler_ != nullptr) {
                        in->handler_->on_finish();
                    }
                    return;
                }
                if (in->handler_ == nullptr) {
                    return;
                }
                if (s.name == "$monitor") {
                    // IEEE-1364: executing $monitor registers it; output
                    // happens at end of timestep via flush_monitors(), and
                    // only when an argument changed.
                    in->register_monitor(s);
                    return;
                }
                if (s.name == "$dumpfile") {
                    if (!s.args.empty() &&
                        s.args[0]->kind == ExprKind::String) {
                        in->handler_->on_dumpfile(
                            static_cast<const StringExpr&>(*s.args[0]).text);
                    }
                    return;
                }
                if (s.name == "$dumpvars") {
                    in->handler_->on_dumpvars();
                    return;
                }
                if (s.name == "$dumpoff") {
                    in->handler_->on_dumpoff();
                    return;
                }
                if (s.name == "$dumpon") {
                    in->handler_->on_dumpon();
                    return;
                }
                if (s.name == "$display" || s.name == "$write") {
                    const std::string text = in->format_task_text(s);
                    if (s.name == "$write") {
                        in->handler_->on_write(text);
                    } else {
                        in->handler_->on_display(text);
                    }
                }
                return;
              }
              case StmtKind::Null:
              case StmtKind::Forever:
                return;
            }
        }
    };

    Walker w{this, Evaluator(this), nonblocking_allowed};
    w.walk(stmt);
}

void
ModuleInterpreter::register_monitor(const verilog::SystemTaskStmt& stmt)
{
    if (monitor_registered_.insert(&stmt).second) {
        MonitorReg reg;
        reg.stmt = &stmt;
        reg.key = verilog::print(stmt);
        // Strip trailing statement formatting so the key matches the one
        // the hardware wrapper records for the same site.
        while (!reg.key.empty() &&
               (reg.key.back() == '\n' || reg.key.back() == ' ')) {
            reg.key.pop_back();
        }
        monitors_.push_back(std::move(reg));
    }
    // Sample the arguments at the trigger site, exactly where the hardware
    // wrapper's argument-save registers sample them; flush_monitors emits
    // this candidate at end of timestep.
    for (MonitorReg& reg : monitors_) {
        if (reg.stmt == &stmt) {
            reg.pending = format_task_text(stmt);
            reg.has_pending = true;
            break;
        }
    }
}

std::string
ModuleInterpreter::format_task_text(const verilog::SystemTaskStmt& stmt)
{
    Evaluator ev(this);
    if (!stmt.args.empty() && stmt.args[0]->kind == ExprKind::String) {
        std::vector<DisplayValue> values;
        for (size_t i = 1; i < stmt.args.size(); ++i) {
            DisplayValue dv;
            dv.value = ev.eval(*stmt.args[i]);
            dv.is_signed = ev.is_signed(*stmt.args[i]);
            values.push_back(std::move(dv));
        }
        return format_display(
            static_cast<const StringExpr&>(*stmt.args[0]).text, values);
    }
    std::vector<DisplayValue> values;
    for (const auto& a : stmt.args) {
        DisplayValue dv;
        dv.value = ev.eval(*a);
        dv.is_signed = ev.is_signed(*a);
        values.push_back(std::move(dv));
    }
    return format_values(values);
}

void
ModuleInterpreter::flush_monitors()
{
    if (handler_ == nullptr) {
        return;
    }
    for (const auto& m : monitors_) {
        if (m.has_pending) {
            handler_->on_monitor(m.key, m.pending);
        }
    }
}

std::vector<uint32_t>
ModuleInterpreter::take_changed_outputs()
{
    std::vector<uint32_t> out(changed_outputs_.begin(),
                              changed_outputs_.end());
    std::sort(out.begin(), out.end());
    changed_outputs_.clear();
    return out;
}

StateSnapshot
ModuleInterpreter::get_state() const
{
    StateSnapshot snap;
    for (size_t i = 0; i < em_->nets.size(); ++i) {
        const NetInfo& net = em_->nets[i];
        if (!net.is_reg) {
            continue;
        }
        if (net.array_size > 0) {
            snap.memories[net.name] = memories_[i];
        } else {
            snap.regs[net.name] = values_[i];
        }
    }
    return snap;
}

void
ModuleInterpreter::set_state(const StateSnapshot& snapshot)
{
    for (const auto& [name, value] : snapshot.regs) {
        const auto it = em_->net_index.find(name);
        if (it != em_->net_index.end()) {
            commit_net(it->second,
                       value.resized(em_->nets[it->second].width),
                       /*edges=*/false);
        }
    }
    for (const auto& [name, mem] : snapshot.memories) {
        const auto it = em_->net_index.find(name);
        if (it == em_->net_index.end()) {
            continue;
        }
        for (size_t i = 0; i < mem.size() && i < memories_[it->second].size();
             ++i) {
            commit_element(it->second, i,
                           mem[i].resized(em_->nets[it->second].width));
        }
    }
}

namespace {

const char*
kind_name(char discriminator)
{
    switch (discriminator) {
      case 0: return "continuous";
      case 1: return "comb";
      case 2: return "seq";
      default: return "initial";
    }
}

} // namespace

std::vector<ProcessProfile>
ModuleInterpreter::profile() const
{
    std::vector<ProcessProfile> out;
    out.reserve(processes_.size());
    for (size_t i = 0; i < processes_.size(); ++i) {
        const Process& p = processes_[i];
        ProcessProfile prof;
        prof.key = p.item != nullptr ? print(*p.item, 0) : std::string();
        prof.label = source_label(prof.key);
        switch (p.kind) {
          case Process::Kind::Continuous:
            prof.kind = kind_name(0);
            break;
          case Process::Kind::Comb:
            prof.kind = kind_name(1);
            break;
          case Process::Kind::Seq:
            prof.kind = kind_name(2);
            break;
          case Process::Kind::Initial:
            prof.kind = kind_name(3);
            break;
        }
        for (const Trigger& t : p.triggers) {
            const std::string& net = em_->nets[t.net].name;
            prof.triggers.push_back(
                (t.edge == EdgeKind::Neg ? "negedge " : "posedge ") + net);
        }
        prof.executions = proc_stats_[i].executions;
        prof.eval_ns = proc_stats_[i].eval_ns;
        out.push_back(std::move(prof));
    }
    return out;
}

} // namespace cascade::sim
