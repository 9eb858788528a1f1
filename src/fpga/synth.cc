#include "fpga/synth.h"

#include <algorithm>
#include <functional>
#include <map>
#include <queue>
#include <unordered_map>
#include <unordered_set>

#include "common/check.h"
#include "verilog/printer.h"

namespace cascade::fpga {

using namespace verilog;

namespace {

constexpr uint32_t kUndef = ~0u;
constexpr uint64_t kMaxUnroll = 1u << 17;

class Synthesizer : public LocalScope {
  public:
    Synthesizer(const ElaboratedModule& em, Diagnostics* diags)
        : em_(em), diags_(diags), typer_(em, this)
    {}

    uint32_t
    local_width(const std::string& name) const override
    {
        for (auto it = frames_.rbegin(); it != frames_.rend(); ++it) {
            const auto found = it->widths.find(name);
            if (found != it->widths.end()) {
                return found->second;
            }
        }
        return 0;
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

    std::unique_ptr<Netlist>
    run()
    {
        nl_ = std::make_unique<Netlist>();
        b_ = std::make_unique<NetlistBuilder>(nl_.get());
        const size_t n = em_.nets.size();
        env_.assign(n, kUndef);
        reg_index_.assign(n, -1);
        mem_index_.assign(n, -1);

        classify_processes();
        if (!ok_) {
            return nullptr;
        }
        create_sources();
        run_initial_blocks();
        execute_comb();
        execute_seq();
        if (!ok_) {
            return nullptr;
        }
        for (const NetInfo& net : em_.nets) {
            if (net.is_port && net.dir == PortDir::Output) {
                const uint32_t id = em_.net_id(net.name);
                b_->set_source(net.name);
                if (env_[id] == kUndef) {
                    env_[id] = b_->constant(net.width, 0);
                }
                b_->output(net.name, env_[id]);
                b_->name_node(env_[id], net.name);
            }
        }
        return std::move(nl_);
    }

  private:
    // -- classification ----------------------------------------------------

    struct Proc {
        const ModuleItem* item = nullptr;
        bool seq = false;
        std::vector<uint32_t> defs; ///< root nets written
        std::vector<uint32_t> uses; ///< nets read
    };

    void
    error(SourceLoc loc, const std::string& msg) const
    {
        diags_->error(loc, msg);
        ok_ = false;
    }

    void
    classify_processes()
    {
        std::vector<bool> driven(em_.nets.size(), false);
        auto mark_defs = [&](Proc& p) {
            std::sort(p.defs.begin(), p.defs.end());
            p.defs.erase(std::unique(p.defs.begin(), p.defs.end()),
                         p.defs.end());
            for (uint32_t d : p.defs) {
                if (driven[d]) {
                    error(p.item->loc, "net '" + em_.nets[d].name +
                                           "' has multiple drivers");
                }
                driven[d] = true;
            }
        };
        for (const auto& item : em_.decl->items) {
            switch (item->kind) {
              case ItemKind::ContinuousAssign: {
                Proc p;
                p.item = item.get();
                const auto& a = static_cast<const ContinuousAssign&>(*item);
                collect_lvalue_roots(*a.lhs, &p.defs);
                collect_uses(*a.rhs, &p.uses);
                collect_lvalue_index_uses(*a.lhs, &p.uses);
                mark_defs(p);
                comb_.push_back(std::move(p));
                break;
              }
              case ItemKind::Always: {
                const auto& ab = static_cast<const AlwaysBlock&>(*item);
                Proc p;
                p.item = item.get();
                p.seq = false;
                for (const auto& s : ab.sensitivity) {
                    if (s.edge != EdgeKind::Level) {
                        p.seq = true;
                    }
                }
                collect_stmt_defs(*ab.body, &p.defs);
                collect_stmt_uses(*ab.body, &p.uses);
                if (p.seq) {
                    if (ab.sensitivity.size() != 1) {
                        error(ab.loc,
                              "hardware compilation supports exactly one "
                              "edge trigger per always block");
                    }
                    mark_defs(p);
                    seq_.push_back(std::move(p));
                } else {
                    mark_defs(p);
                    comb_.push_back(std::move(p));
                }
                break;
              }
              case ItemKind::Initial:
                initial_.push_back(
                    static_cast<const InitialBlock*>(item.get()));
                break;
              case ItemKind::Instantiation:
                error(item->loc, "cannot synthesize an instantiation; "
                                 "split/inline first");
                break;
              default:
                break;
            }
        }
        // Record which regs hold state (written from a sequential process
        // or never written at all).
        std::vector<bool> comb_written(em_.nets.size(), false);
        for (const Proc& p : comb_) {
            for (uint32_t d : p.defs) {
                comb_written[d] = true;
            }
        }
        for (size_t i = 0; i < em_.nets.size(); ++i) {
            const NetInfo& net = em_.nets[i];
            is_state_.push_back(net.is_reg && !comb_written[i]);
        }
    }

    void
    collect_lvalue_roots(const Expr& lhs, std::vector<uint32_t>* out) const
    {
        switch (lhs.kind) {
          case ExprKind::Identifier: {
            const auto& id = static_cast<const IdentifierExpr&>(lhs);
            if (id.simple()) {
                const auto it = em_.net_index.find(id.path[0]);
                if (it != em_.net_index.end()) {
                    out->push_back(it->second);
                }
            }
            return;
          }
          case ExprKind::Index:
            collect_lvalue_roots(*static_cast<const IndexExpr&>(lhs).base,
                                 out);
            return;
          case ExprKind::RangeSelect:
            collect_lvalue_roots(
                *static_cast<const RangeSelectExpr&>(lhs).base, out);
            return;
          case ExprKind::IndexedSelect:
            collect_lvalue_roots(
                *static_cast<const IndexedSelectExpr&>(lhs).base, out);
            return;
          case ExprKind::Concat:
            for (const auto& e :
                 static_cast<const ConcatExpr&>(lhs).elements) {
                collect_lvalue_roots(*e, out);
            }
            return;
          default:
            return;
        }
    }

    void
    collect_uses(const Expr& e, std::vector<uint32_t>* out) const
    {
        switch (e.kind) {
          case ExprKind::Identifier: {
            const auto& id = static_cast<const IdentifierExpr&>(e);
            if (id.simple()) {
                const auto it = em_.net_index.find(id.path[0]);
                if (it != em_.net_index.end()) {
                    out->push_back(it->second);
                }
            }
            return;
          }
          case ExprKind::Unary:
            collect_uses(*static_cast<const UnaryExpr&>(e).operand, out);
            return;
          case ExprKind::Binary: {
            const auto& b = static_cast<const BinaryExpr&>(e);
            collect_uses(*b.lhs, out);
            collect_uses(*b.rhs, out);
            return;
          }
          case ExprKind::Ternary: {
            const auto& t = static_cast<const TernaryExpr&>(e);
            collect_uses(*t.cond, out);
            collect_uses(*t.then_expr, out);
            collect_uses(*t.else_expr, out);
            return;
          }
          case ExprKind::Concat:
            for (const auto& el :
                 static_cast<const ConcatExpr&>(e).elements) {
                collect_uses(*el, out);
            }
            return;
          case ExprKind::Replicate:
            collect_uses(*static_cast<const ReplicateExpr&>(e).body, out);
            return;
          case ExprKind::Index: {
            const auto& i = static_cast<const IndexExpr&>(e);
            collect_uses(*i.base, out);
            collect_uses(*i.index, out);
            return;
          }
          case ExprKind::RangeSelect:
            collect_uses(*static_cast<const RangeSelectExpr&>(e).base, out);
            return;
          case ExprKind::IndexedSelect: {
            const auto& s = static_cast<const IndexedSelectExpr&>(e);
            collect_uses(*s.base, out);
            collect_uses(*s.offset, out);
            return;
          }
          case ExprKind::Call: {
            const auto& c = static_cast<const CallExpr&>(e);
            for (const auto& a : c.args) {
                collect_uses(*a, out);
            }
            const auto it = em_.functions.find(c.callee);
            if (it != em_.functions.end() && it->second->body != nullptr) {
                collect_stmt_uses(*it->second->body, out);
            }
            return;
          }
          case ExprKind::SystemCall:
            for (const auto& a :
                 static_cast<const SystemCallExpr&>(e).args) {
                collect_uses(*a, out);
            }
            return;
          default:
            return;
        }
    }

    void
    collect_lvalue_index_uses(const Expr& lhs,
                              std::vector<uint32_t>* out) const
    {
        switch (lhs.kind) {
          case ExprKind::Index: {
            const auto& i = static_cast<const IndexExpr&>(lhs);
            collect_uses(*i.index, out);
            collect_lvalue_index_uses(*i.base, out);
            return;
          }
          case ExprKind::IndexedSelect: {
            const auto& s = static_cast<const IndexedSelectExpr&>(lhs);
            collect_uses(*s.offset, out);
            collect_lvalue_index_uses(*s.base, out);
            return;
          }
          case ExprKind::RangeSelect:
            collect_lvalue_index_uses(
                *static_cast<const RangeSelectExpr&>(lhs).base, out);
            return;
          case ExprKind::Concat:
            for (const auto& e :
                 static_cast<const ConcatExpr&>(lhs).elements) {
                collect_lvalue_index_uses(*e, out);
            }
            return;
          default:
            return;
        }
    }

    void
    collect_stmt_defs(const Stmt& stmt, std::vector<uint32_t>* out) const
    {
        switch (stmt.kind) {
          case StmtKind::Block:
            for (const auto& s :
                 static_cast<const BlockStmt&>(stmt).stmts) {
                collect_stmt_defs(*s, out);
            }
            return;
          case StmtKind::BlockingAssign:
            collect_lvalue_roots(
                *static_cast<const BlockingAssignStmt&>(stmt).lhs, out);
            return;
          case StmtKind::NonblockingAssign:
            collect_lvalue_roots(
                *static_cast<const NonblockingAssignStmt&>(stmt).lhs, out);
            return;
          case StmtKind::If: {
            const auto& s = static_cast<const IfStmt&>(stmt);
            collect_stmt_defs(*s.then_stmt, out);
            if (s.else_stmt != nullptr) {
                collect_stmt_defs(*s.else_stmt, out);
            }
            return;
          }
          case StmtKind::Case:
            for (const auto& item :
                 static_cast<const CaseStmt&>(stmt).items) {
                collect_stmt_defs(*item.stmt, out);
            }
            return;
          case StmtKind::For: {
            const auto& s = static_cast<const ForStmt&>(stmt);
            collect_stmt_defs(*s.init, out);
            collect_stmt_defs(*s.step, out);
            collect_stmt_defs(*s.body, out);
            return;
          }
          case StmtKind::While:
            collect_stmt_defs(*static_cast<const WhileStmt&>(stmt).body,
                              out);
            return;
          case StmtKind::Repeat:
            collect_stmt_defs(*static_cast<const RepeatStmt&>(stmt).body,
                              out);
            return;
          default:
            return;
        }
    }

    void
    collect_stmt_uses(const Stmt& stmt, std::vector<uint32_t>* out) const
    {
        switch (stmt.kind) {
          case StmtKind::Block:
            for (const auto& s :
                 static_cast<const BlockStmt&>(stmt).stmts) {
                collect_stmt_uses(*s, out);
            }
            return;
          case StmtKind::BlockingAssign: {
            const auto& a = static_cast<const BlockingAssignStmt&>(stmt);
            collect_uses(*a.rhs, out);
            collect_lvalue_index_uses(*a.lhs, out);
            return;
          }
          case StmtKind::NonblockingAssign: {
            const auto& a =
                static_cast<const NonblockingAssignStmt&>(stmt);
            collect_uses(*a.rhs, out);
            collect_lvalue_index_uses(*a.lhs, out);
            return;
          }
          case StmtKind::If: {
            const auto& s = static_cast<const IfStmt&>(stmt);
            collect_uses(*s.cond, out);
            collect_stmt_uses(*s.then_stmt, out);
            if (s.else_stmt != nullptr) {
                collect_stmt_uses(*s.else_stmt, out);
            }
            return;
          }
          case StmtKind::Case: {
            const auto& s = static_cast<const CaseStmt&>(stmt);
            collect_uses(*s.subject, out);
            for (const auto& item : s.items) {
                for (const auto& l : item.labels) {
                    collect_uses(*l, out);
                }
                collect_stmt_uses(*item.stmt, out);
            }
            return;
          }
          case StmtKind::For: {
            const auto& s = static_cast<const ForStmt&>(stmt);
            collect_stmt_uses(*s.init, out);
            collect_uses(*s.cond, out);
            collect_stmt_uses(*s.step, out);
            collect_stmt_uses(*s.body, out);
            return;
          }
          case StmtKind::While: {
            const auto& s = static_cast<const WhileStmt&>(stmt);
            collect_uses(*s.cond, out);
            collect_stmt_uses(*s.body, out);
            return;
          }
          case StmtKind::Repeat: {
            const auto& s = static_cast<const RepeatStmt&>(stmt);
            collect_uses(*s.count, out);
            collect_stmt_uses(*s.body, out);
            return;
          }
          case StmtKind::SystemTask:
            error(stmt.loc,
                  "system task survived to synthesis (not wrapped)");
            return;
          default:
            return;
        }
    }

    // -- sources -----------------------------------------------------------

    void
    create_sources()
    {
        for (size_t i = 0; i < em_.nets.size(); ++i) {
            const NetInfo& net = em_.nets[i];
            b_->set_source(net.name);
            if (net.array_size > 0) {
                mem_index_[i] = static_cast<int32_t>(
                    b_->memory(net.name, net.width, net.array_size));
                continue;
            }
            if (net.is_port && net.dir == PortDir::Input) {
                env_[i] = b_->input(net.name, net.width);
                continue;
            }
            if (is_state_[i]) {
                BitVector init(net.width, 0);
                if (net.init != nullptr) {
                    Diagnostics scratch;
                    auto v = eval_const_expr(*net.init, em_.params,
                                             &scratch);
                    if (v.has_value()) {
                        init = v->resized(net.width);
                    } else {
                        diags_->warning(net.init->loc,
                                        "non-constant initializer treated "
                                        "as 0 in hardware");
                    }
                }
                reg_index_[i] = static_cast<int32_t>(nl_->regs.size());
                env_[i] = b_->reg(net.name, net.width, init);
            }
        }
    }

    // -- expression construction -------------------------------------------

    /// Local frame for function inlining.
    struct Frame {
        const FunctionDecl* fn = nullptr;
        std::unordered_map<std::string, uint32_t> locals; ///< name -> node
        std::unordered_map<std::string, uint32_t> widths;
        std::unordered_map<std::string, bool> is_signed;
    };

    uint32_t
    lookup(const std::string& name)
    {
        for (auto it = frames_.rbegin(); it != frames_.rend(); ++it) {
            const auto found = it->locals.find(name);
            if (found != it->locals.end()) {
                return found->second;
            }
        }
        const auto pit = em_.params.find(name);
        if (pit != em_.params.end()) {
            return b_->constant(pit->second);
        }
        const auto nit = em_.net_index.find(name);
        if (nit != em_.net_index.end()) {
            if (env_[nit->second] == kUndef) {
                // Read of a never-driven net: constant zero.
                env_[nit->second] =
                    b_->constant(em_.nets[nit->second].width, 0);
            }
            return env_[nit->second];
        }
        ok_ = false;
        return b_->constant(1, 0);
    }

    bool
    expr_signed(const Expr& e) const
    {
        return typer_.is_signed(e);
    }

    uint32_t
    build_self(const Expr& e)
    {
        return build_ctx(e, std::max(1u, typer_.self_width(e)));
    }

    uint32_t
    build_ctx(const Expr& e, uint32_t W)
    {
        switch (e.kind) {
          case ExprKind::Number: {
            const auto& n = static_cast<const NumberExpr&>(e);
            return b_->constant(n.value.resized(W, n.is_signed));
          }
          case ExprKind::Identifier: {
            const auto& id = static_cast<const IdentifierExpr&>(e);
            CASCADE_CHECK(id.simple());
            const uint32_t v = lookup(id.path[0]);
            // Locals first: a function input may shadow a module net.
            return b_->resize(v, W, typer_.is_signed(e));
          }
          case ExprKind::Unary: {
            const auto& u = static_cast<const UnaryExpr&>(e);
            switch (u.op) {
              case UnaryOp::Plus:
                return build_ctx(*u.operand, W);
              case UnaryOp::Minus: {
                const uint32_t v = build_ctx(*u.operand, W);
                return b_->make(Op::Sub, W,
                                {b_->constant(W, 0), v});
              }
              case UnaryOp::BitwiseNot:
                return b_->make(Op::Not, W, {build_ctx(*u.operand, W)});
              case UnaryOp::LogicalNot:
                return b_->zext(
                    b_->make(Op::Not, 1,
                             {b_->to_bool(build_self(*u.operand))}),
                    W);
              case UnaryOp::ReduceAnd:
                return b_->zext(
                    b_->make(Op::ReduceAnd, 1, {build_self(*u.operand)}),
                    W);
              case UnaryOp::ReduceOr:
                return b_->zext(b_->to_bool(build_self(*u.operand)), W);
              case UnaryOp::ReduceXor:
                return b_->zext(
                    b_->make(Op::ReduceXor, 1, {build_self(*u.operand)}),
                    W);
              case UnaryOp::ReduceNand:
                return b_->zext(
                    b_->make(Op::Not, 1,
                             {b_->make(Op::ReduceAnd, 1,
                                       {build_self(*u.operand)})}),
                    W);
              case UnaryOp::ReduceNor:
                return b_->zext(
                    b_->make(Op::Not, 1,
                             {b_->to_bool(build_self(*u.operand))}),
                    W);
              case UnaryOp::ReduceXnor:
                return b_->zext(
                    b_->make(Op::Not, 1,
                             {b_->make(Op::ReduceXor, 1,
                                       {build_self(*u.operand)})}),
                    W);
            }
            CASCADE_UNREACHABLE();
          }
          case ExprKind::Binary:
            return build_binary(static_cast<const BinaryExpr&>(e), W);
          case ExprKind::Ternary: {
            const auto& t = static_cast<const TernaryExpr&>(e);
            return b_->mux(b_->to_bool(build_self(*t.cond)),
                           build_ctx(*t.then_expr, W),
                           build_ctx(*t.else_expr, W));
          }
          case ExprKind::Concat: {
            const auto& c = static_cast<const ConcatExpr&>(e);
            std::vector<uint32_t> parts;
            uint32_t total = 0;
            for (const auto& el : c.elements) {
                parts.push_back(build_self(*el));
                total += b_->width_of(parts.back());
            }
            uint32_t cat =
                parts.size() == 1
                    ? parts[0]
                    : b_->make(Op::Concat, total, std::move(parts));
            return b_->zext(cat, W);
          }
          case ExprKind::Replicate: {
            const auto& r = static_cast<const ReplicateExpr&>(e);
            Diagnostics scratch;
            auto n = eval_const_expr(*r.count, em_.params, &scratch);
            const uint64_t count = n.has_value() ? n->to_uint64() : 1;
            const uint32_t body = build_self(*r.body);
            const uint32_t bw = b_->width_of(body);
            std::vector<uint32_t> parts(count, body);
            uint32_t cat =
                count == 1
                    ? body
                    : b_->make(Op::Concat,
                               static_cast<uint32_t>(count) * bw,
                               std::move(parts));
            return b_->zext(cat, W);
          }
          case ExprKind::Index: {
            const auto& ix = static_cast<const IndexExpr&>(e);
            // Memory element read.
            if (ix.base->kind == ExprKind::Identifier) {
                const auto& id =
                    static_cast<const IdentifierExpr&>(*ix.base);
                if (id.simple()) {
                    const auto it = em_.net_index.find(id.path[0]);
                    if (it != em_.net_index.end() &&
                        mem_index_[it->second] >= 0) {
                        const NetInfo& net = em_.nets[it->second];
                        uint32_t addr = build_self(*ix.index);
                        if (net.array_base != 0) {
                            addr = b_->make(
                                Op::Sub, b_->width_of(addr),
                                {addr,
                                 b_->constant(
                                     b_->width_of(addr),
                                     static_cast<uint64_t>(
                                         net.array_base))});
                        }
                        const uint32_t rd = b_->mem_read(
                            static_cast<uint32_t>(mem_index_[it->second]),
                            addr, net.width);
                        return b_->resize(rd, W, net.is_signed);
                    }
                }
            }
            const uint32_t base = build_self(*ix.base);
            const uint32_t idx = build_self(*ix.index);
            return b_->zext(
                b_->make(Op::DynSlice, 1, {base, b_->zext(idx, 32)}), W);
          }
          case ExprKind::RangeSelect: {
            const auto& r = static_cast<const RangeSelectExpr&>(e);
            Diagnostics scratch;
            auto msb = eval_const_expr(*r.msb, em_.params, &scratch);
            auto lsb = eval_const_expr(*r.lsb, em_.params, &scratch);
            if (!msb.has_value() || !lsb.has_value()) {
                error(e.loc, "non-constant range select");
                return b_->constant(W, 0);
            }
            const uint32_t base = build_self(*r.base);
            const uint32_t off = base_lsb(*r.base);
            const uint32_t lo =
                static_cast<uint32_t>(lsb->to_uint64()) - off;
            const uint32_t width = static_cast<uint32_t>(
                msb->to_uint64() - lsb->to_uint64() + 1);
            return b_->zext(slice_or_zero(base, lo, width), W);
          }
          case ExprKind::IndexedSelect: {
            const auto& s = static_cast<const IndexedSelectExpr&>(e);
            Diagnostics scratch;
            auto wv = eval_const_expr(*s.width, em_.params, &scratch);
            const uint32_t width =
                wv.has_value()
                    ? std::max<uint32_t>(
                          1, static_cast<uint32_t>(wv->to_uint64()))
                    : 1;
            const uint32_t base = build_self(*s.base);
            uint32_t offset = b_->zext(build_self(*s.offset), 32);
            const uint32_t declared = base_lsb(*s.base);
            if (!s.up) {
                offset = b_->make(
                    Op::Sub, 32,
                    {offset, b_->constant(32, width - 1)});
            }
            if (declared != 0) {
                offset = b_->make(Op::Sub, 32,
                                  {offset, b_->constant(32, declared)});
            }
            return b_->zext(
                b_->make(Op::DynSlice, width, {base, offset}), W);
          }
          case ExprKind::Call: {
            const auto& c = static_cast<const CallExpr&>(e);
            const auto it = em_.functions.find(c.callee);
            if (it == em_.functions.end()) {
                error(e.loc, "unknown function");
                return b_->constant(W, 0);
            }
            const uint32_t r = inline_function(*it->second, c);
            return b_->resize(r, W, it->second->ret_signed);
          }
          case ExprKind::SystemCall: {
            const auto& s = static_cast<const SystemCallExpr&>(e);
            if (s.callee == "$signed") {
                return b_->sext(build_self(*s.args[0]), W);
            }
            if (s.callee == "$unsigned") {
                return b_->zext(build_self(*s.args[0]), W);
            }
            error(e.loc, s.callee + " cannot be synthesized directly");
            return b_->constant(W, 0);
          }
          default:
            error(e.loc, "expression cannot be synthesized");
            return b_->constant(W, 0);
        }
    }

    /// Slices with an out-of-range guard (reads past the top return 0).
    uint32_t
    slice_or_zero(uint32_t base, uint32_t lo, uint32_t width)
    {
        const uint32_t bw = b_->width_of(base);
        if (lo >= bw) {
            return b_->constant(width, 0);
        }
        if (lo + width <= bw) {
            return b_->slice(base, lo, width);
        }
        return b_->zext(b_->slice(base, lo, bw - lo), width);
    }

    uint32_t
    base_lsb(const Expr& base) const
    {
        if (base.kind == ExprKind::Identifier) {
            const auto& id = static_cast<const IdentifierExpr&>(base);
            if (id.simple()) {
                // Function locals shadow nets; locals have lsb 0.
                for (auto it = frames_.rbegin(); it != frames_.rend();
                     ++it) {
                    if (it->locals.count(id.path[0]) != 0) {
                        return 0;
                    }
                }
                if (const NetInfo* net = em_.find_net(id.path[0])) {
                    return net->lsb;
                }
            }
        }
        return 0;
    }

    uint32_t
    build_binary(const BinaryExpr& b, uint32_t W)
    {
        const bool both_signed =
            expr_signed(*b.lhs) && expr_signed(*b.rhs);
        switch (b.op) {
          case BinaryOp::Add:
            return b_->make(Op::Add, W,
                            {build_ctx(*b.lhs, W), build_ctx(*b.rhs, W)});
          case BinaryOp::Sub:
            return b_->make(Op::Sub, W,
                            {build_ctx(*b.lhs, W), build_ctx(*b.rhs, W)});
          case BinaryOp::Mul:
            return b_->make(Op::Mul, W,
                            {build_ctx(*b.lhs, W), build_ctx(*b.rhs, W)});
          case BinaryOp::Div:
            return b_->make(both_signed ? Op::Divs : Op::Divu, W,
                            {build_ctx(*b.lhs, W), build_ctx(*b.rhs, W)});
          case BinaryOp::Mod:
            return b_->make(both_signed ? Op::Rems : Op::Remu, W,
                            {build_ctx(*b.lhs, W), build_ctx(*b.rhs, W)});
          case BinaryOp::Pow:
            return b_->make(Op::Pow, W,
                            {build_ctx(*b.lhs, W), build_self(*b.rhs)});
          case BinaryOp::BitAnd:
            return b_->make(Op::And, W,
                            {build_ctx(*b.lhs, W), build_ctx(*b.rhs, W)});
          case BinaryOp::BitOr:
            return b_->make(Op::Or, W,
                            {build_ctx(*b.lhs, W), build_ctx(*b.rhs, W)});
          case BinaryOp::BitXor:
            return b_->make(Op::Xor, W,
                            {build_ctx(*b.lhs, W), build_ctx(*b.rhs, W)});
          case BinaryOp::BitXnor:
            return b_->make(
                Op::Not, W,
                {b_->make(Op::Xor, W,
                          {build_ctx(*b.lhs, W), build_ctx(*b.rhs, W)})});
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
            const uint32_t l = build_ctx(*b.lhs, Wc);
            const uint32_t r = build_ctx(*b.rhs, Wc);
            uint32_t res;
            const Op lt = both_signed ? Op::Slt : Op::Ult;
            switch (b.op) {
              case BinaryOp::Eq:
              case BinaryOp::CaseEq:
                res = b_->make(Op::Eq, 1, {l, r});
                break;
              case BinaryOp::Neq:
              case BinaryOp::CaseNeq:
                res = b_->make(Op::Not, 1, {b_->make(Op::Eq, 1, {l, r})});
                break;
              case BinaryOp::Lt:
                res = b_->make(lt, 1, {l, r});
                break;
              case BinaryOp::Gt:
                res = b_->make(lt, 1, {r, l});
                break;
              case BinaryOp::Leq:
                res = b_->make(Op::Not, 1, {b_->make(lt, 1, {r, l})});
                break;
              case BinaryOp::Geq:
                res = b_->make(Op::Not, 1, {b_->make(lt, 1, {l, r})});
                break;
              default:
                CASCADE_UNREACHABLE();
            }
            return b_->zext(res, W);
          }
          case BinaryOp::LogicalAnd:
            return b_->zext(
                b_->make(Op::And, 1,
                         {b_->to_bool(build_self(*b.lhs)),
                          b_->to_bool(build_self(*b.rhs))}),
                W);
          case BinaryOp::LogicalOr:
            return b_->zext(
                b_->make(Op::Or, 1,
                         {b_->to_bool(build_self(*b.lhs)),
                          b_->to_bool(build_self(*b.rhs))}),
                W);
          case BinaryOp::Shl:
            return b_->make(Op::Shl, W,
                            {build_ctx(*b.lhs, W),
                             b_->zext(build_self(*b.rhs), 32)});
          case BinaryOp::Shr:
            return b_->make(Op::Lshr, W,
                            {build_ctx(*b.lhs, W),
                             b_->zext(build_self(*b.rhs), 32)});
          case BinaryOp::AShr: {
            const Op op = expr_signed(*b.lhs) ? Op::Ashr : Op::Lshr;
            return b_->make(op, W,
                            {build_ctx(*b.lhs, W),
                             b_->zext(build_self(*b.rhs), 32)});
          }
        }
        CASCADE_UNREACHABLE();
    }

    // -- statement execution -----------------------------------------------

    /// The write context: blocking writes go to env_/frames_; nonblocking
    /// writes go to next_ (merged against RegQ).
    struct SeqCtx {
        std::unordered_map<uint32_t, uint32_t> next; ///< net -> next node
        uint32_t clock = 0;
        bool active = false;
    };

    uint32_t
    guard_and(uint32_t guard, uint32_t cond)
    {
        if (guard == kTrueGuard_) {
            return b_->to_bool(cond);
        }
        return b_->make(Op::And, 1, {guard, b_->to_bool(cond)});
    }

    uint32_t
    guard_and_not(uint32_t guard, uint32_t cond)
    {
        const uint32_t n =
            b_->make(Op::Not, 1, {b_->to_bool(cond)});
        if (guard == kTrueGuard_) {
            return n;
        }
        return b_->make(Op::And, 1, {guard, n});
    }

    /// Reads the current (blocking-view) value of a root net / local.
    uint32_t
    read_root(const std::string& name)
    {
        return lookup(name);
    }

    void
    write_root(const std::string& name, uint32_t value, uint32_t guard)
    {
        // Function local?
        for (auto it = frames_.rbegin(); it != frames_.rend(); ++it) {
            const auto found = it->locals.find(name);
            if (found != it->locals.end()) {
                const uint32_t w = it->widths.at(name);
                uint32_t v = b_->zext(value, w);
                found->second =
                    guard == kTrueGuard_
                        ? v
                        : b_->mux(guard, v, found->second);
                return;
            }
        }
        const auto nit = em_.net_index.find(name);
        if (nit == em_.net_index.end()) {
            ok_ = false;
            return;
        }
        const uint32_t id = nit->second;
        const uint32_t w = em_.nets[id].width;
        uint32_t v = b_->zext(value, w);
        if (env_[id] == kUndef) {
            env_[id] = guard == kTrueGuard_
                           ? v
                           : b_->mux(guard, v, b_->constant(w, 0));
        } else {
            env_[id] = guard == kTrueGuard_
                           ? v
                           : b_->mux(guard, v, env_[id]);
        }
    }

    /// Handles "lhs = value" (blocking) by rebuilding the root's full value
    /// through the select chain.
    void
    assign_blocking(const Expr& lhs, uint32_t value, uint32_t guard)
    {
        switch (lhs.kind) {
          case ExprKind::Identifier: {
            const auto& id = static_cast<const IdentifierExpr&>(lhs);
            write_root(id.path[0], value, guard);
            return;
          }
          case ExprKind::Index: {
            const auto& ix = static_cast<const IndexExpr&>(lhs);
            if (is_memory_base(*ix.base)) {
                error(lhs.loc,
                      "blocking memory writes cannot be synthesized; use "
                      "nonblocking assignment");
                return;
            }
            const uint32_t base = build_self(*ix.base);
            const uint32_t idx = b_->zext(build_self(*ix.index), 32);
            assign_blocking(
                *ix.base,
                b_->set_slice_dyn(base, idx, b_->zext(value, 1)), guard);
            return;
          }
          case ExprKind::RangeSelect: {
            const auto& r = static_cast<const RangeSelectExpr&>(lhs);
            Diagnostics scratch;
            auto msb = eval_const_expr(*r.msb, em_.params, &scratch);
            auto lsb = eval_const_expr(*r.lsb, em_.params, &scratch);
            if (!msb.has_value() || !lsb.has_value()) {
                error(lhs.loc, "non-constant range in assignment");
                return;
            }
            const uint32_t base = build_self(*r.base);
            const uint32_t lo =
                static_cast<uint32_t>(lsb->to_uint64()) - base_lsb(*r.base);
            const uint32_t w = static_cast<uint32_t>(
                msb->to_uint64() - lsb->to_uint64() + 1);
            assign_blocking(
                *r.base,
                b_->set_slice_const(base, lo, b_->zext(value, w)), guard);
            return;
          }
          case ExprKind::IndexedSelect: {
            const auto& s = static_cast<const IndexedSelectExpr&>(lhs);
            Diagnostics scratch;
            auto wv = eval_const_expr(*s.width, em_.params, &scratch);
            const uint32_t w =
                wv.has_value()
                    ? std::max<uint32_t>(
                          1, static_cast<uint32_t>(wv->to_uint64()))
                    : 1;
            const uint32_t base = build_self(*s.base);
            uint32_t off = b_->zext(build_self(*s.offset), 32);
            if (!s.up) {
                off = b_->make(Op::Sub, 32,
                               {off, b_->constant(32, w - 1)});
            }
            const uint32_t declared = base_lsb(*s.base);
            if (declared != 0) {
                off = b_->make(Op::Sub, 32,
                               {off, b_->constant(32, declared)});
            }
            assign_blocking(
                *s.base, b_->set_slice_dyn(base, off, b_->zext(value, w)),
                guard);
            return;
          }
          case ExprKind::Concat: {
            const auto& c = static_cast<const ConcatExpr&>(lhs);
            uint32_t remaining = b_->width_of(value);
            for (const auto& e : c.elements) {
                const uint32_t w = typer_.self_width(*e);
                const uint32_t lo = remaining >= w ? remaining - w : 0;
                assign_blocking(*e, slice_or_zero(value, lo, w), guard);
                remaining = lo;
            }
            return;
          }
          default:
            error(lhs.loc, "unsupported assignment target");
            return;
        }
    }

    bool
    is_memory_base(const Expr& base) const
    {
        if (base.kind != ExprKind::Identifier) {
            return false;
        }
        const auto& id = static_cast<const IdentifierExpr&>(base);
        if (!id.simple()) {
            return false;
        }
        const auto it = em_.net_index.find(id.path[0]);
        return it != em_.net_index.end() && mem_index_[it->second] >= 0;
    }

    /// Handles "lhs <= value" against the seq context.
    void
    assign_nonblocking(const Expr& lhs, uint32_t value, uint32_t guard,
                       SeqCtx* ctx)
    {
        // Memory write port?
        if (lhs.kind == ExprKind::Index) {
            const auto& ix = static_cast<const IndexExpr&>(lhs);
            if (is_memory_base(*ix.base)) {
                const auto& id =
                    static_cast<const IdentifierExpr&>(*ix.base);
                const uint32_t net_id = em_.net_id(id.path[0]);
                const NetInfo& net = em_.nets[net_id];
                uint32_t addr = b_->zext(build_self(*ix.index), 32);
                if (net.array_base != 0) {
                    addr = b_->make(
                        Op::Sub, 32,
                        {addr, b_->constant(
                                   32, static_cast<uint64_t>(
                                           net.array_base))});
                }
                const uint32_t en =
                    guard == kTrueGuard_ ? b_->constant(1, 1) : guard;
                b_->mem_write(
                    static_cast<uint32_t>(mem_index_[net_id]), addr,
                    b_->zext(value, net.width), en, ctx->clock);
                return;
            }
        }
        if (lhs.kind == ExprKind::Concat) {
            const auto& c = static_cast<const ConcatExpr&>(lhs);
            uint32_t remaining = b_->width_of(value);
            for (const auto& e : c.elements) {
                const uint32_t w = typer_.self_width(*e);
                const uint32_t lo = remaining >= w ? remaining - w : 0;
                assign_nonblocking(*e, slice_or_zero(value, lo, w), guard,
                                   ctx);
                remaining = lo;
            }
            return;
        }

        // Identify the root net and build the new full value against the
        // pending next view.
        std::vector<uint32_t> roots;
        collect_lvalue_roots(lhs, &roots);
        if (roots.size() != 1) {
            error(lhs.loc, "unsupported nonblocking target");
            return;
        }
        const uint32_t root = roots[0];
        if (mem_index_[root] >= 0) {
            error(lhs.loc, "nested memory-element selects are not "
                           "synthesizable assignment targets");
            return;
        }
        if (!is_state_[root]) {
            error(lhs.loc, "nonblocking assignment to non-state net '" +
                               em_.nets[root].name + "'");
            return;
        }
        auto it = ctx->next.find(root);
        const uint32_t cur =
            it != ctx->next.end() ? it->second : env_[root]; // RegQ
        const uint32_t full = rebuild_full(lhs, cur, value);
        ctx->next[root] =
            guard == kTrueGuard_ ? full : b_->mux(guard, full, cur);
    }

    /// Builds the root's full next value with \p value spliced in at the
    /// location \p lhs selects, starting from \p cur.
    uint32_t
    rebuild_full(const Expr& lhs, uint32_t cur, uint32_t value)
    {
        switch (lhs.kind) {
          case ExprKind::Identifier:
            return b_->zext(value, b_->width_of(cur));
          case ExprKind::Index: {
            const auto& ix = static_cast<const IndexExpr&>(lhs);
            const uint32_t idx = b_->zext(build_self(*ix.index), 32);
            // cur corresponds to the root; for nested selects, splice
            // innermost-out. Only single-level selects are supported here.
            return b_->set_slice_dyn(cur, idx, b_->zext(value, 1));
          }
          case ExprKind::RangeSelect: {
            const auto& r = static_cast<const RangeSelectExpr&>(lhs);
            Diagnostics scratch;
            auto msb = eval_const_expr(*r.msb, em_.params, &scratch);
            auto lsb = eval_const_expr(*r.lsb, em_.params, &scratch);
            if (!msb.has_value() || !lsb.has_value()) {
                error(lhs.loc, "non-constant range in assignment");
                return cur;
            }
            const uint32_t lo =
                static_cast<uint32_t>(lsb->to_uint64()) - base_lsb(*r.base);
            const uint32_t w = static_cast<uint32_t>(
                msb->to_uint64() - lsb->to_uint64() + 1);
            return b_->set_slice_const(cur, lo, b_->zext(value, w));
          }
          case ExprKind::IndexedSelect: {
            const auto& s = static_cast<const IndexedSelectExpr&>(lhs);
            Diagnostics scratch;
            auto wv = eval_const_expr(*s.width, em_.params, &scratch);
            const uint32_t w =
                wv.has_value()
                    ? std::max<uint32_t>(
                          1, static_cast<uint32_t>(wv->to_uint64()))
                    : 1;
            uint32_t off = b_->zext(build_self(*s.offset), 32);
            if (!s.up) {
                off = b_->make(Op::Sub, 32,
                               {off, b_->constant(32, w - 1)});
            }
            const uint32_t declared = base_lsb(*s.base);
            if (declared != 0) {
                off = b_->make(Op::Sub, 32,
                               {off, b_->constant(32, declared)});
            }
            return b_->set_slice_dyn(cur, off, b_->zext(value, w));
          }
          default:
            error(lhs.loc, "unsupported nonblocking target");
            return cur;
        }
    }

    void
    exec(const Stmt& stmt, uint32_t guard, SeqCtx* ctx)
    {
        if (!ok_) {
            return;
        }
        switch (stmt.kind) {
          case StmtKind::Block:
            for (const auto& s :
                 static_cast<const BlockStmt&>(stmt).stmts) {
                exec(*s, guard, ctx);
            }
            return;
          case StmtKind::BlockingAssign: {
            const auto& a = static_cast<const BlockingAssignStmt&>(stmt);
            const uint32_t lw = lvalue_width(*a.lhs);
            const uint32_t W = std::max(lw, typer_.self_width(*a.rhs));
            const uint32_t v =
                slice_or_zero(build_ctx(*a.rhs, W), 0, lw);
            assign_blocking(*a.lhs, v, guard);
            return;
          }
          case StmtKind::NonblockingAssign: {
            const auto& a =
                static_cast<const NonblockingAssignStmt&>(stmt);
            if (ctx == nullptr || !ctx->active) {
                error(stmt.loc, "nonblocking assignment outside an "
                                "edge-triggered block");
                return;
            }
            const uint32_t lw = lvalue_width(*a.lhs);
            const uint32_t W = std::max(lw, typer_.self_width(*a.rhs));
            const uint32_t v =
                slice_or_zero(build_ctx(*a.rhs, W), 0, lw);
            assign_nonblocking(*a.lhs, v, guard, ctx);
            return;
          }
          case StmtKind::If: {
            const auto& s = static_cast<const IfStmt&>(stmt);
            const uint32_t cond = build_self(*s.cond);
            if (b_->is_const(cond)) {
                if (b_->const_val(cond).to_bool()) {
                    exec(*s.then_stmt, guard, ctx);
                } else if (s.else_stmt != nullptr) {
                    exec(*s.else_stmt, guard, ctx);
                }
                return;
            }
            exec(*s.then_stmt, guard_and(guard, cond), ctx);
            if (s.else_stmt != nullptr) {
                exec(*s.else_stmt, guard_and_not(guard, cond), ctx);
            }
            return;
          }
          case StmtKind::Case: {
            const auto& s = static_cast<const CaseStmt&>(stmt);
            const uint32_t Ws = typer_.self_width(*s.subject);
            uint32_t none_prev = kTrueGuard_;
            std::vector<std::pair<const Stmt*, uint32_t>> arms;
            const Stmt* dflt = nullptr;
            for (const auto& item : s.items) {
                if (item.labels.empty()) {
                    dflt = item.stmt.get();
                    continue;
                }
                uint32_t match = 0;
                bool have = false;
                for (const auto& label : item.labels) {
                    const uint32_t Wc =
                        std::max(Ws, typer_.self_width(*label));
                    const uint32_t eq = b_->make(
                        Op::Eq, 1,
                        {build_ctx(*s.subject, Wc),
                         build_ctx(*label, Wc)});
                    match = have ? b_->make(Op::Or, 1, {match, eq}) : eq;
                    have = true;
                }
                uint32_t arm_guard =
                    none_prev == kTrueGuard_
                        ? match
                        : b_->make(Op::And, 1, {none_prev, match});
                arms.emplace_back(item.stmt.get(),
                                  guard == kTrueGuard_
                                      ? arm_guard
                                      : b_->make(Op::And, 1,
                                                 {guard, arm_guard}));
                const uint32_t not_match =
                    b_->make(Op::Not, 1, {match});
                none_prev = none_prev == kTrueGuard_
                                ? not_match
                                : b_->make(Op::And, 1,
                                           {none_prev, not_match});
            }
            for (const auto& [arm_stmt, arm_guard] : arms) {
                if (b_->is_const(arm_guard) &&
                    !b_->const_val(arm_guard).to_bool()) {
                    continue;
                }
                exec(*arm_stmt, arm_guard, ctx);
            }
            if (dflt != nullptr) {
                uint32_t g = none_prev;
                if (guard != kTrueGuard_) {
                    g = g == kTrueGuard_
                            ? guard
                            : b_->make(Op::And, 1, {guard, g});
                }
                const bool dead = g != kTrueGuard_ && b_->is_const(g) &&
                                  !b_->const_val(g).to_bool();
                if (!dead) {
                    exec(*dflt, g, ctx);
                }
            }
            return;
          }
          case StmtKind::For: {
            const auto& s = static_cast<const ForStmt&>(stmt);
            exec(*s.init, guard, ctx);
            uint64_t iters = 0;
            while (true) {
                const uint32_t cond = build_self(*s.cond);
                if (!b_->is_const(cond)) {
                    error(stmt.loc,
                          "loop condition must be static for synthesis");
                    return;
                }
                if (!b_->const_val(cond).to_bool()) {
                    return;
                }
                if (++iters > kMaxUnroll) {
                    error(stmt.loc, "loop unrolling limit exceeded");
                    return;
                }
                exec(*s.body, guard, ctx);
                exec(*s.step, guard, ctx);
                if (!ok_) {
                    return;
                }
            }
          }
          case StmtKind::While: {
            const auto& s = static_cast<const WhileStmt&>(stmt);
            uint64_t iters = 0;
            while (true) {
                const uint32_t cond = build_self(*s.cond);
                if (!b_->is_const(cond)) {
                    error(stmt.loc,
                          "loop condition must be static for synthesis");
                    return;
                }
                if (!b_->const_val(cond).to_bool()) {
                    return;
                }
                if (++iters > kMaxUnroll) {
                    error(stmt.loc, "loop unrolling limit exceeded");
                    return;
                }
                exec(*s.body, guard, ctx);
                if (!ok_) {
                    return;
                }
            }
          }
          case StmtKind::Repeat: {
            const auto& s = static_cast<const RepeatStmt&>(stmt);
            const uint32_t count = build_self(*s.count);
            if (!b_->is_const(count)) {
                error(stmt.loc,
                      "repeat count must be static for synthesis");
                return;
            }
            const uint64_t n = b_->const_val(count).to_uint64();
            if (n > kMaxUnroll) {
                error(stmt.loc, "loop unrolling limit exceeded");
                return;
            }
            for (uint64_t i = 0; i < n && ok_; ++i) {
                exec(*s.body, guard, ctx);
            }
            return;
          }
          case StmtKind::SystemTask:
            error(stmt.loc,
                  "system tasks cannot be synthesized directly (the "
                  "hardware wrapper handles them)");
            return;
          case StmtKind::Null:
            return;
          default:
            error(stmt.loc, "statement cannot be synthesized");
            return;
        }
    }

    uint32_t
    lvalue_width(const Expr& lhs)
    {
        if (lhs.kind == ExprKind::Concat) {
            const auto& c = static_cast<const ConcatExpr&>(lhs);
            uint32_t sum = 0;
            for (const auto& e : c.elements) {
                sum += lvalue_width(*e);
            }
            return sum;
        }
        if (lhs.kind == ExprKind::Identifier) {
            const auto& id = static_cast<const IdentifierExpr&>(lhs);
            for (auto it = frames_.rbegin(); it != frames_.rend(); ++it) {
                const auto found = it->widths.find(id.path[0]);
                if (found != it->widths.end()) {
                    return found->second;
                }
            }
        }
        return std::max(1u, typer_.self_width(lhs));
    }

    uint32_t
    inline_function(const FunctionDecl& fn, const CallExpr& call)
    {
        Frame frame;
        frame.fn = &fn;
        size_t arg_i = 0;
        for (size_t i = 0; i < fn.decls.size(); ++i) {
            const auto& nd = static_cast<const NetDecl&>(*fn.decls[i]);
            Diagnostics scratch;
            uint32_t width = 1;
            if (nd.range.valid()) {
                auto msb =
                    eval_const_expr(*nd.range.msb, em_.params, &scratch);
                auto lsb =
                    eval_const_expr(*nd.range.lsb, em_.params, &scratch);
                if (msb.has_value() && lsb.has_value()) {
                    width = static_cast<uint32_t>(msb->to_uint64() -
                                                  lsb->to_uint64() + 1);
                }
            }
            for (const auto& d : nd.decls) {
                uint32_t v;
                if (fn.decl_is_input[i] && arg_i < call.args.size()) {
                    v = build_ctx(*call.args[arg_i++], width);
                } else {
                    v = b_->constant(width, 0);
                }
                frame.locals[d.name] = v;
                frame.widths[d.name] = width;
                frame.is_signed[d.name] = nd.is_signed;
            }
        }
        uint32_t ret_width = 1;
        {
            Diagnostics scratch;
            if (fn.ret_range.valid()) {
                auto msb = eval_const_expr(*fn.ret_range.msb, em_.params,
                                           &scratch);
                auto lsb = eval_const_expr(*fn.ret_range.lsb, em_.params,
                                           &scratch);
                if (msb.has_value() && lsb.has_value()) {
                    ret_width = static_cast<uint32_t>(msb->to_uint64() -
                                                      lsb->to_uint64() + 1);
                }
            }
        }
        frame.locals[fn.name] = b_->constant(ret_width, 0);
        frame.widths[fn.name] = ret_width;
        frame.is_signed[fn.name] = fn.ret_signed;

        frames_.push_back(std::move(frame));
        if (fn.body != nullptr) {
            exec(*fn.body, kTrueGuard_, nullptr);
        }
        const uint32_t result = frames_.back().locals.at(fn.name);
        frames_.pop_back();
        return result;
    }

    // -- top-level phases ---------------------------------------------------

    void
    run_initial_blocks()
    {
        // Initial blocks must reduce to constants; their results become
        // register initial values and memory initial contents.
        for (const InitialBlock* ib : initial_) {
            b_->set_source(source_label(print(*ib, 0)));
            SeqCtx ctx;
            ctx.active = true;
            ctx.clock = b_->constant(1, 0); // unused
            const size_t ports_before = nl_->write_ports.size();
            exec(*ib->body, kTrueGuard_, &ctx);
            if (!ok_) {
                return;
            }
            // Fold blocking results into register inits.
            for (size_t i = 0; i < em_.nets.size(); ++i) {
                if (reg_index_[i] < 0 || env_[i] == kUndef) {
                    continue;
                }
                const uint32_t q = nl_->regs[reg_index_[i]].q;
                if (env_[i] != q) {
                    if (!b_->is_const(env_[i])) {
                        error(ib->loc,
                              "initial block value for '" +
                                  em_.nets[i].name +
                                  "' is not constant; cannot synthesize");
                        return;
                    }
                    nl_->regs[reg_index_[i]].init =
                        b_->const_val(env_[i]).resized(
                            em_.nets[i].width);
                    env_[i] = q; // runtime value comes from the register
                }
            }
            // And nonblocking results.
            for (const auto& [net, node] : ctx.next) {
                if (reg_index_[net] < 0) {
                    continue;
                }
                if (!b_->is_const(node)) {
                    error(ib->loc, "initial block value for '" +
                                       em_.nets[net].name +
                                       "' is not constant");
                    return;
                }
                nl_->regs[reg_index_[net]].init =
                    b_->const_val(node).resized(em_.nets[net].width);
            }
            // Memory writes from initial blocks become initial contents.
            for (size_t p = ports_before; p < nl_->write_ports.size();
                 ++p) {
                const MemWritePort& port = nl_->write_ports[p];
                if (!b_->is_const(port.addr) || !b_->is_const(port.data) ||
                    !b_->is_const(port.enable)) {
                    error(ib->loc, "initial memory contents must be "
                                   "constant");
                    return;
                }
                if (b_->const_val(port.enable).to_bool()) {
                    mem_init_[port.mem]
                             [b_->const_val(port.addr).to_uint64()] =
                        b_->const_val(port.data);
                }
            }
            nl_->write_ports.resize(ports_before);
        }
    }

    void
    execute_comb()
    {
        // Topologically order combinational processes by wire def/use.
        const size_t n = comb_.size();
        std::vector<int> producer(em_.nets.size(), -1);
        for (size_t p = 0; p < n; ++p) {
            for (uint32_t d : comb_[p].defs) {
                producer[d] = static_cast<int>(p);
            }
        }
        std::vector<std::vector<uint32_t>> succ(n);
        std::vector<uint32_t> indeg(n, 0);
        for (size_t p = 0; p < n; ++p) {
            std::unordered_set<int> preds;
            for (uint32_t u : comb_[p].uses) {
                const int q = producer[u];
                if (q >= 0 && q != static_cast<int>(p)) {
                    preds.insert(q);
                }
            }
            for (int q : preds) {
                succ[static_cast<size_t>(q)].push_back(
                    static_cast<uint32_t>(p));
                ++indeg[p];
            }
        }
        std::queue<uint32_t> ready;
        for (size_t p = 0; p < n; ++p) {
            if (indeg[p] == 0) {
                ready.push(static_cast<uint32_t>(p));
            }
        }
        size_t done = 0;
        while (!ready.empty()) {
            const uint32_t p = ready.front();
            ready.pop();
            ++done;
            run_comb_process(comb_[p]);
            for (uint32_t s : succ[p]) {
                if (--indeg[s] == 0) {
                    ready.push(s);
                }
            }
        }
        if (done != n) {
            error(em_.decl->loc,
                  "combinational cycle detected during synthesis");
        }
    }

    void
    run_comb_process(const Proc& p)
    {
        b_->set_source(source_label(print(*p.item, 0)));
        if (p.item->kind == ItemKind::ContinuousAssign) {
            const auto& a = static_cast<const ContinuousAssign&>(*p.item);
            const uint32_t lw = lvalue_width(*a.lhs);
            const uint32_t W = std::max(lw, typer_.self_width(*a.rhs));
            const uint32_t v =
                slice_or_zero(build_ctx(*a.rhs, W), 0, lw);
            assign_blocking(*a.lhs, v, kTrueGuard_);
            name_defs(p);
            return;
        }
        // Combinational always: default every target to 0 first so partial
        // assignments have defined semantics (latches are not inferred).
        const auto& ab = static_cast<const AlwaysBlock&>(*p.item);
        for (uint32_t d : p.defs) {
            if (env_[d] == kUndef) {
                env_[d] = b_->constant(em_.nets[d].width, 0);
            }
        }
        exec(*ab.body, kTrueGuard_, nullptr);
        name_defs(p);
    }

    /// Records net-name aliases for the nodes now holding each of
    /// \p p's defined nets (timing reports name hops after user nets).
    void
    name_defs(const Proc& p)
    {
        for (uint32_t d : p.defs) {
            if (env_[d] != kUndef) {
                b_->name_node(env_[d], em_.nets[d].name);
            }
        }
    }

    void
    execute_seq()
    {
        for (const Proc& p : seq_) {
            const auto& ab = static_cast<const AlwaysBlock&>(*p.item);
            b_->set_source(source_label(print(*p.item, 0)));
            const auto& sens = ab.sensitivity[0];
            const auto& sig =
                static_cast<const IdentifierExpr&>(*sens.signal);
            // Edge detection follows the LSB, matching the interpreter.
            uint32_t clock = b_->slice(lookup(sig.path[0]), 0, 1);
            if (sens.edge == EdgeKind::Neg) {
                clock = b_->make(Op::Not, 1, {clock});
            }

            SeqCtx ctx;
            ctx.active = true;
            ctx.clock = clock;

            exec(*ab.body, kTrueGuard_, &ctx);

            // Nonblocking targets get their merged next expression;
            // blocking-assigned state regs get the final blocking view.
            for (uint32_t d : p.defs) {
                if (reg_index_[d] < 0) {
                    continue;
                }
                const uint32_t q = nl_->regs[reg_index_[d]].q;
                const auto it = ctx.next.find(d);
                if (it != ctx.next.end()) {
                    b_->set_reg_next(
                        static_cast<uint32_t>(reg_index_[d]), it->second,
                        clock);
                    b_->name_node(it->second, em_.nets[d].name);
                } else if (env_[d] != q) {
                    b_->set_reg_next(
                        static_cast<uint32_t>(reg_index_[d]), env_[d],
                        clock);
                    b_->name_node(env_[d], em_.nets[d].name);
                }
                // Other processes must keep seeing the register output.
                env_[d] = q;
            }
        }
        // Deliver memory initial contents collected from initial blocks.
        for (const auto& [mem, contents] : mem_init_) {
            nl_->mems[mem].init = contents;
        }
    }

    const ElaboratedModule& em_;
    Diagnostics* diags_;
    ExprTyper typer_;
    std::unique_ptr<Netlist> nl_;
    std::unique_ptr<NetlistBuilder> b_;

    mutable bool ok_ = true;
    std::vector<uint32_t> env_;
    std::vector<int32_t> reg_index_;
    std::vector<int32_t> mem_index_;
    std::vector<bool> is_state_;
    std::vector<Proc> comb_;
    std::vector<Proc> seq_;
    std::vector<const InitialBlock*> initial_;
    std::vector<Frame> frames_;
    std::map<uint32_t, std::map<uint64_t, BitVector>> mem_init_;

    /// Sentinel for "no guard" (always true).
    static constexpr uint32_t kTrueGuard_ = ~0u - 1;
};

} // namespace

std::unique_ptr<Netlist>
synthesize(const ElaboratedModule& em, Diagnostics* diags)
{
    Synthesizer synth(em, diags);
    return synth.run();
}

namespace {

/// Resolves a user-facing signal name against a netlist: exact register
/// name, exact net-name alias, exact port name, then a unique `.`/`_`
/// suffix match (so `:break n == 5` finds `root.n` or a flattened
/// `root_n`). Returns the node id, or ~0u with *err set.
uint32_t
resolve_debug_signal(const Netlist& nl, const std::string& name,
                     std::string* err)
{
    for (const RegDef& reg : nl.regs) {
        if (reg.name == name) {
            return reg.q;
        }
    }
    for (const auto& [node, alias] : nl.node_names) {
        if (alias == name) {
            return node;
        }
    }
    for (const PortDef& port : nl.inputs) {
        if (port.name == name) {
            return port.node;
        }
    }
    for (const PortDef& port : nl.outputs) {
        if (port.name == name) {
            return port.node;
        }
    }
    // Suffix match: candidate names must end in <sep><name> where sep is
    // a hierarchy separator. Ambiguity is an error, not a guess.
    const auto suffix_matches = [&name](const std::string& full) {
        if (full.size() <= name.size() ||
            full.compare(full.size() - name.size(), name.size(), name) !=
                0) {
            return false;
        }
        const char sep = full[full.size() - name.size() - 1];
        return sep == '.' || sep == '_';
    };
    uint32_t found = ~0u;
    std::string found_name;
    bool ambiguous = false;
    for (const RegDef& reg : nl.regs) {
        if (suffix_matches(reg.name)) {
            if (found != ~0u && found_name != reg.name) {
                ambiguous = true;
            }
            found = reg.q;
            found_name = reg.name;
        }
    }
    for (const auto& [node, alias] : nl.node_names) {
        if (suffix_matches(alias)) {
            if (found != ~0u && found_name != alias) {
                ambiguous = true;
            }
            found = node;
            found_name = alias;
        }
    }
    if (ambiguous) {
        if (err != nullptr) {
            *err = "signal '" + name +
                   "' is ambiguous in the synthesized netlist";
        }
        return ~0u;
    }
    if (found == ~0u && err != nullptr) {
        *err = "signal '" + name + "' not found in the synthesized netlist";
    }
    return found;
}

} // namespace

DebugInstrumented
instrument_debug_triggers(const Netlist& base,
                          const std::vector<DebugTriggerSpec>& specs,
                          const std::vector<std::string>& probes,
                          std::string* err)
{
    DebugInstrumented out;
    auto nl = std::make_unique<Netlist>(base);
    NetlistBuilder b(nl.get());
    for (const DebugTriggerSpec& spec : specs) {
        const uint32_t sig = resolve_debug_signal(*nl, spec.signal, err);
        if (sig == ~0u) {
            return out; // netlist stays null; *err already set
        }
        b.set_source("debug:" + spec.signal);
        uint32_t cell = sig;
        if (!spec.watch) {
            const uint32_t w = nl->nodes[sig].width;
            const uint32_t c = b.constant(spec.value.resized(w));
            if (spec.op == "==") {
                cell = b.make(Op::Eq, 1, {sig, c});
            } else if (spec.op == "!=") {
                cell = b.make(Op::Not, 1, {b.make(Op::Eq, 1, {sig, c})});
            } else if (spec.op == "<") {
                cell = b.make(Op::Ult, 1, {sig, c});
            } else if (spec.op == ">") {
                cell = b.make(Op::Ult, 1, {c, sig});
            } else if (spec.op == "<=") {
                cell = b.make(Op::Not, 1, {b.make(Op::Ult, 1, {c, sig})});
            } else if (spec.op == ">=") {
                cell = b.make(Op::Not, 1, {b.make(Op::Ult, 1, {sig, c})});
            } else {
                if (err != nullptr) {
                    *err = "unsupported debug comparison '" + spec.op + "'";
                }
                return out;
            }
        }
        const std::string oname =
            "__dbg" + std::to_string(out.trigger_outputs.size());
        b.output(oname, cell);
        out.trigger_outputs.push_back(
            static_cast<uint32_t>(nl->outputs.size() - 1));
    }
    for (const std::string& probe : probes) {
        const uint32_t sig = resolve_debug_signal(*nl, probe, nullptr);
        if (sig == ~0u) {
            continue; // best-effort: the ring captures what it can see
        }
        b.set_source("debug:" + probe);
        const std::string oname =
            "__dbgp" + std::to_string(out.probe_names.size());
        b.output(oname, sig);
        out.probe_names.push_back(probe);
        out.probe_outputs.push_back(
            static_cast<uint32_t>(nl->outputs.size() - 1));
        out.probe_widths.push_back(nl->nodes[sig].width);
    }
    out.netlist = std::move(nl);
    return out;
}

} // namespace cascade::fpga
