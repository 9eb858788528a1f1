#include "verilog/printer.h"

#include "common/check.h"

namespace cascade::verilog {

namespace {

std::string
ind(int n)
{
    return std::string(static_cast<size_t>(n) * 2, ' ');
}

const char*
unary_op_str(UnaryOp op)
{
    switch (op) {
      case UnaryOp::Plus: return "+";
      case UnaryOp::Minus: return "-";
      case UnaryOp::LogicalNot: return "!";
      case UnaryOp::BitwiseNot: return "~";
      case UnaryOp::ReduceAnd: return "&";
      case UnaryOp::ReduceOr: return "|";
      case UnaryOp::ReduceXor: return "^";
      case UnaryOp::ReduceNand: return "~&";
      case UnaryOp::ReduceNor: return "~|";
      case UnaryOp::ReduceXnor: return "~^";
    }
    return "?";
}

const char*
binary_op_str(BinaryOp op)
{
    switch (op) {
      case BinaryOp::Add: return "+";
      case BinaryOp::Sub: return "-";
      case BinaryOp::Mul: return "*";
      case BinaryOp::Div: return "/";
      case BinaryOp::Mod: return "%";
      case BinaryOp::Pow: return "**";
      case BinaryOp::Eq: return "==";
      case BinaryOp::Neq: return "!=";
      case BinaryOp::CaseEq: return "===";
      case BinaryOp::CaseNeq: return "!==";
      case BinaryOp::LogicalAnd: return "&&";
      case BinaryOp::LogicalOr: return "||";
      case BinaryOp::Lt: return "<";
      case BinaryOp::Leq: return "<=";
      case BinaryOp::Gt: return ">";
      case BinaryOp::Geq: return ">=";
      case BinaryOp::Shl: return "<<";
      case BinaryOp::Shr: return ">>";
      case BinaryOp::AShr: return ">>>";
      case BinaryOp::BitAnd: return "&";
      case BinaryOp::BitOr: return "|";
      case BinaryOp::BitXor: return "^";
      case BinaryOp::BitXnor: return "~^";
    }
    return "?";
}

std::string
print_range(const Range& r)
{
    if (!r.valid()) {
        return "";
    }
    return "[" + print(*r.msb) + ":" + print(*r.lsb) + "]";
}

std::string
print_escaped_string(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\\': out += "\\\\"; break;
          case '"': out += "\\\""; break;
          default: out += c; break;
        }
    }
    out += '"';
    return out;
}

std::string
print_connections(const std::vector<Connection>& conns)
{
    std::string out;
    for (size_t i = 0; i < conns.size(); ++i) {
        if (i > 0) {
            out += ", ";
        }
        if (!conns[i].name.empty()) {
            out += "." + conns[i].name + "(";
            if (conns[i].expr != nullptr) {
                out += print(*conns[i].expr);
            }
            out += ")";
        } else if (conns[i].expr != nullptr) {
            out += print(*conns[i].expr);
        }
    }
    return out;
}

} // namespace

std::string
print(const Expr& expr)
{
    switch (expr.kind) {
      case ExprKind::Number: {
        const auto& e = static_cast<const NumberExpr&>(expr);
        if (!e.sized && e.is_signed && e.value.width() == 32) {
            return e.value.to_dec_string();
        }
        return std::to_string(e.value.width()) + "'" +
               (e.is_signed ? "s" : "") + "h" + e.value.to_hex_string();
      }
      case ExprKind::String: {
        const auto& e = static_cast<const StringExpr&>(expr);
        return print_escaped_string(e.text);
      }
      case ExprKind::Identifier:
        return static_cast<const IdentifierExpr&>(expr).full_name();
      case ExprKind::Unary: {
        const auto& e = static_cast<const UnaryExpr&>(expr);
        return std::string(unary_op_str(e.op)) + "(" + print(*e.operand) +
               ")";
      }
      case ExprKind::Binary: {
        const auto& e = static_cast<const BinaryExpr&>(expr);
        return "(" + print(*e.lhs) + " " + binary_op_str(e.op) + " " +
               print(*e.rhs) + ")";
      }
      case ExprKind::Ternary: {
        const auto& e = static_cast<const TernaryExpr&>(expr);
        return "(" + print(*e.cond) + " ? " + print(*e.then_expr) + " : " +
               print(*e.else_expr) + ")";
      }
      case ExprKind::Concat: {
        const auto& e = static_cast<const ConcatExpr&>(expr);
        std::string out = "{";
        for (size_t i = 0; i < e.elements.size(); ++i) {
            if (i > 0) {
                out += ", ";
            }
            out += print(*e.elements[i]);
        }
        return out + "}";
      }
      case ExprKind::Replicate: {
        const auto& e = static_cast<const ReplicateExpr&>(expr);
        return "{" + print(*e.count) + "{" + print(*e.body) + "}}";
      }
      case ExprKind::Index: {
        const auto& e = static_cast<const IndexExpr&>(expr);
        return print(*e.base) + "[" + print(*e.index) + "]";
      }
      case ExprKind::RangeSelect: {
        const auto& e = static_cast<const RangeSelectExpr&>(expr);
        return print(*e.base) + "[" + print(*e.msb) + ":" + print(*e.lsb) +
               "]";
      }
      case ExprKind::IndexedSelect: {
        const auto& e = static_cast<const IndexedSelectExpr&>(expr);
        return print(*e.base) + "[" + print(*e.offset) +
               (e.up ? " +: " : " -: ") + print(*e.width) + "]";
      }
      case ExprKind::Call: {
        const auto& e = static_cast<const CallExpr&>(expr);
        std::string out = e.callee + "(";
        for (size_t i = 0; i < e.args.size(); ++i) {
            if (i > 0) {
                out += ", ";
            }
            out += print(*e.args[i]);
        }
        return out + ")";
      }
      case ExprKind::SystemCall: {
        const auto& e = static_cast<const SystemCallExpr&>(expr);
        std::string out = e.callee;
        if (!e.args.empty()) {
            out += "(";
            for (size_t i = 0; i < e.args.size(); ++i) {
                if (i > 0) {
                    out += ", ";
                }
                out += print(*e.args[i]);
            }
            out += ")";
        }
        return out;
      }
    }
    CASCADE_UNREACHABLE();
}

std::string
print(const Stmt& stmt, int indent)
{
    const std::string pad = ind(indent);
    switch (stmt.kind) {
      case StmtKind::Block: {
        const auto& s = static_cast<const BlockStmt&>(stmt);
        std::string out = pad + "begin\n";
        for (const auto& sub : s.stmts) {
            out += print(*sub, indent + 1);
        }
        out += pad + "end\n";
        return out;
      }
      case StmtKind::BlockingAssign: {
        const auto& s = static_cast<const BlockingAssignStmt&>(stmt);
        return pad + print(*s.lhs) + " = " + print(*s.rhs) + ";\n";
      }
      case StmtKind::NonblockingAssign: {
        const auto& s = static_cast<const NonblockingAssignStmt&>(stmt);
        return pad + print(*s.lhs) + " <= " + print(*s.rhs) + ";\n";
      }
      case StmtKind::If: {
        const auto& s = static_cast<const IfStmt&>(stmt);
        std::string out = pad + "if (" + print(*s.cond) + ")\n";
        out += print(*s.then_stmt, indent + 1);
        if (s.else_stmt != nullptr) {
            out += pad + "else\n";
            out += print(*s.else_stmt, indent + 1);
        }
        return out;
      }
      case StmtKind::Case: {
        const auto& s = static_cast<const CaseStmt&>(stmt);
        const char* kw = s.case_kind == CaseKind::Case
                             ? "case"
                             : (s.case_kind == CaseKind::Casez ? "casez"
                                                               : "casex");
        std::string out =
            pad + kw + " (" + print(*s.subject) + ")\n";
        for (const auto& item : s.items) {
            if (item.labels.empty()) {
                out += ind(indent + 1) + "default:\n";
            } else {
                std::string labels;
                for (size_t i = 0; i < item.labels.size(); ++i) {
                    if (i > 0) {
                        labels += ", ";
                    }
                    labels += print(*item.labels[i]);
                }
                out += ind(indent + 1) + labels + ":\n";
            }
            out += print(*item.stmt, indent + 2);
        }
        out += pad + "endcase\n";
        return out;
      }
      case StmtKind::For: {
        const auto& s = static_cast<const ForStmt&>(stmt);
        // init and step are assignments; print them without trailing ;\n.
        std::string init = print(*s.init, 0);
        init = init.substr(0, init.find(";"));
        std::string step = print(*s.step, 0);
        step = step.substr(0, step.find(";"));
        std::string out = pad + "for (" + init + "; " + print(*s.cond) +
                          "; " + step + ")\n";
        out += print(*s.body, indent + 1);
        return out;
      }
      case StmtKind::While: {
        const auto& s = static_cast<const WhileStmt&>(stmt);
        return pad + "while (" + print(*s.cond) + ")\n" +
               print(*s.body, indent + 1);
      }
      case StmtKind::Repeat: {
        const auto& s = static_cast<const RepeatStmt&>(stmt);
        return pad + "repeat (" + print(*s.count) + ")\n" +
               print(*s.body, indent + 1);
      }
      case StmtKind::Forever: {
        const auto& s = static_cast<const ForeverStmt&>(stmt);
        return pad + "forever\n" + print(*s.body, indent + 1);
      }
      case StmtKind::SystemTask: {
        const auto& s = static_cast<const SystemTaskStmt&>(stmt);
        std::string out = pad + s.name;
        if (!s.args.empty()) {
            out += "(";
            for (size_t i = 0; i < s.args.size(); ++i) {
                if (i > 0) {
                    out += ", ";
                }
                out += print(*s.args[i]);
            }
            out += ")";
        }
        return out + ";\n";
      }
      case StmtKind::Null:
        return pad + ";\n";
    }
    CASCADE_UNREACHABLE();
}

std::string
print(const ModuleItem& item, int indent)
{
    const std::string pad = ind(indent);
    switch (item.kind) {
      case ItemKind::NetDecl: {
        const auto& d = static_cast<const NetDecl&>(item);
        std::string out = pad;
        out += d.is_reg ? "reg" : "wire";
        if (d.is_signed) {
            out += " signed";
        }
        if (d.range.valid()) {
            out += " " + print_range(d.range);
        }
        out += " ";
        for (size_t i = 0; i < d.decls.size(); ++i) {
            if (i > 0) {
                out += ", ";
            }
            out += d.decls[i].name;
            if (d.decls[i].array_dim.valid()) {
                out += " " + print_range(d.decls[i].array_dim);
            }
            if (d.decls[i].init != nullptr) {
                out += " = " + print(*d.decls[i].init);
            }
        }
        return out + ";\n";
      }
      case ItemKind::ParamDecl: {
        const auto& d = static_cast<const ParamDecl&>(item);
        std::string out = pad;
        out += d.local ? "localparam" : "parameter";
        if (d.is_signed) {
            out += " signed";
        }
        if (d.range.valid()) {
            out += " " + print_range(d.range);
        }
        out += " " + d.name + " = " + print(*d.value);
        return out + ";\n";
      }
      case ItemKind::ContinuousAssign: {
        const auto& a = static_cast<const ContinuousAssign&>(item);
        return pad + "assign " + print(*a.lhs) + " = " + print(*a.rhs) +
               ";\n";
      }
      case ItemKind::Always: {
        const auto& a = static_cast<const AlwaysBlock&>(item);
        std::string out = pad + "always @(";
        if (a.star) {
            out += "*";
        } else {
            for (size_t i = 0; i < a.sensitivity.size(); ++i) {
                if (i > 0) {
                    out += " or ";
                }
                const auto& s = a.sensitivity[i];
                if (s.edge == EdgeKind::Pos) {
                    out += "posedge ";
                } else if (s.edge == EdgeKind::Neg) {
                    out += "negedge ";
                }
                out += print(*s.signal);
            }
        }
        out += ")\n";
        out += print(*a.body, indent + 1);
        return out;
      }
      case ItemKind::Initial: {
        const auto& i = static_cast<const InitialBlock&>(item);
        return pad + "initial\n" + print(*i.body, indent + 1);
      }
      case ItemKind::Instantiation: {
        const auto& inst = static_cast<const Instantiation&>(item);
        std::string out = pad + inst.module_name;
        if (!inst.parameters.empty()) {
            out += "#(" + print_connections(inst.parameters) + ")";
        }
        out += " " + inst.instance_name + "(";
        out += print_connections(inst.ports);
        return out + ");\n";
      }
      case ItemKind::FunctionDecl: {
        const auto& f = static_cast<const FunctionDecl&>(item);
        std::string out = pad + "function ";
        if (f.ret_signed) {
            out += "signed ";
        }
        if (f.ret_range.valid()) {
            out += print_range(f.ret_range) + " ";
        }
        out += f.name + ";\n";
        for (size_t i = 0; i < f.decls.size(); ++i) {
            if (f.decl_is_input[i]) {
                const auto& d = static_cast<const NetDecl&>(*f.decls[i]);
                std::string line = ind(indent + 1) + "input";
                if (d.is_signed) {
                    line += " signed";
                }
                if (d.range.valid()) {
                    line += " " + print_range(d.range);
                }
                line += " ";
                for (size_t j = 0; j < d.decls.size(); ++j) {
                    if (j > 0) {
                        line += ", ";
                    }
                    line += d.decls[j].name;
                }
                out += line + ";\n";
            } else {
                out += print(*f.decls[i], indent + 1);
            }
        }
        out += print(*f.body, indent + 1);
        out += pad + "endfunction\n";
        return out;
      }
    }
    CASCADE_UNREACHABLE();
}

std::string
print(const ModuleDecl& module)
{
    std::string out = "module " + module.name;
    if (!module.header_params.empty()) {
        out += "#(";
        for (size_t i = 0; i < module.header_params.size(); ++i) {
            if (i > 0) {
                out += ", ";
            }
            const auto& p =
                static_cast<const ParamDecl&>(*module.header_params[i]);
            out += "parameter ";
            if (p.range.valid()) {
                out += print_range(p.range) + " ";
            }
            out += p.name + " = " + print(*p.value);
        }
        out += ")";
    }
    out += "(";
    for (size_t i = 0; i < module.ports.size(); ++i) {
        if (i > 0) {
            out += ", ";
        }
        const Port& p = module.ports[i];
        switch (p.dir) {
          case PortDir::Input: out += "input "; break;
          case PortDir::Output: out += "output "; break;
          case PortDir::Inout: out += "inout "; break;
        }
        out += p.is_reg ? "reg " : "wire ";
        if (p.is_signed) {
            out += "signed ";
        }
        if (p.range.valid()) {
            out += print_range(p.range) + " ";
        }
        out += p.name;
    }
    out += ");\n";
    for (const auto& item : module.items) {
        out += print(*item, 1);
    }
    out += "endmodule\n";
    return out;
}

std::string
print(const SourceUnit& unit)
{
    std::string out;
    for (const auto& m : unit.modules) {
        out += print(*m);
        out += "\n";
    }
    for (const auto& item : unit.root_items) {
        out += print(*item, 0);
    }
    return out;
}

std::string
source_label(const std::string& printed)
{
    std::string out;
    bool in_space = false;
    for (char c : printed) {
        if (c == ' ' || c == '\t' || c == '\n') {
            in_space = !out.empty();
            continue;
        }
        if (in_space) {
            out += ' ';
            in_space = false;
        }
        out += c;
    }
    while (!out.empty() && (out.back() == ';' || out.back() == ' ')) {
        out.pop_back();
    }
    constexpr size_t kMaxLabel = 56;
    if (out.size() > kMaxLabel) {
        out.resize(kMaxLabel - 1);
        out += "…";
    }
    return out;
}

} // namespace cascade::verilog
