/// \file
/// Pretty-printer: renders AST back to canonical Verilog source. Used by the
/// IR transforms (whose outputs are themselves Verilog subprograms), by
/// debugging aids, and by round-trip tests (parse(print(ast)) == ast).

#ifndef CASCADE_VERILOG_PRINTER_H
#define CASCADE_VERILOG_PRINTER_H

#include <string>

#include "verilog/ast.h"

namespace cascade::verilog {

std::string print(const Expr& expr);
std::string print(const Stmt& stmt, int indent = 0);
std::string print(const ModuleItem& item, int indent = 0);
std::string print(const ModuleDecl& module);
std::string print(const SourceUnit& unit);

/// \p printed (a print above) as a one-line label: whitespace runs
/// collapsed, trailing `;` dropped, truncated with an ellipsis at 56
/// characters. It names a process in the `:profile` rows and the
/// netlist provenance of the `:fabric` rows.
std::string source_label(const std::string& printed);

} // namespace cascade::verilog

#endif // CASCADE_VERILOG_PRINTER_H
