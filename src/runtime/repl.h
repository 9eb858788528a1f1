/// \file
/// The REPL controller/view (paper §3.1, Fig. 3): Verilog is lexed,
/// parsed, and type-checked one input at a time; code that passes is
/// integrated into the running program, and IO side effects are visible
/// immediately. Also supports batch mode with input provided from a file.
///
/// Lines starting with ':' (when no Verilog is being accumulated) are
/// meta-commands: `:stats` prints the runtime's telemetry table, `:stats
/// json` the machine-readable snapshot, `:trace <file>` dumps the global
/// span buffer as Chrome trace_event JSON, `:probe <signal>` /
/// `:unprobe <signal>` manage waveform probes, `:vcd <file>` starts VCD
/// capture of the probed (or all) signals, `:help` lists the commands.

#ifndef CASCADE_RUNTIME_REPL_H
#define CASCADE_RUNTIME_REPL_H

#include <iosfwd>
#include <string>

#include "runtime/runtime.h"

namespace cascade::runtime {

class Repl {
  public:
    /// Output (program $display/$write and REPL messages) goes to \p out.
    /// Neither may be null.
    Repl(Runtime* runtime, std::ostream* out);

    /// Feeds one chunk of input. Complete declarations are eval'ed; a
    /// trailing incomplete module accumulates until its endmodule arrives.
    /// Returns false if the chunk was rejected.
    bool feed(const std::string& text);

    /// Batch mode: feeds the whole stream, then runs until $finish or
    /// \p max_iterations.
    bool run_batch(std::istream& in, uint64_t max_iterations);

    const std::string& prompt() const;

  private:
    bool buffer_complete() const;
    /// Executes one ':' meta-command line. Returns true (commands never
    /// reject the input stream).
    bool run_meta_command(const std::string& line);

    Runtime* runtime_;
    std::ostream& out_;
    std::string buffer_;
};

} // namespace cascade::runtime

#endif // CASCADE_RUNTIME_REPL_H
