/// \file
/// The evaluation workloads (paper §6), authored in the Cascade Verilog
/// subset and shared by the examples and the benchmark harness:
///  - a SHA-256 proof-of-work miner (§6.1),
///  - a streaming regular-expression matcher fed by the stdlib FIFO (§6.2),
///  - a Needleman-Wunsch sequence aligner (§6.4, the UT class assignment).

#ifndef CASCADE_WORKLOADS_WORKLOADS_H
#define CASCADE_WORKLOADS_WORKLOADS_H

#include <string>

namespace cascade::workloads {

/// SHA-256 proof-of-work miner: iterative compression (one round per
/// cycle over a 16-entry message schedule), nonce sweep, hit detection
/// against a difficulty target. REPL items for the implicit root module;
/// instantiates Led and displays each golden nonce.
std::string proof_of_work_source(uint32_t target_zero_bits,
                                 bool with_display = true);

/// Standalone-module variant (for direct "Quartus" compilation).
std::string proof_of_work_module(uint32_t target_zero_bits);

/// Streaming regex matcher: a hard-coded DFA for the pattern
/// "GET /[a-z]+ " over bytes popped from the stdlib FIFO; counts matches.
std::string regex_stream_source(bool with_display = false);

/// Standalone-module variant with the byte stream on a port.
std::string regex_stream_module();

/// Standalone-module variant that reads the bytes from a 256-entry FIFO
/// ring held in its own state, the way hardware forwarding merges the
/// stdlib FIFO into the design: the host fills `f__mem` and advances
/// `f__tail`, the matcher pops at `f__head`.
std::string regex_fifo_module(bool with_display = false);

/// Needleman-Wunsch aligner for two \p n-character (2-bit encoded)
/// sequences, one matrix cell per cycle, score via $display at the end.
/// \p style varies the "student solution": 0 = straightforward,
/// 1 = chatty (many displays), 2 = helper-function heavy.
std::string needleman_wunsch_source(uint32_t n, int style);

} // namespace cascade::workloads

#endif // CASCADE_WORKLOADS_WORKLOADS_H
