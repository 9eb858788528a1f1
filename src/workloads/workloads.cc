#include "workloads/workloads.h"

#include <cstdint>
#include <cstdio>

namespace cascade::workloads {

namespace {

/// SHA-256 round constants.
constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b,
    0x59f111f1, 0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01,
    0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7,
    0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
    0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152,
    0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819,
    0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116, 0x1e376c08,
    0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f,
    0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

std::string
hex32(uint32_t v)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "32'h%08x", v);
    return buf;
}

/// The K-constant lookup function.
std::string
k_function()
{
    std::string out = "function [31:0] kconst;\n  input [5:0] i;\n"
                      "  case (i)\n";
    for (int i = 0; i < 64; ++i) {
        out += "    " + std::to_string(i) + ": kconst = " +
               hex32(kK[i]) + ";\n";
    }
    out += "    default: kconst = 0;\n  endcase\nendfunction\n";
    return out;
}

/// Shared SHA-256 datapath (functions + per-cycle round body). The
/// message block carries the nonce in word 0; the rest is fixed padding,
/// so each nonce yields one compression (64 cycles per candidate).
std::string
sha_core_body(uint32_t target_zero_bits, const std::string& clk,
              bool with_display, bool with_led)
{
    std::string src;
    src += k_function();
    src += R"(
function [31:0] rotr;
  input [31:0] x;
  input [4:0] n;
  rotr = (x >> n) | (x << (32 - n));
endfunction
function [31:0] bsig0;
  input [31:0] x;
  bsig0 = rotr(x, 2) ^ rotr(x, 13) ^ rotr(x, 22);
endfunction
function [31:0] bsig1;
  input [31:0] x;
  bsig1 = rotr(x, 6) ^ rotr(x, 11) ^ rotr(x, 25);
endfunction
function [31:0] ssig0;
  input [31:0] x;
  ssig0 = rotr(x, 7) ^ rotr(x, 18) ^ (x >> 3);
endfunction
function [31:0] ssig1;
  input [31:0] x;
  ssig1 = rotr(x, 17) ^ rotr(x, 19) ^ (x >> 10);
endfunction
function [31:0] chf;
  input [31:0] e, f, g;
  chf = (e & f) ^ (~e & g);
endfunction
function [31:0] majf;
  input [31:0] a, b, c;
  majf = (a & b) ^ (a & c) ^ (b & c);
endfunction
function [31:0] msg;
  input [3:0] i;
  case (i)
    1: msg = 32'h80000000; // padding start
    15: msg = 32'd32;      // message length
    default: msg = 0;
  endcase
endfunction

reg [31:0] ha = 32'h6a09e667, hb = 32'hbb67ae85;
reg [31:0] hc = 32'h3c6ef372, hd = 32'ha54ff53a;
reg [31:0] he = 32'h510e527f, hf = 32'h9b05688c;
reg [31:0] hg = 32'h1f83d9ab, hh = 32'h5be0cd19;
reg [31:0] w [0:15];
reg [5:0] round = 0;
reg [31:0] nonce = 0;
reg [31:0] hits = 0;
wire [31:0] wcur;
wire [31:0] t1;
wire [31:0] t2;
wire [31:0] final_a;
wire found;
assign wcur = (round < 16)
    ? ((round == 0) ? nonce : msg(round[3:0]))
    : (ssig1(w[(round + 14) & 15]) + w[(round + 9) & 15] +
       ssig0(w[(round + 1) & 15]) + w[round & 15]);
assign t1 = hh + bsig1(he) + chf(he, hf, hg) + kconst(round) + wcur;
assign t2 = bsig0(ha) + majf(ha, hb, hc);
assign final_a = ha + t1 + t2 + 32'h6a09e667;
)";
    src += "assign found = (round == 63) && ((final_a >> (32 - " +
           std::to_string(target_zero_bits) + ")) == 0);\n";
    src += "always @(posedge " + clk + ") begin\n"
           "  w[round & 15] <= wcur;\n"
           "  if (round == 63) begin\n"
           "    if (found) begin\n"
           "      hits <= hits + 1;\n";
    if (with_display) {
        src += "      $display(\"nonce %h -> hash %h\", nonce, final_a);\n";
    }
    src += R"(    end
    nonce <= nonce + 1;
    round <= 0;
    ha <= 32'h6a09e667; hb <= 32'hbb67ae85;
    hc <= 32'h3c6ef372; hd <= 32'ha54ff53a;
    he <= 32'h510e527f; hf <= 32'h9b05688c;
    hg <= 32'h1f83d9ab; hh <= 32'h5be0cd19;
  end else begin
    round <= round + 1;
    hh <= hg; hg <= hf; hf <= he;
    he <= hd + t1;
    hd <= hc; hc <= hb; hb <= ha;
    ha <= t1 + t2;
  end
end
)";
    if (with_led) {
        src += "assign led.val = hits[7:0];\n";
    }
    return src;
}

/// DFA body for "GET /[a-z]+ " over one byte per cycle.
std::string
regex_dfa_body(const std::string& byte_expr, const std::string& valid_expr,
               const std::string& clk, bool with_display)
{
    std::string src = R"(
reg [2:0] state = 0;
reg [31:0] hits = 0;
reg [31:0] consumed = 0;
wire [7:0] ch;
wire lower;
)";
    src += "assign ch = " + byte_expr + ";\n";
    src += "assign lower = (ch >= 8'h61) && (ch <= 8'h7a);\n";
    src += "always @(posedge " + clk + ")\n";
    src += "  if (" + valid_expr + ") begin\n";
    src += R"(    consumed <= consumed + 1;
    case (state)
      0: state <= (ch == 8'h47) ? 1 : 0;
      1: state <= (ch == 8'h45) ? 2 : ((ch == 8'h47) ? 1 : 0);
      2: state <= (ch == 8'h54) ? 3 : ((ch == 8'h47) ? 1 : 0);
      3: state <= (ch == 8'h20) ? 4 : ((ch == 8'h47) ? 1 : 0);
      4: state <= (ch == 8'h2f) ? 5 : ((ch == 8'h47) ? 1 : 0);
      5: state <= lower ? 6 : ((ch == 8'h47) ? 1 : 0);
      6:
        if (ch == 8'h20) begin
          hits <= hits + 1;
)";
    if (with_display) {
        src += "          $display(\"match %0d at byte %0d\", hits + 1, "
               "consumed);\n";
    }
    src += R"(          state <= 0;
        end else
          state <= lower ? 6 : ((ch == 8'h47) ? 1 : 0);
      default: state <= 0;
    endcase
  end
)";
    return src;
}

} // namespace

std::string
proof_of_work_source(uint32_t target_zero_bits, bool with_display)
{
    std::string src = "Led#(8) led();\n";
    src += sha_core_body(target_zero_bits, "clk.val", with_display,
                         /*with_led=*/true);
    return src;
}

std::string
proof_of_work_module(uint32_t target_zero_bits)
{
    std::string src =
        "module Pow(input wire clk, output wire [7:0] led_val);\n";
    std::string body = sha_core_body(target_zero_bits, "clk",
                                     /*with_display=*/false,
                                     /*with_led=*/false);
    src += body;
    src += "assign led_val = hits[7:0];\n";
    src += "endmodule\n";
    return src;
}

std::string
regex_stream_source(bool with_display)
{
    std::string src = R"(
Led#(8) led();
wire [7:0] fdata;
wire fempty;
wire ren;
FIFO#(8, 8) f(.clk(clk.val), .rreq(ren), .rdata(fdata),
              .empty(fempty));
assign ren = !fempty;
)";
    src += regex_dfa_body("fdata", "!fempty", "clk.val", with_display);
    src += "assign led.val = hits[7:0];\n";
    return src;
}

std::string
regex_stream_module()
{
    std::string src = "module Regex(input wire clk, input wire [7:0] din,\n"
                      "             input wire din_valid,\n"
                      "             output wire [31:0] nhits);\n";
    src += regex_dfa_body("din", "din_valid", "clk",
                          /*with_display=*/false);
    src += "assign nhits = hits;\nendmodule\n";
    return src;
}

std::string
regex_fifo_module(bool with_display)
{
    std::string src = R"(module RegexFifo(input wire clk,
                 output wire [31:0] nhits);
reg [7:0] f__mem [0:255];
reg [8:0] f__head = 0;
reg [8:0] f__tail = 0;
wire fempty;
assign fempty = f__head == f__tail;
always @(posedge clk)
  if (!fempty) f__head <= f__head + 1;
)";
    src += regex_dfa_body("f__mem[f__head[7:0]]", "!fempty", "clk",
                          with_display);
    src += "assign nhits = hits;\nendmodule\n";
    return src;
}

std::string
needleman_wunsch_source(uint32_t n, int style)
{
    const uint32_t dim = n + 1;
    std::string src;
    src += "// Needleman-Wunsch, " + std::to_string(n) + "-symbol "
           "sequences, one cell per cycle\n";
    src += "reg [1:0] seqa [0:" + std::to_string(n - 1) + "];\n";
    src += "reg [1:0] seqb [0:" + std::to_string(n - 1) + "];\n";
    src += "reg signed [15:0] m [0:" + std::to_string(dim * dim - 1) +
           "];\n";
    src += "reg [15:0] i = 0;\nreg [15:0] j = 0;\nreg phase = 0;\n";
    src += "integer t;\n";
    // Deterministic pseudo-random sequences.
    src += "initial begin\n";
    src += "  for (t = 0; t < " + std::to_string(n) + "; t = t + 1) begin\n";
    src += "    seqa[t] = (t * 7 + 3) % 4;\n";
    src += "    seqb[t] = (t * 5 + 1) % 4;\n";
    src += "  end\nend\n";

    if (style == 2) {
        src += R"(
function signed [15:0] max2;
  input signed [15:0] a, b;
  max2 = (a >= b) ? a : b;
endfunction
function signed [15:0] cell_score;
  input signed [15:0] diag, up, left;
  input [1:0] ca, cb;
  cell_score = max2(diag + ((ca == cb) ? 16'sd2 : -16'sd1),
                    max2(up - 16'sd1, left - 16'sd1));
endfunction
)";
    }

    src += "wire signed [15:0] sdiag;\nwire signed [15:0] sup;\n"
           "wire signed [15:0] sleft;\nwire signed [15:0] best;\n";
    const std::string d = std::to_string(dim);
    src += "assign sdiag = m[(i-1)*" + d + "+(j-1)] + "
           "((seqa[i-1] == seqb[j-1]) ? 16'sd2 : -16'sd1);\n";
    src += "assign sup = m[(i-1)*" + d + "+j] - 16'sd1;\n";
    src += "assign sleft = m[i*" + d + "+(j-1)] - 16'sd1;\n";
    if (style == 2) {
        src += "assign best = cell_score(m[(i-1)*" + d + "+(j-1)], "
               "m[(i-1)*" + d + "+j], m[i*" + d + "+(j-1)], "
               "seqa[i-1], seqb[j-1]);\n";
    } else {
        src += "assign best = (sdiag >= sup) ? "
               "((sdiag >= sleft) ? sdiag : sleft) : "
               "((sup >= sleft) ? sup : sleft);\n";
    }

    src += "always @(posedge clk.val)\n";
    src += "  if (phase == 0) begin\n";
    src += "    // border initialization, one cell per cycle\n";
    src += "    m[i*" + d + "+j] <= (i == 0) ? -$signed(j) : "
           "-$signed(i);\n";
    src += "    if (i == 0 && j < " + std::to_string(n) + ")\n";
    src += "      j <= j + 1;\n";
    src += "    else if (i == 0) begin\n";
    src += "      i <= 1; j <= 0;\n";
    src += "    end else if (i < " + std::to_string(n) + ")\n";
    src += "      i <= i + 1;\n";
    src += "    else begin\n";
    src += "      phase <= 1; i <= 1; j <= 1;\n";
    src += "    end\n";
    src += "  end else begin\n";
    src += "    m[i*" + d + "+j] <= best;\n";
    if (style == 1) {
        src += "    $display(\"cell %0d %0d = %0d\", i, j, best);\n";
    }
    src += "    if (j < " + std::to_string(n) + ")\n";
    src += "      j <= j + 1;\n";
    src += "    else if (i < " + std::to_string(n) + ") begin\n";
    src += "      i <= i + 1; j <= 1;\n";
    src += "    end else begin\n";
    src += "      $display(\"score = %0d\", best);\n";
    src += "      $finish;\n";
    src += "    end\n";
    src += "  end\n";
    return src;
}

} // namespace cascade::workloads
