/// \file
/// perfdriver: the measured program behind perfbench/run.py.
///
/// One run is a fixed number of *sessions*: as many as take --seconds of
/// wall time on an unloaded host, so that a run on a busy host does the
/// same work, only slower, and its fastest samples stay comparable. A
/// session is what a Cascade user does at the REPL: start a runtime, type
/// in one of the paper's evaluation designs (the SHA-256 proof-of-work
/// miner of §6.1, or the FIFO-fed regex stream matcher of §6.2), let it
/// climb to the workload's engine rung, run it, and type a few one-line
/// edits into the running program. Everything is generated from --seed:
/// the miner's difficulty, the matcher's byte stream, a seeded status
/// process that keeps every session's design new (so neither the bitstream
/// cache nor the JIT cache is ever hit), and the edits. Every line the
/// program prints is checked against an independent C++ model (SHA-256
/// for the miner, the DFA for the matcher), and every golden nonce the
/// miner swept past must have been printed.
///
/// Timed from outside the program, around public calls only:
///   setup_s  Runtime construction + the design's eval + the climb to the
///            workload's rung (for the jit/fabric rungs this is the first
///            background compile).
///   edit_ms  one edit: eval() of the new item until the edited program is
///            back on the workload's rung.
///   item_ns  wall time per work item on the rung: one nonce tried (64
///            clock ticks) for the miner, one stream byte taken by the
///            FIFO for the matcher. One sample per batch; every batch
///            covers a whole number of status periods, so each does the
///            same work, its $display servicing included.
///   tick_ns  the same batches per virtual clock tick.
///
/// With --trace 1 the session's design is also pushed through each layer
/// directly, in the shape the runtime builds for the rungs: the REPL items
/// are inlined, their peripherals' pins promoted to ports, the user
/// subprogram split out and wrapped in the Fig. 10 MMIO wrapper. The
/// wrapped netlist goes through fpga::compile() and the JIT build, and is
/// ticked by the hardware-engine stub's open loop over the bitstream
/// evaluator and over the JIT kernel, exactly what the jit and fabric
/// rungs run; the interpreter ticks the unwrapped user subprogram.
///
/// Output: one JSON object on stdout with the raw samples, the operation
/// counts, and the correctness verdict; run.py turns it into the result.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/diagnostics.h"
#include "fpga/bitstream.h"
#include "fpga/compile.h"
#include "ir/hw_wrapper.h"
#include "ir/subprogram.h"
#include "jit/codegen.h"
#include "jit/jit_kernel.h"
#include "runtime/hw_engine.h"
#include "runtime/runtime.h"
#include "sim/interpreter.h"
#include "stdlib/stdlib.h"
#include "verilog/elaborate.h"
#include "verilog/parser.h"
#include "workloads/workloads.h"

namespace {

using cascade::BitVector;
using cascade::Diagnostics;
using cascade::runtime::Location;
using cascade::runtime::Runtime;

double
now_s()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// SplitMix64: every generated input derives from the run seed.
class Rng {
  public:
    explicit Rng(uint64_t seed) : s_(seed) {}
    uint64_t
    next()
    {
        uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }
    uint32_t u32() { return static_cast<uint32_t>(next() >> 32); }
    uint32_t below(uint32_t n) { return static_cast<uint32_t>(next() % n); }

  private:
    uint64_t s_;
};

std::string
hex32(uint32_t v)
{
    char buf[16];
    std::snprintf(buf, sizeof buf, "32'h%08x", v);
    return buf;
}

/// "W'dV": a sized decimal literal.
std::string
lit(uint32_t width, uint32_t v)
{
    return std::to_string(width) + "'d" + std::to_string(v);
}

uint32_t
low_bits(uint64_t v, uint32_t n)
{
    return static_cast<uint32_t>(v & ((uint64_t{1} << n) - 1));
}

// ---------------------------------------------------------------------------
// Reference models
// ---------------------------------------------------------------------------

uint32_t
rotr(uint32_t x, uint32_t n)
{
    return (x >> n) | (x << (32 - n));
}

/// The miner's per-nonce hash over the block {nonce, 0x80000000, 0, ...,
/// 0, 32}: the 64 SHA-256 rounds, then the miner's final_a, which adds the
/// last round's a to the new a and H0.
uint32_t
sha_word0(uint32_t nonce)
{
    static constexpr uint32_t k[64] = {
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
    uint32_t w[64] = {nonce, 0x80000000u};
    w[15] = 32;
    for (int i = 16; i < 64; ++i) {
        const uint32_t s0 =
            rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
        const uint32_t s1 =
            rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = 0x6a09e667, b = 0xbb67ae85, c = 0x3c6ef372,
             d = 0xa54ff53a, e = 0x510e527f, f = 0x9b05688c,
             g = 0x1f83d9ab, h = 0x5be0cd19;
    for (int i = 0;; ++i) {
        const uint32_t t1 = h + (rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25)) +
                            ((e & f) ^ (~e & g)) + k[i] + w[i];
        const uint32_t t2 = (rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22)) +
                            ((a & b) ^ (a & c) ^ (b & c));
        if (i == 63) {
            return a + t1 + t2 + 0x6a09e667;
        }
        h = g;
        g = f;
        f = e;
        e = d + t1;
        d = c;
        c = b;
        b = a;
        a = t1 + t2;
    }
}

/// The matcher's DFA for "GET /[a-z]+ ", one byte per step, exactly as
/// the Verilog writes it. Returns true when the byte completes a match.
bool
dfa_step(uint32_t* state, uint8_t ch)
{
    const bool lower = ch >= 'a' && ch <= 'z';
    const uint32_t restart = ch == 'G' ? 1 : 0;
    switch (*state) {
    case 0: *state = restart; return false;
    case 1: *state = ch == 'E' ? 2 : restart; return false;
    case 2: *state = ch == 'T' ? 3 : restart; return false;
    case 3: *state = ch == ' ' ? 4 : restart; return false;
    case 4: *state = ch == '/' ? 5 : restart; return false;
    case 5: *state = lower ? 6 : restart; return false;
    case 6:
        if (ch == ' ') {
            *state = 0;
            return true;
        }
        *state = lower ? 6 : restart;
        return false;
    default: *state = 0; return false;
    }
}

// ---------------------------------------------------------------------------
// The session designs. Each is the paper workload's REPL source plus one
// seeded status process: it prints a checkable value once per status
// period (2^P nonces, or 2^P stream bytes), and its constants make every
// session's design distinct. Edits are more processes of the same shape.
// ---------------------------------------------------------------------------

/// One seeded print process: fires when the period counter's low P bits
/// equal \p phase and prints the counter and the checked value ^ \p mask.
struct Probe {
    std::string tag;
    uint32_t log2 = 1;
    uint32_t phase = 0;
    uint32_t mask = 0;

    static Probe
    make(const std::string& tag, uint32_t log2, Rng* rng)
    {
        return Probe{tag, log2, rng->below(1u << log2), rng->u32()};
    }
};

class Design {
  public:
    virtual ~Design() = default;
    /// REPL items for the base design (status process included).
    virtual std::string repl_source() const = 0;
    /// One edit: a new print process typed into the running program.
    virtual std::string edit_source(const Probe& p) const = 0;
    /// Stdlib peripherals the runtime merges into the user subprogram on
    /// the hardware rungs: (pin net, is host-driven), in item order.
    virtual std::vector<std::pair<std::string, bool>> pins() const = 0;
    /// Verifies every printed line; false with \p why set otherwise.
    /// \p ticks: virtual ticks run; \p fed: stream bytes the FIFO took.
    virtual bool check(const std::vector<std::string>& lines,
                       const std::vector<Probe>& edits, uint64_t ticks,
                       uint64_t fed, std::string* why) const = 0;

  protected:
    /// The status probe or the edit a printed tag names; null if none.
    const Probe*
    find_probe(const char* tag, const std::vector<Probe>& edits) const
    {
        if (status_.tag == tag) {
            return &status_;
        }
        for (const Probe& e : edits) {
            if (e.tag == tag) {
                return &e;
            }
        }
        return nullptr;
    }

    Probe status_;
};

/// §6.1: the SHA-256 proof-of-work miner, 64 ticks per nonce.
class Miner : public Design {
  public:
    Miner(uint64_t seed, uint32_t status_log2)
    {
        Rng rng(seed);
        target_bits_ = 11 + rng.below(3);
        status_ = Probe::make("s", status_log2, &rng);
    }

    std::string
    repl_source() const override
    {
        return cascade::workloads::proof_of_work_source(target_bits_) +
               edit_source(status_);
    }

    std::string
    edit_source(const Probe& p) const override
    {
        return "always @(posedge clk.val) if (round == 63 && nonce[" +
               std::to_string(p.log2 - 1) + ":0] == " + lit(p.log2, p.phase) +
               ") $display(\"" + p.tag + " %h %h\", nonce, final_a ^ " +
               hex32(p.mask) + ");\n";
    }

    std::vector<std::pair<std::string, bool>>
    pins() const override
    {
        return {{"led__pins", false}};
    }

    bool
    check(const std::vector<std::string>& lines,
          const std::vector<Probe>& edits, uint64_t ticks, uint64_t,
          std::string* why) const override
    {
        const uint64_t nonces = ticks / 64;
        std::set<uint32_t> golden;
        std::vector<bool> edit_seen(edits.size(), false);
        uint64_t status = 0;
        uint32_t last_status = 0;
        for (const std::string& line : lines) {
            if (line.rfind("cascade: ", 0) == 0) {
                continue; // runtime notice (e.g. a rejected fabric compile)
            }
            unsigned int n = 0;
            unsigned int v = 0;
            char tag[16] = {0};
            if (std::sscanf(line.c_str(), "nonce %x -> hash %x", &n, &v) ==
                2) {
                if (sha_word0(n) != v || (v >> (32 - target_bits_)) != 0) {
                    *why = "wrong golden nonce: " + line;
                    return false;
                }
                golden.insert(n);
                continue;
            }
            if (std::sscanf(line.c_str(), "%15s %x %x", tag, &n, &v) != 3) {
                *why = "malformed line: " + line;
                return false;
            }
            const Probe* p = find_probe(tag, edits);
            if (p == nullptr || low_bits(n, p->log2) != p->phase ||
                (sha_word0(n) ^ p->mask) != v) {
                *why = "wrong probe line: " + line;
                return false;
            }
            if (p == &status_) {
                if (n < last_status) {
                    *why = "status lines out of order: " + line;
                    return false;
                }
                last_status = n;
                ++status;
            } else {
                edit_seen[static_cast<size_t>(p - edits.data())] = true;
            }
        }
        if (status + 1 < (nonces >> status_.log2)) {
            *why = "missing status lines: " + std::to_string(status) +
                   " for " + std::to_string(nonces) + " nonces";
            return false;
        }
        // Every golden nonce the miner swept past must have printed.
        for (uint32_t n = 0; n + 1 < nonces; ++n) {
            if ((sha_word0(n) >> (32 - target_bits_)) == 0 &&
                golden.count(n) == 0) {
                *why = "golden nonce " + std::to_string(n) + " not printed";
                return false;
            }
        }
        if (std::find(edit_seen.begin(), edit_seen.end(), false) !=
            edit_seen.end()) {
            *why = "an edit never printed";
            return false;
        }
        return true;
    }

    /// Golden nonces below \p nonces (the ledger's cross-check).
    uint64_t
    golden_below(uint64_t nonces) const
    {
        uint64_t hits = 0;
        for (uint32_t n = 0; n < nonces; ++n) {
            hits += (sha_word0(n) >> (32 - target_bits_)) == 0;
        }
        return hits;
    }

  private:
    uint32_t target_bits_ = 12;
};

/// §6.2: the regex matcher over bytes the runtime pushes into the stdlib
/// FIFO. The stream is HTTP-log-like text from the seed: request lines
/// (some matching "GET /[a-z]+ ", some near misses) between lowercase
/// filler words.
///
/// The edits are typed once the stream has been drained, and each prints
/// the match count from a tick counter of its own: an eval that evicts
/// the program from the JIT rung lets the matcher pop one phantom byte
/// from the empty FIFO on its first software step (a runtime defect, see
/// CHANGES.md), so no stream byte may follow an edit. A drained stream
/// ends on a token boundary, where the DFA is in its start state, and a
/// phantom byte per edit cannot complete a match (one takes at least
/// seven), so the printed count stays exact.
class Stream : public Design {
  public:
    Stream(uint64_t seed, uint32_t status_log2) : rng_(seed ^ 0x57EAull)
    {
        Rng rng(seed);
        status_ = Probe::make("s", status_log2, &rng);
    }

    std::string
    repl_source() const override
    {
        const Probe& p = status_;
        return cascade::workloads::regex_stream_source() +
               "always @(posedge clk.val) if (!fempty && consumed[" +
               std::to_string(p.log2 - 1) + ":0] == " + lit(p.log2, p.phase) +
               ") $display(\"s %0d %h\", consumed, hits ^ " + hex32(p.mask) +
               ");\n";
    }

    std::string
    edit_source(const Probe& p) const override
    {
        const std::string n = p.tag + "_n";
        return "reg [31:0] " + n + " = 0;\nalways @(posedge clk.val) begin\n  " +
               n + " <= " + n + " + 1;\n  if (" + n + "[" +
               std::to_string(p.log2 - 1) + ":0] == " + lit(p.log2, p.phase) +
               ") $display(\"" + p.tag + " %0d %h\", " + n + ", hits ^ " +
               hex32(p.mask) + ");\nend\n";
    }

    std::vector<std::pair<std::string, bool>>
    pins() const override
    {
        return {{"led__pins", false}, {"f__pins", true}, {"f__push", true}};
    }

    /// At least the next \p n bytes of the stream (also kept for the
    /// model), ending on a token boundary.
    std::vector<uint8_t>
    next_bytes(size_t n)
    {
        static const char* const kNear[] = {"GET /", "GET x", "GET /A",
                                            "GEG /", "PUT /"};
        std::vector<uint8_t> out;
        while (out.size() < n) {
            std::string tok;
            const uint32_t kind = rng_.below(8);
            if (kind < 2) {
                tok = "GET /";
            } else if (kind == 2) {
                tok = kNear[rng_.below(5)];
            }
            const uint32_t len = 1 + rng_.below(8);
            for (uint32_t i = 0; i < len; ++i) {
                tok += static_cast<char>('a' + rng_.below(26));
            }
            tok += ' ';
            out.insert(out.end(), tok.begin(), tok.end());
        }
        history_.insert(history_.end(), out.begin(), out.end());
        return out;
    }

    /// The last bytes before the edits: tokens until the stream length
    /// keeps the status process quiet through \p edits phantom pops.
    std::vector<uint8_t>
    last_bytes(uint32_t edits)
    {
        std::vector<uint8_t> out;
        while (low_bits(status_.phase - history_.size(), status_.log2) <=
               edits) {
            const std::vector<uint8_t> tok = next_bytes(1);
            out.insert(out.end(), tok.begin(), tok.end());
        }
        return out;
    }

    bool
    check(const std::vector<std::string>& lines,
          const std::vector<Probe>& edits, uint64_t, uint64_t fed,
          std::string* why) const override
    {
        // hits_before[i]: matches completed by bytes [0, i).
        std::vector<uint32_t> hits_before(history_.size() + 1, 0);
        uint32_t state = 0;
        for (size_t i = 0; i < history_.size(); ++i) {
            hits_before[i + 1] =
                hits_before[i] + (dfa_step(&state, history_[i]) ? 1 : 0);
        }
        const uint32_t hits = hits_before.back();
        std::vector<bool> edit_seen(edits.size(), false);
        uint64_t status = 0;
        unsigned long long last_status = 0;
        for (const std::string& line : lines) {
            if (line.rfind("cascade: ", 0) == 0) {
                continue;
            }
            char tag[16] = {0};
            unsigned long long n = 0;
            unsigned int v = 0;
            if (std::sscanf(line.c_str(), "%15s %llu %x", tag, &n, &v) != 3) {
                *why = "malformed line: " + line;
                return false;
            }
            const Probe* p = find_probe(tag, edits);
            // Status lines carry the count before byte n; edit lines the
            // count after the whole stream.
            if (p == nullptr || low_bits(n, p->log2) != p->phase ||
                (p == &status_ && n >= history_.size()) ||
                ((p == &status_ ? hits_before[n] : hits) ^ p->mask) != v) {
                *why = "wrong probe line: " + line;
                return false;
            }
            if (p == &status_) {
                if (n < last_status) {
                    *why = "status lines out of order: " + line;
                    return false;
                }
                last_status = n;
                ++status;
            } else {
                edit_seen[static_cast<size_t>(p - edits.data())] = true;
            }
        }
        if (fed != history_.size()) {
            *why = "stream not drained: " + std::to_string(fed) + " of " +
                   std::to_string(history_.size()) + " bytes fed";
            return false;
        }
        if (status + 1 < (fed >> status_.log2)) {
            *why = "missing status lines: " + std::to_string(status) +
                   " for " + std::to_string(fed) + " bytes";
            return false;
        }
        if (std::find(edit_seen.begin(), edit_seen.end(), false) !=
            edit_seen.end()) {
            *why = "an edit never printed";
            return false;
        }
        return true;
    }

  private:
    Rng rng_;
    std::vector<uint8_t> history_;
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
    std::string name;
    bool stream = false;          ///< the matcher, else the miner
    uint32_t status_log2 = 4;     ///< status period: 2^P nonces or bytes
    uint32_t batch_periods = 1;   ///< status periods per measured batch
    double tick_s = 1.0;          ///< wall time of batches per session
    uint32_t edits = 5;
    double session_s = 2.5;       ///< a whole session, unloaded host
    Runtime::Options options;
    /// The rung the program must reach before it is measured.
    bool (*on_rung)(Location) = nullptr;
    /// Fabric admission is made to fail: after each eval, wait (untimed)
    /// for that rejection so no compile runs behind the measured batches.
    bool rejects_fabric = false;
};

bool
rung_software(Location loc)
{
    return loc == Location::Software;
}
bool
rung_jit(Location loc)
{
    return loc == Location::Jit;
}
bool
rung_fabric(Location loc)
{
    return loc == Location::Hardware || loc == Location::HardwareForwarded;
}

bool
make_workload(const std::string& name, Workload* w)
{
    w->name = name;
    // One placement effort everywhere, so the ledger's place_ms compares
    // across workloads (the interp rung never compiles at all).
    w->options.compile_effort = 0.05;
    w->options.open_loop_target_wall_s = 0.01;
    if (name == "interp") {
        w->options.enable_hardware = false;
        w->on_rung = rung_software;
        w->status_log2 = 3;
        w->batch_periods = 2;
        w->tick_s = 2.0;
        return true;
    }
    if (name == "jit" || name == "stream") {
        // The fabric is too small for anything, so admission rejects every
        // fabric compile and the program parks on the compiled kernel.
        w->options.enable_hardware = true;
        w->options.enable_jit = true;
        w->options.device_les = 10;
        w->on_rung = rung_jit;
        w->rejects_fabric = true;
        w->status_log2 = 8;
        w->batch_periods = 1;
        w->tick_s = 1.5;
        w->edits = 3;
        w->session_s = 7.5;
        if (name == "stream") {
            // A status line every 256 bytes, the FIFO's depth: every grant
            // takes one full FIFO and stops at that line, so the batches
            // time the host feed and the task readback, not idle ticking
            // until the grant's budget runs out.
            w->stream = true;
            w->batch_periods = 16;
            w->edits = 4;
            w->session_s = 5.0;
        }
        return true;
    }
    if (name == "fabric") {
        w->options.enable_hardware = true;
        w->options.enable_jit = false;
        w->on_rung = rung_fabric;
        w->status_log2 = 4;
        w->batch_periods = 1;
        w->tick_s = 2.0;
        w->edits = 4;
        w->session_s = 8.0;
        return true;
    }
    return false;
}

std::unique_ptr<Design>
make_design(const Workload& w, uint64_t seed)
{
    if (w.stream) {
        return std::make_unique<Stream>(seed, w.status_log2);
    }
    return std::make_unique<Miner>(seed, w.status_log2);
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

struct Results {
    std::map<std::string, std::vector<double>> samples;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> errors;

    void
    fail(const std::string& what)
    {
        ++failed;
        if (errors.size() < 20) {
            errors.push_back(what);
        }
    }
};

std::string
json_escape(const std::string& s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

void
print_results(const Results& r)
{
    std::ostringstream out;
    out.precision(17);
    out << "{\"attempted\":" << r.attempted
        << ",\"failed\":" << r.failed << ",\"errors\":[";
    for (size_t i = 0; i < r.errors.size(); ++i) {
        out << (i ? "," : "") << '"' << json_escape(r.errors[i]) << '"';
    }
    out << "],\"samples\":{";
    bool first = true;
    for (const auto& [name, values] : r.samples) {
        out << (first ? "" : ",") << '"' << name << "\":[";
        for (size_t i = 0; i < values.size(); ++i) {
            out << (i ? "," : "") << values[i];
        }
        out << ']';
        first = false;
    }
    out << "}}";
    std::printf("%s\n", out.str().c_str());
}

// ---------------------------------------------------------------------------
// The session (timed through the Runtime's public API only)
// ---------------------------------------------------------------------------

class Session {
  public:
    Session(const Workload& w, uint64_t seed, Results* res)
        : w_(w), design_(make_design(w, seed)), res_(res)
    {
        Rng rng(seed ^ 0xED17ull);
        for (uint32_t j = 0; j < w.edits; ++j) {
            edits_.push_back(
                Probe::make("e" + std::to_string(j), w.status_log2, &rng));
        }
    }

    void run();

  private:
    Stream& stream() { return static_cast<Stream&>(*design_); }

    size_t
    rejections() const
    {
        return static_cast<size_t>(std::count_if(
            lines_.begin(), lines_.end(), [](const std::string& l) {
                return l.rfind("cascade: hardware compilation rejected", 0) ==
                       0;
            }));
    }

    /// Keeps at least \p bytes of stream queued for the FIFO, until the
    /// stream is drained for the edits.
    void
    top_up(uint64_t bytes)
    {
        if (w_.stream && !drained_ && rt_->fifo_backlog() < bytes) {
            rt_->fifo_push(stream().next_bytes(bytes - rt_->fifo_backlog()));
        }
    }

    void drain();
    bool wait_for_rung(size_t transitions_before, double timeout_s);
    bool settle(size_t rejections_before, double timeout_s);
    bool run_batches();

    const Workload& w_;
    std::unique_ptr<Design> design_;
    std::vector<Probe> edits_;
    Results* res_;
    std::unique_ptr<Runtime> rt_;
    std::vector<std::string> lines_;
    std::string partial_;
    bool drained_ = false;
};

/// Ends the stream: pushes its last bytes, then lets the matcher read
/// every queued byte (the host queue, then the 256-deep FIFO at one byte
/// per tick).
void
Session::drain()
{
    rt_->fifo_push(stream().last_bytes(w_.edits));
    drained_ = true;
    const double deadline = now_s() + 30;
    while (rt_->fifo_backlog() > 0 && now_s() < deadline &&
           !rt_->finished()) {
        rt_->run(1);
    }
    rt_->run_for_ticks(512);
}

/// Steps the program (it keeps running in software meanwhile) until a new
/// adoption lands it on the workload's rung. False on timeout.
bool
Session::wait_for_rung(size_t transitions_before, double timeout_s)
{
    if (w_.on_rung == rung_software) {
        return rt_->user_location() == Location::Software;
    }
    const double deadline = now_s() + timeout_s;
    while (now_s() < deadline) {
        if (rt_->transitions().size() > transitions_before &&
            w_.on_rung(rt_->user_location())) {
            return true;
        }
        rt_->run(1);
    }
    return false;
}

/// On the jit rungs the fabric compile keeps annealing in the background
/// after the kernel is adopted; steps until its rejection is reported.
bool
Session::settle(size_t rejections_before, double timeout_s)
{
    const double deadline = now_s() + timeout_s;
    while (w_.rejects_fabric && rejections() <= rejections_before) {
        if (now_s() > deadline) {
            return false;
        }
        top_up(4096);
        rt_->run(1);
    }
    return true;
}

/// Runs measured batches for the workload's tick_s seconds: one item_ns
/// and one tick_ns sample per batch. False (failure recorded) if the
/// program stalls.
bool
Session::run_batches()
{
    const uint64_t items = uint64_t{w_.batch_periods} << w_.status_log2;
    const double end = now_s() + w_.tick_s;
    uint64_t ticks = 0;
    uint64_t iters = 0;
    do {
        // The stream is generated before the clock starts.
        top_up(items + 1024);
        const uint64_t t0 = rt_->virtual_ticks();
        const uint64_t i0 = rt_->scheduler_iterations();
        const uint64_t f0 = rt_->fifo_bytes_consumed();
        uint64_t done = 0;
        const double w0 = now_s();
        if (w_.stream) {
            while (rt_->fifo_bytes_consumed() - f0 < items &&
                   now_s() - w0 < 30 && !rt_->finished()) {
                rt_->run(1);
            }
            done = rt_->fifo_bytes_consumed() - f0;
        } else {
            rt_->run_for_ticks(64 * items);
        }
        const double dw = now_s() - w0;
        const uint64_t dt = rt_->virtual_ticks() - t0;
        if (!w_.stream) {
            done = dt / 64;
        }
        ++res_->attempted;
        if (done < items || dt == 0 || rt_->finished()) {
            res_->fail("batch stalled: " + std::to_string(done) + " of " +
                       std::to_string(items) + " items");
            return false;
        }
        res_->samples["item_ns"].push_back(dw * 1e9 /
                                           static_cast<double>(done));
        res_->samples["tick_ns"].push_back(dw * 1e9 /
                                           static_cast<double>(dt));
        ticks += dt;
        iters += rt_->scheduler_iterations() - i0;
    } while (now_s() < end);
    res_->samples["sched_iters_per_ktick"].push_back(
        1e3 * static_cast<double>(iters) / static_cast<double>(ticks));
    return true;
}

/// One REPL session; see the file comment for what each sample times.
void
Session::run()
{
    const double t_setup = now_s();
    rt_ = std::make_unique<Runtime>(w_.options);
    rt_->on_output = [this](const std::string& text) {
        partial_ += text;
        size_t nl;
        while ((nl = partial_.find('\n')) != std::string::npos) {
            lines_.push_back(partial_.substr(0, nl));
            partial_.erase(0, nl + 1);
        }
    };
    std::string err;
    ++res_->attempted;
    size_t before = rt_->transitions().size();
    size_t rejected = rejections();
    if (!rt_->eval(design_->repl_source(), &err)) {
        res_->fail("design eval rejected: " + err);
        return;
    }
    if (!wait_for_rung(before, 120)) {
        res_->fail("design never reached the " + w_.name + " rung");
        return;
    }
    res_->samples["setup_s"].push_back(now_s() - t_setup);
    if (!settle(rejected, 120)) {
        res_->fail("fabric compile never finished");
        return;
    }

    // Steady state on the base design, then the edits. Each edit runs for
    // two of its print periods afterwards, so its first line must appear.
    if (!run_batches()) {
        return;
    }
    if (w_.stream) {
        drain();
    }
    const uint64_t edit_ticks = (w_.stream ? 2 : 128) << w_.status_log2;
    for (const Probe& e : edits_) {
        ++res_->attempted;
        before = rt_->transitions().size();
        rejected = rejections();
        const double t_edit = now_s();
        if (!rt_->eval(design_->edit_source(e), &err)) {
            res_->fail("edit eval rejected: " + err);
            return;
        }
        if (!wait_for_rung(before, 120)) {
            res_->fail("edit never reached the " + w_.name + " rung");
            return;
        }
        res_->samples["edit_ms"].push_back((now_s() - t_edit) * 1e3);
        if (!settle(rejected, 120)) {
            res_->fail("fabric compile never finished");
            return;
        }
        rt_->run_for_ticks(edit_ticks);
    }
    std::string why;
    if (!design_->check(lines_, edits_, rt_->virtual_ticks(),
                        rt_->fifo_bytes_consumed(), &why)) {
        res_->fail(why);
    }
}

// ---------------------------------------------------------------------------
// The layer ledger (--trace 1): the session design through each layer.
// ---------------------------------------------------------------------------

/// Counts the interpreter's $display lines (the rung formats and routes
/// them; the ledger only needs them formatted).
class LineCounter : public cascade::sim::SystemTaskHandler {
  public:
    void on_display(const std::string&) override { ++lines; }
    void on_write(const std::string&) override { ++lines; }
    void on_finish() override {}
    uint64_t current_time() const override { return 0; }
    uint64_t lines = 0;
};

/// Runs \p tick(batch) once untimed (first-touch of the code and state),
/// then repeatedly for ~\p wall_s; appends each batch's ns per clock tick
/// (\p tick returns the ticks it ran) to \p out.
template <typename TickFn>
void
time_ticks(TickFn tick, uint64_t batch, double wall_s,
           std::vector<double>* out)
{
    tick(batch);
    const double end = now_s() + wall_s;
    do {
        const double t0 = now_s();
        const uint64_t ran = tick(batch);
        out->push_back((now_s() - t0) * 1e9 / static_cast<double>(ran));
    } while (now_s() < end);
}

/// Turns the named net declarations of \p m into ports.
bool
promote_pins(cascade::verilog::ModuleDecl* m,
             const std::vector<std::pair<std::string, bool>>& pins)
{
    using namespace cascade::verilog;
    for (const auto& [name, is_input] : pins) {
        bool found = false;
        for (auto it = m->items.begin(); it != m->items.end() && !found;
             ++it) {
            if ((*it)->kind != ItemKind::NetDecl) {
                continue;
            }
            auto* nd = static_cast<NetDecl*>(it->get());
            for (auto d = nd->decls.begin(); d != nd->decls.end(); ++d) {
                if (d->name != name) {
                    continue;
                }
                Port port;
                port.name = name;
                port.dir = is_input ? PortDir::Input : PortDir::Output;
                port.range = nd->range.clone();
                m->ports.push_back(std::move(port));
                nd->decls.erase(d);
                if (nd->decls.empty()) {
                    m->items.erase(it);
                }
                found = true;
                break;
            }
        }
        if (!found) {
            return false;
        }
    }
    return true;
}

void
run_ledger(const Workload& w, const Design& design, Results* res)
{
    using namespace cascade;
    auto& s = res->samples;
    ++res->attempted;
    Diagnostics diags;
    const auto failed = [&](const std::string& what) {
        res->fail("ledger " + what + ": " + diags.str());
    };

    verilog::ModuleLibrary lib;
    for (auto& m : verilog::parse(stdlib::stdlib_source(), &diags).modules) {
        lib.add(std::move(m));
    }
    const std::string src =
        "module Root;\nClock clk();\n" + design.repl_source() + "endmodule\n";
    double t = now_s();
    auto unit = verilog::parse(src, &diags);
    s["parse_us"].push_back((now_s() - t) * 1e6);
    if (diags.has_errors() || unit.modules.empty()) {
        return failed("parse");
    }

    // The runtime's hardware-rung lowering of the REPL items (as in its
    // launch_compile): stdlib instances inlined, their peripheral pin nets
    // promoted to ports, the user subprogram split out and wrapped.
    t = now_s();
    auto merged =
        ir::inline_hierarchy(*unit.modules[0], lib, {"Clock"}, &diags);
    if (merged == nullptr || !promote_pins(merged.get(), design.pins())) {
        return failed("inline");
    }
    auto subs = ir::split_program(*merged, lib, {"Clock"}, &diags);
    const ir::Subprogram* user = nullptr;
    std::string clock_path;
    for (const auto& sub : subs) {
        if (sub.path == "root") {
            user = &sub;
        } else if (sub.module_name == "Clock") {
            clock_path = sub.path;
        }
    }
    if (user == nullptr) {
        return failed("split");
    }
    std::vector<std::string> port_names;
    std::vector<bool> port_is_input;
    std::string clock_port;
    for (size_t p = 0; p < user->source->ports.size(); ++p) {
        port_names.push_back(user->source->ports[p].name);
        port_is_input.push_back(user->source->ports[p].dir ==
                                verilog::PortDir::Input);
        if (user->bindings[p].global_net == clock_path + ".val") {
            clock_port = user->bindings[p].port;
        }
    }
    const double t_split = now_s() - t;
    verilog::Elaborator elab(&diags);
    t = now_s();
    std::shared_ptr<const verilog::ElaboratedModule> em =
        elab.elaborate(*user->source, user->params);
    s["elaborate_us"].push_back((now_s() - t) * 1e6);
    if (em == nullptr) {
        return failed("elaborate");
    }
    t = now_s();
    ir::WrapperMap map;
    auto wrapper = ir::generate_hw_wrapper(*em, clock_port, &map, &diags);
    if (wrapper == nullptr) {
        return failed("wrapper");
    }
    auto wrapped = elab.elaborate(*wrapper);
    s["lower_us"].push_back((now_s() - t + t_split) * 1e6);
    if (wrapped == nullptr) {
        return failed("wrapper elaborate");
    }

    fpga::CompileOptions copts;
    copts.effort = w.options.compile_effort;
    copts.target_clock_mhz = w.options.device_clock_mhz;
    const fpga::CompileResult compiled = fpga::compile(*wrapped, copts);
    if (!compiled.ok) {
        res->fail("ledger compile: " + compiled.error);
        return;
    }
    const fpga::CompileReport& r = compiled.report;
    s["synth_ms"].push_back(r.synth_seconds * 1e3);
    s["techmap_ms"].push_back(r.techmap_seconds * 1e3);
    s["place_ms"].push_back(r.place_seconds * 1e3);
    s["timing_ms"].push_back(r.timing_seconds * 1e3);
    s["netlist_nodes"].push_back(static_cast<double>(r.netlist_nodes));
    s["mapped_les"].push_back(static_cast<double>(r.area.les));
    s["anneal_moves"].push_back(static_cast<double>(r.anneal_moves));
    // Codegen alone; jit_build_ms repeats it inside JitKernel::create and
    // adds the system compiler and dlopen.
    t = now_s();
    const std::string kernel_src = jit::generate_source(*compiled.netlist);
    s["codegen_ms"].push_back((now_s() - t) * 1e3);
    std::string err;
    t = now_s();
    auto kernel = jit::JitKernel::create(compiled.netlist, &err);
    s["jit_build_ms"].push_back((now_s() - t) * 1e3);
    if (kernel == nullptr) {
        res->fail("ledger jit build: " + err);
        return;
    }

    // Each evaluator ticks for 0.3 s, the workload rung's own for as long as
    // the session's batches run, so its fastest batch compares with theirs.
    const auto wall = [&](bool (*rung)(Location)) {
        return w.on_rung == rung ? w.tick_s : 0.3;
    };

    // The interpreter rung's evaluator on the unwrapped subprogram.
    LineCounter printed;
    sim::ModuleInterpreter interp(em, &printed);
    interp.run_initials();
    const BitVector hi(1, 1);
    const BitVector lo(1, 0);
    uint64_t interp_ticks = 0;
    const auto interp_tick = [&](uint64_t n) {
        for (uint64_t i = 0; i < n; ++i) {
            for (const BitVector* level : {&hi, &lo}) {
                interp.set_input(clock_port, *level);
                interp.evaluate();
                while (interp.there_are_updates()) {
                    interp.update();
                    interp.evaluate();
                }
            }
        }
        interp_ticks += n;
        return n;
    };
    time_ticks(interp_tick, 64, wall(rung_software), &s["interp_tick_ns"]);

    // The jit and fabric rungs' evaluator: the hardware-engine stub's open
    // loop over the wrapped netlist, on the bitstream and on the kernel.
    const double mhz = w.options.device_clock_mhz;
    const double mmio = w.options.mmio_latency_s;
    runtime::HwEngine on_bitstream(
        std::make_unique<fpga::Bitstream>(compiled.netlist), map, port_names,
        port_is_input, nullptr, mhz, mmio);
    runtime::HwEngine on_kernel(std::move(kernel), map, port_names,
                                port_is_input, nullptr, mhz, mmio);
    std::map<runtime::HwEngine*, uint64_t> toggles;
    const auto open_loop = [&](runtime::HwEngine& eng) {
        return [&](uint64_t n) {
            uint64_t ran = 0;
            for (int stalls = 0; ran < 2 * n && stalls < 4;) {
                const uint64_t itrs = eng.open_loop(2 * n - ran);
                ran += itrs;
                stalls = itrs == 0 ? stalls + 1 : 0;
            }
            toggles[&eng] += ran;
            return std::max<uint64_t>(1, ran / 2);
        };
    };
    time_ticks(open_loop(on_bitstream), 64 << 2, wall(rung_fabric),
               &s["bitstream_tick_ns"]);
    time_ticks(open_loop(on_kernel), 64 << 6, wall(rung_jit),
               &s["kernel_tick_ns"]);

    // Each evaluator's state must match the model after its ticks.
    if (const auto* miner = dynamic_cast<const Miner*>(&design)) {
        const auto expect = [&](const char* who, uint64_t ticks,
                                const BitVector& nonce,
                                const BitVector& hits) {
            const uint64_t n = ticks / 64;
            if (nonce.to_uint64() != n ||
                hits.to_uint64() != miner->golden_below(n)) {
                res->fail(std::string("ledger ") + who + ": state after " +
                          std::to_string(ticks) + " ticks disagrees");
            }
        };
        expect("interpreter", interp_ticks, interp.get("nonce"),
               interp.get("hits"));
        for (runtime::HwEngine* eng : {&on_bitstream, &on_kernel}) {
            const uint64_t posedges = (toggles[eng] + 1) / 2;
            expect(eng == &on_kernel ? "jit kernel" : "bitstream", posedges,
                   eng->peek("nonce").value_or(BitVector(32, ~0ull)),
                   eng->peek("hits").value_or(BitVector(32, ~0ull)));
        }
    }
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfdriver --workload "
                 "interp|jit|fabric|stream --seed N --seconds S "
                 "--trace 0|1\n");
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        if (key == "--workload") {
            workload = val;
        } else if (key == "--seed") {
            seed = std::strtoull(val.c_str(), nullptr, 10);
        } else if (key == "--seconds") {
            seconds = std::strtod(val.c_str(), nullptr);
        } else if (key == "--trace") {
            trace = val == "1";
        } else {
            return usage();
        }
    }
    Workload w;
    if (!make_workload(workload, &w) || seconds <= 0) {
        return usage();
    }

    Results res;
    const uint64_t sessions =
        std::max<uint64_t>(1, std::llround(seconds / w.session_s));
    for (uint64_t i = 0; i < sessions && res.failed == 0; ++i) {
        const uint64_t design_seed = seed * 1000003ull + i;
        if (trace) {
            run_ledger(w, *make_design(w, design_seed), &res);
        }
        Session(w, design_seed, &res).run();
    }

    print_results(res);
    return 0;
}
