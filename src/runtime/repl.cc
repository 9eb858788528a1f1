#include "runtime/repl.h"

#include <cstdlib>
#include <istream>
#include <ostream>
#include <regex>
#include <sstream>

#include "common/check.h"
#include "runtime/replay.h"
#include "telemetry/journal.h"
#include "telemetry/sync.h"
#include "telemetry/trace.h"

namespace cascade::runtime {

Repl::Repl(Runtime* runtime, std::ostream* out)
    : runtime_(runtime), out_(*out)
{
    CASCADE_CHECK(runtime != nullptr && out != nullptr);
    runtime_->on_output = [this](const std::string& text) {
        out_ << text;
    };
}

const std::string&
Repl::prompt() const
{
    static const std::string p = "CASCADE >>> ";
    return p;
}

bool
Repl::buffer_complete() const
{
    // Count module/endmodule nesting and require a terminated final item.
    // This is a line-accumulation heuristic, not a parse: the parser is
    // the authority once we submit.
    int depth = 0;
    std::string token;
    bool last_semi_or_end = false;
    for (size_t i = 0; i <= buffer_.size(); ++i) {
        const char c = i < buffer_.size() ? buffer_[i] : ' ';
        if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
            c == '$') {
            token += c;
            continue;
        }
        if (token == "module" || token == "begin" || token == "case" ||
            token == "casez" || token == "casex" || token == "function") {
            ++depth;
        } else if (token == "endmodule" || token == "end" ||
                   token == "endcase" || token == "endfunction") {
            --depth;
            last_semi_or_end = true;
        } else if (!token.empty()) {
            last_semi_or_end = false;
        }
        token.clear();
        if (c == ';') {
            last_semi_or_end = true;
        } else if (!std::isspace(static_cast<unsigned char>(c))) {
            last_semi_or_end = false;
        }
    }
    return depth <= 0 && last_semi_or_end;
}

bool
Repl::run_meta_command(const std::string& line)
{
    std::istringstream words(line);
    std::string cmd;
    std::string arg;
    std::string arg2;
    std::string arg3;
    words >> cmd >> arg >> arg2 >> arg3;
    if (cmd == ":stats" && arg == "json") {
        out_ << runtime_->stats_json() << "\n";
    } else if (cmd == ":stats" && arg == "reset") {
        runtime_->reset_stats();
        out_ << "stats reset (registries, sync sites, time series, "
                "SLO windows)\n";
    } else if (cmd == ":stats") {
        out_ << runtime_->stats_table();
    } else if (cmd == ":profile" && arg == "json") {
        out_ << runtime_->profiler().profile_json() << "\n";
    } else if (cmd == ":profile" && (arg == "on" || arg == "off")) {
        runtime_->set_profiling(arg == "on");
        out_ << "profiling " << arg
             << (arg == "on"
                     ? " (interpreter timing + fabric activity)\n"
                     : " (trigger counts remain collected)\n");
    } else if (cmd == ":profile" && arg == "flame") {
        if (arg2.empty()) {
            out_ << "usage: :profile flame <file>\n";
        } else {
            std::string err;
            if (runtime_->profiler().write_flamegraph(arg2, &err)) {
                out_ << "collapsed stacks written to " << arg2
                     << " (feed to flamegraph.pl or speedscope)\n";
            } else {
                out_ << "cannot write flamegraph: " << err << "\n";
            }
        }
    } else if (cmd == ":profile") {
        out_ << runtime_->profiler().profile_table();
    } else if (cmd == ":fabric") {
        out_ << runtime_->fabric_table();
    } else if (cmd == ":top") {
        out_ << runtime_->top_table();
    } else if (cmd == ":requests" && arg == "json") {
        out_ << runtime_->request_tracker().json();
    } else if (cmd == ":requests") {
        out_ << runtime_->request_tracker().table();
    } else if (cmd == ":why") {
        char* end = nullptr;
        const unsigned long long id =
            std::strtoull(arg.c_str(), &end, 10);
        if (arg.empty() || end == nullptr || *end != '\0') {
            out_ << "usage: :why <request id> (see :requests)\n";
        } else {
            out_ << runtime_->request_tracker().why(id);
        }
    } else if (cmd == ":contention" && arg == "json") {
        out_ << telemetry::SyncRegistry::global().contention_json()
             << "\n";
    } else if (cmd == ":contention" && arg == "reset") {
        telemetry::SyncRegistry::global().reset();
        out_ << "contention stats reset\n";
    } else if (cmd == ":contention") {
        out_ << telemetry::SyncRegistry::global().contention_table();
    } else if (cmd == ":monitor" && arg == "off") {
        if (runtime_->monitor().running()) {
            runtime_->monitor().stop();
            out_ << "monitor stopped\n";
        } else {
            out_ << "monitor is not running\n";
        }
    } else if (cmd == ":monitor") {
        Monitor& monitor = runtime_->monitor();
        char* end = nullptr;
        const long port = std::strtol(arg.c_str(), &end, 10);
        std::string err;
        if (arg.empty() ? !monitor.running()
                        : (*end != '\0' || port < 0 || port > 65535)) {
            out_ << "usage: :monitor <port|off>\n";
        } else if (arg.empty() ||
                   monitor.start(static_cast<uint16_t>(port), &err)) {
            out_ << "monitoring on 127.0.0.1:" << monitor.port()
                 << " (/metrics /healthz /slo /timeseries /debug /events "
                    "/requests)\n";
        } else {
            out_ << "cannot start monitor: " << err << "\n";
        }
    } else if (cmd == ":slo" && arg == "json") {
        out_ << runtime_->monitor().slo_json() << "\n";
    } else if (cmd == ":slo") {
        out_ << runtime_->monitor().slo_table();
    } else if (cmd == ":trace") {
        if (arg.empty()) {
            out_ << "usage: :trace <file>\n";
        } else if (telemetry::Tracer::global().write_chrome_json(arg)) {
            out_ << "trace written to " << arg
                 << " (load in chrome://tracing or Perfetto)\n";
        } else {
            out_ << "cannot write " << arg << "\n";
        }
    } else if (cmd == ":probe") {
        if (arg.empty()) {
            out_ << "usage: :probe <signal>\n";
        } else {
            std::string err;
            if (runtime_->add_probe(arg, &err)) {
                out_ << "probing " << arg << "\n";
            } else {
                out_ << "cannot probe " << arg << ": " << err << "\n";
            }
        }
    } else if (cmd == ":unprobe") {
        if (arg.empty()) {
            out_ << "usage: :unprobe <signal>\n";
        } else if (runtime_->remove_probe(arg)) {
            out_ << "unprobed " << arg << "\n";
        } else {
            out_ << "no probe on " << arg << "\n";
        }
    } else if (cmd == ":vcd") {
        if (arg.empty()) {
            out_ << "usage: :vcd <file>\n";
        } else {
            std::string err;
            if (runtime_->vcd_open(arg, &err)) {
                out_ << "vcd capture to " << arg
                     << " (probed signals; all if none probed)\n";
            } else {
                out_ << "cannot open vcd: " << err << "\n";
            }
        }
    } else if (cmd == ":record") {
        if (arg.empty()) {
            if (runtime_->recording()) {
                out_ << "recording to " << runtime_->journal().path()
                     << "\n";
            } else {
                out_ << "not recording (usage: :record <file>, "
                        ":record stop)\n";
            }
        } else if (arg == "stop") {
            if (runtime_->recording()) {
                const std::string path = runtime_->journal().path();
                runtime_->stop_recording();
                out_ << "recording stopped (" << path << ")\n";
            } else {
                out_ << "not recording\n";
            }
        } else {
            std::string err;
            if (runtime_->start_recording(arg, &err)) {
                out_ << "recording session to " << arg
                     << " (replay with :replay or --replay)\n";
            } else {
                out_ << "cannot record: " << err << "\n";
            }
        }
    } else if (cmd == ":replay") {
        if (arg.empty()) {
            out_ << "usage: :replay <file>   (re-executes a recorded "
                    "journal in a fresh runtime and reports the "
                    "first divergence, if any)\n";
        } else {
            const ReplayReport report = replay_journal(arg);
            out_ << report.summary() << "\n";
        }
    } else if (cmd == ":break") {
        if (arg.empty() || arg2.empty() || arg3.empty()) {
            out_ << "usage: :break <signal> <op> <value>   (op: == != "
                    "< > <= >=; value: unsigned decimal)\n";
        } else {
            std::string err;
            const uint64_t id = runtime_->debug_break(arg, arg2, arg3, &err);
            if (id != 0) {
                out_ << "breakpoint #" << id << " armed: " << arg
                     << " " << arg2 << " " << arg3
                     << (runtime_->user_location() !=
                                 Location::Software
                             ? " (synthesized into the fabric)"
                             : "")
                     << "\n";
            } else {
                out_ << "cannot break: " << err << "\n";
            }
        }
    } else if (cmd == ":watch") {
        if (arg.empty()) {
            out_ << "usage: :watch <signal>\n";
        } else {
            std::string err;
            const uint64_t id = runtime_->debug_watch(arg, &err);
            if (id != 0) {
                out_ << "watchpoint #" << id << " armed on " << arg
                     << "\n";
            } else {
                out_ << "cannot watch: " << err << "\n";
            }
        }
    } else if (cmd == ":delete") {
        char* end = nullptr;
        const unsigned long long id = std::strtoull(arg.c_str(), &end, 10);
        if (arg.empty() || end == nullptr || *end != '\0') {
            out_ << "usage: :delete <point id> (see :debug)\n";
        } else if (runtime_->debug_delete(id)) {
            out_ << "point #" << id << " deleted\n";
        } else {
            out_ << "no point #" << id << "\n";
        }
    } else if (cmd == ":step") {
        uint64_t n = 1;
        if (!arg.empty()) {
            char* end = nullptr;
            n = std::strtoull(arg.c_str(), &end, 10);
            if (end == nullptr || *end != '\0' || n == 0) {
                out_ << "usage: :step [n]\n";
                return true;
            }
        }
        std::string err;
        if (runtime_->debug_step(n, &err)) {
            out_ << "stepped " << n << " cycle" << (n == 1 ? "" : "s")
                 << "; now at tick " << runtime_->virtual_ticks()
                 << "\n";
        } else {
            out_ << "cannot step: " << err << "\n";
        }
    } else if (cmd == ":continue") {
        if (runtime_->debug_continue()) {
            out_ << "continuing from tick "
                 << runtime_->virtual_ticks() << "\n";
        } else {
            out_ << "not halted\n";
        }
    } else if (cmd == ":peek") {
        if (arg.empty()) {
            out_ << "usage: :peek <signal>\n";
        } else {
            std::string err;
            const auto v = runtime_->debug_peek(arg, &err);
            if (v.has_value()) {
                out_ << arg << " = " << v->to_dec_string() << " (0x"
                     << v->to_hex_string() << ", " << v->width()
                     << " bit" << (v->width() == 1 ? "" : "s")
                     << ")\n";
            } else {
                out_ << "cannot peek: " << err << "\n";
            }
        }
    } else if (cmd == ":debug") {
        out_ << runtime_->debug_table();
    } else if (cmd == ":help") {
        out_ << ":stats          telemetry table (counters, gauges, "
                "histograms, transitions)\n"
                ":stats json     the same snapshot as JSON\n"
                ":stats reset    zero every metric (registries, sync "
                "sites, time series, SLO windows)\n"
                ":profile        per-process profile (trigger counts, "
                "eval time, sw+hw)\n"
                ":profile json   the same profile as JSON\n"
                ":profile on|off toggle timing/fabric instrumentation\n"
                ":profile flame <file>  write collapsed stacks for "
                "flamegraph.pl\n"
                ":fabric         fabric residency: LE utilization, "
                "Fmax, named critical path\n"
                ":requests       recent traced requests (evals, "
                "compiles, interrupts, evictions)\n"
                ":requests json  the same as cascade.requests.v1 "
                "JSON\n"
                ":why <id>       critical-path latency decomposition "
                "of one request\n"
                ":top            fleet view: per-tenant ticks/s, "
                "state, wait-time share\n"
                ":contention     lock/CV wait table ranked by tenant "
                "wait, blocked-on matrix\n"
                ":contention json  the same as cascade.contention.v1 "
                "JSON\n"
                ":contention reset zero the contention registry\n"
                ":monitor <port> serve /metrics /healthz /slo "
                "/timeseries /debug /events /requests on 127.0.0.1\n"
                ":monitor off    stop the monitoring server\n"
                ":slo            SLO status over the rolling window "
                "(breached objectives first)\n"
                ":slo json       the same as cascade.slo.v1 JSON\n"
                ":trace <file>   dump phase spans as Chrome "
                "trace_event JSON\n"
                ":probe <signal> add a waveform probe (net or "
                "register)\n"
                ":unprobe <sig>  remove a probe\n"
                ":vcd <file>     start VCD waveform capture "
                "(GTKWave-compatible)\n"
                ":break <sig> <op> <val>  arm a conditional "
                "breakpoint (synthesized into the fabric when "
                "hardware-resident)\n"
                ":watch <signal> arm a value-change watchpoint\n"
                ":delete <id>    disarm a break/watch point\n"
                ":debug          list armed points and halt state\n"
                ":step [n]       while halted: advance n clock "
                "cycles (default 1)\n"
                ":continue       resume from a halt (re-admits to "
                "hardware when compiled)\n"
                ":peek <signal>  read one live signal value\n"
                ":record <file>  record this session's event journal "
                "(JSONL; fresh sessions only)\n"
                ":record stop    stop recording\n"
                ":replay <file>  deterministically re-execute a "
                "recorded journal and diff outputs\n"
                ":help           this text\n";
    } else {
        out_ << "unknown command '" << cmd
             << "' (try :help)\n";
    }
    return true;
}

bool
Repl::feed(const std::string& text)
{
    runtime_->emit(EventKind::ReplInput,
                   JsonWriter().str("text", text));
    // Meta-commands are line-oriented and only recognized when no Verilog
    // is being accumulated (':' cannot start a Verilog item).
    if (buffer_.find_first_not_of(" \t\r\n") == std::string::npos) {
        const size_t first = text.find_first_not_of(" \t\r\n");
        if (first != std::string::npos && text[first] == ':') {
            buffer_.clear();
            return run_meta_command(text.substr(first));
        }
    }
    buffer_ += text;
    if (buffer_.find_first_not_of(" \t\r\n") == std::string::npos) {
        buffer_.clear();
        return true;
    }
    if (!buffer_complete()) {
        return true; // keep accumulating
    }
    std::string source;
    source.swap(buffer_);
    std::string errors;
    if (!runtime_->eval(source, &errors)) {
        out_ << errors;
        return false;
    }
    return true;
}

bool
Repl::run_batch(std::istream& in, uint64_t max_iterations)
{
    std::string line;
    bool ok = true;
    while (std::getline(in, line)) {
        ok &= feed(line + "\n");
    }
    if (!buffer_.empty()) {
        // Force-submit whatever is left.
        std::string source;
        source.swap(buffer_);
        std::string errors;
        if (!runtime_->eval(source, &errors)) {
            out_ << errors;
            ok = false;
        }
    }
    runtime_->run(max_iterations);
    return ok;
}

} // namespace cascade::runtime
