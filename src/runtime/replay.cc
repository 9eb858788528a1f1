#include "runtime/replay.h"

#include <chrono>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <type_traits>

#include "common/diagnostics.h"
#include "runtime/events.h"
#include "telemetry/trace.h"

namespace cascade::runtime {

namespace {

/// Whether replay compares a \p type event (its events.h row says).
bool
is_compared(const std::string& type)
{
    const EventSpec* spec = find_event(type);
    return spec != nullptr && spec->replay == ReplayClass::Compared;
}

std::vector<uint8_t>
decode_hex(const std::string& hex)
{
    std::vector<uint8_t> out;
    out.reserve(hex.size() / 2);
    for (size_t i = 0; i + 1 < hex.size(); i += 2) {
        unsigned v = 0;
        std::sscanf(hex.c_str() + i, "%2x", &v);
        out.push_back(static_cast<uint8_t>(v));
    }
    return out;
}

/// The in-order divergence detector, attached as the runtime journal's
/// observer. Compares each compared-class event the replay produces
/// against the next compared-class event of the recording.
struct Comparator {
    const std::vector<ReplayLogEvent>* expected;
    std::vector<size_t> compared_idx; ///< indices of compared events
    size_t next = 0;
    ReplayReport* report;

    void
    on_event(const telemetry::Journal::Event& event)
    {
        if (report->diverged || !is_compared(event.type)) {
            return;
        }
        if (next >= compared_idx.size()) {
            report->diverged = true;
            report->divergence_type = event.type;
            report->expected = "<none: recording ended>";
            report->actual = event.data;
            return;
        }
        const ReplayLogEvent& want = (*expected)[compared_idx[next]];
        if (event.type != want.type || event.data != want.data_raw) {
            report->diverged = true;
            report->divergence_seq = want.seq;
            report->divergence_vt = want.vt;
            report->divergence_type = want.type;
            report->expected = want.type + " " + want.data_raw;
            report->actual = event.type + " " + event.data;
            return;
        }
        ++next;
        ++report->outputs_compared;
    }
};

/// The replay oracle: every decision the recorded session took, at the
/// scheduler iteration it took it. Builds still run for real (placement
/// with the recorded seed; codegen is content-addressed), but are acted
/// on only where the recording acted on them.
class ReplayOracle : public Runtime::Oracle {
  public:
    ReplayOracle(const ReplayLog& log, telemetry::Histogram* wait_ns)
        : wait_ns_(wait_ns)
    {
        for (const ReplayLogEvent& ev : log.events) {
            const uint64_t version = ev.data.get_u64("version");
            if (ev.type == "adopt" || ev.type == "compile.rejected") {
                fabric_points_.push_back(
                    {ev.data.get_u64("iteration"), version});
                if (ev.type == "compile.rejected") {
                    rejections_[version] = ev.data.get_str("error");
                }
            } else if (ev.type == "jit.adopt" ||
                       ev.type == "jit.unavailable") {
                jit_points_.push_back(
                    {ev.data.get_u64("iteration"), version});
                if (ev.type == "jit.unavailable") {
                    jit_unavailable_.insert(version);
                }
            } else if (ev.type == "openloop.grant") {
                grants_.push_back(ev.data.get_u64("batch"));
            } else if (ev.type == "compile.launch") {
                seeds_[version] = ev.data.get_u64("seed");
            } else if (ev.type == "hypervisor.evict") {
                evictions_.push_back(ev.data.get_u64("iteration"));
            }
        }
    }

    bool
    act_now(Build kind, uint64_t version, uint64_t iteration,
            const std::function<bool(double)>& ready) override
    {
        std::deque<Point>& points =
            kind == Build::Jit ? jit_points_ : fabric_points_;
        if (points.empty() || points.front().iteration != iteration) {
            return false;
        }
        const uint64_t recorded = points.front().version;
        points.pop_front();
        if (recorded != version) {
            return false; // no such build in flight: the replay diverges
        }
        // Block, bounded, until the pinned build finishes.
        TELEM_SPAN_HIST("compile.wait", wait_ns_);
        const auto t0 = std::chrono::steady_clock::now();
        while (std::chrono::steady_clock::now() - t0 <
               std::chrono::seconds(300)) {
            if (ready(0.25)) {
                return true;
            }
        }
        if (Logger::instance().enabled(LogLevel::Error)) {
            Logger::instance().write(
                LogLevel::Error, "replay",
                "v" + std::to_string(version) +
                    " build did not finish within 300s; replay will diverge");
        }
        return false;
    }

    std::optional<std::string>
    forced_failure(Build kind, uint64_t version) override
    {
        // Forced verbatim: hypervisor denials (quota, shared capacity)
        // cannot be re-derived on the exclusive replay device, and the
        // replay host's toolchain may differ from the recording's.
        if (kind == Build::Jit) {
            if (jit_unavailable_.count(version) != 0) {
                return std::string("unavailable in the recorded session");
            }
            return std::nullopt;
        }
        const auto it = rejections_.find(version);
        if (it == rejections_.end()) {
            return std::nullopt;
        }
        return it->second;
    }

    bool
    evict_now(uint64_t iteration, bool) override
    {
        // A recorded eviction may find the program already in software (a
        // hardware debugger fire evicts earlier in the same window); the
        // runtime's relocation is then a no-op.
        bool due = false;
        while (!evictions_.empty() && evictions_.front() <= iteration) {
            evictions_.pop_front();
            due = true;
        }
        return due;
    }

    uint64_t
    placement_seed(uint64_t version, uint64_t derived) override
    {
        const auto it = seeds_.find(version);
        return it != seeds_.end() ? it->second : derived;
    }

    uint64_t
    open_loop_grant(uint64_t adaptive) override
    {
        // Grant sizes were tuned against the recording host's wall clock.
        if (grants_.empty()) {
            return adaptive;
        }
        const uint64_t grant = grants_.front();
        grants_.pop_front();
        return grant;
    }

  private:
    struct Point {
        uint64_t iteration = 0; ///< scheduler iteration of the decision
        uint64_t version = 0;   ///< program version decided on
    };
    telemetry::Histogram* wait_ns_;
    std::deque<Point> fabric_points_; ///< adoptions + rejections
    std::deque<Point> jit_points_;    ///< jit adoptions + unavailables
    std::set<uint64_t> jit_unavailable_;
    std::map<uint64_t, std::string> rejections_;
    std::deque<uint64_t> grants_;
    std::map<uint64_t, uint64_t> seeds_;
    std::deque<uint64_t> evictions_;
};

} // namespace

bool
load_journal(const std::string& path, ReplayLog* out, std::string* err)
{
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
        if (err != nullptr) {
            *err = "cannot open '" + path + "'";
        }
        return false;
    }
    std::string text;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
        text.append(buf, n);
    }
    std::fclose(f);

    size_t start = 0;
    size_t lineno = 0;
    bool have_header = false;
    while (start < text.size()) {
        size_t end = text.find('\n', start);
        if (end == std::string::npos) {
            end = text.size();
        }
        const std::string line = text.substr(start, end - start);
        start = end + 1;
        ++lineno;
        if (line.empty()) {
            continue;
        }
        telemetry::JsonValue v;
        std::string perr;
        if (!telemetry::parse_json(line, &v, &perr)) {
            if (err != nullptr) {
                *err = path + ":" + std::to_string(lineno) + ": " + perr;
            }
            return false;
        }
        if (!have_header) {
            if (v.get_str("schema") != "cascade.events.v1") {
                if (err != nullptr) {
                    *err = path + ": not a cascade.events.v1 journal";
                }
                return false;
            }
            const telemetry::JsonValue* h = v.find("header");
            if (h != nullptr) {
                out->header = *h;
            }
            have_header = true;
            continue;
        }
        ReplayLogEvent ev;
        ev.seq = v.get_u64("seq");
        ev.vt = v.get_u64("vt");
        ev.type = v.get_str("type");
        const telemetry::JsonValue* d = v.find("data");
        if (d != nullptr) {
            ev.data = *d;
        }
        // The payload's exact bytes: event_json() writes "data" last, so
        // the raw text runs from after the key to the line's final '}'.
        const size_t pos = line.find("\"data\":");
        if (pos != std::string::npos && line.size() > pos + 8) {
            ev.data_raw = line.substr(pos + 7, line.size() - pos - 8);
        }
        out->events.push_back(std::move(ev));
    }
    if (!have_header) {
        if (err != nullptr) {
            *err = path + ": empty journal";
        }
        return false;
    }
    return true;
}

Runtime::Options
options_from_header(const telemetry::JsonValue& header)
{
    Runtime::Options o;
    Runtime::Options::for_each_journaled(o, [&header](const char* key,
                                                      auto& value) {
        using T = std::decay_t<decltype(value)>;
        if constexpr (std::is_same_v<T, bool>) {
            value = header.get_bool(key, value);
        } else if constexpr (std::is_same_v<T, double>) {
            value = header.get_num(key, value);
        } else {
            value = header.get_u64(key, value);
        }
    });
    return o;
}

ReplayReport
replay_into(Runtime* rt, const ReplayLog& log, const ReplayOptions& opts)
{
    ReplayReport report;

    rt->set_oracle(std::make_unique<ReplayOracle>(
        log, rt->telemetry().histogram("compile.wait_ns")));
    report.loaded = true;

    if (!opts.record_path.empty()) {
        std::string rerr;
        if (!rt->start_recording(opts.record_path, &rerr)) {
            report.error = "cannot re-record: " + rerr;
            return report;
        }
    }

    Comparator cmp;
    cmp.expected = &log.events;
    cmp.report = &report;
    for (size_t i = 0; i < log.events.size(); ++i) {
        if (is_compared(log.events[i].type)) {
            cmp.compared_idx.push_back(i);
        }
    }
    rt->journal().set_observer(
        [&cmp](const telemetry::Journal::Event& ev) { cmp.on_event(ev); });

    // Re-execute the recorded inputs in order. Compared events emitted by
    // these calls flow through the observer above; feeding stops at the
    // first divergence (the session has left the recorded trajectory).
    for (const ReplayLogEvent& ev : log.events) {
        if (report.diverged) {
            break;
        }
        const std::string& t = ev.type;
        if (t == "eval") {
            rt->eval(ev.data.get_str("src"));
        } else if (t == "api.step") {
            const uint64_t steps = ev.data.get_u64("n");
            for (uint64_t i = 0; i < steps && !report.diverged; ++i) {
                rt->step();
            }
        } else if (t == "api.run") {
            rt->run(ev.data.get_u64("n"));
        } else if (t == "api.run_ticks") {
            rt->run_for_ticks(ev.data.get_u64("n"));
        } else if (t == "api.wait_hw") {
            // A recorded timeout is not re-waited (it proved nothing
            // adopted); a recorded success blocks until the pinned
            // adoption fires.
            if (ev.data.get_bool("ok")) {
                rt->wait_for_hardware(opts.hardware_wait_s);
            }
        } else if (t == "api.set_pad") {
            rt->set_pad(ev.data.get_u64("value"));
        } else if (t == "api.fifo_push") {
            rt->fifo_push(decode_hex(ev.data.get_str("hex")));
        } else if (t == "api.led") {
            const BitVector led = rt->led_state();
            if (led.to_uint64() != ev.data.get_u64("value")) {
                report.diverged = true;
                report.divergence_seq = ev.seq;
                report.divergence_vt = ev.vt;
                report.divergence_type = t;
                report.expected = t + " " + ev.data_raw;
                report.actual =
                    t + " " +
                    JsonWriter().num("value", led.to_uint64()).build();
            }
        } else if (t == "api.vcd") {
            rt->vcd_open(ev.data.get_str("path"));
        } else if (t == "api.vcd_close") {
            rt->close_vcd();
        } else if (t == "api.probe") {
            rt->add_probe(ev.data.get_str("name"));
        } else if (t == "api.unprobe") {
            rt->remove_probe(ev.data.get_str("name"));
        } else if (t == "api.profiling") {
            rt->set_profiling(ev.data.get_bool("on"));
        } else if (t == "api.debug_break") {
            rt->debug_break(ev.data.get_str("signal"),
                            ev.data.get_str("op"),
                            ev.data.get_str("value"));
        } else if (t == "api.debug_watch") {
            rt->debug_watch(ev.data.get_str("signal"));
        } else if (t == "api.debug_delete") {
            rt->debug_delete(ev.data.get_u64("id"));
        } else if (t == "api.debug_step") {
            rt->debug_step(ev.data.get_u64("n"));
        } else if (t == "api.debug_continue") {
            rt->debug_continue();
        } else if (t == "api.debug_peek") {
            rt->debug_peek(ev.data.get_str("signal"));
        } else {
            continue; // compared or informational: not an input
        }
        ++report.inputs_fed;
    }

    // The recording may end with compared events the replay never
    // produced (e.g. it recorded an adoption the replay missed).
    if (!report.diverged && cmp.next < cmp.compared_idx.size()) {
        const ReplayLogEvent& want =
            log.events[cmp.compared_idx[cmp.next]];
        report.diverged = true;
        report.divergence_seq = want.seq;
        report.divergence_vt = want.vt;
        report.divergence_type = want.type;
        report.expected = want.type + " " + want.data_raw;
        report.actual = "<missing: replay produced no such event>";
    }

    rt->journal().set_observer(nullptr);
    if (!opts.record_path.empty()) {
        rt->stop_recording();
    }
    report.ok = !report.diverged && report.error.empty();
    return report;
}

ReplayReport
replay_journal(const std::string& path, const ReplayOptions& opts)
{
    ReplayLog log;
    ReplayReport report;
    if (!load_journal(path, &log, &report.error)) {
        return report;
    }
    Runtime rt(options_from_header(log.header));
    if (opts.echo) {
        rt.on_output = [](const std::string& text) {
            std::fputs(text.c_str(), stdout);
            std::fflush(stdout);
        };
    }
    return replay_into(&rt, log, opts);
}

std::string
ReplayReport::summary() const
{
    if (!error.empty()) {
        return "replay failed: " + error;
    }
    if (diverged) {
        return "replay DIVERGED at recorded seq " +
               std::to_string(divergence_seq) + " (vt " +
               std::to_string(divergence_vt) + ", " + divergence_type +
               ")\n  expected: " + expected + "\n  actual:   " + actual;
    }
    return "replay ok: " + std::to_string(inputs_fed) +
           " inputs re-fed, " + std::to_string(outputs_compared) +
           " output events matched";
}

} // namespace cascade::runtime
