#include "runtime/profiler.h"

#include <algorithm>
#include <cstdio>

#include "common/json.h"
#include "runtime/sw_engine.h"

namespace cascade::runtime {

void
Profiler::merge(const std::string& instance, const Engine& engine,
                Accum* acc)
{
    const auto* sw = dynamic_cast<const SwEngine*>(&engine);
    if (sw == nullptr) {
        return;
    }
    auto& per_instance = (*acc)[instance];
    for (const sim::ProcessProfile& p : sw->profile()) {
        ProfileEntry& a = per_instance[p.key];
        if (a.label.empty()) {
            a.instance = instance;
            a.key = p.key;
            a.label = p.label;
            a.kind = p.kind;
            a.triggers = p.triggers;
        }
        a.sw_triggers += p.executions;
        a.eval_ns += p.eval_ns;
    }
}

void
Profiler::retire(const std::string& instance, const Engine& engine,
                 const std::vector<ir::PortBinding>& bindings,
                 const std::string& clock_net)
{
    merge(instance, engine, &acc_);
    for (const ir::PortBinding& b : bindings) {
        if (!clock_net.empty() && b.global_net == clock_net) {
            clock_ports_[instance] = b.port;
        }
    }
}

void
Profiler::attribute_hw_ticks(Accum* acc, uint64_t ticks) const
{
    if (ticks == 0 || clock_ports_.empty()) {
        return;
    }
    for (const auto& [instance, clock_port] : clock_ports_) {
        const auto it = acc->find(instance);
        if (it == acc->end()) {
            continue;
        }
        const std::string pos = "posedge " + clock_port;
        const std::string neg = "negedge " + clock_port;
        for (auto& [key, a] : it->second) {
            if (a.triggers.empty()) {
                continue;
            }
            uint64_t matches = 0;
            for (const std::string& t : a.triggers) {
                if (t == pos || t == neg) {
                    ++matches;
                }
            }
            if (matches == a.triggers.size()) {
                // Each virtual tick toggles the clock 0 -> 1 -> 0, so
                // every posedge and every negedge trigger fires exactly
                // once per tick. Processes with non-clock sensitivities
                // get no tick attribution (their fabric activity shows
                // in the :fabric per-source counters instead).
                a.hw_triggers += ticks * matches;
            }
        }
    }
}

std::vector<ProfileEntry>
Profiler::entries(const Live& live) const
{
    // Merge banked accumulators, live interpreter counters, and the open
    // hardware attribution window, all keyed by (instance, canonical
    // printed item) — so counts splice across engine transitions.
    auto acc = acc_;
    for (const auto& [instance, engine] : live.engines) {
        merge(instance, *engine, &acc);
    }
    attribute_hw_ticks(&acc, live.hw_window_ticks);

    std::vector<ProfileEntry> out;
    for (auto& [instance, procs] : acc) {
        for (auto& [key, e] : procs) {
            out.push_back(std::move(e));
        }
    }
    std::sort(out.begin(), out.end(),
              [](const ProfileEntry& l, const ProfileEntry& r) {
                  if (l.eval_ns != r.eval_ns) {
                      return l.eval_ns > r.eval_ns;
                  }
                  if (l.total_triggers() != r.total_triggers()) {
                      return l.total_triggers() > r.total_triggers();
                  }
                  if (l.instance != r.instance) {
                      return l.instance < r.instance;
                  }
                  return l.key < r.key;
              });
    return out;
}

std::vector<ProfileEntry>
Profiler::profile() const
{
    return entries(live_());
}

std::string
Profiler::profile_json() const
{
    const Live live = live_();
    JsonWriter w;
    w.str("schema", "cascade.profile.v1")
        .boolean("profiling", live.profiling)
        .str("location", live.location)
        .num("virtual_ticks", live.virtual_ticks)
        .array("entries");
    for (const ProfileEntry& e : entries(live)) {
        w.object()
            .str("instance", e.instance)
            .str("kind", e.kind)
            .str("label", e.label)
            .str("key", e.key)
            .array("triggers");
        for (const std::string& t : e.triggers) {
            w.str(t);
        }
        w.end()
            .num("sw_triggers", e.sw_triggers)
            .num("hw_triggers", e.hw_triggers)
            .num("total_triggers", e.total_triggers())
            .num("eval_ns", e.eval_ns)
            .end();
    }
    return w.build();
}

std::string
Profiler::profile_table() const
{
    const Live live = live_();
    char line[256];
    std::string out = "cascade profile (timing ";
    out += live.profiling ? "on" : "off";
    out += ", location ";
    out += live.location;
    out += ")\n";
    const auto rows = entries(live);
    if (rows.empty()) {
        out += "  (no processes)\n";
        return out;
    }
    std::snprintf(line, sizeof line, "  %-10s %-10s %12s %12s %11s  %s\n",
                  "instance", "kind", "sw-trig", "hw-trig", "eval-ms",
                  "process");
    out += line;
    for (const ProfileEntry& e : rows) {
        std::snprintf(line, sizeof line,
                      "  %-10s %-10s %12llu %12llu %11.3f  %s\n",
                      e.instance.c_str(), e.kind.c_str(),
                      static_cast<unsigned long long>(e.sw_triggers),
                      static_cast<unsigned long long>(e.hw_triggers),
                      static_cast<double>(e.eval_ns) / 1e6,
                      e.label.c_str());
        out += line;
    }
    return out;
}

bool
Profiler::write_flamegraph(const std::string& path, std::string* err) const
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        if (err != nullptr) {
            *err = "cannot open '" + path + "' for writing";
        }
        return false;
    }
    // Collapsed-stack format: "frame;frame;frame weight" per line, as
    // consumed by flamegraph.pl and speedscope. Weight is wall time when
    // timing was collected, trigger counts otherwise.
    for (const ProfileEntry& e : profile()) {
        const uint64_t weight =
            e.eval_ns != 0 ? e.eval_ns : e.total_triggers();
        if (weight == 0) {
            continue;
        }
        std::string frames = e.instance + ';' + e.kind + ';' + e.label;
        for (size_t i = e.instance.size() + e.kind.size() + 2;
             i < frames.size(); ++i) {
            if (frames[i] == ';') {
                frames[i] = ',';
            }
        }
        std::fprintf(f, "%s %llu\n", frames.c_str(),
                     static_cast<unsigned long long>(weight));
    }
    std::fclose(f);
    return true;
}

} // namespace cascade::runtime
