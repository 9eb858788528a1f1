#include "runtime/capture.h"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <set>

#include "runtime/hw_engine.h"
#include "runtime/runtime.h"

namespace cascade::runtime {


namespace {

/// The writer's view of one window's values (null = x).
std::vector<const BitVector*>
pointers(const std::vector<std::optional<BitVector>>& values)
{
    std::vector<const BitVector*> out;
    out.reserve(values.size());
    for (const auto& v : values) {
        out.push_back(v.has_value() ? &*v : nullptr);
    }
    return out;
}

/// FNV digest of a dump without its $date line ("" on IO error): it
/// depends only on the signal data, so a replay reproduces it.
std::string
vcd_digest_hex(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        return "";
    }
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    if (text.rfind("$date", 0) == 0) {
        const size_t eol = text.find('\n');
        text.erase(0, eol == std::string::npos ? text.size() : eol + 1);
    }
    return telemetry::digest_hex(text);
}

} // namespace

std::optional<BitVector>
Capture::read(const std::string& name, std::string* err) const
{
    const int ni = rt_.find_net(name);
    if (ni >= 0 && rt_.nets_[static_cast<size_t>(ni)].has_value) {
        return rt_.nets_[static_cast<size_t>(ni)].value;
    }
    std::optional<BitVector> v;
    if (const Runtime::Slot* user = rt_.user_slot(); user != nullptr) {
        v = user->engine->peek(name);
    }
    if (!v.has_value() && err != nullptr) {
        *err = "unknown signal '" + name + "'";
    }
    return v;
}

std::optional<BitVector>
Capture::sampled(const std::string& name) const
{
    if (!ring_.empty() && ring_iteration_ == rt_.iterations_) {
        const auto it =
            std::lower_bound(ring_names_.begin(), ring_names_.end(), name);
        if (it != ring_names_.end() && *it == name) {
            return ring_.back().second[static_cast<size_t>(
                it - ring_names_.begin())];
        }
    }
    return read(name);
}

std::vector<std::string>
Capture::probe_set(bool every_signal) const
{
    if (declared_) {
        return signals_;
    }
    std::vector<std::string> names = probes_;
    if (probe_all_ || names.empty()) {
        if (every_signal) {
            add_every_signal(&names);
        } else {
            for (const Debugger::Point& p : rt_.debugger_.points()) {
                names.push_back(p.signal);
            }
        }
    }
    std::sort(names.begin(), names.end());
    names.erase(std::unique(names.begin(), names.end()), names.end());
    return names;
}

void
Capture::add_every_signal(std::vector<std::string>* names) const
{
    for (const Runtime::Net& net : rt_.nets_) {
        if (net.has_value) {
            names->push_back(net.name);
        }
    }
    // A subprogram's snapshot also lists port images of global nets
    // (cross-module refs promoted to ports, `clk.val` -> `clk_val`). The
    // hardware wrapper exposes those as readable slots while the
    // interpreter does not; skip them so the expanded set — and with it
    // the VCD header — is identical in both engines. The net itself is
    // already in the list above.
    std::set<std::string> port_images;
    for (const Runtime::Net& net : rt_.nets_) {
        std::string flat = net.name;
        if (flat.rfind("root.", 0) == 0) {
            flat.erase(0, 5);
        }
        std::replace(flat.begin(), flat.end(), '.', '_');
        port_images.insert(std::move(flat));
    }
    if (const Runtime::Slot* user = rt_.user_slot(); user != nullptr) {
        for (const auto& [reg, value] : user->engine->get_state().regs) {
            if (port_images.count(reg) == 0) {
                names->push_back(reg);
            }
        }
    }
}

bool
Capture::add_probe(const std::string& name, std::string* err)
{
    if (declared_) {
        if (err != nullptr) {
            *err = "dump already started; probes are frozen (open a new "
                   "file with :vcd first)";
        }
        return false;
    }
    if (!read(name, err).has_value()) {
        return false;
    }
    if (std::find(probes_.begin(), probes_.end(), name) == probes_.end()) {
        probes_.push_back(name);
    }
    rt_.emit(EventKind::ApiProbe, JsonWriter().str("name", name));
    return true;
}

bool
Capture::remove_probe(const std::string& name)
{
    const auto it = std::find(probes_.begin(), probes_.end(), name);
    if (it == probes_.end()) {
        return false;
    }
    probes_.erase(it);
    rt_.emit(EventKind::ApiUnprobe, JsonWriter().str("name", name));
    return true;
}

bool
Capture::open(const std::string& path, std::string* err)
{
    rt_.flush_api_steps();
    if (declared_) {
        if (err != nullptr) {
            *err = "a dump is already in progress (signal set is frozen)";
        }
        return false;
    }
    if (!vcd_.open(path, err)) {
        return false;
    }
    rt_.emit(EventKind::ApiVcd, JsonWriter().str("path", path));
    path_ = path;
    bytes_seen_ = 0; // the writer's byte counter restarted at zero
    capture_ = true;
    return true;
}

void
Capture::close()
{
    if (vcd_.is_open()) {
        rt_.emit(EventKind::ApiVcdClose);
        const uint64_t before = vcd_.bytes_written();
        vcd_.close();
        rt_.m_.vcd_bytes->inc(vcd_.bytes_written() - before);
        bytes_seen_ = vcd_.bytes_written();
        rt_.emit(EventKind::VcdDigest,
                 JsonWriter()
                     .str("path", path_)
                     .num("bytes", vcd_.bytes_written())
                     .str("digest", vcd_digest_hex(path_)));
    }
    capture_ = false;
    declared_ = false;
    probe_all_ = false;
    pending_off_ = false;
    pending_on_ = false;
    signals_.clear();
    path_.clear();
}

void
Capture::on_dumpfile(const std::string& path)
{
    if (declared_) {
        rt_.enqueue_interrupt(
            "vcd: $dumpfile ignored, dump already started\n");
        return;
    }
    path_ = path;
}

void
Capture::on_dumpvars()
{
    probe_all_ = true;
    capture_ = true;
}

void
Capture::on_dumpoff()
{
    // Applied at the next end-of-timestep sample point, matching the
    // once-per-timestep granularity of the dump itself.
    pending_off_ = true;
    pending_on_ = false;
}

void
Capture::on_dumpon()
{
    pending_on_ = true;
    pending_off_ = false;
}

void
Capture::declare()
{
    // Freeze point: the set is sorted, so the header is deterministic
    // for a given program regardless of engine.
    for (std::string& name : probe_set(true)) {
        const std::optional<BitVector> v = read(name);
        if (!v.has_value() && rt_.find_net(name) < 0) {
            continue; // vanished since add_probe (program re-eval)
        }
        if (vcd_.declare(name, v.has_value() ? v->width() : 1) >= 0) {
            signals_.push_back(std::move(name));
        }
    }
    declared_ = true;
}

void
Capture::sample(bool ring)
{
    if (!capture_ && !ring) {
        return;
    }
    if (capture_ && !vcd_.is_open()) {
        // $dumpvars without an explicit $dumpfile falls back to a default.
        const std::string path = path_.empty() ? "cascade.vcd" : path_;
        std::string err;
        if (vcd_.open(path, &err)) {
            path_ = path;
        } else {
            rt_.enqueue_interrupt("vcd: " + err + "\n");
            capture_ = false;
        }
    }
    if (capture_ && !declared_) {
        declare();
    }
    const uint64_t time = rt_.clock_toggles_;
    if (capture_ && pending_off_) {
        pending_off_ = false;
        vcd_.dump_off(time);
    }
    if (ring) {
        std::vector<std::string> names = probe_set(false);
        if (names != ring_names_) {
            ring_.clear();
            ring_names_ = std::move(names);
        }
    }
    const bool dump = capture_ && (pending_on_ || vcd_.dumping());
    if (dump || ring) {
        // While a dump runs the ring's signals are the dump's, so this one
        // read renders the same change records in both.
        Values values;
        for (const std::string& name : declared_ ? signals_ : ring_names_) {
            values.push_back(read(name));
        }
        if (dump) {
            const auto ptrs = pointers(values);
            if (pending_on_) {
                pending_on_ = false;
                vcd_.dump_on(time, ptrs);
            }
            vcd_.sample(time, ptrs);
            rt_.m_.vcd_samples->inc();
        }
        if (ring) {
            ring_.emplace_back(time, std::move(values));
            ring_iteration_ = rt_.iterations_;
            if (ring_.size() > kRingDepth) {
                ring_.pop_front();
            }
        }
    }
    if (capture_) {
        vcd_.flush();
        const uint64_t bytes = vcd_.bytes_written();
        if (bytes > bytes_seen_) {
            rt_.m_.vcd_bytes->inc(bytes - bytes_seen_);
            bytes_seen_ = bytes;
        }
    }
}

void
Capture::dump_window(const std::string& path, const HwEngine* hw)
{
    sim::VcdWriter window;
    std::string err;
    if (!window.open(path, &err)) {
        rt_.log_event(LogLevel::Warn, "debug",
                      "pre-trigger window dump failed: " + err);
        return;
    }
    size_t samples = 0;
    if (hw != nullptr) {
        for (const auto& p : hw->debug_probes()) {
            window.declare(p.name, p.width);
        }
        for (const auto& s : hw->debug_ring()) {
            std::vector<const BitVector*> values;
            for (const BitVector& v : s.values) {
                values.push_back(&v);
            }
            window.sample(s.cycle, values);
        }
        samples = hw->debug_ring().size();
    } else {
        for (size_t i = 0; i < ring_names_.size(); ++i) {
            uint32_t width = 1;
            for (const auto& [time, values] : ring_) {
                if (values[i].has_value()) {
                    width = values[i]->width();
                    break;
                }
            }
            window.declare(ring_names_[i], width);
        }
        for (const auto& [time, values] : ring_) {
            window.sample(time, pointers(values));
        }
        samples = ring_.size();
    }
    window.close();
    rt_.emit(EventKind::DebugWindow,
             JsonWriter()
                 .str("path", path)
                 .num("samples", samples)
                 .str("source", hw != nullptr ? "hw" : "sw")
                 .str("digest", vcd_digest_hex(path)));
    rt_.enqueue_interrupt("debug: pre-trigger window (" +
                          std::to_string(samples) + " samples) -> " + path +
                          "\n");
}

} // namespace cascade::runtime
