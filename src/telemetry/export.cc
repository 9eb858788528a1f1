#include "telemetry/export.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/json.h"
#include "telemetry/telemetry.h"

namespace cascade::telemetry {

namespace {

bool
name_char(char c, bool first)
{
    if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
        c == ':') {
        return true;
    }
    return !first && c >= '0' && c <= '9';
}

bool
valid_metric_name(std::string_view name)
{
    if (name.empty()) {
        return false;
    }
    for (size_t i = 0; i < name.size(); ++i) {
        if (!name_char(name[i], i == 0)) {
            return false;
        }
    }
    return true;
}

bool
valid_label_name(std::string_view name)
{
    if (name.empty()) {
        return false;
    }
    for (size_t i = 0; i < name.size(); ++i) {
        const char c = name[i];
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        c == '_' || (i > 0 && c >= '0' && c <= '9');
        if (!ok) {
            return false;
        }
    }
    return true;
}

std::string
format_value(double v)
{
    if (std::isnan(v)) {
        return "NaN";
    }
    if (std::isinf(v)) {
        return v > 0 ? "+Inf" : "-Inf";
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

std::string
prom_sanitize_name(const std::string& name)
{
    std::string out = "cascade_";
    out.reserve(out.size() + name.size());
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == ':';
        out += ok ? c : '_';
    }
    return out;
}

std::string
prom_escape_label(const std::string& value)
{
    std::string out;
    out.reserve(value.size());
    for (const char c : value) {
        switch (c) {
        case '\\': out += "\\\\"; break;
        case '"': out += "\\\""; break;
        case '\n': out += "\\n"; break;
        default: out += c;
        }
    }
    return out;
}

PromWriter::Family*
PromWriter::find(const std::string& name)
{
    for (Family& f : families_) {
        if (f.name == name) {
            return &f;
        }
    }
    return nullptr;
}

void
PromWriter::family(const std::string& name, const std::string& type,
                   const std::string& help)
{
    if (find(name) != nullptr) {
        return;
    }
    families_.push_back(Family{name, type, help, {}});
}

void
PromWriter::sample(const std::string& family, const Labels& labels,
                   double value, const std::string& suffix)
{
    add(family, labels, format_value(value), suffix);
}

void
PromWriter::sample(const std::string& family, const Labels& labels,
                   uint64_t value, const std::string& suffix)
{
    add(family, labels, std::to_string(value), suffix);
}

void
PromWriter::add(const std::string& family, const Labels& labels,
                const std::string& value, const std::string& suffix)
{
    Family* f = find(family);
    if (f == nullptr) {
        return;
    }
    std::string line = family + suffix;
    char separator = '{';
    for (const auto& [k, v] : labels) {
        line += separator;
        line += k + "=\"" + prom_escape_label(v) + '"';
        separator = ',';
    }
    if (!labels.empty()) {
        line += '}';
    }
    line += ' ';
    line += value;
    f->lines.push_back(std::move(line));
}

std::string
PromWriter::render() const
{
    std::string out;
    for (const Family& f : families_) {
        out += "# HELP " + f.name + ' ' + f.help + '\n';
        out += "# TYPE " + f.name + ' ' + f.type + '\n';
        for (const std::string& line : f.lines) {
            out += line;
            out += '\n';
        }
    }
    return out;
}

namespace {

bool
fail(std::string* err, size_t lineno, const std::string& what)
{
    if (err != nullptr) {
        *err = "line " + std::to_string(lineno) + ": " + what;
    }
    return false;
}

bool
parse_sample_line(std::string_view line, std::string* name,
                  std::string* what)
{
    size_t i = 0;
    while (i < line.size() && name_char(line[i], i == 0)) {
        ++i;
    }
    if (i == 0) {
        *what = "sample line does not start with a metric name";
        return false;
    }
    *name = std::string(line.substr(0, i));
    if (i < line.size() && line[i] == '{') {
        ++i;
        bool first = true;
        while (true) {
            if (i >= line.size()) {
                *what = "unterminated label set";
                return false;
            }
            if (line[i] == '}') {
                ++i;
                break;
            }
            if (!first) {
                if (line[i] != ',') {
                    *what = "expected ',' between labels";
                    return false;
                }
                ++i;
            }
            first = false;
            const size_t name_start = i;
            while (i < line.size() && line[i] != '=') {
                ++i;
            }
            if (i >= line.size()) {
                *what = "label without '='";
                return false;
            }
            const std::string label(line.substr(name_start,
                                                i - name_start));
            if (!valid_label_name(label)) {
                *what = "bad label name '" + label + "'";
                return false;
            }
            ++i; // '='
            if (i >= line.size() || line[i] != '"') {
                *what = "label value must be double-quoted";
                return false;
            }
            ++i;
            while (i < line.size() && line[i] != '"') {
                if (line[i] == '\\') {
                    if (i + 1 >= line.size() ||
                        (line[i + 1] != '\\' && line[i + 1] != '"' &&
                         line[i + 1] != 'n')) {
                        *what = "bad escape in label value";
                        return false;
                    }
                    ++i;
                }
                ++i;
            }
            if (i >= line.size()) {
                *what = "unterminated label value";
                return false;
            }
            ++i; // closing '"'
        }
    }
    if (i >= line.size() || (line[i] != ' ' && line[i] != '\t')) {
        *what = "missing value";
        return false;
    }
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) {
        ++i;
    }
    const size_t value_start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') {
        ++i;
    }
    const std::string value(line.substr(value_start, i - value_start));
    if (value != "NaN" && value != "+Inf" && value != "-Inf" &&
        value != "Inf") {
        char* end = nullptr;
        std::strtod(value.c_str(), &end);
        if (value.empty() || end == nullptr || *end != '\0') {
            *what = "value '" + value + "' is not a float";
            return false;
        }
    }
    // Optional timestamp (integer milliseconds).
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) {
        ++i;
    }
    if (i < line.size()) {
        const size_t ts_start = i;
        if (line[i] == '-' || line[i] == '+') {
            ++i;
        }
        while (i < line.size() && line[i] >= '0' && line[i] <= '9') {
            ++i;
        }
        if (i != line.size() || i == ts_start) {
            *what = "trailing garbage after value";
            return false;
        }
    }
    return true;
}

} // namespace

bool
validate_prometheus_text(const std::string& text, std::string* err)
{
    if (text.empty()) {
        return fail(err, 0, "empty exposition");
    }
    if (text.back() != '\n') {
        return fail(err, 0, "exposition must end with a newline");
    }
    std::map<std::string, bool> typed;       // family -> TYPE seen
    std::map<std::string, bool> has_sample;  // family -> sample seen
    size_t lineno = 0;
    size_t pos = 0;
    while (pos < text.size()) {
        ++lineno;
        const size_t eol = text.find('\n', pos);
        const std::string_view line(text.data() + pos, eol - pos);
        pos = eol + 1;
        if (line.empty()) {
            continue;
        }
        if (line[0] == '#') {
            const bool is_help = line.rfind("# HELP ", 0) == 0;
            const bool is_type = line.rfind("# TYPE ", 0) == 0;
            if (!is_help && !is_type) {
                continue; // plain comment
            }
            std::string_view rest = line.substr(7);
            const size_t sp = rest.find(' ');
            const std::string fam(rest.substr(0, sp));
            if (!valid_metric_name(fam)) {
                return fail(err, lineno,
                            "bad metric name '" + fam + "'");
            }
            if (is_type) {
                if (sp == std::string_view::npos) {
                    return fail(err, lineno, "TYPE without a type");
                }
                const std::string type(rest.substr(sp + 1));
                if (type != "counter" && type != "gauge" &&
                    type != "histogram" && type != "summary" &&
                    type != "untyped") {
                    return fail(err, lineno,
                                "unknown type '" + type + "'");
                }
                if (typed.count(fam) != 0) {
                    return fail(err, lineno,
                                "duplicate TYPE for '" + fam + "'");
                }
                if (has_sample.count(fam) != 0) {
                    return fail(err, lineno,
                                "TYPE for '" + fam +
                                    "' after its samples");
                }
                typed[fam] = true;
            }
            continue;
        }
        std::string name;
        std::string what;
        if (!parse_sample_line(line, &name, &what)) {
            return fail(err, lineno, what);
        }
        // Attribute summary/counter suffixes back to the declared family
        // so TYPE-before-samples can be enforced per family.
        std::string fam = name;
        for (const char* sfx : {"_sum", "_count", "_total", "_bucket"}) {
            const std::string s(sfx);
            if (name.size() > s.size() &&
                name.compare(name.size() - s.size(), s.size(), s) == 0) {
                const std::string base =
                    name.substr(0, name.size() - s.size());
                if (typed.count(base) != 0) {
                    fam = base;
                    break;
                }
            }
        }
        has_sample[fam] = true;
    }
    return true;
}

TimeSeries::TimeSeries(size_t capacity)
    // Even and >= 2 so compaction halves exactly, keeping the
    // one-point-per-stride invariant uniform across the series.
    : capacity_(std::max<size_t>(2, capacity) & ~size_t{1})
{
}

void
TimeSeries::sample(const std::string& name, double t, double v)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Series& s = series_[name];
    s.acc_t += t;
    s.acc_v += v;
    if (++s.acc_n < s.stride) {
        return;
    }
    const double n = static_cast<double>(s.acc_n);
    s.points.push_back(Point{s.acc_t / n, s.acc_v / n});
    s.acc_t = 0;
    s.acc_v = 0;
    s.acc_n = 0;
    if (s.points.size() >= capacity_) {
        // Compact in place: average adjacent pairs, halving the series
        // and doubling the number of raw samples per stored point. Old
        // history gets coarser; the whole session always fits, and
        // because future points also accumulate the doubled stride, the
        // samples-per-point invariant stays uniform.
        std::vector<Point> half;
        half.reserve(s.points.size() / 2);
        for (size_t i = 0; i + 1 < s.points.size(); i += 2) {
            half.push_back(
                Point{(s.points[i].t + s.points[i + 1].t) / 2,
                      (s.points[i].v + s.points[i + 1].v) / 2});
        }
        s.points = std::move(half);
        s.stride *= 2;
    }
}

std::vector<TimeSeries::Point>
TimeSeries::snapshot_locked(const Series& s)
{
    std::vector<Point> out = s.points;
    if (s.acc_n > 0) {
        // Surface the partial accumulator as a provisional trailing
        // point so readers always see the freshest sample.
        const double n = static_cast<double>(s.acc_n);
        out.push_back(Point{s.acc_t / n, s.acc_v / n});
    }
    return out;
}

std::vector<std::string>
TimeSeries::names() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> out;
    out.reserve(series_.size());
    for (const auto& [name, s] : series_) {
        (void)s;
        out.push_back(name);
    }
    return out;
}

std::vector<TimeSeries::Point>
TimeSeries::series(const std::string& name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = series_.find(name);
    return it == series_.end() ? std::vector<Point>{}
                               : snapshot_locked(it->second);
}

uint64_t
TimeSeries::stride(const std::string& name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = series_.find(name);
    return it == series_.end() ? 0 : it->second.stride;
}

std::string
TimeSeries::json() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    JsonWriter w;
    w.str("schema", "cascade.timeseries.v1")
        .num("capacity", capacity_)
        .object("series");
    for (const auto& [name, s] : series_) {
        w.key(name).object().num("stride", s.stride).array("points");
        for (const Point& p : snapshot_locked(s)) {
            w.array().dbl(p.t, JsonDouble::G6).dbl(p.v, JsonDouble::G6).end();
        }
        w.end().end();
    }
    return w.build();
}

void
TimeSeries::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    series_.clear();
}

SloTracker::SloTracker(const Config& config)
    : config_(config)
{
}

void
SloTracker::push(Window& w, double now, double v)
{
    w.emplace_back(now, v);
    if (w.size() > kMaxWindowPoints) {
        w.pop_front();
    }
}

void
SloTracker::record_cold_compile(double now, double seconds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    push(cold_compile_s_, now, seconds);
}

void
SloTracker::record_warm_compile(double now, double seconds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    push(warm_compile_s_, now, seconds);
}

void
SloTracker::record_interrupt(double now, double seconds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    push(interrupt_s_, now, seconds);
}

void
SloTracker::record_ticks_per_s(double now, const std::string& tenant,
                               double rate)
{
    std::lock_guard<std::mutex> lock(mutex_);
    push(ticks_per_s_[tenant], now, rate);
}

void
SloTracker::prune(double now)
{
    const double horizon = now - config_.window_s;
    const auto drop = [horizon](Window& w) {
        while (!w.empty() && w.front().first < horizon) {
            w.pop_front();
        }
    };
    drop(cold_compile_s_);
    drop(warm_compile_s_);
    drop(interrupt_s_);
    for (auto& [tenant, w] : ticks_per_s_) {
        (void)tenant;
        drop(w);
    }
}

double
SloTracker::percentile(const Window& w, double q)
{
    if (w.empty()) {
        return 0;
    }
    std::vector<double> values;
    values.reserve(w.size());
    for (const auto& [t, v] : w) {
        (void)t;
        values.push_back(v);
    }
    std::sort(values.begin(), values.end());
    const size_t rank = std::min(
        values.size() - 1,
        static_cast<size_t>(q * static_cast<double>(values.size())));
    return values[rank];
}

void
SloTracker::objectives_locked(double now,
                              std::vector<Objective>* out) const
{
    const double horizon = now - config_.window_s;
    const auto windowed = [horizon](const Window& w) {
        Window in;
        for (const auto& p : w) {
            if (p.first >= horizon) {
                in.push_back(p);
            }
        }
        return in;
    };
    const auto upper = [&](const char* name, const Window& w,
                           double threshold) {
        if (threshold <= 0) {
            return;
        }
        const Window in = windowed(w);
        Objective o;
        o.name = name;
        o.observed = percentile(in, 0.99);
        o.threshold = threshold;
        o.upper_bound = true;
        o.samples = in.size();
        o.breached = o.samples > 0 && o.observed > o.threshold;
        out->push_back(std::move(o));
    };
    upper("cold_compile_p99_s", cold_compile_s_,
          config_.max_cold_compile_p99_s);
    upper("warm_compile_p99_s", warm_compile_s_,
          config_.max_warm_compile_p99_s);
    upper("interrupt_p99_s", interrupt_s_, config_.max_interrupt_p99_s);
    if (config_.min_ticks_per_s > 0) {
        for (const auto& [tenant, w] : ticks_per_s_) {
            const Window in = windowed(w);
            Objective o;
            o.name = "min_ticks_per_s";
            o.tenant = tenant;
            // The floor guards the *typical* rate, so use the median: a
            // single stalled sample should not flap the objective.
            o.observed = percentile(in, 0.5);
            o.threshold = config_.min_ticks_per_s;
            o.upper_bound = false;
            o.samples = in.size();
            o.breached = o.samples > 0 && o.observed < o.threshold;
            out->push_back(std::move(o));
        }
    }
}

void
SloTracker::tick(double now,
                 const std::function<void(const Objective&)>& on_breach)
{
    std::vector<Objective> fired;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        prune(now);
        std::vector<Objective> objectives;
        objectives_locked(now, &objectives);
        for (Objective& o : objectives) {
            const std::string key = o.name + '|' + o.tenant;
            const bool was = breached_[key];
            if (o.breached && !was) {
                ++breaches_[key];
                ++total_breaches_;
                o.breaches = breaches_[key];
                fired.push_back(o);
            }
            breached_[key] = o.breached;
        }
    }
    if (on_breach) {
        for (const Objective& o : fired) {
            on_breach(o);
        }
    }
}

SloTracker::Status
SloTracker::evaluate(double now) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Status status;
    objectives_locked(now, &status.objectives);
    for (Objective& o : status.objectives) {
        const std::string key = o.name + '|' + o.tenant;
        const auto it = breaches_.find(key);
        o.breaches = it == breaches_.end() ? 0 : it->second;
        status.breached = status.breached || o.breached;
    }
    return status;
}

std::string
SloTracker::json(double now) const
{
    const Status status = evaluate(now);
    JsonWriter w;
    w.str("schema", "cascade.slo.v1")
        .boolean("breached", status.breached)
        .dbl("window_s", config_.window_s, JsonDouble::G6)
        .array("objectives");
    for (const Objective& o : status.objectives) {
        w.object().str("name", o.name);
        if (!o.tenant.empty()) {
            w.str("tenant", o.tenant);
        }
        w.dbl("observed", o.observed, JsonDouble::G6)
            .dbl("threshold", o.threshold, JsonDouble::G6)
            .str("bound", o.upper_bound ? "upper" : "lower")
            .num("samples", o.samples)
            .boolean("breached", o.breached)
            .num("breaches", o.breaches)
            .end();
    }
    return w.build();
}

std::string
SloTracker::table(double now) const
{
    const Status status = evaluate(now);
    if (status.objectives.empty()) {
        return "  no SLO thresholds configured (all objectives "
               "disabled)\n";
    }
    std::string out = std::string("  overall: ") +
                      (status.breached ? "BREACHED" : "ok") + '\n';
    char line[256];
    for (const Objective& o : status.objectives) {
        std::string label = o.name;
        if (!o.tenant.empty()) {
            label += "[tenant " + o.tenant + ']';
        }
        std::snprintf(line, sizeof line,
                      "  %-32s %10.4g %s %-10.4g %-8s (%llu in window, "
                      "%llu breaches)\n",
                      label.c_str(), o.observed,
                      o.upper_bound ? "<=" : ">=", o.threshold,
                      o.breached ? "BREACH" : "ok",
                      static_cast<unsigned long long>(o.samples),
                      static_cast<unsigned long long>(o.breaches));
        out += line;
    }
    return out;
}

uint64_t
SloTracker::total_breaches() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return total_breaches_;
}

void
SloTracker::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    cold_compile_s_.clear();
    warm_compile_s_.clear();
    interrupt_s_.clear();
    ticks_per_s_.clear();
    breached_.clear();
    breaches_.clear();
    total_breaches_ = 0;
}

} // namespace cascade::telemetry
