#include "runtime/debugger.h"

#include <algorithm>

#include "common/json.h"

namespace cascade::runtime {

bool
Debugger::valid_op(const std::string& op)
{
    return op == "==" || op == "!=" || op == "<" || op == ">" ||
           op == "<=" || op == ">=";
}

bool
Debugger::compare(const BitVector& lhs, const std::string& op,
                  const BitVector& rhs)
{
    const BitVector r = rhs.resized(lhs.width());
    if (op == "==") {
        return BitVector::eq(lhs, r);
    }
    if (op == "!=") {
        return !BitVector::eq(lhs, r);
    }
    if (op == "<") {
        return BitVector::ult(lhs, r);
    }
    if (op == ">") {
        return BitVector::ult(r, lhs);
    }
    if (op == "<=") {
        return BitVector::ule(lhs, r);
    }
    if (op == ">=") {
        return BitVector::ule(r, lhs);
    }
    return false;
}

uint64_t
Debugger::add_break(const std::string& signal, const std::string& op,
                    const BitVector& value)
{
    std::lock_guard<std::mutex> lock(mu_);
    Point p;
    p.id = next_id_++;
    p.kind = Kind::Break;
    p.signal = signal;
    p.op = op;
    p.value = value;
    points_.push_back(std::move(p));
    count_.store(points_.size(), std::memory_order_relaxed);
    return points_.back().id;
}

uint64_t
Debugger::add_watch(const std::string& signal)
{
    std::lock_guard<std::mutex> lock(mu_);
    Point p;
    p.id = next_id_++;
    p.kind = Kind::Watch;
    p.signal = signal;
    points_.push_back(std::move(p));
    count_.store(points_.size(), std::memory_order_relaxed);
    return points_.back().id;
}

bool
Debugger::remove(uint64_t id)
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it =
        std::find_if(points_.begin(), points_.end(),
                     [id](const Point& p) { return p.id == id; });
    if (it == points_.end()) {
        return false;
    }
    points_.erase(it);
    count_.store(points_.size(), std::memory_order_relaxed);
    return true;
}

void
Debugger::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    points_.clear();
    count_.store(0, std::memory_order_relaxed);
}

size_t
Debugger::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return points_.size();
}

std::vector<Debugger::Point>
Debugger::points() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return points_;
}

std::optional<Debugger::Fire>
Debugger::evaluate(const Lookup& lookup)
{
    std::lock_guard<std::mutex> lock(mu_);
    std::optional<Fire> fire;
    for (Point& p : points_) {
        const std::optional<BitVector> v = lookup(p.signal);
        if (!v.has_value()) {
            continue;
        }
        bool fired = false;
        if (p.kind == Kind::Break) {
            const bool cond = compare(*v, p.op, p.value);
            fired = p.has_last && !p.last_cond && cond;
            p.last_cond = cond;
        } else {
            fired = p.has_last && *v != p.last;
            p.last = *v;
        }
        p.has_last = true;
        if (fired) {
            ++p.hits;
            if (!fire.has_value()) {
                fire = Fire{p.id, p.kind, p.signal, *v};
            }
        }
    }
    if (fire.has_value()) {
        fires_.fetch_add(1, std::memory_order_relaxed);
    }
    return fire;
}

void
Debugger::prime(const Lookup& lookup)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (Point& p : points_) {
        const std::optional<BitVector> v = lookup(p.signal);
        if (!v.has_value()) {
            continue;
        }
        if (p.kind == Kind::Break) {
            p.last_cond = compare(*v, p.op, p.value);
        } else {
            p.last = *v;
        }
        p.has_last = true;
    }
}

std::optional<Debugger::Point>
Debugger::note_fire(uint64_t id)
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it =
        std::find_if(points_.begin(), points_.end(),
                     [id](const Point& p) { return p.id == id; });
    if (it == points_.end()) {
        return std::nullopt;
    }
    ++it->hits;
    fires_.fetch_add(1, std::memory_order_relaxed);
    return *it;
}

std::string
Debugger::table(bool halted, uint64_t tick, bool hw_armed) const
{
    const auto points = this->points();
    std::string out = "debugger: ";
    out += halted ? "HALTED at tick " + std::to_string(tick) : "running";
    out += hw_armed ? " (triggers in fabric)" : "";
    out += "\n";
    if (points.empty()) {
        out += "  no points armed (:break <sig> <op> <val>, "
               ":watch <sig>)\n";
        return out;
    }
    for (const auto& p : points) {
        out += "  #" + std::to_string(p.id);
        if (p.kind == Kind::Watch) {
            out += " watch " + p.signal;
        } else {
            out += " break " + p.signal + " " + p.op + " " +
                   p.value.to_dec_string();
        }
        out += " [hits " + std::to_string(p.hits) + "]\n";
    }
    return out;
}

std::string
Debugger::json(bool halted, bool hw_armed) const
{
    const auto points = this->points();
    JsonWriter w;
    w.str("schema", "cascade.debug.v1")
        .boolean("halted", halted)
        .boolean("hw_armed", hw_armed)
        .num("fires", total_fires())
        .num("points", points.size())
        .array("table");
    for (const auto& p : points) {
        w.object()
            .num("id", p.id)
            .str("kind", p.kind == Kind::Watch ? "watch" : "break")
            .str("signal", p.signal);
        if (p.kind == Kind::Break) {
            w.str("op", p.op).str("value", p.value.to_dec_string());
        }
        w.num("hits", p.hits).end();
    }
    return w.build();
}

} // namespace cascade::runtime
