#include "telemetry/journal.h"

#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>

#include "common/check.h"

namespace cascade::telemetry {

uint64_t
fnv1a64(std::string_view data)
{
    uint64_t h = 14695981039346656037ull;
    for (const char c : data) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

std::string
digest_hex(std::string_view data)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(fnv1a64(data)));
    return buf;
}

namespace {

/// The first line of a journal file.
std::string
schema_line(const std::string& header_json)
{
    return JsonWriter()
        .str("schema", "cascade.events.v1")
        .raw("header", header_json.empty() ? "{}" : header_json)
        .build();
}

void
write_line(std::FILE* f, const std::string& line)
{
    std::fwrite(line.data(), 1, line.size(), f);
    std::fputc('\n', f);
}

} // namespace

// ---------------------------------------------------------------------------
// JSON parser

namespace {

struct Parser {
    std::string_view text;
    size_t pos = 0;
    std::string error;

    bool fail(const std::string& msg)
    {
        if (error.empty()) {
            error = msg + " at offset " + std::to_string(pos);
        }
        return false;
    }

    void skip_ws()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos]))) {
            ++pos;
        }
    }

    bool literal(const char* word)
    {
        const size_t n = std::strlen(word);
        if (text.compare(pos, n, word) != 0) {
            return fail(std::string("expected '") + word + "'");
        }
        pos += n;
        return true;
    }

    bool parse_string(std::string* out)
    {
        if (pos >= text.size() || text[pos] != '"') {
            return fail("expected string");
        }
        ++pos;
        out->clear();
        while (pos < text.size()) {
            const char c = text[pos];
            if (c == '"') {
                ++pos;
                return true;
            }
            if (c == '\\') {
                if (pos + 1 >= text.size()) {
                    return fail("truncated escape");
                }
                const char e = text[pos + 1];
                pos += 2;
                switch (e) {
                    case '"': *out += '"'; break;
                    case '\\': *out += '\\'; break;
                    case '/': *out += '/'; break;
                    case 'b': *out += '\b'; break;
                    case 'f': *out += '\f'; break;
                    case 'n': *out += '\n'; break;
                    case 'r': *out += '\r'; break;
                    case 't': *out += '\t'; break;
                    case 'u': {
                        if (pos + 4 > text.size()) {
                            return fail("truncated \\u escape");
                        }
                        unsigned cp = 0;
                        for (int i = 0; i < 4; ++i) {
                            const char h = text[pos + i];
                            cp <<= 4;
                            if (h >= '0' && h <= '9') {
                                cp |= h - '0';
                            } else if (h >= 'a' && h <= 'f') {
                                cp |= h - 'a' + 10;
                            } else if (h >= 'A' && h <= 'F') {
                                cp |= h - 'A' + 10;
                            } else {
                                return fail("bad \\u escape");
                            }
                        }
                        pos += 4;
                        // BMP-only UTF-8 encoding; the journal writer never
                        // emits surrogate pairs (it escapes bytes < 0x20).
                        if (cp < 0x80) {
                            *out += static_cast<char>(cp);
                        } else if (cp < 0x800) {
                            *out += static_cast<char>(0xc0 | (cp >> 6));
                            *out += static_cast<char>(0x80 | (cp & 0x3f));
                        } else {
                            *out += static_cast<char>(0xe0 | (cp >> 12));
                            *out +=
                                static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
                            *out += static_cast<char>(0x80 | (cp & 0x3f));
                        }
                        break;
                    }
                    default:
                        return fail("unknown escape");
                }
                continue;
            }
            *out += c;
            ++pos;
        }
        return fail("unterminated string");
    }

    bool parse_value(JsonValue* out)
    {
        skip_ws();
        if (pos >= text.size()) {
            return fail("unexpected end of input");
        }
        const char c = text[pos];
        if (c == '{') {
            ++pos;
            out->kind = JsonValue::Kind::Object;
            skip_ws();
            if (pos < text.size() && text[pos] == '}') {
                ++pos;
                return true;
            }
            while (true) {
                skip_ws();
                std::string k;
                if (!parse_string(&k)) {
                    return false;
                }
                skip_ws();
                if (pos >= text.size() || text[pos] != ':') {
                    return fail("expected ':'");
                }
                ++pos;
                JsonValue v;
                if (!parse_value(&v)) {
                    return false;
                }
                out->obj.emplace_back(std::move(k), std::move(v));
                skip_ws();
                if (pos < text.size() && text[pos] == ',') {
                    ++pos;
                    continue;
                }
                if (pos < text.size() && text[pos] == '}') {
                    ++pos;
                    return true;
                }
                return fail("expected ',' or '}'");
            }
        }
        if (c == '[') {
            ++pos;
            out->kind = JsonValue::Kind::Array;
            skip_ws();
            if (pos < text.size() && text[pos] == ']') {
                ++pos;
                return true;
            }
            while (true) {
                JsonValue v;
                if (!parse_value(&v)) {
                    return false;
                }
                out->arr.push_back(std::move(v));
                skip_ws();
                if (pos < text.size() && text[pos] == ',') {
                    ++pos;
                    continue;
                }
                if (pos < text.size() && text[pos] == ']') {
                    ++pos;
                    return true;
                }
                return fail("expected ',' or ']'");
            }
        }
        if (c == '"') {
            out->kind = JsonValue::Kind::String;
            return parse_string(&out->str);
        }
        if (c == 't') {
            out->kind = JsonValue::Kind::Bool;
            out->b = true;
            return literal("true");
        }
        if (c == 'f') {
            out->kind = JsonValue::Kind::Bool;
            out->b = false;
            return literal("false");
        }
        if (c == 'n') {
            out->kind = JsonValue::Kind::Null;
            return literal("null");
        }
        // Number.
        const size_t start = pos;
        if (pos < text.size() && (text[pos] == '-' || text[pos] == '+')) {
            ++pos;
        }
        bool integral = true;
        while (pos < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[pos])) ||
                text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E' ||
                text[pos] == '-' || text[pos] == '+')) {
            if (text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E') {
                integral = false;
            }
            ++pos;
        }
        if (pos == start) {
            return fail("expected value");
        }
        const std::string tok(text.substr(start, pos - start));
        out->kind = JsonValue::Kind::Number;
        out->num = std::strtod(tok.c_str(), nullptr);
        if (integral && tok[0] != '-') {
            out->is_int = true;
            out->u64 = std::strtoull(tok.c_str(), nullptr, 10);
        }
        return true;
    }
};

} // namespace

const JsonValue*
JsonValue::find(const std::string& k) const
{
    if (kind != Kind::Object) {
        return nullptr;
    }
    for (const auto& [key, value] : obj) {
        if (key == k) {
            return &value;
        }
    }
    return nullptr;
}

uint64_t
JsonValue::get_u64(const std::string& k, uint64_t dflt) const
{
    const JsonValue* v = find(k);
    if (v == nullptr || v->kind != Kind::Number) {
        return dflt;
    }
    return v->is_int ? v->u64 : static_cast<uint64_t>(v->num);
}

double
JsonValue::get_num(const std::string& k, double dflt) const
{
    const JsonValue* v = find(k);
    return (v != nullptr && v->kind == Kind::Number) ? v->num : dflt;
}

bool
JsonValue::get_bool(const std::string& k, bool dflt) const
{
    const JsonValue* v = find(k);
    return (v != nullptr && v->kind == Kind::Bool) ? v->b : dflt;
}

std::string
JsonValue::get_str(const std::string& k, const std::string& dflt) const
{
    const JsonValue* v = find(k);
    return (v != nullptr && v->kind == Kind::String) ? v->str : dflt;
}

bool
parse_json(std::string_view text, JsonValue* out, std::string* err)
{
    Parser p{text, 0, {}};
    if (!p.parse_value(out)) {
        if (err != nullptr) {
            *err = p.error;
        }
        return false;
    }
    p.skip_ws();
    if (p.pos != text.size()) {
        if (err != nullptr) {
            *err = "trailing characters at offset " + std::to_string(p.pos);
        }
        return false;
    }
    return true;
}

// ---------------------------------------------------------------------------
// Journal

Journal::Journal(size_t ring_capacity)
    : ring_capacity_(ring_capacity == 0 ? 1 : ring_capacity)
{
    ring_.reserve(ring_capacity_);
}

Journal::~Journal()
{
    stop_file();
}

void
Journal::set_clock(std::function<uint64_t()> clock)
{
    std::lock_guard<Mutex> lock(mutex_);
    clock_ = std::move(clock);
}

void
Journal::set_tenant(uint64_t tenant)
{
    std::lock_guard<Mutex> lock(mutex_);
    tenant_ = tenant;
}

uint64_t
Journal::record(const char* type, std::string data)
{
    Event event;
    std::function<void(const Event&)> observer;
    std::vector<std::function<void(const Event&)>> taps;
    {
        std::lock_guard<Mutex> lock(mutex_);
        event.seq = ++seq_;
        event.vt = clock_ ? clock_() : 0;
        event.tenant = tenant_;
        event.type = type;
        event.data = std::move(data);
        if (ring_.size() < ring_capacity_) {
            ring_.push_back(event);
        } else {
            ring_[next_] = event;
        }
        next_ = (next_ + 1) % ring_capacity_;
        count_ = ring_.size();
        if (file_ != nullptr) {
            write_line(file_, event_json(event));
        }
        observer = observer_;
        if (!taps_.empty()) {
            taps.reserve(taps_.size());
            for (const auto& [id, tap] : taps_) {
                taps.push_back(tap);
            }
        }
    }
    // The observer and taps run unlocked so they may inspect the journal
    // (but must not record into it).
    if (observer) {
        observer(event);
    }
    for (const auto& tap : taps) {
        tap(event);
    }
    return event.seq;
}

bool
Journal::start_file(const std::string& path, const std::string& header_json,
                    std::string* err)
{
    std::lock_guard<Mutex> lock(mutex_);
    if (file_ != nullptr) {
        if (err != nullptr) {
            *err = "already recording to " + path_;
        }
        return false;
    }
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        if (err != nullptr) {
            *err = path + ": " + std::strerror(errno);
        }
        return false;
    }
    write_line(f, schema_line(header_json));
    file_ = f;
    path_ = path;
    return true;
}

void
Journal::stop_file()
{
    std::lock_guard<Mutex> lock(mutex_);
    if (file_ != nullptr) {
        std::fclose(file_);
        file_ = nullptr;
        path_.clear();
    }
}

bool
Journal::writing() const
{
    std::lock_guard<Mutex> lock(mutex_);
    return file_ != nullptr;
}

bool
Journal::write_ring(const std::string& path, const std::string& header_json,
                    std::string* err) const
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        if (err != nullptr) {
            *err = path + ": " + std::strerror(errno);
        }
        return false;
    }
    write_line(f, schema_line(header_json));
    for (const Event& event : ring()) {
        write_line(f, event_json(event));
    }
    std::fclose(f);
    return true;
}

void
Journal::set_observer(std::function<void(const Event&)> observer)
{
    std::lock_guard<Mutex> lock(mutex_);
    observer_ = std::move(observer);
}

int
Journal::add_tap(std::function<void(const Event&)> tap)
{
    std::lock_guard<Mutex> lock(mutex_);
    const int id = next_tap_id_++;
    taps_.emplace_back(id, std::move(tap));
    return id;
}

void
Journal::remove_tap(int id)
{
    std::lock_guard<Mutex> lock(mutex_);
    for (size_t i = 0; i < taps_.size(); ++i) {
        if (taps_[i].first == id) {
            taps_.erase(taps_.begin() + static_cast<long>(i));
            return;
        }
    }
}

std::vector<Journal::Event>
Journal::ring() const
{
    std::lock_guard<Mutex> lock(mutex_);
    std::vector<Event> out;
    out.reserve(ring_.size());
    if (ring_.size() < ring_capacity_) {
        out = ring_;
    } else {
        for (size_t i = 0; i < ring_.size(); ++i) {
            out.push_back(ring_[(next_ + i) % ring_capacity_]);
        }
    }
    return out;
}

std::string
Journal::ring_json() const
{
    JsonWriter w(JsonWriter::Root::Array);
    for (const Event& event : ring()) {
        w.raw(event_json(event));
    }
    return w.build();
}

uint64_t
Journal::events_recorded() const
{
    std::lock_guard<Mutex> lock(mutex_);
    return seq_;
}

std::string
Journal::event_json(const Event& event)
{
    // This exact shape ("data" last, payload verbatim) is relied upon by
    // replay's loader, which compares the raw payload text of recorded
    // vs. re-executed events.
    JsonWriter w;
    w.num("seq", event.seq).num("vt", event.vt).str("type", event.type);
    // Shared-mode attribution tag; omitted entirely at tenant 0 so
    // exclusive-session journals are byte-identical to pre-tag ones.
    // Placed before "data" — replay's loader extracts the payload as
    // everything from the final "data": key, and must not see it.
    if (event.tenant != 0) {
        w.num("tenant", event.tenant);
    }
    return w.raw("data", event.data.empty() ? "{}" : event.data).build();
}

// ---------------------------------------------------------------------------
// BlackBox

namespace {

std::atomic<bool> g_dumped{false};

void
blackbox_dump(const char* reason)
{
    BlackBox::instance().dump(reason);
}

void
blackbox_signal_handler(int sig)
{
    const char* name = "fatal signal";
    switch (sig) {
        case SIGABRT: name = "SIGABRT"; break;
        case SIGSEGV: name = "SIGSEGV"; break;
        case SIGBUS: name = "SIGBUS"; break;
        case SIGFPE: name = "SIGFPE"; break;
        case SIGILL: name = "SIGILL"; break;
        default: break;
    }
    blackbox_dump(name);
    std::signal(sig, SIG_DFL);
    std::raise(sig);
}

std::terminate_handler g_prev_terminate = nullptr;

[[noreturn]] void
blackbox_terminate_handler()
{
    blackbox_dump("std::terminate");
    if (g_prev_terminate != nullptr) {
        g_prev_terminate();
    }
    std::abort();
}

void
blackbox_check_hook(const char* message)
{
    blackbox_dump(message);
}

#if defined(__SANITIZE_ADDRESS__)
constexpr bool kAsan = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
constexpr bool kAsan = true;
#else
constexpr bool kAsan = false;
#endif
#else
constexpr bool kAsan = false;
#endif

} // namespace

BlackBox&
BlackBox::instance()
{
    static BlackBox* box = new BlackBox(); // leaked: outlives static dtors
    return *box;
}

void
BlackBox::install_handlers()
{
    static std::once_flag once;
    std::call_once(once, [] {
        std::signal(SIGABRT, blackbox_signal_handler);
        if (!kAsan) {
            // ASan owns these for its own reports; stealing them would
            // trade a sanitizer diagnostic for a ring dump.
            std::signal(SIGSEGV, blackbox_signal_handler);
            std::signal(SIGBUS, blackbox_signal_handler);
            std::signal(SIGFPE, blackbox_signal_handler);
            std::signal(SIGILL, blackbox_signal_handler);
        }
        g_prev_terminate = std::set_terminate(blackbox_terminate_handler);
        common_detail::check_fail_hook.store(blackbox_check_hook);
    });
}

int
BlackBox::add_source(const std::string& name,
                     std::function<std::string()> provider)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const int id = next_id_++;
    sources_.push_back(Source{id, name, std::move(provider)});
    return id;
}

void
BlackBox::remove_source(int id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = sources_.begin(); it != sources_.end(); ++it) {
        if (it->id == id) {
            sources_.erase(it);
            return;
        }
    }
}

std::string
BlackBox::dump_json(const std::string& reason) const
{
    JsonWriter w;
    w.str("schema", "cascade.crash.v1")
        .str("reason", reason)
        .num_signed("pid", ::getpid())
        .array("sources");
    // Best-effort locking: if the crash happened while the registry lock
    // was held we still want the dump, at the cost of a racy read.
    const bool locked = mutex_.try_lock();
    for (const Source& source : sources_) {
        std::string data;
        try {
            data = source.provider();
        } catch (...) {
            data.clear();
        }
        w.object()
            .str("name", source.name)
            .raw("data", data.empty() ? "null" : data)
            .end();
    }
    if (locked) {
        mutex_.unlock();
    }
    return w.build();
}

std::string
BlackBox::dump(const std::string& reason)
{
    if (g_dumped.exchange(true)) {
        return "";
    }
    const char* env = std::getenv("CASCADE_CRASH_DIR");
    const std::string dir = env != nullptr && env[0] != '\0' ? env : ".";
    const std::string path = dir + "/cascade-crash-" +
                             std::to_string(static_cast<long>(::getpid())) +
                             ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        return "";
    }
    const std::string body = dump_json(reason);
    std::fwrite(body.data(), 1, body.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::fprintf(stderr, "cascade: black box written to %s\n", path.c_str());
    return path;
}

} // namespace cascade::telemetry
