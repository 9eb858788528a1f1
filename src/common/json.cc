#include "common/json.h"

#include <charconv>
#include <cstdio>

#include "common/check.h"

namespace cascade {

namespace {

void
escape_into(std::string& out, std::string_view s)
{
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
}

template <typename T>
void
append_int(std::string& out, T value)
{
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
}

} // namespace

std::string
json_escape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    escape_into(out, s);
    return out;
}

JsonWriter&
JsonWriter::member(const char* key)
{
    element() += '"';
    body_ += key;
    body_ += "\":";
    comma_ = false; // the value that follows takes no comma
    return *this;
}

std::string&
JsonWriter::element()
{
    if (comma_) {
        body_ += ',';
    }
    comma_ = true;
    return body_;
}

JsonWriter&
JsonWriter::open(char bracket)
{
    element() += bracket;
    closers_ += bracket == '{' ? '}' : ']';
    comma_ = false;
    return *this;
}

JsonWriter&
JsonWriter::key(std::string_view name)
{
    escape_into(element() += '"', name);
    body_ += "\":";
    comma_ = false;
    return *this;
}

JsonWriter&
JsonWriter::str(std::string_view value)
{
    escape_into(element() += '"', value);
    body_ += '"';
    return *this;
}

JsonWriter&
JsonWriter::num(uint64_t value)
{
    append_int(element(), value);
    return *this;
}

JsonWriter&
JsonWriter::num_signed(const char* k, int64_t value)
{
    append_int(member(k).element(), value);
    return *this;
}

JsonWriter&
JsonWriter::dbl(double value, JsonDouble format)
{
    // Indexed by JsonDouble.
    static constexpr const char* kFormats[] = {"%.17g", "%.9g", "%.6g", "%.3f"};
    char buf[512]; // %.3f of the largest double has 309 integer digits
    const int n = std::snprintf(buf, sizeof buf,
                                kFormats[static_cast<int>(format)], value);
    element().append(buf, static_cast<size_t>(n));
    return *this;
}

JsonWriter&
JsonWriter::raw(std::string_view json)
{
    element() += json;
    return *this;
}

JsonWriter&
JsonWriter::end()
{
    CASCADE_CHECK(closers_.size() > 1); // the root closes in build()
    body_ += closers_.back();
    closers_.pop_back();
    comma_ = true;
    return *this;
}

std::string
JsonWriter::build() const
{
    std::string out;
    out.reserve(body_.size() + closers_.size());
    out += body_;
    out.append(closers_.rbegin(), closers_.rend());
    return out;
}

} // namespace cascade
