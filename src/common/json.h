/// \file
/// JSON text for every surface that prints it (journal, black box,
/// `:stats json`, the monitor's documents, traces, profile, log line):
/// one writer places the commas, escapes the strings and formats the
/// numbers. It sits in common so the logger can use it too.

#ifndef CASCADE_COMMON_JSON_H
#define CASCADE_COMMON_JSON_H

#include <cstdint>
#include <string>
#include <string_view>

namespace cascade {

/// Escapes \p s for a JSON string body (quotes not included): `"`, `\`,
/// newline, carriage return and tab by name, other bytes below 0x20 as
/// \u00XX, everything else verbatim.
std::string json_escape(std::string_view s);

/// How a double prints. Each surface keeps the format it always had.
enum class JsonDouble {
    Exact,  ///< %.17g: a parse -> re-print round trip is exact (journal)
    G9,     ///< %.9g: `:stats json`
    G6,     ///< %.6g: /slo, /timeseries, registry histogram means
    Fixed3, ///< %.3f: microsecond times (Chrome trace, /requests)
};

/// Incremental builder for one JSON document, an object by default.
/// Members keep insertion order and the writer places every comma.
///
/// Keyed calls name the member with a literal key, written verbatim (not
/// escaped: keys written in the source are plain identifiers). The same
/// calls without a key add an array element, or supply the value of the
/// member that key() just named. key() takes a runtime name (a metric,
/// series or tenant id) and escapes it. object()/array() open a nested
/// container and end() closes the innermost open one.
///
/// Event payloads are built with this: replay compares the raw payload
/// text of recorded and re-executed events, so the serialization itself
/// is part of the journal schema.
class JsonWriter {
  public:
    enum class Root { Object, Array };

    JsonWriter() : JsonWriter(Root::Object) {}
    explicit JsonWriter(Root root) { open(root == Root::Object ? '{' : '['); }

    /// @{ Members under a literal key: member() names it, then the value
    /// is added as the keyless call adds it.
    JsonWriter& str(const char* k, std::string_view v)
    {
        return member(k).str(v);
    }
    JsonWriter& num(const char* k, uint64_t v) { return member(k).num(v); }
    JsonWriter& num_signed(const char* k, int64_t v);
    JsonWriter& dbl(const char* k, double v,
                    JsonDouble format = JsonDouble::Exact)
    {
        return member(k).dbl(v, format);
    }
    JsonWriter& boolean(const char* k, bool v)
    {
        return member(k).raw(v ? "true" : "false");
    }
    /// Pre-serialized JSON embedded verbatim.
    JsonWriter& raw(const char* k, std::string_view json)
    {
        return member(k).raw(json);
    }
    JsonWriter& object(const char* k) { return member(k).object(); }
    JsonWriter& array(const char* k) { return member(k).array(); }
    /// @}

    /// Names the next member with \p name, escaped.
    JsonWriter& key(std::string_view name);

    /// @{ Array elements, or the value of the member key() named.
    JsonWriter& str(std::string_view value);
    JsonWriter& num(uint64_t value);
    JsonWriter& dbl(double value, JsonDouble format = JsonDouble::Exact);
    JsonWriter& raw(std::string_view json);
    JsonWriter& object() { return open('{'); }
    JsonWriter& array() { return open('['); }
    /// @}

    /// Closes the innermost open object or array.
    JsonWriter& end();

    /// The document, with every container still open closed.
    std::string build() const;

  private:
    JsonWriter& member(const char* key);
    /// Places the comma an element needs; returns the body to append to.
    std::string& element();
    JsonWriter& open(char bracket);

    std::string body_;
    std::string closers_; ///< the closing bracket of each open container
    bool comma_ = false;  ///< the innermost container already has a member
};

} // namespace cascade

#endif // CASCADE_COMMON_JSON_H
