/// \file
/// Tests for the telemetry subsystem: counter/gauge/histogram arithmetic,
/// registry identity, span nesting/depth bookkeeping, ring-buffer
/// wraparound, and the Chrome trace_event JSON export — including a
/// golden-file check (deterministic timestamps in, exact JSON out) and a
/// structural validation pass with a minimal JSON parser, which is what
/// "loads in Perfetto" reduces to for a generated file.

#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

#include <cctype>
#include <fstream>
#include <iterator>
#include <thread>

#include <gtest/gtest.h>

#include "common/json.h"

namespace cascade::telemetry {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON syntax checker (objects/arrays/strings/numbers/keywords).
// Accepts exactly the grammar of RFC 8259; no semantic interpretation.
// ---------------------------------------------------------------------------

class JsonChecker {
  public:
    explicit JsonChecker(const std::string& text) : s_(text) {}

    bool
    valid()
    {
        skip_ws();
        if (!value()) {
            return false;
        }
        skip_ws();
        return pos_ == s_.size();
    }

  private:
    bool
    value()
    {
        if (pos_ >= s_.size()) {
            return false;
        }
        switch (s_[pos_]) {
        case '{': return object();
        case '[': return array();
        case '"': return string();
        case 't': return keyword("true");
        case 'f': return keyword("false");
        case 'n': return keyword("null");
        default: return number();
        }
    }

    bool
    object()
    {
        ++pos_; // '{'
        skip_ws();
        if (peek() == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skip_ws();
            if (!string()) {
                return false;
            }
            skip_ws();
            if (peek() != ':') {
                return false;
            }
            ++pos_;
            skip_ws();
            if (!value()) {
                return false;
            }
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    array()
    {
        ++pos_; // '['
        skip_ws();
        if (peek() == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            skip_ws();
            if (!value()) {
                return false;
            }
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    string()
    {
        if (peek() != '"') {
            return false;
        }
        ++pos_;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (s_[pos_] == '\\') {
                ++pos_;
                if (pos_ >= s_.size()) {
                    return false;
                }
            }
            ++pos_;
        }
        if (pos_ >= s_.size()) {
            return false;
        }
        ++pos_;
        return true;
    }

    bool
    number()
    {
        const size_t start = pos_;
        if (peek() == '-') {
            ++pos_;
        }
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                s_[pos_] == '+' || s_[pos_] == '-')) {
            ++pos_;
        }
        return pos_ > start;
    }

    bool
    keyword(const char* kw)
    {
        const size_t len = std::string(kw).size();
        if (s_.compare(pos_, len, kw) != 0) {
            return false;
        }
        pos_ += len;
        return true;
    }

    char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

    void
    skip_ws()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_]))) {
            ++pos_;
        }
    }

    const std::string& s_;
    size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(Telemetry, CounterArithmetic)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
}

TEST(Telemetry, GaugeTracksHighWater)
{
    Gauge g;
    g.set(5);
    g.set(2);
    EXPECT_EQ(g.value(), 2);
    EXPECT_EQ(g.high_water(), 5);
    g.add(10);
    EXPECT_EQ(g.value(), 12);
    EXPECT_EQ(g.high_water(), 12);
    g.add(-12);
    EXPECT_EQ(g.value(), 0);
    EXPECT_EQ(g.high_water(), 12);
}

TEST(Telemetry, HistogramArithmetic)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.quantile(0.5), 0u);

    for (uint64_t v = 1; v <= 1000; ++v) {
        h.record(v);
    }
    EXPECT_EQ(h.count(), 1000u);
    EXPECT_EQ(h.sum(), 500500u);
    EXPECT_EQ(h.min(), 1u);
    EXPECT_EQ(h.max(), 1000u);
    EXPECT_DOUBLE_EQ(h.mean(), 500.5);
    // Log-bucket estimate: the true median is 500; the estimate must land
    // in the same power-of-two bucket [256, 1024).
    EXPECT_GE(h.quantile(0.5), 256u);
    EXPECT_LT(h.quantile(0.5), 1024u);
    EXPECT_LE(h.quantile(0.99), 1000u);
    EXPECT_LE(h.quantile(0.0), h.quantile(1.0));

    // Bucket populations: bucket b holds values with bit width b.
    EXPECT_EQ(h.bucket(1), 1u); // value 1
    EXPECT_EQ(h.bucket(2), 2u); // values 2-3
    EXPECT_EQ(h.bucket(3), 4u); // values 4-7
    EXPECT_EQ(h.bucket(10), 1000u - 511u); // values 512-1000
}

TEST(Telemetry, HistogramZeroAndLargeValues)
{
    Histogram h;
    h.record(0);
    h.record(UINT64_MAX);
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(64), 1u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), UINT64_MAX);
}

TEST(Telemetry, RegistryReturnsStableHandles)
{
    Registry reg;
    Counter* a = reg.counter("x");
    Counter* b = reg.counter("x");
    EXPECT_EQ(a, b);
    EXPECT_NE(reg.counter("y"), a);
    a->inc(7);
    EXPECT_EQ(reg.counter("x")->value(), 7u);

    reg.gauge("g")->set(-3);
    reg.histogram("h")->record(12);

    const std::string table = reg.table();
    EXPECT_NE(table.find("x"), std::string::npos);
    EXPECT_NE(table.find("7"), std::string::npos);

    const std::string json = reg.json();
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("\"x\":7"), std::string::npos);
    EXPECT_NE(json.find("\"value\":-3"), std::string::npos);
}

TEST(Telemetry, RegistryResetZeroesMetricsInPlace)
{
    Registry reg;
    Counter* c = reg.counter("c");
    Gauge* g = reg.gauge("g");
    Histogram* h = reg.histogram("h");
    c->inc(5);
    g->set(9);
    g->set(2);
    h->record(100);
    h->record(7);

    reg.reset();

    // Values zero, handles stay valid (hot paths cache the pointers).
    EXPECT_EQ(reg.counter("c"), c);
    EXPECT_EQ(c->value(), 0u);
    EXPECT_EQ(g->value(), 0);
    EXPECT_EQ(g->high_water(), 0);
    EXPECT_EQ(h->count(), 0u);
    EXPECT_EQ(h->sum(), 0u);
    EXPECT_EQ(h->min(), 0u);
    EXPECT_EQ(h->max(), 0u);
    EXPECT_EQ(h->bucket(7), 0u);

    // Recording resumes from scratch on the same handles.
    c->inc();
    h->record(3);
    EXPECT_EQ(c->value(), 1u);
    EXPECT_EQ(h->count(), 1u);
    EXPECT_EQ(h->min(), 3u);
    EXPECT_EQ(h->max(), 3u);
}

TEST(Telemetry, SnapshotsReportP50P90P99)
{
    Registry reg;
    Histogram* h = reg.histogram("lat");
    for (uint64_t v = 1; v <= 1000; ++v) {
        h->record(v);
    }
    const std::string json = reg.json();
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("\"p50\":"), std::string::npos) << json;
    EXPECT_NE(json.find("\"p90\":"), std::string::npos) << json;
    EXPECT_NE(json.find("\"p99\":"), std::string::npos) << json;
    const std::string table = reg.table();
    EXPECT_NE(table.find("p50"), std::string::npos) << table;
    EXPECT_NE(table.find("p90"), std::string::npos) << table;
    EXPECT_NE(table.find("p99"), std::string::npos) << table;
    // Quantiles are monotone in the log-bucket estimate.
    EXPECT_LE(h->quantile(0.5), h->quantile(0.9));
    EXPECT_LE(h->quantile(0.9), h->quantile(0.99));
}

TEST(Telemetry, RegistryThreadedIncrements)
{
    Registry reg;
    Counter* c = reg.counter("races");
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([c] {
            for (int i = 0; i < 10000; ++i) {
                c->inc();
            }
        });
    }
    for (auto& th : threads) {
        th.join();
    }
    EXPECT_EQ(c->value(), 40000u);
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

TEST(Telemetry, SpanNestingRecordsDepthAndOrder)
{
    Tracer tracer;
    {
        SpanGuard outer(tracer, "outer");
        {
            SpanGuard inner(tracer, "inner");
        }
        {
            SpanGuard inner2(tracer, "inner2");
        }
    }
    const auto events = tracer.events();
    ASSERT_EQ(events.size(), 3u);
    // Spans close inner-first.
    EXPECT_STREQ(events[0].name, "inner");
    EXPECT_EQ(events[0].depth, 1u);
    EXPECT_STREQ(events[1].name, "inner2");
    EXPECT_EQ(events[1].depth, 1u);
    EXPECT_STREQ(events[2].name, "outer");
    EXPECT_EQ(events[2].depth, 0u);
    // The outer span contains both inner spans.
    EXPECT_LE(events[2].ts_us, events[0].ts_us);
    EXPECT_GE(events[2].ts_us + events[2].dur_us,
              events[1].ts_us + events[1].dur_us);
}

TEST(Telemetry, SpanMirrorsDurationIntoHistogram)
{
    Tracer tracer;
    Histogram h;
    {
        SpanGuard span(tracer, "timed", &h);
    }
    EXPECT_EQ(h.count(), 1u);
}

TEST(Telemetry, RingBufferWrapsKeepingNewest)
{
    Tracer tracer(4);
    for (int i = 0; i < 10; ++i) {
        tracer.instant("e", static_cast<uint64_t>(i));
    }
    const auto events = tracer.events();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(tracer.dropped(), 6u);
    EXPECT_EQ(events.front().arg, 6u);
    EXPECT_EQ(events.back().arg, 9u);
}

TEST(Telemetry, ChromeTraceJsonGolden)
{
    Tracer tracer;
    tracer.record_complete("synth", 100.0, 50.5, 0);
    tracer.record_complete("place", 151.0, 8.25, 1);
    const auto events = tracer.events();
    ASSERT_EQ(events.size(), 2u);

    // Golden check: deterministic inputs produce exactly this JSON,
    // modulo the tid this thread was assigned.
    const std::string tid = std::to_string(Tracer::thread_id());
    const std::string expected =
        "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
        "{\"name\":\"synth\",\"cat\":\"cascade\",\"pid\":1,\"tid\":" +
        tid +
        ",\"ts\":100.000,\"ph\":\"X\",\"dur\":50.500},"
        "{\"name\":\"place\",\"cat\":\"cascade\",\"pid\":1,\"tid\":" +
        tid + ",\"ts\":151.000,\"ph\":\"X\",\"dur\":8.250}]}";
    EXPECT_EQ(tracer.chrome_json(), expected);
}

TEST(Telemetry, ChromeTraceJsonIsStructurallyValid)
{
    Tracer tracer;
    {
        SpanGuard outer(tracer, "outer \"quoted\" name");
        SpanGuard inner(tracer, "inner");
        tracer.instant("marker", 42);
    }
    const std::string json = tracer.chrome_json();
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    // The trace_event contract Perfetto relies on: a traceEvents array
    // whose entries carry name/ph/ts; complete events carry dur, instants
    // a scope.
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
    EXPECT_NE(json.find("\"args\":{\"value\":42}"), std::string::npos);
    EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
}

TEST(Telemetry, GlobalTraceFileRoundTrip)
{
    Tracer tracer;
    {
        SpanGuard span(tracer, "phase");
    }
    const std::string path = ::testing::TempDir() + "telemetry_trace.json";
    ASSERT_TRUE(tracer.write_chrome_json(path));
    std::ifstream file(path);
    ASSERT_TRUE(file.good());
    std::string contents((std::istreambuf_iterator<char>(file)),
                         std::istreambuf_iterator<char>());
    // Trailing newline is outside the JSON value.
    while (!contents.empty() &&
           (contents.back() == '\n' || contents.back() == '\r')) {
        contents.pop_back();
    }
    EXPECT_TRUE(JsonChecker(contents).valid()) << contents;
}

TEST(Telemetry, JsonEscape)
{
    EXPECT_EQ(json_escape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
    EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Telemetry, RegistryJsonExactBytes)
{
    // Exact bytes for fixed inputs: names are escaped, gauges carry their
    // high-water mark, histogram means print with %.6g.
    Registry r;
    r.counter("b.count")->inc(3);
    r.counter("a \"quoted\"")->inc(1);
    Gauge* g = r.gauge("depth");
    g->set(5);
    g->set(-2);
    Histogram* h = r.histogram("lat_ns");
    h->record(1);
    h->record(2);
    h->record(10);
    EXPECT_EQ(r.json(),
              R"({"counters":{"a \"quoted\"":1,"b.count":3},)"
              R"("gauges":{"depth":{"value":-2,"high_water":5}},)"
              R"("histograms":{"lat_ns":{"count":3,"sum":13,"min":1,)"
              R"("max":10,"mean":4.33333,"p50":2,"p90":10,"p99":10}}})");
    EXPECT_EQ(Registry().json(),
              R"({"counters":{},"gauges":{},"histograms":{}})");
}

TEST(Telemetry, ChromeTraceJsonExactBytesWithLanesFlowsAndArgs)
{
    // Tenant lanes get process_name metadata first; flows carry their
    // phase and id ('f' binds to the enclosing slice); args.value rides
    // on the arg overload; names are escaped.
    Tracer tracer;
    tracer.record_complete("a \"q\"", 1.0, 0.125, 0, 42);
    tracer.record_complete_tenant("compile", 10.0, 2.5, 2);
    tracer.flow_tenant("req", 's', 7, 2, 10.5);
    tracer.flow_tenant("req", 't', 7, 3, 11.0);
    tracer.flow_tenant("req", 'f', 7, 0, 20.25);
    const std::string tid = std::to_string(Tracer::thread_id());
    EXPECT_EQ(tracer.chrome_json(),
              R"({"displayTimeUnit":"ms",)"
              R"("traceEvents":[{"name":"process_name","ph":"M","pid":3,)"
              R"("args":{"name":"tenant 2"}},{"name":"process_name",)"
              R"("ph":"M","pid":4,"args":{"name":"tenant 3"}},)"
              R"({"name":"a \"q\"","cat":"cascade","pid":1,"tid":)"
              + tid
              + R"(,"ts":1.000,"ph":"X","dur":0.125,"args":{"value":42}},)"
              R"({"name":"compile","cat":"cascade","pid":3,"tid":)"
              + tid
              + R"(,"ts":10.000,"ph":"X","dur":2.500},{"name":"req",)"
              R"("cat":"cascade","pid":3,"tid":)"
              + tid
              + R"(,"ts":10.500,"ph":"s","id":7},{"name":"req",)"
              R"("cat":"cascade","pid":4,"tid":)"
              + tid
              + R"(,"ts":11.000,"ph":"t","id":7},{"name":"req",)"
              R"("cat":"cascade","pid":1,"tid":)"
              + tid
              + R"(,"ts":20.250,"ph":"f","id":7,"bp":"e"}]})");
}

} // namespace
} // namespace cascade::telemetry
