/// \file
/// Flight-recorder unit tests: the JSON writer/parser pair, digest
/// stability, the bounded event ring, the `cascade.events.v1` file schema
/// produced by a recorded session, the leveled logger, and the crash
/// black box (including an end-to-end injected CASCADE_CHECK failure).

#include "telemetry/journal.h"

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/diagnostics.h"
#include "hypervisor/fabric_manager.h"
#include "runtime/runtime.h"
#include "service/compile_service.h"

namespace cascade::telemetry {
namespace {

TEST(Digest, KnownVectorsAndStability)
{
    // FNV-1a 64-bit reference vectors: the digest is part of the journal
    // schema, so it must never drift across platforms or releases.
    EXPECT_EQ(fnv1a64(""), 14695981039346656037ull);
    EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(digest_hex("a"), "af63dc4c8601ec8c");
    EXPECT_EQ(digest_hex(""), "cbf29ce484222325");
}

TEST(JsonWriter, TypesOrderingAndEscaping)
{
    const std::string s = JsonWriter()
                              .str("s", "a\"b\\c\n\tx")
                              .num("u", 18446744073709551615ull)
                              .num_signed("i", -42)
                              .boolean("t", true)
                              .boolean("f", false)
                              .raw("o", "{\"k\":1}")
                              .build();
    EXPECT_EQ(s, "{\"s\":\"a\\\"b\\\\c\\n\\tx\","
                 "\"u\":18446744073709551615,"
                 "\"i\":-42,\"t\":true,\"f\":false,"
                 "\"o\":{\"k\":1}}");
    EXPECT_EQ(JsonWriter().build(), "{}");
}

TEST(JsonWriter, DoublesRoundTripExactly)
{
    // %.17g: a parse -> re-print cycle must reproduce the exact bits
    // (replay re-records the options header it parsed).
    const double values[] = {0.3, 1e-6, 1.0 / 3.0, 50.0, 0.05};
    for (const double v : values) {
        const std::string printed = JsonWriter().dbl("v", v).build();
        JsonValue parsed;
        ASSERT_TRUE(parse_json(printed, &parsed)) << printed;
        EXPECT_EQ(parsed.get_num("v"), v) << printed;
    }
}

TEST(ParseJson, RoundTripAndAccessors)
{
    const char* text = "{\"a\":1,\"b\":-2.5,\"s\":\"x\\u0041\\n\","
                       "\"t\":true,\"n\":null,"
                       "\"arr\":[1,2,{\"k\":\"v\"}],"
                       "\"big\":18446744073709551615}";
    JsonValue v;
    std::string err;
    ASSERT_TRUE(parse_json(text, &v, &err)) << err;
    EXPECT_EQ(v.get_u64("a"), 1u);
    EXPECT_EQ(v.get_num("b"), -2.5);
    EXPECT_EQ(v.get_str("s"), "xA\n");
    EXPECT_TRUE(v.get_bool("t"));
    ASSERT_NE(v.find("n"), nullptr);
    EXPECT_EQ(v.find("n")->kind, JsonValue::Kind::Null);
    const JsonValue* arr = v.find("arr");
    ASSERT_NE(arr, nullptr);
    ASSERT_EQ(arr->arr.size(), 3u);
    EXPECT_EQ(arr->arr[2].get_str("k"), "v");
    EXPECT_EQ(v.get_u64("big"), 18446744073709551615ull);

    EXPECT_FALSE(parse_json("{\"a\":}", &v, &err));
    EXPECT_FALSE(parse_json("{} trailing", &v, &err));
    EXPECT_FALSE(parse_json("", &v, &err));
}

TEST(Journal, EventFormatAndClock)
{
    Journal j;
    uint64_t now = 42;
    j.set_clock([&now] { return now; });
    j.record("t", JsonWriter().str("k", "v").build());
    now = 99;
    j.record("u");
    const auto ring = j.ring();
    ASSERT_EQ(ring.size(), 2u);
    EXPECT_EQ(Journal::event_json(ring[0]),
              "{\"seq\":1,\"vt\":42,\"type\":\"t\",\"data\":{\"k\":\"v\"}}");
    EXPECT_EQ(Journal::event_json(ring[1]),
              "{\"seq\":2,\"vt\":99,\"type\":\"u\",\"data\":{}}");
}

TEST(Journal, TenantTagAppearsOnlyInSharedMode)
{
    // Exclusive sessions (tenant 0, the default) serialize exactly as
    // before — cascade.events.v1 stays byte-compatible — while a
    // shared-mode journal tags every subsequent event.
    Journal j;
    j.record("before");
    j.set_tenant(3);
    j.record("after", JsonWriter().num("k", 1).build());
    const auto ring = j.ring();
    ASSERT_EQ(ring.size(), 2u);
    EXPECT_EQ(ring[0].tenant, 0u);
    EXPECT_EQ(ring[1].tenant, 3u);
    EXPECT_EQ(Journal::event_json(ring[0]),
              "{\"seq\":1,\"vt\":0,\"type\":\"before\",\"data\":{}}");
    EXPECT_EQ(Journal::event_json(ring[1]),
              "{\"seq\":2,\"vt\":0,\"type\":\"after\",\"tenant\":3,"
              "\"data\":{\"k\":1}}");

    // The tagged line is still a valid JSON document with the payload
    // intact under "data".
    JsonValue v;
    std::string err;
    ASSERT_TRUE(parse_json(Journal::event_json(ring[1]), &v, &err)) << err;
    EXPECT_EQ(v.get_u64("tenant"), 3u);
    EXPECT_EQ(v.get_u64("seq"), 2u);
    const JsonValue* data = v.find("data");
    ASSERT_NE(data, nullptr);
    EXPECT_EQ(data->get_u64("k"), 1u);
}

TEST(Journal, RingIsBoundedAndOldestFirst)
{
    Journal j(256);
    for (int i = 0; i < 600; ++i) {
        j.record("e", JsonWriter().num("i", i).build());
    }
    EXPECT_EQ(j.events_recorded(), 600u);
    const auto ring = j.ring();
    ASSERT_EQ(ring.size(), 256u);
    // The ring keeps the most recent 256 events, oldest first, with the
    // global sequence numbering intact (seq 345..600).
    EXPECT_EQ(ring.front().seq, 345u);
    EXPECT_EQ(ring.back().seq, 600u);
    for (size_t i = 1; i < ring.size(); ++i) {
        EXPECT_EQ(ring[i].seq, ring[i - 1].seq + 1);
    }
}

TEST(Journal, ObserverSeesEveryEvent)
{
    Journal j;
    std::vector<std::string> seen;
    j.set_observer([&seen](const Journal::Event& e) {
        seen.push_back(e.type + ":" + e.data);
    });
    j.record("a", "{\"x\":1}");
    j.record("b");
    j.set_observer(nullptr);
    j.record("c");
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0], "a:{\"x\":1}");
    EXPECT_EQ(seen[1], "b:{}");
}

std::string
temp_path(const char* name)
{
    return (std::filesystem::temp_directory_path() /
            (std::string("cascade_journal_test_") + name +
             std::to_string(::getpid())))
        .string();
}

TEST(Journal, WriteRingProducesLoadableJournal)
{
    Journal j;
    j.record("x", JsonWriter().num("n", 7).build());
    const std::string path = temp_path("ring.jsonl");
    std::string err;
    ASSERT_TRUE(
        j.write_ring(path, JsonWriter().str("kind", "test").build(), &err))
        << err;
    std::ifstream in(path);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    JsonValue head;
    ASSERT_TRUE(parse_json(line, &head, &err)) << err;
    EXPECT_EQ(head.get_str("schema"), "cascade.events.v1");
    ASSERT_NE(head.find("header"), nullptr);
    EXPECT_EQ(head.find("header")->get_str("kind"), "test");
    ASSERT_TRUE(std::getline(in, line));
    JsonValue ev;
    ASSERT_TRUE(parse_json(line, &ev, &err)) << err;
    EXPECT_EQ(ev.get_str("type"), "x");
    std::filesystem::remove(path);
}

/// Golden schema test: a real recorded session must produce a journal
/// whose every line parses, whose sequence numbers strictly increase, and
/// whose event vocabulary covers the nondeterminism-bearing events.
TEST(Journal, RecordedSessionMatchesSchema)
{
    const std::string path = temp_path("session.jsonl");
    {
        runtime::Runtime::Options opts;
        opts.enable_hardware = false;
        runtime::Runtime rt(opts);
        std::string err;
        ASSERT_TRUE(rt.start_recording(path, &err)) << err;
        EXPECT_TRUE(rt.recording());
        ASSERT_TRUE(rt.eval("reg [7:0] n = 0;\n"
                            "always @(posedge clk.val) begin\n"
                            "  n <= n + 1;\n"
                            "  $display(\"n=%d\", n);\n"
                            "  if (n == 5) $finish;\n"
                            "end\n"));
        std::string ignored;
        EXPECT_FALSE(rt.eval("bad verilog !!!", &ignored));
        rt.run(1000);
        rt.stop_recording();
        EXPECT_FALSE(rt.recording());
    }

    std::ifstream in(path);
    ASSERT_TRUE(in.is_open());
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    JsonValue head;
    std::string err;
    ASSERT_TRUE(parse_json(line, &head, &err)) << err;
    EXPECT_EQ(head.get_str("schema"), "cascade.events.v1");
    const JsonValue* header = head.find("header");
    ASSERT_NE(header, nullptr);
    EXPECT_FALSE(header->get_bool("enable_hardware", true));

    uint64_t last_seq = 0;
    std::set<std::string> types;
    while (std::getline(in, line)) {
        if (line.empty()) {
            continue;
        }
        JsonValue ev;
        ASSERT_TRUE(parse_json(line, &ev, &err)) << err << "\n" << line;
        EXPECT_GT(ev.get_u64("seq"), last_seq) << line;
        last_seq = ev.get_u64("seq");
        ASSERT_NE(ev.find("type"), nullptr) << line;
        ASSERT_NE(ev.find("data"), nullptr) << line;
        types.insert(ev.get_str("type"));
    }
    for (const char* required :
         {"eval", "rebuild", "interrupt.enqueue", "interrupt.flush",
          "api.run", "finish"}) {
        EXPECT_TRUE(types.count(required) != 0)
            << "missing event type " << required;
    }
    std::filesystem::remove(path);
}

TEST(Logger, PlainAndJsonFormats)
{
    Logger& log = Logger::instance();
    const LogLevel old_level = log.level();
    const bool old_json = log.json();

    std::FILE* capture = std::tmpfile();
    ASSERT_NE(capture, nullptr);
    log.set_stream(capture);
    log.set_level(LogLevel::Info);
    log.set_json(false);

    EXPECT_TRUE(log.enabled(LogLevel::Error));
    EXPECT_TRUE(log.enabled(LogLevel::Info));
    EXPECT_FALSE(log.enabled(LogLevel::Debug));

    log.write(LogLevel::Warn, "test", "plain message");
    log.set_json(true);
    log.write(LogLevel::Info, "test", "json \"message\"");

    std::rewind(capture);
    std::string text;
    char buf[256];
    while (std::fgets(buf, sizeof buf, capture) != nullptr) {
        text += buf;
    }
    EXPECT_NE(text.find("cascade[warn] test: plain message"),
              std::string::npos)
        << text;
    const size_t json_at = text.find('{');
    ASSERT_NE(json_at, std::string::npos) << text;
    JsonValue v;
    std::string err;
    std::string json_line = text.substr(json_at);
    if (!json_line.empty() && json_line.back() == '\n') {
        json_line.pop_back();
    }
    ASSERT_TRUE(parse_json(json_line, &v, &err)) << err << "\n" << text;
    EXPECT_EQ(v.get_str("level"), "info");
    EXPECT_EQ(v.get_str("component"), "test");
    EXPECT_EQ(v.get_str("msg"), "json \"message\"");

    log.set_stream(nullptr);
    log.set_level(old_level);
    log.set_json(old_json);
    std::fclose(capture);
}

TEST(BlackBox, DumpJsonAggregatesSources)
{
    BlackBox& bb = BlackBox::instance();
    const int id = bb.add_source("unit_test", [] {
        return std::string("{\"hello\":1}");
    });
    const std::string dump = bb.dump_json("test reason");
    bb.remove_source(id);

    JsonValue v;
    std::string err;
    ASSERT_TRUE(parse_json(dump, &v, &err)) << err << "\n" << dump;
    EXPECT_EQ(v.get_str("schema"), "cascade.crash.v1");
    EXPECT_EQ(v.get_str("reason"), "test reason");
    const JsonValue* sources = v.find("sources");
    ASSERT_NE(sources, nullptr);
    bool found = false;
    for (const JsonValue& s : sources->arr) {
        if (s.get_str("name") == "unit_test") {
            found = true;
            ASSERT_NE(s.find("data"), nullptr);
            EXPECT_EQ(s.find("data")->get_u64("hello"), 1u);
        }
    }
    EXPECT_TRUE(found) << dump;
}

/// End-to-end black box: a session dies on an injected CASCADE_CHECK
/// failure and the crash file must carry the journal ring plus the
/// stats/profile snapshots of the live runtime.
TEST(BlackBoxDeathTest, CheckFailureWritesCrashFile)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // No pid suffix: the threadsafe death-test child re-executes this
    // test body with its own pid, and parent and child must agree on the
    // crash directory.
    const std::string dir = (std::filesystem::temp_directory_path() /
                             "cascade_journal_test_crashdir")
                                .string();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    ::setenv("CASCADE_CRASH_DIR", dir.c_str(), 1);

    EXPECT_DEATH(
        {
            runtime::Runtime::Options opts;
            opts.enable_hardware = false;
            runtime::Runtime rt(opts);
            rt.eval("reg [7:0] n = 0;\n"
                    "always @(posedge clk.val) begin\n"
                    "  n <= n + 1; $display(\"n=%d\", n);\n"
                    "end\n");
            rt.run(64);
            CASCADE_CHECK(1 == 2);
        },
        "CASCADE_CHECK failed: 1 == 2");
    ::unsetenv("CASCADE_CRASH_DIR");

    std::string crash_path;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("cascade-crash-", 0) == 0) {
            crash_path = entry.path().string();
        }
    }
    ASSERT_FALSE(crash_path.empty())
        << "no cascade-crash-*.json in " << dir;

    std::ifstream in(crash_path);
    std::stringstream ss;
    ss << in.rdbuf();
    JsonValue v;
    std::string err;
    ASSERT_TRUE(parse_json(ss.str(), &v, &err)) << err;
    EXPECT_EQ(v.get_str("schema"), "cascade.crash.v1");
    EXPECT_NE(v.get_str("reason").find("CASCADE_CHECK failed: 1 == 2"),
              std::string::npos)
        << v.get_str("reason");
    const JsonValue* sources = v.find("sources");
    ASSERT_NE(sources, nullptr);
    bool found_runtime = false;
    for (const JsonValue& s : sources->arr) {
        if (s.get_str("name") != "runtime") {
            continue;
        }
        found_runtime = true;
        const JsonValue* data = s.find("data");
        ASSERT_NE(data, nullptr);
        const JsonValue* events = data->find("events");
        ASSERT_NE(events, nullptr);
        EXPECT_FALSE(events->arr.empty())
            << "crash dump carries no journal events";
        // The ring must include the session's actual activity.
        bool saw_display = false;
        for (const JsonValue& e : events->arr) {
            if (e.get_str("type") == "interrupt.enqueue") {
                saw_display = true;
            }
        }
        EXPECT_TRUE(saw_display);
        EXPECT_NE(data->find("stats"), nullptr);
        EXPECT_NE(data->find("profile"), nullptr);
    }
    EXPECT_TRUE(found_runtime);
    std::filesystem::remove_all(dir);
}

/// Shared-mode black box: when a multi-tenant session dies, the crash
/// file's journal events must carry their tenant tags and the dump must
/// include the time-series section recorded before the crash — the
/// post-mortem shows the minutes before death, not just the final ring.
TEST(BlackBoxDeathTest, SharedModeCrashCarriesTenantTagsAndTimeseries)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const std::string dir = (std::filesystem::temp_directory_path() /
                             "cascade_journal_test_crashdir_shared")
                                .string();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    ::setenv("CASCADE_CRASH_DIR", dir.c_str(), 1);

    EXPECT_DEATH(
        {
            service::CompileService::Config cfg;
            cfg.workers = 1;
            service::CompileService svc(cfg);
            hypervisor::FabricManager fm;
            runtime::Runtime::Options opts;
            opts.enable_hardware = false;
            opts.tenant_name = "doomed";
            opts.timeseries_interval_s = 0.0005;
            runtime::Runtime rt(opts, svc, fm);
            rt.eval("reg [7:0] n = 0;\n"
                    "always @(posedge clk.val) begin\n"
                    "  n <= n + 1; $display(\"n=%d\", n);\n"
                    "end\n");
            // Long enough that the scheduler takes time-series samples.
            for (int i = 0;
                 i < 50 && rt.monitor().timeseries().names().empty(); ++i) {
                rt.run(64);
            }
            CASCADE_CHECK(3 == 4);
        },
        "CASCADE_CHECK failed: 3 == 4");
    ::unsetenv("CASCADE_CRASH_DIR");

    std::string crash_path;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("cascade-crash-", 0) == 0) {
            crash_path = entry.path().string();
        }
    }
    ASSERT_FALSE(crash_path.empty())
        << "no cascade-crash-*.json in " << dir;

    std::ifstream in(crash_path);
    std::stringstream ss;
    ss << in.rdbuf();
    JsonValue v;
    std::string err;
    ASSERT_TRUE(parse_json(ss.str(), &v, &err)) << err;
    EXPECT_EQ(v.get_str("schema"), "cascade.crash.v1");
    const JsonValue* sources = v.find("sources");
    ASSERT_NE(sources, nullptr);
    bool found_runtime = false;
    for (const JsonValue& s : sources->arr) {
        if (s.get_str("name") != "runtime") {
            continue;
        }
        found_runtime = true;
        const JsonValue* data = s.find("data");
        ASSERT_NE(data, nullptr);

        // Every journal event of a shared-mode session is tenant-tagged.
        const JsonValue* events = data->find("events");
        ASSERT_NE(events, nullptr);
        ASSERT_FALSE(events->arr.empty());
        for (const JsonValue& e : events->arr) {
            EXPECT_GT(e.get_u64("tenant"), 0u)
                << "untagged event " << e.get_str("type");
        }

        // The time-series rings ride along in the dump.
        const JsonValue* ts = data->find("timeseries");
        ASSERT_NE(ts, nullptr);
        EXPECT_EQ(ts->get_str("schema"), "cascade.timeseries.v1");
        const JsonValue* series = ts->find("series");
        ASSERT_NE(series, nullptr);
        EXPECT_NE(series->find("runtime.ticks_per_s"), nullptr);
    }
    EXPECT_TRUE(found_runtime);
    std::filesystem::remove_all(dir);
}

TEST(Journal, RingJsonAndWriteRingExactBytes)
{
    // The ring in order, tenant tags only on events recorded after
    // set_tenant, and the file form: schema header line, then one event
    // per line.
    Journal j(4);
    uint64_t now = 5;
    j.set_clock([&now] { return now; });
    j.record("api.eval", JsonWriter().str("text", "a\"b\n").build());
    now = 6;
    j.record("tick");
    j.set_tenant(2);
    j.record("compile.done",
             JsonWriter().num("version", 3).boolean("ok", true).build());
    EXPECT_EQ(j.ring_json(),
              R"([{"seq":1,"vt":5,"type":"api.eval",)"
              R"("data":{"text":"a\"b\n"}},{"seq":2,"vt":6,"type":"tick",)"
              R"("data":{}},{"seq":3,"vt":6,"type":"compile.done",)"
              R"("tenant":2,"data":{"version":3,"ok":true}}])");
    EXPECT_EQ(Journal().ring_json(),
              R"([])");

    const std::string path =
        ::testing::TempDir() + "journal_write_ring.jsonl";
    ASSERT_TRUE(j.write_ring(path, "{\"k\":1}"));
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_EQ(ss.str(),
              R"({"schema":"cascade.events.v1","header":{"k":1}})"
              "\n"
              R"({"seq":1,"vt":5,"type":"api.eval",)"
              R"("data":{"text":"a\"b\n"}})"
              "\n"
              R"({"seq":2,"vt":6,"type":"tick","data":{}})"
              "\n"
              R"({"seq":3,"vt":6,"type":"compile.done","tenant":2,)"
              R"("data":{"version":3,"ok":true}})"
              "\n");
    std::filesystem::remove(path);
}

TEST(Logger, JsonLineExactBytes)
{
    Logger& log = Logger::instance();
    const LogLevel old_level = log.level();
    const bool old_json = log.json();
    std::FILE* capture = std::tmpfile();
    ASSERT_NE(capture, nullptr);
    log.set_stream(capture);
    log.set_level(LogLevel::Info);
    log.set_json(true);
    log.write(LogLevel::Warn, "jit", "a \"b\"\n\tc\x01");
    std::rewind(capture);
    std::string text;
    char buf[256];
    while (std::fgets(buf, sizeof buf, capture) != nullptr) {
        text += buf;
    }
    EXPECT_EQ(text,
              R"({"log":"cascade","level":"warn","component":"jit",)"
              R"("msg":"a \"b\"\n\tc\u0001"})"
              "\n");
    log.set_stream(nullptr);
    log.set_level(old_level);
    log.set_json(old_json);
    std::fclose(capture);
}

TEST(BlackBox, DumpJsonExactBytes)
{
    // Sources in registration order; an empty provider renders null; the
    // reason and names are escaped.
    BlackBox& bb = BlackBox::instance();
    const int first = bb.add_source("first", [] {
        return std::string("{\"x\":1}");
    });
    const int second = bb.add_source("second \"q\"", [] {
        return std::string();
    });
    const std::string dump = bb.dump_json("reason\n1");
    bb.remove_source(first);
    bb.remove_source(second);
    const std::string pid = std::to_string(static_cast<long>(::getpid()));
    EXPECT_EQ(dump,
              R"({"schema":"cascade.crash.v1","reason":"reason\n1","pid":)"
              + pid
              + R"(,"sources":[{"name":"first","data":{"x":1}},)"
              R"({"name":"second \"q\"","data":null}]})");
}

} // namespace
} // namespace cascade::telemetry
