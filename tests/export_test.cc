/// \file
/// Tests for the telemetry export layer: Prometheus name sanitization and
/// label escaping, PromWriter family/sample rendering, the strict text
/// exposition validator (accept and reject cases), TimeSeries downsampling
/// arithmetic (pairwise averaging, stride doubling, bounded memory), and
/// SloTracker rolling windows (p99 upper bounds, per-tenant median lower
/// bounds, breach transitions and counters, window expiry, reset).

#include "telemetry/export.h"

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace cascade::telemetry {
namespace {

// ---------------------------------------------------------------------------
// Name sanitization and label escaping
// ---------------------------------------------------------------------------

TEST(PromNames, SanitizePrefixesAndReplaces)
{
    EXPECT_EQ(prom_sanitize_name("compile.cache.hits"),
              "cascade_compile_cache_hits");
    EXPECT_EQ(prom_sanitize_name("scheduler.step_ns"),
              "cascade_scheduler_step_ns");
    EXPECT_EQ(prom_sanitize_name("9lives"), "cascade_9lives");
    EXPECT_EQ(prom_sanitize_name("a-b c"), "cascade_a_b_c");
}

TEST(PromNames, EscapeLabelValues)
{
    EXPECT_EQ(prom_escape_label("plain"), "plain");
    EXPECT_EQ(prom_escape_label("a\"b"), "a\\\"b");
    EXPECT_EQ(prom_escape_label("a\\b"), "a\\\\b");
    EXPECT_EQ(prom_escape_label("a\nb"), "a\\nb");
}

// ---------------------------------------------------------------------------
// PromWriter rendering
// ---------------------------------------------------------------------------

TEST(PromWriter, RendersFamiliesInDeclarationOrder)
{
    PromWriter w;
    w.family("cascade_b", "gauge", "Second family.");
    w.family("cascade_a", "counter", "First family.");
    w.sample("cascade_a", {}, uint64_t{7});
    w.sample("cascade_b", {{"tenant", "alpha"}}, 1.5);
    const std::string text = w.render();

    const size_t b_at = text.find("# TYPE cascade_b gauge");
    const size_t a_at = text.find("# TYPE cascade_a counter");
    ASSERT_NE(b_at, std::string::npos);
    ASSERT_NE(a_at, std::string::npos);
    EXPECT_LT(b_at, a_at); // declaration order, not sample order
    EXPECT_NE(text.find("cascade_a 7\n"), std::string::npos);
    EXPECT_NE(text.find("cascade_b{tenant=\"alpha\"} 1.5\n"),
              std::string::npos);
    EXPECT_EQ(text.back(), '\n');

    std::string err;
    EXPECT_TRUE(validate_prometheus_text(text, &err)) << err;
}

TEST(PromWriter, SummarySuffixesAndEscapedLabels)
{
    PromWriter w;
    w.family("cascade_lat", "summary", "Latency summary.");
    w.sample("cascade_lat", {{"quantile", "0.99"}}, 0.25);
    w.sample("cascade_lat", {}, uint64_t{42}, "_sum");
    w.sample("cascade_lat", {}, uint64_t{10}, "_count");
    w.family("cascade_info", "gauge", "Labels with quotes.");
    w.sample("cascade_info", {{"site", "a\"b\\c"}}, uint64_t{1});
    const std::string text = w.render();

    EXPECT_NE(text.find("cascade_lat{quantile=\"0.99\"} 0.25\n"),
              std::string::npos);
    EXPECT_NE(text.find("cascade_lat_sum 42\n"), std::string::npos);
    EXPECT_NE(text.find("cascade_lat_count 10\n"), std::string::npos);
    EXPECT_NE(text.find("cascade_info{site=\"a\\\"b\\\\c\"} 1\n"),
              std::string::npos);

    std::string err;
    EXPECT_TRUE(validate_prometheus_text(text, &err)) << err;
}

TEST(PromWriter, NonFiniteValuesRenderAsPrometheusKeywords)
{
    PromWriter w;
    w.family("cascade_odd", "gauge", "Non-finite values.");
    w.sample("cascade_odd", {{"k", "nan"}}, std::nan(""));
    w.sample("cascade_odd", {{"k", "inf"}}, HUGE_VAL);
    w.sample("cascade_odd", {{"k", "ninf"}}, -HUGE_VAL);
    const std::string text = w.render();
    EXPECT_NE(text.find("} NaN\n"), std::string::npos);
    EXPECT_NE(text.find("} +Inf\n"), std::string::npos);
    EXPECT_NE(text.find("} -Inf\n"), std::string::npos);
    std::string err;
    EXPECT_TRUE(validate_prometheus_text(text, &err)) << err;
}

// ---------------------------------------------------------------------------
// Validator: reject cases
// ---------------------------------------------------------------------------

TEST(PromValidator, AcceptsCommentsBlanksAndTimestamps)
{
    const std::string ok =
        "# HELP cascade_x A metric.\n"
        "# TYPE cascade_x counter\n"
        "\n"
        "cascade_x{a=\"1\",b=\"two\"} 3 1700000000000\n"
        "cascade_x 4.5e-3\n";
    std::string err;
    EXPECT_TRUE(validate_prometheus_text(ok, &err)) << err;
}

TEST(PromValidator, RejectsMalformedInput)
{
    std::string err;
    // Missing trailing newline.
    EXPECT_FALSE(validate_prometheus_text("cascade_x 1", &err));
    // Bad metric name.
    EXPECT_FALSE(validate_prometheus_text("9bad 1\n", &err));
    // Bad label name.
    EXPECT_FALSE(
        validate_prometheus_text("cascade_x{9y=\"v\"} 1\n", &err));
    // Unterminated label value.
    EXPECT_FALSE(
        validate_prometheus_text("cascade_x{y=\"v} 1\n", &err));
    // Illegal escape in a label value.
    EXPECT_FALSE(
        validate_prometheus_text("cascade_x{y=\"a\\tb\"} 1\n", &err));
    // Value is not a float.
    EXPECT_FALSE(validate_prometheus_text("cascade_x pizza\n", &err));
    // No value at all.
    EXPECT_FALSE(validate_prometheus_text("cascade_x\n", &err));
    // Duplicate TYPE for one family.
    EXPECT_FALSE(validate_prometheus_text("# TYPE cascade_x gauge\n"
                                          "# TYPE cascade_x gauge\n"
                                          "cascade_x 1\n",
                                          &err));
    // TYPE after a sample of the family.
    EXPECT_FALSE(validate_prometheus_text("cascade_x 1\n"
                                          "# TYPE cascade_x gauge\n",
                                          &err));
    // Unknown type keyword.
    EXPECT_FALSE(validate_prometheus_text("# TYPE cascade_x banana\n"
                                          "cascade_x 1\n",
                                          &err));
}

TEST(PromValidator, SummarySuffixLinesAttributeToBaseFamily)
{
    const std::string ok = "# TYPE cascade_lat summary\n"
                           "cascade_lat{quantile=\"0.5\"} 1\n"
                           "cascade_lat_sum 2\n"
                           "cascade_lat_count 3\n";
    std::string err;
    EXPECT_TRUE(validate_prometheus_text(ok, &err)) << err;
}

// ---------------------------------------------------------------------------
// TimeSeries downsampling
// ---------------------------------------------------------------------------

TEST(TimeSeries, RecordsAndListsSeries)
{
    TimeSeries ts(8);
    ts.sample("a", 0.0, 1.0);
    ts.sample("b", 0.5, 2.0);
    ts.sample("a", 1.0, 3.0);
    EXPECT_EQ(ts.names(), (std::vector<std::string>{"a", "b"}));
    const auto a = ts.series("a");
    ASSERT_EQ(a.size(), 2u);
    EXPECT_DOUBLE_EQ(a[0].t, 0.0);
    EXPECT_DOUBLE_EQ(a[0].v, 1.0);
    EXPECT_DOUBLE_EQ(a[1].v, 3.0);
    EXPECT_EQ(ts.stride("a"), 1u);
    EXPECT_TRUE(ts.series("nope").empty());
}

TEST(TimeSeries, CompactsByPairwiseAveragingAndDoublesStride)
{
    TimeSeries ts(4);
    // The 4th sample fills a capacity-4 series and compacts
    // [0,10],[1,20],[2,30],[3,40] into [0.5,15],[2.5,35] (stride 2);
    // the 5th then shows through as a provisional trailing point.
    for (int i = 0; i < 5; ++i) {
        ts.sample("s", i, (i + 1) * 10.0);
    }
    const auto pts = ts.series("s");
    ASSERT_EQ(pts.size(), 3u);
    EXPECT_DOUBLE_EQ(pts[0].t, 0.5);
    EXPECT_DOUBLE_EQ(pts[0].v, 15.0);
    EXPECT_DOUBLE_EQ(pts[1].t, 2.5);
    EXPECT_DOUBLE_EQ(pts[1].v, 35.0);
    EXPECT_DOUBLE_EQ(pts[2].t, 4.0);
    EXPECT_DOUBLE_EQ(pts[2].v, 50.0);
    EXPECT_EQ(ts.stride("s"), 2u);
}

TEST(TimeSeries, MemoryStaysBoundedOverManySamples)
{
    TimeSeries ts(16);
    for (int i = 0; i < 10000; ++i) {
        ts.sample("s", i * 0.1, i);
    }
    EXPECT_LE(ts.series("s").size(), 16u);
    EXPECT_GE(ts.stride("s"), 512u); // 10000 raw samples / 16 slots
    // Oldest-first ordering survives repeated compaction.
    const auto pts = ts.series("s");
    for (size_t i = 1; i < pts.size(); ++i) {
        EXPECT_LT(pts[i - 1].t, pts[i].t);
    }
}

TEST(TimeSeries, JsonShapeAndReset)
{
    TimeSeries ts(8);
    ts.sample("x", 0.25, 4.0);
    const std::string json = ts.json();
    EXPECT_NE(json.find("\"schema\":\"cascade.timeseries.v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"x\""), std::string::npos);
    EXPECT_NE(json.find("\"stride\":1"), std::string::npos);
    ts.reset();
    EXPECT_TRUE(ts.names().empty());
    EXPECT_NE(ts.json().find("\"series\":{}"), std::string::npos);
}

// ---------------------------------------------------------------------------
// SloTracker
// ---------------------------------------------------------------------------

TEST(SloTracker, NoThresholdsMeansNoObjectives)
{
    SloTracker slo(SloTracker::Config{});
    slo.record_cold_compile(1.0, 99.0);
    const auto status = slo.evaluate(1.0);
    EXPECT_FALSE(status.breached);
    EXPECT_TRUE(status.objectives.empty());
    EXPECT_NE(slo.table(1.0).find("no SLO thresholds"),
              std::string::npos);
}

TEST(SloTracker, ColdCompileP99UpperBoundBreaches)
{
    SloTracker::Config cfg;
    cfg.window_s = 60;
    cfg.max_cold_compile_p99_s = 1.0;
    SloTracker slo(cfg);

    slo.record_cold_compile(1.0, 0.2);
    auto status = slo.evaluate(1.0);
    ASSERT_EQ(status.objectives.size(), 1u);
    EXPECT_FALSE(status.breached);
    EXPECT_EQ(status.objectives[0].name, "cold_compile_p99_s");

    slo.record_cold_compile(2.0, 5.0); // p99 of {0.2, 5.0} is 5.0
    int breach_calls = 0;
    slo.tick(2.0, [&](const SloTracker::Objective& o) {
        ++breach_calls;
        EXPECT_EQ(o.name, "cold_compile_p99_s");
        EXPECT_GT(o.observed, o.threshold);
        EXPECT_TRUE(o.breached);
    });
    EXPECT_EQ(breach_calls, 1);
    EXPECT_TRUE(slo.evaluate(2.0).breached);
    EXPECT_EQ(slo.total_breaches(), 1u);

    // Still breached: no second OK->breach transition.
    slo.tick(2.5, [&](const SloTracker::Objective&) { ++breach_calls; });
    EXPECT_EQ(breach_calls, 1);
}

TEST(SloTracker, WindowExpiryClearsBreach)
{
    SloTracker::Config cfg;
    cfg.window_s = 10;
    cfg.max_warm_compile_p99_s = 0.5;
    SloTracker slo(cfg);
    slo.record_warm_compile(0.0, 2.0);
    slo.tick(0.0, [](const SloTracker::Objective&) {});
    EXPECT_TRUE(slo.evaluate(0.0).breached);
    // 20s later the bad sample has rolled out of the window.
    slo.tick(20.0, [](const SloTracker::Objective&) {});
    EXPECT_FALSE(slo.evaluate(20.0).breached);
    EXPECT_EQ(slo.total_breaches(), 1u); // counter survives recovery
}

TEST(SloTracker, MinTicksPerTenantUsesMedianLowerBound)
{
    SloTracker::Config cfg;
    cfg.window_s = 60;
    cfg.min_ticks_per_s = 100.0;
    SloTracker slo(cfg);

    // One slow outlier among fast samples: the median keeps it OK.
    slo.record_ticks_per_s(1.0, "alpha", 500.0);
    slo.record_ticks_per_s(2.0, "alpha", 10.0);
    slo.record_ticks_per_s(3.0, "alpha", 600.0);
    slo.record_ticks_per_s(3.0, "beta", 5.0);
    slo.tick(3.0, [](const SloTracker::Objective&) {});

    const auto status = slo.evaluate(3.0);
    ASSERT_EQ(status.objectives.size(), 2u);
    bool saw_alpha = false;
    bool saw_beta = false;
    for (const auto& o : status.objectives) {
        EXPECT_EQ(o.name, "min_ticks_per_s");
        EXPECT_FALSE(o.upper_bound);
        if (o.tenant == "alpha") {
            saw_alpha = true;
            EXPECT_FALSE(o.breached);
        } else if (o.tenant == "beta") {
            saw_beta = true;
            EXPECT_TRUE(o.breached);
        }
    }
    EXPECT_TRUE(saw_alpha);
    EXPECT_TRUE(saw_beta);
    EXPECT_TRUE(status.breached);
}

TEST(SloTracker, JsonShapeAndReset)
{
    SloTracker::Config cfg;
    cfg.max_interrupt_p99_s = 0.001;
    SloTracker slo(cfg);
    slo.record_interrupt(1.0, 0.5);
    slo.tick(1.0, [](const SloTracker::Objective&) {});
    const std::string json = slo.json(1.0);
    EXPECT_NE(json.find("\"schema\":\"cascade.slo.v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"breached\":true"), std::string::npos);
    EXPECT_NE(json.find("interrupt_p99_s"), std::string::npos);

    slo.reset();
    EXPECT_FALSE(slo.evaluate(1.0).breached);
    EXPECT_EQ(slo.total_breaches(), 0u);
}

TEST(SloTracker, FeedsStayBoundedUnderFlood)
{
    SloTracker::Config cfg;
    cfg.max_cold_compile_p99_s = 10.0;
    SloTracker slo(cfg);
    for (int i = 0; i < 100000; ++i) {
        slo.record_cold_compile(i * 1e-3, 0.1);
    }
    // kMaxWindowPoints caps the window; evaluate stays cheap and sane.
    const auto status = slo.evaluate(100.0);
    ASSERT_EQ(status.objectives.size(), 1u);
    EXPECT_LE(status.objectives[0].samples, 4096u);
    EXPECT_FALSE(status.breached);
}

TEST(TimeSeries, JsonExactBytes)
{
    // Compaction (capacity 4) and the provisional trailing point both
    // render; values print with %.6g and names are escaped.
    TimeSeries ts(4);
    for (int i = 0; i < 5; ++i) {
        ts.sample("b", 0.1 * i, 1.0 / 3 + i);
    }
    ts.sample("a\"q", 1.5, 1e-7);
    EXPECT_EQ(ts.json(),
              R"({"schema":"cascade.timeseries.v1","capacity":4,)"
              R"("series":{"a\"q":{"stride":1,"points":[[1.5,1e-07]]},)"
              R"("b":{"stride":2,"points":[[0.05,0.833333],[0.25,)"
              R"(2.83333],[0.4,4.33333]]}}})");
    EXPECT_EQ(TimeSeries(8).json(),
              R"({"schema":"cascade.timeseries.v1","capacity":8,)"
              R"("series":{}})");
}

TEST(SloTracker, JsonExactBytes)
{
    SloTracker::Config cfg;
    cfg.window_s = 30;
    cfg.max_cold_compile_p99_s = 0.5;
    cfg.min_ticks_per_s = 1000;
    SloTracker slo(cfg);
    slo.record_cold_compile(1.0, 0.75);
    slo.record_ticks_per_s(1.0, "2", 500.0);
    slo.record_ticks_per_s(1.5, "t\"3", 2500.5);
    slo.tick(2.0, [](const SloTracker::Objective&) {});
    EXPECT_EQ(slo.json(2.0),
              R"({"schema":"cascade.slo.v1","breached":true,)"
              R"("window_s":30,)"
              R"("objectives":[{"name":"cold_compile_p99_s",)"
              R"("observed":0.75,"threshold":0.5,"bound":"upper",)"
              R"("samples":1,"breached":true,"breaches":1},)"
              R"({"name":"min_ticks_per_s","tenant":"2","observed":500,)"
              R"("threshold":1000,"bound":"lower","samples":1,)"
              R"("breached":true,"breaches":1},{"name":"min_ticks_per_s",)"
              R"("tenant":"t\"3","observed":2500.5,"threshold":1000,)"
              R"("bound":"lower","samples":1,"breached":false,)"
              R"("breaches":0}]})");
    EXPECT_EQ(SloTracker(SloTracker::Config{}).json(0),
              R"({"schema":"cascade.slo.v1","breached":false,)"
              R"("window_s":60,"objectives":[]})");
}

} // namespace
} // namespace cascade::telemetry
