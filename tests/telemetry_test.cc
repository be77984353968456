// Telemetry-layer acceptance: histogram bucket/percentile math, the
// lock-light registry under ThreadPool hammering, trace JSON
// well-formedness (parsed back with the in-tree parser), the pluggable
// log sink, and the contract that matters most — enabling tracing and
// metrics changes ZERO bits of inference output.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/common/thread_pool.h"
#include "src/graph/datasets.h"
#include "src/inference/inferturbo_mapreduce.h"
#include "src/inference/inferturbo_pregel.h"
#include "src/nn/model.h"
#include "src/telemetry/json.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/run_report.h"
#include "src/telemetry/trace.h"

namespace inferturbo {
namespace {

/// Every test leaves the global switches the way it found them (off),
/// so suites sharing the binary never observe each other's telemetry.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GlobalMetrics().ResetValues();
    ClearTrace();
  }
  void TearDown() override {
    SetMetricsEnabled(false);
    SetTracingEnabled(false);
    GlobalMetrics().ResetValues();
    ClearTrace();
  }
};

// --- metrics registry ------------------------------------------------

TEST_F(TelemetryTest, CounterDisabledIsNoOp) {
  Counter* c = GlobalMetrics().GetCounter("test.disabled");
  c->Increment();
  c->Add(41);
  EXPECT_EQ(c->value(), 0);
  SetMetricsEnabled(true);
  c->Increment();
  c->Add(41);
  EXPECT_EQ(c->value(), 42);
}

TEST_F(TelemetryTest, RegistryReturnsStablePointers) {
  Counter* a = GlobalMetrics().GetCounter("test.stable");
  Counter* b = GlobalMetrics().GetCounter("test.stable");
  EXPECT_EQ(a, b);
  Gauge* g1 = GlobalMetrics().GetGauge("test.stable_gauge");
  Gauge* g2 = GlobalMetrics().GetGauge("test.stable_gauge");
  EXPECT_EQ(g1, g2);
}

TEST_F(TelemetryTest, GaugeTracksValueAndPeak) {
  SetMetricsEnabled(true);
  Gauge* g = GlobalMetrics().GetGauge("test.gauge");
  g->Set(10);
  g->Set(25);
  g->Set(7);
  EXPECT_EQ(g->value(), 7);
  EXPECT_EQ(g->peak(), 25);
}

TEST_F(TelemetryTest, HistogramBucketMath) {
  SetMetricsEnabled(true);
  HistogramOptions options;
  options.first_bucket = 1.0;
  options.growth = 2.0;
  options.num_buckets = 4;  // bounds: 1, 2, 4, +inf
  Histogram* h = GlobalMetrics().GetHistogram("test.buckets", options);
  EXPECT_DOUBLE_EQ(h->BucketUpperBound(0), 1.0);
  EXPECT_DOUBLE_EQ(h->BucketUpperBound(1), 2.0);
  EXPECT_DOUBLE_EQ(h->BucketUpperBound(2), 4.0);
  EXPECT_TRUE(std::isinf(h->BucketUpperBound(3)));

  h->Observe(0.5);   // bucket 0
  h->Observe(1.0);   // bucket 0 (inclusive upper bound)
  h->Observe(1.5);   // bucket 1
  h->Observe(3.0);   // bucket 2
  h->Observe(100.0); // overflow bucket
  EXPECT_EQ(h->bucket_count(0), 2);
  EXPECT_EQ(h->bucket_count(1), 1);
  EXPECT_EQ(h->bucket_count(2), 1);
  EXPECT_EQ(h->bucket_count(3), 1);
  EXPECT_EQ(h->count(), 5);
  EXPECT_DOUBLE_EQ(h->sum(), 106.0);
  EXPECT_DOUBLE_EQ(h->max(), 100.0);
}

TEST_F(TelemetryTest, HistogramPercentileInterpolation) {
  SetMetricsEnabled(true);
  HistogramOptions options;
  options.first_bucket = 1.0;
  options.growth = 2.0;
  options.num_buckets = 8;
  Histogram* h = GlobalMetrics().GetHistogram("test.pct", options);
  // 100 observations uniformly inside bucket 0 (0, 1].
  for (int i = 0; i < 100; ++i) h->Observe(0.5);
  // p50 interpolates to the middle of bucket 0's (0, 1] range.
  EXPECT_DOUBLE_EQ(h->Percentile(0.50), 0.5);
  EXPECT_DOUBLE_EQ(h->Percentile(1.00), 1.0);
  EXPECT_DOUBLE_EQ(h->Percentile(0.0), 0.0);

  // Push 100 more into bucket 2 (2, 4]: now p75 lands inside bucket 2.
  for (int i = 0; i < 100; ++i) h->Observe(3.0);
  // rank(0.75) = 150; bucket 0 holds 100, bucket 2 holds the next 100,
  // so p75 = 2 + (4 - 2) * 50/100 = 3.
  EXPECT_DOUBLE_EQ(h->Percentile(0.75), 3.0);
  EXPECT_EQ(h->count(), 200);
}

TEST_F(TelemetryTest, HistogramOverflowPercentileUsesObservedMax) {
  SetMetricsEnabled(true);
  HistogramOptions options;
  options.first_bucket = 1.0;
  options.growth = 2.0;
  options.num_buckets = 3;  // bounds: 1, 2, +inf
  Histogram* h = GlobalMetrics().GetHistogram("test.overflow", options);
  for (int i = 0; i < 10; ++i) h->Observe(50.0);
  const double p99 = h->Percentile(0.99);
  EXPECT_TRUE(std::isfinite(p99));
  EXPECT_LE(p99, 50.0);
  EXPECT_GE(p99, 2.0);
}

TEST_F(TelemetryTest, ConcurrentCountersUnderThreadPoolHammering) {
  SetMetricsEnabled(true);
  ThreadPool pool(8);
  Counter* c = GlobalMetrics().GetCounter("test.hammer");
  Histogram* h = GlobalMetrics().GetHistogram("test.hammer_hist");
  constexpr std::size_t kOps = 20000;
  pool.ParallelFor(kOps, [&](std::size_t i) {
    c->Increment();
    h->Observe(static_cast<double>(i % 7) * 1e-5);
    // Concurrent registration of the same name must also be safe.
    GlobalMetrics().GetCounter("test.hammer_shared")->Add(2);
  });
  EXPECT_EQ(c->value(), static_cast<std::int64_t>(kOps));
  EXPECT_EQ(h->count(), static_cast<std::int64_t>(kOps));
  EXPECT_EQ(GlobalMetrics().GetCounter("test.hammer_shared")->value(),
            static_cast<std::int64_t>(2 * kOps));
}

TEST_F(TelemetryTest, HistogramPercentilesCorrectUnderConcurrentRecording) {
  // Serving quotes p50/p99 tail latencies straight from these
  // histograms while many query threads record concurrently — the
  // percentiles must land in the right buckets, not merely not crash.
  SetMetricsEnabled(true);
  HistogramOptions options;
  options.first_bucket = 1.0;
  options.growth = 2.0;
  options.num_buckets = 12;
  Histogram* h = GlobalMetrics().GetHistogram("test.concurrent_pct", options);

  constexpr int kThreads = 8;
  constexpr int kBody = 1000;  // per thread, value 1.0 -> bucket (0, 1]
  constexpr int kTail = 50;    // per thread, value 100.0 -> bucket (64, 128]
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      // Interleave body and tail so bucket updates from different
      // threads genuinely race on both buckets.
      for (int i = 0; i < kBody; ++i) {
        h->Observe(1.0);
        if (i < kTail) h->Observe(100.0);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Totals are exact: no observation may be lost or double-counted.
  constexpr std::int64_t kN = kThreads * (kBody + kTail);
  EXPECT_EQ(h->count(), kN);
  EXPECT_DOUBLE_EQ(h->sum(), kThreads * (kBody * 1.0 + kTail * 100.0));
  EXPECT_DOUBLE_EQ(h->max(), 100.0);

  // p50 rank 4200 of 8400 falls well inside the body bucket (0, 1];
  // p99 rank 8316 > 8000 body observations falls in the tail bucket
  // (64, 128].
  const double p50 = h->Percentile(0.50);
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, 1.0);
  const double p99 = h->Percentile(0.99);
  EXPECT_GT(p99, 64.0);
  EXPECT_LE(p99, 128.0);
}

TEST_F(TelemetryTest, ResetValuesKeepsInstruments) {
  SetMetricsEnabled(true);
  Counter* c = GlobalMetrics().GetCounter("test.reset");
  c->Add(5);
  GlobalMetrics().ResetValues();
  EXPECT_EQ(c->value(), 0);
  EXPECT_EQ(GlobalMetrics().GetCounter("test.reset"), c);
  c->Add(3);
  EXPECT_EQ(c->value(), 3);
}

TEST_F(TelemetryTest, SnapshotIsParseableJsonWithPercentiles) {
  SetMetricsEnabled(true);
  GlobalMetrics().GetCounter("snap.counter")->Add(7);
  GlobalMetrics().GetGauge("snap.gauge")->Set(11);
  Histogram* h = GlobalMetrics().GetHistogram("snap.hist");
  h->Observe(0.5);
  const Result<JsonValue> parsed =
      ParseJson(GlobalMetrics().SnapshotJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* counter = parsed->Find("counters");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->Find("snap.counter")->as_int(), 7);
  const JsonValue* hist = parsed->Find("histograms")->Find("snap.hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->Find("count")->as_int(), 1);
  EXPECT_NE(hist->Find("p50"), nullptr);
  EXPECT_NE(hist->Find("p95"), nullptr);
  EXPECT_NE(hist->Find("p99"), nullptr);
}

// --- JSON round trip -------------------------------------------------

TEST_F(TelemetryTest, JsonRoundTrip) {
  JsonValue::Object object{
      {"int", JsonValue(std::int64_t{-42})},
      {"big", JsonValue(std::int64_t{1} << 60)},
      {"float", JsonValue(2.5)},
      {"bool", JsonValue(true)},
      {"null", JsonValue(nullptr)},
      {"str", JsonValue("quote\" slash\\ ctrl\n")},
      {"arr", JsonValue(JsonValue::Array{JsonValue(1), JsonValue("two")})},
  };
  const std::string dumped = JsonValue(object).Dump(2);
  const Result<JsonValue> parsed = ParseJson(dumped);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("int")->as_int(), -42);
  EXPECT_EQ(parsed->Find("big")->as_int(), std::int64_t{1} << 60);
  EXPECT_DOUBLE_EQ(parsed->Find("float")->as_double(), 2.5);
  EXPECT_TRUE(parsed->Find("bool")->as_bool());
  EXPECT_TRUE(parsed->Find("null")->is_null());
  EXPECT_EQ(parsed->Find("str")->as_string(), "quote\" slash\\ ctrl\n");
  EXPECT_EQ(parsed->Find("arr")->as_array()[1].as_string(), "two");
}

TEST_F(TelemetryTest, JsonParserRejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("{\"a\": }").ok());
  EXPECT_FALSE(ParseJson("[1, 2").ok());
  EXPECT_FALSE(ParseJson("{} trailing").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("nulL").ok());
}

// --- trace recorder --------------------------------------------------

TEST_F(TelemetryTest, DisabledTracingRecordsNothing) {
  { TraceSpan span("test/never", 0); }
  EXPECT_TRUE(DrainTrace().empty());
}

TEST_F(TelemetryTest, SpansRecordNamesTracksAndNesting) {
  SetTracingEnabled(true);
  {
    TraceSpan outer("test/outer", 3);
    TraceSpan inner("test/inner", 3);
  }
  { TraceSpan other("test/other", 1); }
  const std::vector<TraceEvent> events = DrainTrace();
  ASSERT_EQ(events.size(), 3u);
  // Sorted by track first; within track 3 the outer (longer) span
  // precedes the inner one.
  EXPECT_STREQ(events[0].name, "test/other");
  EXPECT_EQ(events[0].track, 1);
  EXPECT_STREQ(events[1].name, "test/outer");
  EXPECT_STREQ(events[2].name, "test/inner");
  EXPECT_GE(events[1].dur_ns, events[2].dur_ns);
  EXPECT_LE(events[1].start_ns, events[2].start_ns);
}

TEST_F(TelemetryTest, TraceJsonIsWellFormedChromeFormat) {
  SetTracingEnabled(true);
  ThreadPool pool(4);
  pool.ParallelFor(64, [&](std::size_t i) {
    TraceSpan span("test/task", static_cast<std::int64_t>(i % 8));
  });
  { TraceSpan coordinator("test/coordinator"); }
  const Result<JsonValue> parsed = ParseJson(DrainTraceJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  std::int64_t complete = 0;
  std::int64_t last_track = -1;
  double last_ts = 0.0;
  for (const JsonValue& e : events->as_array()) {
    const std::string& ph = e.Find("ph")->as_string();
    ASSERT_TRUE(ph == "X" || ph == "M");
    if (ph == "M") continue;  // thread_name metadata
    ++complete;
    EXPECT_FALSE(e.Find("name")->as_string().empty());
    const std::int64_t track = e.Find("tid")->as_int();
    const double ts = e.Find("ts")->as_double();
    EXPECT_GE(e.Find("dur")->as_double(), 0.0);
    // The drain contract: (track, ts) sorted.
    if (track == last_track) EXPECT_GE(ts, last_ts);
    last_track = track;
    last_ts = ts;
  }
  EXPECT_EQ(complete, 65);
  // Coordinator spans land on the default per-thread tracks.
  bool saw_default_track = false;
  for (const JsonValue& e : events->as_array()) {
    if (e.Find("ph")->as_string() == "X" &&
        e.Find("tid")->as_int() >= TraceSpan::kDefaultTrackBase) {
      saw_default_track = true;
    }
  }
  EXPECT_TRUE(saw_default_track);
}

// --- run report ------------------------------------------------------

TEST_F(TelemetryTest, RunReportUnifiesJobStorageMetricsAndConfig) {
  SetMetricsEnabled(true);
  GlobalMetrics().GetCounter("report.counter")->Add(9);
  JobMetrics metrics;
  metrics.workers.resize(2);
  WorkerStepMetrics step;
  step.busy_seconds = 0.25;
  step.bytes_in = 100;
  metrics.workers[0].steps.push_back(step);
  metrics.workers[1].steps.push_back(step);
  metrics.storage.cache_hits = 4;
  metrics.storage.evictions = 3;
  metrics.storage.peak_bytes_mapped = 4096;
  RunReportOptions options;
  options.backend = "pregel";
  options.config["workers"] = "2";
  const Result<JsonValue> parsed =
      ParseJson(BuildRunReportJson(metrics, options));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("schema")->as_string(), "inferturbo.run_report.v1");
  EXPECT_EQ(parsed->Find("backend")->as_string(), "pregel");
  EXPECT_EQ(parsed->Find("config")->Find("workers")->as_string(), "2");
  const JsonValue* job = parsed->Find("job");
  ASSERT_NE(job, nullptr);
  EXPECT_EQ(job->Find("num_workers")->as_int(), 2);
  EXPECT_EQ(job->Find("total_bytes_in")->as_int(), 200);
  EXPECT_DOUBLE_EQ(job->Find("total_cpu_seconds")->as_double(), 0.5);
  EXPECT_EQ(job->Find("per_worker")->as_array().size(), 2u);
  const JsonValue* storage = parsed->Find("storage");
  ASSERT_NE(storage, nullptr);
  EXPECT_EQ(storage->Find("peak_bytes_mapped")->as_int(), 4096);
  EXPECT_EQ(storage->Find("cache_hits")->as_int(), 4);
  EXPECT_EQ(storage->Find("evictions")->as_int(), 3);
  EXPECT_EQ(storage->Find("prefetch_hit_rate"), nullptr);
  EXPECT_EQ(storage->Find("read_path"), nullptr);
  EXPECT_EQ(parsed->Find("metrics")
                ->Find("counters")
                ->Find("report.counter")
                ->as_int(),
            9);
}

// --- logging sink ----------------------------------------------------

TEST_F(TelemetryTest, LogSinkCapturesFormattedLines) {
  std::vector<std::string> lines;
  std::vector<LogLevel> levels;
  SetLogSink([&](LogLevel level, const std::string& line) {
    levels.push_back(level);
    lines.push_back(line);
  });
  INFERTURBO_LOG(Warning) << "captured " << 42;
  SetLogSink(nullptr);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(levels[0], LogLevel::kWarning);
  // Prefix: "[W HH:MM:SS.mmm tNN telemetry_test.cc:LINE] captured 42".
  EXPECT_EQ(lines[0].rfind("captured 42"), lines[0].size() - 11);
  EXPECT_EQ(lines[0][0], '[');
  EXPECT_EQ(lines[0][1], 'W');
  EXPECT_NE(lines[0].find("telemetry_test.cc:"), std::string::npos);
  // Timestamp "HH:MM:SS.mmm" and thread id "tN" are present.
  EXPECT_NE(lines[0].find(':'), std::string::npos);
  EXPECT_NE(lines[0].find(" t"), std::string::npos);
}

TEST_F(TelemetryTest, LogSinkRespectsMinLevel) {
  std::vector<std::string> lines;
  SetLogSink([&](LogLevel, const std::string& line) {
    lines.push_back(line);
  });
  SetLogLevel(LogLevel::kError);
  INFERTURBO_LOG(Info) << "dropped";
  INFERTURBO_LOG(Error) << "kept";
  SetLogLevel(LogLevel::kInfo);
  SetLogSink(nullptr);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("kept"), std::string::npos);
}

TEST_F(TelemetryTest, ParseLogLevelNames) {
  LogLevel level = LogLevel::kInfo;
  EXPECT_TRUE(ParseLogLevel("debug", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(ParseLogLevel("warning", &level));
  EXPECT_EQ(level, LogLevel::kWarning);
  EXPECT_TRUE(ParseLogLevel("warn", &level));
  EXPECT_EQ(level, LogLevel::kWarning);
  EXPECT_TRUE(ParseLogLevel("error", &level));
  EXPECT_EQ(level, LogLevel::kError);
  EXPECT_FALSE(ParseLogLevel("chatty", &level));
  EXPECT_EQ(level, LogLevel::kError);  // untouched on failure
}

// --- the overhead contract's other half: zero output perturbation ----

Dataset TelemetryDataset() {
  PlantedGraphConfig config;
  config.num_nodes = 300;
  config.avg_degree = 8.0;
  config.num_classes = 5;
  config.feature_dim = 12;
  config.seed = 17;
  return MakePlantedDataset("telemetry", config);
}

std::unique_ptr<GnnModel> TelemetryModel(const Graph& graph) {
  ModelConfig config;
  config.input_dim = graph.feature_dim();
  config.hidden_dim = 16;
  config.num_classes = graph.num_classes();
  config.num_layers = 2;
  config.seed = 7;
  Result<std::unique_ptr<GnnModel>> model = MakeModel("sage", config);
  EXPECT_TRUE(model.ok());
  return std::move(model).ValueOrDie();
}

void ExpectBitIdentical(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::int64_t i = 0; i < a.size(); ++i) {
    // Tolerance 0.0f: telemetry must not move a single bit.
    ASSERT_EQ(a.data()[i], b.data()[i]) << "logit " << i << " diverged";
  }
}

TEST_F(TelemetryTest, TracingDoesNotChangePregelLogits) {
  const Dataset dataset = TelemetryDataset();
  const std::unique_ptr<GnnModel> model = TelemetryModel(dataset.graph);
  InferTurboOptions options;
  options.num_workers = 4;
  const Result<InferenceResult> base =
      RunInferTurboPregel(dataset.graph, *model, options);
  ASSERT_TRUE(base.ok()) << base.status().ToString();

  SetTracingEnabled(true);
  SetMetricsEnabled(true);
  const Result<InferenceResult> traced =
      RunInferTurboPregel(dataset.graph, *model, options);
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();
  ExpectBitIdentical(base->logits, traced->logits);
  // And the run actually recorded something.
  const std::vector<TraceEvent> events = DrainTrace();
  EXPECT_FALSE(events.empty());
  bool saw_compute = false;
  for (const TraceEvent& e : events) {
    if (std::string_view(e.name) == "pregel/compute") saw_compute = true;
  }
  EXPECT_TRUE(saw_compute);
}

TEST_F(TelemetryTest, TracingDoesNotChangeMapReduceLogits) {
  const Dataset dataset = TelemetryDataset();
  const std::unique_ptr<GnnModel> model = TelemetryModel(dataset.graph);
  InferTurboOptions options;
  options.num_workers = 4;
  const Result<InferenceResult> base =
      RunInferTurboMapReduce(dataset.graph, *model, options);
  ASSERT_TRUE(base.ok()) << base.status().ToString();

  SetTracingEnabled(true);
  SetMetricsEnabled(true);
  const Result<InferenceResult> traced =
      RunInferTurboMapReduce(dataset.graph, *model, options);
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();
  ExpectBitIdentical(base->logits, traced->logits);
  bool saw_reduce = false;
  for (const TraceEvent& e : DrainTrace()) {
    if (std::string_view(e.name) == "mr/reduce") saw_reduce = true;
  }
  EXPECT_TRUE(saw_reduce);
}

}  // namespace
}  // namespace inferturbo
