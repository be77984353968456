// Online serving benchmark and regression harness: a zipf query
// stream from concurrent threads against a ServingEngine while a
// background delta stream mutates the graph — the workload shape of
// an always-on scoring service (hot entities dominate lookups, the
// graph never stops changing).
//
//   serial_query  one thread, zero batch window: the per-query floor
//   zipf_serve    N threads through the request batcher, deltas racing
//   delta_stream  the background writer's per-delta cost + cone size
//
// Percentiles are exact (sorted per-query latencies, not histogram
// buckets). Host-invariant gates: the final served logits fold into a
// logits_crc that must match the baseline bit-for-bit, and the delta
// stream's total recomputation count is an exact function of the
// seeded schedule. Host-speed-dependent numbers (QPS, p50/p99) are
// gated only through ratios (p99_over_serial) and generous timing
// tolerances. Baseline comparison is tools/report_diff's job.
//
// The run FAILS — not just reports — when an invariant breaks: served
// logits diverging from a from-scratch reference pass on the final
// graph, a cold cache that never hits, or a delta that recomputes
// nothing.
//
// Usage:
//   bench_serving                  full sweep, writes BENCH_serving.json
//   bench_serving --quick          CI smoke: same rows, fewer queries
//   bench_serving --out=PATH       write the JSON elsewhere
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/crc32.h"
#include "src/common/flags.h"
#include "src/common/timer.h"
#include "src/inference/reference_inference.h"
#include "src/serving/serving_engine.h"
#include "src/serving/workload.h"
#include "src/telemetry/metrics.h"

namespace inferturbo {
namespace {

constexpr std::int64_t kDeltas = 16;
constexpr std::int64_t kNodesPerQuery = 4;
constexpr double kZipfAlpha = 1.1;

volatile std::uint64_t g_sink = 0;

struct BenchRecord {
  std::string op;
  double seconds_per_iter = 0.0;  // p50 latency (serve rows), mean (delta)
  double p99_seconds = 0.0;
  double qps = 0.0;
  double cache_hit_rate = 0.0;
  std::int64_t queries = 0;
  std::int64_t recomputed = 0;
};

struct Percentiles {
  double p50 = 0.0;
  double p99 = 0.0;
};

Percentiles ExactPercentiles(std::vector<double>* latencies) {
  Percentiles out;
  if (latencies->empty()) return out;
  std::sort(latencies->begin(), latencies->end());
  const auto at = [&](double q) {
    const std::size_t rank = static_cast<std::size_t>(
        q * static_cast<double>(latencies->size() - 1));
    return (*latencies)[rank];
  };
  out.p50 = at(0.50);
  out.p99 = at(0.99);
  return out;
}

void WriteJson(const std::string& path,
               const std::vector<BenchRecord>& records, bool quick,
               const std::string& shape, std::uint64_t logits_crc,
               double p99_over_serial) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "bench_serving: cannot write %s\n", path.c_str());
    std::exit(2);
  }
  out << "{\n";
  out << "  \"bench\": \"bench_serving\",\n";
  out << "  \"mode\": \"" << (quick ? "quick" : "full") << "\",\n";
  out << "  \"shape\": \"" << shape << "\",\n";
  out << "  \"logits_crc\": \"" << logits_crc << "\",\n";
  char ratio[64];
  std::snprintf(ratio, sizeof(ratio), "  \"p99_over_serial\": %.3f,\n",
                p99_over_serial);
  out << ratio;
  out << "  \"results\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    char line[512];
    std::snprintf(
        line, sizeof(line),
        "    {\"op\": \"%s\", \"seconds_per_iter\": %.6e, "
        "\"p99_seconds\": %.6e, \"qps\": %.1f, \"cache_hit_rate\": %.4f, "
        "\"queries\": %lld, \"recomputed\": %lld}%s",
        r.op.c_str(), r.seconds_per_iter, r.p99_seconds, r.qps,
        r.cache_hit_rate, static_cast<long long>(r.queries),
        static_cast<long long>(r.recomputed),
        i + 1 < records.size() ? "," : "");
    out << line << "\n";
  }
  out << "  ]\n}\n";
  std::printf("\nwrote %zu records to %s\n", records.size(), path.c_str());
}

int Main(int argc, const char* const argv[]) {
  const Result<FlagParser> flags = FlagParser::Parse(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    return 2;
  }
  const bool quick = flags->GetBool("quick", false);
  const std::string out_path = flags->GetString("out", "BENCH_serving.json");
  const std::int64_t num_threads = flags->GetInt("threads", 4);
  const std::int64_t serial_queries = quick ? 200 : 1000;
  const std::int64_t queries_per_thread = quick ? 300 : 2000;

  SetMetricsEnabled(true);
  bench::PrintHeader("Extension: online serving",
                     "zipf query stream vs background delta stream");
  PlantedGraphConfig config;
  config.num_nodes = 20000;
  config.avg_degree = 8.0;
  config.num_classes = 4;
  config.feature_dim = 32;
  config.seed = 71;
  const Dataset dataset = MakePlantedDataset("serving-bench", config);
  const std::unique_ptr<GnnModel> model =
      bench::UntrainedModelOn(dataset, "sage", /*hidden_dim=*/32);

  WallTimer warm_timer;
  ServingOptions serve_options;
  serve_options.batch_window_seconds = 0.0005;
  serve_options.max_batch = 64;
  ServingEngine engine(model.get(), Graph(dataset.graph), serve_options);
  std::printf("warm store: %.3fs full forward over %lld nodes\n",
              warm_timer.ElapsedSeconds(),
              static_cast<long long>(config.num_nodes));

  std::vector<BenchRecord> records;
  int failures = 0;

  // serial_query: the single-client floor. A second engine with a zero
  // window so no coalescing wait pollutes the floor, cache off so every
  // query pays the head pass (the worst case the batcher amortizes).
  {
    ServingOptions serial_options;
    serial_options.batch_window_seconds = 0.0;
    serial_options.cache_logits = false;
    ServingEngine serial_engine(model.get(), Graph(dataset.graph),
                                serial_options);
    ZipfQueryStream stream(config.num_nodes, kZipfAlpha, /*seed=*/31);
    std::vector<double> latencies;
    latencies.reserve(static_cast<std::size_t>(serial_queries));
    WallTimer timer;
    for (std::int64_t i = 0; i < serial_queries; ++i) {
      WallTimer per_query;
      const Result<QueryResponse> response =
          serial_engine.Query(stream.Next(kNodesPerQuery));
      latencies.push_back(per_query.ElapsedSeconds());
      if (!response.ok()) ++failures;
    }
    const double wall = timer.ElapsedSeconds();
    const Percentiles pct = ExactPercentiles(&latencies);
    BenchRecord r;
    r.op = "serial_query";
    r.seconds_per_iter = pct.p50;
    r.p99_seconds = pct.p99;
    r.qps = static_cast<double>(serial_queries) / wall;
    r.queries = serial_queries;
    records.push_back(r);
    std::printf("%-13s p50 %8.1f us  p99 %8.1f us  %8.0f qps\n",
                r.op.c_str(), pct.p50 * 1e6, pct.p99 * 1e6, r.qps);
  }

  // zipf_serve: concurrent threads through the batcher while the main
  // thread applies the delta schedule.
  std::uint64_t logits_crc = 0;
  double p99_over_serial = 0.0;
  {
    std::vector<std::vector<double>> per_thread_latencies(
        static_cast<std::size_t>(num_threads));
    std::atomic<std::int64_t> query_errors{0};
    WallTimer timer;
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(num_threads));
    for (std::int64_t t = 0; t < num_threads; ++t) {
      threads.emplace_back([&, t] {
        ZipfQueryStream stream(config.num_nodes, kZipfAlpha,
                               100 + static_cast<std::uint64_t>(t));
        std::vector<double>& latencies =
            per_thread_latencies[static_cast<std::size_t>(t)];
        latencies.reserve(static_cast<std::size_t>(queries_per_thread));
        for (std::int64_t i = 0; i < queries_per_thread; ++i) {
          WallTimer per_query;
          const Result<QueryResponse> response =
              engine.Query(stream.Next(kNodesPerQuery));
          latencies.push_back(per_query.ElapsedSeconds());
          if (!response.ok()) {
            query_errors.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }

    DeltaStream::Options delta_options;
    delta_options.feature_updates = 4;
    delta_options.new_edges = 2;
    delta_options.new_node_every = 4;
    delta_options.zipf_alpha = kZipfAlpha;
    delta_options.seed = 19;
    DeltaStream delta_stream(dataset.graph, delta_options);
    std::int64_t recomputed_total = 0;
    double delta_seconds = 0.0;
    for (std::int64_t d = 0; d < kDeltas; ++d) {
      const Result<DeltaApplied> applied =
          engine.ApplyMutation(delta_stream.Next());
      if (!applied.ok()) {
        std::fprintf(stderr, "bench_serving: %s\n",
                     applied.status().ToString().c_str());
        return 2;
      }
      recomputed_total += applied->recomputed_nodes;
      delta_seconds += applied->seconds;
      if (applied->recomputed_nodes <= 0) {
        std::fprintf(stderr,
                     "INVARIANT: delta %lld recomputed nothing\n",
                     static_cast<long long>(d));
        ++failures;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    for (std::thread& thread : threads) thread.join();
    const double wall = timer.ElapsedSeconds();

    std::vector<double> latencies;
    for (const std::vector<double>& thread_latencies : per_thread_latencies) {
      latencies.insert(latencies.end(), thread_latencies.begin(),
                       thread_latencies.end());
    }
    const Percentiles pct = ExactPercentiles(&latencies);
    const ServingStats stats = engine.stats();
    if (query_errors.load() != 0) {
      std::fprintf(stderr, "INVARIANT: %lld queries failed\n",
                   static_cast<long long>(query_errors.load()));
      ++failures;
    }
    if (stats.cache_hits == 0) {
      std::fprintf(stderr, "INVARIANT: zipf stream never hit the logits "
                           "cache\n");
      ++failures;
    }

    BenchRecord serve;
    serve.op = "zipf_serve";
    serve.seconds_per_iter = pct.p50;
    serve.p99_seconds = pct.p99;
    serve.qps = static_cast<double>(num_threads * queries_per_thread) / wall;
    serve.cache_hit_rate = stats.cache_hit_rate();
    serve.queries = num_threads * queries_per_thread;
    records.push_back(serve);
    std::printf("%-13s p50 %8.1f us  p99 %8.1f us  %8.0f qps  "
                "hit rate %.1f%%  occupancy %.2f\n",
                serve.op.c_str(), pct.p50 * 1e6, pct.p99 * 1e6, serve.qps,
                serve.cache_hit_rate * 100.0, stats.mean_batch_occupancy);

    BenchRecord delta_row;
    delta_row.op = "delta_stream";
    delta_row.seconds_per_iter =
        delta_seconds / static_cast<double>(kDeltas);
    delta_row.recomputed = recomputed_total;
    delta_row.queries = kDeltas;
    records.push_back(delta_row);
    std::printf("%-13s %lld deltas, mean %.2f ms, %lld node states "
                "recomputed (full pass would be %lld)\n",
                delta_row.op.c_str(), static_cast<long long>(kDeltas),
                delta_row.seconds_per_iter * 1e3,
                static_cast<long long>(recomputed_total),
                static_cast<long long>(config.num_nodes *
                                       model->num_layers() * kDeltas));

    const double serial_p99 = records[0].p99_seconds;
    p99_over_serial =
        serial_p99 > 0.0 ? pct.p99 / serial_p99 : 0.0;
    std::printf("p99_over_serial: %.2fx\n", p99_over_serial);
  }

  // Exactness invariant: the full served logits on the final graph
  // must be bit-identical to a from-scratch reference pass; their CRC
  // is the cross-host determinism witness.
  {
    const std::shared_ptr<const Graph> final_graph = engine.graph_snapshot();
    std::vector<NodeId> all(
        static_cast<std::size_t>(final_graph->num_nodes()));
    std::iota(all.begin(), all.end(), 0);
    const Result<QueryResponse> served = engine.Query(all);
    if (!served.ok()) {
      std::fprintf(stderr, "bench_serving: final query failed\n");
      return 2;
    }
    const Tensor reference = FullGraphReferenceLogits(*model, *final_graph);
    const std::size_t bytes = static_cast<std::size_t>(
        served->logits.rows() * served->logits.cols()) * sizeof(float);
    logits_crc = Crc32(served->logits.RowPtr(0), bytes);
    g_sink = g_sink + logits_crc;
    if (served->logits.rows() != reference.rows() ||
        logits_crc != Crc32(reference.RowPtr(0), bytes)) {
      std::fprintf(stderr, "INVARIANT: served logits diverge from the "
                           "from-scratch reference on the final graph\n");
      ++failures;
    }
    std::printf("final graph: %lld nodes, epoch %lld, logits_crc %llu\n",
                static_cast<long long>(final_graph->num_nodes()),
                static_cast<long long>(engine.epoch()),
                static_cast<unsigned long long>(logits_crc));
  }

  char shape[64];
  std::snprintf(shape, sizeof(shape), "%lldx%lldt%lld",
                static_cast<long long>(config.num_nodes),
                static_cast<long long>(config.feature_dim),
                static_cast<long long>(num_threads));
  WriteJson(out_path, records, quick, shape, logits_crc, p99_over_serial);

  if (failures != 0) {
    std::fprintf(stderr, "bench_serving: %d invariant violation(s)\n",
                 failures);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace inferturbo

int main(int argc, char** argv) { return inferturbo::Main(argc, argv); }
