// Extension ablation: incremental full-graph inference (historical
// embeddings + change propagation) vs re-scoring from scratch, as the
// daily delta grows. Shows where the crossover sits: tiny deltas are
// orders of magnitude cheaper; once the delta's k-hop out-cone covers
// the graph, incremental degenerates to the full pass.
//
// Every row folds the incremental run's logits into a deterministic
// logits_crc and records the exact recomputation count; both are
// host-invariant (seeded dataset + deterministic kernels), so
// tools/report_diff gates them with zero tolerance against the
// checked-in baseline while wall times get the usual slack.
//
// Usage:
//   bench_incremental                 full sweep, writes BENCH_incremental.json
//   bench_incremental --quick         CI smoke: same rows, single timed iter
//   bench_incremental --out=PATH      write the JSON elsewhere
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/crc32.h"
#include "src/common/flags.h"
#include "src/common/timer.h"
#include "src/graph/graph_builder.h"
#include "src/inference/incremental.h"

namespace inferturbo {
namespace {

volatile std::uint64_t g_sink = 0;

struct BenchRecord {
  std::int64_t delta_size = 0;  // 0 = the full pass row
  double seconds_per_iter = 0.0;
  std::int64_t recomputed = 0;
  std::uint64_t logits_crc = 0;
  double speedup = 1.0;
};

Graph WithRefreshedFeatures(const Graph& graph,
                            const std::vector<NodeId>& nodes) {
  GraphBuilder builder(graph.num_nodes());
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    builder.AddEdge(graph.EdgeSrc(e), graph.EdgeDst(e));
  }
  Tensor features = graph.node_features();
  for (NodeId v : nodes) {
    for (std::int64_t j = 0; j < features.cols(); ++j) {
      features.At(v, j) += 0.25f;
    }
  }
  builder.SetNodeFeatures(std::move(features));
  builder.SetLabels(graph.labels(), graph.num_classes());
  return std::move(builder).Finish().ValueOrDie();
}

std::uint64_t LogitsCrc(const Tensor& logits) {
  return Crc32(logits.RowPtr(0), static_cast<std::size_t>(logits.rows() *
                                                          logits.cols()) *
                                     sizeof(float));
}

void WriteJson(const std::string& path,
               const std::vector<BenchRecord>& records, bool quick,
               const std::string& shape) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "bench_incremental: cannot write %s\n",
                 path.c_str());
    std::exit(2);
  }
  out << "{\n";
  out << "  \"bench\": \"bench_incremental\",\n";
  out << "  \"mode\": \"" << (quick ? "quick" : "full") << "\",\n";
  out << "  \"shape\": \"" << shape << "\",\n";
  out << "  \"results\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    char line[512];
    std::snprintf(
        line, sizeof(line),
        "    {\"op\": \"%s\", \"delta\": %lld, \"seconds_per_iter\": %.6e, "
        "\"recomputed\": %lld, \"logits_crc\": \"%llu\", "
        "\"speedup\": %.2f}%s",
        r.delta_size == 0 ? "full_pass" : "incremental",
        static_cast<long long>(r.delta_size), r.seconds_per_iter,
        static_cast<long long>(r.recomputed),
        static_cast<unsigned long long>(r.logits_crc), r.speedup,
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
  const std::string out_path =
      flags->GetString("out", "BENCH_incremental.json");
  const std::int64_t timed_iters = quick ? 1 : 3;

  bench::PrintHeader("Extension: incremental inference",
                     "delta size vs recomputation and wall time");
  PlantedGraphConfig config;
  config.num_nodes = 20000;
  config.avg_degree = 8.0;
  config.num_classes = 4;
  config.feature_dim = 32;
  config.seed = 71;
  const Dataset dataset = MakePlantedDataset("incremental-bench", config);
  const std::unique_ptr<GnnModel> model =
      bench::UntrainedModelOn(dataset, "sage", /*hidden_dim=*/32);

  std::vector<BenchRecord> records;

  // Full-pass row: the from-scratch cost every speedup is relative to.
  double full_seconds = 0.0;
  Tensor full_logits;
  LayerStates history;
  for (std::int64_t i = 0; i < timed_iters; ++i) {
    WallTimer timer;
    history = ComputeLayerStates(*model, dataset.graph);
    full_logits = model->PredictLogits(history.states.back());
    full_seconds += timer.ElapsedSeconds();
  }
  full_seconds /= static_cast<double>(timed_iters);
  const std::int64_t full_work =
      dataset.graph.num_nodes() * model->num_layers();
  {
    BenchRecord r;
    r.seconds_per_iter = full_seconds;
    r.recomputed = full_work;
    r.logits_crc = LogitsCrc(full_logits);
    records.push_back(r);
  }
  std::printf("full pass: %.3fs, %lld node-state computations\n",
              full_seconds, static_cast<long long>(full_work));
  std::printf("\n%10s | %14s %10s | %10s %9s\n", "delta", "recomputed",
              "of full", "time (s)", "speedup");
  bench::PrintRule();

  int failures = 0;
  Rng rng(5);
  for (const std::int64_t delta_size : {1L, 10L, 100L, 1000L, 10000L}) {
    std::vector<NodeId> changed;
    for (std::int64_t i = 0; i < delta_size; ++i) {
      changed.push_back(static_cast<NodeId>(rng.NextBounded(
          static_cast<std::uint64_t>(dataset.graph.num_nodes()))));
    }
    std::sort(changed.begin(), changed.end());
    changed.erase(std::unique(changed.begin(), changed.end()),
                  changed.end());
    const Graph mutated = WithRefreshedFeatures(dataset.graph, changed);
    GraphDelta delta;
    delta.changed_nodes = changed;

    BenchRecord record;
    record.delta_size = delta_size;
    double seconds = 0.0;
    for (std::int64_t i = 0; i < timed_iters; ++i) {
      WallTimer timer;
      const Result<IncrementalResult> r =
          IncrementalInference(*model, mutated, history, delta);
      seconds += timer.ElapsedSeconds();
      INFERTURBO_CHECK(r.ok()) << r.status().ToString();
      record.recomputed = std::accumulate(
          r->recomputed_per_layer.begin(), r->recomputed_per_layer.end(),
          std::int64_t{0});
      record.logits_crc = LogitsCrc(r->logits);
      g_sink = g_sink + record.logits_crc;
      // Exactness invariant, not just a report: the incremental logits
      // must match a from-scratch pass on the mutated graph bitwise.
      if (i == 0) {
        const LayerStates fresh = ComputeLayerStates(*model, mutated);
        const Tensor fresh_logits = model->PredictLogits(fresh.states.back());
        if (LogitsCrc(fresh_logits) != record.logits_crc) {
          std::fprintf(stderr,
                       "INVARIANT: delta=%lld incremental logits diverge "
                       "from the from-scratch pass\n",
                       static_cast<long long>(delta_size));
          ++failures;
        }
      }
    }
    record.seconds_per_iter = seconds / static_cast<double>(timed_iters);
    record.speedup = full_seconds / std::max(1e-9, record.seconds_per_iter);
    records.push_back(record);
    std::printf("%10lld | %14lld %9.2f%% | %10.4f %8.1fx\n",
                static_cast<long long>(delta_size),
                static_cast<long long>(record.recomputed),
                100.0 * static_cast<double>(record.recomputed) /
                    static_cast<double>(full_work),
                record.seconds_per_iter, record.speedup);
  }
  std::printf(
      "\nexpected shape: recomputation tracks the delta's k-hop out-cone;\n"
      "small daily deltas re-score a few percent of the graph, converging\n"
      "to a full pass as the delta saturates it.\n");

  char shape[64];
  std::snprintf(shape, sizeof(shape), "%lldx%lld",
                static_cast<long long>(config.num_nodes),
                static_cast<long long>(config.feature_dim));
  WriteJson(out_path, records, quick, shape);

  if (failures != 0) {
    std::fprintf(stderr, "bench_incremental: %d invariant violation(s)\n",
                 failures);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace inferturbo

int main(int argc, char** argv) { return inferturbo::Main(argc, argv); }
