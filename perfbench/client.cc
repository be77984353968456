// End-to-end benchmark client. Each invocation runs one operation of one
// workload in its own process, so a job's peak RSS and CPU are its own,
// and prints what it measured as one JSON object on the last line of
// stdout. perfbench/run.py drives it; perfbench/README.md describes the
// workloads and every field.
//
//   perfbench_client host
//   perfbench_client setup --workload=W --seed=S --dir=D
//   perfbench_client job   --workload=W --seed=S --dir=D [--trace=1]
//   perfbench_client serve --seed=S --dir=D --seconds=T [--trace=1]
//                          [--cold_only=1]
//
// The client only calls the library's public functions and reads the
// counters they return (JobMetrics, StorageMetrics, ServingStats); with
// --trace=1 it also switches on the library's span recorder and sums the
// recorded spans by name.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/crc32.h"
#include "src/common/flags.h"
#include "src/common/parallel_exec.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/graph/datasets.h"
#include "src/graph/graph_builder.h"
#include "src/graph/graph_io.h"
#include "src/graph/power_law.h"
#include "src/inference/inferturbo_mapreduce.h"
#include "src/inference/inferturbo_pregel.h"
#include "src/inference/output_writer.h"
#include "src/inference/reference_inference.h"
#include "src/nn/model.h"
#include "src/serving/serving_engine.h"
#include "src/serving/workload.h"
#include "src/storage/graph_view.h"
#include "src/storage/shard_store.h"
#include "src/storage/shard_writer.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"
#include "src/tensor/kernels/kernel_config.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace inferturbo::perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// Shape shared by every workload: SAGE, 2 layers, hidden 64, 64 input
// features, 6 classes, average degree 15.
constexpr std::int64_t kFeatures = 64;
constexpr std::int64_t kClasses = 6;
constexpr std::int64_t kHidden = 64;
constexpr std::int64_t kLayers = 2;
constexpr double kAvgDegree = 15.0;
// Batch jobs: 8 logical workers on the default pool, 4 output shards.
constexpr std::int64_t kWorkers = 8;
constexpr std::int64_t kShards = 4;

// Open-loop serving schedule.
constexpr int kSenderThreads = 3;
constexpr double kQueriesPerSecond = 1000.0;
constexpr std::int64_t kNodesPerQuery = 4;
constexpr double kQueryZipfAlpha = 1.1;
constexpr double kDeltaIntervalSeconds = 0.25;
constexpr double kBatchWindowSeconds = 0.001;

struct WorkloadSpec {
  const char* name;
  std::int64_t nodes;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"pregel_tables", 50'000},
    {"pregel_hubs", 200'000},
    {"mapreduce_packed", 50'000},
    {"serve_zipf", 50'000},
};

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// ---------------------------------------------------------------- output

// One JSON object built up field by field; values are printed with all
// their digits.
class JsonLine {
 public:
  void Add(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0);
    Raw(key, buf);
  }
  void Add(const std::string& key, std::int64_t value) {
    Raw(key, std::to_string(value));
  }
  void Add(const std::string& key, bool value) {
    Raw(key, value ? "true" : "false");
  }
  void Add(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += (c == '\n' || c == '\t') ? ' ' : c;
    }
    Raw(key, quoted + "\"");
  }
  void Raw(const std::string& key, const std::string& json) {
    out_ << (first_ ? "" : ", ") << '"' << key << "\": " << json;
    first_ = false;
  }
  std::string str() const {
    std::string json = "{";
    json += out_.str();
    json += '}';
    return json;
  }

 private:
  std::ostringstream out_;
  bool first_ = true;
};

// Per-layer figures of one process: name -> (value, unit, kind), where
// kind is "measured", "computed" (derived from sizes or counts) or
// "modelled" (from the engine's simulated-cluster cost model).
class LayerFigures {
 public:
  void Set(const std::string& name, double value, const char* unit,
           const char* kind) {
    figures_[name] = Figure{value, unit, kind};
  }
  std::string Json() const {
    JsonLine line;
    for (const auto& [name, f] : figures_) {
      JsonLine entry;
      entry.Add("value", f.value);
      entry.Add("unit", std::string(f.unit));
      entry.Add("kind", std::string(f.kind));
      line.Raw(name, entry.str());
    }
    return line.str();
  }

 private:
  struct Figure {
    double value;
    const char* unit;
    const char* kind;
  };
  std::map<std::string, Figure> figures_;
};

int Fail(const std::string& what) {
  JsonLine line;
  line.Add("ok", false);
  line.Add("error", what);
  std::printf("%s\n", line.str().c_str());
  return 1;
}

// ------------------------------------------------------ process counters

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

// Peak resident memory of this process since the PeakRss was
// constructed. Resetting VmHWM through clear_refs makes the peak the
// job's own rather than the input preparation's; when the kernel
// refuses, the lifetime ru_maxrss is reported and labelled so.
class PeakRss {
 public:
  PeakRss() {
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
    clear.flush();
    reset_ = clear.good();
  }
  double Megabytes() const {
    if (reset_) {
      std::ifstream status("/proc/self/status");
      std::string line;
      while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
          return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
        }
      }
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
  }
  const char* source() const {
    return reset_ ? "VmHWM reset by clear_refs" : "lifetime ru_maxrss";
  }

 private:
  bool reset_ = false;
};

// Benchmark-side span: wall time of one call into a layer.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  Clock::time_point start_;
};

std::uint64_t DirectoryBytes(const std::string& dir) {
  std::uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

// ---------------------------------------------------------------- inputs

std::unique_ptr<GnnModel> BuildModel(std::uint64_t seed) {
  ModelConfig config;
  config.input_dim = kFeatures;
  config.hidden_dim = kHidden;
  config.num_classes = kClasses;
  config.num_layers = kLayers;
  config.seed = seed;
  Result<std::unique_ptr<GnnModel>> model = MakeModel("sage", config);
  return model.ok() ? std::move(*model) : nullptr;
}

// Planted class structure, uniform degree: no node reaches the hub
// threshold.
Graph PlantedGraph(std::int64_t nodes, std::uint64_t seed) {
  PlantedGraphConfig config;
  config.num_nodes = nodes;
  config.avg_degree = kAvgDegree;
  config.feature_dim = kFeatures;
  config.num_classes = kClasses;
  config.seed = seed;
  return std::move(MakePlantedDataset("perfbench", config).graph);
}

// The repository's default power-law shape (both endpoints Zipf,
// alpha 2.0) at the benchmark's size and degree, with uniform features
// in [-1, 1) and uniform labels over kClasses. Every job process
// regenerates this graph before its timer starts, so it is kept cheap.
Result<Graph> HubGraph(std::int64_t nodes, std::uint64_t seed) {
  PowerLawConfig config;
  config.num_nodes = nodes;
  config.avg_degree = kAvgDegree;
  config.seed = seed;
  const EdgeList edges = GeneratePowerLawEdges(config);
  GraphBuilder builder(nodes);
  builder.ReserveEdges(edges.src.size());
  for (std::size_t e = 0; e < edges.src.size(); ++e) {
    builder.AddEdge(edges.src[e], edges.dst[e]);
  }
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  Tensor features(nodes, kFeatures);
  for (std::int64_t i = 0; i < features.size(); ++i) {
    features.data()[i] = rng.NextFloat(-1.0f, 1.0f);
  }
  std::vector<std::int64_t> labels(static_cast<std::size_t>(nodes));
  for (std::int64_t& label : labels) {
    label = static_cast<std::int64_t>(
        rng.NextBounded(static_cast<std::uint64_t>(kClasses)));
  }
  builder.SetNodeFeatures(std::move(features));
  builder.SetLabels(std::move(labels), kClasses);
  return std::move(builder).Finish();
}

std::string ReferencePath(const std::string& dir) {
  return dir + "/reference.f32";
}

Status WriteReference(const Tensor& logits, const std::string& dir) {
  std::ofstream out(ReferencePath(dir), std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(logits.data()),
            static_cast<std::streamsize>(logits.ByteSize()));
  return out.good() ? Status::OK()
                    : Status::IoError("cannot write " + ReferencePath(dir));
}

Result<std::vector<float>> ReadReference(const std::string& dir) {
  std::ifstream in(ReferencePath(dir), std::ios::binary);
  if (!in) return Status::NotFound("no " + ReferencePath(dir));
  std::vector<float> values;
  in.seekg(0, std::ios::end);
  values.resize(static_cast<std::size_t>(in.tellg()) / sizeof(float));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(values.data()),
          static_cast<std::streamsize>(values.size() * sizeof(float)));
  if (!in) return Status::IoError("short read of " + ReferencePath(dir));
  return values;
}

double MaxAbsDiff(const Tensor& logits, std::span<const float> reference) {
  if (static_cast<std::size_t>(logits.size()) != reference.size()) {
    return INFINITY;
  }
  double worst = 0.0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    worst = std::max(
        worst, std::fabs(static_cast<double>(logits.data()[i]) - reference[i]));
  }
  return worst;
}

int Setup(const WorkloadSpec& spec, std::uint64_t seed,
          const std::string& dir) {
  Stopwatch total;
  fs::create_directories(dir);
  const std::unique_ptr<GnnModel> model = BuildModel(seed);
  if (model == nullptr) return Fail("cannot build the model");
  const std::string name = spec.name;
  Result<Graph> graph = name == "pregel_hubs" ? HubGraph(spec.nodes, seed)
                                              : Result<Graph>(PlantedGraph(
                                                    spec.nodes, seed));
  if (!graph.ok()) return Fail(graph.status().ToString());
  if (name == "mapreduce_packed") {
    ShardWriterOptions options;
    options.num_partitions = kWorkers;
    const Result<ShardMeta> meta =
        WriteGraphShards(*graph, dir + "/pack", options);
    if (!meta.ok()) return Fail(meta.status().ToString());
  } else if (name != "pregel_hubs") {
    // The hub graph stays resident: each job process regenerates it
    // from the seed before its timer starts.
    const Status nodes = WriteNodeTable(*graph, dir + "/nodes.tsv");
    const Status edges = WriteEdgeTable(*graph, dir + "/edges.tsv");
    if (!nodes.ok()) return Fail(nodes.ToString());
    if (!edges.ok()) return Fail(edges.ToString());
    // The tables hold features as text, so the reference is computed on
    // what a job reads back, not on the generator's floats.
    graph = LoadGraphFromTables(dir + "/nodes.tsv", dir + "/edges.tsv");
    if (!graph.ok()) return Fail(graph.status().ToString());
  }
  const Status written =
      WriteReference(FullGraphReferenceLogits(*model, *graph), dir);
  if (!written.ok()) return Fail(written.ToString());
  JsonLine line;
  line.Add("ok", true);
  line.Add("setup_s", total.Seconds());
  line.Add("nodes", graph->num_nodes());
  line.Add("edges", graph->num_edges());
  line.Add("input_mb", static_cast<double>(DirectoryBytes(dir)) / 1e6);
  std::printf("%s\n", line.str().c_str());
  return 0;
}

// ------------------------------------------------------------ batch jobs

double WorkerSkew(const JobMetrics& metrics) {
  const std::vector<double> latency = metrics.PerWorkerLatencySeconds();
  if (latency.empty()) return 0.0;
  const double mean = std::accumulate(latency.begin(), latency.end(), 0.0) /
                      static_cast<double>(latency.size());
  return mean > 0.0 ? *std::max_element(latency.begin(), latency.end()) / mean
                    : 0.0;
}

// Every per-layer figure a batch job can report; layers the workload
// does not touch stay 0, which is the prediction for them.
void EngineFigures(const std::string& backend, const JobMetrics& metrics,
                   LayerFigures* out) {
  WorkerStepMetrics total;
  for (const WorkerStepMetrics& w : metrics.PerWorkerTotals()) {
    total.Accumulate(w);
  }
  const bool pregel = backend == "pregel";
  const std::string prefix = pregel ? "pregel." : "mapreduce.";
  out->Set(prefix + "busy_s", total.busy_seconds, "s", "measured");
  out->Set(prefix + "records_out", static_cast<double>(total.records_out),
           "count", "computed");
  out->Set(prefix + "worker_skew", WorkerSkew(metrics), "ratio", "modelled");
  if (pregel) {
    out->Set("pregel.wait_s", total.wait_seconds, "s", "measured");
    out->Set("pregel.route_s", total.route_seconds, "s", "measured");
    out->Set("pregel.bytes_out_mb", static_cast<double>(total.bytes_out) / 1e6,
             "MB", "computed");
    for (std::int64_t step = 0; step < 3; ++step) {
      double busy = 0.0;
      for (const WorkerMetrics& w : metrics.workers) {
        if (step < static_cast<std::int64_t>(w.steps.size())) {
          busy += w.steps[static_cast<std::size_t>(step)].busy_seconds;
        }
      }
      out->Set("pregel.step" + std::to_string(step) + ".busy_s", busy, "s",
               "measured");
    }
  } else {
    out->Set("mapreduce.shuffle_mb",
             static_cast<double>(total.bytes_out) / 1e6, "MB", "computed");
    out->Set("mapreduce.spill_retries",
             static_cast<double>(metrics.spill_read_retries +
                                 metrics.spill_write_retries),
             "count", "measured");
  }
  const StorageMetrics& s = metrics.storage;
  const std::int64_t lookups = s.cache_hits + s.cache_misses;
  out->Set("storage.cache_hit_ratio",
           lookups > 0 ? static_cast<double>(s.cache_hits) /
                             static_cast<double>(lookups)
                       : 0.0,
           "ratio", "computed");
  out->Set("storage.peak_mapped_mb",
           static_cast<double>(s.peak_bytes_mapped) / 1e6, "MB", "computed");
  out->Set("storage.pipeline_wait_s", s.pipeline_wait_seconds, "s",
           "measured");
  out->Set("storage.overlap_s", s.overlap_seconds, "s", "measured");
  out->Set("storage.evictions", static_cast<double>(s.evictions), "count",
           "measured");
  out->Set("storage.read_path_fallbacks",
           static_cast<double>(s.read_path_fallbacks), "count", "measured");
}

// Sums the library's own spans by name into the folded per-stage figures.
void SpanFigures(const std::vector<TraceEvent>& events, LayerFigures* out) {
  static const std::pair<const char*, const char*> kFolded[] = {
      {"pregel/gather", "pregel.gather_s"},
      {"pregel/apply", "pregel.apply_s"},
      {"pregel/scatter", "pregel.scatter_s"},
      {"mr/map", "mapreduce.map_s"},
      {"mr/shuffle_partition", "mapreduce.shuffle_partition_s"},
      {"mr/reduce", "mapreduce.reduce_s"},
  };
  std::map<std::string, double> seconds;
  for (const TraceEvent& event : events) {
    seconds[event.name] += static_cast<double>(event.dur_ns) * 1e-9;
  }
  for (const auto& [span, figure] : kFolded) {
    out->Set(figure, seconds[span], "s", "measured");
  }
}

std::uint32_t LogitsCrc(const Tensor& logits) {
  return Crc32(logits.data(), logits.ByteSize());
}

int Job(const WorkloadSpec& spec, std::uint64_t seed, const std::string& dir,
        bool trace) {
  const std::string name = spec.name;
  const std::unique_ptr<GnnModel> model = BuildModel(seed);
  if (model == nullptr) return Fail("cannot build the model");
  const Result<std::vector<float>> reference = ReadReference(dir);
  if (!reference.ok()) return Fail(reference.status().ToString());

  // Resident input of the hub workload, prepared before the timer.
  Result<Graph> resident = Status::NotFound("not resident");
  if (name == "pregel_hubs") {
    resident = HubGraph(spec.nodes, seed);
    if (!resident.ok()) return Fail(resident.status().ToString());
  }
  const std::string out_dir = dir + "/output";
  fs::remove_all(out_dir);
  fs::create_directories(out_dir);

  InferTurboOptions options;
  options.num_workers = kWorkers;
  options.strategies.partial_gather = true;  // the CLI default
  if (name == "pregel_hubs") options.strategies = StrategyConfig::All();
  OutputWriterOptions writer;
  writer.num_shards = kShards;

  // Half the pack: the store must evict while the job streams.
  const std::uint64_t storage_budget = DirectoryBytes(dir + "/pack") / 2;
  if (trace) {
    SetMetricsEnabled(true);
    SetTracingEnabled(true);
    ClearTrace();
  }
  LayerFigures figures;
  double load_s = 0.0, open_s = 0.0, run_s = 0.0, write_s = 0.0;
  Result<InferenceResult> result = Status::Internal("unset");
  const PeakRss peak;
  const double cpu_before = CpuSeconds();
  const Stopwatch job;
  if (name == "pregel_tables") {
    const Stopwatch load;
    Result<Graph> graph =
        LoadGraphFromTables(dir + "/nodes.tsv", dir + "/edges.tsv");
    load_s = load.Seconds();
    if (!graph.ok()) return Fail(graph.status().ToString());
    const Stopwatch run;
    result = RunInferTurboPregel(*graph, *model, options);
    run_s = run.Seconds();
  } else if (name == "pregel_hubs") {
    const Stopwatch run;
    result = RunInferTurboPregel(*resident, *model, options);
    run_s = run.Seconds();
  } else {
    const Stopwatch open;
    ShardStoreOptions store_options;
    store_options.directory = dir + "/pack";
    store_options.memory_budget_bytes = storage_budget;
    Result<ShardStore> store = ShardStore::Open(std::move(store_options));
    open_s = open.Seconds();
    if (!store.ok()) return Fail(store.status().ToString());
    const ShardGraphView view(std::move(*store));
    const Stopwatch run;
    result = RunInferTurboMapReduce(view, *model, options);
    run_s = run.Seconds();
  }
  if (!result.ok()) return Fail(result.status().ToString());
  const Stopwatch write;
  const Status written = WriteInferenceOutput(*result, out_dir, writer);
  write_s = write.Seconds();
  const double job_s = job.Seconds();
  const double cpu_s = CpuSeconds() - cpu_before;
  const double rss_mb = peak.Megabytes();
  if (!written.ok()) return Fail(written.ToString());
  std::vector<TraceEvent> events;
  if (trace) {
    SetTracingEnabled(false);
    events = DrainTrace();
  }

  const double diff = MaxAbsDiff(result->logits, *reference);
  if (trace) {
    const double input_bytes =
        name == "pregel_tables"
            ? static_cast<double>(fs::file_size(dir + "/nodes.tsv") +
                                  fs::file_size(dir + "/edges.tsv"))
            : 0.0;
    figures.Set("graph.load_s", load_s, "s", "measured");
    figures.Set("graph.load_mb_per_s",
                load_s > 0.0 ? input_bytes / 1e6 / load_s : 0.0, "MB/s",
                "computed");
    figures.Set("storage.open_s", open_s, "s", "measured");
    figures.Set("inference.run_s", run_s, "s", "measured");
    figures.Set("output.write_s", write_s, "s", "measured");
    figures.Set("output.mb_per_s",
                static_cast<double>(DirectoryBytes(out_dir)) / 1e6 / write_s,
                "MB/s", "computed");
    EngineFigures(name == "mapreduce_packed" ? "mapreduce" : "pregel",
                  result->metrics, &figures);
    SpanFigures(events, &figures);
    figures.Set("check.logit_max_abs_diff", diff, "abs", "measured");
  }
  fs::remove_all(out_dir);

  JsonLine line;
  line.Add("ok", true);
  line.Add("job_s", job_s);
  line.Add("cpu_s", cpu_s);
  line.Add("peak_rss_mb", rss_mb);
  line.Add("rss_source", std::string(peak.source()));
  line.Add("ledger_s", load_s + open_s + run_s + write_s);
  line.Add("crc", static_cast<std::int64_t>(LogitsCrc(result->logits)));
  line.Add("max_abs_diff", diff);
  line.Raw("layers", figures.Json());
  std::printf("%s\n", line.str().c_str());
  return 0;
}

// --------------------------------------------------------------- serving

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank > 0 ? rank - 1 : 0)];
}

struct QueryRecord {
  Clock::time_point due;
  Clock::time_point sent;
  Clock::time_point done;
  Result<QueryResponse> response = Status::Internal("never sent");
};

// Compares served rows with the first row seen for the same
// (node, epoch), and epoch-0 rows with the set-up reference. Served
// logits are bit-identical to the reference per epoch, so any
// difference is a failure.
class ServedRowCheck {
 public:
  explicit ServedRowCheck(const std::vector<float>& reference)
      : reference_(reference) {}
  bool Check(const std::vector<NodeId>& nodes, const QueryResponse& r) {
    bool ok = true;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const float* row = r.logits.RowPtr(static_cast<std::int64_t>(i));
      const std::uint32_t crc = Crc32(row, kClasses * sizeof(float));
      const auto [it, inserted] =
          seen_.emplace(std::make_pair(nodes[i], r.epoch), crc);
      if (!inserted && it->second != crc) ok = false;
      if (r.epoch == 0) {
        const float* expected =
            reference_.data() + static_cast<std::size_t>(nodes[i]) * kClasses;
        if (std::memcmp(row, expected, kClasses * sizeof(float)) != 0) {
          ok = false;
        }
      }
    }
    return ok;
  }

 private:
  const std::vector<float>& reference_;
  std::map<std::pair<NodeId, std::int64_t>, std::uint32_t> seen_;
};

int Serve(std::uint64_t seed, const std::string& dir, double seconds,
          bool trace, bool cold_only) {
  const std::unique_ptr<GnnModel> model = BuildModel(seed);
  if (model == nullptr) return Fail("cannot build the model");
  const Result<std::vector<float>> reference = ReadReference(dir);
  if (!reference.ok()) return Fail(reference.status().ToString());
  if (trace) {
    SetMetricsEnabled(true);
    SetTracingEnabled(true);
    ClearTrace();
  }

  // Cold start of a serving replica: open the tables and build the warm
  // store (a full layer-wise forward over the whole graph).
  const PeakRss peak;
  const double cpu_before = CpuSeconds();
  const Stopwatch cold;
  Result<Graph> graph =
      LoadGraphFromTables(dir + "/nodes.tsv", dir + "/edges.tsv");
  const double load_s = cold.Seconds();
  if (!graph.ok()) return Fail(graph.status().ToString());
  const std::int64_t num_nodes = graph->num_nodes();
  ServingOptions serve_options;
  serve_options.batch_window_seconds = kBatchWindowSeconds;
  DeltaStream::Options delta_options;
  delta_options.seed = seed;
  DeltaStream delta_stream(*graph, delta_options);
  const Stopwatch warm;
  ServingEngine engine(model.get(), std::move(*graph), serve_options);
  const double warm_s = warm.Seconds();
  const double job_s = cold.Seconds();
  const double cpu_s = CpuSeconds() - cpu_before;
  const double cold_rss_mb = peak.Megabytes();

  // The whole open-loop schedule is drawn before the clock starts.
  const std::int64_t num_queries =
      cold_only ? 64 : static_cast<std::int64_t>(seconds * kQueriesPerSecond);
  const std::int64_t num_deltas =
      cold_only ? 0
                : static_cast<std::int64_t>(seconds / kDeltaIntervalSeconds);
  ZipfQueryStream query_stream(num_nodes, kQueryZipfAlpha, seed);
  std::vector<std::vector<NodeId>> queries;
  for (std::int64_t i = 0; i < num_queries; ++i) {
    queries.push_back(query_stream.Next(kNodesPerQuery));
  }
  std::vector<GraphMutation> mutations;
  for (std::int64_t d = 0; d < num_deltas; ++d) {
    mutations.push_back(delta_stream.Next());
  }

  std::vector<QueryRecord> records(static_cast<std::size_t>(num_queries));
  std::vector<double> delta_seconds;
  std::vector<Result<DeltaApplied>> applied;
  applied.reserve(static_cast<std::size_t>(num_deltas));
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  const auto at = [&](double offset_s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(offset_s));
  };
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kSenderThreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::int64_t i = t; i < num_queries; i += kSenderThreads) {
          QueryRecord& r = records[static_cast<std::size_t>(i)];
          r.due = at(static_cast<double>(i) / kQueriesPerSecond);
          std::this_thread::sleep_until(r.due);
          r.sent = Clock::now();
          r.response = engine.Query(queries[static_cast<std::size_t>(i)]);
          r.done = Clock::now();
        }
      });
    }
    threads.emplace_back([&] {
      for (std::int64_t d = 0; d < num_deltas; ++d) {
        std::this_thread::sleep_until(
            at((static_cast<double>(d) + 0.5) * kDeltaIntervalSeconds));
        const Stopwatch call;
        applied.push_back(
            engine.ApplyMutation(mutations[static_cast<std::size_t>(d)]));
        delta_seconds.push_back(call.Seconds());
      }
    });
    for (std::thread& thread : threads) thread.join();
  }
  const double session_cpu_s = CpuSeconds() - cpu_before - cpu_s;
  const ServingStats stats = engine.stats();
  const double session_rss_mb = peak.Megabytes();

  // Verification, untimed.
  std::int64_t failed = 0;
  ServedRowCheck rows(*reference);
  std::vector<double> from_due, from_send, late;
  for (std::int64_t i = 0; i < num_queries; ++i) {
    const QueryRecord& r = records[static_cast<std::size_t>(i)];
    from_due.push_back(std::chrono::duration<double>(r.done - r.due).count());
    from_send.push_back(
        std::chrono::duration<double>(r.done - r.sent).count());
    late.push_back(std::chrono::duration<double>(r.sent - r.due).count());
    if (!r.response.ok() ||
        !rows.Check(queries[static_cast<std::size_t>(i)], *r.response)) {
      ++failed;
    }
  }
  std::int64_t recomputed = 0, invalidated = 0;
  for (const Result<DeltaApplied>& a : applied) {
    if (!a.ok()) {
      ++failed;
      continue;
    }
    recomputed += a->recomputed_nodes;
    invalidated += a->invalidated_cache_rows;
  }
  // The final generation, served in full, must equal a from-scratch
  // reference pass over the final graph.
  double diff = 0.0;
  std::int64_t final_crc = 0;
  if (!cold_only) {
    const std::shared_ptr<const Graph> final_graph = engine.graph_snapshot();
    std::vector<NodeId> all(static_cast<std::size_t>(final_graph->num_nodes()));
    std::iota(all.begin(), all.end(), 0);
    const Result<QueryResponse> served = engine.Query(all);
    const Tensor expected = FullGraphReferenceLogits(*model, *final_graph);
    if (!served.ok() || LogitsCrc(served->logits) != LogitsCrc(expected)) {
      ++failed;
    }
    if (served.ok()) {
      final_crc = LogitsCrc(served->logits);
      diff = MaxAbsDiff(served->logits,
                        {expected.data(),
                         static_cast<std::size_t>(expected.size())});
    } else {
      diff = INFINITY;
    }
  }

  LayerFigures figures;
  const double deltas = static_cast<double>(std::max<std::int64_t>(
      1, static_cast<std::int64_t>(applied.size())));
  if (trace && !cold_only) {
    const double input_bytes = static_cast<double>(
        fs::file_size(dir + "/nodes.tsv") + fs::file_size(dir + "/edges.tsv"));
    figures.Set("graph.load_s", load_s, "s", "measured");
    figures.Set("graph.load_mb_per_s", input_bytes / 1e6 / load_s, "MB/s",
                "computed");
    figures.Set("inference.run_s", warm_s, "s", "measured");
    figures.Set("serve.query_p50_us", Percentile(from_due, 0.50) * 1e6, "us",
                "measured");
    figures.Set("serve.query_p99_us", Percentile(from_due, 0.99) * 1e6, "us",
                "measured");
    figures.Set("serve.delta_p50_ms", Percentile(delta_seconds, 0.50) * 1e3,
                "ms", "measured");
    figures.Set("serving.query_call_p50_us", Percentile(from_send, 0.50) * 1e6,
                "us", "measured");
    figures.Set("serving.generator_late_ms", Percentile(late, 0.99) * 1e3,
                "ms", "measured");
    figures.Set("serving.batches", static_cast<double>(stats.batches), "count",
                "measured");
    figures.Set("serving.mean_batch_occupancy", stats.mean_batch_occupancy,
                "queries", "measured");
    figures.Set("serving.cache_hit_rate", stats.cache_hit_rate(), "ratio",
                "computed");
    figures.Set("incremental.recomputed_per_delta",
                static_cast<double>(recomputed) / deltas, "rows", "measured");
    figures.Set("incremental.cone_ratio",
                static_cast<double>(recomputed) / deltas /
                    static_cast<double>(num_nodes * kLayers),
                "ratio", "computed");
    figures.Set("serving.invalidated_rows_per_delta",
                static_cast<double>(invalidated) / deltas, "rows", "measured");
    figures.Set("check.logit_max_abs_diff", diff, "abs", "measured");
  }

  JsonLine line;
  line.Add("ok", true);
  line.Add("job_s", job_s);
  line.Add("cpu_s", cpu_s);
  line.Add("peak_rss_mb", cold_rss_mb);
  line.Add("rss_source", std::string(peak.source()));
  line.Add("ledger_s", load_s + warm_s);
  line.Add("session_cpu_s", session_cpu_s);
  line.Add("session_peak_rss_mb", session_rss_mb);
  line.Add("queries", num_queries);
  line.Add("deltas", num_deltas);
  line.Add("failed", failed);
  line.Add("crc", final_crc);
  line.Add("max_abs_diff", diff);
  line.Add("query_p50_us", Percentile(from_due, 0.50) * 1e6);
  line.Add("query_p99_us", Percentile(from_due, 0.99) * 1e6);
  line.Add("delta_p50_ms", Percentile(delta_seconds, 0.50) * 1e3);
  line.Raw("layers", figures.Json());
  std::printf("%s\n", line.str().c_str());
  return 0;
}

// ------------------------------------------------------------------ host

int Host() {
  const kernels::KernelConfig config = kernels::GetKernelConfig();
  JsonLine line;
  line.Add("build_type", std::string(PERFBENCH_BUILD_TYPE));
  line.Add("hardware_concurrency",
           static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  line.Add("pool_threads",
           static_cast<std::int64_t>(DefaultThreadPool().num_threads()));
  line.Add("executor_threads",
           static_cast<std::int64_t>(StaticExecutor::Default().num_threads()));
  line.Add("kernel_max_threads", static_cast<std::int64_t>(config.max_threads));
  line.Add("static_executor", config.use_static_executor);
  line.Add("fast_math", config.fast_math);
  std::printf("%s\n", line.str().c_str());
  return 0;
}

int Main(int argc, const char* const argv[]) {
  if (argc < 2) return Fail("usage: perfbench_client host|setup|job|serve ...");
  const std::string command = argv[1];
  if (command == "host") return Host();
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    return Fail(std::string("refusing to measure a ") + PERFBENCH_BUILD_TYPE +
                " build; configure with -DCMAKE_BUILD_TYPE=Release");
  }
  const Result<FlagParser> flags = FlagParser::Parse(argc - 1, argv + 1);
  if (!flags.ok()) return Fail(flags.status().ToString());
  const std::string dir = flags->GetString("dir", "");
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags->GetInt("seed", 1));
  const bool trace = flags->GetInt("trace", 0) != 0;
  const WorkloadSpec* spec =
      FindWorkload(flags->GetString("workload", "serve_zipf"));
  if (spec == nullptr) return Fail("unknown workload");
  if (dir.empty()) return Fail("--dir is required");
  if (command == "setup") return Setup(*spec, seed, dir);
  if (command == "job") return Job(*spec, seed, dir, trace);
  if (command == "serve") {
    return Serve(seed, dir, flags->GetDouble("seconds", 10.0), trace,
                 flags->GetInt("cold_only", 0) != 0);
  }
  return Fail("unknown command " + command);
}

}  // namespace
}  // namespace inferturbo::perfbench

int main(int argc, char** argv) {
  return inferturbo::perfbench::Main(argc, argv);
}
