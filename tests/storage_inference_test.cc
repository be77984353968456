// The out-of-core acceptance property: inference streamed from a shard
// directory is BIT-identical (tolerance 0.0f) to the in-memory run, on
// both backends, under every strategy combination, with the memory
// budget binding — peak mapped bytes never exceed it. The shard
// partitioning doubles as the worker assignment, so the streamed
// MapReduce run folds floats in exactly the in-memory order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/graph/datasets.h"
#include "src/inference/inferturbo_mapreduce.h"
#include "src/inference/inferturbo_pregel.h"
#include "src/nn/model.h"
#include "src/storage/graph_view.h"
#include "src/storage/shard_format.h"
#include "src/storage/shard_pipeline.h"
#include "src/storage/shard_store.h"
#include "src/storage/shard_writer.h"

namespace inferturbo {
namespace {

constexpr std::int64_t kPartitions = 8;

Dataset SkewedDataset() {
  PowerLawConfig config;
  config.num_nodes = 400;
  config.avg_degree = 6.0;
  config.skew = PowerLawSkew::kBoth;
  config.alpha = 1.6;
  config.seed = 99;
  return MakePowerLawDataset(config, /*feature_dim=*/12);
}

std::unique_ptr<GnnModel> MakeModelFor(const std::string& kind,
                                       const Graph& graph) {
  ModelConfig config;
  config.input_dim = graph.feature_dim();
  config.hidden_dim = 16;
  config.num_classes = graph.num_classes();
  config.num_layers = 2;
  config.heads = 4;
  config.seed = 5;
  if (graph.has_edge_features()) {
    config.edge_feature_dim = graph.edge_features().cols();
  }
  Result<std::unique_ptr<GnnModel>> model = MakeModel(kind, config);
  EXPECT_TRUE(model.ok());
  return std::move(model).ValueOrDie();
}

std::string PackInto(const Graph& graph, const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  ShardWriterOptions writer;
  writer.num_partitions = kPartitions;
  const Result<ShardMeta> meta = WriteGraphShards(graph, dir, writer);
  EXPECT_TRUE(meta.ok()) << meta.status().ToString();
  return dir;
}

/// On-disk size of each of the pack's kPartitions shards.
std::vector<std::uint64_t> ShardSizes(const std::string& dir) {
  std::vector<std::uint64_t> sizes;
  for (std::int64_t p = 0; p < kPartitions; ++p) {
    sizes.push_back(std::filesystem::file_size(dir + "/" + ShardFileName(p)));
  }
  return sizes;
}

/// A budget that is genuinely binding — the whole pack minus its
/// smallest shard, so the store can never hold every partition and
/// must evict — while leaving ample headroom for the shards that 2
/// pool workers plus the pipeline's in-flight slots lease concurrently.
std::uint64_t BindingBudget(const std::string& dir) {
  const std::vector<std::uint64_t> sizes = ShardSizes(dir);
  const std::uint64_t total =
      std::accumulate(sizes.begin(), sizes.end(), std::uint64_t{0});
  const std::uint64_t budget =
      total - *std::min_element(sizes.begin(), sizes.end());
  EXPECT_LT(budget, total);
  return budget;
}

/// The store's documented peak bound: eviction keeps the LRU cache
/// under the budget, but every concurrent lease holder — a pool thread
/// running a map task, or a pipeline slot — can pin one more shard the
/// LRU cannot drop.
std::uint64_t LeaseBound(std::uint64_t budget, std::uint64_t largest_shard,
                         int pool_threads, int pipeline_slots) {
  return budget + static_cast<std::uint64_t>(pool_threads + pipeline_slots) *
                      largest_shard;
}

Result<ShardStore> OpenStore(const std::string& dir, std::uint64_t budget,
                             std::uint64_t pinned_budget = 0) {
  ShardStoreOptions options;
  options.directory = dir;
  options.memory_budget_bytes = budget;
  options.pinned_budget_bytes = pinned_budget;
  return ShardStore::Open(std::move(options));
}

struct Case {
  bool partial_gather;
  bool broadcast;
  bool shadow_nodes;
};

std::string CaseName(const testing::TestParamInfo<Case>& info) {
  const Case& c = info.param;
  std::string name;
  name += c.partial_gather ? "pg1" : "pg0";
  name += c.broadcast ? "_bc1" : "_bc0";
  name += c.shadow_nodes ? "_sn1" : "_sn0";
  return name;
}

class StorageEquivalenceTest : public testing::TestWithParam<Case> {};

TEST_P(StorageEquivalenceTest, StreamedRunsAreBitIdenticalToInMemory) {
  const Case& c = GetParam();
  const Dataset dataset = SkewedDataset();
  const std::unique_ptr<GnnModel> model =
      MakeModelFor("sage", dataset.graph);
  const std::string dir = PackInto(dataset.graph, "storage_equiv");
  const std::uint64_t budget = BindingBudget(dir);
  ThreadPool pool(2);

  InferTurboOptions options;
  options.num_workers = kPartitions;
  options.pool = &pool;
  options.strategies.partial_gather = c.partial_gather;
  options.strategies.broadcast = c.broadcast;
  options.strategies.shadow_nodes = c.shadow_nodes;
  options.strategies.threshold_override =
      (c.broadcast || c.shadow_nodes) ? 8 : -1;
  options.export_embeddings = true;

  // Every streaming configuration — pipeline on/off × pinned hot-set
  // on/off — must reproduce the in-memory logits bit for bit on both
  // backends.
  struct StreamMode {
    int slots;
    bool pin;
    const char* name;
  };
  constexpr StreamMode kModes[] = {
      {0, false, "demand"},
      {2, false, "pipelined"},
      {0, true, "demand_pinned"},
      {2, true, "pipelined_pinned"},
  };
  for (const bool use_mapreduce : {false, true}) {
    SCOPED_TRACE(use_mapreduce ? "mapreduce" : "pregel");
    const Result<InferenceResult> in_memory =
        use_mapreduce
            ? RunInferTurboMapReduce(dataset.graph, *model, options)
            : RunInferTurboPregel(dataset.graph, *model, options);
    ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();

    for (const StreamMode& mode : kModes) {
      SCOPED_TRACE(mode.name);
      const std::uint64_t pinned_budget = mode.pin ? budget / 2 : 0;
      Result<ShardStore> store = OpenStore(dir, budget, pinned_budget);
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      const ShardGraphView view(std::move(*store));
      InferTurboOptions streamed_options = options;
      streamed_options.storage_pipeline_slots = mode.slots;
      streamed_options.pin_hub_shards = mode.pin;
      const Result<InferenceResult> streamed =
          use_mapreduce
              ? RunInferTurboMapReduce(view, *model, streamed_options)
              : RunInferTurboPregel(view, *model, streamed_options);
      ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();

      // Bit-identical: tolerance 0.0f, and hard predictions agree.
      EXPECT_TRUE(streamed->logits.ApproxEquals(in_memory->logits, 0.0f));
      EXPECT_EQ(streamed->predictions, in_memory->predictions);
      EXPECT_TRUE(
          streamed->embeddings.ApproxEquals(in_memory->embeddings, 0.0f));

      const StorageMetrics storage = streamed->metrics.storage;
      EXPECT_GT(storage.map_calls, 0);
      EXPECT_GT(storage.peak_bytes_mapped, 0u);
      EXPECT_LE(storage.peak_bytes_mapped, budget);
      EXPECT_EQ(storage.checksum_failures, 0);
      if (mode.pin) {
        // Half the binding budget fits several of the 8 shards.
        EXPECT_GT(storage.pinned_bytes, 0u);
        EXPECT_GT(storage.pinned_partitions, 0);
      } else {
        EXPECT_EQ(storage.pinned_partitions, 0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, StorageEquivalenceTest,
    testing::Values(Case{false, false, false}, Case{true, false, false},
                    Case{true, true, false}, Case{true, false, true},
                    Case{true, true, true}),
    CaseName);

TEST(StorageInferenceTest, EdgeFeatureModelStreamsBitIdentically) {
  PlantedGraphConfig config;
  config.num_nodes = 300;
  config.avg_degree = 5.0;
  config.feature_dim = 8;
  config.num_classes = 4;
  config.edge_feature_dim = 3;
  config.seed = 17;
  const Dataset dataset = MakePlantedDataset("storage-edge", config);
  const std::unique_ptr<GnnModel> model =
      MakeModelFor("edge_sage", dataset.graph);
  const std::string dir = PackInto(dataset.graph, "storage_edge");
  ThreadPool pool(2);

  InferTurboOptions options;
  options.num_workers = kPartitions;
  options.pool = &pool;

  for (const bool use_mapreduce : {false, true}) {
    SCOPED_TRACE(use_mapreduce ? "mapreduce" : "pregel");
    const Result<InferenceResult> in_memory =
        use_mapreduce
            ? RunInferTurboMapReduce(dataset.graph, *model, options)
            : RunInferTurboPregel(dataset.graph, *model, options);
    ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();
    Result<ShardStore> store = OpenStore(dir, BindingBudget(dir));
    ASSERT_TRUE(store.ok());
    const ShardGraphView view(std::move(*store));
    const Result<InferenceResult> streamed =
        use_mapreduce ? RunInferTurboMapReduce(view, *model, options)
                      : RunInferTurboPregel(view, *model, options);
    ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
    EXPECT_TRUE(streamed->logits.ApproxEquals(in_memory->logits, 0.0f));
  }
}

TEST(StorageInferenceTest, MapReduceRejectsWorkerPartitionMismatch) {
  const Dataset dataset = SkewedDataset();
  const std::unique_ptr<GnnModel> model =
      MakeModelFor("sage", dataset.graph);
  const std::string dir = PackInto(dataset.graph, "storage_mismatch");
  Result<ShardStore> store = OpenStore(dir, 0);
  ASSERT_TRUE(store.ok());
  const ShardGraphView view(std::move(*store));

  InferTurboOptions options;
  options.num_workers = kPartitions - 3;
  EXPECT_TRUE(RunInferTurboMapReduce(view, *model, options)
                  .status()
                  .IsInvalidArgument());
  // The Pregel backend materializes the view, so any worker count works.
  EXPECT_TRUE(RunInferTurboPregel(view, *model, options).ok());
}

TEST(StorageInferenceTest, StreamedPipelineActuallyRuns) {
  const Dataset dataset = SkewedDataset();
  const std::unique_ptr<GnnModel> model =
      MakeModelFor("sage", dataset.graph);
  const std::string dir = PackInto(dataset.graph, "storage_pf");
  ThreadPool pool(2);
  Result<ShardStore> store = OpenStore(dir, BindingBudget(dir));
  ASSERT_TRUE(store.ok());
  const ShardGraphView view(std::move(*store));

  InferTurboOptions options;
  options.num_workers = kPartitions;
  options.pool = &pool;
  const Result<InferenceResult> streamed =
      RunInferTurboMapReduce(view, *model, options);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  // Each consumed load charges its I/O time either to consumer wait or
  // to hidden overlap, so the two together are strictly positive.
  const StorageMetrics storage = streamed->metrics.storage;
  EXPECT_GT(storage.overlap_seconds + storage.pipeline_wait_seconds, 0.0);
}

// The headline acceptance run: a pack at least 4x the memory budget
// still streams bit-identically through the pipeline on both backends,
// with the peak mapped bytes provably under the budget.
TEST(StorageInferenceTest, FourTimesBudgetStreamsBitIdentically) {
  constexpr std::int64_t kManyPartitions = 24;
  // Near-uniform shard sizes (hash partitioning, feature rows
  // dominate): the pipeline's resident window — consumer + slots +
  // the load in flight — stays a small fixed fraction of the pack, so
  // a quarter-of-the-pack budget is binding but never violated. The
  // skew stress lives in the strategy sweep above.
  PlantedGraphConfig config;
  config.num_nodes = 800;
  config.avg_degree = 5.0;
  config.feature_dim = 12;
  config.num_classes = 4;
  config.seed = 23;
  const Dataset dataset = MakePlantedDataset("storage-4x", config);
  const std::unique_ptr<GnnModel> model =
      MakeModelFor("sage", dataset.graph);

  const std::string dir = testing::TempDir() + "/storage_4x";
  std::filesystem::remove_all(dir);
  ShardWriterOptions writer;
  writer.num_partitions = kManyPartitions;
  const Result<ShardMeta> meta = WriteGraphShards(dataset.graph, dir, writer);
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();

  std::uint64_t total = 0;
  for (std::int64_t p = 0; p < kManyPartitions; ++p) {
    total += std::filesystem::file_size(dir + "/" + ShardFileName(p));
  }
  const std::uint64_t budget = total / 4;
  ASSERT_GE(total, 4 * budget);

  // One pool worker: the resident set is the consumer's shard plus the
  // pipeline's in-flight slots, comfortably under a quarter of the pack.
  ThreadPool pool(1);
  InferTurboOptions options;
  options.num_workers = kManyPartitions;
  options.pool = &pool;
  options.storage_pipeline_slots = 2;

  for (const bool use_mapreduce : {false, true}) {
    SCOPED_TRACE(use_mapreduce ? "mapreduce" : "pregel");
    const Result<InferenceResult> in_memory =
        use_mapreduce
            ? RunInferTurboMapReduce(dataset.graph, *model, options)
            : RunInferTurboPregel(dataset.graph, *model, options);
    ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();

    Result<ShardStore> store = OpenStore(dir, budget);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    const ShardGraphView view(std::move(*store));
    const Result<InferenceResult> streamed =
        use_mapreduce ? RunInferTurboMapReduce(view, *model, options)
                      : RunInferTurboPregel(view, *model, options);
    ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();

    EXPECT_TRUE(streamed->logits.ApproxEquals(in_memory->logits, 0.0f));
    EXPECT_EQ(streamed->predictions, in_memory->predictions);
    const StorageMetrics storage = streamed->metrics.storage;
    EXPECT_GT(storage.peak_bytes_mapped, 0u);
    EXPECT_LE(storage.peak_bytes_mapped, budget);
    EXPECT_EQ(storage.checksum_failures, 0);
    EXPECT_GT(storage.evictions, 0);
  }
}

// Eviction drops only the cache's reference, so two shards leased at
// once — as two map tasks on a pool hold them — stay mapped together
// even when the budget covers one shard. Deterministic: the consumer
// holds both slices before reading the peak.
TEST(StorageInferenceTest, ConcurrentLeasesExceedTheBudgetUpToTheBound) {
  const Dataset dataset = SkewedDataset();
  const std::string dir = PackInto(dataset.graph, "storage_leases");
  const std::vector<std::uint64_t> sizes = ShardSizes(dir);
  const std::uint64_t largest = *std::max_element(sizes.begin(), sizes.end());
  // Budget = shard 0 alone, so holding shards 0 and 1 must overshoot it.
  const std::uint64_t budget = sizes[0];
  Result<ShardStore> store = OpenStore(dir, budget);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const ShardGraphView view(std::move(*store));
  constexpr int kSlots = 2;
  std::uint64_t peak = 0;
  {
    ShardPipeline pipeline(view, ShardPipelineOptions{kSlots});
    const Result<PartitionSlice> first = pipeline.Acquire(0);
    const Result<PartitionSlice> second = pipeline.Acquire(1);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    peak = view.storage_metrics().peak_bytes_mapped;
  }
  EXPECT_GT(peak, budget);
  EXPECT_LE(peak, LeaseBound(budget, largest, /*pool_threads=*/2, kSlots));
}

// A budget of the smallest shard cannot hold the shards that
// concurrent map tasks and pipeline slots lease, so the cache budget
// alone does not bound the peak. The documented bound — budget + (pool threads +
// pipeline slots) × largest shard — must still hold, and the logits
// must stay bit-identical.
TEST(StorageInferenceTest, TightBudgetPeakStaysUnderLeaseBound) {
  const Dataset dataset = SkewedDataset();
  const std::unique_ptr<GnnModel> model =
      MakeModelFor("sage", dataset.graph);
  const std::string dir = PackInto(dataset.graph, "storage_tight");
  const std::vector<std::uint64_t> sizes = ShardSizes(dir);
  const std::uint64_t largest = *std::max_element(sizes.begin(), sizes.end());
  const std::uint64_t budget = *std::min_element(sizes.begin(), sizes.end());
  constexpr int kPoolThreads = 2;
  ThreadPool pool(kPoolThreads);

  InferTurboOptions options;
  options.num_workers = kPartitions;
  options.pool = &pool;

  for (const bool use_mapreduce : {false, true}) {
    SCOPED_TRACE(use_mapreduce ? "mapreduce" : "pregel");
    const Result<InferenceResult> in_memory =
        use_mapreduce
            ? RunInferTurboMapReduce(dataset.graph, *model, options)
            : RunInferTurboPregel(dataset.graph, *model, options);
    ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();
    for (const int slots : {0, 2}) {
      SCOPED_TRACE(slots);
      Result<ShardStore> store = OpenStore(dir, budget);
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      const ShardGraphView view(std::move(*store));
      InferTurboOptions streamed_options = options;
      streamed_options.storage_pipeline_slots = slots;
      const Result<InferenceResult> streamed =
          use_mapreduce
              ? RunInferTurboMapReduce(view, *model, streamed_options)
              : RunInferTurboPregel(view, *model, streamed_options);
      ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();

      EXPECT_TRUE(streamed->logits.ApproxEquals(in_memory->logits, 0.0f));
      const StorageMetrics storage = streamed->metrics.storage;
      EXPECT_GT(storage.evictions, 0);
      EXPECT_LE(storage.peak_bytes_mapped,
                LeaseBound(budget, largest, kPoolThreads, slots));
    }
  }
}

}  // namespace
}  // namespace inferturbo
