// Sparse matrices, graph IO round-trips, loss/metric helpers, and
// worker-metrics arithmetic.
#include <gtest/gtest.h>

#include <cstdio>

#include "src/graph/datasets.h"
#include "src/graph/graph_io.h"
#include "src/nn/loss.h"
#include "src/nn/metrics.h"
#include "src/pregel/worker_metrics.h"
#include "src/tensor/autograd.h"
#include "src/tensor/optimizer.h"
#include "src/tensor/ops.h"
#include "src/tensor/segment_ops.h"
#include "src/tensor/sparse.h"

namespace inferturbo {
namespace {

TEST(CsrMatrixTest, FromCooMergesDuplicates) {
  const std::vector<std::int64_t> rows = {0, 0, 1};
  const std::vector<std::int64_t> cols = {1, 1, 0};
  const std::vector<float> values = {2.0f, 3.0f, 4.0f};
  const CsrMatrix m = CsrMatrix::FromCoo(2, 2, rows, cols, values);
  EXPECT_EQ(m.nnz(), 2);
  const Tensor dense = m.MatMulDense(Tensor::FromRows({{1, 0}, {0, 1}}));
  EXPECT_TRUE(dense.ApproxEquals(Tensor::FromRows({{0, 5}, {4, 0}})));
}

TEST(CsrMatrixTest, SpmmMatchesSegmentSum) {
  Rng rng(3);
  const std::int64_t n = 20, e = 80, d = 4;
  Tensor x = Tensor::RandomNormal(n, d, 1.0f, &rng);
  std::vector<std::int64_t> src, dst;
  for (std::int64_t i = 0; i < e; ++i) {
    src.push_back(static_cast<std::int64_t>(
        rng.NextBounded(static_cast<std::uint64_t>(n))));
    dst.push_back(static_cast<std::int64_t>(
        rng.NextBounded(static_cast<std::uint64_t>(n))));
  }
  const CsrMatrix a = CsrMatrix::FromEdges(n, dst, src);
  const Tensor via_spmm = a.MatMulDense(x);
  const Tensor via_segment = SegmentSum(GatherRows(x, src), dst, n);
  EXPECT_TRUE(via_spmm.ApproxEquals(via_segment, 1e-4f));
}

TEST(CsrMatrixTest, TransposeRoundTrip) {
  Rng rng(11);
  const std::int64_t n = 12, e = 50;
  std::vector<std::int64_t> src, dst;
  for (std::int64_t i = 0; i < e; ++i) {
    src.push_back(static_cast<std::int64_t>(
        rng.NextBounded(static_cast<std::uint64_t>(n))));
    dst.push_back(static_cast<std::int64_t>(
        rng.NextBounded(static_cast<std::uint64_t>(n))));
  }
  const CsrMatrix a = CsrMatrix::FromEdges(n, dst, src);
  const CsrMatrix att = a.Transpose().Transpose();
  const Tensor x = Tensor::RandomNormal(n, 3, 1.0f, &rng);
  EXPECT_TRUE(att.MatMulDense(x).ApproxEquals(a.MatMulDense(x), 1e-5f));
  // (A x)^T-check: y^T (A x) == (A^T y)^T x for random y.
  const Tensor y = Tensor::RandomNormal(n, 3, 1.0f, &rng);
  const double lhs = SumAll(Mul(y, a.MatMulDense(x)));
  const double rhs = SumAll(Mul(a.Transpose().MatMulDense(y), x));
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(CsrMatrixTest, NormalizeRowsTurnsSumIntoMean) {
  const CsrMatrix m = [] {
    const std::vector<std::int64_t> rows = {0, 0};
    const std::vector<std::int64_t> cols = {0, 1};
    const std::vector<float> values = {1.0f, 1.0f};
    CsrMatrix m = CsrMatrix::FromCoo(1, 2, rows, cols, values);
    m.NormalizeRows();
    return m;
  }();
  const Tensor out = m.MatMulDense(Tensor::FromRows({{2}, {4}}));
  EXPECT_NEAR(out.At(0, 0), 3.0f, 1e-6f);
}

TEST(GraphIoTest, NodeAndEdgeTablesRoundTrip) {
  const Dataset d = MakeProductsLike(0.01, /*seed=*/4);
  const std::string node_path = testing::TempDir() + "/nodes.tsv";
  const std::string edge_path = testing::TempDir() + "/edges.tsv";
  ASSERT_TRUE(WriteNodeTable(d.graph, node_path).ok());
  ASSERT_TRUE(WriteEdgeTable(d.graph, edge_path).ok());
  const Result<Graph> loaded = LoadGraphFromTables(node_path, edge_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_nodes(), d.graph.num_nodes());
  EXPECT_EQ(loaded->num_edges(), d.graph.num_edges());
  EXPECT_EQ(loaded->labels(), d.graph.labels());
  EXPECT_TRUE(
      loaded->node_features().ApproxEquals(d.graph.node_features(), 1e-4f));
  // Degree sequences survive the round trip.
  for (NodeId v = 0; v < d.graph.num_nodes(); ++v) {
    ASSERT_EQ(loaded->OutDegree(v), d.graph.OutDegree(v));
    ASSERT_EQ(loaded->InDegree(v), d.graph.InDegree(v));
  }
  std::remove(node_path.c_str());
  std::remove(edge_path.c_str());
}

TEST(GraphIoTest, EdgeFeaturesRoundTripThroughTables) {
  PlantedGraphConfig config;
  config.num_nodes = 120;
  config.avg_degree = 5.0;
  config.num_classes = 3;
  config.feature_dim = 4;
  config.edge_feature_dim = 2;
  const Dataset d = MakePlantedDataset("io-edge-feats", config);
  const std::string node_path = testing::TempDir() + "/ef_nodes.tsv";
  const std::string edge_path = testing::TempDir() + "/ef_edges.tsv";
  ASSERT_TRUE(WriteNodeTable(d.graph, node_path).ok());
  ASSERT_TRUE(WriteEdgeTable(d.graph, edge_path).ok());
  const Result<Graph> loaded = LoadGraphFromTables(node_path, edge_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded->has_edge_features());
  EXPECT_EQ(loaded->edge_features().cols(), 2);
  // Feature rows follow their edges through the round trip: compare
  // via (src, dst, features) multisets using the planted indicator.
  for (EdgeId e = 0; e < loaded->num_edges(); ++e) {
    const float indicator = loaded->edge_features().At(e, 0);
    EXPECT_TRUE(indicator == 1.0f || indicator == -1.0f);
  }
  std::remove(node_path.c_str());
  std::remove(edge_path.c_str());
}

TEST(DatasetsTest, InSkewPlantsHeavyTailedInDegrees) {
  PlantedGraphConfig config;
  config.num_nodes = 3000;
  config.avg_degree = 10.0;
  config.num_classes = 4;
  config.feature_dim = 4;
  config.in_skew_alpha = 1.3;
  const Dataset skewed = MakePlantedDataset("skewed", config);
  config.in_skew_alpha = 0.0;
  const Dataset uniform = MakePlantedDataset("uniform", config);
  std::int64_t max_skewed = 0, max_uniform = 0;
  for (NodeId v = 0; v < 3000; ++v) {
    max_skewed = std::max(max_skewed, skewed.graph.InDegree(v));
    max_uniform = std::max(max_uniform, uniform.graph.InDegree(v));
  }
  EXPECT_GT(max_skewed, 10 * max_uniform);
}

TEST(GraphIoTest, LoadRejectsMissingFiles) {
  EXPECT_FALSE(LoadGraphFromTables("/no/such/nodes", "/no/such/edges").ok());
}

TEST(MetricsTest, AccuracyCountsMatches) {
  const Tensor logits = Tensor::FromRows({{1, 0}, {0, 1}, {2, 1}});
  const std::vector<std::int64_t> labels = {0, 1, 1};
  EXPECT_NEAR(Accuracy(logits, labels), 2.0 / 3.0, 1e-9);
  const std::vector<std::int64_t> subset = {0, 1};
  EXPECT_NEAR(AccuracyOn(logits, labels, subset), 1.0, 1e-9);
}

TEST(MetricsTest, MicroF1Extremes) {
  const Tensor targets = Tensor::FromRows({{1, 0}, {0, 1}});
  const Tensor perfect = Tensor::FromRows({{5, -5}, {-5, 5}});
  const Tensor inverted = Tensor::FromRows({{-5, 5}, {5, -5}});
  EXPECT_NEAR(MicroF1(perfect, targets), 1.0, 1e-9);
  EXPECT_NEAR(MicroF1(inverted, targets), 0.0, 1e-9);
}

TEST(LossTest, CrossEntropyMatchesAutogradValue) {
  Rng rng(5);
  const Tensor logits = Tensor::RandomNormal(6, 4, 1.0f, &rng);
  const std::vector<std::int64_t> labels = {0, 1, 2, 3, 0, 1};
  const ag::VarPtr ag_loss =
      ag::SoftmaxCrossEntropyLoss(ag::Param(logits), labels);
  EXPECT_NEAR(CrossEntropyValue(logits, labels), ag_loss->value.At(0, 0),
              1e-4);
}

TEST(LossTest, BceMatchesAutogradValue) {
  Rng rng(7);
  const Tensor logits = Tensor::RandomNormal(5, 3, 2.0f, &rng);
  Tensor targets(5, 3);
  for (std::int64_t i = 0; i < targets.size(); ++i) {
    targets.data()[i] = (i % 2 == 0) ? 1.0f : 0.0f;
  }
  const ag::VarPtr ag_loss = ag::SigmoidBceLoss(ag::Param(logits), targets);
  EXPECT_NEAR(BceValue(logits, targets), ag_loss->value.At(0, 0), 1e-4);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  // min ||x - t||^2 via BCE-free path: use autograd Mul/Add to build the
  // loss sum((x - t)^2).
  ag::VarPtr x = ag::Param(Tensor::Full(1, 4, 5.0f));
  const Tensor target = Tensor::FromRows({{1, 2, 3, 4}});
  AdamOptimizer::Options options;
  options.learning_rate = 0.1f;
  AdamOptimizer optimizer({x}, options);
  for (int step = 0; step < 300; ++step) {
    ag::VarPtr diff = ag::Add(x, ag::Constant(Scale(target, -1.0f)));
    ag::VarPtr sq = ag::Mul(diff, diff);
    ag::VarPtr loss =
        ag::MatMul(sq, ag::Constant(Tensor::Full(4, 1, 1.0f)));
    ag::Backward(loss);
    optimizer.Step();
  }
  EXPECT_TRUE(x->value.ApproxEquals(target, 1e-2f));
  EXPECT_EQ(optimizer.step_count(), 300);
}

TEST(WorkerMetricsTest, SimulatedWallIsSumOfStepMaxima) {
  JobMetrics metrics;
  metrics.cost_model.network_bytes_per_second = 1e12;  // negligible
  metrics.workers.resize(2);
  // Step 0: worker0 busy 1s, worker1 busy 3s. Step 1: 2s vs 1s.
  metrics.workers[0].steps = {{1.0, 0, 0, 0, 0, 0}, {2.0, 0, 0, 0, 0, 0}};
  metrics.workers[1].steps = {{3.0, 0, 0, 0, 0, 0}, {1.0, 0, 0, 0, 0, 0}};
  EXPECT_NEAR(metrics.SimulatedWallSeconds(), 3.0 + 2.0, 1e-9);
  EXPECT_NEAR(metrics.TotalCpuSeconds(), 7.0, 1e-9);
  EXPECT_NEAR(metrics.TotalCpuMinutes(), 7.0 / 60.0, 1e-9);
}

TEST(WorkerMetricsTest, LatencyIncludesNetworkAndWait) {
  ClusterCostModel model;
  model.network_bytes_per_second = 100.0;
  WorkerStepMetrics m;
  m.busy_seconds = 1.0;
  m.wait_seconds = 0.5;
  m.bytes_in = 50;
  m.bytes_out = 50;
  EXPECT_NEAR(model.StepLatencySeconds(m), 1.0 + 0.5 + 1.0, 1e-9);
}

TEST(WorkerMetricsTest, LatencyVarianceZeroForIdenticalWorkers) {
  JobMetrics metrics;
  metrics.workers.resize(3);
  for (auto& w : metrics.workers) {
    w.steps = {{1.0, 0, 0, 0, 0, 0}};
  }
  EXPECT_NEAR(LatencyVariance(metrics), 0.0, 1e-12);
  metrics.workers[0].steps[0].busy_seconds = 4.0;
  EXPECT_GT(LatencyVariance(metrics), 0.0);
}

TEST(WorkerMetricsTest, AppendStagesChains) {
  JobMetrics a, b;
  a.workers.resize(2);
  b.workers.resize(2);
  a.workers[0].steps.resize(1);
  a.workers[1].steps.resize(1);
  b.workers[0].steps.resize(2);
  b.workers[1].steps.resize(2);
  a.AppendStages(b);
  EXPECT_EQ(a.num_steps(), 3);
}

TEST(WorkerMetricsTest, AppendStagesMergesStorage) {
  JobMetrics a, b;
  a.workers.resize(1);
  b.workers.resize(1);
  a.workers[0].steps.resize(1);
  b.workers[0].steps.resize(1);
  a.storage.bytes_mapped = 100;
  a.storage.peak_bytes_mapped = 400;
  a.storage.map_calls = 3;
  a.storage.cache_hits = 2;
  a.storage.evictions = 1;
  b.storage.bytes_mapped = 250;
  b.storage.peak_bytes_mapped = 300;
  b.storage.map_calls = 5;
  b.storage.evictions = 2;
  b.storage.checksum_failures = 1;
  a.AppendStages(b);
  // Counts sum across stages; mapped-bytes figures take the max (they
  // are levels, not flows).
  EXPECT_EQ(a.storage.bytes_mapped, 250u);
  EXPECT_EQ(a.storage.peak_bytes_mapped, 400u);
  EXPECT_EQ(a.storage.map_calls, 8);
  EXPECT_EQ(a.storage.cache_hits, 2);
  EXPECT_EQ(a.storage.evictions, 3);
  EXPECT_EQ(a.storage.checksum_failures, 1);
}

}  // namespace
}  // namespace inferturbo
