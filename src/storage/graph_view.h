#ifndef INFERTURBO_STORAGE_GRAPH_VIEW_H_
#define INFERTURBO_STORAGE_GRAPH_VIEW_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "src/common/result.h"
#include "src/graph/graph.h"
#include "src/pregel/worker_metrics.h"
#include "src/storage/shard_store.h"

namespace inferturbo {

/// One partition's graph data, as spans over backing memory pinned by
/// `lease`. The layout mirrors the shard format: a local CSR with
/// global node/dst/edge ids plus gathered feature and label rows, in
/// the member-list order HashPartitioner assigns — the order the
/// MapReduce map stage walks.
struct PartitionSlice {
  /// Global node id per local row, ascending.
  std::span<const std::int64_t> nodes;
  /// Local CSR offsets (nodes.size() + 1) into the edge arrays.
  std::span<const std::int64_t> out_offsets;
  /// Global destination node id per out-edge.
  std::span<const std::int64_t> out_dst;
  /// Global edge id per out-edge (the owning Graph's numbering).
  std::span<const std::int64_t> out_edge_ids;
  /// (nodes.size() × feature_dim) row-major.
  const float* node_features = nullptr;
  /// (out_dst.size() × edge_feature_dim) row-major; nullptr when the
  /// graph has no edge features.
  const float* edge_features = nullptr;
  /// Per-node class ids; empty when unlabeled.
  std::span<const std::int64_t> labels;
  /// Keeps the backing memory alive for the slice's lifetime.
  std::shared_ptr<const void> lease;
};

/// Uniform partitioned access to a graph, whether it is resident in
/// memory or streamed from a shard directory. Inference drivers that
/// consume a GraphView one partition at a time (the MapReduce map
/// stage) work out-of-core for free: swap the implementation, nothing
/// else changes, and the numbers stay bit-identical because both
/// implementations present the same node order and the same raw bytes.
class GraphView {
 public:
  virtual ~GraphView() = default;

  virtual std::int64_t num_nodes() const = 0;
  virtual std::int64_t num_edges() const = 0;
  virtual std::int64_t feature_dim() const = 0;
  /// 0 when the graph has no edge features.
  virtual std::int64_t edge_feature_dim() const = 0;
  virtual std::int64_t num_classes() const = 0;
  virtual bool has_labels() const = 0;
  virtual std::int64_t num_partitions() const = 0;

  /// Pins partition p and returns spans over its data.
  virtual Result<PartitionSlice> AcquirePartition(
      std::int64_t partition) const = 0;
  /// Pins the hub-heavy hot-set resident (out-of-core views configured
  /// with a pinned budget; see ShardStore::PinHotSet). Returns the
  /// number of partitions pinned — 0 for in-memory views and stores
  /// without a pinned budget.
  virtual Result<std::int64_t> PinHotSet(std::int64_t /*hub_threshold*/) const {
    return std::int64_t{0};
  }

  /// The whole graph, when it is resident anyway (in-memory views);
  /// nullptr for out-of-core views. Lets callers keep fast paths that
  /// need random access without forcing a materialization.
  virtual const Graph* resident_graph() const { return nullptr; }

  /// Storage counters (all zero for in-memory views).
  virtual StorageMetrics storage_metrics() const { return StorageMetrics(); }
};

/// GraphView over a resident Graph: AcquirePartition gathers copies of
/// the partition's rows (same bytes, same order a shard would hold).
class InMemoryGraphView : public GraphView {
 public:
  /// `graph` must outlive the view. Partitioning uses HashPartitioner,
  /// matching what WriteGraphShards packs.
  InMemoryGraphView(const Graph& graph, std::int64_t num_partitions);

  std::int64_t num_nodes() const override { return graph_->num_nodes(); }
  std::int64_t num_edges() const override { return graph_->num_edges(); }
  std::int64_t feature_dim() const override { return graph_->feature_dim(); }
  std::int64_t edge_feature_dim() const override;
  std::int64_t num_classes() const override {
    return graph_->num_classes();
  }
  bool has_labels() const override { return !graph_->labels().empty(); }
  std::int64_t num_partitions() const override {
    return static_cast<std::int64_t>(members_.size());
  }

  Result<PartitionSlice> AcquirePartition(
      std::int64_t partition) const override;
  const Graph* resident_graph() const override { return graph_; }

 private:
  const Graph* graph_;
  std::vector<std::vector<NodeId>> members_;
};

/// GraphView streaming partitions from a ShardStore. The returned
/// slices point directly into the mapped (or heap-validated) shard
/// image; the slice's lease pins it.
class ShardGraphView : public GraphView {
 public:
  explicit ShardGraphView(ShardStore store) : store_(std::move(store)) {}

  std::int64_t num_nodes() const override { return store_.meta().num_nodes; }
  std::int64_t num_edges() const override { return store_.meta().num_edges; }
  std::int64_t feature_dim() const override {
    return store_.meta().feature_dim;
  }
  std::int64_t edge_feature_dim() const override {
    return store_.meta().edge_feature_dim;
  }
  std::int64_t num_classes() const override {
    return store_.meta().num_classes;
  }
  bool has_labels() const override { return store_.meta().has_labels; }
  std::int64_t num_partitions() const override {
    return store_.meta().num_partitions();
  }

  Result<PartitionSlice> AcquirePartition(
      std::int64_t partition) const override;
  Result<std::int64_t> PinHotSet(std::int64_t hub_threshold) const override;
  StorageMetrics storage_metrics() const override {
    return store_.metrics();
  }

  const ShardStore& store() const { return store_; }

 private:
  mutable ShardStore store_;
};

/// Rebuilds a full in-memory Graph from any view, reproducing the
/// original edge numbering exactly: slices carry global edge ids, so
/// every edge lands at its original position and the rebuilt CSC
/// in-edge order — and with it every order-sensitive float fold — is
/// bit-identical to the graph that was packed. Peak extra memory is
/// one partition's slice at a time on top of the output graph.
Result<Graph> MaterializeGraph(const GraphView& view);

namespace storage_internal {
/// Materialization core shared by the demand path above and the
/// pipelined overload in shard_pipeline.h: `acquire(p)` supplies each
/// partition's slice, everything else (validation, exact edge-id
/// reconstruction) is identical, which is what keeps the two overloads
/// byte-identical.
Result<Graph> MaterializeWith(
    const GraphView& view,
    const std::function<Result<PartitionSlice>(std::int64_t)>& acquire);
}  // namespace storage_internal

}  // namespace inferturbo

#endif  // INFERTURBO_STORAGE_GRAPH_VIEW_H_
