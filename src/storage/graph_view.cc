#include "src/storage/graph_view.h"

#include <utility>

#include "src/graph/graph_builder.h"
#include "src/graph/partition.h"

namespace inferturbo {
namespace {

/// Backing storage for an InMemoryGraphView slice: the gathered copies
/// the spans point into, owned by the slice's lease.
struct GatheredPartition {
  std::vector<std::int64_t> nodes;
  std::vector<std::int64_t> out_offsets;
  std::vector<std::int64_t> out_dst;
  std::vector<std::int64_t> out_edge_ids;
  std::vector<float> node_features;
  std::vector<float> edge_features;
  std::vector<std::int64_t> labels;
};

}  // namespace

InMemoryGraphView::InMemoryGraphView(const Graph& graph,
                                     std::int64_t num_partitions)
    : graph_(&graph) {
  members_ = AssignPartitions(graph.num_nodes(),
                              HashPartitioner(num_partitions))
                 .members;
}

std::int64_t InMemoryGraphView::edge_feature_dim() const {
  return graph_->has_edge_features() ? graph_->edge_features().cols() : 0;
}

Result<PartitionSlice> InMemoryGraphView::AcquirePartition(
    std::int64_t partition) const {
  if (partition < 0 || partition >= num_partitions()) {
    return Status::InvalidArgument(
        "partition " + std::to_string(partition) + " out of range [0, " +
        std::to_string(num_partitions()) + ")");
  }
  const Graph& g = *graph_;
  const std::vector<NodeId>& members =
      members_[static_cast<std::size_t>(partition)];
  const std::int64_t fd = g.feature_dim();
  const std::int64_t efd = edge_feature_dim();
  const bool labeled = !g.labels().empty();

  auto data = std::make_shared<GatheredPartition>();
  data->nodes.assign(members.begin(), members.end());
  data->out_offsets.reserve(members.size() + 1);
  data->out_offsets.push_back(0);
  data->node_features.reserve(members.size() *
                              static_cast<std::size_t>(fd));
  for (const NodeId v : members) {
    for (const EdgeId e : g.OutEdges(v)) {
      data->out_dst.push_back(g.EdgeDst(e));
      data->out_edge_ids.push_back(e);
      if (efd > 0) {
        const float* row = g.edge_features().RowPtr(e);
        data->edge_features.insert(data->edge_features.end(), row,
                                   row + efd);
      }
    }
    data->out_offsets.push_back(
        static_cast<std::int64_t>(data->out_dst.size()));
    const float* row = g.node_features().RowPtr(v);
    data->node_features.insert(data->node_features.end(), row, row + fd);
    if (labeled) {
      data->labels.push_back(g.labels()[static_cast<std::size_t>(v)]);
    }
  }

  PartitionSlice slice;
  slice.nodes = data->nodes;
  slice.out_offsets = data->out_offsets;
  slice.out_dst = data->out_dst;
  slice.out_edge_ids = data->out_edge_ids;
  slice.node_features = data->node_features.data();
  slice.edge_features = efd > 0 ? data->edge_features.data() : nullptr;
  slice.labels = data->labels;
  slice.lease = std::move(data);
  return slice;
}

Result<PartitionSlice> ShardGraphView::AcquirePartition(
    std::int64_t partition) const {
  INFERTURBO_ASSIGN_OR_RETURN(ShardLease lease, store_.Map(partition));
  PartitionSlice slice;
  slice.nodes = lease->node_ids();
  slice.out_offsets = lease->out_offsets();
  slice.out_dst = lease->out_dst();
  slice.out_edge_ids = lease->out_edge_ids();
  slice.node_features = lease->node_features();
  slice.edge_features = lease->edge_features();
  slice.labels = lease->labels();
  slice.lease = std::move(lease);
  return slice;
}

Result<std::int64_t> ShardGraphView::PinHotSet(
    std::int64_t hub_threshold) const {
  return store_.PinHotSet(hub_threshold);
}

Result<Graph> MaterializeGraph(const GraphView& view) {
  if (const Graph* resident = view.resident_graph()) {
    return *resident;  // already whole; copy rather than re-gather
  }
  return storage_internal::MaterializeWith(
      view, [&view](std::int64_t p) { return view.AcquirePartition(p); });
}

namespace storage_internal {

Result<Graph> MaterializeWith(
    const GraphView& view,
    const std::function<Result<PartitionSlice>(std::int64_t)>& acquire) {
  const std::int64_t num_nodes = view.num_nodes();
  const std::int64_t num_edges = view.num_edges();
  const std::int64_t fd = view.feature_dim();
  const std::int64_t efd = view.edge_feature_dim();
  const bool labeled = view.has_labels();

  // Fill edge-id-indexed arrays so AddEdge can run in original edge-id
  // order — the ordering the CSC in-edge index (and every fold over it)
  // is derived from.
  std::vector<NodeId> edge_src(static_cast<std::size_t>(num_edges), -1);
  std::vector<NodeId> edge_dst(static_cast<std::size_t>(num_edges), -1);
  Tensor node_features(num_nodes, fd);
  Tensor edge_features =
      efd > 0 ? Tensor(num_edges, efd) : Tensor();
  std::vector<std::int64_t> labels(
      labeled ? static_cast<std::size_t>(num_nodes) : 0, 0);
  std::vector<bool> node_seen(static_cast<std::size_t>(num_nodes), false);

  for (std::int64_t p = 0; p < view.num_partitions(); ++p) {
    INFERTURBO_ASSIGN_OR_RETURN(PartitionSlice slice, acquire(p));
    if (slice.out_offsets.size() != slice.nodes.size() + 1) {
      return Status::IoError("partition " + std::to_string(p) +
                             " slice has inconsistent CSR offsets");
    }
    for (std::size_t i = 0; i < slice.nodes.size(); ++i) {
      const std::int64_t v = slice.nodes[i];
      if (v < 0 || v >= num_nodes || node_seen[static_cast<std::size_t>(v)]) {
        return Status::IoError("partition " + std::to_string(p) +
                               " names node " + std::to_string(v) +
                               " out of range or twice");
      }
      node_seen[static_cast<std::size_t>(v)] = true;
      node_features.SetRow(v, slice.node_features +
                                  i * static_cast<std::size_t>(fd));
      if (labeled) {
        labels[static_cast<std::size_t>(v)] = slice.labels[i];
      }
      for (std::int64_t k = slice.out_offsets[i];
           k < slice.out_offsets[i + 1]; ++k) {
        const std::int64_t e = slice.out_edge_ids[static_cast<std::size_t>(k)];
        if (e < 0 || e >= num_edges ||
            edge_src[static_cast<std::size_t>(e)] != -1) {
          return Status::IoError("partition " + std::to_string(p) +
                                 " names edge id " + std::to_string(e) +
                                 " out of range or twice");
        }
        edge_src[static_cast<std::size_t>(e)] = v;
        edge_dst[static_cast<std::size_t>(e)] =
            slice.out_dst[static_cast<std::size_t>(k)];
        if (efd > 0) {
          edge_features.SetRow(
              e, slice.edge_features + static_cast<std::size_t>(k) *
                                           static_cast<std::size_t>(efd));
        }
      }
    }
  }
  for (std::int64_t v = 0; v < num_nodes; ++v) {
    if (!node_seen[static_cast<std::size_t>(v)]) {
      return Status::IoError("node " + std::to_string(v) +
                             " is missing from every partition");
    }
  }
  for (std::int64_t e = 0; e < num_edges; ++e) {
    if (edge_src[static_cast<std::size_t>(e)] < 0) {
      return Status::IoError("edge id " + std::to_string(e) +
                             " is missing from every partition");
    }
  }

  GraphBuilder builder(num_nodes);
  builder.ReserveEdges(static_cast<std::size_t>(num_edges));
  for (std::int64_t e = 0; e < num_edges; ++e) {
    builder.AddEdge(edge_src[static_cast<std::size_t>(e)],
                    edge_dst[static_cast<std::size_t>(e)]);
  }
  builder.SetNodeFeatures(std::move(node_features));
  if (efd > 0) builder.SetEdgeFeatures(std::move(edge_features));
  if (labeled) builder.SetLabels(std::move(labels), view.num_classes());
  return std::move(builder).Finish();
}

}  // namespace storage_internal

}  // namespace inferturbo
