#ifndef INFERTURBO_INFERENCE_INFERTURBO_MAPREDUCE_H_
#define INFERTURBO_INFERENCE_INFERTURBO_MAPREDUCE_H_

#include "src/common/result.h"
#include "src/graph/graph.h"
#include "src/inference/inferturbo_pregel.h"
#include "src/inference/result.h"
#include "src/nn/model.h"

namespace inferturbo {

class GraphView;

/// Full-graph layer-wise GNN inference on the MapReduce backend (paper
/// §IV-C2). Unlike the Pregel backend nothing stays resident between
/// rounds: the Map stage turns the node table into self-state,
/// in-message, and out-edge records; each Reduce round performs one GNN
/// layer for its keys and re-emits everything the next round needs
/// (including each node's state and out-edge list, shipped to itself).
/// The prediction slice is merged into the last Reduce. More shuffle
/// volume than Pregel, far lower resident memory — the paper's
/// cost/efficiency trade-off between the two backends.
Result<InferenceResult> RunInferTurboMapReduce(
    const Graph& graph, const GnnModel& model,
    const InferTurboOptions& options);

/// Same pipeline over a GraphView: map instance p streams partition p
/// of the view through a ShardPipeline, whose loader thread fills the
/// next partitions while mappers compute. An out-of-core shard-backed
/// view keeps at most memory_budget_bytes + (pool threads + pipeline
/// slots) × largest shard mapped: the store's LRU honours the budget,
/// but each running map task and each in-flight pipeline slot leases
/// one shard the LRU cannot drop (see ShardStoreOptions). Logits are
/// bit-identical to the in-memory overload because the view presents
/// partitions in the same HashPartitioner member order with the same
/// raw feature bytes. Requires options.num_workers ==
/// view.num_partitions() (the partitioning IS the worker assignment);
/// anything else is an InvalidArgument. The shadow_nodes strategy
/// rewrites the whole graph, so that path materializes the view first.
/// result.metrics.storage carries the view's storage counters.
Result<InferenceResult> RunInferTurboMapReduce(
    const GraphView& view, const GnnModel& model,
    const InferTurboOptions& options);

}  // namespace inferturbo

#endif  // INFERTURBO_INFERENCE_INFERTURBO_MAPREDUCE_H_
