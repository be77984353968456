#include "src/storage/shard_pipeline.h"

#include <utility>

#include "src/common/timer.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"

namespace inferturbo {

ShardPipeline::ShardPipeline(const GraphView& view,
                             ShardPipelineOptions options)
    : view_(view),
      options_(options),
      num_partitions_(view.num_partitions()) {
  // Passthrough for resident graphs (their AcquirePartition is a
  // memory gather, not I/O worth a thread), single-partition views
  // (nothing to run ahead of), and explicitly disabled pipelines.
  if (options_.slots > 0 && view_.resident_graph() == nullptr &&
      num_partitions_ > 1) {
    loader_ = std::thread([this] { LoaderLoop(); });
  }
}

ShardPipeline::~ShardPipeline() {
  if (!loader_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  loader_cv_.notify_all();
  loader_.join();
}

std::int64_t ShardPipeline::PickTargetLocked() {
  // Demanded partitions first: a consumer is blocked on each of them,
  // so they load even when the ahead window is full.
  std::int64_t best = -1;
  for (const std::int64_t p : demanded_) {
    if (slots_.count(p) != 0 || consumed_.count(p) != 0) continue;
    if (best < 0 || p < best) best = p;
  }
  if (best >= 0) return best;
  // Ahead scheduling: the cursor walks 0..P-1 once, skipping partitions
  // already scheduled or consumed, and never runs past the last
  // partition.
  while (next_ahead_ < num_partitions_ &&
         (slots_.count(next_ahead_) != 0 ||
          consumed_.count(next_ahead_) != 0)) {
    ++next_ahead_;
  }
  if (next_ahead_ < num_partitions_ &&
      static_cast<std::int64_t>(slots_.size()) <
          static_cast<std::int64_t>(options_.slots)) {
    return next_ahead_;
  }
  return -1;
}

void ShardPipeline::LoaderLoop() {
  for (;;) {
    std::int64_t target = -1;
    {
      std::unique_lock<std::mutex> lock(mu_);
      loader_cv_.wait(lock, [&] {
        if (stop_) return true;
        target = PickTargetLocked();
        return target >= 0;
      });
      if (stop_) return;
      if (demanded_.erase(target) != 0) {
        ++stats_.loads_demand;
      } else {
        ++stats_.loads_ahead;
      }
      slots_.emplace(target, Slot());
    }
    WallTimer timer;
    Result<PartitionSlice> result = [&] {
      TraceSpan span("pipeline/load", target);
      return view_.AcquirePartition(target);
    }();
    const double io_seconds = timer.ElapsedSeconds();
    {
      std::lock_guard<std::mutex> lock(mu_);
      // The slot cannot have vanished: consumers erase only ready ones.
      Slot& slot = slots_.find(target)->second;
      slot.result = std::move(result);
      slot.io_seconds = io_seconds;
      slot.ready = true;
    }
    ready_cv_.notify_all();
  }
}

Result<PartitionSlice> ShardPipeline::Acquire(std::int64_t partition) {
  if (!active() || partition < 0 || partition >= num_partitions_) {
    // Passthrough, or let the view report the range error verbatim.
    return view_.AcquirePartition(partition);
  }
  double waited = 0.0;
  double io_seconds = 0.0;
  Result<PartitionSlice> out = Status::OK();
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (consumed_.count(partition) != 0) {
      // Second acquisition of a partition is outside the one-sweep
      // contract; serve it as a plain demand load (the store's cache
      // usually still has it).
      lock.unlock();
      return view_.AcquirePartition(partition);
    }
    auto it = slots_.find(partition);
    if (it == slots_.end()) {
      demanded_.insert(partition);
      loader_cv_.notify_one();
    }
    if (it == slots_.end() || !it->second.ready) {
      TraceSpan span("pipeline/wait", partition);
      WallTimer wait_timer;
      bool lost_race = false;
      ready_cv_.wait(lock, [&] {
        // A concurrent Acquire of the same partition (speculative
        // duplicate attempts under task supervision) may consume the
        // slot while we wait; detect that and fall back rather than
        // waiting on a slot that will never reappear.
        if (consumed_.count(partition) != 0) {
          lost_race = true;
          return true;
        }
        it = slots_.find(partition);
        return it != slots_.end() && it->second.ready;
      });
      waited = wait_timer.ElapsedSeconds();
      if (lost_race) {
        stats_.wait_seconds += waited;
        lock.unlock();
        return view_.AcquirePartition(partition);
      }
    }
    out = std::move(it->second.result);
    io_seconds = it->second.io_seconds;
    slots_.erase(it);
    consumed_.insert(partition);
    ready_cv_.notify_all();  // wake duplicate waiters on this partition
    stats_.wait_seconds += waited;
    const double hidden = io_seconds - waited;
    if (hidden > 0.0) stats_.overlap_seconds += hidden;
    // The freed slot lets the loader start the next ahead load while
    // the caller computes on this one — the whole point.
    loader_cv_.notify_one();
  }
  if (MetricsEnabled()) {
    GlobalMetrics()
        .GetCounter("storage.pipeline_wait_micros")
        ->Add(static_cast<std::int64_t>(waited * 1e6));
    const double hidden = io_seconds - waited;
    if (hidden > 0.0) {
      GlobalMetrics()
          .GetCounter("storage.overlap_micros")
          ->Add(static_cast<std::int64_t>(hidden * 1e6));
    }
  }
  return out;
}

PipelineStats ShardPipeline::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

Result<Graph> MaterializeGraph(const GraphView& view,
                               const MaterializeOptions& options) {
  if (const Graph* resident = view.resident_graph()) {
    return *resident;  // already whole; copy rather than re-gather
  }
  ShardPipeline pipeline(view,
                         ShardPipelineOptions{options.pipeline_slots});
  Result<Graph> out = storage_internal::MaterializeWith(
      view,
      [&pipeline](std::int64_t p) { return pipeline.Acquire(p); });
  if (options.stats != nullptr) options.stats->Merge(pipeline.stats());
  return out;
}

}  // namespace inferturbo
