#include "src/storage/shard_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/atomic_file.h"
#include "src/common/crc32.h"
#include "src/common/timer.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"

namespace inferturbo {

MappedShard::~MappedShard() {
  if (mmap_base_ != nullptr) {
    ::munmap(mmap_base_, size_);
  }
}

struct ShardStore::State {
  ShardStoreOptions options;
  ShardMeta meta;

  mutable std::mutex mu;
  struct CacheEntry {
    ShardLease lease;
    std::uint64_t last_use = 0;
    /// Pinned entries belong to the hub hot-set: LRU eviction skips
    /// them, so they stay resident across supersteps.
    bool pinned = false;
  };
  std::unordered_map<std::int64_t, CacheEntry> cache;
  std::uint64_t tick = 0;
  /// Hot-set accounting, guarded by `mu`.
  std::uint64_t pinned_bytes = 0;
  std::int64_t pinned_partitions = 0;
  /// Counters mutated under `mu`. bytes_mapped/peak/unmap_calls live as
  /// atomics below: the lease deleter updates them without taking `mu`,
  /// so dropping a lease inside an eviction (which holds `mu`) cannot
  /// self-deadlock.
  StorageMetrics counters;

  std::atomic<std::uint64_t> bytes_mapped{0};
  std::atomic<std::uint64_t> peak_bytes_mapped{0};
  std::atomic<std::int64_t> unmap_calls{0};
};

/// Loader + validator with friend access to MappedShard internals.
struct ShardStoreInternal {
  static Status ValidateShard(MappedShard* shard, bool verify_checksums);
  static Result<std::unique_ptr<MappedShard>> BuildFromHeap(
      std::string bytes, bool verify_checksums);
  static Result<std::unique_ptr<MappedShard>> MapFromFile(
      const std::string& path, bool verify_checksums);
};

/// Validates the shard image behind `shard->base_`/`size_` and fills in
/// its header and page table. Everything a hostile file could get wrong
/// — magic, version, frame CRCs, page kinds/order, byte counts vs the
/// header's shape, alignment, bounds, payload CRCs, CSR offsets — fails
/// with a descriptive IoError.
Status ShardStoreInternal::ValidateShard(MappedShard* shard,
                                         bool verify_checksums) {
  const std::string_view view(shard->base_, shard->size_);
  INFERTURBO_RETURN_NOT_OK(DecodeShardHeader(view, &shard->header_));
  const ShardHeader& h = shard->header_;
  const std::uint64_t expected_bytes[kNumPageKinds] = {
      static_cast<std::uint64_t>(h.num_nodes) * 8,
      static_cast<std::uint64_t>(h.num_nodes + 1) * 8,
      static_cast<std::uint64_t>(h.num_edges) * 8,
      static_cast<std::uint64_t>(h.num_edges) * 8,
      static_cast<std::uint64_t>(h.num_nodes * h.feature_dim) * 4,
      static_cast<std::uint64_t>(h.num_edges * h.edge_feature_dim) * 4,
      h.has_labels ? static_cast<std::uint64_t>(h.num_nodes) * 8 : 0,
  };
  for (int i = 0; i < kNumPageKinds; ++i) {
    PageEntry& entry = shard->entries_[static_cast<std::size_t>(i)];
    INFERTURBO_RETURN_NOT_OK(DecodePageEntry(view, i, &entry));
    const std::string page(PageKindToString(entry.kind));
    if (entry.kind != static_cast<PageKind>(i + 1)) {
      return Status::IoError("page table out of order: slot " +
                             std::to_string(i) + " holds " + page);
    }
    if (entry.bytes != expected_bytes[i]) {
      return Status::IoError(
          page + " page holds " + std::to_string(entry.bytes) +
          " bytes, header shape requires " +
          std::to_string(expected_bytes[i]));
    }
    if (entry.bytes == 0) continue;
    if (entry.offset % kPageAlignment != 0 ||
        entry.offset < ShardPayloadStart()) {
      return Status::IoError(page + " page is misaligned");
    }
    if (entry.offset > shard->size_ ||
        entry.bytes > shard->size_ - entry.offset) {
      return Status::IoError("shard file truncated: " + page +
                             " page extends past end of file");
    }
    if (verify_checksums &&
        Crc32(shard->base_ + entry.offset, entry.bytes) !=
            entry.payload_crc) {
      return Status::IoError(page + " page checksum mismatch");
    }
  }
  // Cheap structural sanity on the CSR so downstream slicing can index
  // without re-checking.
  const std::span<const std::int64_t> offsets = shard->out_offsets();
  if (offsets.front() != 0 || offsets.back() != h.num_edges) {
    return Status::IoError("CSR offsets do not cover the edge pages");
  }
  for (std::size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] < offsets[i - 1]) {
      return Status::IoError("CSR offsets are not non-decreasing");
    }
  }
  return Status::OK();
}

/// Heap-backed shard: used whenever a fault injector is configured so
/// every IoFaultKind applies to shard reads.
Result<std::unique_ptr<MappedShard>> ShardStoreInternal::BuildFromHeap(
    std::string bytes, bool verify_checksums) {
  std::unique_ptr<MappedShard> shard(new MappedShard());
  shard->heap_ = std::move(bytes);
  shard->base_ = shard->heap_.data();
  shard->size_ = shard->heap_.size();
  INFERTURBO_RETURN_NOT_OK(ValidateShard(shard.get(), verify_checksums));
  return shard;
}

/// mmap-backed shard (PROT_READ, MAP_PRIVATE): the kernel pages data in
/// on demand and can drop clean pages under pressure.
Result<std::unique_ptr<MappedShard>> ShardStoreInternal::MapFromFile(
    const std::string& path, bool verify_checksums) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("cannot open shard file " + path);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
    ::close(fd);
    return Status::IoError("cannot stat shard file " + path);
  }
  const std::size_t size = static_cast<std::size_t>(st.st_size);
  void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (base == MAP_FAILED) {
    return Status::IoError("mmap failed for shard file " + path);
  }
  std::unique_ptr<MappedShard> shard(new MappedShard());
  shard->mmap_base_ = base;
  shard->base_ = static_cast<const char*>(base);
  shard->size_ = size;
  // ~MappedShard munmaps on the validation-failure path.
  INFERTURBO_RETURN_NOT_OK(ValidateShard(shard.get(), verify_checksums));
  return shard;
}

namespace {

using State = ShardStore::State;

bool IsChecksumError(const Status& status) {
  return status.message().find("checksum mismatch") != std::string::npos;
}

/// Cross-checks a loaded shard against the meta's expectations for that
/// partition, so a renamed or stale shard file cannot masquerade as the
/// requested one.
Status CheckAgainstMeta(const MappedShard& shard, const ShardMeta& meta,
                        std::int64_t partition) {
  const ShardHeader& h = shard.header();
  const ShardPartitionInfo& info =
      meta.partitions[static_cast<std::size_t>(partition)];
  if (h.partition != partition || h.num_nodes != info.num_nodes ||
      h.num_edges != info.num_edges || h.feature_dim != meta.feature_dim ||
      h.edge_feature_dim != meta.edge_feature_dim ||
      h.has_labels != meta.has_labels) {
    return Status::IoError("shard header disagrees with meta for partition " +
                           std::to_string(partition));
  }
  return Status::OK();
}

/// Exact on-disk size of partition p, computable from the meta alone —
/// what evict-before-load uses to make room before the bytes arrive.
std::uint64_t ExpectedShardBytes(const ShardMeta& meta,
                                 std::int64_t partition) {
  const ShardPartitionInfo& info =
      meta.partitions[static_cast<std::size_t>(partition)];
  const std::uint64_t n = static_cast<std::uint64_t>(info.num_nodes);
  const std::uint64_t m = static_cast<std::uint64_t>(info.num_edges);
  const std::uint64_t sizes[kNumPageKinds] = {
      n * 8,
      (n + 1) * 8,
      m * 8,
      m * 8,
      n * static_cast<std::uint64_t>(meta.feature_dim) * 4,
      m * static_cast<std::uint64_t>(meta.edge_feature_dim) * 4,
      meta.has_labels ? n * 8 : 0,
  };
  std::uint64_t cursor = ShardPayloadStart();
  for (const std::uint64_t size : sizes) {
    if (size == 0) continue;
    cursor = (cursor + kPageAlignment - 1) / kPageAlignment * kPageAlignment;
    cursor += size;
  }
  return cursor;
}

/// Drops least-recently-used *unpinned* cache entries until `incoming`
/// more bytes fit under the budget (or only the pinned hot-set
/// remains). Entries held by outstanding leases free their bytes only
/// when those leases drop; the loop still terminates because each pass
/// shrinks the evictable set.
void EvictForLocked(State& s, std::uint64_t incoming) {
  if (s.options.memory_budget_bytes == 0) return;
  if (s.cache.empty() ||
      s.bytes_mapped.load(std::memory_order_relaxed) + incoming <=
          s.options.memory_budget_bytes) {
    return;
  }
  TraceSpan span("storage/evict");
  while (s.bytes_mapped.load(std::memory_order_relaxed) + incoming >
         s.options.memory_budget_bytes) {
    auto lru = s.cache.end();
    for (auto it = s.cache.begin(); it != s.cache.end(); ++it) {
      if (it->second.pinned) continue;
      if (lru == s.cache.end() ||
          it->second.last_use < lru->second.last_use) {
        lru = it;
      }
    }
    if (lru == s.cache.end()) return;  // nothing evictable left
    RecordFlightEvent(FlightEventKind::kEviction, "storage/evict",
                      lru->first);
    // Erasing drops the cache's reference; when it is the last one the
    // deleter returns the bytes immediately (atomics only — no `mu`).
    s.cache.erase(lru);
    ++s.counters.evictions;
    if (MetricsEnabled()) {
      GlobalMetrics().GetCounter("storage.evictions")->Increment();
    }
  }
}

/// Out-edges carried by hub nodes (out-degree > `hub_threshold`) of one
/// shard, computed from a transient read of just the header, page
/// table, and CSR offsets page — a few KB against multi-MB shards, and
/// never charged to the memory budget. The page-table frame CRC is
/// checked (DecodePageEntry); the offsets payload CRC is not — full
/// validation happens when the shard is actually pinned via Map().
Result<std::int64_t> HubEdgesForPartition(const std::string& path,
                                          std::int64_t hub_threshold) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("cannot open shard file " + path);
  }
  const auto pread_exact = [fd, &path](char* dst, std::size_t len,
                                       std::size_t off) {
    std::size_t got = 0;
    while (got < len) {
      const ssize_t n = ::pread(fd, dst + got, len - got,
                                static_cast<off_t>(off + got));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        return Status::IoError("short read of shard prefix in " + path);
      }
      got += static_cast<std::size_t>(n);
    }
    return Status::OK();
  };
  std::string prefix(ShardPayloadStart(), '\0');
  Status status = pread_exact(prefix.data(), prefix.size(), 0);
  PageEntry offsets_entry;
  if (status.ok()) {
    // Slot 1 of the page table is kOutOffsets (the local CSR).
    status = DecodePageEntry(prefix, 1, &offsets_entry);
  }
  std::vector<std::int64_t> offsets;
  if (status.ok()) {
    offsets.resize(offsets_entry.bytes / sizeof(std::int64_t));
    status = pread_exact(reinterpret_cast<char*>(offsets.data()),
                         offsets_entry.bytes, offsets_entry.offset);
  }
  ::close(fd);
  INFERTURBO_RETURN_NOT_OK(status);
  std::int64_t hub_edges = 0;
  for (std::size_t i = 1; i < offsets.size(); ++i) {
    const std::int64_t degree = offsets[i] - offsets[i - 1];
    if (degree > hub_threshold) hub_edges += degree;
  }
  return hub_edges;
}

/// Records one completed mmap load (map + validate) into the per-read
/// latency instruments the run report's `read_latency.mmap` section
/// reads: histogram "storage.read.mmap.seconds" plus counters ".bytes"
/// and ".reads".
void ObserveShardRead(double seconds, std::int64_t bytes) {
  static Histogram* const latency =
      GlobalMetrics().GetHistogram("storage.read.mmap.seconds");
  static Counter* const read_bytes =
      GlobalMetrics().GetCounter("storage.read.mmap.bytes");
  static Counter* const reads =
      GlobalMetrics().GetCounter("storage.read.mmap.reads");
  latency->Observe(seconds);
  read_bytes->Add(bytes);
  reads->Increment();
}

/// The normal (no fault injector) load: mmap the file and validate it.
/// Time only when metrics are on, so the zero-perturbation contract
/// holds: the disabled cost is one relaxed load + branch per load.
Result<std::unique_ptr<MappedShard>> LoadFromDisk(const State& s,
                                                  const std::string& path) {
  const bool timed = MetricsEnabled();
  WallTimer timer;
  Result<std::unique_ptr<MappedShard>> mapped =
      ShardStoreInternal::MapFromFile(path, s.options.verify_checksums);
  if (timed && mapped.ok()) {
    ObserveShardRead(timer.ElapsedSeconds(),
                     static_cast<std::int64_t>((*mapped)->mapped_bytes()));
  }
  return mapped;
}

/// Loads + validates one shard. No budget accounting happens here —
/// bytes are charged at publication (PublishLocked), so a duplicate
/// load that loses the insert race is freed without ever counting
/// against the budget or distorting the peak.
Result<std::unique_ptr<MappedShard>> LoadShard(
    const std::shared_ptr<State>& s, std::int64_t partition) {
  TraceSpan span("storage/load", partition);
  const std::string path =
      s->options.directory + "/" + ShardFileName(partition);
  std::unique_ptr<MappedShard> shard;
  const auto note_checksum_failure = [&s](const Status& status) {
    if (IsChecksumError(status)) {
      std::lock_guard<std::mutex> lock(s->mu);
      ++s->counters.checksum_failures;
    }
  };
  if (s->options.fault_injector != nullptr) {
    // Read through the injector so faults apply; corruption is only
    // detectable after validation, so the retry wraps read + validate.
    const Status status = RetryWithBackoff(s->options.retry, [&]() {
      Result<std::string> bytes =
          ReadFileToString(path, s->options.fault_injector);
      INFERTURBO_RETURN_NOT_OK(bytes.status());
      Result<std::unique_ptr<MappedShard>> built =
          ShardStoreInternal::BuildFromHeap(std::move(*bytes),
                                            s->options.verify_checksums);
      if (!built.ok()) {
        note_checksum_failure(built.status());
        return built.status();
      }
      shard = std::move(*built);
      return Status::OK();
    });
    if (!status.ok()) {
      return Status::IoError(path + ": " + status.message());
    }
  } else {
    Result<std::unique_ptr<MappedShard>> built = LoadFromDisk(*s, path);
    if (!built.ok()) {
      note_checksum_failure(built.status());
      return Status::IoError(path + ": " + built.status().message());
    }
    shard = std::move(*built);
  }
  {
    const Status status = CheckAgainstMeta(*shard, s->meta, partition);
    if (!status.ok()) {
      return Status::IoError(path + ": " + status.message());
    }
  }
  {
    std::lock_guard<std::mutex> lock(s->mu);
    ++s->counters.map_calls;
  }
  return shard;
}

/// Publishes a loaded shard under `mu`: evicts LRU entries to make room
/// for its ACTUAL size, charges its bytes, and inserts it into the
/// cache. The returned lease's deleter refunds the bytes when the last
/// holder drops it — the store is referenced weakly so a lease
/// outliving the store stays valid.
ShardLease PublishLocked(const std::shared_ptr<State>& s,
                         std::int64_t partition,
                         std::unique_ptr<MappedShard> shard) {
  const std::size_t size = shard->mapped_bytes();
  EvictForLocked(*s, size);
  s->bytes_mapped.fetch_add(size, std::memory_order_relaxed);
  std::uint64_t now = s->bytes_mapped.load(std::memory_order_relaxed);
  std::uint64_t peak = s->peak_bytes_mapped.load(std::memory_order_relaxed);
  while (now > peak && !s->peak_bytes_mapped.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
  if (MetricsEnabled()) {
    GlobalMetrics().GetGauge("storage.bytes_mapped")->Set(
        static_cast<std::int64_t>(now));
  }
  std::weak_ptr<State> weak = s;
  ShardLease lease(shard.release(), [weak](const MappedShard* p) {
    const std::size_t bytes = p->mapped_bytes();
    delete p;
    if (const std::shared_ptr<State> st = weak.lock()) {
      const std::uint64_t now_mapped =
          st->bytes_mapped.fetch_sub(bytes, std::memory_order_relaxed) -
          bytes;
      st->unmap_calls.fetch_add(1, std::memory_order_relaxed);
      if (MetricsEnabled()) {
        GlobalMetrics().GetGauge("storage.bytes_mapped")->Set(
            static_cast<std::int64_t>(now_mapped));
      }
    }
  });
  State::CacheEntry entry;
  entry.lease = lease;
  entry.last_use = ++s->tick;
  s->cache[partition] = std::move(entry);
  return lease;
}

}  // namespace

Result<ShardStore> ShardStore::Open(ShardStoreOptions options) {
  if (options.directory.empty()) {
    return Status::InvalidArgument("shard directory must be set");
  }
  if (options.memory_budget_bytes != 0 &&
      options.pinned_budget_bytes > options.memory_budget_bytes) {
    return Status::InvalidArgument(
        "pinned_budget_bytes (" +
        std::to_string(options.pinned_budget_bytes) +
        ") exceeds memory_budget_bytes (" +
        std::to_string(options.memory_budget_bytes) + ")");
  }
  const std::string meta_path =
      options.directory + "/" + ShardMetaFileName();
  ShardMeta meta;
  // The meta is the pack's commit point; validate-and-retry like every
  // other injector-visible read.
  const Status status = RetryWithBackoff(options.retry, [&]() {
    Result<std::string> bytes =
        ReadFileToString(meta_path, options.fault_injector);
    INFERTURBO_RETURN_NOT_OK(bytes.status());
    return DecodeShardMeta(*bytes, &meta);
  });
  if (!status.ok()) {
    return Status::IoError(meta_path + ": " + status.message());
  }
  auto state = std::make_shared<State>();
  state->options = std::move(options);
  state->meta = std::move(meta);
  return ShardStore(std::move(state));
}

const ShardMeta& ShardStore::meta() const { return state_->meta; }

const ShardStoreOptions& ShardStore::options() const {
  return state_->options;
}

Result<ShardLease> ShardStore::Map(std::int64_t partition) {
  State& s = *state_;
  if (partition < 0 || partition >= s.meta.num_partitions()) {
    return Status::InvalidArgument(
        "partition " + std::to_string(partition) + " out of range [0, " +
        std::to_string(s.meta.num_partitions()) + ")");
  }
  TraceSpan span("storage/map", partition);
  {
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.cache.find(partition);
    if (it != s.cache.end()) {
      ++s.counters.cache_hits;
      if (it->second.pinned) ++s.counters.pinned_hits;
      it->second.last_use = ++s.tick;
      return it->second.lease;
    }
    ++s.counters.cache_misses;
    // Make room before the bytes arrive so the budget holds at peak.
    EvictForLocked(s, ExpectedShardBytes(s.meta, partition));
  }
  INFERTURBO_ASSIGN_OR_RETURN(std::unique_ptr<MappedShard> shard,
                              LoadShard(state_, partition));
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.cache.find(partition);
  if (it != s.cache.end()) {
    // A concurrent Map beat us; keep the incumbent and drop our
    // never-charged duplicate — never block on an in-flight load.
    it->second.last_use = ++s.tick;
    return it->second.lease;
  }
  return PublishLocked(state_, partition, std::move(shard));
}

Result<std::int64_t> ShardStore::PinHotSet(std::int64_t hub_threshold) {
  State& s = *state_;
  if (s.options.pinned_budget_bytes == 0) return std::int64_t{0};
  TraceSpan span("storage/pin_hot_set");
  struct HubRank {
    std::int64_t partition = 0;
    std::uint64_t bytes = 0;
    std::int64_t hub_edges = 0;
    std::int64_t num_edges = 0;
  };
  std::vector<HubRank> ranks;
  ranks.reserve(static_cast<std::size_t>(s.meta.num_partitions()));
  for (std::int64_t p = 0; p < s.meta.num_partitions(); ++p) {
    HubRank rank;
    rank.partition = p;
    rank.bytes = ExpectedShardBytes(s.meta, p);
    rank.num_edges =
        s.meta.partitions[static_cast<std::size_t>(p)].num_edges;
    INFERTURBO_ASSIGN_OR_RETURN(
        rank.hub_edges,
        HubEdgesForPartition(
            s.options.directory + "/" + ShardFileName(p), hub_threshold));
    ranks.push_back(rank);
  }
  // Heaviest hub shards first; edge count then partition id break ties
  // so the pinned set is deterministic.
  std::sort(ranks.begin(), ranks.end(),
            [](const HubRank& a, const HubRank& b) {
              if (a.hub_edges != b.hub_edges) return a.hub_edges > b.hub_edges;
              if (a.num_edges != b.num_edges) return a.num_edges > b.num_edges;
              return a.partition < b.partition;
            });
  std::int64_t pinned = 0;
  std::uint64_t spent = 0;
  for (const HubRank& rank : ranks) {
    if (spent + rank.bytes > s.options.pinned_budget_bytes) continue;
    // Pin through the normal demand path so the shard is validated and
    // budget-accounted like any other resident shard.
    INFERTURBO_ASSIGN_OR_RETURN(ShardLease lease, Map(rank.partition));
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.cache.find(rank.partition);
    if (it == s.cache.end()) continue;  // raced with an eviction; skip
    if (!it->second.pinned) {
      it->second.pinned = true;
      s.pinned_bytes += it->second.lease->mapped_bytes();
      ++s.pinned_partitions;
    }
    spent += rank.bytes;
    ++pinned;
  }
  if (MetricsEnabled()) {
    std::lock_guard<std::mutex> lock(s.mu);
    GlobalMetrics().GetGauge("storage.pinned_bytes")->Set(
        static_cast<std::int64_t>(s.pinned_bytes));
  }
  return pinned;
}

StorageMetrics ShardStore::metrics() const {
  State& s = *state_;
  StorageMetrics out;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    out = s.counters;
    out.pinned_bytes = s.pinned_bytes;
    out.pinned_partitions = s.pinned_partitions;
  }
  out.bytes_mapped = s.bytes_mapped.load(std::memory_order_relaxed);
  out.peak_bytes_mapped =
      s.peak_bytes_mapped.load(std::memory_order_relaxed);
  out.unmap_calls = s.unmap_calls.load(std::memory_order_relaxed);
  return out;
}

}  // namespace inferturbo
