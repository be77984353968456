// Kernel microbenchmarks and regression harness: times every fast
// kernel against its scalar reference and writes BENCH_kernels.json —
// one record per (op, shape, threads) with GFLOP/s, ns/elem, and the
// measured speedup. Self-contained timing (no external benchmark
// framework) so it builds everywhere the library does.
//
// Usage:
//   bench_kernels                      full sweep, writes BENCH_kernels.json
//   bench_kernels --quick              CI smoke: smaller shapes, shorter timing
//   bench_kernels --out=PATH           write the JSON elsewhere
//   bench_kernels --threads=LIST       comma-separated thread sweep
//                                      (default "1,2,8" — fixed so baselines
//                                      compare like against like)
//   bench_kernels --scaling-gate       exit 1 if any op's best multi-thread
//                                      time is worse than its 1-thread time
//                                      by more than --scaling-tolerance
//   bench_kernels --fast_math=false    skip the opt-in fast-math rows
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/flags.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/common/timer.h"
#include "src/telemetry/perf_counters.h"
#include "src/tensor/kernels/kernel_config.h"
#include "src/tensor/kernels/kernel_stats.h"
#include "src/tensor/kernels/kernels.h"
#include "src/tensor/kernels/reference.h"

namespace inferturbo {
namespace {

// Keeps results observable so the optimizer cannot delete a timed call.
volatile float g_sink = 0.0f;
void Sink(const Tensor& t) {
  if (t.size() > 0) g_sink = g_sink + t.data()[0];
}

struct BenchRecord {
  std::string op;
  std::string shape;
  int threads = 1;
  double seconds_per_iter = 0.0;
  double gflops = 0.0;       // 0 for pure-bandwidth ops
  double ns_per_elem = 0.0;  // per "element" as defined by the op below
  double speedup_vs_reference = 0.0;
  // Roofline coordinates: analytic per-iteration traffic, and hardware
  // counters per iteration (0 when perf_event_open is unavailable).
  double bytes_per_flop = 0.0;  // 0 for pure-bandwidth (flops == 0) ops
  double gb_per_s = 0.0;
  double cycles_per_iter = 0.0;
  double instructions_per_iter = 0.0;
  double llc_misses_per_iter = 0.0;
};

struct TimingOptions {
  double min_seconds = 0.3;
  std::int64_t max_iters = 200;
};

// Times `fn` by whole iterations until the budget is spent. Returns
// seconds per iteration (and the iteration count via `iters_out`). One
// untimed warmup iteration absorbs cold caches and lazy ISA dispatch.
template <typename Fn>
double TimeIt(const TimingOptions& options, Fn&& fn,
              std::int64_t* iters_out = nullptr) {
  fn();
  WallTimer timer;
  std::int64_t iters = 0;
  double elapsed = 0.0;
  while (elapsed < options.min_seconds && iters < options.max_iters) {
    fn();
    ++iters;
    elapsed = timer.ElapsedSeconds();
  }
  if (iters_out != nullptr) *iters_out = iters;
  return elapsed / static_cast<double>(iters);
}

void SetThreads(int max_threads) {
  kernels::KernelConfig config = kernels::GetKernelConfig();
  config.max_threads = max_threads;
  // The sweep decides when to parallelize; don't let the work
  // threshold silently serialize the "parallel" rows.
  config.min_parallel_work = max_threads > 1 ? 1 : (std::int64_t{1} << 62);
  kernels::SetKernelConfig(config);
}

void SetFastMath(bool on, bool bf16) {
  kernels::KernelConfig config = kernels::GetKernelConfig();
  config.fast_math = on;
  config.fast_math_bf16 = bf16;
  kernels::SetKernelConfig(config);
}

struct Harness {
  TimingOptions timing;
  // Fixed sweep (default {1, 2, 8}) so baseline rows always compare
  // like against like regardless of the machine's core count. The
  // scaling gate compares across these rows per (op, shape).
  std::vector<int> thread_set = {1, 2, 8};
  std::vector<BenchRecord> records;

  // Benches one op across the thread sweep against a serial reference
  // run. `work` describes ONE iteration (flops feed gflops, bytes feed
  // the roofline columns); `elems` feeds ns_per_elem.
  template <typename RefFn, typename FastFn>
  void Bench(const std::string& op, const std::string& shape,
             kernels::KernelWork work, double elems, RefFn&& ref,
             FastFn&& fast) {
    SetThreads(1);
    const double ref_seconds = TimeIt(timing, ref);
    BenchTimed(op, shape, work, elems, ref_seconds, fast);
  }

  // As Bench, but reuses an already-measured reference time (for
  // op variants sharing one oracle, e.g. the fast-math tiers).
  template <typename FastFn>
  void BenchTimed(const std::string& op, const std::string& shape,
                  kernels::KernelWork work, double elems, double ref_seconds,
                  FastFn&& fast) {
    const double flops = static_cast<double>(work.flops);
    const double bytes = static_cast<double>(work.bytes);
    for (const int threads : thread_set) {
      SetThreads(threads);
      PerfCounterValues counters;
      std::int64_t iters = 0;
      double seconds = 0.0;
      {
        // Accumulate-form scope: counters bypass the registry and
        // bracket the whole timing loop (including the one warmup
        // iteration — hence iters + 1 below).
        PerfCounterScope profile("bench", &counters);
        seconds = TimeIt(timing, fast, &iters);
      }
      BenchRecord record;
      record.op = op;
      record.shape = shape;
      record.threads = threads;
      record.seconds_per_iter = seconds;
      record.gflops = flops > 0 ? flops / seconds * 1e-9 : 0.0;
      record.ns_per_elem = elems > 0 ? seconds * 1e9 / elems : 0.0;
      record.speedup_vs_reference = ref_seconds / seconds;
      record.bytes_per_flop = work.BytesPerFlop();
      record.gb_per_s = bytes > 0 ? bytes / seconds * 1e-9 : 0.0;
      if (counters.valid && iters > 0) {
        const double per_iter = 1.0 / static_cast<double>(iters + 1);
        record.cycles_per_iter =
            static_cast<double>(counters.cycles) * per_iter;
        record.instructions_per_iter =
            static_cast<double>(counters.instructions) * per_iter;
        record.llc_misses_per_iter =
            static_cast<double>(counters.llc_misses) * per_iter;
      }
      records.push_back(record);
      std::printf("%-16s %-14s threads=%d  %10.3f ms/iter  %7.2f GFLOP/s"
                  "  %8.3f ns/elem  %5.2fx vs reference",
                  op.c_str(), shape.c_str(), threads, seconds * 1e3,
                  record.gflops, record.ns_per_elem,
                  record.speedup_vs_reference);
      if (counters.valid) {
        std::printf("  %.0fM cycles/iter (ipc %.2f)",
                    record.cycles_per_iter * 1e-6,
                    record.cycles_per_iter > 0
                        ? record.instructions_per_iter /
                              record.cycles_per_iter
                        : 0.0);
      }
      std::printf("\n");
    }
    SetThreads(1);
  }
};

std::string MatMulShapeLabel(std::int64_t m, std::int64_t k, std::int64_t n) {
  std::ostringstream out;
  out << m << "x" << k << "x" << n;
  return out.str();
}

// Validates one fast-math result against the scalar oracle within the
// documented envelope |fast - oracle| <= tol * (|A|·|B|)[i,j] + tiny.
// Dies loudly on violation: a silently-wrong fast row would poison the
// baseline.
void CheckFastMath(const Tensor& fast, const Tensor& oracle,
                   const Tensor& envelope, float tol, const char* op) {
  constexpr float kTiny = 1e-6f;
  for (std::int64_t i = 0; i < fast.rows(); ++i) {
    for (std::int64_t j = 0; j < fast.cols(); ++j) {
      const float bound = tol * envelope.At(i, j) + kTiny;
      const float err = std::fabs(fast.At(i, j) - oracle.At(i, j));
      if (!(err <= bound)) {
        std::fprintf(stderr,
                     "bench_kernels: %s out of tolerance at (%lld,%lld): "
                     "|%g - %g| = %g > %g\n",
                     op, static_cast<long long>(i), static_cast<long long>(j),
                     fast.At(i, j), oracle.At(i, j), err, bound);
        std::exit(3);
      }
    }
  }
}

Tensor AbsTensor(const Tensor& t) {
  Tensor out(t.rows(), t.cols());
  for (std::int64_t i = 0; i < t.size(); ++i) {
    out.data()[i] = std::fabs(t.data()[i]);
  }
  return out;
}

void BenchMatMuls(Harness* harness, bool quick, bool fast_math) {
  std::vector<std::int64_t> sizes = quick
                                        ? std::vector<std::int64_t>{128}
                                        : std::vector<std::int64_t>{128, 256,
                                                                    512};
  Rng rng(11);
  for (const std::int64_t n : sizes) {
    const Tensor a = Tensor::RandomNormal(n, n, 1.0f, &rng);
    const Tensor b = Tensor::RandomNormal(n, n, 1.0f, &rng);
    const kernels::KernelWork work = kernels::MatMulWork(n, n, n);
    const double elems = static_cast<double>(n) * n;  // output elements
    const std::string shape = MatMulShapeLabel(n, n, n);
    SetThreads(1);
    const double ref_seconds =
        TimeIt(harness->timing, [&] { Sink(kernels::reference::MatMul(a, b)); });
    harness->BenchTimed("matmul", shape, work, elems, ref_seconds,
                        [&] { Sink(kernels::MatMul(a, b)); });
    SetFastMath(true, /*bf16=*/false);
    const bool fast_available = kernels::UsingFastMath();
    SetFastMath(false, false);
    if (fast_math && fast_available) {
      // Validate each tier once against the oracle at the documented
      // tolerance before timing it.
      const Tensor oracle = kernels::reference::MatMul(a, b);
      const Tensor envelope =
          kernels::reference::MatMul(AbsTensor(a), AbsTensor(b));
      SetFastMath(true, /*bf16=*/false);
      CheckFastMath(kernels::MatMul(a, b), oracle, envelope,
                    kernels::kFastMathRelTol, "matmul_fast");
      harness->BenchTimed("matmul_fast", shape, work, elems, ref_seconds,
                          [&] { Sink(kernels::MatMul(a, b)); });
      SetFastMath(true, /*bf16=*/true);
      CheckFastMath(kernels::MatMul(a, b), oracle, envelope,
                    kernels::kFastMathBf16RelTol, "matmul_fast_bf16");
      harness->BenchTimed("matmul_fast_bf16", shape, work, elems,
                          ref_seconds, [&] { Sink(kernels::MatMul(a, b)); });
      SetFastMath(false, false);
    }
    harness->Bench(
        "matmul_tb", shape, work, elems,
        [&] { Sink(kernels::reference::MatMulTransposedB(a, b)); },
        [&] { Sink(kernels::MatMulTransposedB(a, b)); });
    harness->Bench(
        "matmul_ta", shape, work, elems,
        [&] { Sink(kernels::reference::MatMulTransposedA(a, b)); },
        [&] { Sink(kernels::MatMulTransposedA(a, b)); });
  }
}

void BenchSegmentOps(Harness* harness, bool quick) {
  const std::int64_t rows = quick ? 16384 : 131072;
  const std::int64_t cols = 64;
  const std::int64_t segments = quick ? 512 : 4096;
  Rng rng(12);
  const Tensor values = Tensor::RandomNormal(rows, cols, 1.0f, &rng);
  std::vector<std::int64_t> ids(static_cast<std::size_t>(rows));
  for (auto& id : ids) {
    id = static_cast<std::int64_t>(
        rng.NextBounded(static_cast<std::uint64_t>(segments)));
  }
  std::ostringstream label;
  label << rows << "x" << cols << "s" << segments;
  const std::string shape = label.str();
  const double elems = static_cast<double>(rows) * cols;  // folded floats
  harness->Bench(
      "segment_sum", shape, kernels::SegmentFoldWork(rows, cols), elems,
      [&] { Sink(kernels::reference::SegmentSum(values, ids, segments)); },
      [&] { Sink(kernels::SegmentSum(values, ids, segments)); });
  harness->Bench(
      "segment_mean", shape,
      kernels::SegmentMeanWork(rows, cols, segments), elems,
      [&] { Sink(kernels::reference::SegmentMean(values, ids, segments)); },
      [&] { Sink(kernels::SegmentMean(values, ids, segments)); });
}

void BenchRowOps(Harness* harness, bool quick) {
  const std::int64_t source_rows = quick ? 16384 : 131072;
  const std::int64_t cols = 64;
  Rng rng(13);
  const Tensor source = Tensor::RandomNormal(source_rows, cols, 1.0f, &rng);
  std::vector<std::int64_t> indices(static_cast<std::size_t>(source_rows));
  for (auto& idx : indices) {
    idx = static_cast<std::int64_t>(
        rng.NextBounded(static_cast<std::uint64_t>(source_rows)));
  }
  std::ostringstream label;
  label << source_rows << "x" << cols;
  const std::string shape = label.str();
  const double elems = static_cast<double>(source_rows) * cols;
  harness->Bench(
      "gather_rows", shape, kernels::GatherWork(source_rows, cols), elems,
      [&] { Sink(kernels::reference::GatherRows(source, indices)); },
      [&] { Sink(kernels::GatherRows(source, indices)); });
  // Scatter reuses the gather indices; the accumulator is rebuilt per
  // iteration so every run adds into identical memory.
  harness->Bench(
      "scatter_add", shape, kernels::ScatterAddWork(source_rows, cols), elems,
      [&] {
        Tensor acc(source_rows, cols);
        kernels::reference::ScatterAddRows(&acc, indices, source);
        Sink(acc);
      },
      [&] {
        Tensor acc(source_rows, cols);
        kernels::ScatterAddRows(&acc, indices, source);
        Sink(acc);
      });
}

std::string ThreadSetLabel(const std::vector<int>& threads) {
  std::ostringstream out;
  for (std::size_t i = 0; i < threads.size(); ++i) {
    out << (i ? "," : "") << threads[i];
  }
  return out.str();
}

void WriteJson(const std::string& path, const std::vector<BenchRecord>& records,
               bool quick, const std::vector<int>& thread_set) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "bench_kernels: cannot write %s\n", path.c_str());
    std::exit(2);
  }
  out << "{\n";
  out << "  \"bench\": \"bench_kernels\",\n";
  out << "  \"mode\": \"" << (quick ? "quick" : "full") << "\",\n";
  out << "  \"avx2\": " << (kernels::UsingAvx2() ? "true" : "false") << ",\n";
  out << "  \"thread_set\": \"" << ThreadSetLabel(thread_set) << "\",\n";
  out << "  \"hardware_concurrency\": "
      << std::thread::hardware_concurrency() << ",\n";
  // Explicit marker: rows carry real hardware counts, or they are all
  // zero because perf_event_open is unavailable on this host.
  out << "  \"perf_counters\": \""
      << (PerfCountersSupported() ? "available" : "unavailable") << "\",\n";
  if (!PerfCountersSupported()) {
    out << "  \"perf_fallback_reason\": \""
        << PerfCountersUnavailableReason() << "\",\n";
  }
  out << "  \"results\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    char line[768];
    std::snprintf(line, sizeof(line),
                  "    {\"op\": \"%s\", \"shape\": \"%s\", \"threads\": %d, "
                  "\"seconds_per_iter\": %.6e, \"gflops\": %.4f, "
                  "\"ns_per_elem\": %.4f, \"speedup_vs_reference\": %.3f, "
                  "\"bytes_per_flop\": %.4f, \"gb_per_s\": %.3f, "
                  "\"cycles_per_iter\": %.0f, "
                  "\"instructions_per_iter\": %.0f, "
                  "\"llc_misses_per_iter\": %.0f}%s",
                  r.op.c_str(), r.shape.c_str(), r.threads,
                  r.seconds_per_iter, r.gflops, r.ns_per_elem,
                  r.speedup_vs_reference, r.bytes_per_flop, r.gb_per_s,
                  r.cycles_per_iter, r.instructions_per_iter,
                  r.llc_misses_per_iter,
                  i + 1 < records.size() ? "," : "");
    out << line << "\n";
  }
  out << "  ]\n}\n";
  std::printf("\nwrote %zu records to %s\n", records.size(), path.c_str());
}

// The multithreading-is-a-win gate: for every (op, shape) with both a
// 1-thread row and multi-thread rows, the BEST multi-thread time must
// not be worse than the 1-thread time by more than `tolerance`. On a
// single-core host the executor caps fan-out at the core count, so
// multi-thread rows degrade to ~parity and the gate still holds; on a
// real multi-core runner this enforces actual scaling.
int CheckScaling(const std::vector<BenchRecord>& records, double tolerance) {
  int violations = 0, groups = 0;
  for (const BenchRecord& r : records) {
    if (r.threads != 1) continue;
    double best_multi = 0.0;
    int best_threads = 0;
    for (const BenchRecord& m : records) {
      if (m.op != r.op || m.shape != r.shape || m.threads == 1) continue;
      if (best_threads == 0 || m.seconds_per_iter < best_multi) {
        best_multi = m.seconds_per_iter;
        best_threads = m.threads;
      }
    }
    if (best_threads == 0) continue;
    ++groups;
    if (best_multi > r.seconds_per_iter * (1.0 + tolerance)) {
      ++violations;
      std::printf("SCALING VIOLATION %s %s: best multi-thread %.3f ms/iter "
                  "(threads=%d) vs 1-thread %.3f ms/iter (tolerance %.0f%%)\n",
                  r.op.c_str(), r.shape.c_str(), best_multi * 1e3,
                  best_threads, r.seconds_per_iter * 1e3, tolerance * 100.0);
    } else {
      std::printf("scaling ok %s %s: %.2fx at best multi-thread\n",
                  r.op.c_str(), r.shape.c_str(),
                  r.seconds_per_iter / best_multi);
    }
  }
  std::printf("scaling gate: %d groups checked, %d violations\n", groups,
              violations);
  return violations == 0 ? 0 : 1;
}

std::vector<int> ParseThreadSet(const std::string& spec) {
  std::vector<int> threads;
  std::stringstream in(spec);
  std::string item;
  while (std::getline(in, item, ',')) {
    const int t = std::atoi(item.c_str());
    if (t >= 1) threads.push_back(t);
  }
  if (threads.empty()) threads.push_back(1);
  return threads;
}

int Main(int argc, char** argv) {
  Result<FlagParser> flags = FlagParser::Parse(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    return 2;
  }
  const bool quick = flags->GetBool("quick", false);
  const std::string out_path = flags->GetString("out", "BENCH_kernels.json");
  const bool scaling_gate = flags->GetBool("scaling-gate", false);
  const double scaling_tolerance = flags->GetDouble("scaling-tolerance", 0.15);
  const bool fast_math = flags->GetBool("fast_math", true);

  Harness harness;
  harness.thread_set = ParseThreadSet(flags->GetString("threads", "1,2,8"));
  harness.timing.min_seconds = quick ? 0.02 : 0.3;
  harness.timing.max_iters = quick ? 20 : 200;

  // Measurement is the whole point of a bench run, so profiling is on
  // unconditionally; rows degrade to zero counters where the host
  // forbids perf_event_open.
  SetProfilingEnabled(true);

  std::printf("bench_kernels (%s mode, avx2=%s, threads={%s}, %u hardware "
              "threads, perf counters %s)\n\n",
              quick ? "quick" : "full", kernels::UsingAvx2() ? "on" : "off",
              ThreadSetLabel(harness.thread_set).c_str(),
              std::thread::hardware_concurrency(),
              PerfCountersSupported()
                  ? "available"
                  : PerfCountersUnavailableReason().c_str());

  const kernels::KernelConfig saved = kernels::GetKernelConfig();
  BenchMatMuls(&harness, quick, fast_math);
  BenchSegmentOps(&harness, quick);
  BenchRowOps(&harness, quick);
  kernels::SetKernelConfig(saved);

  WriteJson(out_path, harness.records, quick, harness.thread_set);

  return scaling_gate ? CheckScaling(harness.records, scaling_tolerance) : 0;
}

}  // namespace
}  // namespace inferturbo

int main(int argc, char** argv) { return inferturbo::Main(argc, argv); }
