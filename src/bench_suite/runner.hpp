// Benchmark runner: executes a Program through one of the five host-code
// variants the paper compares, on a chosen GPU model, and extracts every
// measurement the evaluation section reports.
#pragma once

#include <string>

#include "bench_suite/benchmarks.hpp"
#include "bench_suite/scales.hpp"
#include "sim/profiler.hpp"

namespace psched::benchsuite {

enum class Variant {
  GrcudaParallel,  ///< this paper's scheduler (section IV)
  GrcudaSerial,    ///< the original GrCUDA scheduler (baseline of Fig. 7)
  GraphsManual,    ///< CUDA Graphs with manual dependencies (Fig. 8)
  GraphsCapture,   ///< CUDA Graphs via stream capture (Fig. 8)
  HandTuned,       ///< hand-tuned streams + events + prefetch (Figs. 1, 8)
};

[[nodiscard]] const char* to_string(Variant v);

struct RunResult {
  double gpu_time_us = 0;  ///< timeline makespan (paper's execution time)
  sim::OverlapMetrics overlap;
  sim::HwMetrics hw;
  /// DAG critical path with contention-free costs (Fig. 9 bound);
  /// only populated for GrCUDA runs, which record the DAG.
  double critical_path_us = 0;
  rt::ContextStats stats;
  long streams_used = 0;
  double checksum = 0;  ///< functional runs only
  double bytes_h2d = 0;
  double bytes_faulted = 0;
  double bytes_d2h = 0;
  std::string timeline_ascii;  ///< filled when requested
  long engine_solves = 0;      ///< rate re-solve passes inside the engine
  long engine_solved_ops = 0;  ///< per-op rate assignments across all solves
  /// Full per-op execution record (filled when RunOptions::keep_timeline).
  std::vector<sim::TimelineEntry> timeline;
};

struct RunOptions {
  bool keep_timeline_ascii = false;
  bool keep_timeline = false;  ///< copy the timeline entries into the result
  bool prefetch = true;  ///< auto-prefetch for the GrCUDA parallel scheduler
  rt::StreamPolicy stream_policy = rt::StreamPolicy::FifoReuse;
  bool honor_read_only = true;
};

/// Run `bench` end to end and collect measurements.
[[nodiscard]] RunResult run_benchmark(const Benchmark& bench, Variant variant,
                                      const sim::DeviceSpec& spec,
                                      RunConfig cfg, RunOptions opts = {});

/// Convenience: speedup of variant `a` over variant `b` (same config).
[[nodiscard]] double speedup(const Benchmark& bench, Variant fast,
                             Variant slow, const sim::DeviceSpec& spec,
                             RunConfig cfg);

/// Geometric mean helper for aggregating speedups.
[[nodiscard]] double geomean(const std::vector<double>& values);

}  // namespace psched::benchsuite
