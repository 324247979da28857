// Shared table-formatting helpers for the paper-reproduction binaries.
//
// Every binary prints: what the paper's figure/table reports, the numbers
// this reproduction measures, and (where the paper states them) the paper's
// own values for side-by-side comparison.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "bench_suite/runner.hpp"

namespace psched::benchbin {

using benchsuite::BenchId;
using benchsuite::RunConfig;
using benchsuite::RunResult;
using benchsuite::Variant;

inline void header(const std::string& title, const std::string& paper_ref) {
  std::printf("\n================================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("paper reference: %s\n", paper_ref.c_str());
  std::printf("================================================================================\n");
}

inline void row_rule() {
  std::printf("--------------------------------------------------------------------------------\n");
}

/// Format a byte count as GB with one decimal (Table I style).
inline std::string gb(double bytes) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f GB", bytes / 1e9);
  return buf;
}

inline std::string fmt(double v, const char* suffix = "", int prec = 2) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.*f%s", prec, v, suffix);
  return buf;
}

/// Middle scale of a benchmark that fits the device (the representative
/// point used when a figure does not sweep scales).
inline long mid_scale(BenchId id, const sim::DeviceSpec& spec) {
  const auto scales = benchsuite::fitting_scales(id, spec);
  if (scales.empty()) return 0;
  return scales[scales.size() / 2];
}

}  // namespace psched::benchbin
