// Shared helpers for sim-layer tests.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/op.hpp"
#include "sim/timeline.hpp"
#include "sim/types.hpp"

namespace psched::sim::test {

/// The golden tolerance on virtual times: paths that fold fluid progress
/// at different boundaries may differ in the last ulps, nothing more.
constexpr double kGoldenAbsTol = 1e-6;
constexpr double kGoldenRelTol = 1e-9;

inline void expect_time_near(TimeUs got, TimeUs want,
                             const std::string& what) {
  const double tol = std::max(kGoldenAbsTol, kGoldenRelTol * std::abs(want));
  EXPECT_NEAR(got, want, tol) << what;
}

/// Two timelines describe the same schedule: the same entries in the same
/// order with identical kind, stream and name, and start/end times equal
/// at the golden tolerance.
inline void expect_same_timeline(const std::vector<TimelineEntry>& got,
                                 const std::vector<TimelineEntry>& want) {
  ASSERT_EQ(got.size(), want.size()) << "timeline length diverged";
  for (std::size_t i = 0; i < want.size(); ++i) {
    const std::string what =
        "entry " + std::to_string(i) + " (" + want[i].name + ")";
    EXPECT_EQ(got[i].kind, want[i].kind) << what;
    EXPECT_EQ(got[i].stream, want[i].stream) << what;
    EXPECT_EQ(got[i].name, want[i].name) << what;
    expect_time_near(got[i].start, want[i].start, what + " start");
    expect_time_near(got[i].end, want[i].end, what + " end");
  }
}

/// A raw kernel op with explicit demand numbers (bypasses the cost model).
inline Op raw_kernel(StreamId stream, double work_us, double sm_demand,
                     double occupancy, double bw_need = 0,
                     std::string name = "k") {
  Op op;
  op.kind = OpKind::Kernel;
  op.stream = stream;
  op.name = std::move(name);
  op.work = work_us;
  op.sm_demand = sm_demand;
  op.occupancy = occupancy;
  op.bw_need = bw_need;
  return op;
}

/// A raw transfer op.
inline Op raw_copy(StreamId stream, OpKind kind, double bytes,
                   std::string name = "cp") {
  Op op;
  op.kind = kind;
  op.stream = stream;
  op.name = std::move(name);
  op.bytes = bytes;
  op.work = bytes;
  return op;
}

}  // namespace psched::sim::test
