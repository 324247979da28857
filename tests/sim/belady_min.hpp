// Test-only Belady MIN oracle for array-granular paging.
//
// Replays an access trace — one working set per op, repeated round after
// round the way a replayed graph repeats its frontier — through a device
// of fixed capacity with clairvoyant replacement: on a miss the working
// set is brought in whole, and while it does not fit, the resident array
// whose next use lies farthest ahead is paged out (never one the current
// op uses). Bytes paged in per round are the reference the residency
// planner is measured against. It is not a strict optimum: with arrays of
// unequal size whole-array MIN is a heuristic, and the planner, which
// pages out partial arrays, can move fewer bytes.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

namespace psched::sim::test {

struct MinResult {
  /// Bytes paged in during each simulated round.
  std::vector<std::size_t> bytes_in_per_round;
};

/// `trace[k]` holds op k's array indices into `sizes`; the trace repeats
/// `rounds` times from an empty device of `capacity` bytes.
inline MinResult belady_min(const std::vector<std::vector<int>>& trace,
                            const std::vector<std::size_t>& sizes,
                            std::size_t capacity, int rounds) {
  const std::size_t n = trace.size();
  const std::size_t total = n * static_cast<std::size_t>(rounds);
  constexpr std::size_t kNever = std::numeric_limits<std::size_t>::max();
  // Next use of `a` strictly after global step t (the trace repeats).
  const auto next_use = [&](int a, std::size_t t) {
    for (std::size_t u = t + 1; u < total; ++u) {
      const auto& ws = trace[u % n];
      if (std::find(ws.begin(), ws.end(), a) != ws.end()) return u;
    }
    return kNever;
  };
  std::vector<bool> resident(sizes.size(), false);
  std::size_t used = 0;
  MinResult out;
  out.bytes_in_per_round.assign(static_cast<std::size_t>(rounds), 0);
  for (std::size_t t = 0; t < total; ++t) {
    const auto& ws = trace[t % n];
    for (const int a : ws) {
      const auto ai = static_cast<std::size_t>(a);
      if (resident[ai]) continue;
      while (used + sizes[ai] > capacity) {
        int victim = -1;
        std::size_t farthest = 0;
        for (std::size_t v = 0; v < sizes.size(); ++v) {
          if (!resident[v] ||
              std::find(ws.begin(), ws.end(), static_cast<int>(v)) !=
                  ws.end()) {
            continue;
          }
          const std::size_t nu = next_use(static_cast<int>(v), t);
          if (victim < 0 || nu > farthest) {
            victim = static_cast<int>(v);
            farthest = nu;
          }
        }
        if (victim < 0) return out;  // the working set alone overflows
        resident[static_cast<std::size_t>(victim)] = false;
        used -= sizes[static_cast<std::size_t>(victim)];
      }
      resident[ai] = true;
      used += sizes[ai];
      out.bytes_in_per_round[t / n] += sizes[ai];
    }
  }
  return out;
}

}  // namespace psched::sim::test
