// Seeded input generators for the end-to-end benchmark.
//
// `--seed` is the benchmark's only input knob: every workload derives its
// inputs here, from the seed alone, before any layer of the system sees
// them. The same seed always yields the same inputs on every platform —
// the generator is a hand-rolled splitmix64, never a std:: distribution,
// whose output is implementation-defined.
//
// Seeds perturb inputs, they do not change a workload's character: the
// driver compares medians over runs with different seeds, so each
// workload's aggregate virtual-time numbers must stay within a few percent
// from seed to seed while the individual inputs differ.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <vector>

#include "bench_suite/benchmarks.hpp"
#include "sim/op.hpp"
#include "sim/types.hpp"

namespace e2e {

/// splitmix64: tiny, fast, and identical on every platform.
class Rng {
 public:
  /// `salt` separates the streams of different generators on one seed.
  /// The seed is hashed first: splitmix64 states one increment apart
  /// would otherwise yield the same sequence shifted by one draw.
  Rng(std::uint64_t seed, std::uint64_t salt)
      : state_(mix(mix(seed + kGamma) ^ salt)) {}

  std::uint64_t next() { return mix(state_ += kGamma); }
  /// Uniform in [0, 1) with 53 random bits.
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  /// Uniform integer in [0, n).
  int below(int n) {
    return static_cast<int>(next() % static_cast<std::uint64_t>(n));
  }
  /// Exponentially distributed with the given mean (Poisson gaps).
  double exponential(double mean) { return -mean * std::log1p(-uniform()); }

 private:
  static constexpr std::uint64_t kGamma = 0x9E3779B97F4A7C15ull;
  /// The splitmix64 output finalizer (a bijective 64-bit hash).
  static std::uint64_t mix(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  std::uint64_t state_;
};

// ---------------------------------------------------------------------
// paper_suite: per-program launch configuration
// ---------------------------------------------------------------------

struct ProgramInput {
  psched::benchsuite::BenchId id{};
  int block_size = 256;
  /// Multiplier on the program's middle fitting scale.
  double scale_factor = 1.0;
};

/// Seed 0 is Fig. 7's series: block 256 at the exact middle scale. Other
/// seeds draw each program's block size from the sweep and jitter its
/// scale by up to +-1%. Block 32 is left out of the draw: it stretches
/// ML's makespan 1.77x and HITS's 1.39x against every other block size, so
/// one draw of it would dominate the seed-to-seed spread of every
/// virtual-time metric.
inline std::vector<ProgramInput> paper_suite_inputs(std::uint64_t seed) {
  static constexpr int kBlocks[] = {128, 256, 1024};
  Rng rng(seed, 0x5041'5045'5253ull);
  std::vector<ProgramInput> out;
  for (const auto id : psched::benchsuite::all_benchmarks()) {
    ProgramInput p;
    p.id = id;
    if (seed != 0) {
      p.block_size = kBlocks[rng.below(3)];
      p.scale_factor = rng.uniform(0.99, 1.01);
    }
    out.push_back(p);
  }
  return out;
}

// ---------------------------------------------------------------------
// dag_flood: the multi-device contention op mix, seeded
// ---------------------------------------------------------------------

/// One host call of a flood wave, stored compactly (a slice replays a
/// million of them): an op and, optionally, a cross-stream event edge
/// before it (record on `record_on`, wait on `stream`).
struct FloodCall {
  psched::sim::OpKind kind = psched::sim::OpKind::Kernel;
  std::int16_t stream = 0;
  std::int16_t record_on = -1;  ///< -1: no event edge
  std::uint8_t size = 0;  ///< size step: KB for transfers, us for kernels
  std::uint8_t sm_demand = 1;
  std::uint8_t occupancy = 0;  ///< quarter steps above 0.5
  bool dram = false;           ///< kernel with DRAM appetite
};

/// The engine op a flood call enqueues. CopyP2P ops pull from the
/// previous device of the stream's (stream j lives on j % n_devices).
inline psched::sim::Op make_op(const FloodCall& c, int n_devices) {
  using namespace psched::sim;
  Op op;
  op.kind = c.kind;
  op.stream = c.stream;
  switch (c.kind) {
    case OpKind::Kernel:
      op.name = "k";
      op.work = 5.0 + c.size;
      op.sm_demand = c.sm_demand;
      op.occupancy = 0.5 + 0.25 * c.occupancy;
      op.bw_need = c.dram ? 50.0 : 0.0;
      break;
    case OpKind::Fault:
      op.name = "fault";
      op.bytes = 5e3 + c.size * 1e3;
      op.work = op.bytes;
      break;
    default:
      op.name = "cp";
      op.bytes = 1e4 + c.size * 1e3;
      op.work = op.bytes;
      if (c.kind == OpKind::CopyP2P) {
        op.peer = static_cast<DeviceId>((c.stream % n_devices + n_devices - 1) %
                                        n_devices);
      }
      break;
  }
  return op;
}

/// `n_waves` distinct waves of `ops_per_wave` calls over `n_streams`
/// streams on `n_devices` devices. The mix follows
/// sim::build_multi_device_contention_dag in expectation: a third explicit
/// copies (a quarter of them CopyP2P, the rest H2D or D2H), ~4% page-fault
/// migrations, the rest kernels of varying demand and DRAM appetite, and
/// a cross-stream event edge before every 8th op. Kinds, sizes and edge
/// sources are drawn per op; streams stay round-robin from a seeded offset
/// so every wave loads all streams.
inline std::vector<std::vector<FloodCall>> flood_waves(std::uint64_t seed,
                                                       int n_waves,
                                                       int ops_per_wave,
                                                       int n_streams,
                                                       int n_devices) {
  using namespace psched::sim;
  Rng rng(seed, 0x464C'4F4F'44ull);
  std::vector<std::vector<FloodCall>> waves(static_cast<std::size_t>(n_waves));
  for (auto& wave : waves) {
    const int offset = rng.below(n_streams);
    wave.resize(static_cast<std::size_t>(ops_per_wave));
    for (int i = 0; i < ops_per_wave; ++i) {
      FloodCall& c = wave[static_cast<std::size_t>(i)];
      c.stream = static_cast<std::int16_t>((i + offset) % n_streams);
      const double u = rng.uniform();
      if (u < 1.0 / 3.0) {
        const int sub = rng.below(4);
        if (n_devices > 1 && sub == 0) {
          c.kind = OpKind::CopyP2P;
        } else {
          c.kind = sub % 2 == 1 ? OpKind::CopyH2D : OpKind::CopyD2H;
        }
        c.size = static_cast<std::uint8_t>(rng.below(7));
      } else if (u < 1.0 / 3.0 + 1.0 / 24.0) {
        c.kind = OpKind::Fault;
        c.size = static_cast<std::uint8_t>(rng.below(5));
      } else {
        c.kind = OpKind::Kernel;
        c.size = static_cast<std::uint8_t>(rng.below(11));
        c.sm_demand = static_cast<std::uint8_t>(1 + rng.below(4));
        c.occupancy = static_cast<std::uint8_t>(rng.below(3));
        c.dram = rng.below(5) == 0;
      }
      if (i % 8 == 7) {
        const int hop = 1 + rng.below(n_streams - 1);
        c.record_on = static_cast<std::int16_t>((c.stream + hop) % n_streams);
      }
    }
  }
  return waves;
}

// ---------------------------------------------------------------------
// tenant_mix: the latency tenant's open-loop arrivals
// ---------------------------------------------------------------------

struct LatencyRequest {
  double due_us = 0;   ///< virtual arrival time, from session start
  double solo_us = 0;  ///< contention-free kernel duration
};

/// Poisson arrivals at `mean_gap_us`, each a kernel of 1-3 us solo.
inline std::vector<LatencyRequest> latency_arrivals(std::uint64_t seed, int n,
                                                    double mean_gap_us) {
  Rng rng(seed, 0x4C41'5445'4E43ull);
  std::vector<LatencyRequest> out(static_cast<std::size_t>(n));
  double t = 0;
  for (auto& r : out) {
    t += rng.exponential(mean_gap_us);
    r.due_us = t;
    r.solo_us = rng.uniform(1.0, 3.0);
  }
  return out;
}

// ---------------------------------------------------------------------
// oversub: array sizes and the access permutation
// ---------------------------------------------------------------------

struct OversubInput {
  std::vector<std::size_t> bytes;  ///< per array; sums to ratio * capacity
  std::vector<int> perm;           ///< kernel i reads perm[i], writes perm[i+1]
};

/// `n` arrays whose sizes vary +-10% around the mean and sum to
/// `ratio * capacity` (rounded down to whole KiB per array), and a
/// uniformly random access permutation (Fisher-Yates).
inline OversubInput oversub_inputs(std::uint64_t seed, int n,
                                   std::size_t capacity, double ratio) {
  Rng rng(seed, 0x4F56'4552'5355ull);
  std::vector<double> w(static_cast<std::size_t>(n));
  for (double& x : w) x = rng.uniform(0.9, 1.1);
  const double sum = std::accumulate(w.begin(), w.end(), 0.0);
  OversubInput in;
  for (const double x : w) {
    const double b = ratio * static_cast<double>(capacity) * x / sum;
    in.bytes.push_back(static_cast<std::size_t>(b / 1024.0) * 1024);
  }
  in.perm.resize(static_cast<std::size_t>(n));
  std::iota(in.perm.begin(), in.perm.end(), 0);
  for (int i = n - 1; i > 0; --i) {
    std::swap(in.perm[static_cast<std::size_t>(i)],
              in.perm[static_cast<std::size_t>(rng.below(i + 1))]);
  }
  return in;
}

}  // namespace e2e
