// Property-based tests: random GPU programs, checked against
//   (1) an independently implemented dependency oracle (section IV-A rules),
//   (2) the simulated timeline (no op starts before a dependency ends),
//   (3) policy independence of functional results (parallel == serial),
//   (4) hazard freedom (every CPU access was correctly synchronized).
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <vector>

#include "critical_path_oracle.hpp"
#include "rt_test_util.hpp"

namespace psched::rt {
namespace {

/// One randomly generated kernel invocation: reads some arrays, writes one.
struct RandomStep {
  std::vector<int> reads;  // array indices (const args)
  int write = 0;           // array index (written arg)
  int scale_seed = 1;      // varies the functional result
};

std::vector<RandomStep> make_program(std::mt19937& rng, int num_arrays,
                                     int num_steps) {
  std::uniform_int_distribution<int> arr(0, num_arrays - 1);
  std::uniform_int_distribution<int> nreads(0, 2);
  std::vector<RandomStep> prog;
  for (int i = 0; i < num_steps; ++i) {
    RandomStep s;
    const int nr = nreads(rng);
    for (int r = 0; r < nr; ++r) {
      const int a = arr(rng);
      if (std::find(s.reads.begin(), s.reads.end(), a) == s.reads.end()) {
        s.reads.push_back(a);
      }
    }
    s.write = arr(rng);
    // A written array must not also be read in this model program.
    std::erase(s.reads, s.write);
    s.scale_seed = 1 + i % 7;
    prog.push_back(s);
  }
  return prog;
}

/// Independent re-implementation of the paper's dependency rules, operating
/// on step indices only (all computations stay active: no CPU accesses
/// until the end of the program).
std::set<std::pair<long, long>> oracle_edges(
    const std::vector<RandomStep>& prog) {
  struct Track {
    long writer = -1;
    std::vector<long> readers;
  };
  std::set<std::pair<long, long>> edges;
  std::vector<Track> track(64);
  for (long i = 0; i < static_cast<long>(prog.size()); ++i) {
    const RandomStep& s = prog[static_cast<std::size_t>(i)];
    std::set<long> deps;
    for (int r : s.reads) {
      Track& t = track[static_cast<std::size_t>(r)];
      if (t.writer >= 0) deps.insert(t.writer);
      t.readers.push_back(i);
    }
    {
      Track& t = track[static_cast<std::size_t>(s.write)];
      if (!t.readers.empty()) {
        for (long r : t.readers) deps.insert(r);
      } else if (t.writer >= 0) {
        deps.insert(t.writer);
      }
      t.writer = i;
      t.readers.clear();
    }
    deps.erase(i);
    for (long d : deps) edges.insert({d, i});
  }
  return edges;
}

/// Run the program through a real context. `after_step(i)` runs after
/// step i's launch (host accesses, audits).
template <typename AfterStep>
void run_program(Context& ctx, const std::vector<RandomStep>& prog,
                 std::vector<DeviceArray>& arrays, int num_arrays,
                 std::size_t n, AfterStep after_step) {
  for (int a = 0; a < num_arrays; ++a) {
    arrays.push_back(ctx.array<float>(n, "A" + std::to_string(a)));
    arrays.back().fill(a + 1.0);
  }
  auto scale = ctx.build_kernel("scale", "pointer, sint32, float");
  auto affine = ctx.build_kernel("affine", "const pointer, pointer, sint32");
  auto add2 = ctx.build_kernel(
      "add2", "const pointer, const pointer, pointer, sint32");
  for (std::size_t i = 0; i < prog.size(); ++i) {
    const RandomStep& s = prog[i];
    const long ln = static_cast<long>(n);
    if (s.reads.empty()) {
      scale(4, 64)(arrays[static_cast<std::size_t>(s.write)], ln,
                   static_cast<double>(s.scale_seed));
    } else if (s.reads.size() == 1) {
      affine(4, 64)(arrays[static_cast<std::size_t>(s.reads[0])],
                    arrays[static_cast<std::size_t>(s.write)], ln);
    } else {
      add2(4, 64)(arrays[static_cast<std::size_t>(s.reads[0])],
                  arrays[static_cast<std::size_t>(s.reads[1])],
                  arrays[static_cast<std::size_t>(s.write)], ln);
    }
    after_step(i);
  }
}

void run_program(Context& ctx, const std::vector<RandomStep>& prog,
                 std::vector<DeviceArray>& arrays, int num_arrays,
                 std::size_t n) {
  run_program(ctx, prog, arrays, num_arrays, n, [](std::size_t) {});
}

class RandomProgram : public ::testing::TestWithParam<int> {};

TEST_P(RandomProgram, DependenciesMatchOracle) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  const int num_arrays = 5;
  const auto prog = make_program(rng, num_arrays, 24);
  const auto expected = oracle_edges(prog);

  test::Fixture f;
  f.ctx->record_dag();
  std::vector<DeviceArray> arrays;
  run_program(*f.ctx, prog, arrays, num_arrays, 64);

  std::set<std::pair<long, long>> actual(f.ctx->dag().edges().begin(),
                                         f.ctx->dag().edges().end());
  EXPECT_EQ(actual, expected) << "seed " << GetParam();
  f.ctx->synchronize();
}

TEST_P(RandomProgram, TimelineRespectsEveryEdge) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  const auto prog = make_program(rng, 5, 24);

  test::Fixture f;
  f.ctx->record_dag();
  std::vector<DeviceArray> arrays;
  run_program(*f.ctx, prog, arrays, 5, 64);
  f.ctx->synchronize();

  const auto& comps = f.ctx->dag().vertices();
  for (const auto& [from, to] : f.ctx->dag().edges()) {
    const auto& a = comps[static_cast<std::size_t>(from)];
    const auto& b = comps[static_cast<std::size_t>(to)];
    if (a.op == sim::kInvalidOp || b.op == sim::kInvalidOp) continue;
    const auto& oa = f.gpu->engine().op(a.op);
    const auto& ob = f.gpu->engine().op(b.op);
    EXPECT_LE(oa.end_time, ob.start_time + 1e-9)
        << "edge " << from << "->" << to << " violated (seed " << GetParam()
        << ")";
  }
}

TEST_P(RandomProgram, ParallelMatchesSerialResults) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  const auto prog = make_program(rng, 5, 24);

  auto result = [&prog](SchedulePolicy policy) {
    Options opts;
    opts.policy = policy;
    test::Fixture f(opts);
    std::vector<DeviceArray> arrays;
    run_program(*f.ctx, prog, arrays, 5, 64);
    std::vector<float> out;
    for (auto& a : arrays) {
      for (std::size_t i = 0; i < a.size(); i += 17) {
        out.push_back(static_cast<float>(a.get(i)));
      }
    }
    EXPECT_EQ(f.gpu->hazard_count(), 0);
    return out;
  };
  EXPECT_EQ(result(SchedulePolicy::Serial), result(SchedulePolicy::Parallel))
      << "seed " << GetParam();
}

TEST_P(RandomProgram, AllStreamPoliciesAgree) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  const auto prog = make_program(rng, 4, 16);

  auto result = [&prog](StreamPolicy sp) {
    Options opts;
    opts.stream_policy = sp;
    test::Fixture f(opts);
    std::vector<DeviceArray> arrays;
    run_program(*f.ctx, prog, arrays, 4, 64);
    std::vector<float> out;
    for (auto& a : arrays) out.push_back(static_cast<float>(a.get(0)));
    EXPECT_EQ(f.gpu->hazard_count(), 0);
    return out;
  };
  const auto fifo = result(StreamPolicy::FifoReuse);
  EXPECT_EQ(fifo, result(StreamPolicy::AlwaysNew));
  EXPECT_EQ(fifo, result(StreamPolicy::SingleStream));
}

TEST_P(RandomProgram, PrefetchDoesNotChangeResults) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  const auto prog = make_program(rng, 4, 16);

  auto result = [&prog](bool prefetch) {
    Options opts;
    opts.prefetch = prefetch;
    test::Fixture f(opts);
    std::vector<DeviceArray> arrays;
    run_program(*f.ctx, prog, arrays, 4, 64);
    std::vector<float> out;
    for (auto& a : arrays) out.push_back(static_cast<float>(a.get(0)));
    return out;
  };
  EXPECT_EQ(result(true), result(false));
}

TEST_P(RandomProgram, PrePascalAgreesWithPascal) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  const auto prog = make_program(rng, 4, 16);

  auto result = [&prog](bool page_fault) {
    sim::DeviceSpec spec = sim::DeviceSpec::test_device();
    spec.page_fault_um = page_fault;
    test::Fixture f(Options{}, spec);
    std::vector<DeviceArray> arrays;
    run_program(*f.ctx, prog, arrays, 4, 64);
    std::vector<float> out;
    for (auto& a : arrays) out.push_back(static_cast<float>(a.get(0)));
    EXPECT_EQ(f.gpu->hazard_count(), 0);
    return out;
  };
  EXPECT_EQ(result(true), result(false));
}

TEST_P(RandomProgram, OnlineCriticalPathMatchesReference) {
  // Host reads of freshly written arrays split the program into epochs,
  // and retire computations mid-run so their slots are reused. After
  // every step the live frontier audits clean; at the end the online
  // bound equals the offline reference pass over the recorded history,
  // at the device's PCIe rate (the context's own recorder) and at rate 0
  // (the history replayed through a second recorder).
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  const int num_arrays = 5;
  const auto prog = make_program(rng, num_arrays, 48);
  std::bernoulli_distribution read_now(0.25);

  test::Fixture f;
  Context& ctx = *f.ctx;
  ctx.record_dag();
  std::vector<DeviceArray> arrays;
  run_program(ctx, prog, arrays, num_arrays, 64, [&](std::size_t i) {
    if (read_now(rng)) {
      (void)arrays[static_cast<std::size_t>(prog[i].write)].get(0);
    }
    ctx.audit();
  });
  ctx.synchronize();
  ctx.audit();

  const DagRecorder& dag = ctx.dag();
  ASSERT_GT(dag.vertices().back().epoch, 0) << "no host epochs";
  EXPECT_LT(ctx.stats().peak_live_computations, ctx.stats().computations);
  const double pcie = f.gpu->spec().pcie_bytes_per_us();
  EXPECT_EQ(dag.critical_path_us(pcie),
            test::reference_critical_path_us(dag, pcie))
      << "seed " << GetParam();

  DagRecorder at_zero(0);
  test::replay(dag, at_zero);
  EXPECT_EQ(at_zero.critical_path_us(0),
            test::reference_critical_path_us(dag, 0))
      << "seed " << GetParam();
  // Transfers are staged (arrays start host-side), so the rates differ.
  EXPECT_LT(at_zero.critical_path_us(0), dag.critical_path_us(pcie));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgram,
                         ::testing::Range(1, 13));  // 12 random seeds

TEST(Properties, ParallelIsNeverSlowerThanSerial) {
  // Timing property on a mixed program at moderate scale.
  for (int seed = 1; seed <= 4; ++seed) {
    std::mt19937 rng(static_cast<unsigned>(seed));
    const auto prog = make_program(rng, 6, 30);
    auto makespan = [&prog](SchedulePolicy p) {
      Options opts;
      opts.policy = p;
      opts.functional = false;
      test::Fixture f(opts);
      std::vector<DeviceArray> arrays;
      run_program(*f.ctx, prog, arrays, 6, 1 << 16);
      f.ctx->synchronize();
      return f.gpu->timeline().makespan();
    };
    const double serial = makespan(SchedulePolicy::Serial);
    const double parallel = makespan(SchedulePolicy::Parallel);
    EXPECT_LE(parallel, serial * 1.02) << "seed " << seed;
  }
}

}  // namespace
}  // namespace psched::rt
