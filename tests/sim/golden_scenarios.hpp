// Golden-equivalence scenarios: the DAGs whose virtual timelines are pinned
// against recorded fixtures (tests/sim/golden/*.txt).
//
// The engine and benchmark fixtures were generated by the seed
// scan-per-step engine; the runtime-level oversub_planner and
// multi_gpu_staging fixtures pin the residency planner and multi-GPU
// staging paths as they stood before the runtime's transfer issuers were
// folded; graph_fanout pins TaskGraph lowering as it stood while each
// node still scanned every other node for a child on another stream.
// Every build must reproduce the same per-op completion times and
// Timeline contents on every scenario. Regenerate with
//
//   sim_test_golden_equivalence --gtest_also_run_disabled_tests
//       --gtest_filter='*Regenerate*'
//
// which writes only fixtures that are missing (delete a file to rewrite
// it: the seed_solves/seed_solved_ops header lines feed the solver
// ratchets), and ONLY from a build that is the intended source of truth.
#pragma once

#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_suite/runner.hpp"
#include "sim/engine.hpp"
#include "sim/graph.hpp"
#include "sim/runtime.hpp"
#include "sim/synthetic.hpp"

namespace psched::sim::golden {

struct GoldenRun {
  std::vector<TimelineEntry> entries;
  TimeUs makespan = 0;
  long solves = 0;      ///< Engine::solve_count() after the run
  long solved_ops = 0;  ///< Engine::solved_ops() after the run
};

/// Run `eng` to idle one op completion at a time, auditing it after each
/// advance. run_until_op_done takes the same steps as run_all, so the
/// schedule is unchanged.
inline TimeUs run_all_audited(Engine& eng) {
  for (OpId id = 1; !eng.all_idle(); ++id) {
    eng.run_until_op_done(id);
    eng.audit();
  }
  return eng.run_all();
}

/// Engine-level contention DAG (Fig. 9 pressure at engine scale): the
/// shared generator from sim/synthetic.hpp — the same shape the
/// scheduler-overhead microbenchmark times at 10k ops / 32 streams.
inline GoldenRun run_contention_scenario() {
  Engine eng(DeviceSpec::test_device());
  build_contention_dag(eng, 1000, 16);
  GoldenRun r;
  r.makespan = run_all_audited(eng);
  r.entries = eng.timeline().entries().to_vector();
  r.solves = eng.solve_count();
  r.solved_ops = eng.solved_ops();
  return r;
}

/// Fig. 9 B&S-style transfer churn under long-running kernels: the
/// scenario where a full re-solve per running-set change is maximally
/// wasteful (every copy completion re-prices every kernel).
inline GoldenRun run_transfer_churn_scenario() {
  Engine eng(DeviceSpec::test_device());
  build_transfer_churn_dag(eng, 8, 400, 8);
  GoldenRun r;
  r.makespan = run_all_audited(eng);
  r.entries = eng.timeline().entries().to_vector();
  r.solves = eng.solve_count();
  r.solved_ops = eng.solved_ops();
  return r;
}

/// One paper benchmark DAG through the parallel GrCUDA scheduler at test
/// scale — the full runtime stack (dependency inference, stream manager,
/// prefetching) drives the engine.
inline GoldenRun run_benchmark_scenario(benchsuite::BenchId id) {
  const auto bench = benchsuite::make_benchmark(id);
  benchsuite::RunConfig cfg;
  cfg.scale = bench->test_scale();
  cfg.block_size = 128;
  benchsuite::RunOptions opts;
  opts.keep_timeline = true;
  const benchsuite::RunResult res = benchsuite::run_benchmark(
      *bench, benchsuite::Variant::GrcudaParallel,
      DeviceSpec::test_device(), cfg, opts);
  GoldenRun r;
  r.entries = res.timeline;
  r.makespan = res.gpu_time_us;
  r.solves = res.engine_solves;
  r.solved_ops = res.engine_solved_ops;
  return r;
}

inline GoldenRun runtime_run(GpuRuntime& rt) {
  GoldenRun r;
  r.entries = rt.timeline().entries().to_vector();
  r.makespan = rt.timeline().makespan();
  r.solves = rt.engine().solve_count();
  r.solved_ops = rt.engine().solved_ops();
  return r;
}

/// Observer a runtime scenario calls after every API call with the arrays
/// allocated so far (the paging checker's recorder hooks in here). It
/// only reads state, so a probed run is the same schedule.
using CallProbe =
    std::function<void(const GpuRuntime&, const std::vector<ArrayId>&)>;

inline LaunchSpec golden_kernel(std::string name, std::vector<ArrayUse> arrays) {
  LaunchSpec k;
  k.name = std::move(name);
  k.config = LaunchConfig::linear(16, 128);
  k.profile.flops_sp = 1e6;
  k.arrays = std::move(arrays);
  return k;
}

/// Schedule-time residency planning under 1.5x oversubscription: four
/// 3 MiB arrays cycled over an 8 MiB device, one synchronized kernel per
/// array, with the first two rounds announced as the frontier. Pins
/// planner serves (merged `evict:a+N` write-backs and coalesced prefetches
/// on the prefetch stream) and, in the unannounced third round,
/// admission-time write-backs on the service stream.
inline GoldenRun run_oversub_planner_scenario(const CallProbe& probe = {}) {
  constexpr std::size_t kMiB = 1u << 20;
  DeviceSpec spec = DeviceSpec::test_device();
  spec.memory_bytes = 8 * kMiB;
  GpuRuntime rt(spec);
  std::vector<ArrayId> arrays;
  const auto called = [&] {
    rt.engine().audit();
    if (probe) probe(rt, arrays);
  };
  for (int i = 0; i < 4; ++i) {
    arrays.push_back(rt.alloc(3 * kMiB, std::string(1, static_cast<char>('a' + i))));
    rt.host_write(arrays.back());
    called();
  }
  std::vector<FrontierEntry> frontier;
  for (int r = 0; r < 2; ++r) {
    for (const ArrayId a : arrays) frontier.push_back({kDefaultDevice, {a}});
  }
  rt.announce_frontier(std::move(frontier));
  // The third, unannounced round runs on the admission path.
  for (int r = 0; r < 3; ++r) {
    if (r == 2) rt.clear_frontier();
    for (const ArrayId a : arrays) {
      rt.launch(kDefaultStream, golden_kernel("touch", {{a, true}}));
      called();
      rt.synchronize_device();
      called();
    }
  }
  return runtime_run(rt);
}

/// Page-granular staging across two NVLinked devices (1000-byte pages,
/// 6000-byte devices). Device 0's admission evicts one page of a
/// kernel-written array; device 1 then stages it partly from the peer
/// (CopyP2P) and partly from the host behind the in-flight write-back,
/// prefetches a peer-fresh array, and the host reads results back from
/// device 1.
inline GoldenRun run_multi_gpu_staging_scenario(const CallProbe& probe = {}) {
  DeviceSpec spec = DeviceSpec::test_device();
  spec.memory_bytes = 6000;
  GpuRuntime rt(Machine::uniform(spec, 2, /*nvlink=*/true),
                /*page_bytes=*/1000);
  const StreamId s1 = rt.create_stream(1);
  const ArrayId big = rt.alloc(5000, "big");
  const ArrayId one = rt.alloc(2000, "one");
  const ArrayId out = rt.alloc(1000, "out");
  const std::vector<ArrayId> arrays = {big, one, out};
  const auto called = [&] {
    rt.engine().audit();
    if (probe) probe(rt, arrays);
  };
  rt.host_write(big);
  rt.host_write(one);
  called();
  rt.launch(kDefaultStream, golden_kernel("k0", {{big, true}}));
  called();
  rt.launch(kDefaultStream, golden_kernel("k1", {{one, false}}));
  called();
  rt.launch(s1, golden_kernel("k2", {{big, false}, {out, true}}));
  called();
  rt.mem_prefetch_async(one, s1);
  called();
  rt.synchronize_device();
  called();
  rt.launch(s1, golden_kernel("k3", {{out, false}, {big, true}}));
  called();
  rt.synchronize_device();
  called();
  rt.host_read(big);
  called();
  rt.host_read(out);
  called();
  return runtime_run(rt);
}

/// A wide fan-out/fan-in TaskGraph launched twice: an H2D node feeds a
/// root kernel that fans out to eight branches. Even branches continue in
/// a same-stream chain; odd branches also fork a child onto a new stream.
/// All leaves join into one kernel, which fans out to four tails that
/// meet at an empty node before a final kernel. Pins graph lowering: the
/// stream assignment and which nodes record a completion event for a
/// child on another stream.
inline GoldenRun run_graph_fanout_scenario() {
  GpuRuntime rt(DeviceSpec::test_device());
  const auto kernel = [](std::string name, std::vector<ArrayUse> arrays,
                         double flops) {
    LaunchSpec k = golden_kernel(std::move(name), std::move(arrays));
    k.profile.flops_sp = flops;
    return k;
  };
  const ArrayId in = rt.alloc(4000, "in");
  std::vector<ArrayId> w;
  for (int i = 0; i < 9; ++i) w.push_back(rt.alloc(1000, "w" + std::to_string(i)));
  rt.host_write(in);

  TaskGraph g;
  const auto h2d = g.add_h2d(in, "h2d:in");
  const auto root = g.add_kernel(kernel("root", {{in, false}, {w[0], true}}, 2e6));
  g.add_dependency(h2d, root);
  std::vector<TaskGraph::NodeId> leaves;
  for (int i = 1; i <= 8; ++i) {
    const std::string n = std::to_string(i);
    const auto b = g.add_kernel(
        kernel("b" + n, {{w[0], false}, {w[i], true}}, 1e6 * (1 + i % 3)));
    g.add_dependency(root, b);
    const auto c = g.add_kernel(kernel("c" + n, {{w[i], true}}, 5e5 * (1 + i % 2)));
    g.add_dependency(b, c);
    leaves.push_back(c);
    if (i % 2 == 1) {
      const auto d = g.add_kernel(kernel("d" + n, {{w[i], false}}, 7e5));
      g.add_dependency(b, d);
      leaves.push_back(d);
    }
  }
  const auto join = g.add_kernel(kernel("join", {{w[0], true}}, 3e6));
  for (const auto leaf : leaves) g.add_dependency(leaf, join);
  const auto meet = g.add_empty("meet");
  for (int j = 1; j <= 4; ++j) {
    const auto t = g.add_kernel(
        kernel("t" + std::to_string(j), {{w[0], false}, {w[j], true}}, 1e6 * j));
    g.add_dependency(join, t);
    g.add_dependency(t, meet);
  }
  const auto fin = g.add_kernel(kernel("fin", {{w[1], false}, {w[8], true}}, 1e6));
  g.add_dependency(meet, fin);

  TaskGraph::Exec exec = g.instantiate(rt);
  exec.launch(rt);
  exec.launch(rt);
  rt.synchronize_device();
  return runtime_run(rt);
}

inline std::vector<std::pair<std::string, GoldenRun>> run_all_scenarios() {
  std::vector<std::pair<std::string, GoldenRun>> all;
  all.emplace_back("contention_1k", run_contention_scenario());
  all.emplace_back("transfer_churn", run_transfer_churn_scenario());
  for (benchsuite::BenchId id : benchsuite::all_benchmarks()) {
    all.emplace_back(benchsuite::name(id), run_benchmark_scenario(id));
  }
  all.emplace_back("oversub_planner", run_oversub_planner_scenario());
  all.emplace_back("multi_gpu_staging", run_multi_gpu_staging_scenario());
  all.emplace_back("graph_fanout", run_graph_fanout_scenario());
  return all;
}

// ---------------------------------------------------------------------
// Fixture I/O
// ---------------------------------------------------------------------

struct Fixture {
  TimeUs makespan = 0;
  long seed_solves = 0;
  long seed_solved_ops = 0;
  std::vector<TimelineEntry> entries;
};

/// Scenario name usable as a file name and a gtest parameter name.
inline std::string sanitized(const std::string& name) {
  std::string s = name;
  for (char& c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return s;
}

inline std::string fixture_path(const std::string& name) {
  return std::string(PSCHED_GOLDEN_DIR) + "/" + sanitized(name) + ".txt";
}

inline void write_fixture(const std::string& name, const GoldenRun& run) {
  std::ofstream out(fixture_path(name));
  if (!out) throw Error("cannot write fixture " + fixture_path(name));
  char buf[256];
  std::snprintf(buf, sizeof(buf), "makespan %.17g\n", run.makespan);
  out << buf;
  out << "seed_solves " << run.solves << "\n";
  out << "seed_solved_ops " << run.solved_ops << "\n";
  out << "entries " << run.entries.size() << "\n";
  for (const TimelineEntry& e : run.entries) {
    std::snprintf(buf, sizeof(buf), "%s %d %.17g %.17g ", to_string(e.kind),
                  e.stream, e.start, e.end);
    out << buf << e.name << "\n";
  }
}

inline OpKind kind_from_string(const std::string& s) {
  if (s == "kernel") return OpKind::Kernel;
  if (s == "h2d") return OpKind::CopyH2D;
  if (s == "d2h") return OpKind::CopyD2H;
  if (s == "fault") return OpKind::Fault;
  if (s == "p2p") return OpKind::CopyP2P;
  if (s == "marker") return OpKind::Marker;
  if (s == "host") return OpKind::Host;
  throw Error("fixture: unknown op kind '" + s + "'");
}

inline Fixture load_fixture(const std::string& name) {
  std::ifstream in(fixture_path(name));
  if (!in) throw Error("missing fixture " + fixture_path(name));
  Fixture f;
  std::string key;
  std::size_t n = 0;
  in >> key >> f.makespan;
  in >> key >> f.seed_solves;
  in >> key >> f.seed_solved_ops;
  in >> key >> n;
  f.entries.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::string kind;
    TimelineEntry e;
    in >> kind >> e.stream >> e.start >> e.end;
    std::getline(in, e.name);
    if (!e.name.empty() && e.name.front() == ' ') e.name.erase(0, 1);
    e.kind = kind_from_string(kind);
    f.entries.push_back(std::move(e));
  }
  if (!in) throw Error("truncated fixture " + fixture_path(name));
  return f;
}

}  // namespace psched::sim::golden
