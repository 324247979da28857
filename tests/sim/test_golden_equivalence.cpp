// Golden-equivalence suite (engine rework guardrail).
//
// The heap-driven engine must produce the same virtual timelines as the
// seed scan-per-step engine: identical op sequence (kind, stream, name,
// completion order) and identical start/completion times on every scenario
// — the five paper benchmark DAGs driven through the full runtime stack
// plus an engine-level contention DAG.
//
// Times are compared to within 1e-6 us absolute / 1e-9 relative: the two
// engines fold fluid-model progress at different boundaries (the seed
// touches every running op at every discrete step, the reworked engine only
// at per-class rate changes), which perturbs the accumulated `done` in the
// last ulps. Everything structural must match exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "golden_scenarios.hpp"
#include "sim/ingest_queue.hpp"
#include "sim/runtime.hpp"
#include "sim_test_util.hpp"

namespace psched::sim::golden {
namespace {

using test::expect_same_timeline;
using test::expect_time_near;

/// Measured 436 solved ops when the incremental solver landed (seed full
/// re-solve: 4072). Headroom for legitimate model changes only.
constexpr long kChurnSolvedOpsRatchet = 500;

void compare(const GoldenRun& run, const Fixture& fix,
             const std::string& name) {
  SCOPED_TRACE(name);
  expect_time_near(run.makespan, fix.makespan, "makespan");
  expect_same_timeline(run.entries, fix.entries);
}

TEST(GoldenEquivalence, ContentionDag) {
  const GoldenRun run = run_contention_scenario();
  compare(run, load_fixture("contention_1k"), "contention_1k");
}

TEST(GoldenEquivalence, TransferChurnDag) {
  const GoldenRun run = run_transfer_churn_scenario();
  compare(run, load_fixture("transfer_churn"), "transfer_churn");
}

class GoldenBenchmark
    : public ::testing::TestWithParam<benchsuite::BenchId> {};

TEST_P(GoldenBenchmark, TimelineMatchesSeedEngine) {
  const std::string name = benchsuite::name(GetParam());
  compare(run_benchmark_scenario(GetParam()), load_fixture(name), name);
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, GoldenBenchmark,
    ::testing::ValuesIn(benchsuite::all_benchmarks()),
    [](const auto& info) { return sanitized(benchsuite::name(info.param)); });

TEST(GoldenEquivalence, OversubPlanner) {
  compare(run_oversub_planner_scenario(), load_fixture("oversub_planner"),
          "oversub_planner");
}

TEST(GoldenEquivalence, MultiGpuStaging) {
  compare(run_multi_gpu_staging_scenario(),
          load_fixture("multi_gpu_staging"), "multi_gpu_staging");
}

// ---------------------------------------------------------------------
// Tenancy guardrail: with one tenant, the general solver path — tenant
// columns in the solver mirrors, the per-scan uniformity check, the
// weight table — must leave the schedule as an unconfigured run has it.
// ---------------------------------------------------------------------

TEST(GoldenEquivalence, TenancyConfigDoesNotPerturbSingleTenantSchedule) {
  const GoldenRun base = run_contention_scenario();

  Engine eng(DeviceSpec::test_device());
  // Configure tenancy aggressively — a non-default weight for the only
  // tenant and a registered but op-less second tenant — none of which
  // may perturb a single-tenant schedule.
  eng.set_tenant_weight(0, 7.0);
  eng.set_tenant_weight(5, 0.25);
  build_contention_dag(eng, 1000, 16);
  GoldenRun run;
  run.makespan = eng.run_all();
  run.entries = eng.timeline().entries();

  expect_time_near(run.makespan, base.makespan, "makespan");
  expect_same_timeline(run.entries, base.entries);
}

// ---------------------------------------------------------------------
// Concurrent-ingestion front-end guardrail: the contention DAG recorded
// into several submissions and posted through one shard must reproduce,
// exactly, the same submissions replayed directly in one batch — the
// queue adds no timing of its own.
// ---------------------------------------------------------------------

/// The 1000-op contention DAG, recorded into `n_subs` consecutive
/// submissions (streams and events are created on `rt`'s engine).
std::vector<Submission> record_contention_dag(GpuRuntime& rt, int n_subs) {
  constexpr int kOps = 1000;
  std::vector<Submission> subs(static_cast<std::size_t>(n_subs));
  int issued = 0;
  const auto cur = [&]() -> Submission& {
    return subs[static_cast<std::size_t>(issued * n_subs / kOps)];
  };
  emit_contention_dag(
      rt.engine(), kOps, 16,
      [&](Op op) {
        cur().enqueue(std::move(op), 0);
        ++issued;
      },
      [&](EventId ev, StreamId s) { cur().record_event(ev, s, 0); },
      [&](StreamId s, EventId ev) { cur().wait_event(s, ev, 0); });
  return subs;
}

TEST(GoldenEquivalence, QueueSingleProducerBitIdentical) {
  constexpr int kSubs = 4;

  GpuRuntime direct(DeviceSpec::test_device());
  const std::vector<Submission> direct_subs =
      record_contention_dag(direct, kSubs);
  direct.begin_submit();
  for (const Submission& sub : direct_subs) direct.replay(sub);
  direct.commit();
  direct.synchronize_device();

  GpuRuntime rt(DeviceSpec::test_device());
  IngestService svc(rt);  // one shard: the single-producer configuration
  std::vector<Submission> subs;
  {
    // Hold the api gate across recording and posting: streams and events
    // are created on the engine directly, and holding the drain off until
    // every post is queued lands all of them in one drain batch.
    const auto gate = rt.api_guard();
    subs = record_contention_dag(rt, kSubs);
    for (const Submission& sub : subs) svc.post_replay(0, &sub);
  }
  svc.flush_and_wait(0);
  rt.synchronize_device();
  EXPECT_EQ(svc.stats().batches, 1);

  const auto& got = rt.timeline().entries();
  const auto& want = direct.timeline().entries();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE("entry " + std::to_string(i));
    EXPECT_EQ(got[i].op, want[i].op);
    EXPECT_EQ(got[i].kind, want[i].kind);
    EXPECT_EQ(got[i].stream, want[i].stream);
    EXPECT_EQ(got[i].name, want[i].name);
    EXPECT_EQ(got[i].start, want[i].start);
    EXPECT_EQ(got[i].end, want[i].end);
  }
  EXPECT_EQ(rt.now(), direct.now());
}

// ---------------------------------------------------------------------
// Solver-work regression (Fig. 9 contention scenario): the incremental
// per-class re-solve must do strictly less rate-assignment work than the
// seed's full re-solve on every running-set change, and must never regress
// past the ratchet measured when the incremental solver landed.
// ---------------------------------------------------------------------

TEST(SolverRegression, ContentionSolvesDropAndNeverGrow) {
  // Mixed kernel/copy churn: the kernel class changes on nearly every step,
  // so the drop is modest — but it must never be worse than a full solve
  // per running-set change.
  const GoldenRun run = run_contention_scenario();
  const Fixture fix = load_fixture("contention_1k");
  EXPECT_LT(run.solved_ops, fix.seed_solved_ops);
}

TEST(SolverRegression, TransferChurnSolvesCollapse) {
  // Transfer churn under stable long kernels (the Fig. 9 B&S pressure):
  // with per-class re-solves a copy completion re-prices one transfer, not
  // every running kernel. This is where the incremental solver pays.
  const GoldenRun run = run_transfer_churn_scenario();
  const Fixture fix = load_fixture("transfer_churn");
  // At least 4x less solver work than the seed's full re-solve.
  EXPECT_LT(run.solved_ops * 4, fix.seed_solved_ops);
  // Ratchet (measured when the incremental solver landed): never grows.
  EXPECT_LE(run.solved_ops, kChurnSolvedOpsRatchet);
}

// ---------------------------------------------------------------------
// Fixture regeneration (explicitly disabled; see golden_scenarios.hpp).
// ---------------------------------------------------------------------

TEST(GoldenFixtures, DISABLED_Regenerate) {
  for (const auto& [name, run] : run_all_scenarios()) {
    if (std::ifstream(fixture_path(name))) continue;  // never overwrite
    write_fixture(name, run);
    std::printf("wrote %s: %zu entries, makespan %.6f, solves %ld/%ld\n",
                name.c_str(), run.entries.size(), run.makespan, run.solves,
                run.solved_ops);
  }
}

}  // namespace
}  // namespace psched::sim::golden
