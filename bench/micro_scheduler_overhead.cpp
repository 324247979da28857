// Microbenchmarks of the scheduler's own costs (google-benchmark).
//
// The paper claims "negligible scheduling overheads" (section V-D): here we
// measure the real host-side cost of the pieces — NIDL parsing, dependency
// inference at various frontier widths, stream acquisition, and the full
// submit path — in wall-clock nanoseconds on the host running the runtime.
//
// In addition to the google-benchmark registrations, the binary times the
// engine-core acceptance scenario (run_all over a 10k-op, 32-stream
// contention DAG) plus a stream-count x device-count sweep of the
// multi-GPU contention DAG, a per-call vs batched ingestion pair on the
// 128-stream contention DAG (host-API call pattern against one engine
// transaction), a DAG-shape axis (wide / deep / diamond), and a
// million-op wave entry driven through 20k-op transactions, and emits
// machine-readable BENCH_scheduler.json (ops/sec, solver work per op,
// peak resident ops, and one record per configuration) so the perf
// trajectory of the event-heap engine is tracked run over run:
//
//   micro_scheduler_overhead --bench_json=BENCH_scheduler.json [--smoke]
//                            [--section=<name>] [--reps=<n>]
//
// (the `bench` CMake target does exactly this into the build directory;
// `bench-smoke` runs the same sweep at tiny scale as a bitrot canary and
// is registered with ctest). `--section=<name>` (headline, sweep,
// ingest_pair, shapes, oversubscription, million_op, multi_app,
// weighted_pair, tenant_waterfill, concurrent_ingest, qos_mixed)
// restricts the JSON to one section for
// local iteration; the full sweep stays the default and is what
// `bench-ratchet` diffs. `--reps=<n>` overrides the wall-clock
// repetition count (default 3 full / 1 smoke) for the max-of-reps
// ops_per_sec rows — handy for quick local runs (--reps=1) or
// lower-noise ratchet references (--reps=10). `--list-sections` prints
// the section names one per line and exits, so scripts can enumerate
// them without grepping this file.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "kernels/registry.hpp"
#include "multi_app_scenario.hpp"
#include "runtime/dependency.hpp"
#include "sim/ingest_queue.hpp"
#include "sim/synthetic.hpp"
#include "sim/tenant.hpp"

namespace {

using namespace psched;

void BM_NidlParse(benchmark::State& state) {
  const std::string sig =
      "const pointer, const pointer, pointer, sint32, sint32, double";
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt::parse_nidl(sig));
  }
}
BENCHMARK(BM_NidlParse);

void BM_DependencyInference(benchmark::State& state) {
  // `width` parallel readers of one array, then one writer that must
  // collect them all (the worst-case WAR fan-in).
  const int width = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    rt::ArrayState array;
    rt::ComputationPool pool;
    auto make = [&](bool read_only) -> rt::Computation& {
      rt::Computation& c = pool.acquire();
      c.state = rt::Computation::State::Scheduled;
      c.uses = {{&array, read_only}};
      return c;
    };
    for (int i = 0; i < width; ++i) {
      (void)rt::infer_dependencies(make(true), pool);
    }
    state.ResumeTiming();
    auto& writer = make(false);
    benchmark::DoNotOptimize(rt::infer_dependencies(writer, pool));
  }
}
BENCHMARK(BM_DependencyInference)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void BM_SubmitKernelParallel(benchmark::State& state) {
  sim::GpuRuntime gpu(sim::DeviceSpec::gtx1660super());
  rt::Options opts = kernels::default_options();
  opts.functional = false;
  rt::Context ctx(gpu, opts);
  auto x = ctx.array<float>(1 << 20, "x");
  auto k = ctx.build_kernel("relu", "pointer, sint32");
  auto configured = k(256, 256);
  for (auto _ : state) {
    configured(x, 1L << 20);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SubmitKernelParallel);

void BM_SubmitKernelSerial(benchmark::State& state) {
  sim::GpuRuntime gpu(sim::DeviceSpec::gtx1660super());
  rt::Options opts = kernels::default_options();
  opts.functional = false;
  opts.policy = rt::SchedulePolicy::Serial;
  rt::Context ctx(gpu, opts);
  auto x = ctx.array<float>(1 << 20, "x");
  auto k = ctx.build_kernel("relu", "pointer, sint32");
  auto configured = k(256, 256);
  for (auto _ : state) {
    configured(x, 1L << 20);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SubmitKernelSerial);

void BM_EngineEventStep(benchmark::State& state) {
  // Cost of one simulated op lifecycle (enqueue + completion processing).
  sim::Engine eng(sim::DeviceSpec::test_device());
  for (auto _ : state) {
    sim::Op op;
    op.kind = sim::OpKind::Kernel;
    op.stream = sim::kDefaultStream;
    op.work = 1.0;
    op.sm_demand = 4;
    op.occupancy = 1.0;
    const sim::OpId id = eng.enqueue(std::move(op), eng.now());
    eng.run_until_op_done(id);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineEventStep);

void BM_EngineRunAll10k(benchmark::State& state) {
  // The acceptance scenario: drain a 10k-op, 32-stream contention DAG.
  for (auto _ : state) {
    state.PauseTiming();
    sim::Engine eng(sim::DeviceSpec::test_device());
    sim::build_contention_dag(eng, 10000, 32);
    state.ResumeTiming();
    eng.run_all();
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EngineRunAll10k)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// Machine-readable engine-core metrics (BENCH_scheduler.json)
// ---------------------------------------------------------------------

struct EngineCoreMetrics {
  double ops_per_sec = 0;
  double solves_per_op = 0;
  double solved_ops_per_op = 0;
  double member_touches_per_op = 0;
  long full_scans = 0;
  long peak_resident_ops = 0;
  double makespan_us = 0;
};

/// The contention DAG (build_contention_dag) on an NVLinked uniform
/// machine of `n_devices` GPUs: one device runs the headline acceptance
/// scenario, larger rosters spread the same DAG's streams across GPUs.
EngineCoreMetrics measure_engine_core(int n_ops, int n_streams, int n_devices,
                                      int reps) {
  EngineCoreMetrics m;
  for (int rep = 0; rep < reps + 1; ++rep) {
    sim::Machine machine =
        sim::Machine::uniform(sim::DeviceSpec::test_device(), n_devices,
                              /*nvlink_all_pairs=*/n_devices > 1);
    sim::Engine eng(std::move(machine));
    sim::build_contention_dag(eng, n_ops, n_streams);
    const auto t0 = std::chrono::steady_clock::now();
    m.makespan_us = eng.run_all();
    const auto t1 = std::chrono::steady_clock::now();
    const double sec = std::chrono::duration<double>(t1 - t0).count();
    if (rep == 0) continue;  // warm-up
    m.ops_per_sec = std::max(m.ops_per_sec, n_ops / sec);
    m.solves_per_op = static_cast<double>(eng.solve_count()) / n_ops;
    m.solved_ops_per_op = static_cast<double>(eng.solved_ops()) / n_ops;
    m.member_touches_per_op =
        static_cast<double>(eng.member_touch_count()) / n_ops;
    m.full_scans = eng.full_scan_count();
    m.peak_resident_ops = eng.peak_resident_ops();
  }
  return m;
}

// ---------------------------------------------------------------------
// Ingestion-mode pair: the same contention DAG driven through the
// per-call host pattern (one API call + one host-clock advance per op,
// GpuRuntime-style) and through engine transactions (whole DAG in one
// Submission at one host instant). The wall-clock gap is the per-call
// bookkeeping the transaction path amortizes: interleaved stepping and a
// rate re-solve per issued op versus one ready-drain and one re-solve per
// batch.
// ---------------------------------------------------------------------

/// Per-call drive: each host call (enqueue / record / wait) costs
/// kHostCallUs of virtual time and advances the engine, like the
/// GpuRuntime per-call facade does.
EngineCoreMetrics measure_ingest_per_call(int n_ops, int n_streams,
                                          int reps) {
  constexpr sim::TimeUs kHostCallUs = 2.0;
  EngineCoreMetrics m;
  for (int rep = 0; rep < reps + 1; ++rep) {
    sim::Engine eng(sim::DeviceSpec::test_device());
    const auto t0 = std::chrono::steady_clock::now();
    sim::TimeUs t = 0;
    sim::emit_contention_dag(
        eng, n_ops, n_streams,
        [&](sim::Op op) {
          t += kHostCallUs;
          eng.advance_to(t);
          eng.enqueue(std::move(op), t);
        },
        [&](sim::EventId ev, sim::StreamId s) {
          t += kHostCallUs;
          eng.advance_to(t);
          eng.record_event(ev, s, t);
        },
        [&](sim::StreamId s, sim::EventId ev) {
          t += kHostCallUs;
          eng.advance_to(t);
          eng.wait_event(s, ev, t);
        });
    m.makespan_us = eng.run_all();
    const auto t1 = std::chrono::steady_clock::now();
    const double sec = std::chrono::duration<double>(t1 - t0).count();
    if (rep == 0) continue;  // warm-up
    m.ops_per_sec = std::max(m.ops_per_sec, n_ops / sec);
    m.solves_per_op = static_cast<double>(eng.solve_count()) / n_ops;
    m.solved_ops_per_op = static_cast<double>(eng.solved_ops()) / n_ops;
    m.peak_resident_ops = eng.peak_resident_ops();
  }
  return m;
}

/// Batched drive: the DAG ingested through engine transactions of
/// DAG-level size (default 1024 ops — the scale of one TaskGraph-launch
/// horizon). With `drain_between` (wave mode) each transaction is fully
/// drained before the next, bounding live ops by the transaction size
/// however long the run.
EngineCoreMetrics measure_ingest_batched(int n_ops, int n_streams, int reps,
                                         int ops_per_txn = 1024,
                                         bool drain_between = false) {
  EngineCoreMetrics m;
  // A warm-up rep only pays for itself when several measured reps follow;
  // single-rep entries (the million-op wave) run the workload once.
  const int warmup = reps > 1 ? 1 : 0;
  for (int rep = 0; rep < reps + warmup; ++rep) {
    sim::Engine eng(sim::DeviceSpec::test_device());
    const auto t0 = std::chrono::steady_clock::now();
    int in_txn = 0;
    eng.begin_transaction(eng.now());
    auto commit = [&] {
      eng.commit_transaction();
      if (drain_between) eng.run_all();
      eng.begin_transaction(eng.now());
      in_txn = 0;
    };
    sim::emit_contention_dag(
        eng, n_ops, n_streams,
        [&](sim::Op op) {
          eng.enqueue(std::move(op), eng.now());
          if (++in_txn >= ops_per_txn) commit();
        },
        [&](sim::EventId ev, sim::StreamId s) {
          eng.record_event(ev, s, eng.now());
        },
        [&](sim::StreamId s, sim::EventId ev) {
          eng.wait_event(s, ev, eng.now());
          ++in_txn;
        });
    eng.commit_transaction();
    m.makespan_us = eng.run_all();
    const auto t1 = std::chrono::steady_clock::now();
    const double sec = std::chrono::duration<double>(t1 - t0).count();
    if (warmup && rep == 0) continue;  // warm-up
    m.ops_per_sec = std::max(m.ops_per_sec, n_ops / sec);
    m.solves_per_op = static_cast<double>(eng.solve_count()) / n_ops;
    m.solved_ops_per_op = static_cast<double>(eng.solved_ops()) / n_ops;
    m.peak_resident_ops = eng.peak_resident_ops();
  }
  return m;
}

// ---------------------------------------------------------------------
// Oversubscription sweep: the same streamed workload with its working set
// scaled to {0.5, 1, 1.5, 2}x device capacity. Under-capacity ratios run
// eviction-free; over-capacity ratios page — every round re-faults what
// the previous round paged out, and the write-backs ride the D2H DMA
// class. Since PR 7 the whole upcoming launch order is announced to the
// residency planner before the timed loop, so admissions are scored
// against the future working set (Belady-style whole-array victims
// instead of LRU partial runs) and the lookahead prefetcher stages the
// next arrays on the idle H2D class while kernels run. Rows record
// evicted bytes, fault/prefetch op counts and the prefetch-overlap
// fraction alongside host throughput, so the cost of memory pressure is
// tracked run over run.
// ---------------------------------------------------------------------

struct OversubMetrics {
  double ratio = 0;
  double working_set_bytes = 0;
  double ops_per_sec = 0;
  double makespan_us = 0;
  double bytes_evicted = 0;
  double bytes_faulted = 0;
  long evict_ops = 0;
  long fault_ops = 0;
  long prefetch_ops = 0;
  double prefetch_bytes = 0;
  double wasted_prefetch_bytes = 0;
  double prefetch_overlap = 0;
};

OversubMetrics measure_oversubscription(double ratio, int reps, bool smoke) {
  const std::size_t cap = smoke ? (8ull << 20) : (64ull << 20);
  sim::DeviceSpec spec = sim::DeviceSpec::test_device();
  spec.memory_bytes = cap;
  const int n_arrays = 8;
  const int rounds = smoke ? 2 : 4;
  const auto bytes_per_array = static_cast<std::size_t>(
      ratio * static_cast<double>(cap) / n_arrays);
  OversubMetrics m;
  m.ratio = ratio;
  m.working_set_bytes = static_cast<double>(bytes_per_array) * n_arrays;
  for (int rep = 0; rep < reps + 1; ++rep) {
    sim::GpuRuntime rt(sim::Machine::single(spec));
    std::vector<sim::ArrayId> arrays;
    for (int i = 0; i < n_arrays; ++i) {
      arrays.push_back(rt.alloc(bytes_per_array, "w" + std::to_string(i)));
      rt.host_write(arrays.back());
    }
    sim::LaunchSpec k;
    k.name = "touch";
    k.config = sim::LaunchConfig::linear(16, 128);
    k.profile.flops_sp = 1e6;
    // The launch order below is known up front: hand it to the planner as
    // the frontier (one entry per launch) so victim choice is
    // farthest-next-use and prefetch can run ahead of the rounds.
    std::vector<sim::FrontierEntry> frontier;
    frontier.reserve(static_cast<std::size_t>(rounds) * n_arrays);
    for (int r = 0; r < rounds; ++r) {
      for (const sim::ArrayId a : arrays) {
        frontier.push_back({sim::kDefaultDevice, {a}});
      }
    }
    const auto t0 = std::chrono::steady_clock::now();
    rt.announce_frontier(std::move(frontier));
    for (int r = 0; r < rounds; ++r) {
      // Synchronize after every launch: the planner then always sees a
      // quiescent device (widest victim set for the eviction gate), and
      // each serve batch can land just-in-time for the launch it covers.
      // Measured head-to-head, this beats a one-transaction-per-round
      // batch in every mode — batching defers the planner to commit time,
      // where the first launches of the round fault before serves land.
      for (const sim::ArrayId a : arrays) {
        // Read+write every pass: victims always carry the only current
        // copy, so page-outs are priced write-backs, not free drops.
        k.arrays = {{a, true}};
        rt.launch(sim::kDefaultStream, k);
        rt.synchronize_device();
      }
    }
    rt.clear_frontier();
    const auto t1 = std::chrono::steady_clock::now();
    const double sec = std::chrono::duration<double>(t1 - t0).count();
    if (rep == 0) continue;  // warm-up
    const double n_ops = static_cast<double>(rounds) * n_arrays;
    m.ops_per_sec = std::max(m.ops_per_sec, n_ops / sec);
    m.makespan_us = rt.now();
    m.bytes_evicted = static_cast<double>(rt.bytes_evicted());
    m.bytes_faulted = rt.bytes_faulted();
    m.evict_ops = rt.evict_ops();
    m.fault_ops = rt.fault_ops();
    m.prefetch_ops = rt.prefetch_ops();
    m.prefetch_bytes = rt.prefetch_bytes();
    m.wasted_prefetch_bytes =
        static_cast<double>(rt.wasted_prefetch_bytes());
    m.prefetch_overlap = rt.prefetch_overlap_fraction();
  }
  return m;
}

/// DAG-shape axis: bulk-build one shape, drain it, report throughput.
EngineCoreMetrics measure_shape(sim::DagShape shape, int n_ops, int n_streams,
                                int reps) {
  EngineCoreMetrics m;
  for (int rep = 0; rep < reps + 1; ++rep) {
    sim::Engine eng(sim::DeviceSpec::test_device());
    sim::build_shaped_dag(eng, shape, n_ops, n_streams);
    const auto t0 = std::chrono::steady_clock::now();
    m.makespan_us = eng.run_all();
    const auto t1 = std::chrono::steady_clock::now();
    const double sec = std::chrono::duration<double>(t1 - t0).count();
    if (rep == 0) continue;  // warm-up
    m.ops_per_sec = std::max(m.ops_per_sec, n_ops / sec);
    m.solves_per_op = static_cast<double>(eng.solve_count()) / n_ops;
    m.solved_ops_per_op = static_cast<double>(eng.solved_ops()) / n_ops;
    m.peak_resident_ops = eng.peak_resident_ops();
  }
  return m;
}

// ---------------------------------------------------------------------
// Contended concurrent-ingestion pair: the same multi_app flood — N
// tenants sustaining launches onto their own streams while the device is
// saturated with long-running kernels — submitted (a) per call from one
// thread (one engine transaction per launch, the pre-front-end pattern)
// and (b) from N producer OS threads posting into the sharded MPSC
// ingestion front-end, whose drain folds whole batches into one engine
// transaction. The timed window covers submission through commit in both
// modes (flush_all_and_wait helps drain inline, so the commit work stays
// inside the window); the drain to device-idle is untimed. The win is
// transaction amortization: one begin/ready-drain/commit bracket per
// drained batch instead of per API call.
// ---------------------------------------------------------------------

struct ConcurrentIngestMetrics {
  int n_producers = 0;
  int n_shards = 0;
  int rounds = 0;
  long total_ops = 0;
  double single_ops_per_sec = 0;
  double concurrent_ops_per_sec = 0;
  double speedup = 0;
};

/// N tenants, each with the multi_app-style round: a two-stream kernel
/// chain joined by a cross-stream event edge. The round is issued per
/// call in the single-thread baseline and rides as one recorded
/// Submission per queue item through the concurrent front-end — the
/// "whole recorded Submission" enqueue path, which is how a real app
/// thread hands a repeated round to the ingest shard.
struct IngestRig {
  std::unique_ptr<sim::GpuRuntime> rt;
  std::unique_ptr<sim::TenantManager> mgr;
  std::vector<sim::Tenant*> tenants;
  std::vector<sim::Submission> subs;  ///< one recorded round per tenant
  std::vector<std::vector<sim::StreamId>> streams;  ///< per tenant
  sim::LaunchSpec k;
  long ops_per_round = 0;
};

/// Wide rounds: one kernel per stream, so every submission joins the
/// running set immediately and the per-(device,class) solver re-prices
/// the whole class on each join — the dominant per-call cost the batched
/// drain coalesces into one re-solve per transaction.
constexpr int kIngestStreamsPerTenant = 64;

/// One round via the per-call API — the identical op sequence the
/// recorded Submission carries.
void issue_ingest_round(sim::Tenant& ten, const IngestRig& rig, int t) {
  for (const sim::StreamId s : rig.streams[static_cast<std::size_t>(t)])
    ten.launch(s, rig.k);
}

IngestRig make_ingest_rig(int n_tenants) {
  IngestRig rig;
  rig.rt = std::make_unique<sim::GpuRuntime>(sim::DeviceSpec::test_device());
  rig.mgr = std::make_unique<sim::TenantManager>(*rig.rt);
  rig.subs.resize(static_cast<std::size_t>(n_tenants));
  rig.k.name = "app_k";
  rig.k.config = sim::LaunchConfig::linear(8, 128);
  rig.k.profile.flops_sp = 1e7;
  for (int t = 0; t < n_tenants; ++t) {
    sim::Tenant& ten =
        rig.mgr->create_tenant({.name = "app" + std::to_string(t)});
    rig.tenants.push_back(&ten);
    std::vector<sim::StreamId> ss;
    for (int w = 0; w < kIngestStreamsPerTenant; ++w)
      ss.push_back(ten.create_stream());
    rig.streams.push_back(std::move(ss));
    sim::GpuRuntime& g = ten.gpu();
    g.begin_record(rig.subs[static_cast<std::size_t>(t)]);
    issue_ingest_round(ten, rig, t);
    rig.ops_per_round = static_cast<long>(g.end_record());
    ten.synchronize();
  }
  return rig;
}

ConcurrentIngestMetrics measure_concurrent_ingest(int n_producers,
                                                  int n_shards, int rounds,
                                                  int reps) {
  ConcurrentIngestMetrics m;
  m.n_producers = n_producers;
  m.n_shards = n_shards;
  m.rounds = rounds;
  for (int rep = 0; rep < reps + 1; ++rep) {
    // (a) Single-thread baseline: the round issued per API call —
    // every call pays the full transaction bracket plus whatever
    // completion churn its advance interleaves.
    double single_sec = 0;
    {
      IngestRig rig = make_ingest_rig(n_producers);
      m.total_ops = rig.ops_per_round * rounds * n_producers;
      const auto t0 = std::chrono::steady_clock::now();
      for (int r = 0; r < rounds; ++r) {
        for (int t = 0; t < n_producers; ++t) {
          issue_ingest_round(*rig.tenants[static_cast<std::size_t>(t)], rig,
                             t);
        }
      }
      const auto t1 = std::chrono::steady_clock::now();
      single_sec = std::chrono::duration<double>(t1 - t0).count();
      rig.rt->synchronize_device();  // untimed in both modes
    }
    // (b) Contended flood: one producer OS thread per tenant posting its
    // recorded round into the tenant's shard (default modulo mapping:
    // one shard per two tenants); the window closes when every shard has
    // drained and committed.
    double conc_sec = 0;
    {
      IngestRig rig = make_ingest_rig(n_producers);
      sim::IngestService svc(*rig.rt,
                             {.shards = n_shards, .max_batch = 256});
      rig.mgr->attach_ingest(svc);
      const auto t0 = std::chrono::steady_clock::now();
      std::vector<std::thread> producers;
      producers.reserve(static_cast<std::size_t>(n_producers));
      for (int p = 0; p < n_producers; ++p) {
        producers.emplace_back([&rig, rounds, p] {
          sim::Tenant& ten = *rig.tenants[static_cast<std::size_t>(p)];
          const sim::Submission& sub = rig.subs[static_cast<std::size_t>(p)];
          for (int r = 0; r < rounds; ++r) ten.post_replay(sub);
        });
      }
      for (auto& th : producers) th.join();
      svc.flush_all_and_wait();
      const auto t1 = std::chrono::steady_clock::now();
      conc_sec = std::chrono::duration<double>(t1 - t0).count();
      rig.rt->synchronize_device();
    }
    if (rep == 0) continue;  // warm-up
    const auto ops = static_cast<double>(m.total_ops);
    m.single_ops_per_sec = std::max(m.single_ops_per_sec, ops / single_sec);
    m.concurrent_ops_per_sec =
        std::max(m.concurrent_ops_per_sec, ops / conc_sec);
  }
  m.speedup = m.single_ops_per_sec > 0
                  ? m.concurrent_ops_per_sec / m.single_ops_per_sec
                  : 0.0;
  return m;
}

// ---------------------------------------------------------------------
// Water-fill under many tenants (the ROADMAP profiling sub-item): n
// tenants with alternating 2:1 weights share ONE kernel class on one
// device, several saturating streams apiece, so every completion
// re-splits the tenant budgets through the bounded water-fill. Under the
// virtual-service solver the re-split touches per-tenant group
// aggregates only: member_touches stays near zero and full scans are
// confined to the drain tail where the rate-cap validity window finally
// trips (bench_check gates both).
// ---------------------------------------------------------------------

struct TenantWaterfillMetrics {
  int n_tenants = 0;
  long n_ops = 0;
  double ops_per_sec = 0;
  double solves_per_op = 0;
  double member_touches_per_op = 0;
  long full_scans = 0;
  double makespan_us = 0;
};

TenantWaterfillMetrics measure_tenant_waterfill(int n_tenants, bool smoke,
                                                int reps) {
  constexpr int kStreamsPerTenant = 4;
  const int ops_per_stream = smoke ? 10 : 200;
  TenantWaterfillMetrics m;
  m.n_tenants = n_tenants;
  m.n_ops = static_cast<long>(n_tenants) * kStreamsPerTenant * ops_per_stream;
  for (int rep = 0; rep < reps + 1; ++rep) {
    sim::Engine eng(sim::DeviceSpec::test_device());
    const auto t0 = std::chrono::steady_clock::now();
    for (sim::TenantId t = 1; t <= n_tenants; ++t) {
      eng.set_tenant_weight(t, t % 2 == 0 ? 2.0 : 1.0);
      for (int s = 0; s < kStreamsPerTenant; ++s) {
        const sim::StreamId st = eng.create_stream(sim::kDefaultDevice, t);
        for (int i = 0; i < ops_per_stream; ++i) {
          sim::Op op;
          op.kind = sim::OpKind::Kernel;
          op.stream = st;
          op.name = "wf";
          op.work = 5.0;       // solo-us; streams serialize their own ops
          op.sm_demand = 4.0;  // full test-device fill: class stays
          op.occupancy = 1.0;  // saturated until the drain tail
          eng.enqueue(std::move(op), 0);
        }
      }
    }
    m.makespan_us = eng.run_all();
    const auto t1 = std::chrono::steady_clock::now();
    const double sec = std::chrono::duration<double>(t1 - t0).count();
    if (rep == 0) continue;  // warm-up
    m.ops_per_sec =
        std::max(m.ops_per_sec, static_cast<double>(m.n_ops) / sec);
    m.solves_per_op = static_cast<double>(eng.solve_count()) / m.n_ops;
    m.member_touches_per_op =
        static_cast<double>(eng.member_touch_count()) / m.n_ops;
    m.full_scans = eng.full_scan_count();
  }
  return m;
}

void write_bench_json(const char* path, bool smoke, const char* only_section,
                      int reps_override) {
  // `--section=<name>` restricts the run to one section for quick
  // iteration; the default (full) sweep is what the bench ratchet diffs.
  const auto want = [only_section](const char* name) {
    return only_section == nullptr || std::strcmp(only_section, name) == 0;
  };
  // Headline configuration: the PR-1 acceptance scenario, kept identical
  // so ops_per_sec stays comparable run over run.
  const int n_ops = smoke ? 500 : 10000;
  // Wall-clock repetitions for the max-of-reps rows; `--reps=<n>`
  // overrides the default (virtual-time metrics are rep-invariant).
  const int reps = reps_override > 0 ? reps_override : (smoke ? 1 : 3);
  // The sweep's (32, 1) cell doubles as the headline configuration, so
  // either section triggers the measurement.
  EngineCoreMetrics m;
  const bool have_headline = want("headline") || want("sweep");
  if (have_headline) m = measure_engine_core(n_ops, 32, 1, reps);

  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    std::exit(1);
  }
  // Unconditional leading fields keep the JSON valid under any --section
  // filter; every section below prints its own leading comma.
  std::fprintf(f,
               "{\n"
               "  \"scenario\": \"contention_dag\",\n"
               "  \"n_ops\": %d,\n"
               "  \"n_streams\": 32",
               n_ops);
  if (want("headline")) {
    std::fprintf(f,
                 ",\n"
                 "  \"ops_per_sec\": %.0f,\n"
                 "  \"solves_per_op\": %.4f,\n"
                 "  \"solved_ops_per_op\": %.4f,\n"
                 "  \"peak_resident_ops\": %ld,\n"
                 "  \"makespan_us\": %.6f,\n"
                 "  \"seed_reference_ops_per_sec\": 213460,\n"
                 "  \"seed_reference_note\": \"scan-per-step seed engine on "
                 "the PR-1 dev host (gcc 12, -O3); fixed reference, not "
                 "re-measured per run — compare ops_per_sec run-over-run on "
                 "one host, not against this constant\"",
                 m.ops_per_sec, m.solves_per_op, m.solved_ops_per_op,
                 m.peak_resident_ops, m.makespan_us);
  }

  // Stream-count x device-count sweep over the (multi-device) contention
  // DAG; solves_per_op per configuration tracks solver-work isolation as
  // the roster grows.
  if (want("sweep")) {
    std::fprintf(f, ",\n  \"sweep\": [\n");
    // 256/512-stream rows are the high-fan-in stress the virtual-service
    // solver exists for: member_touches_per_op must stay flat as fan-in
    // grows (bench_check's solver-scaling gate compares 128 vs 8).
    const int stream_counts[] = {8, 32, 128, 256, 512};
    const int device_counts[] = {1, 2, 4};
    bool first = true;
    for (const int n_streams : stream_counts) {
      for (const int n_devices : device_counts) {
        // The (32, 1) cell is the headline configuration measured above:
        // reuse it so the JSON carries one authoritative number for it.
        const EngineCoreMetrics s =
            (n_streams == 32 && n_devices == 1)
                ? m
                : measure_engine_core(n_ops, n_streams, n_devices, reps);
        std::fprintf(f,
                     "%s    {\"scenario\": \"multi_device_contention_dag\", "
                     "\"n_ops\": %d, \"n_streams\": %d, \"n_devices\": %d, "
                     "\"ops_per_sec\": %.0f, \"solves_per_op\": %.4f, "
                     "\"solved_ops_per_op\": %.4f, "
                     "\"member_touches_per_op\": %.4f, \"full_scans\": %ld, "
                     "\"makespan_us\": %.6f}",
                     first ? "" : ",\n", n_ops, n_streams, n_devices,
                     s.ops_per_sec, s.solves_per_op, s.solved_ops_per_op,
                     s.member_touches_per_op, s.full_scans, s.makespan_us);
        first = false;
      }
    }
    std::fprintf(f, "\n  ]");
  }

  // Per-call vs batched ingestion pair on the 128-stream contention DAG
  // (the acceptance comparison): identical op sequence, one driven through
  // the per-call host pattern, one through a single engine transaction.
  if (want("ingest_pair")) {
    const int pair_streams = 128;
    // PR-2's recorded value of the 128-stream/10k-op sweep row on this
    // reference host — the bar the batched drive must beat by >= 1.5x.
    const double pr2_reference = 569260;
    // Extra reps versus the sweep rows: the pair is the acceptance
    // comparison, so its max-throughput estimate gets more samples.
    const int pair_reps = smoke ? reps : std::max(reps, 5);
    const EngineCoreMetrics pc =
        measure_ingest_per_call(n_ops, pair_streams, pair_reps);
    const EngineCoreMetrics ba =
        measure_ingest_batched(n_ops, pair_streams, pair_reps);
    std::fprintf(
        f,
        ",\n  \"ingest_pair\": {\"scenario\": \"contention_dag_ingest\", "
        "\"n_ops\": %d, \"n_streams\": %d, \"ops_per_txn\": 1024,\n"
        "    \"per_call\": {\"ops_per_sec\": %.0f, \"solves_per_op\": %.4f, "
        "\"solved_ops_per_op\": %.4f, \"makespan_us\": %.6f},\n"
        "    \"batched\": {\"ops_per_sec\": %.0f, \"solves_per_op\": %.4f, "
        "\"solved_ops_per_op\": %.4f, \"makespan_us\": %.6f},\n"
        "    \"batched_vs_per_call\": %.3f,\n"
        "    \"pr2_reference_ops_per_sec\": %.0f,\n"
        "    \"batched_speedup_vs_pr2\": %.3f}",
        n_ops, pair_streams, pc.ops_per_sec, pc.solves_per_op,
        pc.solved_ops_per_op, pc.makespan_us, ba.ops_per_sec,
        ba.solves_per_op, ba.solved_ops_per_op, ba.makespan_us,
        pc.ops_per_sec > 0 ? ba.ops_per_sec / pc.ops_per_sec : 0.0,
        pr2_reference, ba.ops_per_sec / pr2_reference);
    std::printf("ingest 128 streams: per-call %.0f ops/s, batched %.0f "
                "ops/s (%.2fx vs per-call, %.2fx vs PR-2's 569k)\n",
                pc.ops_per_sec, ba.ops_per_sec,
                pc.ops_per_sec > 0 ? ba.ops_per_sec / pc.ops_per_sec : 0.0,
                ba.ops_per_sec / pr2_reference);
  }

  // DAG-shape axis: the same kernel mix wired wide / deep / diamond.
  if (want("shapes")) {
    std::fprintf(f, ",\n  \"shapes\": [\n");
    const sim::DagShape shapes[] = {sim::DagShape::Wide, sim::DagShape::Deep,
                                    sim::DagShape::Diamond};
    bool first_shape = true;
    for (const sim::DagShape shape : shapes) {
      const EngineCoreMetrics s = measure_shape(shape, n_ops, 32, reps);
      std::fprintf(f,
                   "%s    {\"scenario\": \"shape_%s\", \"n_ops\": %d, "
                   "\"n_streams\": 32, \"ops_per_sec\": %.0f, "
                   "\"solves_per_op\": %.4f, \"solved_ops_per_op\": %.4f, "
                   "\"makespan_us\": %.6f}",
                   first_shape ? "" : ",\n", sim::to_string(shape), n_ops,
                   s.ops_per_sec, s.solves_per_op, s.solved_ops_per_op,
                   s.makespan_us);
      first_shape = false;
    }
    std::fprintf(f, "\n  ]");
  }

  // Oversubscription sweep: working set {0.5, 1, 1.5, 2}x device
  // capacity through the paged unified-memory runtime. Over-capacity
  // ratios must complete with nonzero evicted bytes and no OOM.
  if (want("oversubscription")) {
    std::fprintf(f, ",\n  \"oversubscription\": [\n");
    const double ratios[] = {0.5, 1.0, 1.5, 2.0};
    bool first_ratio = true;
    for (const double ratio : ratios) {
      const OversubMetrics o = measure_oversubscription(ratio, reps, smoke);
      std::fprintf(f,
                   "%s    {\"scenario\": \"oversubscription\", "
                   "\"ratio\": %.1f, \"working_set_bytes\": %.0f, "
                   "\"ops_per_sec\": %.0f, \"bytes_evicted\": %.0f, "
                   "\"bytes_faulted\": %.0f, \"evict_ops\": %ld, "
                   "\"fault_ops\": %ld, \"prefetch_ops\": %ld, "
                   "\"prefetch_bytes\": %.0f, "
                   "\"wasted_prefetch_bytes\": %.0f, "
                   "\"prefetch_overlap_fraction\": %.4f, "
                   "\"makespan_us\": %.6f}",
                   first_ratio ? "" : ",\n", o.ratio, o.working_set_bytes,
                   o.ops_per_sec, o.bytes_evicted, o.bytes_faulted,
                   o.evict_ops, o.fault_ops, o.prefetch_ops,
                   o.prefetch_bytes, o.wasted_prefetch_bytes,
                   o.prefetch_overlap, o.makespan_us);
      first_ratio = false;
      std::printf("oversubscription %.1fx: %.0f ops/s, %.0f MB evicted, "
                  "%ld evict ops, %ld fault ops, %ld prefetch ops "
                  "(overlap %.2f)\n",
                  o.ratio, o.ops_per_sec, o.bytes_evicted / 1e6, o.evict_ops,
                  o.fault_ops, o.prefetch_ops, o.prefetch_overlap);
    }
    std::fprintf(f, "\n  ],");
    std::fprintf(
        f,
        "\n  \"oversubscription_note\": \"pre-PR-7 this sweep's host "
        "throughput was non-monotone (1.5x: 437k ops/s under 2.0x's "
        "544k) even though virtual-time makespans were ordered: at 1.5x "
        "the per-admission shortfall is smaller than one array, so "
        "admission-time LRU took partial-extent victims and fragmented "
        "the page runs — 53 evict ops vs 28 at 2.0x for less freed "
        "memory, and host cost scales with op count, not bytes. "
        "Schedule-time planning serves the announced frontier in "
        "batches (one coalesced write-back + one fetch per serve, "
        "victims whole-array farthest-next-use), collapsing ~138 "
        "transfer ops to ~32 and resolving the inversion; bench_check "
        "gates makespan monotonicity, zero demand faults, and makespan "
        "ceilings on the planned rows.\"");
  }

  // Million-op Fig. 9-style entry: sustained throughput with the DAG
  // ingested in 20k-op transactions, each drained before the next (live
  // ops stay bounded by the transaction size). Smoke runs shrink it.
  if (want("million_op")) {
    const int big_ops = smoke ? 2000 : 1000000;
    const EngineCoreMetrics big =
        measure_ingest_batched(big_ops, 32, /*reps=*/1, /*ops_per_txn=*/20000,
                               /*drain_between=*/true);
    std::fprintf(f,
                 ",\n  \"million_op\": {\"scenario\": "
                 "\"contention_dag_waves\", \"n_ops\": %d, \"n_streams\": "
                 "32, \"ops_per_txn\": 20000, \"ops_per_sec\": %.0f, "
                 "\"solves_per_op\": %.4f, \"solved_ops_per_op\": %.4f, "
                 "\"peak_resident_ops\": %ld, \"makespan_us\": %.6f}",
                 big_ops, big.ops_per_sec, big.solves_per_op,
                 big.solved_ops_per_op, big.peak_resident_ops,
                 big.makespan_us);
    std::printf("million-op waves: %.0f ops/s over %d ops, peak resident "
                "%ld\n",
                big.ops_per_sec, big_ops, big.peak_resident_ops);
  }

  // Concurrent multi-app rows: {2, 4, 8} tenants through the TenantManager
  // on one capped device — per-tenant throughput, Jain's fairness index
  // over the equal-demand tenants, and eviction attribution (the
  // oversubscribed tenant must bear the brunt; bench_check gates it).
  if (want("multi_app")) {
    std::fprintf(f, ",\n  \"multi_app\": [\n");
    bool first_row = true;
    for (const int n : {2, 4, 8}) {
      const bench::MultiAppMetrics ma = bench::run_multi_app(n, smoke, reps);
      std::fprintf(f,
                   "%s    {\"scenario\": \"multi_app\", \"n_tenants\": %d, "
                   "\"n_kernels\": %ld, \"ops_per_sec\": %.0f, "
                   "\"makespan_us\": %.6f, \"jain_equal\": %.4f, "
                   "\"jain_all\": %.4f, \"bytes_evicted\": %zu, "
                   "\"heavy_bytes_evicted\": %zu,\n      \"per_tenant\": [",
                   first_row ? "" : ",\n", ma.n_tenants, ma.kernels_launched,
                   ma.ops_per_sec, ma.makespan_us, ma.jain_equal, ma.jain_all,
                   ma.bytes_evicted, ma.heavy_bytes_evicted);
      for (std::size_t i = 0; i < ma.tenants.size(); ++i) {
        const bench::TenantMetrics& t = ma.tenants[i];
        std::fprintf(f,
                     "%s{\"tenant\": %d, \"weight\": %.1f, \"ops\": %ld, "
                     "\"work_us\": %.1f, \"finish_us\": %.1f, "
                     "\"work_per_ms\": %.3f, \"bytes_evicted\": %zu, "
                     "\"oversubscribed\": %s}",
                     i == 0 ? "" : ",\n        ", t.id, t.weight, t.ops,
                     t.work_us, t.finish_us, t.work_per_ms, t.bytes_evicted,
                     t.oversubscribed ? "true" : "false");
      }
      std::fprintf(f, "]}");
      first_row = false;
      std::printf("multi_app %d tenants: %.0f launches/s, jain(equal) %.3f, "
                  "%.0f MB evicted (heavy tenant %.0f MB)\n",
                  ma.n_tenants, ma.ops_per_sec, ma.jain_equal,
                  static_cast<double>(ma.bytes_evicted) / 1e6,
                  static_cast<double>(ma.heavy_bytes_evicted) / 1e6);
    }
    std::fprintf(f, "\n  ]");
  }

  // Weighted fair-sharing acceptance: two tenants, weights {2, 1}, one
  // saturated kernel class — completed-work ratio at a mid-run horizon
  // must sit at 2.0 +- 10% (bench_check enforces the band).
  if (want("weighted_pair")) {
    const bench::WeightedPairMetrics w = bench::run_weighted_pair(smoke);
    std::fprintf(f,
                 ",\n  \"weighted_pair\": {\"scenario\": "
                 "\"multi_app_weighted\","
                 " \"weights\": [%.1f, %.1f], \"horizon_us\": %.1f, "
                 "\"work_hi_us\": %.3f, \"work_lo_us\": %.3f, "
                 "\"work_ratio\": %.4f}",
                 w.weight_hi, w.weight_lo, w.horizon_us, w.work_hi, w.work_lo,
                 w.work_ratio);
    std::printf("weighted pair (2:1): work ratio %.3f at t=%.0f us\n",
                w.work_ratio, w.horizon_us);
  }

  // Water-fill-under-many-tenants profiling rows: {8, 32} tenants, one
  // saturated kernel class, alternating 2:1 weights. bench_check gates
  // member_touches_per_op (near zero: group-aggregate re-splits only)
  // and the full-scan count (bounded by the drain tail, not by op
  // count).
  if (want("tenant_waterfill")) {
    std::fprintf(f, ",\n  \"tenant_waterfill\": [\n");
    bool first_wf = true;
    for (const int n : {8, 32}) {
      const TenantWaterfillMetrics wf =
          measure_tenant_waterfill(n, smoke, reps);
      std::fprintf(f,
                   "%s    {\"scenario\": \"tenant_waterfill\", "
                   "\"n_tenants\": %d, \"n_ops\": %ld, "
                   "\"ops_per_sec\": %.0f, \"solves_per_op\": %.4f, "
                   "\"member_touches_per_op\": %.4f, \"full_scans\": %ld, "
                   "\"makespan_us\": %.6f}",
                   first_wf ? "" : ",\n", wf.n_tenants, wf.n_ops,
                   wf.ops_per_sec, wf.solves_per_op,
                   wf.member_touches_per_op, wf.full_scans, wf.makespan_us);
      first_wf = false;
      std::printf("tenant_waterfill %d tenants: %.0f ops/s, %.4f "
                  "member-touches/op, %ld full scans\n",
                  wf.n_tenants, wf.ops_per_sec, wf.member_touches_per_op,
                  wf.full_scans);
    }
    std::fprintf(f, "\n  ]");
  }

  // Contended concurrent-ingestion acceptance: 8 producer threads x 4
  // shards flooding recorded multi_app rounds through the MPSC front-end
  // versus the same schedule replayed per call from one thread. The
  // speedup is commit amortization (bench_check gates it at >= 3x).
  if (want("concurrent_ingest")) {
    const int rounds = smoke ? 5 : 400;
    const ConcurrentIngestMetrics ci =
        measure_concurrent_ingest(8, 4, rounds, reps);
    std::fprintf(f,
                 ",\n  \"concurrent_ingest\": {\"scenario\": "
                 "\"multi_app_flood\", \"n_producers\": %d, \"n_shards\": %d, "
                 "\"rounds\": %d, \"ops\": %ld,\n"
                 "    \"single_thread\": {\"ops_per_sec\": %.0f},\n"
                 "    \"concurrent\": {\"ops_per_sec\": %.0f},\n"
                 "    \"speedup\": %.3f}",
                 ci.n_producers, ci.n_shards, ci.rounds, ci.total_ops,
                 ci.single_ops_per_sec, ci.concurrent_ops_per_sec, ci.speedup);
    std::printf("concurrent ingest (%d producers, %d shards): single %.0f "
                "ops/s, concurrent %.0f ops/s (%.2fx)\n",
                ci.n_producers, ci.n_shards, ci.single_ops_per_sec,
                ci.concurrent_ops_per_sec, ci.speedup);
  }

  // Latency QoS acceptance: one latency-critical tenant against three
  // saturating batch floods, run twice (plain weighted fair sharing vs a
  // QosManager driving EEVDF keys + p99 re-weighting). Deterministic in
  // virtual time. bench_check gates p99_ratio <= 0.5 (the QoS p99 at
  // most half the plain-sharing p99) and batch_ratio >= 0.8 (batch
  // throughput keeps >= 80%), plus a no-vacuous-pass sample check.
  if (want("qos_mixed")) {
    const bench::QosMixedMetrics q = bench::run_qos_mixed(smoke);
    std::fprintf(f,
                 ",\n  \"qos_mixed\": {\"scenario\": \"qos_mixed\", "
                 "\"target_p99_us\": %.1f, \"latency_ops\": %ld,\n"
                 "    \"baseline\": {\"p50_us\": %.4f, \"p99_us\": %.4f, "
                 "\"batch_work_us\": %.1f},\n"
                 "    \"qos\": {\"p50_us\": %.4f, \"p99_us\": %.4f, "
                 "\"batch_work_us\": %.1f, \"final_weight\": %.3f, "
                 "\"deadline_misses\": %ld},\n"
                 "    \"p99_ratio\": %.4f, \"batch_ratio\": %.4f}",
                 q.target_p99_us, q.latency_ops, q.base_p50_us, q.base_p99_us,
                 q.base_batch_work, q.qos_p50_us, q.qos_p99_us,
                 q.qos_batch_work, q.final_weight, q.deadline_misses,
                 q.p99_ratio, q.batch_ratio);
    std::printf("qos_mixed: p99 %.2f -> %.2f us (ratio %.3f, target %.1f), "
                "batch work %.0f -> %.0f us (ratio %.3f), final weight %.2f\n",
                q.base_p99_us, q.qos_p99_us, q.p99_ratio, q.target_p99_us,
                q.base_batch_work, q.qos_batch_work, q.batch_ratio,
                q.final_weight);
  }

  std::fprintf(f, "\n}\n");
  std::fclose(f);
  if (have_headline) {
    std::printf("engine core: %.0f ops/s (seed scan-per-step engine: ~213k), "
                "%.2f solved ops/op, peak resident %ld -> %s\n",
                m.ops_per_sec, m.solved_ops_per_op, m.peak_resident_ops, path);
  } else {
    std::printf("section %s -> %s\n", only_section, path);
  }
}

/// Every `--section=` name write_bench_json understands, in emission
/// order. Keep in sync with the want(...) calls above.
constexpr const char* kSections[] = {
    "headline",      "sweep",     "ingest_pair",       "shapes",
    "oversubscription", "million_op", "multi_app",     "weighted_pair",
    "tenant_waterfill", "concurrent_ingest", "qos_mixed"};

}  // namespace

int main(int argc, char** argv) {
  // Peel off --bench_json=<path> / --smoke / --section=<name> /
  // --reps=<n> / --list-sections before google-benchmark sees the argv.
  const char* json_path = nullptr;
  const char* section = nullptr;
  bool smoke = false;
  int reps = 0;  // 0 = the per-mode default (3 full / 1 smoke)
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--bench_json=", 13) == 0) {
      json_path = argv[i] + 13;
    } else if (std::strncmp(argv[i], "--section=", 10) == 0) {
      section = argv[i] + 10;
    } else if (std::strncmp(argv[i], "--reps=", 7) == 0) {
      reps = std::atoi(argv[i] + 7);
      if (reps <= 0) {
        std::fprintf(stderr, "--reps wants a positive integer, got %s\n",
                     argv[i] + 7);
        return 1;
      }
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--list-sections") == 0) {
      for (const char* name : kSections) std::printf("%s\n", name);
      return 0;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;

  if (json_path != nullptr) {
    write_bench_json(json_path, smoke, section, reps);
    return 0;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
