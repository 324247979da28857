// End-to-end benchmark: four workloads driven through the public API of
// each layer, from rt::Context down to the bare Engine.
//
//   e2e_bench --workload=<name> --seed=<n> [--seconds=<s>] [--trace=<file>]
//             [--smoke] [--check]
//
// Workloads (see README.md for why each was chosen):
//   paper_suite  B1-B6 through rt::Context, parallel policy, per-call
//                submission, Tesla P100, middle fitting scale.
//   dag_flood    the seeded multi-device contention op mix in 1024-op
//                engine transactions over 128 streams on 4 NVLinked GPUs.
//   tenant_mix   one latency-critical tenant (open loop, Poisson) against
//                three closed-loop batch tenants posting recorded rounds
//                through an IngestService, under a QosManager.
//   oversub      a 16-kernel TaskGraph chain over managed arrays summing
//                to 1.5x device memory, replayed batched + synchronized.
//
// A run prepares once (reference runs, correctness checks, the report
// layer's input), runs one untimed warm-up slice, then runs timed
// *slices* for --seconds, with the report layer's timed reps spread
// evenly between them. Every slice builds a fresh runtime from the same
// seeded inputs and issues at least 1000 requests. Virtual-time results
// must be bit-identical on every slice. Set-up time is each slice's
// construction phase. Host-time metrics are a low percentile over slices
// (see run()). With --trace every other slice runs with spans around the
// benchmark's calls into each layer; end-to-end metrics come from the
// untraced slices only.
//
// The last line of stdout is one JSON object with every metric's value;
// bench/e2e/run.py attaches the units from BENCHMARK.json and selects the
// end-to-end or per-layer set.
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_suite/runner.hpp"
#include "bench_suite/scales.hpp"
#include "inputs.hpp"
#include "kernels/registry.hpp"
#include "sim/graph.hpp"
#include "sim/ingest_queue.hpp"
#include "sim/profiler.hpp"
#include "sim/qos.hpp"
#include "sim/tenant.hpp"
#include "trace.hpp"

namespace e2e {
namespace {

namespace sim = psched::sim;
namespace rt = psched::rt;
namespace bs = psched::benchsuite;

using Clock = std::chrono::steady_clock;
using Facts = std::map<std::string, double>;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------

/// Nearest-rank quantile (0 for an empty sample).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// Median, averaging the middle pair of an even-sized sample.
double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// One request's host cost: wall time and the ops it carried.
struct Request {
  double wall_ns = 0;
  long ops = 0;
};

/// Quantile of per-op request time, each request weighted by its ops.
double per_op_quantile(std::vector<Request> rs, double q) {
  if (rs.empty()) return 0;
  std::sort(rs.begin(), rs.end(), [](const Request& a, const Request& b) {
    return a.wall_ns / static_cast<double>(a.ops) <
           b.wall_ns / static_cast<double>(b.ops);
  });
  double total = 0;
  for (const Request& r : rs) total += static_cast<double>(r.ops);
  double cum = 0;
  for (const Request& r : rs) {
    cum += static_cast<double>(r.ops);
    if (cum >= q * total) return r.wall_ns / static_cast<double>(r.ops);
  }
  return rs.back().wall_ns / static_cast<double>(rs.back().ops);
}

// ---------------------------------------------------------------------
// Workload interface
// ---------------------------------------------------------------------

/// Correctness-check tally (feeds `attempted` / `failed`).
struct Checks {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
};

/// Everything one slice measured.
struct SliceOut {
  double wall_s = 0;   ///< construction + requests + drain + teardown
  double setup_s = 0;  ///< construction phase
  long ops = 0;
  long failed_requests = 0;
  std::vector<Request> requests;
  std::vector<double> latency_us;  ///< virtual request latencies
  double solve_us = 0;             ///< engine re-solve host time (traced)
  /// Deterministic results: virtual-time figures and layer counters.
  /// Every slice of a run must reproduce them exactly.
  Facts facts;
  Checks checks;
};

/// Timelines (and rt DAGs) of a bounded reference run, for timing the
/// report layer. `keep` owns the runtimes they live in.
struct ReportRun {
  std::shared_ptr<void> keep;
  std::vector<const sim::Timeline*> timelines;
  std::vector<sim::DeviceSpec> specs;  ///< one per timeline
  std::vector<const rt::DagRecorder*> dags;
  double pcie_bytes_per_us = 0;
};

/// A report run over the first `n` entries of `tl`: workloads whose
/// timeline length depends on the seed report on a fixed-size prefix, so
/// the report layer's (super-linear) cost compares across seeds.
ReportRun report_prefix(const sim::Timeline& tl, std::size_t n,
                        const sim::DeviceSpec& spec) {
  if (tl.entries().size() < n) {
    throw std::runtime_error("report run recorded only " +
                             std::to_string(tl.entries().size()) + " of " +
                             std::to_string(n) + " timeline entries");
  }
  auto prefix = std::make_shared<sim::Timeline>();
  for (std::size_t i = 0; i < n; ++i) prefix->record(tl.entries()[i]);
  ReportRun r;
  r.timelines.push_back(prefix.get());
  r.specs.push_back(spec);
  r.keep = std::move(prefix);
  return r;
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// One-time reference runs and correctness checks.
  virtual void prepare(Checks& checks, Facts& facts) = 0;
  /// One timed slice in a fresh runtime; spans go to `tr` when enabled.
  virtual SliceOut slice(Tracer& tr) = 0;
  virtual ReportRun report_run() = 0;
};

/// Counters every engine exposes, normalized per workload op.
void engine_facts(const std::vector<const sim::Engine*>& engines, long ops,
                  Facts& f) {
  double solves = 0, solved = 0, touches = 0, scans = 0, links = 0, peak = 0;
  for (const sim::Engine* e : engines) {
    solves += static_cast<double>(e->solve_count());
    solved += static_cast<double>(e->solved_ops());
    touches += static_cast<double>(e->member_touch_count());
    scans += static_cast<double>(e->full_scan_count());
    for (sim::DeviceId a = 0; a < e->num_devices(); ++a) {
      for (sim::DeviceId b = 0; b < e->num_devices(); ++b) {
        if (a != b) links += static_cast<double>(e->link_solve_count(a, b));
      }
    }
    peak = std::max(peak, static_cast<double>(e->peak_resident_ops()));
  }
  const double n = static_cast<double>(std::max(ops, 1L));
  f["engine.solves_per_op"] = solves / n;
  f["engine.solved_ops_per_op"] = solved / n;
  f["engine.member_touches_per_op"] = touches / n;
  f["engine.full_scans"] = scans;
  f["engine.link_solves"] = links;
  f["engine.peak_resident_ops"] = peak;
}

/// Paging counters of runtimes, per request ("round").
void memory_facts(const std::vector<const sim::GpuRuntime*>& gpus,
                  long rounds, Facts& f) {
  double evict = 0, fault = 0, pf = 0, evicted = 0, pf_bytes = 0, wasted = 0;
  double overlap = 0;
  for (const sim::GpuRuntime* g : gpus) {
    evict += static_cast<double>(g->evict_ops());
    fault += static_cast<double>(g->fault_ops());
    pf += static_cast<double>(g->prefetch_ops());
    evicted += static_cast<double>(g->bytes_evicted());
    pf_bytes += g->prefetch_bytes();
    wasted += static_cast<double>(g->wasted_prefetch_bytes());
    overlap = std::max(overlap, g->prefetch_overlap_fraction());
  }
  const double n = static_cast<double>(std::max(rounds, 1L));
  f["memory.evict_ops_per_round"] = evict / n;
  f["memory.fault_ops_per_round"] = fault / n;
  f["memory.prefetch_ops_per_round"] = pf / n;
  f["memory.bytes_evicted_per_round"] = evicted / n;
  f["memory.prefetch_useful_frac"] = pf_bytes > 0 ? 1.0 - wasted / pf_bytes : 0;
  f["memory.prefetch_overlap"] = overlap;
}

void api_facts(const std::vector<const sim::GpuRuntime*>& gpus, Facts& f) {
  double ops = 0, commits = 0;
  for (const sim::GpuRuntime* g : gpus) {
    ops += static_cast<double>(g->batched_ops());
    commits += static_cast<double>(g->batch_commits());
  }
  f["api.ops_per_commit"] = commits > 0 ? ops / commits : 0;
}

/// Run one request: wall-timed, wrapped in a "bench.request" span, and
/// counted as failed (not rethrown) if a layer throws. Returns false on
/// failure so the slice can stop issuing.
template <typename F>
bool timed_request(Tracer& tr, SliceOut& out, long ops, F&& body) {
  tr.set_request(static_cast<long>(out.requests.size()));
  const auto t0 = Clock::now();
  try {
    tr.span("bench.request", body);
  } catch (const std::exception& e) {
    ++out.failed_requests;
    out.checks.expect(false, std::string("request threw: ") + e.what());
    return false;
  }
  out.requests.push_back(
      {std::chrono::duration<double, std::nano>(Clock::now() - t0).count(),
       ops});
  out.ops += ops;
  return true;
}

// ---------------------------------------------------------------------
// paper_suite: B1-B6 through rt::Context
// ---------------------------------------------------------------------

class PaperSuite final : public Workload {
 public:
  PaperSuite(std::uint64_t seed, bool smoke) : smoke_(smoke) {
    for (const ProgramInput& in : paper_suite_inputs(seed)) {
      Prog p;
      p.bench = bs::make_benchmark(in.id);
      const std::vector<long> scales = bs::fitting_scales(in.id, spec_);
      const long mid = scales[scales.size() / 2];
      p.cfg.scale = std::max(
          1L, std::lround(static_cast<double>(mid) * in.scale_factor));
      p.cfg.block_size = in.block_size;
      p.cfg.functional = false;
      progs_.push_back(std::move(p));
    }
  }

  void prepare(Checks& checks, Facts& facts) override {
    // Slice iterations: about the same number of launches per program.
    const double launches = smoke_ ? 60 : 6000;
    Tracer off;
    for (Prog& p : progs_) {
      const Session s = make_session(p, off);
      p.kernels_per_iter = static_cast<long>(
          s.step_kernel.size() -
          std::count(s.step_kernel.begin(), s.step_kernel.end(), nullptr));
      p.slice_iters = std::max(
          1, static_cast<int>(std::lround(
                 launches / static_cast<double>(p.kernels_per_iter))));
    }

    // Fig. 7 / Fig. 8 reference runs at default iterations.
    double makespan = 0;
    std::vector<double> vs_serial, vs_hand;
    for (const Prog& p : progs_) {
      const double par = bs::run_benchmark(*p.bench, bs::Variant::GrcudaParallel,
                                           spec_, p.cfg)
                             .gpu_time_us;
      const double ser = bs::run_benchmark(*p.bench, bs::Variant::GrcudaSerial,
                                           spec_, p.cfg)
                             .gpu_time_us;
      const double hand =
          bs::run_benchmark(*p.bench, bs::Variant::HandTuned, spec_, p.cfg)
              .gpu_time_us;
      makespan += par;
      vs_serial.push_back(ser / par);
      vs_hand.push_back(par / hand);
    }
    facts["makespan_ms"] = makespan / 1e3;
    facts["rt.speedup_vs_serial"] = bs::geomean(vs_serial);
    facts["rt.vs_handtuned"] = bs::geomean(vs_hand);

    // Functional equivalence at test scale (the tests/bench_suite check).
    const sim::DeviceSpec test = sim::DeviceSpec::test_device();
    for (const Prog& p : progs_) {
      bs::RunConfig cfg;
      cfg.scale = p.bench->test_scale();
      cfg.block_size = p.cfg.block_size;
      cfg.functional = true;
      const double ref =
          bs::run_benchmark(*p.bench, bs::Variant::GrcudaSerial, test, cfg)
              .checksum;
      checks.expect(ref != 0, p.bench->name() + ": degenerate checksum");
      for (const bs::Variant v :
           {bs::Variant::GrcudaParallel, bs::Variant::HandTuned,
            bs::Variant::GraphsManual}) {
        const double got = bs::run_benchmark(*p.bench, v, test, cfg).checksum;
        checks.expect(std::abs(got - ref) <= std::abs(ref) * 1e-5 + 1e-9,
                      p.bench->name() + " " + bs::to_string(v) +
                          ": checksum differs from serial");
      }
    }
  }

  SliceOut slice(Tracer& tr) override {
    SliceOut out;
    const auto t0 = Clock::now();
    {
      std::vector<Session> sessions;
      sessions.reserve(progs_.size());
      for (const Prog& p : progs_) sessions.push_back(make_session(p, tr));
      out.setup_s = seconds_since(t0);
      for (Session& s : sessions) {
        s.gpu->engine().set_solve_timing(tr.enabled());
      }

      long kernels_issued = 0;
      for (std::size_t i = 0; i < progs_.size(); ++i) {
        Session& s = sessions[i];
        const long ops = static_cast<long>(s.prog.iteration.size());
        for (int it = 0; it < progs_[i].slice_iters; ++it) {
          const double v0 = s.gpu->now();
          const bool ok = timed_request(tr, out, ops, [&] {
            run_iteration(s, tr);
          });
          if (!ok) break;
          out.latency_us.push_back(s.gpu->now() - v0);
          kernels_issued += progs_[i].kernels_per_iter;
        }
        tr.span("rt.synchronize", [&] { s.ctx->synchronize(); });
      }

      std::vector<const sim::Engine*> engines;
      std::vector<const sim::GpuRuntime*> gpus;
      rt::ContextStats sum;
      double makespan = 0, bytes_h2d = 0;
      bool idle = true;
      for (const Session& s : sessions) {
        engines.push_back(&s.gpu->engine());
        gpus.push_back(s.gpu.get());
        const rt::ContextStats st = s.ctx->stats();
        sum.kernels += st.kernels;
        sum.edges += st.edges;
        sum.event_waits += st.event_waits;
        sum.prefetches += st.prefetches;
        sum.streams_created += st.streams_created;
        makespan += s.gpu->timeline().makespan();
        bytes_h2d += s.gpu->bytes_h2d();
        out.solve_us += s.gpu->engine().solve_time_us();
        idle = idle && s.gpu->engine().all_idle();
      }
      out.checks.expect(idle, "paper_suite: device work left after sync");
      out.checks.expect(sum.kernels == kernels_issued,
                        "paper_suite: context registered " +
                            std::to_string(sum.kernels) + " of " +
                            std::to_string(kernels_issued) + " launches");
      const double k = static_cast<double>(std::max(sum.kernels, 1L));
      out.facts["paper.slice_makespan_ms"] = makespan / 1e3;
      out.facts["rt.edges_per_kernel"] = static_cast<double>(sum.edges) / k;
      out.facts["rt.event_waits_per_kernel"] =
          static_cast<double>(sum.event_waits) / k;
      out.facts["rt.prefetches_per_kernel"] =
          static_cast<double>(sum.prefetches) / k;
      out.facts["rt.streams"] = static_cast<double>(sum.streams_created);
      out.facts["memory.bytes_h2d_per_kernel"] = bytes_h2d / k;
      engine_facts(engines, out.ops, out.facts);
      memory_facts(gpus, static_cast<long>(out.requests.size()), out.facts);
      api_facts(gpus, out.facts);
    }
    out.wall_s = seconds_since(t0);
    return out;
  }

  ReportRun report_run() override {
    // The report layer's reference input: a 20-iteration parallel run of
    // each program (short enough to repeat through the timed phase).
    auto sessions = std::make_shared<std::vector<Session>>();
    Tracer off;
    for (const Prog& p : progs_) {
      sessions->push_back(make_session(p, off));
      Session& s = sessions->back();
      for (int it = 0; it < (smoke_ ? 2 : 20); ++it) run_iteration(s, off);
      s.ctx->synchronize();
    }
    ReportRun r;
    for (const Session& s : *sessions) {
      r.timelines.push_back(&s.gpu->timeline());
      r.specs.push_back(spec_);
      r.dags.push_back(&s.ctx->dag());
    }
    r.pcie_bytes_per_us = spec_.pcie_bytes_per_us();
    r.keep = std::move(sessions);
    return r;
  }

 private:
  struct Prog {
    std::unique_ptr<bs::Benchmark> bench;
    bs::RunConfig cfg;
    long kernels_per_iter = 0;
    int slice_iters = 1;
  };
  /// One program's runtime, context, built program and resolved kernels.
  /// Member order is destruction order in reverse: the program's arrays
  /// and the kernels go before the context, the context before the
  /// runtime.
  struct Session {
    std::unique_ptr<sim::GpuRuntime> gpu;
    std::unique_ptr<rt::Context> ctx;
    std::deque<rt::Kernel> kernels;
    bs::Program prog;
    std::vector<const rt::Kernel*> step_kernel;  ///< per iteration step
  };

  Session make_session(const Prog& p, Tracer& tr) const {
    Session s;
    s.gpu = tr.span("api.construct",
                    [&] { return std::make_unique<sim::GpuRuntime>(spec_); });
    rt::Options opts = psched::kernels::default_options();
    opts.functional = false;
    s.ctx = tr.span("rt.construct", [&] {
      return std::make_unique<rt::Context>(*s.gpu, opts);
    });
    s.prog = tr.span("rt.build_program",
                     [&] { return p.bench->build(*s.ctx, p.cfg); });
    // Resolve each (kernel, signature) pair once, as a host program would.
    std::map<std::pair<std::string, std::string>, const rt::Kernel*> cache;
    for (const bs::Step& st : s.prog.iteration) {
      const rt::Kernel* k = nullptr;
      if (st.kind == bs::Step::Kind::Kernel) {
        auto& slot = cache[{st.kernel, st.signature}];
        if (slot == nullptr) {
          s.kernels.push_back(tr.span("rt.build_kernel", [&] {
            return s.ctx->build_kernel(st.kernel, st.signature);
          }));
          slot = &s.kernels.back();
        }
        k = slot;
      }
      s.step_kernel.push_back(k);
    }
    for (bs::Step& st : s.prog.setup) {
      tr.span("rt.setup_write", [&] { st.array.touch_write(); });
    }
    return s;
  }

  static void run_iteration(Session& s, Tracer& tr) {
    for (std::size_t j = 0; j < s.prog.iteration.size(); ++j) {
      bs::Step& st = s.prog.iteration[j];
      switch (st.kind) {
        case bs::Step::Kind::Kernel:
          tr.span("rt.launch", [&] {
            s.step_kernel[j]->configure(st.config).launch(st.values);
          });
          break;
        case bs::Step::Kind::HostWrite:
          tr.span("rt.host_write", [&] { st.array.touch_write(); });
          break;
        case bs::Step::Kind::HostRead:
          tr.span("rt.host_read", [&] { st.array.touch_read(); });
          break;
      }
    }
  }

  bool smoke_;
  sim::DeviceSpec spec_ = sim::DeviceSpec::tesla_p100();
  std::vector<Prog> progs_;
};

// ---------------------------------------------------------------------
// dag_flood: engine transactions of the contention op mix
// ---------------------------------------------------------------------

class DagFlood final : public Workload {
 public:
  static constexpr int kDevices = 4;
  static constexpr int kStreams = 128;
  static constexpr int kOpsPerWave = 1024;

  DagFlood(std::uint64_t seed, bool smoke)
      : waves_per_slice_(smoke ? 20 : 1000),
        machine_(sim::Machine::uniform(sim::DeviceSpec::test_device(),
                                       kDevices, /*nvlink_all_pairs=*/true)),
        waves_(flood_waves(seed, waves_per_slice_, kOpsPerWave, kStreams,
                           kDevices)) {}

  void prepare(Checks&, Facts&) override {}

  SliceOut slice(Tracer& tr) override {
    SliceOut out;
    const auto t0 = Clock::now();
    {
      const auto eng = make_engine(tr);
      out.setup_s = seconds_since(t0);
      eng->set_solve_timing(tr.enabled());
      long recorded = 0;
      for (int w = 0; w < waves_per_slice_; ++w) {
        double latency = 0;
        const bool ok = timed_request(tr, out, kOpsPerWave, [&] {
          latency = run_wave(*eng, waves_[static_cast<std::size_t>(w)], tr);
        });
        if (!ok) break;
        out.latency_us.push_back(latency);
        // Waves are independent once drained: drop their timeline entries
        // (counted first) so a slice's memory stays bounded.
        recorded += static_cast<long>(eng->timeline().entries().size());
        eng->timeline().clear();
      }
      out.checks.expect(eng->all_idle(), "dag_flood: ops left after drain");
      out.checks.expect(recorded == out.ops,
                        "dag_flood: " + std::to_string(recorded) + " of " +
                            std::to_string(out.ops) + " ops completed");
      out.solve_us = eng->solve_time_us();
      out.facts["makespan_ms"] = eng->now() / 1e3;
      engine_facts({eng.get()}, out.ops, out.facts);
    }
    out.wall_s = seconds_since(t0);
    return out;
  }

  ReportRun report_run() override {
    Tracer off;
    std::shared_ptr<sim::Engine> eng = make_engine(off);
    for (int w = 0; w < 2; ++w) {
      run_wave(*eng, waves_[static_cast<std::size_t>(w)], off);
    }
    ReportRun r;
    r.timelines.push_back(&eng->timeline());
    r.specs.push_back(sim::DeviceSpec::test_device());
    r.keep = std::move(eng);
    return r;
  }

 private:
  std::unique_ptr<sim::Engine> make_engine(Tracer& tr) const {
    return tr.span("engine.construct", [&] {
      auto eng = std::make_unique<sim::Engine>(machine_);
      for (int j = 1; j < kStreams; ++j) {
        eng->create_stream(static_cast<sim::DeviceId>(j % kDevices));
      }
      return eng;
    });
  }

  /// One request: the whole wave as one transaction, then drained.
  /// Returns the wave's virtual makespan.
  static double run_wave(sim::Engine& eng, const std::vector<FloodCall>& wave,
                         Tracer& tr) {
    const sim::TimeUs t = eng.now();
    tr.span("engine.begin", [&] { eng.begin_transaction(t); });
    for (const FloodCall& c : wave) {
      if (c.record_on >= 0) {
        tr.span("engine.event", [&] {
          const sim::EventId ev = eng.create_event();
          eng.record_event(ev, c.record_on, t);
          eng.wait_event(c.stream, ev, t);
        });
      }
      sim::Op op = make_op(c, kDevices);
      tr.span("engine.enqueue", [&] { eng.enqueue(std::move(op), t); });
    }
    tr.span("engine.commit", [&] { eng.commit_transaction(); });
    tr.span("engine.drain", [&] { eng.run_all(); });
    return eng.now() - t;
  }

  int waves_per_slice_;
  sim::Machine machine_;
  std::vector<std::vector<FloodCall>> waves_;
};

// ---------------------------------------------------------------------
// tenant_mix: latency tenant vs closed-loop batch tenants, via ingest
// ---------------------------------------------------------------------

class TenantMix final : public Workload {
 public:
  static constexpr int kBatchTenants = 3;
  static constexpr int kRoundsInFlight = 2;
  static constexpr double kTargetP99Us = 3.0;
  static constexpr double kMeanGapUs = 50.0;

  static constexpr int kReportSteps = 400;

  TenantMix(std::uint64_t seed, bool smoke)
      : steps_(smoke ? 120 : 10000),
        warmup_(smoke ? 20 : 1000),
        arrivals_(latency_arrivals(seed, std::max(steps_, kReportSteps),
                                   kMeanGapUs)) {}

  void prepare(Checks&, Facts&) override {}

  SliceOut slice(Tracer& tr) override {
    SliceOut out;
    const auto t0 = Clock::now();
    {
      const std::unique_ptr<Session> s = make_session(tr);
      out.setup_s = seconds_since(t0);
      s->gpu->engine().set_solve_timing(tr.enabled());
      run_steps(*s, tr, steps_, &out);

      // Measured window ends here: read progress before the tail drains.
      std::vector<double> work;
      for (int b = 0; b < kBatchTenants; ++b) {
        work.push_back(s->batch[static_cast<std::size_t>(b)].tenant->work_progress() -
                       s->batch[static_cast<std::size_t>(b)].work_at_warmup);
      }
      const double window_ms = (s->gpu->now() - s->warmup_end_us) / 1e3;
      const sim::QosTenantStats qs = s->latency->qos_stats();
      tr.span("api.synchronize", [&] { s->gpu->synchronize_device(); });

      for (std::size_t i = static_cast<std::size_t>(warmup_);
           i < s->issued.size(); ++i) {
        out.latency_us.push_back(s->gpu->engine().op(s->issued[i]).end_time -
                                 s->due[i]);
      }
      std::vector<double> late(s->late.begin() + warmup_, s->late.end());
      const sim::IngestStats ing = s->ingest->stats();
      bool all_done = s->gpu->engine().all_idle();
      for (const Batch& b : s->batch) {
        all_done = all_done &&
                   b.tenant->ops_completed() - b.completed_base == b.posted_ops;
      }
      out.checks.expect(all_done, "tenant_mix: posted ops left incomplete");
      out.checks.expect(ing.errors == 0 && ing.rejected == 0,
                        "tenant_mix: ingest errors or rejections");

      double total_work = 0;
      for (const double w : work) total_work += w;
      out.facts["makespan_ms"] = (s->gpu->now() - s->start_us) / 1e3;
      out.facts["tenant.jain"] = sim::TenantManager::jain_index(work);
      out.facts["tenant.batch_work_per_ms"] = total_work / window_ms;
      out.facts["qos.final_weight"] = qs.weight;
      out.facts["qos.deadline_misses"] = static_cast<double>(qs.deadline_misses);
      out.facts["qos.gen_late_us_p99"] = quantile(late, 0.99);
      out.facts["ingest.ops_per_batch"] =
          ing.batches > 0 ? static_cast<double>(ing.ops) /
                                static_cast<double>(ing.batches)
                          : 0;
      out.facts["ingest.errors"] = static_cast<double>(ing.errors);
      out.facts["ingest.rejected"] = static_cast<double>(ing.rejected);
      out.facts["ingest.deferred"] = static_cast<double>(ing.deferred);
      out.facts["ingest.clamped"] = static_cast<double>(ing.clamped);
      out.solve_us = s->gpu->engine().solve_time_us();
      engine_facts({&s->gpu->engine()}, out.ops, out.facts);
      memory_facts({s->gpu.get()}, static_cast<long>(out.requests.size()),
                   out.facts);
      api_facts({s->gpu.get()}, out.facts);
    }
    out.wall_s = seconds_since(t0);
    return out;
  }

  ReportRun report_run() override {
    Tracer off;
    const std::unique_ptr<Session> s = make_session(off);
    run_steps(*s, off, kReportSteps, nullptr);
    s->gpu->synchronize_device();
    return report_prefix(s->gpu->timeline(), 2000,
                         sim::DeviceSpec::test_device());
  }

 private:
  struct Batch {
    sim::Tenant* tenant = nullptr;
    sim::Submission round;  ///< recorded once, replayed through ingest
    long ops_per_round = 0;
    long posted_ops = 0;
    long completed_base = 0;
    double work_at_warmup = 0;
  };
  /// Member order is teardown order in reverse: the QoS manager detaches
  /// first, then the ingest service flushes and joins its thread, then the
  /// tenants and the runtime go.
  struct Session {
    std::unique_ptr<sim::GpuRuntime> gpu;
    std::unique_ptr<sim::TenantManager> mgr;
    std::deque<Batch> batch;
    sim::Tenant* latency = nullptr;
    sim::StreamId latency_stream = sim::kInvalidStream;
    std::unique_ptr<sim::IngestService> ingest;
    std::unique_ptr<sim::QosManager> qos;
    double start_us = 0;
    double warmup_end_us = 0;
    std::vector<sim::OpId> issued;  ///< latency request ops, in order
    std::vector<double> due;        ///< their due times
    std::vector<double> late;       ///< issue minus due
  };

  static sim::LaunchSpec batch_kernel() {
    sim::LaunchSpec k;
    k.name = "batch";
    k.config = sim::LaunchConfig::linear(8, 512);
    k.profile.flops_sp = 2.56e6;  // 5 us solo, fills the test device
    return k;
  }

  std::unique_ptr<Session> make_session(Tracer& tr) const {
    auto s = std::make_unique<Session>();
    s->gpu = tr.span("api.construct", [] {
      return std::make_unique<sim::GpuRuntime>(sim::DeviceSpec::test_device());
    });
    tr.span("tenant.construct", [&] {
      s->mgr = std::make_unique<sim::TenantManager>(*s->gpu);
      sim::TenantSpec lat;
      lat.name = "latency";
      lat.service_class = sim::ServiceClass::LatencyCritical;
      lat.target_p99_us = kTargetP99Us;
      s->latency = &s->mgr->create_tenant(lat);
      s->latency_stream = s->latency->create_stream();
      const sim::LaunchSpec k = batch_kernel();
      for (int b = 0; b < kBatchTenants; ++b) {
        Batch& bt = s->batch.emplace_back();
        bt.tenant = &s->mgr->create_tenant({.name = "batch" + std::to_string(b)});
        const sim::StreamId s0 = bt.tenant->create_stream();
        const sim::StreamId s1 = bt.tenant->create_stream();
        const sim::EventId ev = bt.tenant->create_event();
        // One round: two independent kernels, then a join kernel behind
        // a cross-stream event edge.
        sim::GpuRuntime& g = bt.tenant->gpu();
        g.begin_record(bt.round);
        bt.tenant->launch(s0, k);
        bt.tenant->launch(s1, k);
        bt.tenant->record_event(ev, s0);
        bt.tenant->stream_wait_event(s1, ev);
        bt.tenant->launch(s1, k);
        bt.ops_per_round = static_cast<long>(g.end_record());
        bt.tenant->synchronize();
        bt.completed_base = bt.tenant->ops_completed();
      }
    });
    tr.span("ingest.construct", [&] {
      s->ingest = std::make_unique<sim::IngestService>(
          *s->gpu, sim::IngestService::Config{.shards = 1, .max_batch = 256});
      s->mgr->attach_ingest(*s->ingest);
    });
    tr.span("qos.construct",
            [&] { s->qos = std::make_unique<sim::QosManager>(*s->mgr); });
    s->start_us = s->gpu->now();
    return s;
  }

  /// `n` driver steps. Each refills the batch tenants to kRoundsInFlight
  /// recorded rounds (one post + flush per round: a drain batch then always
  /// holds exactly one item, so the schedule cannot depend on when the
  /// ingest thread wakes), then issues the latency request due next and
  /// ticks the QoS manager.
  void run_steps(Session& s, Tracer& tr, int n, SliceOut* out) const {
    sim::LaunchSpec req = batch_kernel();
    req.name = "request";
    for (int i = 0; i < n; ++i) {
      if (i == warmup_) {
        s.qos->reset_stats();
        s.warmup_end_us = s.gpu->now();
        for (Batch& b : s.batch) b.work_at_warmup = b.tenant->work_progress();
      }
      const LatencyRequest& r = arrivals_[static_cast<std::size_t>(i)];
      const double due = s.start_us + r.due_us;
      req.profile.flops_sp = r.solo_us * 0.512e6;  // 512 GFLOP/s device
      long ops = 1;
      const auto body = [&] {
        for (Batch& b : s.batch) {
          for (;;) {
            const long inflight = b.posted_ops - (b.tenant->ops_completed() -
                                                  b.completed_base);
            if (inflight + b.ops_per_round >
                kRoundsInFlight * b.ops_per_round) {
              break;
            }
            tr.span("ingest.post", [&] { b.tenant->post_replay(b.round); });
            tr.span("ingest.flush", [&] { b.tenant->flush_ingest_and_wait(); });
            b.posted_ops += b.ops_per_round;
            ops += b.ops_per_round;
          }
        }
        if (s.gpu->now() < due) {
          tr.span("api.host_advance",
                  [&] { s.gpu->host_advance(due - s.gpu->now()); });
        }
        const sim::OpId id = tr.span("tenant.launch", [&] {
          return s.latency->launch(s.latency_stream, req);
        });
        s.issued.push_back(id);
        s.due.push_back(due);
        s.late.push_back(s.gpu->now() - due);
        tr.span("qos.tick", [&] { s.qos->tick(); });
      };
      if (out == nullptr) {
        body();
      } else if (!timed_request(tr, *out, 0, body)) {
        return;
      } else {
        // The request's ops are only known once it ran.
        out->requests.back().ops = ops;
        out->ops += ops;
      }
    }
  }

  int steps_;
  int warmup_;
  std::vector<LatencyRequest> arrivals_;
};

// ---------------------------------------------------------------------
// oversub: a TaskGraph chain over arrays summing to 1.5x device memory
// ---------------------------------------------------------------------

class Oversub final : public Workload {
 public:
  static constexpr int kArrays = 16;
  static constexpr std::size_t kCapacity = 256ull << 20;
  static constexpr double kRatio = 1.5;

  Oversub(std::uint64_t seed, bool smoke)
      : requests_(smoke ? 20 : 1000),
        input_(oversub_inputs(seed, kArrays, kCapacity, kRatio)) {
    spec_.memory_bytes = kCapacity;
  }

  void prepare(Checks&, Facts&) override {}

  SliceOut slice(Tracer& tr) override {
    SliceOut out;
    const auto t0 = Clock::now();
    {
      const std::unique_ptr<Session> s = make_session(tr);
      out.setup_s = seconds_since(t0);
      s->gpu->engine().set_solve_timing(tr.enabled());
      const double start = s->gpu->now();
      const long evict0 = s->gpu->evict_ops();
      bool idle = true;
      for (int i = 0; i < requests_; ++i) {
        const double v0 = s->gpu->now();
        const bool ok = timed_request(tr, out, kArrays, [&] {
          tr.span("graph.launch", [&] {
            s->exec.launch(*s->gpu, sim::TaskGraph::Replay::Batched);
          });
          tr.span("api.synchronize", [&] { s->gpu->synchronize_device(); });
        });
        if (!ok) break;
        idle = idle && s->gpu->engine().all_idle();
        out.latency_us.push_back(s->gpu->now() - v0);
      }
      long kernels = 0;
      for (const sim::TimelineEntry& e : s->gpu->timeline().entries()) {
        kernels += e.kind == sim::OpKind::Kernel ? 1 : 0;
      }
      out.checks.expect(idle, "oversub: device work left after sync");
      out.checks.expect(kernels == out.ops,
                        "oversub: " + std::to_string(kernels) + " of " +
                            std::to_string(out.ops) + " kernels completed");
      out.checks.expect(s->gpu->hazard_count() == 0, "oversub: host hazards");
      out.checks.expect(s->gpu->evict_ops() > evict0 ||
                            s->gpu->bytes_evicted() > 0,
                        "oversub: no paging at 1.5x capacity");
      out.solve_us = s->gpu->engine().solve_time_us();
      out.facts["makespan_ms"] = (s->gpu->now() - start) / 1e3;
      engine_facts({&s->gpu->engine()}, out.ops, out.facts);
      memory_facts({s->gpu.get()}, static_cast<long>(out.requests.size()),
                   out.facts);
      api_facts({s->gpu.get()}, out.facts);
    }
    out.wall_s = seconds_since(t0);
    return out;
  }

  ReportRun report_run() override {
    Tracer off;
    const std::unique_ptr<Session> s = make_session(off);
    for (int i = 0; i < 40; ++i) {
      s->exec.launch(*s->gpu, sim::TaskGraph::Replay::Batched);
      s->gpu->synchronize_device();
    }
    return report_prefix(s->gpu->timeline(), 800, spec_);
  }

 private:
  struct Session {
    std::unique_ptr<sim::GpuRuntime> gpu;
    sim::TaskGraph graph;
    sim::TaskGraph::Exec exec;
  };

  std::unique_ptr<Session> make_session(Tracer& tr) const {
    auto s = std::make_unique<Session>();
    s->gpu = tr.span("api.construct", [&] {
      return std::make_unique<sim::GpuRuntime>(sim::Machine::single(spec_));
    });
    std::vector<sim::ArrayId> arrays;
    tr.span("api.alloc", [&] {
      for (int i = 0; i < kArrays; ++i) {
        arrays.push_back(s->gpu->alloc(input_.bytes[static_cast<std::size_t>(i)],
                                       "a" + std::to_string(i)));
        s->gpu->host_write(arrays.back());
      }
    });
    tr.span("graph.build", [&] {
      sim::TaskGraph::NodeId prev = sim::TaskGraph::kNoNode;
      for (int i = 0; i < kArrays; ++i) {
        const auto src = static_cast<std::size_t>(
            input_.perm[static_cast<std::size_t>(i)]);
        const auto dst = static_cast<std::size_t>(
            input_.perm[static_cast<std::size_t>((i + 1) % kArrays)]);
        sim::LaunchSpec k;
        k.name = "chain";
        k.config = sim::LaunchConfig::linear(64, 256);
        k.profile.flops_sp = 1e9;  // ~2 ms solo on the test device
        k.arrays = {{arrays[src], false}, {arrays[dst], true}};
        const auto node = s->graph.add_kernel(std::move(k));
        if (prev != sim::TaskGraph::kNoNode) s->graph.add_dependency(prev, node);
        prev = node;
      }
    });
    s->exec = tr.span("graph.instantiate",
                      [&] { return s->graph.instantiate(*s->gpu); });
    return s;
  }

  int requests_;
  OversubInput input_;
  sim::DeviceSpec spec_ = sim::DeviceSpec::test_device();
};

// ---------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 15;
  std::string trace_file;
  bool smoke = false;
  bool check = false;
};

std::unique_ptr<Workload> make_workload(const Args& a) {
  if (a.workload == "paper_suite") {
    return std::make_unique<PaperSuite>(a.seed, a.smoke);
  }
  if (a.workload == "dag_flood") {
    return std::make_unique<DagFlood>(a.seed, a.smoke);
  }
  if (a.workload == "tenant_mix") {
    return std::make_unique<TenantMix>(a.seed, a.smoke);
  }
  if (a.workload == "oversub") return std::make_unique<Oversub>(a.seed, a.smoke);
  return nullptr;
}

/// Per-layer metrics measured by spans: (metric, span, per op?). A
/// per-call metric is the span's mean duration; a per-op metric is its
/// total time over the traced slices' ops.
struct SpanMetric {
  const char* metric;
  const char* span;
  bool per_op;
};
constexpr SpanMetric kSpanMetrics[] = {
    {"rt.launch_ns", "rt.launch", false},
    {"rt.host_write_ns", "rt.host_write", false},
    {"rt.host_read_ns", "rt.host_read", false},
    {"api.sync_ns_per_op", "api.synchronize", true},
    {"graph.launch_ns_per_op", "graph.launch", true},
    {"engine.enqueue_ns", "engine.enqueue", false},
    {"engine.commit_ns_per_op", "engine.commit", true},
    {"engine.drain_ns_per_op", "engine.drain", true},
    {"ingest.post_ns", "ingest.post", false},
    {"ingest.flush_ns_per_op", "ingest.flush", true},
    {"tenant.launch_ns", "tenant.launch", false},
    {"qos.tick_ns", "qos.tick", false},
};

/// Per-layer metrics read from the layers' public getters (see the
/// workloads' facts); a workload that does not exercise a layer reports 0.
constexpr const char* kFactMetrics[] = {
    "rt.edges_per_kernel",
    "rt.event_waits_per_kernel",
    "rt.prefetches_per_kernel",
    "rt.streams",
    "rt.speedup_vs_serial",
    "rt.vs_handtuned",
    "api.ops_per_commit",
    "engine.solves_per_op",
    "engine.solved_ops_per_op",
    "engine.member_touches_per_op",
    "engine.full_scans",
    "engine.link_solves",
    "engine.peak_resident_ops",
    "ingest.ops_per_batch",
    "ingest.errors",
    "ingest.rejected",
    "ingest.deferred",
    "ingest.clamped",
    "tenant.jain",
    "tenant.batch_work_per_ms",
    "qos.final_weight",
    "qos.deadline_misses",
    "qos.gen_late_us_p99",
    "memory.evict_ops_per_round",
    "memory.fault_ops_per_round",
    "memory.prefetch_ops_per_round",
    "memory.bytes_evicted_per_round",
    "memory.prefetch_useful_frac",
    "memory.prefetch_overlap",
    "memory.bytes_h2d_per_kernel",
};

/// Peak resident set of this process image. VmHWM, not getrusage: the
/// rusage maximum survives fork and exec, so a benchmark started from a
/// larger parent would report the parent's footprint.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

/// Seconds of one call of `f`.
template <typename F>
double time_call(F&& f) {
  const auto t0 = Clock::now();
  f();
  return seconds_since(t0);
}

/// One timing of the report layer over a report run: overlap metrics and
/// the hardware profile of every timeline, the critical path of every DAG.
struct ReportTiming {
  double overlap_s = 0;
  double profile_s = 0;
  double critical_path_s = 0;
};

ReportTiming time_report(const ReportRun& rr) {
  ReportTiming t;
  for (std::size_t i = 0; i < rr.timelines.size(); ++i) {
    t.overlap_s += time_call([&] { (void)rr.timelines[i]->overlap_metrics(); });
    t.profile_s += time_call([&] {
      (void)sim::Profiler::compute(*rr.timelines[i], rr.specs[i]);
    });
  }
  for (const rt::DagRecorder* d : rr.dags) {
    t.critical_path_s +=
        time_call([&] { (void)d->critical_path_us(rr.pcie_bytes_per_us); });
  }
  return t;
}

/// Host-time samples of a run: one per slice (report: one per rep).
using Samples = std::map<std::string, std::vector<double>>;

void print_json_array(const std::vector<double>& xs) {
  std::printf("[");
  for (std::size_t i = 0; i < xs.size(); ++i) {
    std::printf("%s%.9g", i == 0 ? "" : ", ", xs[i]);
  }
  std::printf("]");
}

int run(const Args& a) {
  const std::unique_ptr<Workload> w = make_workload(a);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  const bool tracing = !a.trace_file.empty();
  Checks checks;
  Facts facts;
  Tracer tr;
  w->prepare(checks, facts);
  const ReportRun rr = w->report_run();

  // Warm-up slice: untimed; its deterministic results are the reference
  // every timed slice must reproduce.
  const SliceOut warm = w->slice(tr);
  checks.expect(warm.failed_requests == 0 && warm.checks.failed == 0,
                "warm-up slice failed");
  Facts ref = warm.facts;
  ref["latency_p50_us"] = quantile(warm.latency_us, 0.50);
  ref["latency_p99_us"] = quantile(warm.latency_us, 0.99);

  // Timed phase: slices until --seconds have passed, with the report
  // layer's reps spread evenly through it so that both sample the same
  // host conditions. With tracing, every other slice is traced.
  Samples plain, traced;
  long requests = 0, failed_requests = 0, traced_ops = 0;
  double traced_solve_us = 0;
  bool kept_trace = false;
  const int report_reps = a.smoke ? 1 : 12;
  const int min_slices = tracing ? 4 : 2;
  int reps = 0;
  const auto t_start = Clock::now();
  for (int k = 0;; ++k) {
    const bool trace_this = tracing && k % 2 == 1;
    tr.set_enabled(trace_this);
    tr.set_keep(trace_this && !kept_trace);
    kept_trace = kept_trace || trace_this;
    SliceOut s = w->slice(tr);
    tr.set_enabled(false);

    s.facts["latency_p50_us"] = quantile(s.latency_us, 0.50);
    s.facts["latency_p99_us"] = quantile(s.latency_us, 0.99);
    for (const auto& [name, v] : ref) {
      const auto it = s.facts.find(name);
      checks.expect(it != s.facts.end() && it->second == v,
                    "slice " + std::to_string(k) + ": " + name +
                        " differs from the warm-up slice");
    }
    checks.attempted += s.checks.attempted;
    checks.failed += s.checks.failed;
    for (const std::string& f : s.checks.failures) checks.failures.push_back(f);
    requests += static_cast<long>(s.requests.size()) + s.failed_requests;
    failed_requests += s.failed_requests;

    Samples& out = trace_this ? traced : plain;
    out["host_us_per_op_p50"].push_back(per_op_quantile(s.requests, 0.50) / 1e3);
    out["host_us_per_op_p99"].push_back(per_op_quantile(s.requests, 0.99) / 1e3);
    out["ops_per_s"].push_back(static_cast<double>(s.ops) / s.wall_s);
    out["setup_s"].push_back(s.setup_s);
    if (trace_this) {
      traced_ops += s.ops;
      traced_solve_us += s.solve_us;
    }

    const double elapsed = seconds_since(t_start);
    if (reps < report_reps && elapsed >= a.seconds * reps / report_reps) {
      const ReportTiming t = time_report(rr);
      plain["report_s"].push_back(t.overlap_s + t.profile_s +
                                  t.critical_path_s);
      plain["timeline.overlap_s"].push_back(t.overlap_s);
      plain["timeline.profile_s"].push_back(t.profile_s);
      plain["rt.critical_path_s"].push_back(t.critical_path_s);
      ++reps;
    }
    if (k + 1 >= min_slices && reps == report_reps &&
        seconds_since(t_start) >= a.seconds) {
      break;
    }
  }

  // ---- metrics ----
  // Host noise on a shared machine only ever slows a slice down, in
  // phases lasting seconds; each host metric is therefore the 10th
  // percentile over slices (report reps), the 90th for throughput.
  std::map<std::string, double> m;
  for (const auto& [name, xs] : plain) {
    m[name] = quantile(xs, name == "ops_per_s" ? 0.90 : 0.10);
  }
  m["peak_rss_mb"] = peak_rss_mb();
  for (const auto& [name, v] : ref) m[name] = v;
  for (const auto& [name, v] : facts) m[name] = v;
  for (const char* name : kFactMetrics) {
    if (m.find(name) == m.end()) m[name] = 0;
  }
  for (const SpanMetric& sm : kSpanMetrics) {
    const Tracer::Stats st = tr.stats(sm.span);
    double v = 0;
    if (sm.per_op) {
      v = traced_ops > 0 ? st.total_ns / static_cast<double>(traced_ops) : 0;
    } else {
      v = st.count > 0 ? st.total_ns / static_cast<double>(st.count) : 0;
    }
    m[sm.metric] = v;
  }
  m["engine.solve_ns_per_op"] =
      traced_ops > 0 ? traced_solve_us * 1e3 / static_cast<double>(traced_ops)
                     : 0;
  m["trace.overhead_pct"] =
      tracing ? 100.0 * (quantile(traced["host_us_per_op_p50"], 0.10) /
                             m["host_us_per_op_p50"] -
                         1.0)
              : 0;

  // ---- human-readable summary (stderr) ----
  std::fprintf(stderr,
               "%s seed=%llu: %zu untraced + %zu traced slices, %d report "
               "reps, %ld requests\n",
               a.workload.c_str(), static_cast<unsigned long long>(a.seed),
               plain["setup_s"].size(), traced["setup_s"].size(), reps,
               requests);
  for (const auto& [name, xs] : plain) {
    std::fprintf(stderr,
                 "  %-20s reported %.6g  median %.6g  min %.6g  max %.6g  "
                 "(n=%zu)\n",
                 name.c_str(), m[name], median(xs),
                 *std::min_element(xs.begin(), xs.end()),
                 *std::max_element(xs.begin(), xs.end()), xs.size());
  }
  if (tracing) {
    std::fprintf(stderr, "  %-22s %10s %14s %14s\n", "layer (traced slices)",
                 "count", "total_ms", "self_ms");
    for (const auto& [layer, st] : tr.by_layer()) {
      std::fprintf(stderr, "  %-22s %10ld %14.3f %14.3f\n", layer.c_str(),
                   st.count, st.total_ns / 1e6, st.self_ns / 1e6);
    }
    if (!tr.write_chrome_trace(a.trace_file)) {
      checks.expect(false, "could not write trace file " + a.trace_file);
    } else {
      std::fprintf(stderr, "  %zu spans of the first traced slice -> %s\n",
                   tr.kept(), a.trace_file.c_str());
    }
  }
  for (const std::string& f : checks.failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  }

  // ---- result line (stdout) ----
  const long attempted = requests + checks.attempted;
  const long failed = failed_requests + checks.failed;
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"correct\": %s, "
              "\"attempted\": %ld, \"failed\": %ld, \"metrics\": {",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              failed == 0 ? "true" : "false", attempted, failed);
  bool first = true;
  for (const auto& [name, v] : m) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(),
                std::isfinite(v) ? v : 0.0);
    first = false;
  }
  std::printf("}, \"samples\": {");
  first = true;
  for (const auto& [name, xs] : plain) {
    std::printf("%s\"%s\": ", first ? "" : ", ", name.c_str());
    print_json_array(xs);
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return a.check && failed != 0 ? 1 : 0;
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* key) -> const char* {
      const std::string k = std::string(key) + "=";
      return arg.rfind(k, 0) == 0 ? argv[i] + k.size() : nullptr;
    };
    if (const char* v = value("--workload")) {
      a.workload = v;
    } else if (const char* v = value("--seed")) {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--seconds")) {
      a.seconds = std::strtod(v, nullptr);
    } else if (const char* v = value("--trace")) {
      a.trace_file = v;
    } else if (arg == "--smoke") {
      a.smoke = true;
    } else if (arg == "--check") {
      a.check = true;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      return false;
    }
  }
  return !a.workload.empty();
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  // Pin glibc's mmap threshold at its default. Left dynamic, it rises
  // whenever a large block is freed, so peak RSS would depend on the
  // allocation history and vary 15% between otherwise identical runs.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  e2e::Args args;
  if (!e2e::parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload=<paper_suite|dag_flood|"
                 "tenant_mix|oversub> --seed=<n> [--seconds=<s>] "
                 "[--trace=<file>] [--smoke] [--check]\n");
    return 2;
  }
  try {
    return e2e::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 1;
  }
}
