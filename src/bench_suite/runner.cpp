#include "bench_suite/runner.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>

#include "kernels/registry.hpp"
#include "sim/graph.hpp"

namespace psched::benchsuite {

namespace {

// ---------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------

/// Build the sim-level launch description for a kernel step: cost profile
/// from the registry, array uses from the NIDL signature, and an optional
/// functional closure.
sim::LaunchSpec make_launch_spec(const Step& step, bool functional) {
  const rt::KernelDef& def = kernels::registry().get(step.kernel);
  const auto params = rt::parse_nidl(step.signature);
  if (params.size() != step.values.size()) {
    throw sim::ApiError("benchmark step '" + step.label +
                        "': argument/signature mismatch");
  }
  sim::LaunchSpec spec;
  spec.name = step.label;
  spec.config = step.config;
  spec.profile =
      def.cost_fn(step.config, rt::ArgsView(step.values, false));
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (!params[i].is_pointer()) continue;
    spec.add_array(step.values[i].as_array().state()->sim_id,
                   !params[i].read_only);
  }
  if (functional && def.host_fn) {
    auto values = std::make_shared<std::vector<rt::Value>>(step.values);
    auto fn = def.host_fn;
    const auto cfg = step.config;
    spec.functional = [fn, cfg, values]() {
      fn(cfg, rt::ArgsView(*values, true));
    };
  }
  return spec;
}

void apply_host_write(const Step& step, bool functional) {
  rt::DeviceArray arr = step.array;
  if (functional && step.init) {
    step.init(arr);  // span_for_write inside triggers the CPU-write hook
  } else {
    arr.touch_write();
  }
}

// ---------------------------------------------------------------------
// GrCUDA executor (parallel or serial policy — the context decides)
// ---------------------------------------------------------------------

void exec_grcuda(rt::Context& ctx, const Program& prog, int iterations) {
  // Resolve each (kernel, signature) pair once, as a host program would.
  std::map<std::pair<std::string, std::string>, rt::Kernel> cache;
  auto kernel_for = [&](const Step& s) -> rt::Kernel& {
    auto key = std::make_pair(s.kernel, s.signature);
    auto it = cache.find(key);
    if (it == cache.end()) {
      it = cache.emplace(key, ctx.build_kernel(s.kernel, s.signature)).first;
    }
    return it->second;
  };

  const bool functional = ctx.options().functional;
  for (const Step& s : prog.setup) apply_host_write(s, functional);
  for (int iter = 0; iter < iterations; ++iter) {
    for (const Step& s : prog.iteration) {
      switch (s.kind) {
        case Step::Kind::HostWrite:
          apply_host_write(s, functional);
          break;
        case Step::Kind::HostRead: {
          rt::DeviceArray arr = s.array;
          arr.touch_read();
          break;
        }
        case Step::Kind::Kernel:
          kernel_for(s).configure(s.config).launch(s.values);
          break;
      }
    }
  }
  ctx.synchronize();
}

// ---------------------------------------------------------------------
// Hand-tuned executor: the "skilled programmer" writes explicit streams,
// events and prefetches with full knowledge of the dependency structure.
// ---------------------------------------------------------------------

class HandTunedScheduler {
 public:
  HandTunedScheduler(sim::GpuRuntime& gpu, bool functional)
      : gpu_(&gpu), functional_(functional) {}

  void run_kernel(const Step& step) {
    const sim::LaunchSpec spec = make_launch_spec(step, functional_);

    // Dependencies from explicit data-flow knowledge. Records are copied:
    // inserting into track_ may rehash the map.
    std::vector<Record> deps;
    for (const auto& use : spec.arrays) {
      Track& t = track_[use.id];
      if (use.write) {
        if (!t.readers.empty()) {
          for (const Record& r : t.readers) deps.push_back(r);
        } else if (t.writer.valid()) {
          deps.push_back(t.writer);
        }
      } else if (t.writer.valid()) {
        deps.push_back(t.writer);
      }
    }

    // Stream choice, as a programmer would hard-code it from the known
    // DAG (Fig. 6 colors): continue the first not-yet-continued producer's
    // stream; otherwise open the next lane round-robin. A *static*
    // assignment — unlike the runtime scheduler, no idleness querying —
    // which also makes the schedule capturable by CUDA Graphs.
    sim::StreamId stream = sim::kInvalidStream;
    for (const auto& use : spec.arrays) {
      Track& t = track_[use.id];
      if (t.writer.valid() && !t.writer_continued) {
        stream = t.writer.stream;
        t.writer_continued = true;
        break;
      }
    }
    if (stream == sim::kInvalidStream) {
      constexpr std::size_t kMaxLanes = 16;
      if (pool_.size() < kMaxLanes) {
        pool_.push_back(gpu_->create_stream());
        stream = pool_.back();
      } else {
        stream = pool_[next_lane_ % pool_.size()];
        ++next_lane_;
      }
    }

    // Explicit prefetch of stale inputs at full PCIe bandwidth.
    for (const auto& use : spec.arrays) {
      if (gpu_->memory().info(use.id).needs_h2d()) {
        if (gpu_->spec().page_fault_um) {
          gpu_->mem_prefetch_async(use.id, stream);
        } else {
          gpu_->memcpy_h2d_async(use.id, stream);
        }
      }
    }

    // Event synchronization with producers on other streams.
    for (const Record& d : deps) {
      if (d.stream != stream && d.event != sim::kInvalidEvent) {
        gpu_->stream_wait_event(stream, d.event);
      }
    }

    gpu_->launch(stream, spec);
    Record rec;
    rec.stream = stream;
    rec.event = gpu_->create_event();
    gpu_->record_event(rec.event, stream);

    // Update tracking.
    for (const auto& use : spec.arrays) {
      Track& t = track_[use.id];
      if (use.write) {
        t.writer = rec;
        t.writer_continued = false;
        t.readers.clear();
      } else {
        t.readers.push_back(rec);
      }
    }
  }

  void sync_array_users(sim::ArrayId id, bool for_write) {
    auto it = track_.find(id);
    if (it == track_.end()) return;
    Track& t = it->second;
    if (t.writer.valid()) gpu_->synchronize_event(t.writer.event);
    if (for_write || !gpu_->spec().page_fault_um) {
      for (const Record& r : t.readers) gpu_->synchronize_event(r.event);
    }
    if (for_write) {
      t.writer = Record{};
      t.readers.clear();
    }
  }

 private:
  struct Record {
    sim::StreamId stream = sim::kInvalidStream;
    sim::EventId event = sim::kInvalidEvent;
    [[nodiscard]] bool valid() const { return event != sim::kInvalidEvent; }
  };
  struct Track {
    Record writer;
    bool writer_continued = false;
    std::vector<Record> readers;
  };

  sim::GpuRuntime* gpu_;
  bool functional_;
  std::unordered_map<sim::ArrayId, Track> track_;
  std::vector<sim::StreamId> pool_;
  std::size_t next_lane_ = 0;
};

void exec_handtuned(sim::GpuRuntime& gpu, const Program& prog, int iterations,
                    bool functional) {
  HandTunedScheduler sched(gpu, functional);
  for (const Step& s : prog.setup) apply_host_write(s, functional);
  for (int iter = 0; iter < iterations; ++iter) {
    for (const Step& s : prog.iteration) {
      switch (s.kind) {
        case Step::Kind::HostWrite:
          sched.sync_array_users(s.array.state()->sim_id, /*for_write=*/true);
          apply_host_write(s, functional);
          break;
        case Step::Kind::HostRead: {
          sched.sync_array_users(s.array.state()->sim_id,
                                 /*for_write=*/false);
          rt::DeviceArray arr = s.array;
          arr.touch_read();
          break;
        }
        case Step::Kind::Kernel:
          sched.run_kernel(s);
          break;
      }
    }
  }
  gpu.synchronize_device();
}

// ---------------------------------------------------------------------
// CUDA Graphs executor: one iteration's kernels become a task graph,
// instantiated once and relaunched (host accesses stay outside the graph,
// as in real CUDA Graphs code). The "+manual" flavour declares edges
// explicitly; the "+capture" flavour records the hand-tuned schedule —
// whose prefetches the capture drops, matching the paper's observation.
// ---------------------------------------------------------------------

void exec_graphs(sim::GpuRuntime& gpu, const Program& prog, int iterations,
                 bool capture, bool functional) {
  sim::TaskGraph graph;
  if (capture) {
    HandTunedScheduler sched(gpu, functional);
    gpu.begin_capture(graph);
    for (const Step& s : prog.iteration) {
      if (s.kind == Step::Kind::Kernel) sched.run_kernel(s);
    }
    gpu.end_capture();
  } else {
    // Manual dependency declaration from data-flow knowledge.
    std::unordered_map<sim::ArrayId, sim::TaskGraph::NodeId> writer;
    std::unordered_map<sim::ArrayId, std::vector<sim::TaskGraph::NodeId>>
        readers;
    for (const Step& s : prog.iteration) {
      if (s.kind != Step::Kind::Kernel) continue;
      const sim::LaunchSpec spec = make_launch_spec(s, functional);
      const auto node = graph.add_kernel(spec);
      for (const auto& use : spec.arrays) {
        if (use.write) {
          if (!readers[use.id].empty()) {
            for (auto dep : readers[use.id]) graph.add_dependency(dep, node);
          } else if (writer.count(use.id) != 0) {
            graph.add_dependency(writer.at(use.id), node);
          }
          writer[use.id] = node;
          readers[use.id].clear();
        } else {
          if (writer.count(use.id) != 0) {
            graph.add_dependency(writer.at(use.id), node);
          }
          readers[use.id].push_back(node);
        }
      }
    }
  }

  auto exec = graph.instantiate(gpu);

  for (const Step& s : prog.setup) apply_host_write(s, functional);
  for (int iter = 0; iter < iterations; ++iter) {
    for (const Step& s : prog.iteration) {
      if (s.kind == Step::Kind::HostWrite) apply_host_write(s, functional);
    }
    exec.launch(gpu);
    gpu.synchronize_device();
    for (const Step& s : prog.iteration) {
      if (s.kind == Step::Kind::HostRead) {
        rt::DeviceArray arr = s.array;
        arr.touch_read();
      }
    }
  }
  gpu.synchronize_device();
}

double compute_checksum(const Program& prog) {
  double sum = 0;
  for (const rt::DeviceArray& out : prog.outputs) {
    const std::size_t n = std::min<std::size_t>(out.size(), 64);
    for (std::size_t i = 0; i < n; ++i) {
      const double v = out.get(i);
      if (std::isfinite(v)) sum += v * static_cast<double>(i + 1);
    }
  }
  return sum;
}

}  // namespace

const char* to_string(Variant v) {
  switch (v) {
    case Variant::GrcudaParallel: return "grcuda-parallel";
    case Variant::GrcudaSerial: return "grcuda-serial";
    case Variant::GraphsManual: return "graphs-manual";
    case Variant::GraphsCapture: return "graphs-capture";
    case Variant::HandTuned: return "hand-tuned";
  }
  return "?";
}

RunResult run_benchmark(const Benchmark& bench, Variant variant,
                        const sim::DeviceSpec& spec, RunConfig cfg,
                        RunOptions run_opts) {
  sim::GpuRuntime gpu(spec);
  rt::Options opts = kernels::default_options();
  opts.functional = cfg.functional;
  opts.policy = variant == Variant::GrcudaSerial
                    ? rt::SchedulePolicy::Serial
                    : rt::SchedulePolicy::Parallel;
  opts.prefetch = run_opts.prefetch;
  opts.stream_policy = run_opts.stream_policy;
  opts.honor_read_only = run_opts.honor_read_only;
  rt::Context ctx(gpu, opts);

  const Program prog = bench.build(ctx, cfg);
  const int iters =
      cfg.iterations > 0 ? cfg.iterations : bench.default_iterations();

  switch (variant) {
    case Variant::GrcudaParallel:
    case Variant::GrcudaSerial:
      exec_grcuda(ctx, prog, iters);
      break;
    case Variant::HandTuned:
      exec_handtuned(gpu, prog, iters, cfg.functional);
      break;
    case Variant::GraphsManual:
      exec_graphs(gpu, prog, iters, /*capture=*/false, cfg.functional);
      break;
    case Variant::GraphsCapture:
      exec_graphs(gpu, prog, iters, /*capture=*/true, cfg.functional);
      break;
  }
  gpu.synchronize_device();

  RunResult r;
  const sim::Timeline& tl = gpu.timeline();
  r.gpu_time_us = tl.makespan();
  r.overlap = tl.overlap_metrics();
  r.hw = sim::Profiler::compute(tl, spec);
  r.stats = ctx.stats();
  r.streams_used = static_cast<long>(gpu.engine().num_streams());
  r.bytes_h2d = gpu.bytes_h2d();
  r.bytes_faulted = gpu.bytes_faulted();
  r.bytes_d2h = gpu.bytes_d2h();
  if (variant == Variant::GrcudaParallel ||
      variant == Variant::GrcudaSerial) {
    r.critical_path_us =
        ctx.dag().critical_path_us(spec.pcie_bytes_per_us());
  }
  r.engine_solves = gpu.engine().solve_count();
  r.engine_solved_ops = gpu.engine().solved_ops();
  if (cfg.functional) r.checksum = compute_checksum(prog);
  if (run_opts.keep_timeline_ascii) r.timeline_ascii = tl.render_ascii();
  if (run_opts.keep_timeline) r.timeline = tl.entries().to_vector();
  return r;
}

double speedup(const Benchmark& bench, Variant fast, Variant slow,
               const sim::DeviceSpec& spec, RunConfig cfg) {
  const RunResult a = run_benchmark(bench, fast, spec, cfg);
  const RunResult b = run_benchmark(bench, slow, spec, cfg);
  return a.gpu_time_us > 0 ? b.gpu_time_us / a.gpu_time_us : 0;
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

}  // namespace psched::benchsuite
