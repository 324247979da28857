#include "runtime/execution_context.hpp"

#include <algorithm>
#include <bit>

#include "runtime/dependency.hpp"

namespace psched::rt {

Context::Context(sim::GpuRuntime& gpu, Options opts)
    : gpu_(&gpu), opts_(opts) {
  streams_ = std::make_unique<StreamManager>(gpu, opts_.stream_policy);
  placer_ = std::make_unique<DevicePlacer>(gpu, opts_.device_policy);
}

Context::~Context() {
  // Drain in-flight work so functional closures never outlive the context.
  try {
    // Same invariant as every public entry point: the flush below must
    // not run with another context's tenant ambient.
    flush_ingest();
    activate();
    gpu_->synchronize_device();
  } catch (...) {
    // Destructors must not throw; an unsatisfiable schedule at teardown
    // (e.g. after a test injected a failure) is dropped.
  }
}

DeviceArray Context::array(DType dtype, std::size_t n, std::string name) {
  activate();
  auto state = std::make_shared<ArrayState>();
  state->ctx = this;
  state->dtype = dtype;
  state->size = n;
  state->name = name.empty() ? "arr" + std::to_string(arrays_.size()) : name;
  state->sim_id = gpu_->alloc(n * dtype_size(dtype), state->name);
  arrays_.push_back(state);
  return DeviceArray(std::move(state));
}

void Context::free(DeviceArray& a) {
  activate();
  if (!a.valid()) throw sim::ApiError("free: empty DeviceArray");
  ArrayState* s = a.state();
  // Retire every computation still operating on this array.
  on_host_write(s);  // write semantics: waits for writer and all readers
  gpu_->free_array(s->sim_id);
  s->freed = true;
}

Kernel Context::build_kernel(const std::string& name,
                             const std::string& signature) {
  if (opts_.registry == nullptr) {
    throw sim::ApiError(
        "build_kernel: no kernel registry configured in Options");
  }
  const KernelDef& def = opts_.registry->get(name);
  return Kernel(this, &def, parse_nidl(signature));
}

Kernel Context::build_kernel(const std::string& /*code*/,
                             const std::string& name,
                             const std::string& signature) {
  // Source strings are accepted for GrCUDA API fidelity; execution
  // dispatches to the registered host implementation of `name`.
  return build_kernel(name, signature);
}

LibraryFunction Context::bind_library(LibraryFunctionDef def) {
  if (def.stream_aware && !def.cost_fn) {
    throw sim::ApiError("bind_library: stream-aware function '" + def.name +
                        "' needs a cost model");
  }
  return LibraryFunction(this, std::move(def));
}

void Context::synchronize() {
  flush_ingest();
  activate();
  gpu_->synchronize_device();
  ++stats_.blocking_syncs;
  for (Computation* c : active_) {
    if (c->state == Computation::State::Scheduled) {
      c->state = Computation::State::Finished;
    }
  }
  active_.clear();
  if (opts_.keep_dag) dag_.host_barrier();
}

ContextStats Context::stats() const {
  ContextStats s = stats_;
  s.streams_created = static_cast<long>(streams_->num_streams());
  s.devices_used = std::popcount(devices_used_mask_);
  return s;
}

Computation& Context::new_computation(Computation::Kind kind,
                                      std::string label) {
  const std::size_t id = comps_.size();
  if (id % kComputationChunk == 0) {
    comp_chunks_.push_back(std::make_unique<Computation[]>(kComputationChunk));
  }
  Computation& c = comp_chunks_.back()[id % kComputationChunk];
  c.id = static_cast<long>(id);
  c.kind = kind;
  c.label = std::move(label);
  comps_.push_back(&c);
  ++stats_.computations;
  if (opts_.keep_dag) dag_.add_vertex(c);
  return c;
}

void Context::check_args(const std::string& name,
                         const std::vector<ParamSpec>& params,
                         std::span<const Value> values) {
  if (params.size() != values.size()) {
    throw sim::ApiError("invoke '" + name + "': expected " +
                        std::to_string(params.size()) + " arguments, got " +
                        std::to_string(values.size()));
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    const bool want_array = params[i].is_pointer();
    if (want_array != values[i].is_array()) {
      throw sim::ApiError("invoke '" + name + "': argument " +
                          std::to_string(i + 1) + " should be " +
                          (want_array ? "an array" : "a scalar"));
    }
    if (!want_array) continue;
    const ArrayState* s = values[i].as_array().state();
    if (s == nullptr) {
      throw sim::ApiError("invoke '" + name + "': argument " +
                          std::to_string(i + 1) + " is an empty array");
    }
    if (s->freed) {
      throw sim::ApiError("invoke: argument uses freed array '" + s->name +
                          "'");
    }
  }
}

void Context::collect_uses(Computation& c,
                           const std::vector<ParamSpec>& params,
                           std::span<const Value> values) {
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (!params[i].is_pointer()) continue;
    c.uses.push_back({values[i].as_array().state(), params[i].read_only});
  }
}

sim::LaunchSpec& Context::launch_spec(const Computation& c,
                                      const sim::LaunchConfig& cfg,
                                      const sim::KernelProfile& profile,
                                      std::function<void()> functional) {
  sim::LaunchSpec& spec = launch_spec_;
  spec.name = c.label;
  spec.config = cfg;
  spec.profile = profile;
  spec.arrays.clear();
  for (const Computation::Use& use : c.uses) {
    spec.add_array(use.array->sim_id, !use.read_only);
  }
  spec.functional = std::move(functional);
  return spec;
}

void Context::submit_kernel(const Kernel& kernel, const sim::LaunchConfig& cfg,
                            std::span<const Value> values) {
  activate();
  check_args(kernel.name(), kernel.signature(), values);
  const KernelDef* def = kernel.def_;

  Computation& c = new_computation(Computation::Kind::Kernel, kernel.name());
  collect_uses(c, kernel.signature(), values);
  ++stats_.kernels;

  const sim::KernelProfile profile =
      def->cost_fn(cfg, ArgsView(values, /*functional=*/false));

  std::function<void()> functional;
  if (opts_.functional && def->host_fn) {
    // The host implementation runs at completion: keep the arguments.
    auto vals = std::make_shared<const std::vector<Value>>(values.begin(),
                                                           values.end());
    auto fn = def->host_fn;
    functional = [fn, cfg, vals]() { fn(cfg, ArgsView(*vals, true)); };
  }

  if (opts_.policy == SchedulePolicy::Serial) {
    schedule_serial(c, cfg, profile, std::move(functional));
  } else {
    schedule_async(c, cfg, profile, std::move(functional));
  }

  // Feed the execution history that drives block-size recommendations:
  // the work size is the largest array the launch touched.
  double work_items = 0;
  for (const Computation::Use& use : c.uses) {
    work_items = std::max(work_items, static_cast<double>(use.array->size));
  }
  tuner_.record(kernel.name(), cfg.threads_per_block(), c.solo_us,
                work_items);
}

void Context::submit_library(const LibraryFunctionDef& def,
                             std::vector<Value> values) {
  activate();
  check_args(def.name, def.params, values);
  ++stats_.library_calls;

  if (def.stream_aware) {
    Computation& c =
        new_computation(Computation::Kind::Library, "lib:" + def.name);
    collect_uses(c, def.params, values);
    const sim::KernelProfile profile = def.cost_fn(ArgsView(values, false));
    // Library internals choose their own launch geometry; model a
    // device-filling configuration.
    const auto cfg = sim::LaunchConfig::linear(1024, 256);
    std::function<void()> functional;
    if (opts_.functional && def.host_fn) {
      auto vals = std::make_shared<std::vector<Value>>(std::move(values));
      auto fn = def.host_fn;
      functional = [fn, vals]() { fn(ArgsView(*vals, true)); };
    }
    if (opts_.policy == SchedulePolicy::Serial) {
      schedule_serial(c, cfg, profile, std::move(functional));
    } else {
      schedule_async(c, cfg, profile, std::move(functional));
    }
    return;
  }

  // No stream control: run synchronously for correctness (section IV-A).
  synchronize();
  const ArgsView view(values, opts_.functional);
  for (std::size_t i = 0; i < def.params.size(); ++i) {
    if (!def.params[i].is_pointer()) continue;
    ArrayState* s = values[i].as_array().state();
    gpu_->host_read(s->sim_id);
    if (!def.params[i].read_only) gpu_->host_write(s->sim_id);
  }
  if (def.host_fn && opts_.functional) def.host_fn(view);
  if (def.host_duration_us) gpu_->host_advance(def.host_duration_us(view));
}

void Context::schedule_async(Computation& c, const sim::LaunchConfig& cfg,
                             const sim::KernelProfile& profile,
                             std::function<void()> functional) {
  // Model the cost of dependency computation and stream selection. It only
  // moves the host clock: the runtime calls below advance the engine at
  // their entry (the one-advance rule, GpuRuntime::note_api_call).
  gpu_->charge_host(opts_.scheduling_overhead_us);

  const std::span<Computation* const> deps =
      infer_dependencies(c, opts_.honor_read_only);
  if (opts_.keep_dag) {
    for (const Computation* d : deps) dag_.add_edge(d->id, c.id);
  }
  stats_.edges += static_cast<long>(deps.size());

  // Placement before stream acquisition: the device policy decides where
  // the computation runs, then the stream manager picks a stream there.
  c.device = placer_->place(c);
  devices_used_mask_ |= 1u << c.device;
  c.stream = streams_->acquire(c);

  const sim::LaunchSpec& spec =
      launch_spec(c, cfg, profile, std::move(functional));

  // Stage data movement first so transfers may start as early as possible.
  // The runtime resolves each migration's source: host (prefetch / fault
  // path) or a peer device holding the freshest copy (CopyP2P).
  double staged_bytes = 0;
  const bool page_fault = gpu_->spec(c.device).page_fault_um;
  for (const sim::ArrayUse& use : spec.arrays) {
    const sim::ArrayInfo& info = gpu_->memory().info(use.id);
    if (!info.needs_transfer_to(c.device)) continue;
    staged_bytes += static_cast<double>(info.bytes);
    if (page_fault && info.host_sourced()) {
      if (opts_.prefetch) {
        gpu_->mem_prefetch_async(use.id, c.stream);
        ++stats_.prefetches;
      }
      // else: the launch falls back to on-demand fault migration
    } else {
      // Pre-Pascal host sources transfer ahead of execution; peer-device
      // sources always move eagerly — there is no fault path between GPUs
      // in this model.
      gpu_->memcpy_h2d_async(use.id, c.stream);
    }
  }

  // Synchronize with parents on other streams via CUDA events.
  for (const Computation* d : deps) {
    if (d->event != sim::kInvalidEvent && d->stream != c.stream) {
      gpu_->stream_wait_event(c.stream, d->event);
      ++stats_.event_waits;
    }
  }

  sim::KernelDemand demand;
  c.op = gpu_->launch(c.stream, spec, &demand);
  launch_spec_.functional = nullptr;  // the launch keeps its own copy
  c.event = gpu_->create_event();
  gpu_->record_event(c.event, c.stream);
  c.state = Computation::State::Scheduled;
  active_.push_back(&c);

  c.solo_us = demand.solo_us;
  c.transfer_bytes = staged_bytes;
  if (opts_.keep_dag) dag_.annotate_vertex(c);
}

void Context::schedule_serial(Computation& c, const sim::LaunchConfig& cfg,
                              const sim::KernelProfile& profile,
                              std::function<void()> functional) {
  // The original GrCUDA scheduler: default stream, blocking, no dependency
  // computation, no prefetching (overheads are even smaller, section V-C).
  c.device = sim::kDefaultDevice;
  c.stream = sim::kDefaultStream;
  devices_used_mask_ |= 1u;

  const sim::LaunchSpec& spec =
      launch_spec(c, cfg, profile, std::move(functional));
  double staged_bytes = 0;
  for (const sim::ArrayUse& use : spec.arrays) {
    const sim::ArrayInfo& info = gpu_->memory().info(use.id);
    if (info.needs_h2d()) staged_bytes += static_cast<double>(info.bytes);
  }

  sim::KernelDemand demand;
  c.op = gpu_->launch(c.stream, spec, &demand);
  launch_spec_.functional = nullptr;  // the launch keeps its own copy
  gpu_->synchronize_stream(c.stream);
  ++stats_.blocking_syncs;
  c.state = Computation::State::Finished;

  c.solo_us = demand.solo_us;
  c.transfer_bytes = staged_bytes;
  if (opts_.keep_dag) dag_.annotate_vertex(c);
}

void Context::wait_for(Computation& c) {
  flush_ingest();
  // Re-assert the tenant even though draining issues nothing today: a
  // caller may interleave contexts between the entry point and this
  // wait, and future retire-triggered runtime work must not land on
  // whichever tenant happened to be ambient.
  activate();
  if (c.event != sim::kInvalidEvent) {
    gpu_->synchronize_event(c.event);
    ++stats_.blocking_syncs;
  }
  sweep_finished();
}

std::size_t Context::advise_evict(DeviceArray& a, sim::DeviceId d) {
  activate();
  if (!a.valid()) throw sim::ApiError("advise_evict: empty array handle");
  // Retire finished computations first so quiescent arrays are actually
  // seen as quiescent (GpuRuntime skips arrays with in-flight ops).
  gpu_->poll();
  sweep_finished();
  const std::size_t freed = gpu_->advise_evict(a.state()->sim_id, d);
  if (freed > 0) ++stats_.advised_evictions;
  return freed;
}

void Context::pin(DeviceArray& a, sim::DeviceId d) {
  activate();
  if (!a.valid()) throw sim::ApiError("pin: empty array handle");
  gpu_->advise_pin(a.state()->sim_id, d);
}

void Context::unpin(DeviceArray& a, sim::DeviceId d) {
  activate();
  if (!a.valid()) throw sim::ApiError("unpin: empty array handle");
  gpu_->advise_unpin(a.state()->sim_id, d);
}

void Context::sweep_finished() {
  std::erase_if(active_, [this](Computation* c) {
    if (c->state == Computation::State::Scheduled &&
        c->op != sim::kInvalidOp && gpu_->engine().op_done(c->op)) {
      c->state = Computation::State::Finished;
      return true;
    }
    return c->state == Computation::State::Finished;
  });
}

void Context::on_host_read(ArrayState* array) {
  activate();
  if (opts_.policy == SchedulePolicy::Serial) {
    ++stats_.immediate_accesses;
    gpu_->host_read(array->sim_id);
    return;
  }

  Computation* writer =
      (array->last_writer != nullptr && array->last_writer->is_active() &&
       array->last_writer->state == Computation::State::Scheduled)
          ? array->last_writer
          : nullptr;
  const bool page_fault = gpu_->spec().page_fault_um;
  bool reader_conflict = false;
  if (!page_fault) {
    for (Computation* r : array->readers) {
      if (r->is_active() && r->state == Computation::State::Scheduled) {
        reader_conflict = true;
        break;
      }
    }
  }

  if (writer == nullptr && !reader_conflict) {
    // No data dependency: execute immediately without a DAG element.
    ++stats_.immediate_accesses;
    gpu_->host_read(array->sim_id);
    return;
  }

  Computation& c =
      new_computation(Computation::Kind::HostRead, "read:" + array->name);
  c.uses.push_back({array, /*read_only=*/true});
  const std::span<Computation* const> deps =
      infer_dependencies(c, /*honor_read_only=*/true);
  if (opts_.keep_dag) {
    for (const Computation* d : deps) dag_.add_edge(d->id, c.id);
  }
  stats_.edges += static_cast<long>(deps.size());
  ++stats_.host_accesses;

  for (Computation* d : deps) wait_for(*d);
  if (!page_fault) {
    // Pre-Pascal: the CPU may not touch an array while *any* kernel uses
    // it; wait for the remaining readers as well.
    for (Computation* r : array->readers) {
      if (r != &c && r->is_active() &&
          r->state == Computation::State::Scheduled) {
        wait_for(*r);
      }
    }
  }
  c.state = Computation::State::Finished;
  gpu_->host_read(array->sim_id);
  // The host observed a result: later submissions form a new host epoch
  // for the contention-free bound.
  if (opts_.keep_dag && !deps.empty()) dag_.host_barrier();
}

void Context::on_host_write(ArrayState* array) {
  activate();
  if (opts_.policy == SchedulePolicy::Serial) {
    ++stats_.immediate_accesses;
    gpu_->host_write(array->sim_id);
    return;
  }

  bool conflict = array->last_writer != nullptr &&
                  array->last_writer->is_active() &&
                  array->last_writer->state == Computation::State::Scheduled;
  for (Computation* r : array->readers) {
    if (r->is_active() && r->state == Computation::State::Scheduled) {
      conflict = true;
      break;
    }
  }

  if (!conflict) {
    ++stats_.immediate_accesses;
    // Still becomes the logical last version: clear stale tracking.
    array->last_writer = nullptr;
    array->readers.clear();
    gpu_->host_write(array->sim_id);
    return;
  }

  Computation& c =
      new_computation(Computation::Kind::HostWrite, "write:" + array->name);
  c.uses.push_back({array, /*read_only=*/false});
  const std::span<Computation* const> deps =
      infer_dependencies(c, /*honor_read_only=*/true);
  if (opts_.keep_dag) {
    for (const Computation* d : deps) dag_.add_edge(d->id, c.id);
  }
  stats_.edges += static_cast<long>(deps.size());
  ++stats_.host_accesses;

  for (Computation* d : deps) wait_for(*d);
  c.state = Computation::State::Finished;
  gpu_->host_write(array->sim_id);
  if (opts_.keep_dag && !deps.empty()) dag_.host_barrier();
}

}  // namespace psched::rt
