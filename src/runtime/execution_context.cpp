#include "runtime/execution_context.hpp"

#include <algorithm>
#include <bit>
#include <unordered_map>
#include <unordered_set>

#include "runtime/dependency.hpp"

namespace psched::rt {

namespace {
/// Host-side cost of dependency computation + stream selection per
/// registered computation (parallel policy only).
constexpr sim::TimeUs kSchedulingOverheadUs = 1.0;
}  // namespace

Context::Context(sim::GpuRuntime& gpu, Options opts)
    : gpu_(&gpu), opts_(opts), dag_(gpu.spec().pcie_bytes_per_us()) {
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
  for (Computation* c : active_) pool_.finish(*c);
  active_.clear();
  dag_.host_barrier();
}

ContextStats Context::stats() const {
  ContextStats s = stats_;
  s.streams_created = static_cast<long>(streams_->num_streams());
  s.devices_used = std::popcount(devices_used_mask_);
  s.peak_live_computations = static_cast<long>(pool_.peak_live());
  return s;
}

Computation& Context::new_computation(Computation::Kind kind,
                                      std::string_view name) {
  Computation& c = pool_.acquire();
  c.kind = kind;
  c.name = name;
  ++stats_.computations;
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
  spec.name.assign(c.label_prefix()).append(c.name);
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
  // The cost model runs before registration: a throwing model leaves no
  // trace in the context.
  const sim::KernelProfile profile =
      def->cost_fn(cfg, ArgsView(values, /*functional=*/false));

  Computation& c = new_computation(Computation::Kind::Kernel, def->name);
  collect_uses(c, kernel.signature(), values);
  ++stats_.kernels;

  std::function<void()> functional;
  if (opts_.functional && def->host_fn) {
    // The host implementation runs at completion: keep the arguments.
    auto vals = std::make_shared<const std::vector<Value>>(values.begin(),
                                                           values.end());
    auto fn = def->host_fn;
    functional = [fn, cfg, vals]() { fn(cfg, ArgsView(*vals, true)); };
  }

  const double solo_us = schedule(c, cfg, profile, std::move(functional));

  // Feed the execution history that drives block-size recommendations:
  // the work size is the largest array the launch touched.
  double work_items = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (kernel.signature()[i].is_pointer()) {
      work_items = std::max(
          work_items, static_cast<double>(values[i].as_array().size()));
    }
  }
  tuner_.record(kernel.name(), cfg.threads_per_block(), solo_us, work_items);
}

void Context::submit_library(const LibraryFunctionDef& def,
                             std::vector<Value> values) {
  activate();
  check_args(def.name, def.params, values);
  ++stats_.library_calls;

  if (def.stream_aware) {
    const sim::KernelProfile profile = def.cost_fn(ArgsView(values, false));
    Computation& c = new_computation(Computation::Kind::Library, def.name);
    collect_uses(c, def.params, values);
    // Library internals choose their own launch geometry; model a
    // device-filling configuration.
    const auto cfg = sim::LaunchConfig::linear(1024, 256);
    std::function<void()> functional;
    if (opts_.functional && def.host_fn) {
      auto vals = std::make_shared<std::vector<Value>>(std::move(values));
      auto fn = def.host_fn;
      functional = [fn, vals]() { fn(ArgsView(*vals, true)); };
    }
    schedule(c, cfg, profile, std::move(functional));
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

double Context::schedule(Computation& c, const sim::LaunchConfig& cfg,
                         const sim::KernelProfile& profile,
                         std::function<void()> functional) {
  try {
    return opts_.policy == SchedulePolicy::Serial
               ? schedule_serial(c, cfg, profile, std::move(functional))
               : schedule_async(c, cfg, profile, std::move(functional));
  } catch (...) {
    // A launch the runtime rejected (out of memory) never runs, but it
    // took its id and its place in the array tracking at registration. It
    // stays there, so later work on its arrays still orders behind the
    // stream it acquired, and gets a vertex with no work: history stays
    // indexed by id and the bound keeps its parents' paths.
    if (c.state == Computation::State::Created) dag_.add(c);
    throw;
  }
}

double Context::schedule_async(Computation& c, const sim::LaunchConfig& cfg,
                               const sim::KernelProfile& profile,
                               std::function<void()> functional) {
  // Model the cost of dependency computation and stream selection. It only
  // moves the host clock: the runtime calls below advance the engine at
  // their entry (the one-advance rule, GpuRuntime::note_api_call).
  gpu_->charge_host(kSchedulingOverheadUs);

  const std::span<Computation* const> deps =
      infer_dependencies(c, pool_, opts_.honor_read_only);
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
  dag_.add(c);
  return c.solo_us;
}

double Context::schedule_serial(Computation& c, const sim::LaunchConfig& cfg,
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

  c.solo_us = demand.solo_us;
  c.transfer_bytes = staged_bytes;
  dag_.add(c);
  // No dependency tracking names a serial computation: it retires here.
  pool_.finish(c);
  return demand.solo_us;
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
  // Parents precede their children here (registration order), so a child
  // finishing releases parents that are already finished and retires them.
  std::erase_if(active_, [this](Computation* c) {
    if (!gpu_->engine().op_done(c->op)) return false;
    pool_.finish(*c);
    return true;
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

  host_access(Computation::Kind::HostRead, array);
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
    forget_tracking(*array, pool_);
    gpu_->host_write(array->sim_id);
    return;
  }
  host_access(Computation::Kind::HostWrite, array);
}

void Context::host_access(Computation::Kind kind, ArrayState* array) {
  const bool read = kind == Computation::Kind::HostRead;
  Computation& c = new_computation(kind, array->name);
  c.uses.push_back({array, /*read_only=*/read});
  const std::span<Computation* const> deps =
      infer_dependencies(c, pool_, /*honor_read_only=*/true);
  stats_.edges += static_cast<long>(deps.size());
  ++stats_.host_accesses;
  dag_.add(c);
  const bool had_deps = !deps.empty();

  for (Computation* d : deps) wait_for(*d);
  if (read && !gpu_->spec().page_fault_um) {
    // Pre-Pascal: the CPU may not touch an array while *any* kernel uses
    // it; wait for the remaining readers as well.
    for (Computation* r : array->readers) {
      if (r != &c && r->is_active() &&
          r->state == Computation::State::Scheduled) {
        wait_for(*r);
      }
    }
  }
  pool_.finish(c);
  if (read) {
    gpu_->host_read(array->sim_id);
  } else {
    gpu_->host_write(array->sim_id);
  }
  // The host observed a result: later submissions form a new host epoch
  // for the contention-free bound.
  if (had_deps) dag_.host_barrier();
}

void Context::audit() const {
  auto fail = [](const std::string& what) {
    throw sim::Error("Context::audit: " + what);
  };
  // Live records (id >= 0) and their expected reference counts, rebuilt
  // from every holder: array tracking and live children's parent links.
  std::unordered_map<const Computation*, int> refs;
  for (const Computation& c : pool_.slots()) {
    if (c.id >= 0) refs.emplace(&c, 0);
  }
  if (refs.size() != pool_.live()) fail("live count disagrees with slots");
  auto hold = [&](const Computation* c, const std::string& holder) {
    auto it = refs.find(c);
    if (it == refs.end()) fail(holder + " names a retired or foreign slot");
    ++it->second;
  };
  for (const auto& a : arrays_) {
    if (a->last_writer != nullptr) {
      hold(a->last_writer, "last_writer of '" + a->name + "'");
    }
    for (const Computation* r : a->readers) {
      hold(r, "a reader of '" + a->name + "'");
    }
  }
  for (const Computation& c : pool_.slots()) {
    if (c.id < 0) continue;
    if (!c.is_active() && !c.parents.empty()) {
      fail("finished computation " + std::to_string(c.id) +
           " keeps parent links");
    }
    for (const Computation* p : c.parents) {
      hold(p, "a parent link of computation " + std::to_string(c.id));
    }
  }
  for (const auto& [c, n] : refs) {
    if (c->refs != n) {
      fail("computation " + std::to_string(c->id) + " counts " +
           std::to_string(c->refs) + " references, " + std::to_string(n) +
           " are held");
    }
    if (n == 0 && !c->is_active()) {
      fail("computation " + std::to_string(c->id) +
           " is finished and unreferenced but not retired");
    }
  }
  for (const Computation* c : active_) {
    if (!refs.contains(c)) fail("active list names a retired slot");
    if (c->state != Computation::State::Scheduled) {
      fail("active computation " + std::to_string(c->id) +
           " is not Scheduled");
    }
  }
  // With the live count checked above, this makes the free list and the
  // live set partition the slots.
  std::unordered_set<const Computation*> free;
  for (const Computation* c : pool_.free_slots()) {
    if (refs.contains(c)) fail("free list names a live computation");
    if (!free.insert(c).second) fail("free list holds a slot twice");
  }
}

}  // namespace psched::rt
