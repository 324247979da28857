// GrCUDA execution context — the heart of the scheduler (sections IV-B/C).
//
// Every GPU-related operation of the host program flows through here:
//
//   1. an invocation is converted into a ComputationalElement,
//   2. registered with the context, which updates the computation DAG with
//      the element's automatically inferred data dependencies,
//   3. the stream manager assigns a CUDA stream (respecting the configured
//      policy) and the element is issued asynchronously, synchronized with
//      its parents through CUDA events — never blocking the host,
//   4. CPU accesses to managed arrays synchronize exactly the computations
//      producing the accessed data, after which those elements retire from
//      the active frontier.
//
// The context keeps only live computations: a retired element (finished,
// and named by no array's tracking and no live child) returns its slot to
// the pool, and the DAG recorder keeps the Fig. 9 bound online. Full DAG
// history is opt-in (record_dag()).
//
// The serial policy reproduces the original GrCUDA scheduler the paper uses
// as its baseline: default stream, blocking launches, no dependency
// computation, no prefetching.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "runtime/autotune.hpp"
#include "runtime/dag.hpp"
#include "runtime/device_array.hpp"
#include "runtime/kernel.hpp"
#include "runtime/library_function.hpp"
#include "runtime/policies.hpp"
#include "runtime/stream_manager.hpp"
#include "sim/runtime.hpp"

namespace psched::rt {

struct Options {
  SchedulePolicy policy = SchedulePolicy::Parallel;
  StreamPolicy stream_policy = StreamPolicy::FifoReuse;
  /// Multi-GPU placement (applies when the runtime's Machine roster holds
  /// more than one device; single-device rosters ignore it).
  DevicePolicy device_policy = DevicePolicy::SingleDevice;
  /// Tenant this context's computations, streams, and arrays belong to
  /// (multi-app runs sharing one GpuRuntime give each app its own Context
  /// with a distinct tenant — typically a TenantManager-created id). The
  /// context activates it on the runtime before every operation. Tenant 0
  /// is the default single-app tenant.
  sim::TenantId tenant = sim::kDefaultTenant;
  /// Automatic unified-memory prefetching ahead of kernels (Pascal+ only;
  /// pre-Pascal architectures always transfer ahead of execution).
  bool prefetch = true;
  /// Execute kernels' functional host implementations (tests/examples);
  /// disable for paper-scale timing-only benchmark runs.
  bool functional = true;
  /// Honor const/in annotations for dependency inference. Disabling treats
  /// every argument as written (ablation; also the behaviour for
  /// unannotated signatures).
  bool honor_read_only = true;
  /// Kernel registry used to resolve build_kernel() names. Must be set
  /// before building kernels (the kernels library exports
  /// psched::kernels::registry() with all 33 paper kernels).
  const KernelRegistry* registry = nullptr;
};

struct ContextStats {
  long computations = 0;
  long kernels = 0;
  long host_accesses = 0;   ///< CPU accesses that became DAG elements
  long immediate_accesses = 0;  ///< CPU accesses executed immediately
  long library_calls = 0;
  long edges = 0;
  long event_waits = 0;
  long blocking_syncs = 0;
  long prefetches = 0;
  long streams_created = 0;
  long devices_used = 0;  ///< distinct devices computations were placed on
  long advised_evictions = 0;  ///< advise_evict calls that released pages
  /// Most computation records held at once (live: not yet retired).
  long peak_live_computations = 0;
};

class Context {
 public:
  explicit Context(sim::GpuRuntime& gpu, Options opts = {});
  ~Context();

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  // --- arrays ---
  [[nodiscard]] DeviceArray array(DType dtype, std::size_t n,
                                  std::string name = "");
  template <typename T>
  [[nodiscard]] DeviceArray array(std::size_t n, std::string name = "") {
    return array(dtype_of_v<T>, n, std::move(name));
  }
  /// Explicit free (synchronizes the computations using the array first).
  void free(DeviceArray& a);

  // --- kernels ---
  /// Resolve a registered kernel and bind it to a NIDL signature.
  [[nodiscard]] Kernel build_kernel(const std::string& name,
                                    const std::string& signature);
  /// GrCUDA API fidelity: accepts (and ignores) CUDA source code — kernels
  /// dispatch to their registered host implementations.
  [[nodiscard]] Kernel build_kernel(const std::string& code,
                                    const std::string& name,
                                    const std::string& signature);
  [[nodiscard]] LibraryFunction bind_library(LibraryFunctionDef def);

  // --- synchronization ---
  /// Drain the whole device and retire every active computation.
  void synchronize();

  // --- unified-memory advice (oversubscription control) ---
  /// Voluntarily page `a` out of device `d`; arrays with in-flight
  /// computations are left untouched. Returns the bytes released.
  std::size_t advise_evict(DeviceArray& a, sim::DeviceId d = 0);
  /// Pin / unpin `a`'s pages on `d` (exempt from LRU eviction).
  void pin(DeviceArray& a, sim::DeviceId d = 0);
  void unpin(DeviceArray& a, sim::DeviceId d = 0);

  // --- introspection ---
  [[nodiscard]] const Options& options() const { return opts_; }
  /// The contention-free critical path (at the device's PCIe rate) and,
  /// after record_dag(), the full DAG history.
  [[nodiscard]] const DagRecorder& dag() const { return dag_; }
  /// Keep every DAG vertex and edge (to_dot, has_edge, vertices). Call
  /// before the first computation registers; ApiError otherwise.
  void record_dag() { dag_.record_history(); }
  /// Per-kernel execution history used for block-size recommendations
  /// (the paper's future-work heuristic; see Kernel::autotuned()).
  [[nodiscard]] const BlockSizeTuner& tuner() const { return tuner_; }
  [[nodiscard]] ContextStats stats() const;
  [[nodiscard]] sim::GpuRuntime& gpu() { return *gpu_; }
  [[nodiscard]] const StreamManager& stream_manager() const {
    return *streams_;
  }
  /// The active frontier: computations issued to the device whose
  /// completion the host has not observed yet, in registration order.
  [[nodiscard]] std::span<Computation* const> active() const {
    return active_;
  }
  /// Check the live-frontier invariants: array tracking, parent links and
  /// the active list name live records only, the free list is disjoint
  /// from the live set, and every record's reference count matches the
  /// references held on it. Throws sim::Error naming the first violation.
  void audit() const;

  // --- internal entry points (DeviceArray / ConfiguredKernel / Library) ---
  void submit_kernel(const Kernel& kernel, const sim::LaunchConfig& cfg,
                     std::span<const Value> values);
  void submit_library(const LibraryFunctionDef& def, std::vector<Value> values);
  void on_host_read(ArrayState* array);
  void on_host_write(ArrayState* array);

 private:
  /// Make this context's tenant the runtime's ambient tenant. Called at
  /// every public entry point: contexts of different tenants interleave
  /// on one runtime, so the ambient tenant must be re-asserted before
  /// streams are created or ops issued on this context's behalf.
  void activate() { gpu_->set_active_tenant(opts_.tenant); }
  /// Drain *this context's* tenant shard of the concurrent ingestion
  /// front-end (sim/ingest_queue.hpp), if one is attached. The runtime's
  /// blocking entry points flush whichever tenant is ambient at call
  /// time; a context about to observe engine state pins the flush to its
  /// own tenant instead, so work another thread queued for this tenant
  /// is committed before the observation no matter who is ambient.
  void flush_ingest() { gpu_->flush_ingest(opts_.tenant); }
  Computation& new_computation(Computation::Kind kind, std::string_view name);
  /// Validate invocation values against a NIDL signature, freed arrays
  /// included — before anything is registered, so a rejected call leaves
  /// no trace in the context or its DAG.
  static void check_args(const std::string& name,
                         const std::vector<ParamSpec>& params,
                         std::span<const Value> values);
  /// Fill `c.uses` (arrays only) from checked values + signature.
  static void collect_uses(Computation& c,
                           const std::vector<ParamSpec>& params,
                           std::span<const Value> values);
  /// The launch of `c`, in the reused launch_spec_: its array list is
  /// `c.uses` deduplicated in first-use order (a write use dominates).
  sim::LaunchSpec& launch_spec(const Computation& c,
                               const sim::LaunchConfig& cfg,
                               const sim::KernelProfile& profile,
                               std::function<void()> functional);
  /// Schedule `c` under the configured policy and return the launch's solo
  /// duration (`c` may retire before the caller could read it). If the
  /// runtime rejects the launch, `c` is recorded with no work and stays in
  /// the frontier, as registered, before the error propagates.
  double schedule(Computation& c, const sim::LaunchConfig& cfg,
                  const sim::KernelProfile& profile,
                  std::function<void()> functional);
  /// Common path for kernels and stream-aware library calls.
  double schedule_async(Computation& c, const sim::LaunchConfig& cfg,
                        const sim::KernelProfile& profile,
                        std::function<void()> functional);
  /// Serial (original GrCUDA) path: default stream + blocking sync.
  double schedule_serial(Computation& c, const sim::LaunchConfig& cfg,
                         const sim::KernelProfile& profile,
                         std::function<void()> functional);
  /// Block until `c`'s event completes; then retire finished computations.
  void wait_for(Computation& c);
  /// Mark every computation whose device op has completed as Finished.
  void sweep_finished();
  /// Shared tail of on_host_read / on_host_write: register the access as a
  /// DAG element, wait for its parents, and retire it.
  void host_access(Computation::Kind kind, ArrayState* array);

  sim::GpuRuntime* gpu_;
  Options opts_;
  std::unique_ptr<StreamManager> streams_;
  std::unique_ptr<DevicePlacer> placer_;
  std::uint32_t devices_used_mask_ = 0;
  ComputationPool pool_;  ///< live computation records
  sim::LaunchSpec launch_spec_;  ///< reused by every launch (capacity kept)
  std::vector<Computation*> active_;  ///< Scheduled, not yet Finished
  std::vector<std::shared_ptr<ArrayState>> arrays_;
  DagRecorder dag_;
  ContextStats stats_;
  BlockSizeTuner tuner_;
};

}  // namespace psched::rt
