// GpuRuntime — the CUDA-like host API facade over the engine.
//
// This is the layer the paper's scheduler (and the hand-tuned baselines)
// program against: streams, events, managed allocations, async copies and
// prefetches, kernel launches, and blocking synchronization. It maintains
// the virtual *host* clock: non-blocking calls cost a small fixed overhead,
// blocking synchronization advances the host clock to the completion time.
//
// Unified-memory behaviour at kernel launch:
//   * If an argument array needs migration and nothing was prefetched, an
//     implicit migration op is inserted before the kernel on its stream —
//     over the de-rated page-fault path on Pascal+ (on-demand migration),
//     or the full PCIe link on pre-Pascal (migration ahead of execution,
//     there is no fault mechanism).
//   * Explicit mem_prefetch_async / memcpy_h2d_async move data at full PCIe
//     bandwidth and can overlap other streams' kernels.
//   * Cross-stream uses of an in-flight migration wait on its ready event.
//
// Multi-GPU behaviour (Machine roster): streams belong to a device, arrays
// track per-device residency, and staging resolves the *source* of each
// migration — host (H2D / fault path) when the host copy is newest, a peer
// device (CopyP2P over the directed link class) when another GPU holds the
// freshest copy. A kernel write invalidates every other device's copy.
//
// Oversubscription: device memory is paged (see sim/memory.hpp). Each
// launch admits its whole working set with at most one eviction plan;
// LRU victim pages whose only current copy lives on the device are written
// back as real D2H ops on the device's service stream, and the faulting
// stream waits for those page-outs before its own migrations/kernel start.
// A device can therefore run working sets beyond its capacity — it
// thrashes (visible in bytes_evicted / evict_ops and the D2H class solve
// counters) instead of raising OutOfMemoryError, which remains only for a
// single op whose working set exceeds the device. With a frontier announced
// (graph launches, replays, ingest drains) the residency planner pages
// ahead of the schedule instead: write-backs on a per-device write-back
// stream behind the victims' last issued users, fetches on a prefetch
// stream behind only the frames they need, so paging overlaps compute in
// both DMA directions.
//
// Host accesses (host_read / host_write) perform hazard detection: accessing
// an array while device ops on it are still pending means the caller failed
// to synchronize — a correctness bug in the scheduler under test.
//
// Transactional submission: every async call goes through one issue path
// (issue_op / issue_record / issue_wait). Outside a batch the call is an
// implicit single-op transaction that commits at the call; between
// begin_submit() and commit() it ingests into one open engine transaction,
// charged a reduced per-call host cost, that commits as a unit (a
// TaskGraph launch and an ingest drain are such batches). begin_record()
// tees the same path into a Submission that replay() later hands to
// Engine::ingest, which joins the open batch if there is one and otherwise
// brackets the list as its own transaction. Blocking and observing calls
// (synchronize_*, host_read/host_write, poll, stream_idle, event_done,
// free_array) flush the open batch first, so batch boundaries align with
// host observation points.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "sim/device_spec.hpp"
#include "sim/engine.hpp"
#include "sim/machine.hpp"
#include "sim/memory.hpp"
#include "sim/types.hpp"

namespace psched::sim {

/// How a kernel launch uses one array argument.
struct ArrayUse {
  ArrayId id = kInvalidArray;
  bool write = false;
};

/// Full description of a kernel launch (shared with the graph API).
struct LaunchSpec {
  std::string name;
  LaunchConfig config;
  KernelProfile profile;
  std::vector<ArrayUse> arrays;
  std::function<void()> functional;  ///< optional host execution at completion

  /// Add one array argument. Repeats of an array coalesce into its first
  /// entry, where a write use dominates read uses.
  void add_array(ArrayId id, bool write) {
    for (ArrayUse& u : arrays) {
      if (u.id == id) {
        u.write = u.write || write;
        return;
      }
    }
    arrays.push_back({id, write});
  }
};

class TaskGraph;      // graph.hpp
class IngestService;  // ingest_queue.hpp
class QosManager;     // qos.hpp

class GpuRuntime {
 public:
  /// Single-GPU convenience: GpuRuntime(Machine::single(spec)).
  explicit GpuRuntime(DeviceSpec spec);
  explicit GpuRuntime(Machine machine);
  /// `page_bytes` sets the unified-memory paging granule (tests shrink it
  /// to exercise partial-array residency runs).
  GpuRuntime(Machine machine, std::size_t page_bytes);
  ~GpuRuntime();

  GpuRuntime(const GpuRuntime&) = delete;
  GpuRuntime& operator=(const GpuRuntime&) = delete;

  // --- host clock ---
  [[nodiscard]] TimeUs now() const { return host_now_; }
  /// Model host-side computation taking `dt` microseconds (a public
  /// entry: brings the engine up to the new host time).
  void host_advance(TimeUs dt);
  /// Charge `dt` microseconds of host-side bookkeeping that immediately
  /// precedes the caller's next API call, without an engine advance of its
  /// own: that call's entry advance covers both (see note_api_call). The
  /// engine lags the host clock until then, so use host_advance for host
  /// computation after which state is observed without a runtime call.
  void charge_host(TimeUs dt);

  // --- tenancy (see sim/tenant.hpp for the multi-app handles) ---
  /// The ambient tenant subsequently created streams and allocations are
  /// attributed to (ops inherit their stream's tenant inside the engine).
  /// Single-app programs never touch this and stay on tenant 0. The
  /// TenantManager's handles set it before every forwarded call.
  void set_active_tenant(TenantId t) {
    if (t < 0 || t >= kMaxTenants) {
      throw ApiError("set_active_tenant: invalid tenant " +
                     std::to_string(t));
    }
    active_tenant_.store(t, std::memory_order_relaxed);
  }
  [[nodiscard]] TenantId active_tenant() const {
    return active_tenant_.load(std::memory_order_relaxed);
  }

  // --- streams and events ---
  /// Process device completions up to the current host time (non-blocking).
  /// Lets pollers (e.g. the stream manager's idle free-list) observe
  /// completion callbacks without issuing a query per stream.
  void poll();
  StreamId create_stream();                ///< on device 0
  StreamId create_stream(DeviceId device);
  [[nodiscard]] DeviceId stream_device(StreamId stream) const {
    return engine_.stream_device(stream);
  }
  EventId create_event();
  void record_event(EventId event, StreamId stream);
  void stream_wait_event(StreamId stream, EventId event);
  [[nodiscard]] bool stream_idle(StreamId stream);
  void synchronize_stream(StreamId stream);
  void synchronize_event(EventId event);
  void synchronize_device();
  [[nodiscard]] bool event_done(EventId event);

  // --- managed memory ---
  ArrayId alloc(std::size_t bytes, const std::string& name);
  void free_array(ArrayId id);
  [[nodiscard]] MemoryManager& memory() { return memory_; }
  [[nodiscard]] const MemoryManager& memory() const { return memory_; }

  // --- data movement ---
  /// UM prefetch: migration at full link bandwidth if the device copy is
  /// stale (nothing is issued otherwise). Later ops order behind it through
  /// the array's per-device ready event.
  void mem_prefetch_async(ArrayId id, StreamId stream) {
    copy_to_device_async(id, stream, /*explicit_copy=*/false);
  }
  /// Explicit ahead-of-time copy (identical timing; used by pre-Pascal code
  /// paths and hand-tuned baselines). Unlike a prefetch, stream capture
  /// keeps it as a graph node.
  void memcpy_h2d_async(ArrayId id, StreamId stream) {
    copy_to_device_async(id, stream, /*explicit_copy=*/true);
  }

  // --- unified-memory advice (oversubscription control) ---
  /// Pin the array's pages on `device`: exempt from LRU eviction until
  /// unpinned (cudaMemAdvise-style preferred-location + accessed-by).
  void advise_pin(ArrayId id, DeviceId device);
  void advise_unpin(ArrayId id, DeviceId device);
  /// Voluntarily page the array out of `device` now. Pages whose only
  /// current copy lives on the device are written back over the D2H DMA
  /// class (real ops); stale pages are dropped for free. Arrays with
  /// in-flight device ops are left untouched. Returns the bytes released.
  std::size_t advise_evict(ArrayId id, DeviceId device);

  // --- host access (caller must have synchronized; we check) ---
  /// Blocking read: migrates D2H if the device copy is newer.
  void host_read(ArrayId id);
  /// Blocking write: marks the host copy as the newest version.
  void host_write(ArrayId id);

  // --- kernel launch ---
  /// Issue a kernel on `stream`. The launch prices the kernel's demand
  /// once; callers that need it (the rt layer's solo-time accounting)
  /// pass `demand` to read it back instead of re-deriving it.
  OpId launch(StreamId stream, const LaunchSpec& spec,
              KernelDemand* demand = nullptr);

  // --- schedule-time residency planning (see sim/memory.hpp) ---
  /// Announce the upcoming schedule (one entry per future launch, in
  /// order) to the planner. Graph launches and drained ingest batches do
  /// this automatically; explicit stream programs may announce by hand.
  /// The frontier is advisory: launches that match the head advance it,
  /// divergent schedules simply degrade the scoring.
  void announce_frontier(std::vector<FrontierEntry> entries) {
    const auto gate = api_guard();
    memory_.planner().announce(std::move(entries));
  }
  void clear_frontier() {
    const auto gate = api_guard();
    memory_.planner().clear();
  }

  // --- capture (CUDA-Graphs stream capture; see graph.hpp) ---
  void begin_capture(TaskGraph& graph);
  void end_capture();
  [[nodiscard]] bool capturing() const { return capture_ != nullptr; }

  // --- batched submission (explicit transactions) ---
  /// Open a batch: subsequent async calls (launch / copies / prefetches /
  /// event records and waits) ingest into one open engine transaction
  /// instead of committing per call, and cost kBatchedCallCpuOverheadUs of
  /// host time each instead of kLaunchCpuOverheadUs. launch() still
  /// returns the op id (ops ingest immediately) but nothing starts or
  /// completes until the transaction commits. Mutually exclusive with
  /// stream capture.
  void begin_submit();
  /// Commit the open batch as one engine transaction; returns the number
  /// of ops submitted since begin_submit (or the last implicit flush).
  std::size_t commit();
  [[nodiscard]] bool submitting() const { return batch_open_; }
  /// Explicit-batch accounting: transactions committed (including implicit
  /// flushes at synchronization points) and ops they carried.
  [[nodiscard]] long batch_commits() const { return batch_commits_; }
  [[nodiscard]] long batched_ops() const { return batched_ops_; }

  // --- recorded submissions (replayable) ---
  /// Tee every subsequent async call into `sub` *in addition to* normal
  /// execution (a batch is opened if none is). The recorded list can then
  /// be re-committed with replay() — repeatedly, without rebuilding —
  /// like a CUDA graph relaunch. Mutually exclusive with
  /// stream capture and with an already-active recording.
  void begin_record(Submission& sub);
  /// Stop recording; commits the batch begin_record opened (if it opened
  /// one) and returns the ops that batch carried. Also the recovery path
  /// after a throwing call: ops already issued are real, the runtime
  /// returns to per-call mode, and the caller discards the partial
  /// recording (Submission::clear).
  std::size_t end_record();
  [[nodiscard]] bool recording() const { return record_ != nullptr; }
  /// Re-commit a previously recorded submission through Engine::ingest
  /// (one API-call host charge): its own transaction, or part of the
  /// open batch if one is open. The recorded ops replay verbatim —
  /// staging decisions are NOT re-derived, matching CUDA Graphs' static
  /// replay — so keep the referenced arrays alive (and pinned, if the
  /// device is oversubscribed). Returns the number of ops committed.
  std::size_t replay(const Submission& sub);

  // --- concurrent ingestion front-end (see sim/ingest_queue.hpp) ---
  /// One recursive gate serializes every public API call against the
  /// attached front-end's drain batches, so the engine stays effectively
  /// single-threaded under concurrent producers. Recursive because drains
  /// (and drain-executed closures) re-enter gated entries. Uncontended
  /// cost is a few tens of nanoseconds per call.
  [[nodiscard]] std::unique_lock<std::recursive_mutex> api_guard() const {
    return std::unique_lock<std::recursive_mutex>(api_mu_);
  }
  /// Called by IngestService's constructor / destructor.
  void attach_ingest(IngestService* svc);
  void detach_ingest(IngestService* svc);
  [[nodiscard]] IngestService* ingest() const {
    return ingest_.load(std::memory_order_acquire);
  }
  /// Drain `tenant`'s ingest shard to empty on the calling thread (the
  /// front-end's flush point): queued work is committed engine state when
  /// this returns. No-op without an attached front-end or when already
  /// inside a drain. Every blocking / observing call runs this for the
  /// ambient tenant before it touches engine state, so queued work is
  /// never invisibly in flight at a host observation point.
  void flush_ingest(TenantId tenant);

  // --- latency QoS (see sim/qos.hpp) ---
  /// Called by QosManager's constructor / destructor. While attached,
  /// launch() and replay() (and so TaskGraph launches) run the manager's
  /// admission check for the ambient tenant before any state changes — a
  /// rejected call throws AdmissionError and leaves the runtime untouched.
  /// Work drained from the attached ingest queue is not checked again: it
  /// was admitted when it was queued.
  void attach_qos(QosManager* qos);
  void detach_qos(QosManager* qos);
  [[nodiscard]] QosManager* qos() const {
    return qos_.load(std::memory_order_acquire);
  }

  // --- introspection ---
  [[nodiscard]] Engine& engine() { return engine_; }
  [[nodiscard]] const Engine& engine() const { return engine_; }
  [[nodiscard]] Timeline& timeline() { return engine_.timeline(); }
  [[nodiscard]] const Machine& machine() const { return engine_.machine(); }
  [[nodiscard]] int num_devices() const { return engine_.num_devices(); }
  [[nodiscard]] const DeviceSpec& spec() const { return engine_.spec(); }
  [[nodiscard]] const DeviceSpec& spec(DeviceId d) const {
    return engine_.spec(d);
  }
  [[nodiscard]] int hazard_count() const { return hazards_; }
  /// Throw ApiError on host-access hazards instead of counting (default on).
  void set_strict_hazards(bool strict) { strict_hazards_ = strict; }
  /// Total bytes moved per category (accounting for tests/reporting).
  [[nodiscard]] double bytes_h2d() const { return bytes_h2d_; }
  [[nodiscard]] double bytes_d2h() const { return bytes_d2h_; }
  [[nodiscard]] double bytes_faulted() const { return bytes_faulted_; }
  [[nodiscard]] double bytes_p2p() const { return bytes_p2p_; }
  /// Bytes paged out of device `d` under memory pressure (LRU drops plus
  /// write-backs) and across the roster.
  [[nodiscard]] std::size_t device_bytes_evicted(DeviceId d) const {
    return memory_.device_evicted_bytes(d);
  }
  /// Bytes of tenant `t`'s pages paged out of device `d` — the live
  /// per-tenant pressure signal behind DevicePolicy::MinPressure.
  [[nodiscard]] std::size_t tenant_bytes_evicted(TenantId t,
                                                 DeviceId d) const {
    return memory_.tenant_evicted_bytes(t, d);
  }
  [[nodiscard]] std::size_t bytes_evicted() const {
    std::size_t n = 0;
    for (DeviceId d = 0; d < num_devices(); ++d) {
      n += memory_.device_evicted_bytes(d);
    }
    return n;
  }
  /// Eviction write-back ops issued (D2H page-outs priced on the DMA
  /// classes) and fault-path migration ops issued.
  [[nodiscard]] long evict_ops() const { return evict_ops_; }
  [[nodiscard]] long fault_ops() const { return fault_ops_; }
  /// Lookahead-prefetch transfer ops issued and the bytes they moved.
  [[nodiscard]] long prefetch_ops() const { return prefetch_ops_; }
  [[nodiscard]] double prefetch_bytes() const { return prefetch_bytes_; }
  /// Prefetched bytes evicted again before any launch consumed them.
  [[nodiscard]] std::size_t wasted_prefetch_bytes() const {
    return memory_.wasted_prefetch_bytes();
  }
  /// Fraction of prefetch-transfer busy time overlapped by kernel
  /// execution (post-hoc, from the timeline) — the planner's whole point
  /// is pushing this toward 1. Zero when no prefetch ran.
  [[nodiscard]] double prefetch_overlap_fraction() const;
  /// Per-device physical-residency accounting (see MemoryManager): bytes
  /// currently charged to device `d` and the high-water mark.
  [[nodiscard]] std::size_t device_bytes_used(DeviceId d) const {
    return memory_.device_used_bytes(d);
  }
  [[nodiscard]] std::size_t device_bytes_peak(DeviceId d) const {
    return memory_.device_peak_bytes(d);
  }

  /// Fixed host-side cost of issuing any async operation (microseconds).
  static constexpr TimeUs kLaunchCpuOverheadUs = 2.0;
  /// Host cost of appending one async call to an open batch: a command-
  /// buffer write, an order of magnitude cheaper than a driver call.
  static constexpr TimeUs kBatchedCallCpuOverheadUs = 0.2;

 private:
  /// Stage migrations bringing the array current on `stream`'s device,
  /// resolving sources at page granularity: every stale run is fetched from
  /// the host (`host_kind`: CopyH2D or Fault) when only the host holds it,
  /// or from the lowest-indexed fresh peer device (CopyP2P) — one op per
  /// distinct source, partial-fresh arrays fetch only their stale runs.
  /// Residency must already be admitted (see admit_working_set).
  void stage_to_device(ArrayId id, StreamId stream, OpKind host_kind);
  /// Body of mem_prefetch_async / memcpy_h2d_async (`explicit_copy` only
  /// decides how stream capture records the call).
  void copy_to_device_async(ArrayId id, StreamId stream, bool explicit_copy);
  /// Charge `ids` to `device` for the ambient tenant. On OutOfMemoryError
  /// with device work in flight, stall like a UM fault: drain the device
  /// and retry once.
  EvictionPlan charge_or_stall(std::span<const ArrayId> ids, DeviceId device);
  /// Admit the working set of one operation to `device` in a single
  /// eviction plan, price the plan's write-backs as D2H ops on the
  /// device's service stream (its write-back stream under a frontier),
  /// and make `stream` wait for the page-outs to drain — and for pending
  /// planner page-outs when it charges new pages — before its own ops
  /// may start.
  void admit_working_set(std::span<const ArrayId> ids, DeviceId device,
                         StreamId stream);
  /// Issue the plan's write-backs on `stream`; returns an event completing
  /// when the last page-out drains (kInvalidEvent if the plan carries
  /// none).
  EventId price_eviction(const EvictionPlan& plan, StreamId stream);
  /// Issue one write-back: a CopyD2H of `bytes` on `stream`, registered as
  /// an in-flight read of every victim until it completes. `after` (ops)
  /// and `waits` (events, resolved to their gate ops at the call by
  /// Engine::wait_on_event) gate its start on the op itself (no
  /// wait-marker ops).
  void issue_writeback(StreamId stream, std::string name, double bytes,
                       std::span<const ArrayId> victims,
                       std::span<const EventId> waits,
                       std::vector<OpId> after);
  /// Issue one fetch onto `stream`'s device — from the host (`kind`
  /// CopyH2D or Fault) or from peer `src` (CopyP2P) — named `tag` behind
  /// a kind prefix ("prefetch:" for planner steps), and count its bytes.
  /// `waits` gate its start on the op itself, resolved like
  /// issue_writeback's.
  void issue_fetch(StreamId stream, OpKind kind, DeviceId src,
                   const std::string& tag, double bytes, bool prefetch,
                   Submission::BindFn bind,
                   std::span<const EventId> waits = {});
  /// Issue one planner step with minimal op count on two streams, so
  /// page-outs and fetches use both DMA directions at once: the step's
  /// write-backs merged into one CopyD2H on the device's write-back
  /// stream, gated directly on the victims' last issued users (evict
  /// behind last use) and closed by an event that is both the victims'
  /// host-ready gate and the device's frames-free signal; then its
  /// fetches, one op per distinct source (host or fresh peer) on the
  /// prefetch stream, waiting only for those frames and their sources,
  /// closed by the fetched arrays' device-ready event. The admission path keeps its
  /// per-victim price_eviction ops — those are part of the golden
  /// schedules.
  void issue_prefetch_step(const PrefetchStep& step);
  /// Fold `a`'s in-flight ops into `gates`: per stream, the last issued
  /// one (a page-out of `a` must start behind it). Fetches on
  /// `fetch_stream` are skipped when a later user covers them.
  void add_user_gates(const ArrayInfo& a, StreamId fetch_stream,
                      std::vector<std::pair<StreamId, OpId>>& gates);
  /// Consume the planner's prefetch steps (issue_prefetch_step each),
  /// outside any active recording. Called before every launch while a
  /// frontier is active.
  void run_prefetch_pass();
  /// Residency planning at replay: re-admit each annotated working set
  /// (future-scored against the whole recorded list, early page-outs on
  /// the service stream) so replayed launches find their pages charged.
  /// No prefetch transfers are issued — the recorded fault ops are the
  /// static data movement. Skips never-evicted under-capacity devices
  /// outright, keeping such replays bit-identical (stamps included).
  void replay_admit(const Submission& sub);
  /// The QoS admission check of launch() and replay() (see attach_qos).
  void admit(const char* call);
  void note_host_access(ArrayId id, bool for_write);
  /// True if `ev` names an event that has not completed yet.
  [[nodiscard]] bool event_pending(EventId ev) {
    return ev != kInvalidEvent && !engine_.event_done(ev);
  }
  /// Internal per-(device, tenant) stream used for runtime-initiated
  /// transfers (eviction write-backs, host-read D2H). Keyed by the
  /// *ambient* tenant so the traffic — and its weighted share of the D2H
  /// class — is charged to the tenant whose admission or read caused it,
  /// never to a shared system tenant. (Device 0, tenant 0) maps to the
  /// default stream, the historical single-app behaviour; others are
  /// lazily made.
  [[nodiscard]] StreamId service_stream(DeviceId device) {
    return tenant_stream(service_streams_, device);
  }
  /// Internal per-(device, tenant) stream prefetch traffic rides — kept
  /// distinct from the service stream (which the default-stream program
  /// shares on device 0) so lookahead transfers genuinely overlap the
  /// schedule instead of serializing behind it. Lazily made: runs without
  /// prefetch never create it, so stream ids stay bit-identical.
  [[nodiscard]] StreamId prefetch_stream(DeviceId device) {
    return tenant_stream(prefetch_streams_, device);
  }
  /// Internal per-(device, tenant) stream planner write-backs ride, apart
  /// from the prefetch stream so page-outs (D2H) and fetches (H2D) run
  /// concurrently instead of queueing behind each other. Lazily made.
  [[nodiscard]] StreamId writeback_stream(DeviceId device) {
    return tenant_stream(writeback_streams_, device);
  }
  /// The ambient tenant's stream on `device` in `table`, made on first use.
  StreamId tenant_stream(std::vector<std::vector<StreamId>>& table,
                         DeviceId device);

  /// Charge one async API call to the host clock (full per-call overhead,
  /// or the cheaper batched append cost inside an open batch) and bring
  /// the engine up to date in per-call mode.
  ///
  /// The one-advance rule: every public entry advances the engine to the
  /// host clock exactly once. Async entries do it here, at their start;
  /// the ops, records and waits they then issue (issue_*) all carry the
  /// same host time and only queue into the engine — the next entry's
  /// advance drains them at that time, which the engine's grouping
  /// guarantee makes bit-identical to draining after each. Runtime
  /// decisions inside an entry read issue-time state (freshness, pending
  /// events recorded by earlier entries), never completions the trailing
  /// drain would have produced. charge_host moves the host clock under
  /// the same rule; blocking and observing entries advance in observe().
  void note_api_call();
  /// Commit the open engine transaction, if any (keeps an explicit batch
  /// open — the next async call reopens lazily); returns its op count.
  std::size_t flush_submission();
  /// The entry of every blocking / observing call: flush_submission, then
  /// bring the engine up to the host clock, so batch boundaries align with
  /// host observations.
  void observe();
  /// join_batch lazily (re)opens the engine transaction inside a batch:
  /// the first async call after begin_submit or after an implicit flush.
  /// settle is an entry's one engine advance in per-call mode; in a batch
  /// the engine waits for the commit.
  void join_batch();
  void settle();
  /// Route one op enqueue through the current transaction: queued at the
  /// host clock per call, or ingested into the open batch. `bind` runs
  /// with the assigned id before the op can start.
  OpId issue_op(Op op, Submission::BindFn bind);
  void issue_record(EventId event, StreamId stream);
  void issue_wait(StreamId stream, EventId event);
  /// flush_ingest for the ambient tenant (blocking/observing entries).
  void ingest_flush();

  Engine engine_;
  MemoryManager memory_;
  std::vector<std::vector<StreamId>> service_streams_;  ///< [device][tenant]
  std::vector<std::vector<StreamId>> prefetch_streams_;  ///< [device][tenant]
  std::vector<std::vector<StreamId>> writeback_streams_;  ///< [device][tenant]
  /// Per device: the event closing the latest planner page-outs. Frames
  /// those paged out are reusable only once it fires; later fetches and
  /// admissions that charge new pages wait for it while it is pending.
  std::vector<EventId> frames_event_;
  bool batch_open_ = false;
  long batch_commits_ = 0;
  long batched_ops_ = 0;
  TimeUs host_now_ = 0;
  int hazards_ = 0;
  bool strict_hazards_ = true;
  double bytes_h2d_ = 0;
  double bytes_d2h_ = 0;
  double bytes_faulted_ = 0;
  double bytes_p2p_ = 0;
  long evict_ops_ = 0;
  long fault_ops_ = 0;
  long prefetch_ops_ = 0;
  double prefetch_bytes_ = 0;
  /// Ambient tenant. Atomic so unsynchronized reads (service-stream
  /// lookups racing a drain's save/restore) stay defined; the logical
  /// set-then-call pairing is protected by the api gate, which drains hold
  /// across whole batches and restore the ambient tenant under.
  std::atomic<TenantId> active_tenant_{kDefaultTenant};
  /// Engine gate + attached concurrent front-end (see api_guard()).
  mutable std::recursive_mutex api_mu_;
  std::atomic<IngestService*> ingest_{nullptr};
  /// Attached QoS policy; atomic so ingest producer threads can consult
  /// it lock-free at submission time (same pattern as ingest_).
  std::atomic<QosManager*> qos_{nullptr};
  TaskGraph* capture_ = nullptr;
  Submission* record_ = nullptr;
  bool record_owns_batch_ = false;
  std::vector<ArrayId> admit_scratch_;  ///< per-launch working-set ids
  /// Per-source byte tallies of one staging or host read (ascending src).
  std::vector<std::pair<DeviceId, double>> source_bytes_;
  /// In-flight eviction write-back ops: runtime-initiated traffic that
  /// free_array drains instead of reporting as a missing user sync.
  std::unordered_set<OpId> evict_inflight_;

  // --- issue records (see docs/engine-internals.md, "Runtime layer") ---
  /// Host-side state of one issued kernel, fetch or write-back: the
  /// arrays its bind marks in flight and its completion releases. Binds
  /// and completion callbacks capture only (runtime, slot) — trivially
  /// copyable and small enough for std::function's inline buffer — so
  /// issuing allocates no closure. Slots recycle once their last bound op
  /// completes; a record teed into a recording is pinned instead, because
  /// every replay re-runs its bind with fresh op ids.
  struct IssueRecord {
    enum class Kind { Kernel, Fetch, Writeback };
    Kind kind = Kind::Kernel;
    DeviceId device = kInvalidDevice;  ///< kernel / fetch destination
    std::vector<ArrayUse> arrays;      ///< capacity kept across reuse
    std::function<void()> functional;  ///< kernels: host execution
    int users = 0;                     ///< bound ops not yet completed
    bool pinned = false;               ///< referenced by a recording
  };
  /// One bound op of a record (a record binds once per issue or replay).
  struct BoundOp {
    std::uint32_t record = 0;
    OpId op = kInvalidOp;
  };
  /// A fresh record slot of `kind` for `device`, empty array list.
  std::uint32_t new_record(IssueRecord::Kind kind, DeviceId device);
  /// The bind of record `slot` (shared by every op issued from it).
  [[nodiscard]] Submission::BindFn record_bind(std::uint32_t slot);
  void bind_record(std::uint32_t slot, Engine& eng, OpId op);
  void complete_bound(std::uint32_t bound);
  std::vector<IssueRecord> records_;
  std::vector<std::uint32_t> free_records_;
  std::vector<BoundOp> bound_;
  std::vector<std::uint32_t> free_bound_;
};

}  // namespace psched::sim
