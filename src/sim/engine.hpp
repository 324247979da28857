// Discrete-event execution engine.
//
// The engine owns the virtual machine: a roster of devices, streams (FIFO
// queues of ops, each bound to one device), events, the set of currently
// running ops, and the clock. Host code enqueues ops with a host timestamp;
// the engine advances virtual time, re-solving the fluid resource model
// whenever the running set changes, and fires completion callbacks in
// virtual-time order (which is what makes optional functional kernel
// execution respect all data dependencies).
//
// CUDA semantics implemented here:
//   * ops on one stream execute in issue order;
//   * an event records the completion of all work issued to a stream before
//     the record call; re-recording resets the event;
//   * stream_wait_event inserts a barrier: later ops on the stream wait for
//     the event without blocking the host. The wait binds at the call, as
//     cudaStreamWaitEvent does: it waits for the work the event's latest
//     record covered then, and a later re-record does not move it. A wait
//     on an event never recorded is a no-op.
//
// `after` is the engine's only dependency edge: an op may name issued ops
// that must complete before it starts (Op::gate, Op::after), and a wait
// resolves its event to such an edge on the op the event was recorded
// behind. An event is a handle {gate op, record time} with no waiter list.
//
// Engine core (see docs/engine-internals.md for the full design):
//   * op storage is a contiguous slab with a free list; completed ops retire
//     to a compact per-id record (start/end/kind/stream) so live memory is
//     bounded by the number of concurrently in-flight ops;
//   * each resource class is one record whose column-major member table
//     holds every running member's progress on its tenant group's
//     service clock, with a finish-tag heap per group; the engine keeps
//     the per-class next completion, so finding it is a min over the
//     class table and completing it pops the due heap fronts;
//   * queued head ops that can only start at a known future time sit in a
//     second min-heap, one entry per such head; heads blocked on a live
//     `after` gate or a DMA engine register on waiter lists and are
//     re-examined only when the blocker completes — stepping never scans
//     all streams;
//   * rates are re-solved per (device, resource class) — kernels / H2D /
//     D2H / faults on each device, plus one class per directed peer link
//     for CopyP2P ops — only for classes whose membership changed, so
//     churn on one GPU never re-prices another GPU's ops.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "sim/chunked_store.hpp"
#include "sim/device_spec.hpp"
#include "sim/machine.hpp"
#include "sim/memory.hpp"
#include "sim/op.hpp"
#include "sim/resource_model.hpp"
#include "sim/timeline.hpp"
#include "sim/types.hpp"

namespace psched::sim {

class Engine;

/// A transaction of host-API calls committed to the engine as one unit —
/// the command buffer of the batched submission path (see
/// docs/engine-internals.md, "Transactions and batched ingestion").
///
/// Items are recorded in host issue order, each stamped with the host time
/// of the original call; Engine::ingest applies them in exactly that order
/// without stepping the engine in between, then advances once to the last
/// item's host time. Ingesting a group of same-time calls is therefore
/// bit-identical to issuing them per call: batch boundaries group the op
/// sequence, they never reorder it. Ingest applies the items by copy, so
/// one recorded list can be replayed any number of times.
class Submission {
 public:
  /// Invoked at ingest with an enqueued op's assigned id, right after the
  /// op enters its stream FIFO and before it can start — the batched
  /// counterpart of "enqueue returned an id, now attach state to it"
  /// (set_on_complete, host-side pending-op tracking).
  using BindFn = std::function<void(Engine&, OpId)>;

  /// Append an op enqueue (validated at ingest, not here).
  void enqueue(Op op, TimeUs host_time, BindFn bind = nullptr);
  /// Append an event record on `stream`.
  void record_event(EventId event, StreamId stream, TimeUs host_time);
  /// Append an event wait (lowered to a wait marker op at ingest, bound to
  /// the event as it stands when the item applies).
  void wait_event(StreamId stream, EventId event, TimeUs host_time);

  /// Pre-size the item buffer (ops are buffered by value; reserving spares
  /// the growth reallocations of a large transaction).
  void reserve(std::size_t items) { items_.reserve(items); }
  /// Drop every recorded item (buffer capacity retained).
  /// Used to discard a partial recording after a failed capture.
  void clear() {
    items_.clear();
    working_sets_.clear();
    num_ops_ = 0;
  }

  // --- working-set annotations (schedule-time residency planning) ---
  /// Record one launch's working set (in record order). Pure metadata for
  /// the ResidencyPlanner: replaying the list hands these entries to the
  /// planner as the ready frontier. Never validated, and absent on lists
  /// recorded before the planner existed (replay then behaves exactly as
  /// it always has).
  void note_working_set(DeviceId device, std::vector<ArrayId> ids) {
    working_sets_.push_back({device, std::move(ids)});
  }
  [[nodiscard]] const std::vector<FrontierEntry>& working_sets() const {
    return working_sets_;
  }

  [[nodiscard]] bool empty() const { return items_.empty(); }
  [[nodiscard]] std::size_t size() const { return items_.size(); }
  /// Number of enqueue items (excludes records; waits count — they become
  /// marker ops and consume op ids).
  [[nodiscard]] std::size_t num_ops() const { return num_ops_; }

 private:
  friend class Engine;
  enum class ItemKind { Enqueue, Record, Wait };
  struct Item {
    ItemKind kind = ItemKind::Enqueue;
    Op op;                             ///< Enqueue only
    BindFn bind;                       ///< Enqueue only
    EventId event = kInvalidEvent;     ///< Record / Wait
    StreamId stream = kInvalidStream;  ///< Record / Wait
    TimeUs host_time = 0;
  };
  std::vector<Item> items_;
  std::vector<FrontierEntry> working_sets_;  ///< planner metadata only
  std::size_t num_ops_ = 0;
};

class Engine {
 public:
  /// Single-GPU convenience: Engine(Machine::single(spec)).
  explicit Engine(DeviceSpec spec);
  explicit Engine(Machine machine);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // --- topology ---
  /// Streams are created lazily; stream 0 (default, device 0, tenant 0)
  /// always exists. The no-argument overload creates on device 0. Streams
  /// carry their owning tenant: every op enqueued on a stream inherits its
  /// tenant (like its device), so tenant tagging survives transactions and
  /// recorded replays without per-op plumbing.
  StreamId create_stream();
  StreamId create_stream(DeviceId device, TenantId tenant = kDefaultTenant);
  EventId create_event();
  [[nodiscard]] std::size_t num_streams() const { return streams_.size(); }
  [[nodiscard]] DeviceId stream_device(StreamId stream) const;
  [[nodiscard]] TenantId stream_tenant(StreamId stream) const;
  [[nodiscard]] int num_devices() const { return machine_.num_devices(); }

  // --- tenancy (weighted fair sharing; see docs/engine-internals.md) ---
  /// Set tenant `t`'s fair-share weight (default 1.0; finite, > 0). Within
  /// a saturated resource class holding ops of several tenants, bandwidth
  /// is split across tenants in proportion to weight, then equally among a
  /// tenant's own ops. Classes occupied by a single tenant keep the
  /// unweighted arithmetic bit-for-bit. Every populated class re-solves at
  /// the next advance, so a re-weight takes effect at the call.
  void set_tenant_weight(TenantId t, double weight);
  [[nodiscard]] double tenant_weight(TenantId t) const;
  /// Completed-op count / completed kernel work (solo-us) per tenant —
  /// the per-tenant throughput the multi-app harness reports.
  [[nodiscard]] long tenant_completed_ops(TenantId t) const;
  [[nodiscard]] double tenant_completed_work(TenantId t) const;
  /// Kernel work the tenant's *running* ops have progressed through as of
  /// now() (solo-us, folded from the class progress columns). Added to
  /// tenant_completed_work this gives a completion-quantization-free
  /// progress reading at any virtual instant — what the weighted-share
  /// acceptance ratio is measured on. O(live ops): introspection, not a
  /// hot path.
  [[nodiscard]] double tenant_inflight_work(TenantId t) const;

  // --- QoS ready-head ordering (EEVDF; see sim/qos.hpp for the policy) ---
  /// Publish tenant `t`'s EEVDF key: whether it is *eligible* (service lag
  /// >= 0 — it has received no more than its entitled weighted share) and
  /// its current virtual deadline. While any key is published, the ready-
  /// head sweep in drain_ready() visits same-instant candidate streams in
  /// (eligible first, earliest deadline, stream id) order instead of pure
  /// ascending stream id — so an eligible latency-critical tenant's op
  /// wins contended sequential resources (DMA copy-engine handover) over a
  /// heavier but later-deadline batch tenant. Tenants without a key rank
  /// as eligible at infinite deadline. The keys order *dispatch* only;
  /// rate splitting stays with the weighted fair-share solver.
  void set_tenant_qos(TenantId t, bool eligible, TimeUs vdeadline);
  /// Drop every published key and restore the pure stream-id sweep —
  /// bit-identical to an engine that never saw QoS.
  void clear_tenant_qos();
  [[nodiscard]] bool qos_active() const { return qos_active_; }

  // --- host-side API (host_time is the caller's current virtual time) ---
  /// Enqueue an op on `op.stream`; returns its id. The op executes on the
  /// stream's device; CopyP2P ops must carry a valid `peer` source device.
  /// Ops in `op.gate` / `op.after` gate its start directly — no wait for
  /// the ops issued after them on their streams.
  OpId enqueue(Op op, TimeUs host_time);
  /// Record `event` on `stream`: the event completes when all work issued
  /// to the stream before this call has completed.
  void record_event(EventId event, StreamId stream, TimeUs host_time);
  /// Make future ops on `stream` wait for `event` as it stands now
  /// (non-blocking for host): a zero-work marker op bound by
  /// wait_on_event.
  void wait_event(StreamId stream, EventId event, TimeUs host_time);
  /// Bind `op` to `event` as it stands now, as cudaStreamWaitEvent does.
  /// An event recorded behind an op adds that op as an `after` edge (the
  /// inline `gate` if free, else appended to `after`); one recorded on an
  /// idle stream holds `op` until the record's host time; one never
  /// recorded adds nothing. A later re-record does not move the edge.
  void wait_on_event(Op& op, EventId event) const;
  // --- transactional batched ingestion ---
  /// Open a transaction: the engine advances to `host_time` once (the
  /// transaction's one pre-ingest host-clock advance) and then freezes.
  /// Subsequent enqueue / record_event / wait_event calls ingest
  /// immediately — ids assigned in call order, FIFO inserts and pending
  /// marks applied — but nothing starts, completes, or re-prices until
  /// commit_transaction() advances once to the latest host time an ingest
  /// call carried: deferred ready-checks drain in one pass and each
  /// dirtied (device, class) solver domain re-solves once for the whole
  /// batch. Time control (advance_to, run_*) while a transaction is open
  /// throws ApiError; one transaction may be open at a time.
  void begin_transaction(TimeUs host_time);
  /// Commit the open transaction; returns the number of ops it ingested.
  std::size_t commit_transaction();
  [[nodiscard]] bool in_transaction() const { return txn_open_; }

  /// Apply a Submission — the one engine entry that accepts one. Every
  /// item is validated up front (atomic: a bad item, or host times that
  /// decrease, reject the whole list with ApiError before any state
  /// changes). Inside an open transaction the items ingest like any other
  /// in-transaction calls and start at its commit; otherwise ingest
  /// brackets itself — begin_transaction at the first item's host time,
  /// commit_transaction after the last. Items apply by copy in recorded
  /// order, binds run with the freshly assigned ids, and the list is left
  /// intact for the next replay. Returns the number of ops ingested
  /// (wait markers included). The submission must not be mutated
  /// re-entrantly from completion callbacks.
  std::size_t ingest(const Submission& sub);
  /// Attach/replace the completion callback of a not-yet-completed op.
  void set_on_complete(OpId op, std::function<void()> fn);
  /// Register an observer fired whenever a stream's FIFO drains; returns a
  /// token for remove_stream_idle_observer. The runtime's stream manager
  /// maintains its idle free-list with this instead of rescanning the
  /// stream pool. Multiple observers may coexist (each sees every drain).
  int add_stream_idle_observer(std::function<void(StreamId)> fn);
  void remove_stream_idle_observer(int token);

  // --- time control ---
  /// Process device activity up to virtual time `t` (never goes backward).
  void advance_to(TimeUs t);
  /// Advance until `op` completes; returns its completion time.
  TimeUs run_until_op_done(OpId op);
  /// Advance until `event` completes; returns its completion time.
  TimeUs run_until_event(EventId event);
  /// Advance until `stream` has no queued or running ops.
  TimeUs run_until_stream_idle(StreamId stream);
  /// Drain everything; throws Error on deadlock (op waiting on an event
  /// that can never complete).
  TimeUs run_all();

  // --- queries ---
  [[nodiscard]] TimeUs now() const { return now_; }
  [[nodiscard]] bool stream_idle(StreamId stream) const;
  [[nodiscard]] bool op_done(OpId op) const;
  [[nodiscard]] StreamId op_stream(OpId op) const {
    return record_of(op, "op_stream").stream;
  }
  [[nodiscard]] bool event_done(EventId event) const;
  [[nodiscard]] TimeUs event_done_time(EventId event) const;
  /// Snapshot an op's state (by value: live ops move through a recycled
  /// slab, retired ops only persist as 24-byte completion records in the
  /// engine's append-only chunked history, so no stable reference exists).
  /// Live ops are returned in full with progress folded to now(); retired
  /// ops carry id/kind/stream/start_time/end_time and state only. Answers
  /// for every op ever issued.
  [[nodiscard]] Op op(OpId id) const;
  [[nodiscard]] bool all_idle() const { return live_ops_ == 0; }

  [[nodiscard]] Timeline& timeline() { return timeline_; }
  [[nodiscard]] const Timeline& timeline() const { return timeline_; }
  [[nodiscard]] const Machine& machine() const { return machine_; }
  /// Device 0's spec / model (single-GPU compatibility accessors).
  [[nodiscard]] const DeviceSpec& spec() const { return machine_.device(0); }
  [[nodiscard]] const ResourceModel& model() const { return models_[0]; }
  [[nodiscard]] const DeviceSpec& spec(DeviceId d) const {
    return machine_.device(d);
  }
  [[nodiscard]] const ResourceModel& model(DeviceId d) const;

  // --- solver-work introspection (tests, perf-regression ratchets) ---
  /// Per-class cumulative solver stats (solve passes, full scans, member
  /// touches, cumulative solve time). Solve time is only accumulated while
  /// set_solve_timing(true) — timing costs two clock reads per solve, so
  /// it is opt-in; counts are always live. The engine-wide getters below
  /// sum these over every class.
  struct SolverClassStats {
    long solves = 0;
    long full_scans = 0;
    long member_touches = 0;
    double solve_time_us = 0;  ///< host time, only while timing enabled
  };
  /// Number of per-class rate re-solve passes across all classes.
  [[nodiscard]] long solve_count() const { return solver_totals().solves; }
  /// Total per-op rate assignments across all re-solves: the actual work
  /// the fluid model performed. Full scans add the class's member count;
  /// incremental (virtual-service) solves add their group count (>= 1).
  [[nodiscard]] long solved_ops() const { return solved_ops_; }
  /// Members touched by full-scan re-solves (progress folded + rate
  /// assigned). The virtual-service path exists to keep this flat as
  /// fan-in grows; the bench's solver-scaling gate rides on it.
  [[nodiscard]] long member_touch_count() const {
    return solver_totals().member_touches;
  }
  /// Full-scan re-solve passes (every member folded and re-rated):
  /// solve_count() minus the incremental passes. Rare by design — only
  /// where rate *ratios* change (DRAM-saturation toggles, capped members,
  /// a class's first solve).
  [[nodiscard]] long full_scan_count() const {
    return solver_totals().full_scans;
  }
  [[nodiscard]] long incremental_solve_count() const {
    const SolverClassStats s = solver_totals();
    return s.solves - s.full_scans;
  }
  [[nodiscard]] SolverClassStats class_solver_stats(DeviceId device,
                                                    OpKind kind) const;
  [[nodiscard]] SolverClassStats link_solver_stats(DeviceId src,
                                                   DeviceId dst) const;
  /// Enable/disable host-time accounting of each re-solve pass.
  void set_solve_timing(bool on) { solve_timing_ = on; }
  [[nodiscard]] bool solve_timing() const { return solve_timing_; }
  /// Cumulative host time across all re-solves (us; only accumulated
  /// while timing is enabled).
  [[nodiscard]] double solve_time_us() const {
    return solver_totals().solve_time_us;
  }
  /// Re-solve passes of one device's class (Kernel / CopyH2D / CopyD2H /
  /// Fault). Membership churn on another device must never bump this.
  [[nodiscard]] long class_solve_count(DeviceId device, OpKind kind) const;
  /// Re-solve passes of the directed peer-link class (src -> dst).
  [[nodiscard]] long link_solve_count(DeviceId src, DeviceId dst) const;
  /// High-water mark of concurrently live (queued + running) ops — the
  /// slab's peak occupancy.
  [[nodiscard]] long peak_resident_ops() const { return peak_resident_; }

  /// Check the engine's bookkeeping; throws Error naming the first violated
  /// invariant. Each stream's FIFO links exactly its live ops, in id order,
  /// and the streams together hold every live op; every dependency edge of
  /// a live op names an op issued before it; every event's gate names an
  /// issued op; every start-heap entry names a queued stream head, once.
  /// Per class: every member column holds one row per member (demand
  /// columns only in kernel classes); row i's op is Running at class_pos
  /// i of this class with the row's tenant and work; DMA classes (H2D,
  /// D2H, P2P) hold at most one copy; group counts and weight sums match
  /// their rows; a clean class's next completion is
  /// since + max(0, F_min - V) / c over its populated groups, with F_min
  /// the least finish tag its rows carry; `dirty` is set exactly for the
  /// classes on the worklist. O(live ops + events); for tests.
  void audit() const;

 private:
  /// Per-device resource classes rates are solved for independently.
  /// Membership of one class never affects another class's rates, so a
  /// completion only dirties its own class.
  enum ClassSlot : int { kSlotKernel = 0, kSlotH2D, kSlotD2H, kSlotFault };
  static constexpr int kSlotsPerDevice = 4;
  static constexpr int kClassNone = -1;  ///< markers/host spans: no rate
  /// The op kind each per-device slot solves for — the inverse of
  /// slot_of(); keep the two in sync (static_asserts in engine.cpp).
  static constexpr OpKind kSlotKind[kSlotsPerDevice] = {
      OpKind::Kernel, OpKind::CopyH2D, OpKind::CopyD2H, OpKind::Fault};

  /// A stream's FIFO (queued + running ops, in issue order) is linked
  /// through the slab: head and tail slab slots, Op::next_slot between.
  struct StreamState {
    std::int32_t head = -1;  ///< slab slot of the oldest op; -1: idle
    std::int32_t tail = -1;  ///< slab slot of the newest op
    DeviceId device = kDefaultDevice;
    TenantId tenant = kDefaultTenant;  ///< ops inherit this at enqueue
    bool pending = false;   ///< queued for a head ready-check

    [[nodiscard]] bool idle() const { return head < 0; }
  };
  /// Recycled lists of the streams parked on a live op through an `after`
  /// edge. A live op borrows a list when its first waiter arrives and
  /// gives it back when it completes, so parking allocates only while the
  /// pool itself grows.
  struct WaiterPool {
    static constexpr std::int32_t kNone = -1;
    std::vector<std::vector<StreamId>> lists;
    std::vector<std::int32_t> spare;  ///< returned lists, cleared

    /// Append `s` to list `h`, borrowing a list first if h is kNone.
    void add(std::int32_t& h, StreamId s);
    /// Give list `h` back, cleared; h becomes kNone.
    void release(std::int32_t& h);
  };
  /// One event ever created: a handle, read at wait and query time. Never
  /// recorded: no gate, recorded_at infinite. Recorded behind an op: the
  /// gate, done when the gate completes (its OpRecord keeps the end).
  /// Recorded on an idle stream: no gate, done at the record's host time.
  struct EventState {
    OpId gate = kInvalidOp;  ///< op the latest record was issued behind
    TimeUs recorded_at = kTimeInfinity;  ///< host time of a gateless record

    [[nodiscard]] bool recorded() const {
      return gate != kInvalidOp || recorded_at != kTimeInfinity;
    }
  };
  /// Compact per-id op record, indexed by OpId - 1 (ids are dense): the
  /// slab slot while live, kind and completion times after retirement.
  struct OpRecord {
    TimeUs start = -1;
    TimeUs end = -1;
    StreamId stream = kInvalidStream;
    /// Slab slot (>= 0) while live; -(1 + kind) once retired.
    std::int32_t tag = -1;

    [[nodiscard]] bool live() const { return tag >= 0; }
    [[nodiscard]] OpKind retired_kind() const {
      return static_cast<OpKind>(-1 - tag);
    }
  };
  static_assert(sizeof(EventState) <= 16);
  static_assert(sizeof(OpRecord) == 24);
  static_assert(sizeof(Op) <= 272);  // one slab slot per live op
  /// Start-heap entry: a queued head's known future start time. A head is
  /// examined again only when its entry is released, so every entry is
  /// live: it names a queued stream head, and no head has two.
  struct HeapEntry {
    TimeUs t = 0;
    OpId id = kInvalidOp;
    /// Min-heap on (t, id): ties release in op-id order, matching the seed
    /// engine's deterministic tie-breaking.
    [[nodiscard]] bool operator>(const HeapEntry& o) const {
      return t != o.t ? t > o.t : id > o.id;
    }
  };

  // --- virtual-service solver state (see docs/engine-internals.md,
  // "Virtual-service incremental re-solve") ---
  /// Finish-index entry: a member's service-domain completion tag
  /// F = V_enter + remaining_at_enter / weight. Tags are static per
  /// membership epoch — rate changes move V's slope, never F — so the
  /// index never rebalances on churn. Entries of completed ops are
  /// discarded lazily when they surface at a heap front.
  struct FinishEntry {
    double f = 0;
    OpId id = kInvalidOp;
    /// Min-heap on (f, id): service-domain ties pop in op-id order.
    [[nodiscard]] bool operator>(const FinishEntry& o) const {
      return f != o.f ? f > o.f : id > o.id;
    }
  };
  /// One tenant's share of a class: its member count and weight sum, its
  /// service clock and its finish index. V advances lazily — v is the
  /// cumulative service as of the class's `since`, c its current slope
  /// (service per wall-us per unit of service weight) — so a member with
  /// service weight sw has remaining work rem_enter - sw * (V(t) - v_enter)
  /// at time t. Scan-mode groups run at c = 1 with each member's scanned
  /// rate as sw; virtual-service groups at the derived c_g with sw = w.
  /// Single-tenant classes hold exactly one group.
  struct SolverGroup {
    TenantId tenant = kDefaultTenant;
    double v = 0;      ///< cumulative virtual service at `since`
    double c = 0;      ///< dV/dt in effect since the last re-solve
    double w_sum = 0;  ///< sum of member weights
    long n = 0;        ///< member count
    std::vector<FinishEntry> heap;  ///< min-heap on finish tags
  };
  /// Per-class solver mode, the class's tenant table (its groups), and the
  /// O(1) aggregates the incremental path re-prices from. Kernel-only
  /// aggregates (fill_sum, bww_sum, weight bounds) back the validity test
  /// that guards the linear regime: no zero-weight member, no member at
  /// the 1.0 solo cap or the 1e-9 floor, DRAM unsaturated. Join and leave
  /// maintain them in both modes, w_max/w_min only monotonically on join
  /// (stale-conservative across leaves); every full scan rebuilds them
  /// exactly.
  struct ClassSolver {
    bool incremental = false;
    double fill_sum = 0;  ///< kernels: sum of member device fills
    double bww_sum = 0;   ///< kernels: sum of bw_need * weight (DRAM test)
    double w_max = 0;
    double w_min = kTimeInfinity;
    long zero_w = 0;  ///< members with no usable weight (forces scans)
    std::vector<SolverGroup> groups;
    /// Finish-heap storage of dropped groups, handed to the next group
    /// appended, so emptying a class frees nothing.
    std::vector<std::vector<FinishEntry>> spare_heaps;

    /// Exact zeros for an empty (or about to be rebuilt) class.
    void reset_aggregates();
    /// Group of `tenant` (nullptr if absent); group_mut appends it.
    [[nodiscard]] const SolverGroup* group(TenantId tenant) const;
    [[nodiscard]] SolverGroup& group_mut(TenantId tenant);
    /// Count one member (weight w; fill and bw read only for kernels)
    /// into its tenant's group and the aggregates; returns the group.
    SolverGroup& add(TenantId tenant, bool kernel, double fill, double bw,
                     double w);
  };
  /// One (device, class) solver domain: its running members and the state
  /// that prices them. The member table is column-major — row i of every
  /// column describes the op in slab slot slots[i], whose class_pos is i —
  /// so the re-solve is a pass over dense arrays and a member's Op is
  /// touched only at join, completion and queries. join() and leave() are
  /// the only writers of the row set.
  struct ResourceClass {
    std::vector<std::int32_t> slots;
    /// Kernel classes only (empty elsewhere): device fill, solo
    /// utilization and DRAM appetite, captured at join. Equal-share
    /// classes (copies, faults, peer links) need only their size.
    std::vector<double> fill, solo_u, bw;
    /// Progress on the member's group clock: remaining work at entry,
    /// total work (for the completion epsilon), service weight sw (rate =
    /// group c * sw; 0 until a solve prices the member) and the group V
    /// at entry. Every full scan folds each member to now, moves `since`
    /// there and re-enters all of them at V = 0.
    std::vector<double> remaining, work, sw, venter;
    std::vector<TenantId> tenant;
    /// Virtual-service weight (kernels: fill / solo_u, the ratio the
    /// proportional split preserves; equal-share classes: 1.0).
    std::vector<double> w;
    TimeUs since = 0;
    ClassSolver solver;
    /// Streams whose head is an explicit copy blocked on this class's DMA
    /// engine (H2D / D2H / peer-link classes); woken when it frees up.
    std::vector<StreamId> copy_waiters;
    bool dirty = false;  ///< queued on the engine's dirty_classes_
    SolverClassStats stats;

    [[nodiscard]] std::size_t size() const { return slots.size(); }
    [[nodiscard]] bool empty() const { return slots.empty(); }
    /// Append the row of `op`, which starts now in slab slot `slot` on a
    /// device `dev`, and count it into its group; returns its position. In
    /// incremental mode the member is priced at once (sw = w, finish tag
    /// pushed): O(log n), no other member is touched.
    std::int32_t join(std::int32_t slot, const Op& op, const DeviceSpec& dev,
                      TimeUs now);
    /// Swap-and-pop `op`'s row out of every column and its group; returns
    /// the slab slot of the member moved into its position.
    std::int32_t leave(const Op& op);
    /// Rebuild the aggregates and tenant groups exactly from the rows,
    /// groups in member first-appearance order.
    void rebuild_groups(bool kernel_class);
    /// Row i's remaining work at time t (t >= since).
    [[nodiscard]] double remaining_at(std::size_t i, TimeUs t) const;
  };

  [[nodiscard]] static constexpr int slot_of(OpKind kind) {
    switch (kind) {
      case OpKind::Kernel: return kSlotKernel;
      case OpKind::CopyH2D: return kSlotH2D;
      case OpKind::CopyD2H: return kSlotD2H;
      case OpKind::Fault: return kSlotFault;
      default: return kClassNone;  // markers/host spans carry no rate
    }
  }
  /// Index of the op's solver domain in the class table: device-keyed for
  /// the four per-device classes, link-keyed (peer -> device) for CopyP2P.
  [[nodiscard]] int class_index(const Op& op) const {
    if (op.kind == OpKind::CopyP2P) {
      return p2p_base_ + op.peer * num_devices() + op.device;
    }
    const int slot = slot_of(op.kind);
    return slot == kClassNone ? kClassNone
                              : op.device * kSlotsPerDevice + slot;
  }

  /// Whether op `id` is live and running (finish-index fronts go stale
  /// when their op completes).
  [[nodiscard]] bool is_running(OpId id) const;
  [[nodiscard]] const OpRecord& record_of(OpId id, const char* who) const;

  /// Shared enqueue validation (throws ApiError) of `op` as op id `id`:
  /// stream range, CopyP2P peer constraints, and `after` edges naming ops
  /// issued before it. Used by enqueue() and by ingest()'s atomic pre-pass.
  void check_enqueueable(const Op& op, OpId id) const;
  /// ingest()'s atomic pre-pass: per-item validation plus non-decreasing
  /// host times. Throws ApiError; touches no state.
  void validate_submission(const Submission& sub) const;
  /// The wait_event lowering: one zero-work marker bound to `event`.
  [[nodiscard]] Op make_wait_marker(StreamId stream, EventId event) const;
  /// When `ev` completes: its gate's end (infinite while the gate is
  /// live), else its record time (infinite if never recorded).
  [[nodiscard]] TimeUs event_time(const EventState& ev) const;
  void check_event_id(EventId event, const char* who) const;
  void check_stream_id(StreamId stream, const char* who) const;

  /// Queue `stream` for a head ready-check (idempotent).
  void mark_pending(StreamId stream);
  /// Mark one class's rates as needing a re-solve (idempotent; feeds the
  /// dirty worklist recompute_rates drains).
  void mark_class_dirty(int cls);
  /// Wake every stream parked on list `h` in park order and return the
  /// list to the pool (its `after` gate completed).
  void wake_waiters(std::int32_t& h);
  /// Remaining work of a live op folded to now() — from its class row for
  /// running classed ops, from the Op itself otherwise.
  [[nodiscard]] double live_remaining(const Op& op) const;
  /// Examine `stream`'s head; start it if its start condition holds at
  /// now_, otherwise register it exactly where its wake signal will occur
  /// (start heap for known future times, a live gate's or a copy engine's
  /// waiter list otherwise). Completes zero-work ops (markers) immediately.
  void check_stream_head(StreamId stream);
  /// Drain the pending-stream worklist to a fixpoint. Streams are processed
  /// in ascending id per round, mirroring the seed engine's sweep order
  /// (which decides copy-engine handover among same-instant candidates).
  void drain_ready();
  void complete_op(Op& op);
  /// Re-solve rates for every dirty resource class, refreshing its next
  /// completion.
  void recompute_rates();
  // --- virtual-service solver internals ---
  /// O(groups) re-solve of an incremental-mode dirty class: advance every
  /// group's V to now_ and re-derive each group's service slope from the
  /// aggregates. Returns false (leaving V advanced and `since` at now_)
  /// when the validity test fails — the caller falls back to a full scan.
  bool incremental_resolve(int cls, bool kernel_class, double share);
  /// Derive per-group service slopes from the class aggregates; the
  /// validity test of the linear regime. Multi-group classes split the
  /// class aggregate with tenant_budgets, like apply_tenant_shares.
  bool compute_group_rates(int cls, bool kernel_class, double share);
  /// Pick the mode right after a full scan (the scan just folded
  /// remainings to now_, wrote its exact rates into sw and rebuilt the
  /// groups): derive the linear-model slopes and enter the incremental
  /// regime (sw = w) only if every scanned rate equals c_g * w_i.
  void try_promote_class(int cls, bool kernel_class, double share);
  /// Rebase every group of a freshly scanned class to V = 0 (scan mode:
  /// slope 1) and rebuild its finish heaps from the folded rows.
  void rebuild_finish_index(ResourceClass& rc);
  /// Earliest finish over the class's group heap fronts in wall time,
  /// discarding fronts whose op has completed. Both modes, every solve.
  [[nodiscard]] TimeUs next_finish(ResourceClass& rc);
  /// Current rate of a live op: its group's slope times its service
  /// weight (0 outside any class).
  [[nodiscard]] double live_rate(const Op& op) const;
  /// Weighted water-fill of `total_rate` over the populated groups of
  /// `sol` by tenant weight, each group capped at n_g * member_cap (what
  /// its members can absorb); budgets land in share_budget_ in group
  /// order. Returns false when there is no weight or no rate to split.
  bool tenant_budgets(const ClassSolver& sol, double member_cap,
                      double total_rate);
  /// Weighted per-tenant fair sharing of one class whose members span
  /// several tenants: rewrites solve_rates_ (sized to the class) so each
  /// tenant's aggregate rate is weight-proportional, conserving the
  /// class's aggregate. Both steps are ResourceModel::water_fill_budgets:
  /// tenants are capped by what their members can absorb (kernels: rate
  /// 1.0 apiece, never faster than solo; transfers: uncapped) and a
  /// capped tenant's surplus flows to the others, then each budget
  /// spreads over the tenant's members weighted by their base rates,
  /// each capped at the member cap. Reads the groups the scan just
  /// rebuilt; called only on the multi-tenant path.
  void apply_tenant_shares(ResourceClass& rc, bool kernel_class,
                           double share);
  /// Sum of every class's solver stats.
  [[nodiscard]] SolverClassStats solver_totals() const;
  /// The class of `kind` on `device` / of the directed link src -> dst;
  /// throws ApiError (prefixed `who`) on an invalid device or a kind that
  /// carries no per-device class.
  [[nodiscard]] const ResourceClass& device_class(DeviceId device,
                                                  OpKind kind,
                                                  const char* who) const;
  [[nodiscard]] const ResourceClass& link_class(DeviceId src, DeviceId dst,
                                                const char* who) const;
  /// Earliest known future head start (start heap top).
  [[nodiscard]] TimeUs earliest_queued_candidate() const;
  /// Earliest completion across the per-class next finishes.
  [[nodiscard]] TimeUs earliest_completion() const;
  /// Complete every op whose finish tag is due at now_ (within the
  /// clock-scaled tolerance), in op-id order: heap pops per due class.
  bool complete_due_ops();
  /// Move start-heap entries that became due at now_ onto the worklist.
  void release_due_starts();
  /// Advance by a single event step, not beyond `target`.
  /// Returns false when now_ reached `target` with nothing left to process.
  bool step(TimeUs target);
  void check_deadlock();
  /// Stall watchdog: throws with a state dump after kStallLimit consecutive
  /// steps that neither advance the clock nor complete an op.
  void note_progress(bool advanced);

  Machine machine_;
  std::vector<ResourceModel> models_;  ///< one per roster device
  Timeline timeline_;
  /// Stream-idle observers in registration order. A deque, so adding one
  /// mid-dispatch moves no other; removal during a dispatch only clears
  /// the token (0) and the outermost dispatch erases the entry after it
  /// returns, so an executing callback stays alive.
  struct IdleObserver {
    int token = 0;
    std::function<void(StreamId)> fn;
  };
  std::deque<IdleObserver> stream_idle_observers_;
  int next_observer_token_ = 1;
  int observer_dispatch_depth_ = 0;

  TimeUs now_ = 0;
  OpId next_op_id_ = 1;

  // --- open-transaction state ---
  bool txn_open_ = false;
  TimeUs txn_last_time_ = 0;  ///< latest host time an ingest call carried
  std::size_t txn_ops_ = 0;   ///< ops ingested by the open transaction

  std::vector<StreamState> streams_;
  ChunkedStore<EventState> events_;
  WaiterPool waiter_pool_;

  // --- slab op storage ---
  std::vector<Op> slab_;
  std::vector<std::int32_t> free_slots_;
  ChunkedStore<OpRecord> records_;  ///< per-id, dense, compact
  long live_ops_ = 0;              ///< queued + running (slab occupancy)
  long peak_resident_ = 0;

  // --- scheduling state ---
  std::vector<StreamId> ready_;  ///< streams needing a head check
  /// Min-heap (std::push_heap/pop_heap with greater) of future head
  /// starts.
  std::vector<HeapEntry> start_heap_;

  // --- per-(device, class) solver domains ---
  /// Class table layout: device d's four classes at [d*4, d*4+4), then the
  /// directed peer-link classes at p2p_base_ + src*ndev + dst.
  int p2p_base_ = 0;
  int num_classes_ = 0;
  std::vector<ResourceClass> classes_;
  /// Earliest finish over each class's members (infinity when empty);
  /// valid for clean classes, refreshed by recompute_rates() for dirty
  /// ones. Kept dense beside the records: every step sweeps it.
  std::vector<TimeUs> class_next_;
  std::vector<int> dirty_classes_;  ///< worklist of dirty class indices
  long running_ = 0;  ///< running ops across all classes (incl. rate-less)

  // --- reusable scratch (avoid per-step allocation) ---
  std::vector<StreamId> batch_;
  std::vector<OpId> due_;
  std::vector<double> solve_rates_;
  /// water_fill_budgets' tables (weight, absorbable cap, still-active
  /// flag): per group in tenant_budgets, whose budgets land in
  /// share_budget_, then per member in apply_tenant_shares' spread, whose
  /// rates land in share_spread_.
  std::vector<double> share_weight_;
  std::vector<double> share_cap_;
  std::vector<double> share_budget_;
  std::vector<double> share_spread_;
  std::vector<char> share_active_;

  // --- tenancy ---
  std::vector<double> tenant_weights_;     ///< indexed by TenantId; 1.0 gap
  std::vector<long> tenant_done_ops_;      ///< completions per tenant
  std::vector<double> tenant_done_work_;   ///< completed kernel solo-us

  // --- QoS ready-head keys (EEVDF; published by QosManager) ---
  /// Indexed by TenantId; gap defaults are eligible / infinite deadline,
  /// so unmanaged tenants sort exactly where they always did relative to
  /// each other. Consulted only while qos_active_ — runs that never
  /// publish a key keep the pure stream-id sweep bit-for-bit.
  std::vector<char> tenant_eligible_;
  std::vector<TimeUs> tenant_deadline_;
  bool qos_active_ = false;

  long solved_ops_ = 0;
  bool solve_timing_ = false;
  long completed_count_ = 0;
  long stall_steps_ = 0;
  static constexpr long kStallLimit = 100'000;
};

}  // namespace psched::sim
