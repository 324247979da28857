#include "sim/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <sstream>
#include <tuple>

namespace psched::sim {

namespace {
constexpr double kWorkEps = 1e-9;

/// Completion-time tolerance at clock value `now`.
///
/// Fluid-model progress accumulates rounding error of order
/// rate * ulp(now) per rate interval, so an op can be left with a residue
/// of work whose completion time increment underflows against `now`
/// (now + remaining/rate == now). Work-relative tolerance alone cannot see
/// this — the test must be in the time domain: sub-picosecond remaining
/// *time* (scaled with ulp(now) for large clocks) counts as done. A
/// finish tag within this much service of its group clock is due, which is
/// the seed engine's `effectively_done` test expressed on finish times
/// (remaining / rate == finish_t - now).
TimeUs completion_tol(TimeUs now) { return std::max(1e-6, 1e-9 * now); }

/// Most rate one class member can absorb in a tenant re-share: a kernel
/// never runs faster than solo (1.0); a transfer has no ceiling, which
/// turns the bounded water-fill into a plain weighted split.
double member_rate_cap(bool kernel_class) {
  return kernel_class ? 1.0 : std::numeric_limits<double>::infinity();
}

/// A member's finish tag on its group's service clock: v_enter +
/// rem / sw, or v_enter itself for a residue below the work epsilon (due
/// at once); infinity for an unserved member (sw = 0), which never
/// finishes — the stall watchdog is the net.
double finish_tag(double v_enter, double rem, double work, double sw) {
  if (rem <= kWorkEps * std::max(1.0, work)) return v_enter;
  return sw > 0 ? v_enter + rem / sw : kTimeInfinity;
}

/// Call `f` on every op `op` must wait for (the inline gate, then
/// `after`) until it returns false; returns whether every call returned
/// true.
template <typename F>
bool for_each_after(const Op& op, F&& f) {
  if (op.gate != kInvalidOp && !f(op.gate)) return false;
  for (const OpId dep : op.after) {
    if (!f(dep)) return false;
  }
  return true;
}

/// Swap-and-pop removal of row `pos` from one member column.
template <typename T>
void swap_pop(std::vector<T>& col, std::size_t pos) {
  col[pos] = col.back();
  col.pop_back();
}

}  // namespace

Engine::Engine(DeviceSpec spec) : Engine(Machine::single(std::move(spec))) {}

Engine::Engine(Machine machine) : machine_(std::move(machine)) {
  if (machine_.num_devices() < 1) {
    throw ApiError("Engine: machine roster is empty");
  }
  const int ndev = machine_.num_devices();
  models_.reserve(static_cast<std::size_t>(ndev));
  for (DeviceId d = 0; d < ndev; ++d) models_.emplace_back(machine_.device(d));
  p2p_base_ = ndev * kSlotsPerDevice;
  num_classes_ = p2p_base_ + ndev * ndev;
  classes_.resize(static_cast<std::size_t>(num_classes_));
  class_next_.assign(static_cast<std::size_t>(num_classes_), kTimeInfinity);
  streams_.emplace_back();  // default stream 0, device 0
}

const Engine::ResourceClass& Engine::device_class(DeviceId device,
                                                  OpKind kind,
                                                  const char* who) const {
  if (!machine_.valid_device(device)) {
    throw ApiError(std::string(who) + ": invalid device");
  }
  const int slot = slot_of(kind);
  if (slot == kClassNone) {
    throw ApiError(std::string(who) +
                   ": op kind carries no per-device class");
  }
  return classes_[static_cast<std::size_t>(device * kSlotsPerDevice + slot)];
}

const Engine::ResourceClass& Engine::link_class(DeviceId src, DeviceId dst,
                                                const char* who) const {
  if (!machine_.valid_device(src) || !machine_.valid_device(dst)) {
    throw ApiError(std::string(who) + ": invalid device");
  }
  return classes_[static_cast<std::size_t>(p2p_base_ + src * num_devices() +
                                           dst)];
}

Engine::SolverClassStats Engine::class_solver_stats(DeviceId device,
                                                    OpKind kind) const {
  return device_class(device, kind, "class_solver_stats").stats;
}

Engine::SolverClassStats Engine::link_solver_stats(DeviceId src,
                                                   DeviceId dst) const {
  return link_class(src, dst, "link_solver_stats").stats;
}

long Engine::class_solve_count(DeviceId device, OpKind kind) const {
  return device_class(device, kind, "class_solve_count").stats.solves;
}

long Engine::link_solve_count(DeviceId src, DeviceId dst) const {
  return link_class(src, dst, "link_solve_count").stats.solves;
}

Engine::SolverClassStats Engine::solver_totals() const {
  SolverClassStats sum;
  for (const ResourceClass& rc : classes_) {
    sum.solves += rc.stats.solves;
    sum.full_scans += rc.stats.full_scans;
    sum.member_touches += rc.stats.member_touches;
    sum.solve_time_us += rc.stats.solve_time_us;
  }
  return sum;
}

StreamId Engine::create_stream() { return create_stream(kDefaultDevice); }

StreamId Engine::create_stream(DeviceId device, TenantId tenant) {
  if (!machine_.valid_device(device)) {
    throw ApiError("create_stream: invalid device " + std::to_string(device));
  }
  if (tenant < 0 || tenant >= kMaxTenants) {
    throw ApiError("create_stream: invalid tenant " + std::to_string(tenant));
  }
  StreamState st;
  st.device = device;
  st.tenant = tenant;
  streams_.push_back(std::move(st));
  return static_cast<StreamId>(streams_.size() - 1);
}

DeviceId Engine::stream_device(StreamId stream) const {
  if (stream < 0 || static_cast<std::size_t>(stream) >= streams_.size()) {
    throw ApiError("stream_device: invalid stream " + std::to_string(stream));
  }
  return streams_[static_cast<std::size_t>(stream)].device;
}

TenantId Engine::stream_tenant(StreamId stream) const {
  if (stream < 0 || static_cast<std::size_t>(stream) >= streams_.size()) {
    throw ApiError("stream_tenant: invalid stream " + std::to_string(stream));
  }
  return streams_[static_cast<std::size_t>(stream)].tenant;
}

void Engine::set_tenant_weight(TenantId t, double weight) {
  if (t < 0 || t >= kMaxTenants) {
    throw ApiError("set_tenant_weight: invalid tenant " + std::to_string(t));
  }
  if (!(weight > 0) || !std::isfinite(weight)) {
    throw ApiError("set_tenant_weight: weight must be finite and > 0");
  }
  if (tenant_weights_.size() <= static_cast<std::size_t>(t)) {
    tenant_weights_.resize(static_cast<std::size_t>(t) + 1, 1.0);
  }
  tenant_weights_[static_cast<std::size_t>(t)] = weight;
  // Re-price running ops under the new weight now, not at the next
  // unrelated membership churn: dirty every populated class so the next
  // advance re-solves it (dynamic re-weighting — the QoS entry point —
  // must take effect at the call, like every other rate change).
  for (int cls = 0; cls < num_classes_; ++cls) {
    if (!classes_[static_cast<std::size_t>(cls)].empty()) mark_class_dirty(cls);
  }
}

void Engine::set_tenant_qos(TenantId t, bool eligible, TimeUs vdeadline) {
  if (t < 0 || t >= kMaxTenants) {
    throw ApiError("set_tenant_qos: invalid tenant " + std::to_string(t));
  }
  if (tenant_eligible_.size() <= static_cast<std::size_t>(t)) {
    tenant_eligible_.resize(static_cast<std::size_t>(t) + 1, 1);
    tenant_deadline_.resize(static_cast<std::size_t>(t) + 1, kTimeInfinity);
  }
  tenant_eligible_[static_cast<std::size_t>(t)] = eligible ? 1 : 0;
  tenant_deadline_[static_cast<std::size_t>(t)] = vdeadline;
  qos_active_ = true;
}

void Engine::clear_tenant_qos() {
  tenant_eligible_.clear();
  tenant_deadline_.clear();
  qos_active_ = false;
}

double Engine::tenant_weight(TenantId t) const {
  if (t < 0 || static_cast<std::size_t>(t) >= tenant_weights_.size()) {
    return 1.0;
  }
  return tenant_weights_[static_cast<std::size_t>(t)];
}

long Engine::tenant_completed_ops(TenantId t) const {
  if (t < 0 || static_cast<std::size_t>(t) >= tenant_done_ops_.size()) {
    return 0;
  }
  return tenant_done_ops_[static_cast<std::size_t>(t)];
}

double Engine::tenant_completed_work(TenantId t) const {
  if (t < 0 || static_cast<std::size_t>(t) >= tenant_done_work_.size()) {
    return 0;
  }
  return tenant_done_work_[static_cast<std::size_t>(t)];
}

double Engine::tenant_inflight_work(TenantId t) const {
  double sum = 0;
  for (const Op& op : slab_) {
    if (op.state != OpState::Running || op.kind != OpKind::Kernel ||
        op.tenant != t) {
      continue;
    }
    sum += op.work - live_remaining(op);
  }
  return sum;
}

const ResourceModel& Engine::model(DeviceId d) const {
  if (!machine_.valid_device(d)) {
    throw ApiError("model: invalid device " + std::to_string(d));
  }
  return models_[static_cast<std::size_t>(d)];
}

EventId Engine::create_event() {
  events_.push_back({});
  return static_cast<EventId>(events_.size() - 1);
}


const Engine::OpRecord& Engine::record_of(OpId id, const char* who) const {
  if (id < 1 || id >= next_op_id_) {
    throw ApiError(std::string(who) + ": unknown op");
  }
  return records_[static_cast<std::size_t>(id - 1)];
}

bool Engine::is_running(OpId id) const {
  const OpRecord& rec = records_[static_cast<std::size_t>(id - 1)];
  if (!rec.live()) return false;
  const Op& op = slab_[static_cast<std::size_t>(rec.tag)];
  return op.id == id && op.state == OpState::Running;
}

void Engine::check_enqueueable(const Op& op, OpId id) const {
  if (op.stream < 0 || static_cast<std::size_t>(op.stream) >= streams_.size()) {
    throw ApiError("enqueue: invalid stream " + std::to_string(op.stream));
  }
  if (op.kind == OpKind::CopyP2P) {
    const DeviceId dev = streams_[static_cast<std::size_t>(op.stream)].device;
    if (!machine_.valid_device(op.peer)) {
      throw ApiError("enqueue: CopyP2P needs a valid source (peer) device");
    }
    if (op.peer == dev) {
      throw ApiError("enqueue: CopyP2P source equals destination device " +
                     std::to_string(dev));
    }
  }
  for_each_after(op, [&](OpId dep) {
    if (dep < 1 || dep >= id) {
      throw ApiError("enqueue: `after` names an op not yet issued");
    }
    return true;
  });
}

void Engine::check_event_id(EventId event, const char* who) const {
  if (event < 0 || static_cast<std::size_t>(event) >= events_.size()) {
    throw ApiError(std::string(who) + ": invalid event");
  }
}

void Engine::check_stream_id(StreamId stream, const char* who) const {
  if (stream < 0 || static_cast<std::size_t>(stream) >= streams_.size()) {
    throw ApiError(std::string(who) + ": invalid stream");
  }
}

OpId Engine::enqueue(Op op, TimeUs host_time) {
  check_enqueueable(op, next_op_id_);
  if (txn_open_) {
    txn_last_time_ = std::max(txn_last_time_, host_time);
    ++txn_ops_;
  }
  op.device = streams_[static_cast<std::size_t>(op.stream)].device;
  op.tenant = streams_[static_cast<std::size_t>(op.stream)].tenant;
  if (op.kind != OpKind::CopyP2P) op.peer = kInvalidDevice;
  op.id = next_op_id_++;
  op.enqueue_time = std::max(host_time, op.enqueue_time);
  op.state = OpState::Queued;
  op.class_pos = -1;
  op.next_slot = -1;
  op.after_waiters = WaiterPool::kNone;

  const OpId id = op.id;
  const StreamId stream = op.stream;

  std::int32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slab_[static_cast<std::size_t>(slot)] = std::move(op);
  } else {
    slot = static_cast<std::int32_t>(slab_.size());
    slab_.push_back(std::move(op));
  }
  records_.push_back({-1, -1, stream, slot});
  ++live_ops_;
  peak_resident_ = std::max(peak_resident_, live_ops_);

  StreamState& st = streams_[static_cast<std::size_t>(stream)];
  if (st.idle()) {
    st.head = slot;
    // Only a fresh head can change a stream's startability; the caller's
    // next advance drains the ready worklist.
    mark_pending(stream);
  } else {
    slab_[static_cast<std::size_t>(st.tail)].next_slot = slot;
  }
  st.tail = slot;
  return id;
}

void Engine::record_event(EventId event, StreamId stream, TimeUs host_time) {
  check_event_id(event, "record_event");
  check_stream_id(stream, "record_event");
  if (txn_open_) txn_last_time_ = std::max(txn_last_time_, host_time);
  EventState& ev = events_[static_cast<std::size_t>(event)];
  const StreamState& st = streams_[static_cast<std::size_t>(stream)];
  if (st.idle()) {
    ev.gate = kInvalidOp;
    ev.recorded_at = host_time;  // nothing pending: completes at record time
  } else {
    ev.gate = slab_[static_cast<std::size_t>(st.tail)].id;
    ev.recorded_at = kTimeInfinity;  // completes with the gate op
  }
}

void Engine::set_on_complete(OpId op, std::function<void()> fn) {
  const OpRecord& rec = record_of(op, "set_on_complete");
  if (!rec.live()) {
    throw ApiError("set_on_complete: op already completed");
  }
  slab_[static_cast<std::size_t>(rec.tag)].on_complete = std::move(fn);
}

void Engine::wait_on_event(Op& op, EventId event) const {
  check_event_id(event, "wait_event");
  const EventState& ev = events_[static_cast<std::size_t>(event)];
  if (ev.gate != kInvalidOp) {
    if (op.gate == kInvalidOp) {
      op.gate = ev.gate;
    } else {
      op.after.push_back(ev.gate);
    }
  } else if (ev.recorded()) {
    // Recorded on an idle stream: done at the record's host time.
    op.enqueue_time = std::max(op.enqueue_time, ev.recorded_at);
  }
  // Never recorded: the wait is a no-op.
}

Op Engine::make_wait_marker(StreamId stream, EventId event) const {
  Op marker;
  marker.kind = OpKind::Marker;
  marker.stream = stream;
  marker.name = "wait_event";
  marker.work = 0;
  wait_on_event(marker, event);
  return marker;
}

void Engine::wait_event(StreamId stream, EventId event, TimeUs host_time) {
  enqueue(make_wait_marker(stream, event), host_time);
}

void Submission::enqueue(Op op, TimeUs host_time, BindFn bind) {
  Item item;
  item.kind = ItemKind::Enqueue;
  item.op = std::move(op);
  item.bind = std::move(bind);
  item.host_time = host_time;
  items_.push_back(std::move(item));
  ++num_ops_;
}

void Submission::record_event(EventId event, StreamId stream,
                              TimeUs host_time) {
  Item item;
  item.kind = ItemKind::Record;
  item.event = event;
  item.stream = stream;
  item.host_time = host_time;
  items_.push_back(std::move(item));
}

void Submission::wait_event(StreamId stream, EventId event, TimeUs host_time) {
  Item item;
  item.kind = ItemKind::Wait;
  item.event = event;
  item.stream = stream;
  item.host_time = host_time;
  items_.push_back(std::move(item));
  ++num_ops_;  // lowered to a wait-marker op: consumes an op id
}

void Engine::begin_transaction(TimeUs host_time) {
  if (txn_open_) {
    throw TransactionError(TransactionError::Kind::AlreadyOpen,
                           "begin_transaction", txn_ops_);
  }
  // The transaction's one pre-ingest advance: process device activity the
  // host already observed, then freeze the clock for the batch.
  advance_to(host_time);
  txn_open_ = true;
  txn_last_time_ = std::max(now_, host_time);
  txn_ops_ = 0;
}

std::size_t Engine::commit_transaction() {
  if (!txn_open_) {
    throw TransactionError(TransactionError::Kind::NotOpen,
                           "commit_transaction", 0);
  }
  const std::size_t n = txn_ops_;
  txn_open_ = false;
  // The transaction's one post-ingest advance: deferred ready-checks drain
  // together and each dirtied class re-solves once for the whole batch.
  // Heads whose host time lies beyond the commit clock reach the start
  // heap and are released exactly at their issue times, so staggered-time
  // transactions replay per-call issue timing.
  advance_to(txn_last_time_);
  return n;
}

void Engine::validate_submission(const Submission& sub) const {
  // Host times replay a host call sequence, so they must be
  // non-decreasing; every item must reference valid streams/events, and
  // an `after` edge may name an op issued earlier in the list.
  TimeUs prev = sub.items_.front().host_time;
  OpId id = next_op_id_;
  for (const Submission::Item& item : sub.items_) {
    if (item.host_time < prev) {
      throw ApiError("ingest: submission host times must be non-decreasing");
    }
    prev = item.host_time;
    switch (item.kind) {
      case Submission::ItemKind::Enqueue:
        check_enqueueable(item.op, id++);
        break;
      case Submission::ItemKind::Record:
        check_event_id(item.event, "ingest/record_event");
        check_stream_id(item.stream, "ingest/record_event");
        break;
      case Submission::ItemKind::Wait:
        check_event_id(item.event, "ingest/wait_event");
        check_stream_id(item.stream, "ingest/wait_event");
        ++id;
        break;
    }
  }
}

std::size_t Engine::ingest(const Submission& sub) {
  if (sub.items_.empty()) return 0;
  // Atomic pre-pass: reject the whole list before touching any state.
  validate_submission(sub);
  // Outside a transaction the list brackets itself: one pre-ingest
  // advance to its first host time, one commit after its last item.
  const bool own_txn = !txn_open_;
  if (own_txn) begin_transaction(sub.items_.front().host_time);
  // Index-based: zero-work items can complete inside the bracketing
  // commit and their callbacks may re-enter the engine (but must not
  // mutate `sub`).
  for (std::size_t i = 0; i < sub.items_.size(); ++i) {
    const Submission::Item& item = sub.items_[i];
    switch (item.kind) {
      case Submission::ItemKind::Enqueue: {
        Op op = item.op;  // replayed by copy: the recording stays intact
        const OpId id = enqueue(std::move(op), item.host_time);
        if (item.bind) item.bind(*this, id);
        break;
      }
      case Submission::ItemKind::Record:
        record_event(item.event, item.stream, item.host_time);
        break;
      case Submission::ItemKind::Wait:
        enqueue(make_wait_marker(item.stream, item.event), item.host_time);
        break;
    }
  }
  if (own_txn) commit_transaction();
  return sub.num_ops_;
}

bool Engine::stream_idle(StreamId stream) const {
  if (stream < 0 || static_cast<std::size_t>(stream) >= streams_.size()) {
    throw ApiError("stream_idle: invalid stream");
  }
  return streams_[static_cast<std::size_t>(stream)].idle();
}

bool Engine::op_done(OpId op) const {
  return !record_of(op, "op_done").live();
}

TimeUs Engine::event_time(const EventState& ev) const {
  if (ev.gate == kInvalidOp) return ev.recorded_at;
  const OpRecord& rec = records_[static_cast<std::size_t>(ev.gate - 1)];
  return rec.live() ? kTimeInfinity : rec.end;
}

bool Engine::event_done(EventId event) const {
  check_event_id(event, "event_done");
  // An event never recorded completes at infinity.
  return event_time(events_[static_cast<std::size_t>(event)]) <= now_;
}

TimeUs Engine::event_done_time(EventId event) const {
  check_event_id(event, "event_done_time");
  return event_time(events_[static_cast<std::size_t>(event)]);
}

Op Engine::op(OpId id) const {
  const OpRecord& rec = record_of(id, "op");
  if (rec.live()) {
    // Live: snapshot with lazily-accrued fluid progress folded in from the
    // class's progress columns, so `done` and `rate` reflect now().
    Op snap = slab_[static_cast<std::size_t>(rec.tag)];
    snap.rate = live_rate(snap);
    if (snap.state == OpState::Running && snap.class_pos >= 0) {
      snap.done = snap.work - live_remaining(snap);
    }
    return snap;
  }
  // Retired: reconstruct the compact completion record.
  Op done;
  done.id = id;
  done.kind = rec.retired_kind();
  done.stream = rec.stream;
  done.state = OpState::Done;
  done.start_time = rec.start;
  done.end_time = rec.end;
  return done;
}

void Engine::mark_pending(StreamId stream) {
  StreamState& st = streams_[static_cast<std::size_t>(stream)];
  if (st.pending) return;
  st.pending = true;
  ready_.push_back(stream);
}

void Engine::mark_class_dirty(int cls) {
  ResourceClass& rc = classes_[static_cast<std::size_t>(cls)];
  if (rc.dirty) return;
  rc.dirty = true;
  dirty_classes_.push_back(cls);
}

void Engine::WaiterPool::add(std::int32_t& h, StreamId s) {
  if (h == kNone) {
    if (spare.empty()) {
      h = static_cast<std::int32_t>(lists.size());
      lists.emplace_back();
    } else {
      h = spare.back();
      spare.pop_back();
    }
  }
  lists[static_cast<std::size_t>(h)].push_back(s);
}

void Engine::WaiterPool::release(std::int32_t& h) {
  lists[static_cast<std::size_t>(h)].clear();
  spare.push_back(h);
  h = kNone;
}

void Engine::wake_waiters(std::int32_t& h) {
  if (h == WaiterPool::kNone) return;
  for (const StreamId s : waiter_pool_.lists[static_cast<std::size_t>(h)]) {
    mark_pending(s);
  }
  waiter_pool_.release(h);
}

const Engine::SolverGroup* Engine::ClassSolver::group(TenantId tenant) const {
  for (const SolverGroup& g : groups) {
    if (g.tenant == tenant) return &g;
  }
  return nullptr;
}

Engine::SolverGroup& Engine::ClassSolver::group_mut(TenantId tenant) {
  for (SolverGroup& g : groups) {
    if (g.tenant == tenant) return g;
  }
  SolverGroup& g = groups.emplace_back();
  g.tenant = tenant;
  if (!spare_heaps.empty()) {
    g.heap = std::move(spare_heaps.back());
    spare_heaps.pop_back();
  }
  return g;
}

void Engine::ClassSolver::reset_aggregates() {
  fill_sum = 0;
  bww_sum = 0;
  w_max = 0;
  w_min = kTimeInfinity;
  zero_w = 0;
  for (SolverGroup& g : groups) {
    g.heap.clear();
    spare_heaps.push_back(std::move(g.heap));
  }
  groups.clear();
}

Engine::SolverGroup& Engine::ClassSolver::add(TenantId tenant, bool kernel,
                                              double fill, double bw,
                                              double w) {
  SolverGroup& g = group_mut(tenant);
  ++g.n;
  g.w_sum += w;
  if (kernel) {
    fill_sum += fill;
    if (w > 0) {
      bww_sum += bw * w;
    } else {
      ++zero_w;  // off the line: the next solve falls back to a scan
    }
  }
  if (w > 0) {
    w_max = std::max(w_max, w);
    w_min = std::min(w_min, w);
  }
  return g;
}

std::int32_t Engine::ResourceClass::join(std::int32_t slot, const Op& op,
                                         const DeviceSpec& dev, TimeUs now) {
  const bool kernel = op.kind == OpKind::Kernel;
  double f = 0;
  double wi = 1.0;  // equal-share classes: unit weight
  if (kernel) {
    // Capture the static demand once: the same expressions the solver
    // would otherwise evaluate per member per re-solve.
    f = (op.sm_demand / dev.sm_count) * op.occupancy;
    const double u = ResourceModel::utilization(f);
    fill.push_back(f);
    solo_u.push_back(u);
    bw.push_back(op.bw_need);
    // Service weight: the ratio the proportional kernel split preserves
    // (rate_i = C * fill_i / solo_u_i while no member caps or floors).
    wi = u > 0 ? f / u : 0.0;
  }
  const double rem = op.remaining();
  // Stamp the member's entry service (its group's V projected to now);
  // aggregates update in O(1). A virtual-service class prices the member
  // at once and pushes its static finish tag; in scan mode it waits,
  // unserved, for the scan its join dirtied.
  SolverGroup& g = solver.add(op.tenant, kernel, f, op.bw_need, wi);
  const double v_enter = g.v + (now > since ? g.c * (now - since) : 0.0);
  const double s = solver.incremental ? wi : 0.0;
  if (s > 0) {
    g.heap.push_back({finish_tag(v_enter, rem, op.work, s), op.id});
    std::push_heap(g.heap.begin(), g.heap.end(), std::greater<>());
  }
  slots.push_back(slot);
  remaining.push_back(rem);
  work.push_back(op.work);
  sw.push_back(s);
  venter.push_back(v_enter);
  tenant.push_back(op.tenant);
  w.push_back(wi);
  return static_cast<std::int32_t>(slots.size() - 1);
}

std::int32_t Engine::ResourceClass::leave(const Op& op) {
  const auto pos = static_cast<std::size_t>(op.class_pos);
  const bool kernel = op.kind == OpKind::Kernel;
  // O(1) aggregate decrements; the member's finish-index entry goes stale
  // and is discarded lazily at a front. Empty groups and classes
  // hard-reset to exact zeros so aggregates never accumulate float
  // residue across idle spells.
  if (kernel) {
    solver.fill_sum -= fill[pos];
    if (w[pos] > 0) {
      solver.bww_sum -= bw[pos] * w[pos];
    } else {
      --solver.zero_w;
    }
  }
  SolverGroup& g = solver.group_mut(op.tenant);
  --g.n;
  g.w_sum -= w[pos];
  if (g.n <= 0) {
    g.n = 0;
    g.w_sum = 0;
    g.v = 0;
    g.c = 0;
    g.heap.clear();
  }
  if (size() == 1) solver.reset_aggregates();
  const std::int32_t moved = slots.back();
  swap_pop(slots, pos);
  if (kernel) {
    swap_pop(fill, pos);
    swap_pop(solo_u, pos);
    swap_pop(bw, pos);
  }
  swap_pop(remaining, pos);
  swap_pop(work, pos);
  swap_pop(sw, pos);
  swap_pop(venter, pos);
  swap_pop(tenant, pos);
  swap_pop(w, pos);
  return moved;
}

void Engine::ResourceClass::rebuild_groups(bool kernel_class) {
  solver.reset_aggregates();
  for (std::size_t i = 0; i < size(); ++i) {
    solver.add(tenant[i], kernel_class, kernel_class ? fill[i] : 0,
               kernel_class ? bw[i] : 0, w[i]);
  }
}

double Engine::ResourceClass::remaining_at(std::size_t i, TimeUs t) const {
  // rem_enter minus the service accrued since the member entered:
  // sw * (V(t) - v_enter), with V projected lazily from the group's last
  // materialized value.
  const SolverGroup* g = solver.group(tenant[i]);
  if (g == nullptr) return remaining[i];
  const double v_now = g->v + (t > since ? g->c * (t - since) : 0.0);
  return std::max(0.0, remaining[i] - sw[i] * (v_now - venter[i]));
}

double Engine::live_remaining(const Op& op) const {
  if (op.state != OpState::Running || op.class_pos < 0) return op.remaining();
  return classes_[static_cast<std::size_t>(class_index(op))].remaining_at(
      static_cast<std::size_t>(op.class_pos), now_);
}

double Engine::live_rate(const Op& op) const {
  if (op.state != OpState::Running || op.class_pos < 0) return 0.0;
  const ResourceClass& rc = classes_[static_cast<std::size_t>(class_index(op))];
  const SolverGroup* g = rc.solver.group(op.tenant);
  return g == nullptr ? 0.0
                      : g->c * rc.sw[static_cast<std::size_t>(op.class_pos)];
}

void Engine::complete_op(Op& op) {
  op.state = OpState::Done;
  op.end_time = now_;
  ++completed_count_;
  if (op.tenant >= 0) {
    const auto t = static_cast<std::size_t>(op.tenant);
    if (tenant_done_ops_.size() <= t) {
      tenant_done_ops_.resize(t + 1, 0);
      tenant_done_work_.resize(t + 1, 0);
    }
    ++tenant_done_ops_[t];
    if (op.kind == OpKind::Kernel) tenant_done_work_[t] += op.work;
  }

  OpRecord& rec = records_[static_cast<std::size_t>(op.id - 1)];
  rec.start = op.start_time;
  rec.end = now_;
  const auto slot = static_cast<std::size_t>(rec.tag);

  // Only a stream's head ever starts, so the op leaves from the front.
  StreamState& st = streams_[static_cast<std::size_t>(op.stream)];
  st.head = op.next_slot;
  if (st.idle()) st.tail = -1;

  // Leave the running set: swap-and-pop out of the resource class, dirty
  // it, and hand a freed DMA engine to the blocked copies of its direction.
  --running_;
  if (op.class_pos >= 0) {
    const int cls = class_index(op);
    ResourceClass& rc = classes_[static_cast<std::size_t>(cls)];
    slab_[static_cast<std::size_t>(rc.leave(op))].class_pos = op.class_pos;
    op.class_pos = -1;
    mark_class_dirty(cls);
    if (is_dma_copy(op.kind)) {
      for (StreamId s : rc.copy_waiters) mark_pending(s);
      rc.copy_waiters.clear();
    }
  }

  // Wake the heads gated on this op through `after` (events recorded
  // behind it read its record from now on).
  wake_waiters(op.after_waiters);

  if (op.kind != OpKind::Marker) timeline_.record(op);

  const StreamId stream = op.stream;
  const bool stream_drained = st.idle();
  if (!stream_drained) mark_pending(stream);

  // Retire: move the callback out, release the slab slot (drops the op's
  // strings/vectors/closures — live memory stays bounded by concurrency),
  // then fire the callbacks. `op` must not be touched past this point: the
  // callbacks may re-enter the engine and reuse the slot.
  auto fn = std::move(op.on_complete);
  rec.tag = -1 - static_cast<std::int32_t>(op.kind);
  --live_ops_;
  slab_[slot] = Op{};
  free_slots_.push_back(static_cast<std::int32_t>(slot));
  if (fn) fn();
  // After on_complete: the callback may have enqueued fresh work, in which
  // case the observer's idle record is stale — observers revalidate.
  if (stream_drained && !stream_idle_observers_.empty()) {
    // Dispatch by index over the observers registered now: one added
    // mid-dispatch lands past `n` and first sees the next drain; one
    // removed mid-dispatch has its token cleared and is skipped. Entries
    // stay in place until the outermost dispatch ends (also when a
    // callback throws), so the executing callback stays alive.
    struct Dispatch {
      Engine& eng;
      explicit Dispatch(Engine& e) : eng(e) { ++eng.observer_dispatch_depth_; }
      ~Dispatch() {
        if (--eng.observer_dispatch_depth_ == 0) {
          std::erase_if(eng.stream_idle_observers_,
                        [](const IdleObserver& o) { return o.token == 0; });
        }
      }
    } dispatch(*this);
    const std::size_t n = stream_idle_observers_.size();
    for (std::size_t i = 0; i < n; ++i) {
      IdleObserver& o = stream_idle_observers_[i];
      if (o.token != 0) o.fn(stream);
    }
  }
}

int Engine::add_stream_idle_observer(std::function<void(StreamId)> fn) {
  const int token = next_observer_token_++;
  stream_idle_observers_.push_back({token, std::move(fn)});
  return token;
}

void Engine::remove_stream_idle_observer(int token) {
  for (IdleObserver& o : stream_idle_observers_) {
    if (o.token == token) o.token = 0;
  }
  if (observer_dispatch_depth_ == 0) {
    std::erase_if(stream_idle_observers_,
                  [](const IdleObserver& o) { return o.token == 0; });
  }
}

void Engine::check_stream_head(StreamId stream) {
  const StreamState& st = streams_[static_cast<std::size_t>(stream)];
  if (st.idle()) return;
  const std::int32_t slot = st.head;
  Op& op = slab_[static_cast<std::size_t>(slot)];
  if (op.state != OpState::Queued) return;

  // Earliest possible start among enqueue time and gate completions. A
  // head behind a live gate parks on that gate's waiter list; a head
  // blocked only by the clock goes into the start heap at its known start
  // time, and is examined again only when that entry is released.
  TimeUs at = op.enqueue_time;
  const bool gates_done = for_each_after(op, [&](OpId dep) {
    const OpRecord& dep_rec = records_[static_cast<std::size_t>(dep - 1)];
    if (dep_rec.live()) {
      waiter_pool_.add(
          slab_[static_cast<std::size_t>(dep_rec.tag)].after_waiters, stream);
      return false;
    }
    at = std::max(at, dep_rec.end);
    return true;
  });
  if (!gates_done) return;
  if (at > now_ + kWorkEps) {
    start_heap_.push_back({at, op.id});
    std::push_heap(start_heap_.begin(), start_heap_.end(), std::greater<>());
    return;
  }
  // Explicit copies serialize on their DMA engine — one in flight per
  // host-link direction per device, and one per directed peer link —
  // grabbed in issue order as the engine frees up. (Fault-path migrations
  // use the page-fault machinery instead and may proceed concurrently; the
  // resource model de-rates them.)
  if (is_dma_copy(op.kind)) {
    ResourceClass& rc = classes_[static_cast<std::size_t>(class_index(op))];
    if (!rc.empty()) {
      rc.copy_waiters.push_back(stream);
      return;
    }
  }

  op.state = OpState::Running;
  op.start_time = now_;
  ++running_;
  const int cls = class_index(op);
  if (cls != kClassNone) {
    op.class_pos = classes_[static_cast<std::size_t>(cls)].join(
        slot, op, machine_.device(op.device), now_);
    mark_class_dirty(cls);
  }
  if (op.remaining() <= kWorkEps) {
    complete_op(op);  // zero-duration markers finish instantly
    // No references may be used past complete_op: the callback can grow
    // streams_/records_/slab_ re-entrantly.
  }
}

void Engine::drain_ready() {
  // Rounds of ascending-stream-id sweeps over the pending set, mirroring
  // the seed engine's full-scan fixpoint order (which decides copy-engine
  // handover among same-instant candidates) without visiting idle streams.
  //
  // The batch is moved out of the scratch member for the duration of the
  // sweep: a completion callback may re-enter the engine (advance_to,
  // run_until_*) and recurse into drain_ready, which must not clobber the
  // batch we are iterating. The inner call sees an empty scratch and
  // allocates its own; capacities are donated back on the way out.
  std::vector<StreamId> batch = std::move(batch_);
  while (!ready_.empty()) {
    batch.clear();
    batch.swap(ready_);
    if (!qos_active_) {
      std::sort(batch.begin(), batch.end());
    } else {
      // EEVDF sweep: eligible tenants first, earliest virtual deadline
      // next, stream id as the deterministic tie-break. Tenants without a
      // published key rank eligible at infinite deadline, so unmanaged
      // streams keep their relative order.
      const auto key = [this](StreamId s) {
        const TenantId t = streams_[static_cast<std::size_t>(s)].tenant;
        int rank = 0;
        TimeUs deadline = kTimeInfinity;
        if (t >= 0 &&
            static_cast<std::size_t>(t) < tenant_eligible_.size()) {
          rank = tenant_eligible_[static_cast<std::size_t>(t)] ? 0 : 1;
          deadline = tenant_deadline_[static_cast<std::size_t>(t)];
        }
        return std::make_tuple(rank, deadline, s);
      };
      std::sort(batch.begin(), batch.end(),
                [&key](StreamId a, StreamId b) { return key(a) < key(b); });
    }
    for (const StreamId s : batch) {
      streams_[static_cast<std::size_t>(s)].pending = false;
      check_stream_head(s);
    }
  }
  batch_ = std::move(batch);
}

void Engine::recompute_rates() {
  // slot_of and kSlotKind are a forward/inverse pair; a class added to
  // one without the other would misprice every op in it.
  static_assert(slot_of(kSlotKind[kSlotKernel]) == kSlotKernel);
  static_assert(slot_of(kSlotKind[kSlotH2D]) == kSlotH2D);
  static_assert(slot_of(kSlotKind[kSlotD2H]) == kSlotD2H);
  static_assert(slot_of(kSlotKind[kSlotFault]) == kSlotFault);

  // No callbacks fire inside this loop, so the worklist cannot grow (or be
  // re-entered) while it drains.
  for (const int cls : dirty_classes_) {
    ResourceClass& rc = classes_[static_cast<std::size_t>(cls)];
    rc.dirty = false;
    class_next_[static_cast<std::size_t>(cls)] = kTimeInfinity;
    if (rc.empty()) continue;
    ++rc.stats.solves;
    std::chrono::steady_clock::time_point t0;
    if (solve_timing_) t0 = std::chrono::steady_clock::now();

    // Rates come from the class's compact demand columns — kernels from
    // fill/solo_u/bw, every transfer class from its member count — and
    // progress folds and the finish index run over the dense progress
    // columns: the whole re-solve touches no Op beyond reading member ids.
    const bool kernel_class =
        cls < p2p_base_ && cls % kSlotsPerDevice == kSlotKernel;
    double share = 0;
    if (cls >= p2p_base_) {
      const int rel = cls - p2p_base_;
      const DeviceId src = static_cast<DeviceId>(rel / num_devices());
      const DeviceId dst = static_cast<DeviceId>(rel % num_devices());
      share = machine_.p2p_bytes_per_us(src, dst) /
              static_cast<double>(rc.size());
    } else if (!kernel_class) {
      share = models_[static_cast<std::size_t>(cls / kSlotsPerDevice)]
                  .class_share(kSlotKind[cls % kSlotsPerDevice], rc.size());
    }

    // Virtual-service fast path: while the class's rate *ratios* are
    // stable, a membership-count rate change is one slope update per
    // group — no member is folded, rated, or even read. Falls back to the
    // full scan below when the linear regime's validity test fails.
    if (rc.solver.incremental &&
        incremental_resolve(cls, kernel_class, share)) {
      long groups = 0;
      for (const SolverGroup& g : rc.solver.groups) {
        if (g.n > 0) ++groups;
      }
      solved_ops_ += std::max<long>(groups, 1);
    } else {
      // Full scan: every member folded and re-rated. Counted separately
      // so the bench can prove scans are rare under churn.
      ++rc.stats.full_scans;
      solved_ops_ += static_cast<long>(rc.size());
      rc.stats.member_touches += static_cast<long>(rc.size());
      // Progress accrued on the group clocks since the last solve.
      for (std::size_t i = 0; i < rc.size(); ++i) {
        rc.remaining[i] = rc.remaining_at(i, now_);
      }
      rc.since = now_;
      if (kernel_class) {
        models_[static_cast<std::size_t>(cls / kSlotsPerDevice)]
            .solve_kernel_class(rc.fill, rc.solo_u, rc.bw, solve_rates_);
      }
      // Tenancy: the scan's one tenant table. A class whose members span
      // several tenants re-shares its aggregate bandwidth weight-
      // proportionally across them; a single group never leaves the
      // unweighted arithmetic. try_promote_class reuses the same groups.
      rc.rebuild_groups(kernel_class);
      const bool multi_tenant = rc.solver.groups.size() > 1;
      if (multi_tenant) apply_tenant_shares(rc, kernel_class, share);
      const bool per_member = kernel_class || multi_tenant;
      for (std::size_t i = 0; i < rc.size(); ++i) {
        rc.sw[i] = per_member ? solve_rates_[i] : share;
      }
      // Stay a scan-mode class (slope 1, sw = the scanned rate) or enter
      // the virtual-service regime if the rates sit on its linear model;
      // either way the finish index rebuilds exactly from the folded rows.
      try_promote_class(cls, kernel_class, share);
      rebuild_finish_index(rc);
    }
    class_next_[static_cast<std::size_t>(cls)] = next_finish(rc);
    if (solve_timing_) {
      rc.stats.solve_time_us += std::chrono::duration<double, std::micro>(
                                    std::chrono::steady_clock::now() - t0)
                                    .count();
    }
  }
  dirty_classes_.clear();
}

bool Engine::incremental_resolve(int cls, bool kernel_class, double share) {
  ResourceClass& rc = classes_[static_cast<std::size_t>(cls)];
  ClassSolver& sol = rc.solver;
  const TimeUs dt = now_ - rc.since;
  // Advance every group's cumulative service to now_ at the slopes in
  // effect since the last solve, then move the fold timestamp: whether the
  // re-price below succeeds or falls back to a scan, V is materialized at
  // now_ (the scan's fold relies on this never being applied twice).
  if (dt > 0) {
    for (SolverGroup& g : sol.groups) {
      if (g.c > 0 && g.n > 0) g.v += g.c * dt;
    }
  }
  rc.since = now_;
  return compute_group_rates(cls, kernel_class, share);
}

TimeUs Engine::next_finish(ResourceClass& rc) {
  // One front-peek per group, converted to wall time. Stale entries
  // (completed ops) are discarded as they surface.
  TimeUs next = kTimeInfinity;
  for (SolverGroup& g : rc.solver.groups) {
    if (g.n <= 0) continue;
    while (!g.heap.empty()) {
      if (is_running(g.heap.front().id)) break;
      std::pop_heap(g.heap.begin(), g.heap.end(), std::greater<>());
      g.heap.pop_back();
    }
    if (g.heap.empty() || g.c <= 0) continue;
    // Clamped at `since`: a front whose tag V already passed (within the
    // completion tolerance) is due immediately, never in the past.
    next = std::min(next,
                    rc.since + std::max(0.0, g.heap.front().f - g.v) / g.c);
  }
  return next;
}

bool Engine::compute_group_rates(int cls, bool kernel_class, double share) {
  ClassSolver& sol = classes_[static_cast<std::size_t>(cls)].solver;
  // Count populated groups; single-group classes take the scalar path.
  std::size_t n_groups = 0;
  SolverGroup* only = nullptr;
  for (SolverGroup& g : sol.groups) {
    if (g.n > 0) {
      ++n_groups;
      only = &g;
    }
  }
  if (n_groups == 0) return false;

  // Equal-share classes sit on the line C = share (every weight is 1).
  // Kernels: validity test of the linear regime. The full-scan solve is
  // exactly rate_i = C * w_i (C = utilization(total_fill) / total_fill)
  // while no member hits the 1.0 solo cap or the 1e-9 floor and DRAM
  // stays unsaturated (bw demand C * sum(bw * w) under the budget) — all
  // checkable against O(1) aggregates. w_max/w_min are conservative
  // upper/lower bounds between scans, so a failed check may cost one
  // unnecessary scan but never a wrong rate.
  double c_all = share;
  if (kernel_class) {
    if (sol.zero_w > 0 || sol.fill_sum <= 0) return false;
    const DeviceSpec& spec = machine_.device(cls / kSlotsPerDevice);
    c_all = ResourceModel::utilization(sol.fill_sum) / sol.fill_sum;
    if (c_all * sol.w_max > 1.0) return false;
    if (c_all * sol.w_min < 1e-9) return false;
    if (c_all * sol.bww_sum > spec.dram_bytes_per_us()) return false;
  }
  if (n_groups == 1) {
    only->c = c_all;
    return true;
  }
  // Multi-tenant: apply_tenant_shares' bounded water-fill of the class
  // aggregate over tenants, on group aggregates — the rate sum of group g
  // is C * W_g — then c_g = budget / W_g. The spread stays linear only if
  // no member caps: c_g * w_max <= member cap (never binding on an
  // uncapped transfer).
  const double member_cap = member_rate_cap(kernel_class);
  double total_rate = 0;
  for (const SolverGroup& g : sol.groups) {
    if (g.n > 0) total_rate += c_all * g.w_sum;
  }
  if (!tenant_budgets(sol, member_cap, total_rate)) return false;
  std::size_t j = 0;
  for (SolverGroup& g : sol.groups) {
    if (g.n <= 0) continue;
    if (g.w_sum <= 0) return false;
    g.c = share_budget_[j++] / g.w_sum;
    if (g.c * sol.w_max > member_cap) return false;  // a member would cap
  }
  return true;
}

bool Engine::tenant_budgets(const ClassSolver& sol, double member_cap,
                            double total_rate) {
  share_weight_.clear();
  share_cap_.clear();
  double total_weight = 0;
  for (const SolverGroup& g : sol.groups) {
    if (g.n <= 0) continue;
    share_weight_.push_back(tenant_weight(g.tenant));
    share_cap_.push_back(static_cast<double>(g.n) * member_cap);
    total_weight += share_weight_.back();
  }
  if (total_weight <= 0 || total_rate <= 0) return false;
  ResourceModel::water_fill_budgets(share_weight_, share_cap_, total_rate,
                                    share_budget_, share_active_);
  return true;
}

void Engine::try_promote_class(int cls, bool kernel_class, double share) {
  // Called right after a full scan: remainings are folded to now_, sw
  // holds the exact full-scan rates and the groups are freshly rebuilt.
  // Derive the linear-model slopes and only promote if every member's
  // scanned rate equals c_g * w_i — one verification pass that subsumes
  // every cap/floor/saturation/tenancy corner without duplicating the
  // solver's case analysis.
  ResourceClass& rc = classes_[static_cast<std::size_t>(cls)];
  ClassSolver& sol = rc.solver;
  sol.incremental = false;
  if (!compute_group_rates(cls, kernel_class, share)) return;
  for (std::size_t i = 0; i < rc.size(); ++i) {
    const double want = sol.group(rc.tenant[i])->c * rc.w[i];
    const double got = rc.sw[i];
    if (std::abs(want - got) > 1e-12 * std::max(1.0, std::abs(got))) return;
  }
  rc.sw = rc.w;
  sol.incremental = true;
}

void Engine::rebuild_finish_index(ResourceClass& rc) {
  ClassSolver& sol = rc.solver;
  for (SolverGroup& g : sol.groups) {
    g.v = 0;
    if (!sol.incremental) g.c = 1;
    g.heap.clear();
  }
  for (std::size_t i = 0; i < rc.size(); ++i) {
    rc.venter[i] = 0;
    const double f = finish_tag(0, rc.remaining[i], rc.work[i], rc.sw[i]);
    if (f == kTimeInfinity) continue;
    sol.group_mut(rc.tenant[i])
        .heap.push_back({f, slab_[static_cast<std::size_t>(rc.slots[i])].id});
  }
  for (SolverGroup& g : sol.groups) {
    std::make_heap(g.heap.begin(), g.heap.end(), std::greater<>());
  }
}

void Engine::apply_tenant_shares(ResourceClass& rc, bool kernel_class,
                                 double share) {
  const std::size_t n = rc.size();
  // Equal-share classes materialize their scalar into the rate vector so
  // both class families re-share through the same per-member path; they
  // differ only in the member cap.
  if (!kernel_class) solve_rates_.assign(n, share);
  const double member_cap = member_rate_cap(kernel_class);

  // Weighted water-fill of the aggregate over the scan's tenant groups,
  // each capped by what its members can absorb. Kernel base rates are
  // <= 1.0, so the aggregate always fits under the caps: the class total
  // is conserved, and a high-weight tenant that saturates at solo speed
  // hands its surplus to the others instead of idling the device.
  // Uncapped transfers get the plain weighted split.
  double total_rate = 0;
  for (std::size_t i = 0; i < n; ++i) total_rate += solve_rates_[i];
  if (!tenant_budgets(rc.solver, member_cap, total_rate)) return;

  // Intra-tenant: the same water-fill spreads each budget over the
  // tenant's members, weighted by their base-solve rates and each capped
  // at the member cap (a capped member's overflow re-spreads over the
  // rest). A tenant's members are rewritten only in its own pass, so each
  // pass reads base rates.
  const auto& groups = rc.solver.groups;
  for (std::size_t j = 0; j < groups.size(); ++j) {
    const TenantId t = groups[j].tenant;
    share_weight_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (rc.tenant[i] == t) share_weight_.push_back(solve_rates_[i]);
    }
    share_cap_.assign(share_weight_.size(), member_cap);
    ResourceModel::water_fill_budgets(share_weight_, share_cap_,
                                      share_budget_[j], share_spread_,
                                      share_active_);
    std::size_t k = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (rc.tenant[i] == t) solve_rates_[i] = share_spread_[k++];
    }
  }
}

TimeUs Engine::earliest_completion() const {
  TimeUs best = kTimeInfinity;
  for (const TimeUs t : class_next_) best = std::min(best, t);
  return best;
}

TimeUs Engine::earliest_queued_candidate() const {
  return start_heap_.empty() ? kTimeInfinity : start_heap_.front().t;
}

void Engine::release_due_starts() {
  while (!start_heap_.empty() && start_heap_.front().t <= now_ + kWorkEps) {
    const OpId id = start_heap_.front().id;
    std::pop_heap(start_heap_.begin(), start_heap_.end(), std::greater<>());
    start_heap_.pop_back();
    mark_pending(records_[static_cast<std::size_t>(id - 1)].stream);
  }
}

bool Engine::complete_due_ops() {
  const TimeUs tol = completion_tol(now_);
  // Moved out of the scratch member: completion callbacks may re-enter the
  // engine and recurse into this function (see drain_ready).
  std::vector<OpId> due = std::move(due_);
  due.clear();
  for (int cls = 0; cls < num_classes_; ++cls) {
    if (class_next_[static_cast<std::size_t>(cls)] > now_ + tol) continue;
    ResourceClass& rc = classes_[static_cast<std::size_t>(cls)];
    // Heap-pop the due front of each group's finish index: an entry is
    // due when its service tag falls under the group's V projected to
    // now_ + tol. Only due (or stale) entries are popped — O(due log n),
    // no member scan.
    for (SolverGroup& g : rc.solver.groups) {
      if (g.n <= 0 || g.c <= 0) continue;
      const double v_due = g.v + g.c * (now_ + tol - rc.since);
      while (!g.heap.empty()) {
        const FinishEntry top = g.heap.front();
        const bool live = is_running(top.id);
        if (live && top.f > v_due) break;
        std::pop_heap(g.heap.begin(), g.heap.end(), std::greater<>());
        g.heap.pop_back();
        if (live) due.push_back(top.id);
      }
    }
  }
  if (due.empty()) {
    due_ = std::move(due);
    return false;
  }
  std::sort(due.begin(), due.end());  // deterministic tie-breaking
  for (const OpId id : due) {
    const OpRecord& rec = records_[static_cast<std::size_t>(id - 1)];
    if (!rec.live()) continue;
    Op& op = slab_[static_cast<std::size_t>(rec.tag)];
    if (op.state == OpState::Running) complete_op(op);
  }
  due_ = std::move(due);
  return true;
}

void Engine::note_progress(bool advanced) {
  if (advanced) {
    stall_steps_ = 0;
    return;
  }
  if (++stall_steps_ < kStallLimit) return;
  std::ostringstream msg;
  msg << "engine stalled at t=" << now_ << "us after " << kStallLimit
      << " steps without progress; running:";
  for (const Op& op : slab_) {
    if (op.state != OpState::Running) continue;
    const double rate = live_rate(op);
    msg << " [op " << op.id << " '" << op.name << "' dev " << op.device
        << " remaining " << live_remaining(op) << " rate " << rate << "]";
  }
  msg << "; queued heads:";
  for (const auto& stream : streams_) {
    if (stream.idle()) continue;
    const Op& op = slab_[static_cast<std::size_t>(stream.head)];
    if (op.state != OpState::Queued) continue;
    msg << " [stream " << op.stream << " op " << op.id << " '" << op.name
        << "' enqueue_t " << op.enqueue_time << " after";
    for_each_after(op, [&](OpId dep) {
      msg << ' ' << dep;
      return true;
    });
    msg << "]";
  }
  throw Error(msg.str());
}

bool Engine::step(TimeUs target) {
  const TimeUs entry_now = now_;
  const long entry_completed = completed_count_;
  drain_ready();
  recompute_rates();

  const TimeUs t_next =
      std::min(earliest_completion(), earliest_queued_candidate());

  if (t_next >= target) {
    if (!std::isfinite(target)) {
      // Nothing schedulable before an infinite horizon. With running ops
      // present this means every rate is zero — callers will retry, so
      // count it against the stall watchdog instead of spinning forever.
      if (running_ > 0) note_progress(false);
      return false;
    }
    // Advance to target and stop; complete/start anything due exactly there.
    if (target > now_) now_ = target;
    release_due_starts();
    const bool finished = complete_due_ops();
    drain_ready();
    note_progress(now_ != entry_now || completed_count_ != entry_completed);
    return finished;
  }

  // Advance to the next discrete event. Running ops' progress is folded
  // lazily at their next rate change or query — not per step.
  now_ = t_next;
  release_due_starts();
  complete_due_ops();
  drain_ready();
  note_progress(now_ != entry_now || completed_count_ != entry_completed);
  return true;
}

void Engine::advance_to(TimeUs t) {
  if (txn_open_) {
    throw ApiError(
        "advance_to: a transaction is open (commit_transaction first)");
  }
  if (t <= now_) {
    release_due_starts();
    drain_ready();
    return;
  }
  while (now_ < t) {
    if (!step(t)) break;
  }
  release_due_starts();
  drain_ready();
}

void Engine::check_deadlock() {
  if (running_ > 0) return;
  if (live_ops_ == 0) return;
  // Pending head checks may still start something; step() drains them.
  if (!ready_.empty()) return;
  // No running ops: if any queued head could still start in the future
  // (pending enqueue time or a completed-gate event), we are fine; if every
  // queued op waits on something that can never complete, it's a deadlock.
  if (earliest_queued_candidate() < kTimeInfinity) return;

  std::ostringstream msg;
  msg << "engine deadlock at t=" << now_ << "us; blocked ops:";
  for (const auto& stream : streams_) {
    if (stream.idle()) continue;
    const Op& op = slab_[static_cast<std::size_t>(stream.head)];
    msg << " [stream " << op.stream << " op " << op.id << " '" << op.name
        << "']";
  }
  throw Error(msg.str());
}

TimeUs Engine::run_until_op_done(OpId op_id) {
  if (txn_open_) {
    throw ApiError(
        "run_until_op_done: a transaction is open (commit_transaction "
        "first)");
  }
  while (!op_done(op_id)) {
    check_deadlock();
    if (!step(kTimeInfinity)) check_deadlock();
  }
  return records_[static_cast<std::size_t>(op_id - 1)].end;
}

TimeUs Engine::run_until_event(EventId event) {
  check_event_id(event, "run_until_event");
  const EventState& ev = events_[static_cast<std::size_t>(event)];
  if (!ev.recorded()) {
    throw ApiError("run_until_event: event was never recorded");
  }
  if (ev.gate != kInvalidOp) return run_until_op_done(ev.gate);
  advance_to(std::max(now_, ev.recorded_at));
  return ev.recorded_at;
}

TimeUs Engine::run_until_stream_idle(StreamId stream) {
  if (stream < 0 || static_cast<std::size_t>(stream) >= streams_.size()) {
    throw ApiError("run_until_stream_idle: invalid stream");
  }
  if (txn_open_) {
    throw ApiError(
        "run_until_stream_idle: a transaction is open (commit_transaction "
        "first)");
  }
  while (!streams_[static_cast<std::size_t>(stream)].idle()) {
    check_deadlock();
    step(kTimeInfinity);
  }
  return now_;
}

void Engine::audit() const {
  const auto fail_engine = [](const std::string& what) {
    throw Error("Engine::audit: " + what);
  };
  // Stream FIFOs: each links its own live ops in issue order, only the
  // head may run, and together they hold every live op. Every dependency
  // edge names an op issued before its waiter.
  long linked = 0;
  for (std::size_t s = 0; s < streams_.size(); ++s) {
    const StreamState& st = streams_[s];
    const std::string fifo = "stream " + std::to_string(s) + ": ";
    OpId prev = 0;
    std::int32_t last = -1;
    for (std::int32_t slot = st.head; slot >= 0;
         slot = slab_[static_cast<std::size_t>(slot)].next_slot) {
      if (static_cast<std::size_t>(slot) >= slab_.size() ||
          ++linked > live_ops_) {
        fail_engine(fifo + "FIFO links a slot outside the live slab");
      }
      const Op& op = slab_[static_cast<std::size_t>(slot)];
      if (op.stream != static_cast<StreamId>(s) || op.id <= prev ||
          op.id >= next_op_id_ ||
          records_[static_cast<std::size_t>(op.id - 1)].tag != slot) {
        fail_engine(fifo + "FIFO links an op of another stream, out of "
                    "issue order, or not live");
      }
      if (op.state != OpState::Queued && slot != st.head) {
        fail_engine(fifo + "an op behind the head has started");
      }
      for_each_after(op, [&](OpId dep) {
        if (dep < 1 || dep >= op.id) {
          fail_engine(fifo + "op " + std::to_string(op.id) +
                      " waits for an op not issued before it");
        }
        return true;
      });
      prev = op.id;
      last = slot;
    }
    if (last != st.tail) fail_engine(fifo + "tail is not the FIFO's last op");
  }
  if (linked != live_ops_) fail_engine("the FIFOs do not hold every live op");
  for (std::size_t e = 0; e < events_.size(); ++e) {
    const OpId gate = events_[e].gate;
    if (gate != kInvalidOp && (gate < 1 || gate >= next_op_id_)) {
      fail_engine("event " + std::to_string(e) +
                  "'s gate names an op not issued");
    }
  }
  // The start heap holds one entry per clock-blocked head and nothing
  // else: a head is examined again only when its entry is released.
  std::vector<OpId> heads;
  for (const HeapEntry& e : start_heap_) {
    if (e.id < 1 || e.id >= next_op_id_) {
      fail_engine("start-heap entry names an op not issued");
    }
    const OpRecord& rec = records_[static_cast<std::size_t>(e.id - 1)];
    if (!rec.live() ||
        streams_[static_cast<std::size_t>(rec.stream)].head != rec.tag ||
        slab_[static_cast<std::size_t>(rec.tag)].state != OpState::Queued) {
      fail_engine("start-heap entry for op " + std::to_string(e.id) +
                  " names no queued stream head");
    }
    heads.push_back(e.id);
  }
  std::sort(heads.begin(), heads.end());
  if (std::adjacent_find(heads.begin(), heads.end()) != heads.end()) {
    fail_engine("a head holds two start-heap entries");
  }

  for (int cls = 0; cls < num_classes_; ++cls) {
    const auto fail = [cls](const std::string& what) {
      throw Error("Engine::audit: class " + std::to_string(cls) + ": " +
                  what);
    };
    const ResourceClass& rc = classes_[static_cast<std::size_t>(cls)];
    const std::size_t n = rc.size();
    const bool kernel_class =
        cls < p2p_base_ && cls % kSlotsPerDevice == kSlotKernel;
    const std::size_t demand_rows = kernel_class ? n : 0;
    if (rc.remaining.size() != n || rc.work.size() != n ||
        rc.sw.size() != n || rc.venter.size() != n ||
        rc.tenant.size() != n || rc.w.size() != n) {
      fail("a member column's length differs from the member count");
    }
    if (rc.fill.size() != demand_rows || rc.solo_u.size() != demand_rows ||
        rc.bw.size() != demand_rows) {
      fail("demand columns must match the member count in kernel classes "
           "and be empty elsewhere");
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::string row = "row " + std::to_string(i) + ": ";
      const std::int32_t slot = rc.slots[i];
      if (slot < 0 || static_cast<std::size_t>(slot) >= slab_.size()) {
        fail(row + "slab slot out of range");
      }
      const Op& op = slab_[static_cast<std::size_t>(slot)];
      if (op.state != OpState::Running) fail(row + "op is not running");
      if (op.class_pos != static_cast<std::int32_t>(i)) {
        fail(row + "op's class_pos points elsewhere");
      }
      if (class_index(op) != cls) fail(row + "op belongs to another class");
      if (op.tenant != rc.tenant[i]) fail(row + "tenant differs from the op");
      if (op.work != rc.work[i]) fail(row + "work differs from the op");
    }
    const bool dma_class = cls >= p2p_base_ ||
                           cls % kSlotsPerDevice == kSlotH2D ||
                           cls % kSlotsPerDevice == kSlotD2H;
    if (dma_class && n > 1) fail("DMA class holds more than one copy");
    // Per group: count and weight sum against the rows, and the least
    // finish tag the rows carry — the tags join and rebuild_finish_index
    // push, recomputed from the rows rather than read off the heap.
    long grouped = 0;
    TimeUs next = kTimeInfinity;
    for (const SolverGroup& g : rc.solver.groups) {
      long members = 0;
      double w_sum = 0;
      double f_min = kTimeInfinity;
      for (std::size_t i = 0; i < n; ++i) {
        if (rc.tenant[i] != g.tenant) continue;
        ++members;
        w_sum += rc.w[i];
        f_min = std::min(f_min, finish_tag(rc.venter[i], rc.remaining[i],
                                           rc.work[i], rc.sw[i]));
      }
      const std::string group = "tenant " + std::to_string(g.tenant) + " ";
      if (members != g.n) fail(group + "group count differs from its rows");
      if (std::abs(w_sum - g.w_sum) > 1e-9 * std::max(1.0, std::abs(w_sum))) {
        fail(group + "group weight sum differs from its rows");
      }
      grouped += g.n;
      if (g.n > 0 && g.c > 0 && f_min < kTimeInfinity) {
        next = std::min(next, rc.since + std::max(0.0, f_min - g.v) / g.c);
      }
    }
    if (grouped != static_cast<long>(n)) fail("rows outside any group");
    if (!rc.dirty && class_next_[static_cast<std::size_t>(cls)] != next) {
      fail("clean class's next completion is not its least finish tag's");
    }
    const bool listed = std::find(dirty_classes_.begin(), dirty_classes_.end(),
                                  cls) != dirty_classes_.end();
    if (rc.dirty != listed) fail("dirty flag disagrees with the worklist");
  }
}

TimeUs Engine::run_all() {
  if (txn_open_) {
    throw ApiError("run_all: a transaction is open (commit_transaction first)");
  }
  while (!all_idle()) {
    check_deadlock();
    step(kTimeInfinity);
  }
  return now_;
}

}  // namespace psched::sim
