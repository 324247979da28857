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
/// predicted completion within this tolerance of the clock is due, which is
/// exactly the seed engine's `effectively_done` test expressed on predicted
/// times (remaining / rate == predicted_t - now).
TimeUs completion_tol(TimeUs now) { return std::max(1e-6, 1e-9 * now); }

/// Most rate one class member can absorb in a tenant re-share: a kernel
/// never runs faster than solo (1.0); a transfer has no ceiling, which
/// turns the bounded water-fill into a plain weighted split.
double member_rate_cap(bool kernel_class) {
  return kernel_class ? 1.0 : std::numeric_limits<double>::infinity();
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
  class_members_.resize(static_cast<std::size_t>(num_classes_));
  class_fill_.resize(static_cast<std::size_t>(num_classes_));
  class_solo_u_.resize(static_cast<std::size_t>(num_classes_));
  class_bw_.resize(static_cast<std::size_t>(num_classes_));
  class_remaining_.resize(static_cast<std::size_t>(num_classes_));
  class_work_.resize(static_cast<std::size_t>(num_classes_));
  class_rate_.resize(static_cast<std::size_t>(num_classes_));
  class_pred_.resize(static_cast<std::size_t>(num_classes_));
  class_tenant_.resize(static_cast<std::size_t>(num_classes_));
  class_since_.assign(static_cast<std::size_t>(num_classes_), 0);
  class_w_.resize(static_cast<std::size_t>(num_classes_));
  class_venter_.resize(static_cast<std::size_t>(num_classes_));
  class_solver_.resize(static_cast<std::size_t>(num_classes_));
  class_next_.assign(static_cast<std::size_t>(num_classes_), kTimeInfinity);
  class_dirty_.assign(static_cast<std::size_t>(num_classes_), 0);
  class_solves_.assign(static_cast<std::size_t>(num_classes_), 0);
  class_full_scans_.assign(static_cast<std::size_t>(num_classes_), 0);
  class_member_touches_.assign(static_cast<std::size_t>(num_classes_), 0);
  class_solve_time_.assign(static_cast<std::size_t>(num_classes_), 0.0);
  copy_waiters_.resize(static_cast<std::size_t>(num_classes_));
  streams_.emplace_back();  // default stream 0, device 0
}

Engine::SolverClassStats Engine::class_solver_stats(DeviceId device,
                                                    OpKind kind) const {
  if (!machine_.valid_device(device)) {
    throw ApiError("class_solver_stats: invalid device");
  }
  const int slot = slot_of(kind);
  if (slot == kClassNone) {
    throw ApiError("class_solver_stats: op kind carries no per-device class");
  }
  const auto cls = static_cast<std::size_t>(device * kSlotsPerDevice + slot);
  return {class_solves_[cls], class_full_scans_[cls],
          class_member_touches_[cls], class_solve_time_[cls]};
}

Engine::SolverClassStats Engine::link_solver_stats(DeviceId src,
                                                   DeviceId dst) const {
  if (!machine_.valid_device(src) || !machine_.valid_device(dst)) {
    throw ApiError("link_solver_stats: invalid device");
  }
  const auto cls =
      static_cast<std::size_t>(p2p_base_ + src * num_devices() + dst);
  return {class_solves_[cls], class_full_scans_[cls],
          class_member_touches_[cls], class_solve_time_[cls]};
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
    if (!class_members_[static_cast<std::size_t>(cls)].empty()) {
      mark_class_dirty(cls);
    }
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

long Engine::class_solve_count(DeviceId device, OpKind kind) const {
  if (!machine_.valid_device(device)) {
    throw ApiError("class_solve_count: invalid device");
  }
  const int slot = slot_of(kind);
  if (slot == kClassNone) {
    throw ApiError("class_solve_count: op kind carries no per-device class");
  }
  return class_solves_[static_cast<std::size_t>(
      device * kSlotsPerDevice + slot)];
}

long Engine::link_solve_count(DeviceId src, DeviceId dst) const {
  if (!machine_.valid_device(src) || !machine_.valid_device(dst)) {
    throw ApiError("link_solve_count: invalid device");
  }
  return class_solves_[static_cast<std::size_t>(
      p2p_base_ + src * num_devices() + dst)];
}

EventId Engine::create_event() {
  events_.emplace_back();
  return static_cast<EventId>(events_.size() - 1);
}


const Engine::OpRecord& Engine::record_of(OpId id, const char* who) const {
  if (id < 1 || id >= next_op_id_) {
    throw ApiError(std::string(who) + ": unknown op");
  }
  return records_[static_cast<std::size_t>(id - 1)];
}

Op& Engine::live_op(OpId id) {
  const OpRecord& rec = records_[static_cast<std::size_t>(id - 1)];
  return slab_[static_cast<std::size_t>(rec.slot)];
}

void Engine::check_enqueueable(const Op& op) const {
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
  for (const EventId e : op.waits) check_event_id(e, "enqueue/waits");
  for (const OpId dep : op.after) {
    if (dep < 1 || dep >= next_op_id_) {
      throw ApiError("enqueue: `after` names an op not yet issued");
    }
  }
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
  check_enqueueable(op);
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
  op.rate = 0;
  op.rate_since = 0;
  op.class_pos = -1;
  op.heap_seq = 0;
  op.gated_events.clear();

  const OpId id = op.id;
  const StreamId stream = op.stream;
  const OpKind kind = op.kind;

  std::int32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slab_[static_cast<std::size_t>(slot)] = std::move(op);
  } else {
    slot = static_cast<std::int32_t>(slab_.size());
    slab_.push_back(std::move(op));
  }
  records_.push_back({slot, kind, stream, -1, -1});
  ++live_ops_;
  peak_resident_ = std::max(peak_resident_, live_ops_);

  auto& fifo = streams_[static_cast<std::size_t>(stream)].fifo;
  const bool new_head = fifo.empty();
  fifo.push_back(id);
  // Only a fresh head can change a stream's startability; callers advance
  // the clock right after, which drains the ready worklist.
  if (new_head) mark_pending(stream);
  return id;
}

void Engine::record_event(EventId event, StreamId stream, TimeUs host_time) {
  check_event_id(event, "record_event");
  check_stream_id(stream, "record_event");
  if (txn_open_) txn_last_time_ = std::max(txn_last_time_, host_time);
  EventState& ev = events_[static_cast<std::size_t>(event)];
  ev.recorded = true;
  const auto& fifo = streams_[static_cast<std::size_t>(stream)].fifo;
  if (fifo.empty()) {
    ev.gate = kInvalidOp;
    ev.done_at = host_time;  // nothing pending: completes at record time
  } else {
    ev.gate = fifo.back();
    ev.done_at = kTimeInfinity;  // set when the gate op completes
    live_op(ev.gate).gated_events.push_back(event);
  }
  // Re-recording changes what waiting heads observe: re-examine them.
  wake_event_waiters(ev);
}

void Engine::set_on_complete(OpId op, std::function<void()> fn) {
  const OpRecord& rec = record_of(op, "set_on_complete");
  if (rec.slot < 0) {
    throw ApiError("set_on_complete: op already completed");
  }
  slab_[static_cast<std::size_t>(rec.slot)].on_complete = std::move(fn);
}

Op Engine::make_wait_marker(StreamId stream, EventId event) {
  Op marker;
  marker.kind = OpKind::Marker;
  marker.stream = stream;
  marker.name = "wait_event";
  marker.work = 0;
  marker.waits.push_back(event);
  return marker;
}

void Engine::wait_event(StreamId stream, EventId event, TimeUs host_time) {
  check_event_id(event, "wait_event");
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
  // non-decreasing; every item must reference valid streams/events.
  TimeUs prev = sub.items_.front().host_time;
  for (const Submission::Item& item : sub.items_) {
    if (item.host_time < prev) {
      throw ApiError("ingest: submission host times must be non-decreasing");
    }
    prev = item.host_time;
    switch (item.kind) {
      case Submission::ItemKind::Enqueue:
        check_enqueueable(item.op);
        break;
      case Submission::ItemKind::Record:
        check_event_id(item.event, "ingest/record_event");
        check_stream_id(item.stream, "ingest/record_event");
        break;
      case Submission::ItemKind::Wait:
        check_event_id(item.event, "ingest/wait_event");
        check_stream_id(item.stream, "ingest/wait_event");
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
  return streams_[static_cast<std::size_t>(stream)].fifo.empty();
}

bool Engine::op_done(OpId op) const {
  return record_of(op, "op_done").slot < 0;
}

bool Engine::event_done(EventId event) const {
  if (event < 0 || static_cast<std::size_t>(event) >= events_.size()) {
    throw ApiError("event_done: invalid event");
  }
  const EventState& ev = events_[static_cast<std::size_t>(event)];
  return ev.recorded && ev.done_at <= now_;
}

TimeUs Engine::event_done_time(EventId event) const {
  if (event < 0 || static_cast<std::size_t>(event) >= events_.size()) {
    throw ApiError("event_done_time: invalid event");
  }
  return events_[static_cast<std::size_t>(event)].done_at;
}

Op Engine::op(OpId id) const {
  const OpRecord& rec = record_of(id, "op");
  if (rec.slot >= 0) {
    // Live: snapshot with lazily-accrued fluid progress folded in from the
    // class progress mirror, so `done` reflects now().
    Op snap = slab_[static_cast<std::size_t>(rec.slot)];
    if (snap.state == OpState::Running && snap.class_pos >= 0) {
      const auto cls = static_cast<std::size_t>(class_index(snap));
      const auto pos = static_cast<std::size_t>(snap.class_pos);
      const double remaining = live_remaining(snap);
      snap.done = snap.work - remaining;
      snap.rate = live_rate(snap);
      snap.rate_since = now_;
      if (class_solver_[cls].incremental) {
        snap.pred_end =
            remaining <= kWorkEps * std::max(1.0, snap.work)
                ? now_
                : (snap.rate > 0 ? now_ + remaining / snap.rate
                                 : kTimeInfinity);
      } else {
        snap.pred_end = class_pred_[cls][pos];
      }
    }
    return snap;
  }
  // Retired: reconstruct the compact completion record.
  Op done;
  done.id = id;
  done.kind = rec.kind;
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
  if (class_dirty_[static_cast<std::size_t>(cls)]) return;
  class_dirty_[static_cast<std::size_t>(cls)] = 1;
  dirty_classes_.push_back(cls);
}

void Engine::wake_event_waiters(EventState& ev) {
  for (StreamId s : ev.waiters) mark_pending(s);
  ev.waiters.clear();
}

const Engine::SolverGroup* Engine::group_of(const ClassSolver& sol,
                                            TenantId tenant) const {
  for (const SolverGroup& g : sol.groups) {
    if (g.tenant == tenant) return &g;
  }
  return nullptr;
}

Engine::SolverGroup& Engine::group_of_mut(ClassSolver& sol, TenantId tenant) {
  for (SolverGroup& g : sol.groups) {
    if (g.tenant == tenant) return g;
  }
  sol.groups.emplace_back();
  sol.groups.back().tenant = tenant;
  return sol.groups.back();
}

double Engine::live_remaining(const Op& op) const {
  if (op.state == OpState::Running && op.class_pos >= 0) {
    const auto cls = static_cast<std::size_t>(class_index(op));
    const auto pos = static_cast<std::size_t>(op.class_pos);
    const TimeUs since = class_since_[cls];
    const ClassSolver& sol = class_solver_[cls];
    if (sol.incremental) {
      // rem_enter minus the service accrued since the member entered:
      // w * (V(now) - v_enter), with V projected lazily from the group's
      // last materialized value.
      const SolverGroup* g = group_of(sol, op.tenant);
      if (g == nullptr) return class_remaining_[cls][pos];
      const double v_now = g->v + (now_ > since ? g->c * (now_ - since) : 0.0);
      const double served =
          class_w_[cls][pos] * (v_now - class_venter_[cls][pos]);
      return std::max(0.0, class_remaining_[cls][pos] - served);
    }
    const double r = class_rate_[cls][pos];
    double rem = class_remaining_[cls][pos];
    if (r > 0 && now_ > since) rem = std::max(0.0, rem - r * (now_ - since));
    return rem;
  }
  return op.remaining();
}

double Engine::live_rate(const Op& op) const {
  if (op.state != OpState::Running || op.class_pos < 0) return op.rate;
  const auto cls = static_cast<std::size_t>(class_index(op));
  const auto pos = static_cast<std::size_t>(op.class_pos);
  const ClassSolver& sol = class_solver_[cls];
  if (sol.incremental) {
    const SolverGroup* g = group_of(sol, op.tenant);
    return g == nullptr ? 0.0 : g->c * class_w_[cls][pos];
  }
  return class_rate_[cls][pos];
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

  auto& fifo = streams_[static_cast<std::size_t>(op.stream)].fifo;
  if (!fifo.empty() && fifo.front() == op.id) fifo.pop_front();

  // Leave the running set: swap-and-pop out of the resource class, dirty
  // it, and hand a freed DMA engine to the blocked copies of its direction.
  --running_;
  if (op.class_pos >= 0) {
    const int cls = class_index(op);
    const auto pos = static_cast<std::size_t>(op.class_pos);
    auto& members = class_members_[static_cast<std::size_t>(cls)];
    const std::int32_t last = members.back();
    members[pos] = last;
    slab_[static_cast<std::size_t>(last)].class_pos = op.class_pos;
    members.pop_back();
    // Virtual-service leave: O(1) aggregate decrements; the member's
    // finish-index entry goes stale and is discarded lazily at a front.
    // Empty groups and classes hard-reset to exact zeros so incremental
    // aggregates never accumulate float residue across idle spells.
    ClassSolver& sol = class_solver_[static_cast<std::size_t>(cls)];
    if (sol.incremental) {
      const double w = class_w_[static_cast<std::size_t>(cls)][pos];
      if (op.kind == OpKind::Kernel) {
        sol.fill_sum -= class_fill_[static_cast<std::size_t>(cls)][pos];
        if (w > 0) {
          sol.bww_sum -= class_bw_[static_cast<std::size_t>(cls)][pos] * w;
        } else {
          --sol.zero_w;
        }
      }
      SolverGroup& g = group_of_mut(sol, op.tenant);
      --g.n;
      g.w_sum -= w;
      if (g.n <= 0) {
        g.n = 0;
        g.w_sum = 0;
        g.v = 0;
        g.c = 0;
        g.heap.clear();
      }
      if (members.empty()) sol.reset_aggregates();
    }
    if (op.kind == OpKind::Kernel) {
      // Keep the SoA demand mirror aligned with the member list.
      auto& fill = class_fill_[static_cast<std::size_t>(cls)];
      auto& solo_u = class_solo_u_[static_cast<std::size_t>(cls)];
      auto& bw = class_bw_[static_cast<std::size_t>(cls)];
      fill[pos] = fill.back();
      fill.pop_back();
      solo_u[pos] = solo_u.back();
      solo_u.pop_back();
      bw[pos] = bw.back();
      bw.pop_back();
    }
    auto& rem = class_remaining_[static_cast<std::size_t>(cls)];
    auto& wrk = class_work_[static_cast<std::size_t>(cls)];
    auto& rate = class_rate_[static_cast<std::size_t>(cls)];
    auto& pred = class_pred_[static_cast<std::size_t>(cls)];
    auto& tnt = class_tenant_[static_cast<std::size_t>(cls)];
    rem[pos] = rem.back();
    rem.pop_back();
    wrk[pos] = wrk.back();
    wrk.pop_back();
    rate[pos] = rate.back();
    rate.pop_back();
    pred[pos] = pred.back();
    pred.pop_back();
    tnt[pos] = tnt.back();
    tnt.pop_back();
    auto& wcol = class_w_[static_cast<std::size_t>(cls)];
    auto& vcol = class_venter_[static_cast<std::size_t>(cls)];
    wcol[pos] = wcol.back();
    wcol.pop_back();
    vcol[pos] = vcol.back();
    vcol.pop_back();
    op.class_pos = -1;
    mark_class_dirty(cls);
    if (is_dma_copy(op.kind)) {
      auto& waiters = copy_waiters_[static_cast<std::size_t>(cls)];
      for (StreamId s : waiters) mark_pending(s);
      waiters.clear();
    }
  }

  // Wake the heads gated on this op through `after`.
  if (!after_waiters_.empty()) {
    std::erase_if(after_waiters_, [&](const std::pair<OpId, StreamId>& w) {
      if (w.first != op.id) return false;
      mark_pending(w.second);
      return true;
    });
  }
  // Complete any event gated on this op (reverse index; re-records against
  // a newer gate are skipped by the gate check).
  for (EventId eid : op.gated_events) {
    EventState& ev = events_[static_cast<std::size_t>(eid)];
    if (ev.recorded && ev.gate == op.id && ev.done_at == kTimeInfinity) {
      ev.done_at = now_;
      wake_event_waiters(ev);
    }
  }

  if (op.kind != OpKind::Marker) {
    TimelineEntry e;
    e.op = op.id;
    e.kind = op.kind;
    e.stream = op.stream;
    e.device = op.device;
    e.peer = op.peer;
    e.name = op.name;
    e.start = op.start_time;
    e.end = op.end_time;
    e.bytes = op.bytes;
    e.prof = op.prof;
    timeline_.record(e);
  }

  const StreamId stream = op.stream;
  const bool stream_drained = fifo.empty();
  if (!stream_drained) mark_pending(stream);

  // Retire: move the callback out, release the slab slot (drops the op's
  // strings/vectors/closures — live memory stays bounded by concurrency),
  // then fire the callbacks. `op` must not be touched past this point: the
  // callbacks may re-enter the engine and reuse the slot.
  auto fn = std::move(op.on_complete);
  const std::int32_t slot = rec.slot;
  rec.slot = -1;
  --live_ops_;
  slab_[static_cast<std::size_t>(slot)] = Op{};
  free_slots_.push_back(slot);
  if (fn) fn();
  // After on_complete: the callback may have enqueued fresh work, in which
  // case the observer's idle record is stale — observers revalidate.
  if (stream_drained && !stream_idle_observers_.empty()) {
    // Dispatch against a full snapshot (local: dispatch itself may recur
    // through a re-entrant callback): an observer may (un)register
    // observers, which can reallocate or overwrite the member vector —
    // the snapshot's copied std::functions keep the executing callback
    // alive. An observer removed mid-dispatch is skipped; one added
    // mid-dispatch first sees the next drain.
    const auto snapshot = stream_idle_observers_;
    for (const auto& [token, fn] : snapshot) {
      const bool alive = std::any_of(
          stream_idle_observers_.begin(), stream_idle_observers_.end(),
          [token](const auto& o) { return o.first == token; });
      if (alive) fn(stream);
    }
  }
}

int Engine::add_stream_idle_observer(std::function<void(StreamId)> fn) {
  const int token = next_observer_token_++;
  stream_idle_observers_.emplace_back(token, std::move(fn));
  return token;
}

void Engine::remove_stream_idle_observer(int token) {
  std::erase_if(stream_idle_observers_,
                [token](const auto& o) { return o.first == token; });
}

void Engine::push_start(Op& op, TimeUs at) {
  if (op.heap_seq != 0) ++start_heap_stale_;  // displaced previous entry
  op.heap_seq = next_heap_seq_++;
  start_heap_.push_back({at, op.id, op.heap_seq});
  std::push_heap(start_heap_.begin(), start_heap_.end(), std::greater<>());
  if (start_heap_.size() >= kHeapCompactMin &&
      start_heap_stale_ * 2 > static_cast<long>(start_heap_.size())) {
    compact_start_heap();
  }
}

void Engine::compact_start_heap() {
  std::erase_if(start_heap_, [this](const HeapEntry& e) {
    const OpRecord& rec = records_[static_cast<std::size_t>(e.id - 1)];
    if (rec.slot < 0) return true;  // op retired (slot may be reused)
    return slab_[static_cast<std::size_t>(rec.slot)].heap_seq != e.seq;
  });
  std::make_heap(start_heap_.begin(), start_heap_.end(), std::greater<>());
  start_heap_stale_ = 0;
  ++start_heap_compactions_;
}

void Engine::check_stream_head(StreamId stream) {
  auto& fifo = streams_[static_cast<std::size_t>(stream)].fifo;
  if (fifo.empty()) return;
  const OpId id = fifo.front();
  OpRecord& rec = records_[static_cast<std::size_t>(id - 1)];
  Op& op = slab_[static_cast<std::size_t>(rec.slot)];
  if (op.state != OpState::Queued) return;

  // Earliest possible start among enqueue time and event completions. A
  // head blocked on something with no known time registers on that
  // blocker's waiter list; a head blocked only by the clock goes into the
  // start heap at its known start time.
  TimeUs at = op.enqueue_time;
  for (EventId e : op.waits) {
    EventState& ev = events_[static_cast<std::size_t>(e)];
    if (!ev.recorded || ev.done_at == kTimeInfinity) {
      // Unknown completion time: woken by the gate op or a re-record.
      ev.waiters.push_back(stream);
      return;
    }
    at = std::max(at, ev.done_at);
  }
  for (const OpId dep : op.after) {
    const OpRecord& dep_rec = records_[static_cast<std::size_t>(dep - 1)];
    if (dep_rec.slot >= 0) {
      // Still live: woken when it completes.
      after_waiters_.emplace_back(dep, stream);
      return;
    }
    at = std::max(at, dep_rec.end);
  }
  if (at > now_ + kWorkEps) {
    push_start(op, at);
    // A re-record may move an awaited event earlier than `at`: stay on the
    // waiter lists so the change triggers a fresh examination.
    for (EventId e : op.waits) {
      EventState& ev = events_[static_cast<std::size_t>(e)];
      if (ev.done_at > now_ + kWorkEps) ev.waiters.push_back(stream);
    }
    return;
  }
  // Explicit copies serialize on their DMA engine — one in flight per
  // host-link direction per device, and one per directed peer link —
  // grabbed in issue order as the engine frees up. (Fault-path migrations
  // use the page-fault machinery instead and may proceed concurrently; the
  // resource model de-rates them.)
  if (is_dma_copy(op.kind)) {
    const int cls = class_index(op);
    if (!class_members_[static_cast<std::size_t>(cls)].empty()) {
      copy_waiters_[static_cast<std::size_t>(cls)].push_back(stream);
      return;
    }
  }

  // The head starts now: its pending start-heap entry (if any) is stale.
  if (op.heap_seq != 0) {
    ++start_heap_stale_;
    op.heap_seq = 0;
  }
  op.state = OpState::Running;
  op.start_time = now_;
  op.rate = 0;
  op.rate_since = now_;
  ++running_;
  const int cls = class_index(op);
  if (cls != kClassNone) {
    auto& members = class_members_[static_cast<std::size_t>(cls)];
    op.class_pos = static_cast<std::int32_t>(members.size());
    members.push_back(rec.slot);
    double w = 1.0;  // equal-share classes: unit weight
    if (op.kind == OpKind::Kernel) {
      // Capture the static demand once: the same expressions the solver
      // evaluated per member per re-solve, now evaluated at class join.
      const double fill =
          (op.sm_demand / machine_.device(op.device).sm_count) * op.occupancy;
      const double solo_u = ResourceModel::utilization(fill);
      class_fill_[static_cast<std::size_t>(cls)].push_back(fill);
      class_solo_u_[static_cast<std::size_t>(cls)].push_back(solo_u);
      class_bw_[static_cast<std::size_t>(cls)].push_back(op.bw_need);
      // Service weight: the ratio the proportional kernel split preserves
      // (rate_i = C * fill_i / solo_u_i while no member caps or floors).
      w = solo_u > 0 ? fill / solo_u : 0.0;
    }
    const double rem = op.remaining();
    class_remaining_[static_cast<std::size_t>(cls)].push_back(rem);
    class_work_[static_cast<std::size_t>(cls)].push_back(op.work);
    class_rate_[static_cast<std::size_t>(cls)].push_back(0);
    class_pred_[static_cast<std::size_t>(cls)].push_back(kTimeInfinity);
    class_tenant_[static_cast<std::size_t>(cls)].push_back(op.tenant);
    class_w_[static_cast<std::size_t>(cls)].push_back(w);
    // Virtual-service join: O(log n) — stamp the member's entry service
    // (its group's V projected to now_) and push its static finish tag;
    // aggregates update in O(1). No other member is touched.
    ClassSolver& sol = class_solver_[static_cast<std::size_t>(cls)];
    double venter = 0;
    if (sol.incremental) {
      SolverGroup& g = group_of_mut(sol, op.tenant);
      const TimeUs since = class_since_[static_cast<std::size_t>(cls)];
      venter = g.v + (now_ > since ? g.c * (now_ - since) : 0.0);
      ++g.n;
      g.w_sum += w;
      if (op.kind == OpKind::Kernel) {
        sol.fill_sum += class_fill_[static_cast<std::size_t>(cls)].back();
        if (w > 0) {
          sol.bww_sum += op.bw_need * w;
        } else {
          ++sol.zero_w;  // off the line: the next solve falls back to a scan
        }
      }
      if (w > 0) {
        sol.w_max = std::max(sol.w_max, w);
        sol.w_min = std::min(sol.w_min, w);
        g.heap.push_back({venter + rem / w, op.id});
        std::push_heap(g.heap.begin(), g.heap.end(), std::greater<>());
      }
    }
    class_venter_[static_cast<std::size_t>(cls)].push_back(venter);
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
    class_dirty_[static_cast<std::size_t>(cls)] = 0;
    class_next_[static_cast<std::size_t>(cls)] = kTimeInfinity;
    auto& members = class_members_[static_cast<std::size_t>(cls)];
    if (members.empty()) continue;
    ++solve_count_;
    ++class_solves_[static_cast<std::size_t>(cls)];
    std::chrono::steady_clock::time_point t0;
    if (solve_timing_) t0 = std::chrono::steady_clock::now();

    // Rates come from the class's compact demand data — kernels from the
    // SoA mirror, every transfer class from its member count — and
    // progress folds and pred_end refreshes run over the dense progress
    // mirror: the whole re-solve touches no Op at all.
    const bool kernel_class =
        cls < p2p_base_ && cls % kSlotsPerDevice == kSlotKernel;
    double share = 0;
    if (cls >= p2p_base_) {
      const int rel = cls - p2p_base_;
      const DeviceId src = static_cast<DeviceId>(rel / num_devices());
      const DeviceId dst = static_cast<DeviceId>(rel % num_devices());
      share = machine_.p2p_bytes_per_us(src, dst) /
              static_cast<double>(members.size());
    } else if (!kernel_class) {
      share = models_[static_cast<std::size_t>(cls / kSlotsPerDevice)]
                  .class_share(kSlotKind[cls % kSlotsPerDevice],
                               members.size());
    }

    // Virtual-service fast path: while the class's rate *ratios* are
    // stable, a membership-count rate change is one slope update per
    // group — no member is folded, rated, or even read. Falls back to the
    // full scan below when the linear regime's validity test fails.
    if (class_solver_[static_cast<std::size_t>(cls)].incremental) {
      if (incremental_resolve(cls, kernel_class, share)) {
        long groups = 0;
        for (const SolverGroup& g :
             class_solver_[static_cast<std::size_t>(cls)].groups) {
          if (g.n > 0) ++groups;
        }
        solved_ops_ += std::max<long>(groups, 1);
        if (solve_timing_) {
          const double us = std::chrono::duration<double, std::micro>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
          class_solve_time_[static_cast<std::size_t>(cls)] += us;
          solve_time_us_ += us;
        }
        continue;
      }
      demote_class(cls);
    }

    // Full scan: every member folded and re-rated. Counted separately so
    // the bench can prove scans are rare under churn.
    ++full_scan_count_;
    ++class_full_scans_[static_cast<std::size_t>(cls)];
    solved_ops_ += static_cast<long>(members.size());
    member_touches_ += static_cast<long>(members.size());
    class_member_touches_[static_cast<std::size_t>(cls)] +=
        static_cast<long>(members.size());
    if (kernel_class) {
      models_[static_cast<std::size_t>(cls / kSlotsPerDevice)]
          .solve_kernel_class(class_fill_[static_cast<std::size_t>(cls)],
                              class_solo_u_[static_cast<std::size_t>(cls)],
                              class_bw_[static_cast<std::size_t>(cls)],
                              solve_rates_);
    }
    // Tenancy: a class whose members span several tenants re-shares its
    // aggregate bandwidth weight-proportionally across them. The
    // uniformity scan is O(members), dwarfed by the solve itself, and a
    // uniform tenant column never leaves the unweighted arithmetic.
    const auto& tenants = class_tenant_[static_cast<std::size_t>(cls)];
    const bool multi_tenant =
        std::adjacent_find(tenants.begin(), tenants.end(),
                           std::not_equal_to<>()) != tenants.end();
    if (multi_tenant) apply_tenant_shares(cls, kernel_class, share);
    const bool per_member = kernel_class || multi_tenant;
    auto& rem = class_remaining_[static_cast<std::size_t>(cls)];
    const auto& wrk = class_work_[static_cast<std::size_t>(cls)];
    auto& rate = class_rate_[static_cast<std::size_t>(cls)];
    auto& pred = class_pred_[static_cast<std::size_t>(cls)];
    const TimeUs since = class_since_[static_cast<std::size_t>(cls)];
    const TimeUs dt = now_ - since;
    TimeUs next = kTimeInfinity;
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (dt > 0 && rate[i] > 0) {
        // Progress accrued at the old rate since the last fold.
        rem[i] = std::max(0.0, rem[i] - rate[i] * dt);
      }
      const double r = per_member ? solve_rates_[i] : share;
      rate[i] = r;
      if (rem[i] <= kWorkEps * std::max(1.0, wrk[i])) {
        pred[i] = now_;  // residue below the work epsilon: due now
      } else if (r > 0) {
        pred[i] = now_ + rem[i] / r;
      } else {
        pred[i] = kTimeInfinity;  // the stall watchdog is the net
      }
      next = std::min(next, pred[i]);
    }
    class_since_[static_cast<std::size_t>(cls)] = now_;
    class_next_[static_cast<std::size_t>(cls)] = next;
    // Re-enter the virtual-service regime if this scan's rates sit on the
    // linear model (the scan just folded every remaining to now_, so the
    // finish index rebuilds exactly, rebased to V = 0).
    try_promote_class(cls, kernel_class, share);
    if (solve_timing_) {
      const double us = std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      class_solve_time_[static_cast<std::size_t>(cls)] += us;
      solve_time_us_ += us;
    }
  }
  dirty_classes_.clear();
}

bool Engine::incremental_resolve(int cls, bool kernel_class, double share) {
  ClassSolver& sol = class_solver_[static_cast<std::size_t>(cls)];
  const TimeUs since = class_since_[static_cast<std::size_t>(cls)];
  const TimeUs dt = now_ - since;
  // Advance every group's cumulative service to now_ at the slopes in
  // effect since the last solve, then move the fold timestamp: whether the
  // re-price below succeeds or falls back to a scan, V is materialized at
  // now_ (demote_class relies on this never being applied twice).
  if (dt > 0) {
    for (SolverGroup& g : sol.groups) {
      if (g.c > 0 && g.n > 0) g.v += g.c * dt;
    }
  }
  class_since_[static_cast<std::size_t>(cls)] = now_;
  if (!compute_group_rates(cls, kernel_class, share, sol)) return false;
  // class_next_: one front-peek per group, converted to wall time. Stale
  // entries (completed ops) are discarded as they surface.
  TimeUs next = kTimeInfinity;
  for (SolverGroup& g : sol.groups) {
    if (g.n <= 0) continue;
    while (!g.heap.empty()) {
      const FinishEntry& top = g.heap.front();
      const OpRecord& rec = records_[static_cast<std::size_t>(top.id - 1)];
      const bool live =
          rec.slot >= 0 &&
          slab_[static_cast<std::size_t>(rec.slot)].id == top.id &&
          slab_[static_cast<std::size_t>(rec.slot)].state == OpState::Running;
      if (live) break;
      std::pop_heap(g.heap.begin(), g.heap.end(), std::greater<>());
      g.heap.pop_back();
    }
    if (g.heap.empty() || g.c <= 0) continue;
    // Clamped at now_: a front whose tag V already passed (within the
    // completion tolerance) is due immediately, never in the past.
    const TimeUs wall =
        now_ + std::max(0.0, g.heap.front().f - g.v) / g.c;
    next = std::min(next, wall);
  }
  class_next_[static_cast<std::size_t>(cls)] = next;
  return true;
}

bool Engine::compute_group_rates(int cls, bool kernel_class, double share,
                                 ClassSolver& sol) {
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
  // aggregate over tenants, on group aggregates — budgets from (weight,
  // rate sum C * W_g, absorbable cap n_g * member cap), then
  // c_g = budget / W_g. The spread stays linear only if no member caps:
  // c_g * w_max <= member cap (never binding on an uncapped transfer).
  const double member_cap = member_rate_cap(kernel_class);
  share_weight_.clear();
  share_rate_sum_.clear();
  share_cap_.clear();
  double total_weight = 0;
  double total_rate = 0;
  for (const SolverGroup& g : sol.groups) {
    if (g.n <= 0) continue;
    share_weight_.push_back(tenant_weight(g.tenant));
    share_rate_sum_.push_back(c_all * g.w_sum);
    share_cap_.push_back(static_cast<double>(g.n) * member_cap);
    total_weight += share_weight_.back();
    total_rate += share_rate_sum_.back();
  }
  if (total_weight <= 0 || total_rate <= 0) return false;
  ResourceModel::water_fill_budgets(share_weight_, share_cap_, total_rate,
                                    share_budget_, share_active_);
  std::size_t j = 0;
  for (SolverGroup& g : sol.groups) {
    if (g.n <= 0) continue;
    if (g.w_sum <= 0) return false;
    g.c = share_budget_[j] / g.w_sum;
    if (g.c * sol.w_max > member_cap) return false;  // a member would cap
    ++j;
  }
  return true;
}

void Engine::demote_class(int cls) {
  // Leave the virtual-service regime: materialize every member's remaining
  // work at now_ into the plain mirror (one fold from its entry tag, equal
  // to the telescoped per-solve folds up to rounding). The failed
  // incremental_resolve already advanced every group's V and the fold
  // timestamp to now_, and the full scan that follows folds dt = 0 and
  // re-rates every member, so remainings are all that needs writing.
  ClassSolver& sol = class_solver_[static_cast<std::size_t>(cls)];
  const auto& tenants = class_tenant_[static_cast<std::size_t>(cls)];
  const auto& wcol = class_w_[static_cast<std::size_t>(cls)];
  auto& vcol = class_venter_[static_cast<std::size_t>(cls)];
  auto& rem = class_remaining_[static_cast<std::size_t>(cls)];
  for (std::size_t i = 0; i < rem.size(); ++i) {
    const SolverGroup* g = group_of(sol, tenants[i]);
    const double v_now = g != nullptr ? g->v : 0.0;
    rem[i] = std::max(0.0, rem[i] - wcol[i] * (v_now - vcol[i]));
    vcol[i] = 0;
  }
  sol.incremental = false;
  sol.reset_aggregates();
}

void Engine::try_promote_class(int cls, bool kernel_class, double share) {
  // Called right after a full scan: remainings are folded to now_ and
  // class_rate_ holds the exact full-scan rates. Rebuild the aggregates
  // and groups exactly, derive the linear-model slopes, and only promote
  // if every member's scanned rate equals c_g * w_i — one verification
  // pass that subsumes every cap/floor/saturation/tenancy corner without
  // duplicating the solver's case analysis.
  ClassSolver& sol = class_solver_[static_cast<std::size_t>(cls)];
  sol.incremental = false;
  sol.reset_aggregates();
  const auto& members = class_members_[static_cast<std::size_t>(cls)];
  const auto& tenants = class_tenant_[static_cast<std::size_t>(cls)];
  const auto& wcol = class_w_[static_cast<std::size_t>(cls)];
  const auto& fill = class_fill_[static_cast<std::size_t>(cls)];
  const auto& bw = class_bw_[static_cast<std::size_t>(cls)];
  for (std::size_t i = 0; i < members.size(); ++i) {
    const double w = wcol[i];
    SolverGroup& g = group_of_mut(sol, tenants[i]);
    ++g.n;
    g.w_sum += w;
    if (kernel_class) {
      sol.fill_sum += fill[i];
      if (w > 0) {
        sol.bww_sum += bw[i] * w;
      } else {
        ++sol.zero_w;
      }
    }
    if (w > 0) {
      sol.w_max = std::max(sol.w_max, w);
      sol.w_min = std::min(sol.w_min, w);
    } else if (!kernel_class) {
      return;  // equal-share member without weight: never happens, bail
    }
  }
  if (!compute_group_rates(cls, kernel_class, share, sol)) return;
  // Verification: the scan's rates must sit on the line.
  const auto& rate = class_rate_[static_cast<std::size_t>(cls)];
  for (std::size_t i = 0; i < members.size(); ++i) {
    const SolverGroup* g = group_of(sol, tenants[i]);
    const double want = g->c * wcol[i];
    if (std::abs(want - rate[i]) > 1e-12 * std::max(1.0, std::abs(rate[i]))) {
      return;
    }
  }
  // Promote: rebase service to V = 0 and rebuild each group's finish
  // index from the just-folded remainings.
  auto& vcol = class_venter_[static_cast<std::size_t>(cls)];
  const auto& rem = class_remaining_[static_cast<std::size_t>(cls)];
  for (SolverGroup& g : sol.groups) {
    g.v = 0;
    g.heap.clear();
  }
  for (std::size_t i = 0; i < members.size(); ++i) {
    vcol[i] = 0;
    if (wcol[i] <= 0) continue;
    SolverGroup& g = group_of_mut(sol, tenants[i]);
    g.heap.push_back({rem[i] / wcol[i],
                      slab_[static_cast<std::size_t>(members[i])].id});
  }
  for (SolverGroup& g : sol.groups) {
    std::make_heap(g.heap.begin(), g.heap.end(), std::greater<>());
  }
  sol.incremental = true;
}

void Engine::apply_tenant_shares(int cls, bool kernel_class, double share) {
  const auto& tenants = class_tenant_[static_cast<std::size_t>(cls)];
  const std::size_t n = tenants.size();
  // Equal-share classes materialize their scalar into the rate vector so
  // both class families re-share through the same per-member path; they
  // differ only in the member cap.
  if (!kernel_class) solve_rates_.assign(n, share);
  const double member_cap = member_rate_cap(kernel_class);

  // Distinct-tenant table (linear probe: concurrent tenants are few).
  share_tenant_.clear();
  share_weight_.clear();
  share_rate_sum_.clear();
  share_cap_.clear();
  double total_weight = 0;
  double total_rate = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const TenantId t = tenants[i];
    std::size_t j = 0;
    while (j < share_tenant_.size() && share_tenant_[j] != t) ++j;
    if (j == share_tenant_.size()) {
      share_tenant_.push_back(t);
      share_weight_.push_back(tenant_weight(t));
      share_rate_sum_.push_back(0);
      share_cap_.push_back(0);
      total_weight += share_weight_.back();
    }
    share_rate_sum_[j] += solve_rates_[i];
    share_cap_[j] += member_cap;
    total_rate += solve_rates_[i];
  }
  if (total_weight <= 0 || total_rate <= 0) return;
  const std::size_t nt = share_tenant_.size();

  // Weighted water-fill of the aggregate over tenants, each capped by
  // what its members can absorb. Kernel base rates are <= 1.0, so the
  // aggregate always fits under the caps: the class total is conserved,
  // and a high-weight tenant that saturates at solo speed hands its
  // surplus to the others instead of idling the device. Uncapped
  // transfers get the plain weighted split. The virtual-service path
  // runs the same water-fill over group aggregates (compute_group_rates).
  ResourceModel::water_fill_budgets(share_weight_, share_cap_, total_rate,
                                    share_budget_, share_active_);

  // Intra-tenant: spread each budget over the tenant's members in
  // proportion to their base-solve rates, member rates capped — a
  // bounded water-fill converging in <= n_t passes (a capped member's
  // overflow re-spreads over the rest).
  share_capped_.assign(n, 0);
  for (std::size_t j = 0; j < nt; ++j) {
    const TenantId t = share_tenant_[j];
    double budget = share_budget_[j];
    double unc_sum = share_rate_sum_[j];
    for (;;) {
      if (unc_sum <= 0) break;
      const double f = budget / unc_sum;
      bool any = false;
      for (std::size_t i = 0; i < n; ++i) {
        if (tenants[i] != t || share_capped_[i]) continue;
        if (f * solve_rates_[i] >= member_cap) {
          budget -= member_cap;
          unc_sum -= solve_rates_[i];
          solve_rates_[i] = member_cap;
          share_capped_[i] = 1;
          any = true;
        }
      }
      if (!any) {
        for (std::size_t i = 0; i < n; ++i) {
          if (tenants[i] == t && !share_capped_[i]) solve_rates_[i] *= f;
        }
        break;
      }
    }
  }
}

TimeUs Engine::earliest_completion() const {
  TimeUs best = kTimeInfinity;
  for (const TimeUs t : class_next_) best = std::min(best, t);
  return best;
}

TimeUs Engine::earliest_queued_candidate() {
  while (!start_heap_.empty()) {
    const HeapEntry& e = start_heap_.front();
    const OpRecord& rec = records_[static_cast<std::size_t>(e.id - 1)];
    if (rec.slot >= 0 &&
        slab_[static_cast<std::size_t>(rec.slot)].heap_seq == e.seq) {
      return e.t;
    }
    // Stale: op started, retired, or displaced by a newer entry.
    std::pop_heap(start_heap_.begin(), start_heap_.end(), std::greater<>());
    start_heap_.pop_back();
    --start_heap_stale_;
  }
  return kTimeInfinity;
}

void Engine::release_due_starts() {
  while (!start_heap_.empty() && start_heap_.front().t <= now_ + kWorkEps) {
    const HeapEntry e = start_heap_.front();
    std::pop_heap(start_heap_.begin(), start_heap_.end(), std::greater<>());
    start_heap_.pop_back();
    const OpRecord& rec = records_[static_cast<std::size_t>(e.id - 1)];
    if (rec.slot < 0) {
      --start_heap_stale_;
      continue;
    }
    Op& op = slab_[static_cast<std::size_t>(rec.slot)];
    if (op.heap_seq != e.seq) {
      --start_heap_stale_;
      continue;
    }
    op.heap_seq = 0;  // live entry consumed
    mark_pending(op.stream);
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
    ClassSolver& sol = class_solver_[static_cast<std::size_t>(cls)];
    if (sol.incremental) {
      // Heap-pop the due front of each group's finish index: an entry is
      // due when its service tag falls under the group's V projected to
      // now_ + tol. Only due (or stale) entries are popped — O(due log n)
      // instead of the full-member scan.
      const TimeUs since = class_since_[static_cast<std::size_t>(cls)];
      for (SolverGroup& g : sol.groups) {
        if (g.n <= 0 || g.c <= 0) continue;
        const double v_due = g.v + g.c * (now_ + tol - since);
        while (!g.heap.empty()) {
          const FinishEntry top = g.heap.front();
          const OpRecord& rec =
              records_[static_cast<std::size_t>(top.id - 1)];
          const bool live =
              rec.slot >= 0 &&
              slab_[static_cast<std::size_t>(rec.slot)].id == top.id &&
              slab_[static_cast<std::size_t>(rec.slot)].state ==
                  OpState::Running;
          if (live && top.f > v_due) break;
          std::pop_heap(g.heap.begin(), g.heap.end(), std::greater<>());
          g.heap.pop_back();
          if (live) due.push_back(top.id);
        }
      }
      continue;
    }
    // The due scan runs over the dense predicted-completion mirror; only
    // actually-due members cost an Op touch (for their id).
    const auto& pred = class_pred_[static_cast<std::size_t>(cls)];
    const auto& members = class_members_[static_cast<std::size_t>(cls)];
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (pred[i] <= now_ + tol) {
        due.push_back(slab_[static_cast<std::size_t>(members[i])].id);
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
    if (rec.slot < 0) continue;
    Op& op = slab_[static_cast<std::size_t>(rec.slot)];
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
    if (stream.fifo.empty()) continue;
    const OpRecord& rec =
        records_[static_cast<std::size_t>(stream.fifo.front() - 1)];
    const Op& op = slab_[static_cast<std::size_t>(rec.slot)];
    if (op.state != OpState::Queued) continue;
    msg << " [stream " << op.stream << " op " << op.id << " '" << op.name
        << "' enqueue_t " << op.enqueue_time << " waits " << op.waits.size()
        << "]";
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
    if (stream.fifo.empty()) continue;
    const OpRecord& rec =
        records_[static_cast<std::size_t>(stream.fifo.front() - 1)];
    const Op& op = slab_[static_cast<std::size_t>(rec.slot)];
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
  if (event < 0 || static_cast<std::size_t>(event) >= events_.size()) {
    throw ApiError("run_until_event: invalid event");
  }
  const EventState& ev = events_[static_cast<std::size_t>(event)];
  if (!ev.recorded) {
    throw ApiError("run_until_event: event was never recorded");
  }
  if (ev.gate == kInvalidOp) {
    advance_to(std::max(now_, ev.done_at));
    return ev.done_at;
  }
  return run_until_op_done(ev.gate);
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
  while (!streams_[static_cast<std::size_t>(stream)].fifo.empty()) {
    check_deadlock();
    step(kTimeInfinity);
  }
  return now_;
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
