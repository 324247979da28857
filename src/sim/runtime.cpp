#include "sim/runtime.hpp"

#include <algorithm>
#include <utility>

#include "sim/graph.hpp"
#include "sim/ingest_queue.hpp"
#include "sim/qos.hpp"

namespace psched::sim {

namespace {
/// Accumulate `bytes` against `src` in a small by-source table (kept in
/// ascending device order by the callers' trailing sort). Shared by the
/// page-granular staging and host-read source resolution.
void add_source_bytes(std::vector<std::pair<DeviceId, double>>& acc,
                      DeviceId src, double bytes) {
  auto it = std::find_if(acc.begin(), acc.end(),
                         [src](const auto& p) { return p.first == src; });
  if (it == acc.end()) {
    acc.emplace_back(src, bytes);
  } else {
    it->second += bytes;
  }
}

/// The sources one array's stale runs resolved to.
struct StaleSources {
  bool host = false;
  std::uint32_t peers = 0;  ///< bit d: fresh peer device d
};

/// Page-granular source resolution: add every run of `a` stale on `dev`
/// to `host_bytes` when no device holds it, otherwise to the entry of the
/// lowest-indexed fresh device in `peer_bytes` (unsorted). Shared by
/// launch-time staging and the planner's prefetch steps.
StaleSources add_stale_runs(const ArrayInfo& a, DeviceId dev,
                            double& host_bytes,
                            std::vector<std::pair<DeviceId, double>>& peer_bytes) {
  StaleSources used;
  for (const PageExtent& e : a.extents) {
    if (!a.run_stale_on(e, dev)) continue;
    const auto run = static_cast<double>(a.run_bytes(e.first, e.count));
    if (e.fresh_mask == 0) {
      host_bytes += run;
      used.host = true;
      continue;
    }
    const auto src = static_cast<DeviceId>(std::countr_zero(e.fresh_mask));
    add_source_bytes(peer_bytes, src, run);
    used.peers |= 1u << src;
  }
  return used;
}

/// Scope guard nulling an active recording target: eviction servicing is
/// transient memory-pressure traffic, not part of the program being
/// recorded — a static replay must not re-execute phantom page-outs.
class RecordSuspend {
 public:
  explicit RecordSuspend(Submission*& slot) : slot_(slot), saved_(slot) {
    slot_ = nullptr;
  }
  ~RecordSuspend() { slot_ = saved_; }
  RecordSuspend(const RecordSuspend&) = delete;
  RecordSuspend& operator=(const RecordSuspend&) = delete;

 private:
  Submission*& slot_;
  Submission* saved_;
};
}  // namespace

GpuRuntime::GpuRuntime(DeviceSpec spec)
    : GpuRuntime(Machine::single(std::move(spec))) {}

GpuRuntime::GpuRuntime(Machine machine)
    : GpuRuntime(std::move(machine), MemoryManager::kDefaultPageBytes) {}

GpuRuntime::GpuRuntime(Machine machine, std::size_t page_bytes)
    : engine_(std::move(machine)), memory_(engine_.machine(), page_bytes) {
  // Device 0's host-initiated transfers for the default tenant ride the
  // default stream (the single-GPU, single-app behaviour); peer devices
  // and other tenants get a service stream on demand.
  service_streams_.assign(static_cast<std::size_t>(engine_.num_devices()),
                          {});
  service_streams_[0].push_back(kDefaultStream);
  prefetch_streams_.assign(static_cast<std::size_t>(engine_.num_devices()),
                           {});
  writeback_streams_.assign(static_cast<std::size_t>(engine_.num_devices()),
                            {});
  frames_event_.assign(static_cast<std::size_t>(engine_.num_devices()),
                       kInvalidEvent);
}

GpuRuntime::~GpuRuntime() = default;

void GpuRuntime::attach_ingest(IngestService* svc) {
  const auto gate = api_guard();
  if (ingest_.load(std::memory_order_relaxed) != nullptr) {
    throw ApiError("attach_ingest: an ingest service is already attached");
  }
  ingest_.store(svc, std::memory_order_release);
}

void GpuRuntime::detach_ingest(IngestService* svc) {
  const auto gate = api_guard();
  if (ingest_.load(std::memory_order_relaxed) == svc) {
    ingest_.store(nullptr, std::memory_order_release);
  }
}

void GpuRuntime::attach_qos(QosManager* qos) {
  const auto gate = api_guard();
  if (qos_.load(std::memory_order_relaxed) != nullptr) {
    throw ApiError("attach_qos: a QoS manager is already attached");
  }
  qos_.store(qos, std::memory_order_release);
}

void GpuRuntime::detach_qos(QosManager* qos) {
  const auto gate = api_guard();
  if (qos_.load(std::memory_order_relaxed) == qos) {
    qos_.store(nullptr, std::memory_order_release);
  }
}

void GpuRuntime::admit(const char* call) {
  // Admission control before any state changes: a rejected call throws
  // AdmissionError and leaves the host clock, batch and engine untouched,
  // so the caller can back off and retry once the backlog drains.
  QosManager* q = qos_.load(std::memory_order_acquire);
  if (q == nullptr) return;
  // A drained ingest item was admitted once, when it was queued.
  const IngestService* svc = ingest_.load(std::memory_order_acquire);
  if (svc != nullptr && svc->on_ingest_thread()) return;
  q->check_admission(active_tenant(), 0, call);
}

void GpuRuntime::flush_ingest(TenantId tenant) {
  IngestService* svc = ingest_.load(std::memory_order_acquire);
  if (svc != nullptr) svc->flush_and_wait(tenant);
}

void GpuRuntime::ingest_flush() { flush_ingest(active_tenant()); }

StreamId GpuRuntime::tenant_stream(std::vector<std::vector<StreamId>>& table,
                                   DeviceId device) {
  auto& per_device = table[static_cast<std::size_t>(device)];
  const TenantId tenant = active_tenant();
  const auto t = static_cast<std::size_t>(tenant);
  if (per_device.size() <= t) per_device.resize(t + 1, kInvalidStream);
  StreamId& s = per_device[t];
  if (s == kInvalidStream) s = engine_.create_stream(device, tenant);
  return s;
}

void GpuRuntime::note_api_call() {
  host_now_ += batch_open_ ? kBatchedCallCpuOverheadUs : kLaunchCpuOverheadUs;
  // Inside a batch the engine deliberately lags the host clock: it catches
  // up in one transaction at commit/flush time.
  settle();
}

std::size_t GpuRuntime::flush_submission() {
  if (!engine_.in_transaction()) return 0;
  const std::size_t n = engine_.commit_transaction();
  batched_ops_ += static_cast<long>(n);
  ++batch_commits_;
  return n;
}

void GpuRuntime::observe() {
  flush_submission();
  engine_.advance_to(host_now_);
}

void GpuRuntime::join_batch() {
  if (batch_open_ && !engine_.in_transaction()) {
    engine_.begin_transaction(host_now_);
  }
}

void GpuRuntime::settle() {
  if (!batch_open_) engine_.advance_to(host_now_);
}

OpId GpuRuntime::issue_op(Op op, Submission::BindFn bind) {
  join_batch();
  // Tee into an active recording before the op is consumed: the recorded
  // list replays the exact same (op, bind) pairs.
  if (record_ != nullptr) record_->enqueue(op, host_now_, bind);
  const OpId id = engine_.enqueue(std::move(op), host_now_);
  if (bind) bind(engine_, id);
  return id;
}

void GpuRuntime::issue_record(EventId event, StreamId stream) {
  join_batch();
  if (record_ != nullptr) record_->record_event(event, stream, host_now_);
  engine_.record_event(event, stream, host_now_);
}

void GpuRuntime::issue_wait(StreamId stream, EventId event) {
  join_batch();
  if (record_ != nullptr) record_->wait_event(stream, event, host_now_);
  engine_.wait_event(stream, event, host_now_);
}

std::uint32_t GpuRuntime::new_record(IssueRecord::Kind kind, DeviceId device) {
  std::uint32_t slot;
  if (!free_records_.empty()) {
    slot = free_records_.back();
    free_records_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(records_.size());
    records_.emplace_back();
  }
  IssueRecord& r = records_[slot];
  r.kind = kind;
  r.device = device;
  r.arrays.clear();
  r.functional = nullptr;
  r.users = 0;
  // A recording keeps the bind, and each replay re-binds the record.
  r.pinned = record_ != nullptr;
  return slot;
}

Submission::BindFn GpuRuntime::record_bind(std::uint32_t slot) {
  return [this, slot](Engine& eng, OpId op) { bind_record(slot, eng, op); };
}

void GpuRuntime::bind_record(std::uint32_t slot, Engine& eng, OpId op) {
  IssueRecord& r = records_[slot];
  for (const ArrayUse& u : r.arrays) {
    if (r.kind == IssueRecord::Kind::Kernel) {
      ArrayInfo& a = memory_.info(u.id);
      (u.write ? a.pending_writes : a.pending_reads).insert(op);
      // The kernel materializes the array on its device, which now owns
      // the only current copy of every page; host and peer copies are
      // stale.
      if (u.write) a.note_kernel_write(r.device);
    } else if (ArrayInfo* a = memory_.find(u.id)) {
      // Fetches and write-backs read their source copy.
      a->pending_reads.insert(op);
      // Freshness is issue-time state (later staging decisions branch on
      // it); living in the bind, a recorded replay re-publishes the copy
      // exactly like the original issue did.
      if (r.kind == IssueRecord::Kind::Fetch) a->note_migrated(r.device);
    }
  }
  if (r.kind == IssueRecord::Kind::Writeback) evict_inflight_.insert(op);
  ++r.users;
  std::uint32_t bound;
  if (!free_bound_.empty()) {
    bound = free_bound_.back();
    free_bound_.pop_back();
  } else {
    bound = static_cast<std::uint32_t>(bound_.size());
    bound_.emplace_back();
  }
  bound_[bound] = {slot, op};
  eng.set_on_complete(op, [this, bound]() { complete_bound(bound); });
}

void GpuRuntime::complete_bound(std::uint32_t bound) {
  const auto [slot, op] = bound_[bound];
  free_bound_.push_back(bound);
  IssueRecord& r = records_[slot];
  for (const ArrayUse& u : r.arrays) {
    if (ArrayInfo* a = memory_.find(u.id)) a->erase_pending(op);
  }
  if (r.kind == IssueRecord::Kind::Writeback) evict_inflight_.erase(op);
  // Release the slot before running host code, which may issue more work
  // (and grow the table); a pinned record keeps its closure for replays.
  const bool last = --r.users == 0 && !r.pinned;
  std::function<void()> fn = last ? std::move(r.functional) : r.functional;
  if (last) free_records_.push_back(slot);
  if (fn) fn();
}

void GpuRuntime::begin_record(Submission& sub) {
  const auto gate = api_guard();
  if (capture_ != nullptr) throw ApiError("begin_record: capture active");
  if (record_ != nullptr) throw ApiError("begin_record: already recording");
  if (!batch_open_) {
    begin_submit();
    record_owns_batch_ = true;
  }
  record_ = &sub;
}

std::size_t GpuRuntime::end_record() {
  const auto gate = api_guard();
  if (record_ == nullptr) throw ApiError("end_record: not recording");
  record_ = nullptr;
  if (record_owns_batch_) {
    record_owns_batch_ = false;
    return commit();
  }
  return 0;
}

std::size_t GpuRuntime::replay(const Submission& sub) {
  const auto gate = api_guard();
  if (capture_ != nullptr) throw ApiError("replay: capture active");
  if (record_ != nullptr) throw ApiError("replay: recording active");
  admit("replay");
  // One driver call relaunches the whole recorded list.
  host_now_ += kLaunchCpuOverheadUs;
  replay_admit(sub);
  // In a batch, join it instead of force-flushing: the recorded items
  // ingest into the open transaction and start at the batch's commit,
  // exactly like a Batched graph launch joining the batch, and the flush
  // at the next observation point accounts the ops. Outside one, the
  // list brackets itself as its own transaction.
  join_batch();
  const std::size_t n = engine_.ingest(sub);
  if (!batch_open_) {
    batched_ops_ += static_cast<long>(n);
    ++batch_commits_;
  }
  settle();
  return n;
}

void GpuRuntime::replay_admit(const Submission& sub) {
  ResidencyPlanner& planner = memory_.planner();
  const std::vector<FrontierEntry>& ws = sub.working_sets();
  if (ws.empty()) return;
  // The recorded list is its own ready frontier (unless a wider one — a
  // drained ingest batch spanning several replays — is already active).
  const bool own_frontier = !planner.active();
  if (own_frontier) planner.announce(ws);
  const RecordSuspend no_tee(record_);
  for (const FrontierEntry& fe : ws) {
    // The entry's outstanding charge, deduped (freed ids cannot appear:
    // replay requires the recorded arrays alive).
    std::size_t needed = 0;
    for (std::size_t i = 0; i < fe.arrays.size(); ++i) {
      if (std::find(fe.arrays.begin(),
                    fe.arrays.begin() + static_cast<std::ptrdiff_t>(i),
                    fe.arrays[i]) !=
          fe.arrays.begin() + static_cast<std::ptrdiff_t>(i)) {
        continue;
      }
      const ArrayInfo& a = memory_.info(fe.arrays[i]);
      needed += a.bytes - a.resident_bytes_on(fe.device);
    }
    // Same pressure gate as prefetch planning: a never-evicted device
    // that fits the entry is left exactly as the historical replay left
    // it — not even recency stamps move, so under-capacity replay
    // schedules (and any later eviction order) stay bit-identical.
    const std::size_t used = memory_.device_used_bytes(fe.device);
    const std::size_t cap = memory_.device_capacity(fe.device);
    if (memory_.device_evictions(fe.device) == 0 && used + needed <= cap) {
      planner.on_admitted(fe.arrays, fe.device);
      continue;
    }
    // Re-admit the working set (future-scored victims, one plan) and
    // price the page-outs on the service stream, where they overlap the
    // replayed ops in the D2H class. The recorded fault ops re-transfer
    // the data themselves — replay stays static, no prefetch is issued —
    // so this closes the accounting gap where replays touched pages the
    // manager no longer charged anywhere.
    price_eviction(charge_or_stall(fe.arrays, fe.device),
                   service_stream(fe.device));
    planner.on_admitted(fe.arrays, fe.device);
  }
  if (own_frontier) planner.clear();
}

void GpuRuntime::begin_submit() {
  const auto gate = api_guard();
  if (capture_ != nullptr) {
    throw ApiError("begin_submit: stream capture active");
  }
  if (batch_open_) throw ApiError("begin_submit: batch already open");
  batch_open_ = true;
}

std::size_t GpuRuntime::commit() {
  const auto gate = api_guard();
  if (!batch_open_) throw ApiError("commit: no open batch");
  const std::size_t n = flush_submission();
  batch_open_ = false;
  engine_.advance_to(host_now_);
  return n;
}

void GpuRuntime::host_advance(TimeUs dt) {
  if (dt < 0) throw ApiError("host_advance: negative time");
  const auto gate = api_guard();
  host_now_ += dt;
  settle();
}

void GpuRuntime::charge_host(TimeUs dt) {
  if (dt < 0) throw ApiError("charge_host: negative time");
  const auto gate = api_guard();
  host_now_ += dt;
}

void GpuRuntime::poll() {
  ingest_flush();
  const auto gate = api_guard();
  observe();
}

StreamId GpuRuntime::create_stream() {
  return create_stream(kDefaultDevice);
}

StreamId GpuRuntime::create_stream(DeviceId device) {
  const auto gate = api_guard();
  // Streams belong to the ambient tenant: ops enqueued on them inherit it
  // inside the engine, so tenant tagging rides transactions and recorded
  // replays for free.
  return engine_.create_stream(device, active_tenant());
}

EventId GpuRuntime::create_event() {
  const auto gate = api_guard();
  return engine_.create_event();
}

void GpuRuntime::record_event(EventId event, StreamId stream) {
  const auto gate = api_guard();
  if (capture_ != nullptr) {
    capture_->on_captured_record_event(event, stream);
    return;
  }
  note_api_call();
  issue_record(event, stream);
}

void GpuRuntime::stream_wait_event(StreamId stream, EventId event) {
  const auto gate = api_guard();
  if (capture_ != nullptr) {
    capture_->on_captured_wait_event(stream, event);
    return;
  }
  note_api_call();
  issue_wait(stream, event);
}

bool GpuRuntime::stream_idle(StreamId stream) {
  ingest_flush();
  const auto gate = api_guard();
  observe();
  return engine_.stream_idle(stream);
}

void GpuRuntime::synchronize_stream(StreamId stream) {
  ingest_flush();
  const auto gate = api_guard();
  observe();
  const TimeUs t = engine_.run_until_stream_idle(stream);
  host_now_ = std::max(host_now_, t);
}

void GpuRuntime::synchronize_event(EventId event) {
  ingest_flush();
  const auto gate = api_guard();
  observe();
  const TimeUs t = engine_.run_until_event(event);
  host_now_ = std::max(host_now_, t);
}

void GpuRuntime::synchronize_device() {
  ingest_flush();
  const auto gate = api_guard();
  observe();
  const TimeUs t = engine_.run_all();
  host_now_ = std::max(host_now_, t);
}

bool GpuRuntime::event_done(EventId event) {
  ingest_flush();
  const auto gate = api_guard();
  observe();
  return engine_.event_done(event);
}

ArrayId GpuRuntime::alloc(std::size_t bytes, const std::string& name) {
  const auto gate = api_guard();
  return memory_.alloc(bytes, name, active_tenant());
}

void GpuRuntime::free_array(ArrayId id) {
  ingest_flush();
  const auto gate = api_guard();
  observe();
  // Runtime-initiated page-outs of this array may still be in flight —
  // traffic the caller never issued and cannot have synchronized. Drain
  // those (a blocking stall, like the fault path); user ops still pending
  // keep raising the missing-synchronization error below.
  ArrayInfo& a = memory_.info(id);
  for (;;) {
    OpId pending_evict = kInvalidOp;
    for (const OpId op : a.pending_reads) {
      if (evict_inflight_.count(op) != 0) {
        pending_evict = op;
        break;
      }
    }
    if (pending_evict == kInvalidOp) break;
    const TimeUs t = engine_.run_until_op_done(pending_evict);
    host_now_ = std::max(host_now_, t);
  }
  memory_.free_array(id);
}

void GpuRuntime::issue_writeback(StreamId stream, std::string name,
                                 double bytes,
                                 std::span<const ArrayId> victims,
                                 std::span<const EventId> waits,
                                 std::vector<OpId> after) {
  // A write-back is a real D2H transfer on the caller's stream (the
  // device's service stream at admission, its write-back stream for
  // planner page-outs): it rides the (device, CopyD2H) DMA class and
  // contends with foreground copies for the link.
  Op op;
  op.kind = OpKind::CopyD2H;
  op.stream = stream;
  op.name = std::move(name);
  op.bytes = bytes;
  op.work = op.bytes;
  op.after = std::move(after);
  for (const EventId ev : waits) engine_.wait_on_event(op, ev);
  // The page-out reads the device copies: register it like any other
  // in-flight read so hazard checks, eviction eligibility, and free all
  // see it (free_array drains runtime-initiated page-outs).
  const std::uint32_t rec =
      new_record(IssueRecord::Kind::Writeback, kInvalidDevice);
  for (const ArrayId aid : victims) records_[rec].arrays.push_back({aid});
  issue_op(std::move(op), record_bind(rec));
  ++evict_ops_;
  bytes_d2h_ += bytes;
}

void GpuRuntime::issue_fetch(StreamId stream, OpKind kind, DeviceId src,
                             const std::string& tag, double bytes,
                             bool prefetch, Submission::BindFn bind,
                             std::span<const EventId> waits) {
  Op op;
  op.stream = stream;
  for (const EventId ev : waits) engine_.wait_on_event(op, ev);
  op.kind = kind;
  op.peer = src;
  op.name = (prefetch                  ? "prefetch:"
             : kind == OpKind::Fault   ? "fault:"
             : kind == OpKind::CopyP2P ? "p2p:"
                                       : "h2d:") +
            tag;
  op.bytes = bytes;
  op.work = op.bytes;
  issue_op(std::move(op), std::move(bind));
  if (kind == OpKind::Fault) {
    bytes_faulted_ += bytes;
    ++fault_ops_;
  } else if (kind == OpKind::CopyP2P) {
    bytes_p2p_ += bytes;
  } else {
    bytes_h2d_ += bytes;
  }
  if (prefetch) {
    ++prefetch_ops_;
    prefetch_bytes_ += bytes;
  }
}

EventId GpuRuntime::price_eviction(const EvictionPlan& plan,
                                   StreamId stream) {
  bool any = false;
  for (const PageOut& po : plan.page_outs) {
    if (!po.writeback) continue;  // dropped pages move nothing
    const ArrayInfo& victim = memory_.info(po.array);
    // A prior write-back of this array (another device's plan) may still
    // be in flight; its host copy must land before this one overwrites
    // the slot, so chain the new page-out behind it.
    if (event_pending(victim.host_ready_event)) {
      issue_wait(stream, victim.host_ready_event);
    }
    issue_writeback(stream, "evict:" + victim.name,
                    static_cast<double>(po.bytes), {&po.array, 1}, {}, {});
    any = true;
  }
  if (!any) return kInvalidEvent;
  const EventId ev = engine_.create_event();
  issue_record(ev, stream);
  // The victims' host copies materialize only when the page-outs drain:
  // a later re-fault of the evicted pages (or a host access) must order
  // behind this event, not just the faulting stream.
  for (const PageOut& po : plan.page_outs) {
    if (po.writeback) {
      if (ArrayInfo* a = memory_.find(po.array)) a->host_ready_event = ev;
    }
  }
  return ev;
}

EvictionPlan GpuRuntime::charge_or_stall(std::span<const ArrayId> ids,
                                         DeviceId device) {
  try {
    return memory_.charge_residency(ids, device, active_tenant());
  } catch (const OutOfMemoryError&) {
    // Arrays of in-flight ops are not evictable, so a burst of async
    // launches can pin more than the device holds. A real UM fault stalls
    // until frames free; model the stall by draining the device and
    // retrying — the retry throws only when this op's own working set
    // exceeds the device.
    if (engine_.all_idle() && !engine_.in_transaction()) throw;
    flush_submission();
    const TimeUs t = engine_.run_all();
    host_now_ = std::max(host_now_, t);
    return memory_.charge_residency(ids, device, active_tenant());
  }
}

void GpuRuntime::admit_working_set(std::span<const ArrayId> ids,
                                   DeviceId device, StreamId stream) {
  const std::size_t used_before = memory_.device_used_bytes(device);
  const EvictionPlan plan = charge_or_stall(ids, device);
  // Keep fault servicing out of any active recording: at replay nothing
  // is admitted, so neither the page-outs nor the gate belong in the
  // static op list.
  const RecordSuspend no_tee(record_);
  // Frames planner page-outs freed are reusable only once they land: an
  // admission charging new pages waits for the latest of them.
  EventId& frames = frames_event_[static_cast<std::size_t>(device)];
  if (event_pending(frames) &&
      memory_.device_used_bytes(device) + plan.bytes_freed > used_before) {
    issue_wait(stream, frames);
  }
  // Under a frontier an admission takes whole victim runs and may free
  // more than it needs, so its page-outs join the planner's in-order
  // write-back stream and become the frames event later charges wait on.
  const bool planned = memory_.planner().active();
  const EventId ev = price_eviction(
      plan, planned ? writeback_stream(device) : service_stream(device));
  // The incoming pages physically land only after the page-outs free their
  // frames: the faulting stream's migrations/kernel wait for the last
  // write-back. Under-capacity admissions take neither branch and leave
  // the op sequence untouched.
  if (ev != kInvalidEvent) {
    issue_wait(stream, ev);
    if (planned) frames = ev;
  }
}

void GpuRuntime::stage_to_device(ArrayId id, StreamId stream,
                                 OpKind host_kind) {
  ArrayInfo& a = memory_.info(id);
  const DeviceId dev = engine_.stream_device(stream);
  if (!a.needs_transfer_to(dev)) {
    // Fresh on this device, but a migration issued by another stream may
    // still be in flight: order behind it. (Inside a batch the engine may
    // lag the host clock, so the done-check is conservative — a redundant
    // wait on an already-complete event never delays the head.)
    const EventId ev = a.ready_event_on(dev);
    if (event_pending(ev)) issue_wait(stream, ev);
    return;
  }
  // A fully-stale array folds into a single whole-array op; a
  // partial-fresh array (pages evicted earlier) fetches only the stale
  // runs, one op per distinct source.
  double host_bytes = 0;
  std::vector<std::pair<DeviceId, double>>& peer_bytes = source_bytes_;
  peer_bytes.clear();
  add_stale_runs(a, dev, host_bytes, peer_bytes);
  std::sort(peer_bytes.begin(), peer_bytes.end());

  // One fetch record, shared by the host fetch and every peer fetch.
  const std::uint32_t rec = new_record(IssueRecord::Kind::Fetch, dev);
  records_[rec].arrays.push_back({id});
  const Submission::BindFn bind = record_bind(rec);
  if (host_bytes > 0) {
    // The host copy may still be materializing from an in-flight eviction
    // write-back: order the re-fault behind it.
    if (event_pending(a.host_ready_event)) {
      issue_wait(stream, a.host_ready_event);
    }
    issue_fetch(stream, host_kind, kInvalidDevice, a.name, host_bytes,
                /*prefetch=*/false, bind);
  }
  for (const auto& [src, bytes] : peer_bytes) {
    // The source copy may itself still be migrating: order behind it.
    const EventId src_ev = a.ready_event_on(src);
    if (event_pending(src_ev)) issue_wait(stream, src_ev);
    issue_fetch(stream, OpKind::CopyP2P, src, a.name, bytes,
                /*prefetch=*/false, bind);
  }

  EventId ev = engine_.create_event();
  issue_record(ev, stream);
  a.set_ready_event(dev, ev);
}

void GpuRuntime::copy_to_device_async(ArrayId id, StreamId stream,
                                      bool explicit_copy) {
  const auto gate = api_guard();
  if (capture_ != nullptr) {
    // Captured graphs keep explicit copies as nodes and drop prefetches.
    if (explicit_copy) {
      capture_->on_captured_h2d(stream, id, memory_.info(id).name);
    } else {
      capture_->on_captured_prefetch(stream, id);
    }
    return;
  }
  note_api_call();
  ArrayInfo& a = memory_.info(id);
  const DeviceId dev = engine_.stream_device(stream);
  const ArrayId ids[] = {id};
  // Copies are frontier entries too (graph CopyH2D nodes announce them):
  // advance past a matching head even when nothing needs to move, so a
  // fully-resident prefetch never stalls the planner's position.
  if (memory_.planner().active()) {
    memory_.consume_prefetched(a, dev);
    memory_.planner().on_admitted(ids, dev);
  }
  if (!a.needs_transfer_to(dev)) return;
  admit_working_set(ids, dev, stream);
  stage_to_device(id, stream, OpKind::CopyH2D);
}

void GpuRuntime::advise_pin(ArrayId id, DeviceId device) {
  const auto gate = api_guard();
  memory_.set_pinned(memory_.info(id), device, true);
}

void GpuRuntime::advise_unpin(ArrayId id, DeviceId device) {
  const auto gate = api_guard();
  memory_.set_pinned(memory_.info(id), device, false);
}

std::size_t GpuRuntime::advise_evict(ArrayId id, DeviceId device) {
  const auto gate = api_guard();
  note_api_call();
  const EvictionPlan plan = memory_.evict(memory_.info(id), device);
  const RecordSuspend no_tee(record_);  // pressure traffic is not program
  // Write-backs drain asynchronously on the device's service stream.
  price_eviction(plan, service_stream(device));
  return plan.bytes_freed;
}

void GpuRuntime::note_host_access(ArrayId id, bool for_write) {
  observe();
  ArrayInfo& a = memory_.info(id);
  // An eviction write-back of this array may still be in flight: the host
  // copy it advertises is not readable (or safely overwritable) until the
  // page-out lands. Block like a page fault would.
  if (event_pending(a.host_ready_event)) {
    const TimeUs t = engine_.run_until_event(a.host_ready_event);
    host_now_ = std::max(host_now_, t);
  }
  // A host read may proceed concurrently with device *reads* on page-fault
  // architectures; pre-Pascal GPUs forbid any CPU access to managed arrays
  // the device is using. A host write conflicts with everything.
  const bool conflict =
      for_write ? a.has_pending()
                : (!a.pending_writes.empty() ||
                   (!engine_.spec().page_fault_um && a.has_pending()));
  if (conflict) {
    ++hazards_;
    if (strict_hazards_) {
      throw ApiError("host access hazard: array '" + a.name +
                     "' has pending device operations "
                     "(missing synchronization)");
    }
    // Non-strict: block until the conflicting ops drain to preserve
    // functional correctness.
    auto drain = [this](OpIdSet& setref) {
      while (!setref.empty()) {
        const OpId pending = *setref.begin();
        const TimeUs t = engine_.run_until_op_done(pending);
        host_now_ = std::max(host_now_, t);
      }
    };
    drain(a.pending_writes);
    if (for_write || !engine_.spec().page_fault_um) drain(a.pending_reads);
  }
}

void GpuRuntime::host_read(ArrayId id) {
  ingest_flush();
  const auto gate = api_guard();
  note_host_access(id, /*for_write=*/false);
  ArrayInfo& a = memory_.info(id);
  if (std::all_of(a.extents.begin(), a.extents.end(),
                  [](const PageExtent& e) { return e.host_fresh; })) {
    return;  // the host copy of every page is current
  }
  // Migrate the runs the host lacks back over PCIe; blocks the host. Each
  // run's source is the lowest-indexed device holding its newest copy
  // (device 0 rides the default stream, preserving the single-GPU
  // schedule); a uniform array folds into one whole-array D2H as before.
  std::vector<std::pair<DeviceId, double>>& src_bytes = source_bytes_;
  src_bytes.clear();
  for (const PageExtent& e : a.extents) {
    if (e.host_fresh) continue;
    const DeviceId src = e.fresh_mask != 0
                             ? static_cast<DeviceId>(
                                   std::countr_zero(e.fresh_mask))
                             : kDefaultDevice;
    add_source_bytes(src_bytes, src,
                     static_cast<double>(a.run_bytes(e.first, e.count)));
  }
  std::sort(src_bytes.begin(), src_bytes.end());
  for (const auto& [src, bytes] : src_bytes) {
    Op op;
    op.kind = OpKind::CopyD2H;
    op.stream = service_stream(src);
    op.name = "d2h:" + a.name;
    op.bytes = bytes;
    op.work = op.bytes;
    const OpId op_id = engine_.enqueue(std::move(op), host_now_);
    const TimeUs t = engine_.run_until_op_done(op_id);
    host_now_ = std::max(host_now_, t);
    bytes_d2h_ += bytes;
  }
  a.note_host_read_done();
}

void GpuRuntime::host_write(ArrayId id) {
  ingest_flush();
  const auto gate = api_guard();
  note_host_access(id, /*for_write=*/true);
  ArrayInfo& a = memory_.info(id);
  a.note_host_write();
}

OpId GpuRuntime::launch(StreamId stream, const LaunchSpec& spec,
                        KernelDemand* demand) {
  const auto gate = api_guard();
  if (capture_ != nullptr) {
    if (demand != nullptr) {
      *demand = engine_.model(engine_.stream_device(stream))
                    .kernel_demand(spec.config, spec.profile);
    }
    capture_->on_captured_launch(stream, spec);
    return kInvalidOp;
  }
  admit("launch");
  note_api_call();
  const DeviceId dev = engine_.stream_device(stream);

  // Admit the whole working set — staged inputs and never-touched outputs
  // alike, which materialize at first kernel touch — with at most ONE
  // eviction plan per launch (fault servicing is batched per committed op,
  // not per page descriptor). The plan never victimizes the launch's own
  // arrays; its write-backs are priced before any of the launch's ops.
  admit_scratch_.clear();
  for (const ArrayUse& use : spec.arrays) admit_scratch_.push_back(use.id);
  // Annotate the recording with this launch's working set: replays hand
  // the annotations to the residency planner as their ready frontier.
  if (record_ != nullptr) record_->note_working_set(dev, admit_scratch_);
  ResidencyPlanner& planner = memory_.planner();
  // Look ahead BEFORE admission, so a serve batch can cover this very
  // launch when the runway ran dry (its pages arrive over the prefetch
  // stream and admission below finds them charged); otherwise the pass
  // tops the runway up for launches further ahead. No-op without an
  // active frontier or under capacity (the planner's screens).
  if (planner.active()) run_prefetch_pass();
  admit_working_set(admit_scratch_, dev, stream);
  if (planner.active()) {
    // The prefetched bytes (if any) are consumed; advance the frontier
    // past this launch so next-use scoring tracks the real schedule.
    for (const ArrayUse& use : spec.arrays) {
      memory_.consume_prefetched(memory_.info(use.id), dev);
    }
    planner.on_admitted(admit_scratch_, dev);
  }

  // Stage migrations for argument arrays the launch device lacks. A stale
  // host-side array moves over the fault path on Pascal+ (or ahead of
  // execution on pre-Pascal, no fault mechanism); an array fresh on a peer
  // GPU moves over the peer link regardless of architecture.
  const OpKind migration_kind =
      engine_.spec(dev).page_fault_um ? OpKind::Fault : OpKind::CopyH2D;
  for (const ArrayUse& use : spec.arrays) {
    stage_to_device(use.id, stream, migration_kind);
  }

  const KernelDemand kd =
      engine_.model(dev).kernel_demand(spec.config, spec.profile);
  if (demand != nullptr) *demand = kd;

  Op op;
  op.kind = OpKind::Kernel;
  op.stream = stream;
  op.name = spec.name;
  op.prof = spec.profile;
  op.sm_demand = kd.sm_demand;
  op.occupancy = kd.occupancy;
  op.bw_need = kd.bw_need;
  op.work = kd.solo_us;

  // Per-op tracking (hazard sets, completion bookkeeping, the functional
  // closure) binds once the id is assigned at commit — before the op can
  // start — in both the per-call and the batched mode. The kernel-write
  // residency transition lives in the bind too: it is issue-time state
  // (the next call's staging decisions must see it even while a batch is
  // open), and a recorded replay re-runs binds, so replayed write-kernels
  // re-invalidate host/peer copies exactly like the original issue did.
  // Both act on the launch's issue record, which outlives every op bound
  // to it (a recording pins it for its replays).
  const std::uint32_t rec = new_record(IssueRecord::Kind::Kernel, dev);
  records_[rec].arrays.assign(spec.arrays.begin(), spec.arrays.end());
  records_[rec].functional = spec.functional;
  const OpId op_id = issue_op(std::move(op), record_bind(rec));

  for (const ArrayUse& use : spec.arrays) {
    if (!use.write) continue;
    ArrayInfo& a = memory_.info(use.id);
    if (engine_.num_devices() > 1) {
      // Peer transfers sourced from this copy must not start before the
      // kernel produces it: publish the write as the device's ready
      // event (stage_to_device orders the CopyP2P behind it).
      const EventId ev = engine_.create_event();
      issue_record(ev, stream);
      a.set_ready_event(dev, ev);
    }
  }
  return op_id;
}

void GpuRuntime::run_prefetch_pass() {
  const std::vector<PrefetchStep> steps =
      memory_.planner().plan_prefetch(active_tenant());
  if (steps.empty()) return;
  // Prefetch traffic is transient pressure management, never part of a
  // recorded program (a static replay must not re-run phantom transfers).
  const RecordSuspend no_tee(record_);
  for (const PrefetchStep& step : steps) issue_prefetch_step(step);
}

void GpuRuntime::add_user_gates(const ArrayInfo& a, StreamId fetch_stream,
                                std::vector<std::pair<StreamId, OpId>>& gates) {
  OpId last = kInvalidOp;
  for (const OpIdSet* set : {&a.pending_reads, &a.pending_writes}) {
    for (const OpId op : *set) last = std::max(last, op);
  }
  for (const OpIdSet* set : {&a.pending_reads, &a.pending_writes}) {
    for (const OpId op : *set) {
      const StreamId s = engine_.op_stream(op);
      // A fetch into the device orders ahead of every later user of the
      // array there (they wait on its ready event): a later user covers it.
      if (s == fetch_stream && op != last) continue;
      auto it = std::find_if(gates.begin(), gates.end(),
                             [s](const auto& g) { return g.first == s; });
      if (it == gates.end()) {
        gates.emplace_back(s, op);
      } else {
        it->second = std::max(it->second, op);
      }
    }
  }
}

void GpuRuntime::issue_prefetch_step(const PrefetchStep& step) {
  const DeviceId dev = step.device;
  const StreamId fetch_stream = prefetch_stream(dev);
  const auto wait_for = [this](std::vector<EventId>& waits, EventId ev) {
    if (event_pending(ev) &&
        std::find(waits.begin(), waits.end(), ev) == waits.end()) {
      waits.push_back(ev);
    }
  };
  // "first+N": the first array's name and how many more share the op.
  const auto tag_of = [this](const std::vector<ArrayId>& ids) {
    std::string tag = memory_.info(ids.front()).name;
    if (ids.size() > 1) tag.append("+").append(std::to_string(ids.size() - 1));
    return tag;
  };
  // Page-outs. Victims may still have in-flight users (the planner evicts
  // behind last use), so the frames they free are only reusable once those
  // users end: per stream, the last user issued gates the page-out (FIFO
  // covers the earlier ones) as an `after` dependency — no event. Write-
  // backs merge into one CopyD2H on the device's write-back stream — same
  // bytes on the same DMA class as per-victim ops, but a single launch
  // overhead. Dropped victims move nothing, but their users gate the same
  // op (or, with nothing to write back, a marker on that stream), so the
  // event closing the stream frees every victim's frames.
  double evict_bytes = 0;
  std::vector<ArrayId> victims;
  std::vector<EventId> wb_waits;
  std::vector<std::pair<StreamId, OpId>> gates;
  for (const PageOut& po : step.evictions.page_outs) {
    const ArrayInfo& victim = memory_.info(po.array);
    add_user_gates(victim, fetch_stream, gates);
    if (!po.writeback) continue;
    // A prior write-back of this array may still be in flight; its host
    // copy must land before this one overwrites the slot.
    wait_for(wb_waits, victim.host_ready_event);
    victims.push_back(po.array);
    evict_bytes += static_cast<double>(po.bytes);
  }
  EventId& frames = frames_event_[static_cast<std::size_t>(dev)];
  if (!victims.empty() || !gates.empty()) {
    const StreamId wb_stream = writeback_stream(dev);
    std::vector<OpId> after;
    for (const auto& [s, op] : gates) {
      if (s != wb_stream) after.push_back(op);
    }
    if (victims.empty()) {
      Op marker;
      marker.kind = OpKind::Marker;
      marker.stream = wb_stream;
      marker.name = "frames";
      marker.after = std::move(after);
      for (const EventId ev : wb_waits) engine_.wait_on_event(marker, ev);
      issue_op(std::move(marker), nullptr);
    } else {
      issue_writeback(wb_stream, "evict:" + tag_of(victims), evict_bytes,
                      victims, wb_waits, std::move(after));
    }
    // One event closes the page-outs: the victims' host copies
    // materialize, and their frames are free, once it fires.
    frames = engine_.create_event();
    issue_record(frames, wb_stream);
    for (const PageOut& po : step.evictions.page_outs) {
      if (!po.writeback) continue;
      if (ArrayInfo* a = memory_.find(po.array)) a->host_ready_event = frames;
    }
  }
  // Resolve every fetched array's stale runs by source before issuing
  // anything: the fetch binds publish freshness at issue time, so
  // interleaving resolution with issuing would mis-source later arrays.
  double host_bytes = 0;
  std::vector<std::pair<DeviceId, double>> peer_bytes;  // ascending src
  std::vector<ArrayId> movers;
  std::vector<EventId> fetch_waits;
  for (std::size_t i = 0; i < step.arrays.size(); ++i) {
    ArrayInfo* a = memory_.find(step.arrays[i]);
    if (a == nullptr) continue;
    if (step.stale_bytes[i] == 0) {
      // No data yet: the array materializes in its new frames at first
      // touch, so its first user waits for them like a fetch would.
      if (event_pending(frames) && !event_pending(a->ready_event_on(dev))) {
        a->set_ready_event(dev, frames);
      }
      continue;
    }
    if (!a->needs_transfer_to(dev)) {
      wait_for(fetch_waits, a->ready_event_on(dev));
      continue;
    }
    const StaleSources used = add_stale_runs(*a, dev, host_bytes, peer_bytes);
    // The host copy may still be materializing from an in-flight eviction
    // write-back, and a source copy may itself still be migrating: order
    // the re-fetch behind both.
    if (used.host) wait_for(fetch_waits, a->host_ready_event);
    for (std::uint32_t m = used.peers; m != 0; m &= m - 1) {
      wait_for(fetch_waits,
               a->ready_event_on(static_cast<DeviceId>(std::countr_zero(m))));
    }
    if (used.host || used.peers != 0) movers.push_back(a->id);
  }
  if (movers.empty()) return;
  // The fetch needs free frames: this step's page-outs, or — stepping
  // into frames an earlier step freed — the latest page-outs on the
  // device (the write-back stream drains in order).
  wait_for(fetch_waits, frames);
  std::sort(peer_bytes.begin(), peer_bytes.end());
  const std::string tag = tag_of(movers);
  // One fetch record, shared by the host fetch and every peer fetch.
  const std::uint32_t rec = new_record(IssueRecord::Kind::Fetch, dev);
  for (const ArrayId aid : movers) records_[rec].arrays.push_back({aid});
  const Submission::BindFn bind = record_bind(rec);
  // The first fetch carries every wait; the stream's FIFO orders the
  // other sources' fetches behind it.
  if (host_bytes > 0) {
    issue_fetch(fetch_stream, OpKind::CopyH2D, kInvalidDevice, tag,
                host_bytes, /*prefetch=*/true, bind, fetch_waits);
    fetch_waits.clear();
  }
  for (const auto& [src, bytes] : peer_bytes) {
    issue_fetch(fetch_stream, OpKind::CopyP2P, src, tag, bytes,
                /*prefetch=*/true, bind, fetch_waits);
    fetch_waits.clear();
  }
  // One event closes the fetches: the moved arrays' device-ready gate.
  const EventId ev = engine_.create_event();
  issue_record(ev, fetch_stream);
  for (const ArrayId aid : movers) {
    if (ArrayInfo* a = memory_.find(aid)) a->set_ready_event(dev, ev);
  }
}

double GpuRuntime::prefetch_overlap_fraction() const {
  const Timeline& tl = engine_.timeline();
  TimeUs total = 0;
  TimeUs overlapped = 0;
  IntervalSet kernels;  // built lazily: most runs have no prefetch entries
  bool have_kernels = false;
  for (std::size_t i = 0; i < tl.size(); ++i) {
    const Timeline::Row& r = tl.row(i);
    if (!tl.name(r.name).starts_with("prefetch:")) continue;
    if (!have_kernels) {
      kernels = tl.kernel_cover();
      have_kernels = true;
    }
    total += r.end - r.start;
    overlapped += kernels.intersection_measure(r.interval());
  }
  return total > 0 ? overlapped / total : 0.0;
}

void GpuRuntime::begin_capture(TaskGraph& graph) {
  const auto gate = api_guard();
  if (capture_ != nullptr) throw ApiError("begin_capture: already capturing");
  if (batch_open_) throw ApiError("begin_capture: batch submission open");
  capture_ = &graph;
}

void GpuRuntime::end_capture() {
  const auto gate = api_guard();
  if (capture_ == nullptr) throw ApiError("end_capture: not capturing");
  capture_ = nullptr;
}

}  // namespace psched::sim
