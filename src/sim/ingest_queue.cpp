#include "sim/ingest_queue.hpp"

#include <chrono>
#include <exception>
#include <memory>
#include <optional>
#include <utility>

#include "sim/qos.hpp"

namespace psched::sim {

namespace {
/// Drain-recursion depth of the current thread (any service). Non-zero
/// while a drain batch executes, so blocking calls made from inside a
/// drained closure skip the flush-and-help path: they *are* the drain.
thread_local int tl_drain_depth = 0;
/// The service whose dedicated ingest thread this is, if any.
thread_local const IngestService* tl_ingest_service = nullptr;
}  // namespace

/// One queued unit of work: a recorded submission to replay, a runtime
/// closure, or neither (a flush). Producers allocate, the draining thread
/// frees after resolving the completion token. Intrusively linked for the
/// lock-free MPSC queue.
struct IngestService::Item {
  TenantId tenant = kDefaultTenant;
  const Submission* replay = nullptr;
  std::function<void(GpuRuntime&)> task;
  std::exception_ptr error;  // per-item recoverable failure
  /// Built only by the token-returning entries (submit_* and flush).
  std::optional<std::promise<void>> token;
  std::atomic<Item*> next{nullptr};
};

/// One tenant shard: a Vyukov-style intrusive MPSC queue plus its
/// dedicated ingest thread. Producer side (link, `queued`) is lock-free;
/// the consumer cursor `head` is only ever touched under the runtime api
/// gate, which serializes the ingest thread with helping flushers.
struct IngestService::Shard {
  std::atomic<Item*> tail{nullptr};  // producers' exchange point
  Item* head = nullptr;              // gate-protected consumer cursor
  Item stub;
  /// Items pushed but not yet fully processed (committed). Drives the
  /// ingest thread's sleep decision and help_drain's termination.
  std::atomic<long> queued{0};

  std::mutex mu;
  std::condition_variable cv;
  std::atomic<bool> sleeping{false};
  std::atomic<bool> stop{false};
  std::thread thread;

  std::atomic<long> items{0}, batches{0}, ops{0}, errors{0};
  /// Admission-control outcomes on the producer side: submissions turned
  /// away with AdmissionError, and over-limit fire-and-forget posts that
  /// were queued anyway (deferred — the producer cannot observe a throw).
  std::atomic<long> rejected{0}, deferred{0};
};

IngestService::IngestService(GpuRuntime& rt, Config cfg)
    : rt_(&rt),
      cfg_(cfg),
      shards_count_(cfg.shards < 1 ? 1 : cfg.shards),
      shard_map_(static_cast<std::size_t>(kMaxTenants)),
      tenant_queued_(static_cast<std::size_t>(kMaxTenants)) {
  if (cfg_.max_batch == 0) cfg_.max_batch = 1;
  for (auto& m : shard_map_) m.store(-1, std::memory_order_relaxed);
  shards_.reserve(static_cast<std::size_t>(shards_count_));
  for (int i = 0; i < shards_count_; ++i) {
    auto s = std::make_unique<Shard>();
    s->head = &s->stub;
    s->tail.store(&s->stub, std::memory_order_relaxed);
    shards_.push_back(std::move(s));
  }
  rt_->attach_ingest(this);
  for (auto& s : shards_) {
    Shard* shard = s.get();
    shard->thread = std::thread([this, shard] { run_shard(*shard); });
  }
}

IngestService::~IngestService() {
  // Drain everything still queued (producers must have quiesced), then
  // stop and join the ingest threads before detaching from the runtime.
  flush_all_and_wait();
  stopping_.store(true, std::memory_order_seq_cst);
  for (auto& s : shards_) {
    s->stop.store(true, std::memory_order_seq_cst);
    {
      std::lock_guard<std::mutex> lk(s->mu);
    }
    s->cv.notify_all();
  }
  for (auto& s : shards_) {
    if (s->thread.joinable()) s->thread.join();
  }
  rt_->detach_ingest(this);
}

int IngestService::shard_of(TenantId tenant) const {
  if (tenant < 0 || tenant >= kMaxTenants) {
    throw ApiError("ingest: invalid tenant " + std::to_string(tenant));
  }
  const int s =
      shard_map_[static_cast<std::size_t>(tenant)].load(std::memory_order_relaxed);
  if (s >= 0) return s;
  return static_cast<int>(tenant % shards_count_);
}

void IngestService::assign_shard(TenantId tenant, int shard) {
  if (tenant < 0 || tenant >= kMaxTenants) {
    throw ApiError("assign_shard: invalid tenant " + std::to_string(tenant));
  }
  if (shard < 0 || shard >= shards_count_) {
    throw ApiError("assign_shard: invalid shard " + std::to_string(shard));
  }
  shard_map_[static_cast<std::size_t>(tenant)].store(shard,
                                                     std::memory_order_relaxed);
}

IngestService::Shard& IngestService::shard_for(TenantId tenant) {
  return *shards_[static_cast<std::size_t>(shard_of(tenant))];
}

bool IngestService::on_ingest_thread() const {
  return tl_ingest_service == this || tl_drain_depth > 0;
}

IngestStats IngestService::stats() const {
  IngestStats out;
  for (int i = 0; i < shards_count_; ++i) {
    const IngestStats s = shard_stats(i);
    out.items += s.items;
    out.batches += s.batches;
    out.ops += s.ops;
    out.errors += s.errors;
    out.rejected += s.rejected;
    out.deferred += s.deferred;
  }
  return out;
}

IngestStats IngestService::shard_stats(int shard) const {
  if (shard < 0 || shard >= shards_count_) {
    throw ApiError("shard_stats: invalid shard " + std::to_string(shard));
  }
  const Shard& s = *shards_[static_cast<std::size_t>(shard)];
  IngestStats out;
  out.items = s.items.load(std::memory_order_relaxed);
  out.batches = s.batches.load(std::memory_order_relaxed);
  out.ops = s.ops.load(std::memory_order_relaxed);
  out.errors = s.errors.load(std::memory_order_relaxed);
  out.rejected = s.rejected.load(std::memory_order_relaxed);
  out.deferred = s.deferred.load(std::memory_order_relaxed);
  return out;
}

// ---------------------------------------------------------------------
// Queue primitives (Vyukov intrusive MPSC)
// ---------------------------------------------------------------------

void IngestService::link(Shard& s, Item* it) {
  // Count before linking: a flush that observes this increment will wait
  // for the item, so "enqueued before the flush call" is always covered.
  const long before = s.queued.fetch_add(1, std::memory_order_seq_cst);
  it->next.store(nullptr, std::memory_order_relaxed);
  Item* prev = s.tail.exchange(it, std::memory_order_acq_rel);
  prev->next.store(it, std::memory_order_release);
  // Wake the ingest thread only when this post took the shard from empty
  // to non-empty and the thread is (about to be) asleep. Over a non-empty
  // shard some drainer is already due: the thread sleeps only after it
  // saw `queued` at 0, and a helping flusher drains until it is 0. The
  // seq_cst increment here and the thread's seq_cst `sleeping` store and
  // `queued` load cannot both miss; the bounded wait timeout stays as the
  // safety net.
  if (before == 0 && s.sleeping.load(std::memory_order_seq_cst)) {
    {
      std::lock_guard<std::mutex> lk(s.mu);
    }
    s.cv.notify_one();
  }
}

IngestService::Item* IngestService::pop(Shard& s) {
  Item* head = s.head;
  Item* next = head->next.load(std::memory_order_acquire);
  if (head == &s.stub) {
    if (next == nullptr) return nullptr;  // empty (or a push mid-link)
    s.head = next;
    head = next;
    next = next->next.load(std::memory_order_acquire);
  }
  if (next != nullptr) {
    s.head = next;
    return head;
  }
  if (s.tail.load(std::memory_order_acquire) != head) {
    return nullptr;  // a producer is mid-link; its node appears shortly
  }
  // `head` is the last live node: reinsert the stub behind it so the
  // consumer cursor never dangles, then hand the node out.
  s.stub.next.store(nullptr, std::memory_order_relaxed);
  Item* prev = s.tail.exchange(&s.stub, std::memory_order_acq_rel);
  prev->next.store(&s.stub, std::memory_order_release);
  next = head->next.load(std::memory_order_acquire);
  if (next != nullptr) {
    s.head = next;
    return head;
  }
  return nullptr;  // another producer slipped in mid-link; retry later
}

// ---------------------------------------------------------------------
// Drain side
// ---------------------------------------------------------------------

void IngestService::drain_batch(Shard& s, std::vector<Item*>& batch) {
  GpuRuntime& rt = *rt_;
  ++tl_drain_depth;
  const TenantId ambient = rt.active_tenant();

  // The drain owns the batch bracket unless the application left its own
  // explicit batch open — then items fold into that batch and tokens
  // promise ingestion only (commit timing belongs to the batch owner).
  std::exception_ptr batch_error;
  bool own_batch = false;
  const long ops_before = rt.batched_ops();
  try {
    if (!rt.submitting()) {
      rt.begin_submit();
      own_batch = true;
    }
  } catch (...) {
    batch_error = std::current_exception();
  }

  // Hand the whole drained batch to the residency planner: the replay
  // items' recorded working sets, concatenated in pop order, are the ready
  // frontier this batch is about to execute — so each replay's residency
  // planning scores victims against the entire batch, not just its own
  // list. Skipped when the planner was already fed a frontier or the batch
  // carries no annotated replays.
  bool announced = false;
  if (batch_error == nullptr && !rt.memory().planner().active()) {
    std::vector<FrontierEntry> frontier;
    for (const Item* it : batch) {
      if (it->replay == nullptr) continue;
      const auto& ws = it->replay->working_sets();
      frontier.insert(frontier.end(), ws.begin(), ws.end());
    }
    if (!frontier.empty()) {
      rt.announce_frontier(std::move(frontier));
      announced = true;
    }
  }

  if (batch_error == nullptr) {
    for (Item* it : batch) {
      try {
        if (it->replay != nullptr) {
          rt.set_active_tenant(it->tenant);
          rt.replay(*it->replay);
        } else if (it->task) {
          rt.set_active_tenant(it->tenant);
          it->task(rt);
        }  // else a flush: it resolves with the batch
      } catch (...) {
        // Engine misuse throws (TransactionError, ApiError) before state
        // changes: fail this item's token, keep draining.
        it->error = std::current_exception();
        s.errors.fetch_add(1, std::memory_order_relaxed);
      }
    }
    rt.set_active_tenant(ambient);
    if (announced) rt.clear_frontier();
    if (own_batch) {
      try {
        rt.commit();
      } catch (...) {
        batch_error = std::current_exception();
      }
    }
  }

  s.ops.fetch_add(rt.batched_ops() - ops_before, std::memory_order_relaxed);
  s.items.fetch_add(static_cast<long>(batch.size()),
                    std::memory_order_relaxed);
  s.batches.fetch_add(1, std::memory_order_relaxed);
  --tl_drain_depth;

  // Tokens resolve only after the commit (or with the failure): a resolved
  // future always means the work is real engine state.
  for (Item* it : batch) {
    if (it->replay != nullptr || it->task) {
      tenant_queued_[static_cast<std::size_t>(it->tenant)].fetch_sub(
          1, std::memory_order_acq_rel);
    }
    if (it->token) {
      const std::exception_ptr err = it->error ? it->error : batch_error;
      if (err) {
        it->token->set_exception(err);
      } else {
        it->token->set_value();
      }
    }
    delete it;
  }
  s.queued.fetch_sub(static_cast<long>(batch.size()),
                     std::memory_order_acq_rel);
}

void IngestService::run_shard(Shard& s) {
  tl_ingest_service = this;
  std::vector<Item*> batch;
  batch.reserve(cfg_.max_batch);
  for (;;) {
    if (s.queued.load(std::memory_order_acquire) == 0) {
      if (s.stop.load(std::memory_order_acquire)) break;
      std::unique_lock<std::mutex> lk(s.mu);
      s.sleeping.store(true, std::memory_order_seq_cst);
      if (s.queued.load(std::memory_order_seq_cst) == 0 &&
          !s.stop.load(std::memory_order_acquire)) {
        s.cv.wait_for(lk, std::chrono::milliseconds(1));
      }
      s.sleeping.store(false, std::memory_order_relaxed);
      continue;
    }
    // Nothing popped despite queued > 0: a helping flusher beat us to the
    // items, or a producer is mid-link. Either resolves imminently.
    if (!drain_some(s, batch)) std::this_thread::yield();
  }
  tl_ingest_service = nullptr;
}

bool IngestService::drain_some(Shard& s, std::vector<Item*>& batch) {
  const auto gate = rt_->api_guard();
  batch.clear();
  while (batch.size() < cfg_.max_batch) {
    Item* it = pop(s);
    if (it == nullptr) break;
    batch.push_back(it);
  }
  if (batch.empty()) return false;
  drain_batch(s, batch);
  return true;
}

void IngestService::help_drain(Shard& s) {
  std::vector<Item*> batch;
  batch.reserve(cfg_.max_batch);
  while (s.queued.load(std::memory_order_acquire) != 0) {
    if (!drain_some(s, batch)) std::this_thread::yield();
  }
}

// ---------------------------------------------------------------------
// Producer API
// ---------------------------------------------------------------------

std::future<void> IngestService::push(TenantId tenant, const Submission* sub,
                                      std::function<void(GpuRuntime&)> fn,
                                      Entry entry, const char* call) {
  Shard& s = shard_for(tenant);
  std::atomic<long>& queued = tenant_queued_[static_cast<std::size_t>(tenant)];
  QosManager* q = entry == Entry::Flush ? nullptr : rt_->qos();
  if (q != nullptr) {
    try {
      q->check_admission(tenant, queued.load(std::memory_order_acquire),
                         call);
    } catch (const AdmissionError&) {
      if (entry == Entry::Submit) {
        s.rejected.fetch_add(1, std::memory_order_relaxed);
        throw;
      }
      s.deferred.fetch_add(1, std::memory_order_relaxed);
    }
  }
  auto it = std::make_unique<Item>();
  it->tenant = tenant;
  it->replay = sub;
  it->task = std::move(fn);
  std::future<void> token;
  if (entry != Entry::Post) token = it->token.emplace().get_future();
  if (entry != Entry::Flush) queued.fetch_add(1, std::memory_order_acq_rel);
  link(s, it.release());
  return token;
}

std::future<void> IngestService::submit_replay(TenantId tenant,
                                               const Submission* sub) {
  return push(tenant, sub, nullptr, Entry::Submit,
              "IngestService::submit_replay");
}

void IngestService::post_replay(TenantId tenant, const Submission* sub) {
  push(tenant, sub, nullptr, Entry::Post, "IngestService::post_replay");
}

std::future<void> IngestService::submit_task(
    TenantId tenant, std::function<void(GpuRuntime&)> fn) {
  return push(tenant, nullptr, std::move(fn), Entry::Submit,
              "IngestService::submit_task");
}

void IngestService::post_task(TenantId tenant,
                              std::function<void(GpuRuntime&)> fn) {
  push(tenant, nullptr, std::move(fn), Entry::Post,
       "IngestService::post_task");
}

std::future<void> IngestService::flush(TenantId tenant) {
  return push(tenant, nullptr, nullptr, Entry::Flush, "IngestService::flush");
}

void IngestService::flush_and_wait(TenantId tenant) {
  if (on_ingest_thread()) return;  // the drain cannot wait on itself
  help_drain(shard_for(tenant));
}

void IngestService::flush_all_and_wait() {
  if (on_ingest_thread()) return;
  for (auto& s : shards_) help_drain(*s);
}

}  // namespace psched::sim
