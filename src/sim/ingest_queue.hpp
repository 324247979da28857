// Concurrent sharded ingestion front-end (the thread-safe entry point).
//
// The engine and GpuRuntime are single-threaded by design: one mutation at
// a time, deterministic order. The paper's runtime, however, accepts
// computations from many concurrently executing guest threads. This file
// bridges the two worlds without giving up determinism:
//
//   * Tenants are mapped onto S shards (default: tenant % shards, or an
//     explicit per-tenant assignment). Each shard owns a lock-free
//     Vyukov-style MPSC queue into which any OS thread may push work.
//     Every queued item is one of two things: a recorded `Submission` to
//     replay, or a runtime-level closure (the full async GpuRuntime API).
//     A flush is an item carrying neither. Work therefore always enters
//     the engine through GpuRuntime — residency admission, hazard
//     tracking and issue records included — never as raw engine ops.
//   * Every producer entry except `flush` runs the QoS admission check
//     (see the producer API below).
//   * A dedicated ingest thread per shard drains its queue in arrival
//     order, batches the drained items into one explicit runtime batch
//     (`begin_submit` / `commit` — a single engine transaction), and only
//     then resolves the items' completion tokens. Producers never touch
//     engine state.
//   * All ingest threads (and the application's own direct GpuRuntime
//     calls, once a service is attached) serialize on one recursive engine
//     gate, so every engine mutation remains single-threaded under the
//     hood — concurrency buys batching and decoupling, not data races.
//
// Determinism contract (the headline guarantee, golden-equivalence gated):
//
//   * Single producer: a run driven through the queue is bit-identical to
//     the same replays and calls issued directly as explicit batches.
//     Drain grouping is invisible because engine transactions group work
//     without reordering it, and batched commits replay per-call issue
//     timing.
//   * Multiple producers: the schedule is a pure function of the drained
//     arrival order. Items carry no producer timestamps — each replay or
//     closure is issued at the runtime's host clock when it drains — so
//     re-issuing the same items directly in drained order reproduces the
//     schedule.
//
// Flush points: `flush(tenant)` returns a token that resolves once
// everything enqueued to that tenant's shard so far has been committed.
// Blocking / observing GpuRuntime calls (synchronize_*, poll, host_read,
// ...) flush-and-wait the ambient tenant's shard automatically before they
// observe engine state, so queued work is never invisibly "still in
// flight" at an observation point. Closures running *on* an ingest thread
// skip that flush (they are the drain) — re-entrant blocking calls remain
// legal there, though they defeat batching.
//
// Error recovery: engine misuse surfaces as structured TransactionError /
// ApiError *before* state changes, so a drain catches per-item failures,
// fails that item's token (or counts it, for fire-and-forget posts), and
// keeps draining. An ingest thread never dies on a recoverable error.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/engine.hpp"
#include "sim/runtime.hpp"
#include "sim/types.hpp"

namespace psched::sim {

/// Drain-side counters of one shard, or summed over every shard
/// (monotone; readable while running).
struct IngestStats {
  long items = 0;    ///< queue items drained
  long batches = 0;  ///< drain batches committed
  long ops = 0;      ///< engine ops those batches carried
  /// Always 0: items carry no producer host times, so nothing is clamped.
  /// Kept only because bench/e2e reports it; drop it together with the
  /// benchmark's reader.
  long clamped = 0;
  long errors = 0;   ///< recoverable per-item errors surfaced to tokens
  long rejected = 0;  ///< submissions turned away by admission control
  long deferred = 0;  ///< over-limit fire-and-forget posts (still queued)
};

class IngestService {
 public:
  struct Config {
    int shards = 1;
    /// Queue items drained into one engine transaction at most. Larger
    /// batches amortize commit-time ready-drains and per-class re-solves
    /// across more calls; smaller batches bound producer-visible latency.
    std::size_t max_batch = 256;
  };

  /// Attaches to `rt` (rt.ingest() now returns this service, so blocking
  /// GpuRuntime calls flush-and-wait their tenant's shard) and starts one
  /// ingest thread per shard.
  explicit IngestService(GpuRuntime& rt) : IngestService(rt, Config()) {}
  IngestService(GpuRuntime& rt, Config cfg);
  /// Flushes every shard, stops and joins the ingest threads, detaches.
  ~IngestService();

  IngestService(const IngestService&) = delete;
  IngestService& operator=(const IngestService&) = delete;

  // --- producer API: callable from any OS thread ---
  // With a QosManager attached, every entry below except `flush` checks
  // the tenant's admission bounds first (the tenant's own items still
  // queued count toward depth; other tenants' items on the shard do not).
  // An over-limit `submit_*` throws AdmissionError before anything is
  // queued, counted in the shard's `rejected`; the producer can resubmit
  // once the backlog drains. An over-limit `post_*` cannot surface an
  // error to its producer, so it is *deferred* instead: counted in
  // `deferred` and queued anyway (the backlog signal, not a drop). A
  // drained item is not admission-checked again by the runtime.

  /// Replay a recorded submission (kept alive by the caller until its
  /// token resolves / a flush covers it) inside the shard's drain batch.
  std::future<void> submit_replay(TenantId tenant, const Submission* sub);
  void post_replay(TenantId tenant, const Submission* sub);
  /// Run a closure on the ingest thread with `tenant` active, inside the
  /// shard's open batch. The closure gets the full GpuRuntime async API;
  /// blocking calls are legal but execute inline (no self-flush).
  std::future<void> submit_task(TenantId tenant,
                                std::function<void(GpuRuntime&)> fn);
  void post_task(TenantId tenant, std::function<void(GpuRuntime&)> fn);

  /// Completion token covering everything enqueued to `tenant`'s shard
  /// before this call: resolves once it has all been committed.
  std::future<void> flush(TenantId tenant);
  /// Synchronous flush of one tenant's shard / of every shard. No-ops on
  /// an ingest thread (the drain cannot wait on itself).
  void flush_and_wait(TenantId tenant);
  void flush_all_and_wait();

  // --- shard topology ---
  [[nodiscard]] int num_shards() const { return shards_count_; }
  /// Shard a tenant's work drains through: the explicit assignment if one
  /// was made, tenant % num_shards() otherwise.
  [[nodiscard]] int shard_of(TenantId tenant) const;
  /// Pin `tenant` to `shard`. Call before concurrent producers start (the
  /// mapping is read lock-free on the producer hot path); items already
  /// queued stay on their old shard.
  void assign_shard(TenantId tenant, int shard);

  /// True on an ingest thread of *this* service (drain-executed closures).
  [[nodiscard]] bool on_ingest_thread() const;
  /// Counters summed over every shard.
  [[nodiscard]] IngestStats stats() const;
  /// One shard's counters (ApiError on an out-of-range shard index).
  [[nodiscard]] IngestStats shard_stats(int shard) const;

 private:
  struct Item;
  struct Shard;

  [[nodiscard]] Shard& shard_for(TenantId tenant);
  /// How a producer entry treats the item it queues.
  enum class Entry : unsigned char {
    Submit,  ///< admission-checked (throws); the token resolves at commit
    Post,    ///< admission-checked (defers); fire-and-forget
    Flush,   ///< no check; the token resolves at commit
  };

  /// The one producer path behind every entry: admission check per
  /// `entry`, then one item (replay `sub`, closure `fn`, or neither for a
  /// flush) linked into `tenant`'s shard. Returns the item's token, or an
  /// empty future for a post.
  std::future<void> push(TenantId tenant, const Submission* sub,
                         std::function<void(GpuRuntime&)> fn, Entry entry,
                         const char* call);
  /// Link `it` at the tail of `s`'s queue and wake its ingest thread.
  void link(Shard& s, Item* it);
  [[nodiscard]] Item* pop(Shard& s);
  void run_shard(Shard& s);
  /// Under the api gate, pop up to max_batch items of `s` into `batch`
  /// and drain them; false if nothing was poppable.
  bool drain_some(Shard& s, std::vector<Item*>& batch);
  /// Process one popped batch into the engine. Caller holds the api gate.
  void drain_batch(Shard& s, std::vector<Item*>& batch);
  /// Drain `s` to empty on the calling thread (flush points help instead
  /// of waiting on the ingest thread, so a flush can never deadlock —
  /// whoever needs the queue empty empties it, under the gate).
  void help_drain(Shard& s);

  GpuRuntime* rt_;
  Config cfg_;
  int shards_count_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Per-tenant explicit shard assignment; -1 = modulo default. Atomic so
  /// producers can read it lock-free while assignments settle.
  std::vector<std::atomic<int>> shard_map_;
  /// Per-tenant replays and closures queued but not yet drained: the
  /// depth admission adds to the tenant's outstanding ops.
  std::vector<std::atomic<long>> tenant_queued_;
  std::atomic<bool> stopping_{false};
};

}  // namespace psched::sim
