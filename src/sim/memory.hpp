// Device memory allocator and paged unified-memory residency tracking.
//
// Every managed allocation ("array") has a logical size and a residency
// state at *page* granularity: the array's pages are covered by a run-length
// encoded list of PageExtents, each carrying
//   * resident_mask — devices whose capacity these pages are charged to;
//   * fresh_mask    — devices holding a current copy of these pages;
//   * host_fresh    — whether the host copy of these pages is current.
// The whole-array aggregates (fresh_mask / resident_mask) are derived from
// the extents, so code that only ever sees uniform arrays behaves exactly
// as before.
//
// Oversubscription is a first-class scenario: a migration that exceeds a
// device's capacity no longer throws — charge_residency builds an
// EvictionPlan instead, paging out the least-recently-used victim extents
// (stale copies before fresh ones, never pages the incoming operation
// itself needs, never pinned pages, and — outside planner prefetch serves,
// which evict behind the victim's last issued user — never pages of arrays
// with in-flight device ops). Page-outs of a device's *only* current copy
// carry `writeback`: the caller (GpuRuntime) prices them as real D2H ops on
// the device's DMA class, so eviction traffic contends with foreground
// copies.
// OutOfMemoryError remains only when the working set of a single operation
// exceeds the device capacity (or the managed heap bound at alloc).
//
// Recency is tracked per (array, device) with a monotone stamp: kernel
// launches, migrations, and admissions touch the stamps; eviction order is
// (stale-first, stamp, array id, page) — fully deterministic.
//
// Bookkeeping vs. policy (the pmm/vmm split): MemoryManager owns the
// *accounting* — extents, charges, per-device and per-tenant counters —
// while victim selection and lookahead prefetch planning live in the
// ResidencyPlanner below. The planner can be fed the upcoming schedule
// (the "ready frontier" a transaction commit, replay, or graph launch
// exposes); with a frontier active, victims are scored against the future
// working set (farthest next use evicted first, Belady-style, with a
// replay-aware tie-break beyond the lookahead window) instead of LRU-now,
// and rolling prefetch serves bring the frontier's arrays in a few entries
// at a time, early enough to overlap the kernels ahead of them. With no
// frontier every decision is bit-identical to the historical
// admission-time LRU path.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/device_spec.hpp"
#include "sim/machine.hpp"
#include "sim/types.hpp"

namespace psched::sim {

/// A contiguous run of pages of one array with uniform residency state.
/// Extents partition [0, num_pages); adjacent extents with equal state are
/// merged, so the vector stays short (one entry for a uniform array).
struct PageExtent {
  std::uint32_t first = 0;  ///< first page index of the run
  std::uint32_t count = 0;  ///< pages in the run
  std::uint32_t resident_mask = 0;  ///< devices charged for these pages
  std::uint32_t fresh_mask = 0;     ///< devices holding a current copy
  bool host_fresh = true;           ///< host copy of these pages is current

  [[nodiscard]] bool same_state(const PageExtent& o) const {
    return resident_mask == o.resident_mask && fresh_mask == o.fresh_mask &&
           host_fresh == o.host_fresh;
  }
};

/// A small set of op ids: the in-flight ops touching one array. Usually
/// zero to three entries, so a flat vector with linear membership beats a
/// hash set — and, living inside a long-lived ArrayInfo, its buffer is
/// reused across launches instead of allocating a node per insert. The
/// surface mirrors the std::unordered_set subset the runtime uses;
/// iteration order is unspecified (erase swaps the last entry in).
class OpIdSet {
 public:
  using const_iterator = std::vector<OpId>::const_iterator;

  /// Returns false when `id` was already present.
  bool insert(OpId id) {
    if (count(id) != 0) return false;
    ids_.push_back(id);
    return true;
  }
  std::size_t erase(OpId id) {
    const auto it = std::find(ids_.begin(), ids_.end(), id);
    if (it == ids_.end()) return 0;
    *it = ids_.back();
    ids_.pop_back();
    return 1;
  }
  [[nodiscard]] std::size_t count(OpId id) const {
    return std::find(ids_.begin(), ids_.end(), id) != ids_.end() ? 1 : 0;
  }
  [[nodiscard]] bool empty() const { return ids_.empty(); }
  [[nodiscard]] std::size_t size() const { return ids_.size(); }
  [[nodiscard]] const_iterator begin() const { return ids_.begin(); }
  [[nodiscard]] const_iterator end() const { return ids_.end(); }

 private:
  std::vector<OpId> ids_;
};

struct ArrayInfo {
  ArrayId id = kInvalidArray;
  std::string name;
  /// Owning application (set at alloc). Residency charges, eviction
  /// accounting, and quota checks are attributed to this tenant.
  TenantId owner = kDefaultTenant;
  std::size_t bytes = 0;
  /// Paging geometry (set at alloc): fixed page size, last page partial.
  std::size_t page_size = 0;
  std::uint32_t num_pages = 0;

  /// Managed pages materialize on first touch: an array the host never
  /// wrote has no host data to migrate, so the first device use of a fresh
  /// allocation (e.g. a kernel output buffer) transfers nothing.
  bool host_touched = false;

  /// Aggregate views derived from `extents` by refresh_masks():
  /// fresh_mask bit d — *every* page is fresh on d (a full current copy);
  /// resident_mask bit d — *some* page is charged to d.
  std::uint32_t fresh_mask = 0;
  std::uint32_t resident_mask = 0;

  /// Run-length encoded page residency (always covers [0, num_pages)).
  std::vector<PageExtent> extents;
  /// Devices this array's pages are pinned on (exempt from eviction).
  std::uint32_t pinned_mask = 0;
  /// Per-device last-access stamp (MemoryManager::touch); 0 = never.
  std::vector<std::uint64_t> lru_stamp;
  /// Per-device bytes brought in by a lookahead prefetch that no kernel
  /// has consumed yet. Cleared when the target launch admits the array;
  /// pages evicted while the mark is set count as wasted prefetch.
  std::vector<std::size_t> prefetch_pending;

  /// Per-device event completing when the latest migration of this array
  /// *to that device* is done; later launches on other streams of the
  /// device must wait on it. Sized on demand.
  std::vector<EventId> ready_events;
  /// Event completing when the latest eviction write-back of this array's
  /// pages lands on the host: the host copy those pages now advertise
  /// (host_fresh) materializes only then. Host accesses and host-sourced
  /// re-faults order behind it (set by GpuRuntime's eviction pricing).
  EventId host_ready_event = kInvalidEvent;

  /// Device ops currently reading / writing this array (hazard detection).
  /// Migrations count as reads: they permit concurrent host reads but not
  /// host writes. Freed arrays are erased from the manager outright (the
  /// eviction scan walks the live map), so there is no tombstone flag.
  OpIdSet pending_reads;
  OpIdSet pending_writes;

  // --- page geometry -----------------------------------------------------
  /// Bytes covered by pages [first, first+count) (the last page is partial).
  [[nodiscard]] std::size_t run_bytes(std::uint32_t first,
                                      std::uint32_t count) const {
    const std::size_t begin = static_cast<std::size_t>(first) * page_size;
    const std::size_t end =
        std::min(bytes, static_cast<std::size_t>(first + count) * page_size);
    return end > begin ? end - begin : 0;
  }
  [[nodiscard]] std::size_t page_bytes_of(std::uint32_t page) const {
    return run_bytes(page, 1);
  }

  // --- paged queries ------------------------------------------------------
  /// True if the run holds data that is not current on device `d`: there is
  /// a fresh copy elsewhere (peer or touched host) but not on `d`.
  [[nodiscard]] bool run_stale_on(const PageExtent& e, DeviceId d) const {
    if ((e.fresh_mask & (1u << d)) != 0) return false;
    return e.fresh_mask != 0 || (host_touched && e.host_fresh);
  }
  /// Bytes device `d` would have to fetch to hold a full current copy.
  [[nodiscard]] std::size_t stale_bytes_on(DeviceId d) const {
    std::size_t n = 0;
    for (const PageExtent& e : extents) {
      if (run_stale_on(e, d)) n += run_bytes(e.first, e.count);
    }
    return n;
  }
  /// Bytes currently charged to device `d`.
  [[nodiscard]] std::size_t resident_bytes_on(DeviceId d) const {
    std::size_t n = 0;
    for (const PageExtent& e : extents) {
      if ((e.resident_mask & (1u << d)) != 0) n += run_bytes(e.first, e.count);
    }
    return n;
  }
  [[nodiscard]] bool pinned_on(DeviceId d) const {
    return (pinned_mask & (1u << d)) != 0;
  }

  // --- whole-array accessors ---------------------------------------------
  /// True if a kernel launch needs to migrate this array to the device
  /// (single-device form): host data exists and either nothing is charged
  /// to any device or no page is current on any device.
  [[nodiscard]] bool needs_h2d() const {
    return host_touched &&
           (resident_mask == 0 ||
            std::none_of(extents.begin(), extents.end(),
                         [](const PageExtent& e) { return e.fresh_mask != 0; }));
  }
  /// True if device `d` lacks current pages and there is data anywhere
  /// (host or a peer device) to move. A never-touched allocation
  /// materializes on first use and transfers nothing.
  [[nodiscard]] bool needs_transfer_to(DeviceId d) const {
    return stale_bytes_on(d) != 0;
  }
  /// True if *every* page is fresh on `d` (a full current copy).
  [[nodiscard]] bool fresh_on(DeviceId d) const {
    return (fresh_mask & (1u << d)) != 0;
  }
  /// Source of a migration when one is needed: a fresh peer device when
  /// some device holds a full current copy, else the host. Page-granular
  /// staging refines this per run; whole-array consumers (prefetch policy
  /// decisions) still branch on the aggregate.
  [[nodiscard]] bool host_sourced() const { return fresh_mask == 0; }
  // --- residency transitions (keep extents and aggregates in sync) --------
  /// A kernel on `d` wrote the array: `d` holds the only current copy of
  /// every page; host and peer copies are stale. Charged pages stay charged.
  void note_kernel_write(DeviceId d) {
    for (PageExtent& e : extents) {
      e.fresh_mask = 1u << d;
      e.host_fresh = false;
    }
    normalize();
    refresh_masks();
    host_touched = true;  // data now exists (device-side)
  }
  /// The host wrote the array: every device copy is stale.
  void note_host_write() {
    for (PageExtent& e : extents) {
      e.fresh_mask = 0;
      e.host_fresh = true;
    }
    normalize();
    refresh_masks();
    host_touched = true;
  }
  /// A D2H read-back completed: the host copy is current everywhere
  /// (device copies stay current too — copies do not invalidate).
  void note_host_read_done() {
    for (PageExtent& e : extents) e.host_fresh = true;
    normalize();
    refresh_masks();
  }
  /// Migrations to `d` completed (issue-time bookkeeping): every page that
  /// had a current copy anywhere is now also fresh on `d`; pages with no
  /// data anywhere materialize fresh on `d` as well.
  void note_migrated(DeviceId d) {
    for (PageExtent& e : extents) e.fresh_mask |= 1u << d;
    normalize();
    refresh_masks();
  }

  /// Split boundary extents so [first, first+count) aligns with extent
  /// boundaries, apply `fn` to every extent inside the range, re-merge.
  template <typename Fn>
  void apply_range(std::uint32_t first, std::uint32_t count, Fn&& fn) {
    split_at(first);
    split_at(first + count);
    for (PageExtent& e : extents) {
      if (e.first >= first && e.first < first + count) fn(e);
    }
    normalize();
    refresh_masks();
  }

  /// Recompute the derived aggregates from the extent list.
  void refresh_masks() {
    std::uint32_t any_res = 0;
    std::uint32_t all_fresh = ~0u;
    for (const PageExtent& e : extents) {
      any_res |= e.resident_mask;
      all_fresh &= e.fresh_mask;
    }
    resident_mask = any_res;
    fresh_mask = extents.empty() ? 0 : all_fresh;
  }

  void normalize() {
    std::size_t out = 0;
    for (std::size_t i = 0; i < extents.size(); ++i) {
      if (out > 0 && extents[out - 1].same_state(extents[i])) {
        extents[out - 1].count += extents[i].count;
      } else {
        extents[out++] = extents[i];
      }
    }
    extents.resize(out);
  }

  // --- events / hazards ----------------------------------------------------
  [[nodiscard]] EventId ready_event_on(DeviceId d) const {
    const auto i = static_cast<std::size_t>(d);
    return i < ready_events.size() ? ready_events[i] : kInvalidEvent;
  }
  void set_ready_event(DeviceId d, EventId ev) {
    const auto i = static_cast<std::size_t>(d);
    if (ready_events.size() <= i) ready_events.resize(i + 1, kInvalidEvent);
    ready_events[i] = ev;
  }
  [[nodiscard]] bool has_pending() const {
    return !pending_reads.empty() || !pending_writes.empty();
  }
  void erase_pending(OpId op) {
    pending_reads.erase(op);
    pending_writes.erase(op);
  }

 private:
  void split_at(std::uint32_t page) {
    if (page == 0 || page >= num_pages) return;
    for (std::size_t i = 0; i < extents.size(); ++i) {
      PageExtent& e = extents[i];
      if (e.first < page && page < e.first + e.count) {
        PageExtent tail = e;
        tail.first = page;
        tail.count = e.first + e.count - page;
        e.count = page - e.first;
        extents.insert(extents.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                       tail);
        return;
      }
      if (e.first >= page) return;  // already aligned
    }
  }
};

/// One victim run of an eviction plan. `writeback` means the device held
/// the only current copy: the pages must be written back to the host (a
/// real D2H op on the device's DMA class) before the space is reusable.
/// Without it the pages are simply dropped (a current copy exists
/// elsewhere).
struct PageOut {
  ArrayId array = kInvalidArray;
  std::uint32_t first = 0;
  std::uint32_t count = 0;
  std::size_t bytes = 0;
  bool writeback = false;
};

/// The victims one admission (or advise_evict) selected, in eviction
/// order. The accounting is already applied when the plan is returned; the
/// caller prices the write-backs as device ops.
struct EvictionPlan {
  DeviceId device = kInvalidDevice;
  std::vector<PageOut> page_outs;
  std::size_t bytes_freed = 0;
  std::size_t writeback_bytes = 0;
  [[nodiscard]] bool empty() const { return page_outs.empty(); }
};

/// One upcoming operation's working set, in schedule order — the unit of
/// the "ready frontier" a transaction commit, recorded replay, or graph
/// launch announces to the planner.
struct FrontierEntry {
  DeviceId device = kDefaultDevice;
  std::vector<ArrayId> arrays;
};

/// One planner-built prefetch step: bring the missing pages of `arrays`
/// onto `device` ahead of frontier entry `entry`. The residency charge and
/// the eviction plan making room are already applied when the step is
/// returned; the caller prices the page-outs and issues the transfers
/// (`stale_bytes[i]` is what arrays[i] still has to move; 0 for an array
/// with no data yet, which materializes in its new frames at first
/// touch). Victims may still have in-flight users (see plan_prefetch):
/// the caller gates their page-outs on those users.
struct PrefetchStep {
  std::size_t entry = 0;
  DeviceId device = kInvalidDevice;
  std::vector<ArrayId> arrays;
  std::vector<std::size_t> stale_bytes;
  EvictionPlan evictions;
};

class MemoryManager;

/// Policy half of the residency split: victim selection and DAG-lookahead
/// prefetch planning over the announced frontier. All state mutation goes
/// through the owning MemoryManager's accounting primitives.
class ResidencyPlanner {
 public:
  /// Lookahead horizon (frontier entries considered ahead of the current
  /// schedule position).
  static constexpr std::size_t kDefaultHorizon = 8;
  static constexpr std::size_t kNoNextUse =
      std::numeric_limits<std::size_t>::max();

  explicit ResidencyPlanner(MemoryManager& mm) : mm_(mm) {}

  /// Replace the frontier with `entries` (schedule order). Position and
  /// prefetch progress reset.
  void announce(std::vector<FrontierEntry> entries);
  void clear();
  /// True when unconsumed frontier entries remain.
  [[nodiscard]] bool active() const { return pos_ < frontier_.size(); }
  [[nodiscard]] std::size_t frontier_remaining() const {
    return frontier_.size() - pos_;
  }
  /// The schedule advanced: an op with this working set was admitted. If
  /// it matches the head entry the position moves past it (next-use
  /// distances track the real schedule); mismatches leave the frontier
  /// untouched — the planner degrades to advisory scoring.
  void on_admitted(std::span<const ArrayId> ids, DeviceId d);

  /// Victim selection for one admission (moved here from MemoryManager —
  /// the policy half of charge_residency). With an active frontier the
  /// order is future-aware; otherwise it is the historical quota-biased
  /// LRU order, byte-identical plans included. Admission victims are
  /// always quiescent: the faulting op needs its frames now.
  EvictionPlan build_and_apply_plan(DeviceId d, std::size_t shortfall,
                                    std::size_t requested,
                                    std::span<const ArrayId> protect,
                                    TenantId requester);

  /// Rolling lookahead prefetch. Walk the frontier up to kDefaultHorizon
  /// entries past the current position and serve, per device under
  /// memory pressure, its entries with stale pages in batches of up to
  /// kServeEntries — one eviction plan, one PrefetchStep per batch — so
  /// the runtime prices one coalesced write-back and one fetch per DMA
  /// direction for each. Passes re-plan while runway remains: a pass
  /// serves batches until kServeSlack served entries lie ahead of the
  /// schedule position (as far as the runway budget allows), so paging
  /// for entry e is planned while the kernels before it are still queued
  /// and its transfers overlap them.
  ///
  /// Evict behind last use: serve victims may be arrays whose users are
  /// all already issued and still in flight. Such a victim's remaining
  /// uses lie beyond every served entry (the gate below), so its data is
  /// only needed by ops already in the engine; the runtime starts its
  /// page-out behind the last of them. Victims must have a next use
  /// *farther* than every entry served (prefetch never evicts pages a
  /// nearer-frontier op needs); when the batch is infeasible under that
  /// rule it shrinks from the back until it fits, possibly to nothing.
  /// Only engages under memory pressure: a device that has never evicted
  /// and fits its whole frontier load outright is left to the plain fault
  /// path, keeping under-capacity schedules bit-identical.
  std::vector<PrefetchStep> plan_prefetch(TenantId requester);

 private:
  /// Next-use index of `id` on device `d` within the lookahead window
  /// [pos_, pos_+kDefaultHorizon), or kNoNextUse.
  [[nodiscard]] std::size_t next_use(ArrayId id, DeviceId d) const;
  /// Replay-aware tie-break for arrays with no use inside the window: the
  /// next use beyond it, else — the announced frontier being a graph or
  /// recorded list that is typically launched again — the array's first
  /// use shifted by one frontier length; kNoNextUse when the frontier
  /// never touches it. Ranks the victims next_use cannot tell apart, so
  /// the pages the next replay needs first are paged out last.
  [[nodiscard]] std::size_t replay_next_use(ArrayId id, DeviceId d) const;
  /// Core plan builder shared by admission and prefetch. Victims with
  /// next_use <= `max_next_use` are excluded outright (the
  /// never-evict-nearer-frontier gate); kNoNextUse disables the gate.
  /// `behind_last_use` admits victims with in-flight ops (prefetch serves
  /// only). `nothrow` returns an empty plan instead of raising
  /// OutOfMemoryError when the shortfall cannot be met.
  EvictionPlan build_plan(DeviceId d, std::size_t shortfall,
                          std::size_t requested,
                          std::span<const ArrayId> protect,
                          TenantId requester, std::size_t max_next_use,
                          bool behind_last_use, bool nothrow);

  /// Serve the next batch of device `d`'s window [pos_, end) within the
  /// runway budget (see plan_prefetch), appending its step to `steps`.
  /// Returns the runway end — one past the last entry served, or the
  /// first entry past the budget when nothing before it is missing — or
  /// pos_ when even the nearest missing entry is infeasible, or
  /// kNoNextUse when nothing in the window is missing.
  std::size_t serve_batch(DeviceId d, std::size_t end, TenantId requester,
                          std::vector<PrefetchStep>& steps);
  /// One use fact: `id` appears on `device` at frontier entry `entry`.
  /// Built once per announce for the whole frontier, sorted by (id,
  /// device, entry) so every next-use query is one binary search.
  struct Use {
    ArrayId id;
    DeviceId device;
    std::size_t entry;
    [[nodiscard]] bool operator<(const Use& o) const {
      if (id != o.id) return id < o.id;
      if (device != o.device) return device < o.device;
      return entry < o.entry;
    }
  };
  /// First use of (id, d) at or after frontier entry `from`, or kNoNextUse.
  [[nodiscard]] std::size_t first_use_from(ArrayId id, DeviceId d,
                                           std::size_t from) const;

  /// One evictable resident run, scored for the victim sort (see
  /// build_plan). Lives here only so the candidate buffer can be reused
  /// across calls — build_plan runs on the launch hot path.
  struct EvictCandidate {
    bool over_quota = false;
    std::size_t next_use = kNoNextUse;
    std::size_t replay_next = kNoNextUse;
    bool fresh = false;
    std::uint64_t stamp = 0;
    ArrayId id = kInvalidArray;
    std::uint32_t first = 0;
    std::uint32_t count = 0;
    std::size_t bytes = 0;
    bool writeback = false;
  };

  /// Most entries with stale pages one serve covers. A serve is one
  /// write-back and one fetch op, and each op waits for its whole batch:
  /// fewer entries pipeline finer, more entries issue fewer ops and
  /// events (host time and memory per replay). One entry per serve
  /// nearly reaches the compute bound on a replayed chain but takes about
  /// 40% more timeline entries per round; three keeps the op count near a
  /// single merged serve's and still overlaps most paging with compute.
  static constexpr std::size_t kServeEntries = 3;
  /// Re-plan while fewer than this many served entries remain ahead of
  /// the schedule position. A page-out can only start once its victim's
  /// last issued user ends, so the runway must span the write-back plus
  /// the fetch behind it: as deep as the horizon allows while the next
  /// batch still fits inside the window.
  static constexpr std::size_t kServeSlack = kDefaultHorizon - kServeEntries;
  /// The runway — the distinct arrays of the frontier entries from the
  /// position through the farthest one served — may hold at most this
  /// share of the device's capacity. Its pages are off limits as victims:
  /// a runway spanning the device leaves only the arrays the schedule is
  /// about to reuse to evict — with five-entry runways of arrays about a
  /// fifth of the device each, a sync-per-launch replay thrashes.
  static constexpr std::size_t kRunwayPercent = 90;

  /// Per-device frontier pressure facts, computed once at announce.
  struct AnnounceLoad {
    DeviceId device;
    std::size_t load;      ///< total frontier demand, each array once
    std::size_t headroom;  ///< capacity minus use at announce time
  };

  MemoryManager& mm_;
  std::vector<FrontierEntry> frontier_;
  std::vector<Use> uses_;  ///< every (array, device, entry) of frontier_
  std::size_t pos_ = 0;  ///< next entry the schedule will admit
  /// Frontier index (exclusive) up to which prefetch batches have been
  /// served. Advances only on actual serves — never on gate skips — so a
  /// stale mark cannot pin a decision made before later pressure.
  std::size_t served_until_ = 0;
  /// While a device has never evicted and its whole announced load fits
  /// the headroom it had at announce time, no planning may touch it —
  /// under-capacity schedules stay bit-identical, and the fast path is
  /// one comparison per device.
  std::vector<AnnounceLoad> announce_load_;
  std::vector<DeviceId> loud_scratch_;  ///< devices under pressure, per pass
  // Hot-pass scratch: plan_prefetch runs before every launch, so its
  // per-entry buffers must not allocate. serve_* hold the device batch
  // being served: window indices, per-entry ids concatenated, and the
  // flat-range bound after each entry; runway_scratch_ the arrays the
  // runway already counts.
  std::vector<ArrayId> ids_scratch_;
  std::vector<ArrayId> runway_scratch_;
  std::vector<std::size_t> serve_entries_;
  std::vector<ArrayId> serve_flat_;
  std::vector<std::size_t> serve_offsets_;
  std::vector<EvictCandidate> cand_scratch_;  ///< build_plan victim buffer
};

class MemoryManager {
 public:
  /// Unified-memory page size: the granularity of residency, charging, and
  /// eviction (2 MiB — the large-page granule of post-Pascal UM).
  static constexpr std::size_t kDefaultPageBytes = 2u << 20;
  /// Managed-heap bound when none is given: oversubscription needs the
  /// logical heap to exceed device memory, like UM bounded by host RAM.
  static constexpr std::size_t kHostHeapMultiple = 4;
  /// "No quota" sentinel: the tenant may use the whole device.
  static constexpr std::size_t kNoQuota =
      std::numeric_limits<std::size_t>::max();

  /// Single-device roster (legacy entry point).
  explicit MemoryManager(const DeviceSpec& spec)
      : MemoryManager(Machine::single(spec)) {}
  /// Per-device capacities come from the roster's DeviceSpec::memory_bytes.
  /// `page_bytes` sets the paging granule (tests shrink it to exercise
  /// partial-array runs); `host_heap_bytes` bounds alloc (0 = multiple of
  /// the roster's combined device memory).
  explicit MemoryManager(const Machine& machine,
                         std::size_t page_bytes = kDefaultPageBytes,
                         std::size_t host_heap_bytes = 0);
  /// Pinned in place: the planner and the id index point into it.
  MemoryManager(const MemoryManager&) = delete;
  MemoryManager& operator=(const MemoryManager&) = delete;

  /// Reserve managed (logical) capacity for `owner`. Throws
  /// OutOfMemoryError only when the *host* managed heap is exhausted —
  /// device memory is oversubscribable and enforced at admission
  /// (charge_residency).
  ArrayId alloc(std::size_t bytes, std::string name,
                TenantId owner = kDefaultTenant);
  /// Free the array, releasing its logical reservation and every device's
  /// residency charge.
  void free_array(ArrayId id);

  /// Admit the array's non-resident pages to device `d`. When the device
  /// is full, least-recently-used victim extents are paged out to make
  /// room (the returned plan's accounting is already applied; the caller
  /// prices its write-backs). Throws OutOfMemoryError — before any state
  /// changes — when even full eviction cannot make room, i.e. the single
  /// array exceeds what the device can hold.
  EvictionPlan charge_residency(ArrayInfo& a, DeviceId d);
  /// One-plan admission of a whole operation's working set: the combined
  /// shortfall of `ids` is evicted in one LRU pass (never evicting pages
  /// of `ids` themselves), then every array is charged. This is the
  /// transaction-batched fault-servicing entry the runtime uses per
  /// launch. `requester` attributes an OutOfMemoryError to the admitting
  /// tenant (kInvalidTenant falls back to the first array's owner).
  EvictionPlan charge_residency(std::span<const ArrayId> ids, DeviceId d,
                                TenantId requester = kInvalidTenant);

  /// Voluntarily page out every resident page of `a` on `d` (advise
  /// hook). Returns the applied plan; arrays with in-flight device ops are
  /// left untouched (empty plan).
  EvictionPlan evict(ArrayInfo& a, DeviceId d);

  /// Refresh the (array, device) recency stamp. Kernel launches and
  /// migrations touch their arrays; admission touches implicitly.
  void touch(ArrayInfo& a, DeviceId d);
  /// Pin / unpin the array's pages on `d`: pinned pages are exempt from
  /// eviction (and from advise-evict).
  void set_pinned(ArrayInfo& a, DeviceId d, bool pinned);

  [[nodiscard]] ArrayInfo& info(ArrayId id);
  [[nodiscard]] const ArrayInfo& info(ArrayId id) const;
  [[nodiscard]] bool valid(ArrayId id) const;
  /// Nullable lookup: one hash probe where hot paths would otherwise pay
  /// for valid() followed by info().
  [[nodiscard]] ArrayInfo* find(ArrayId id);
  [[nodiscard]] const ArrayInfo* find(ArrayId id) const;

  [[nodiscard]] std::size_t used_bytes() const { return used_; }
  /// Combined roster device memory (the historical aggregate view).
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Managed-heap bound enforced by alloc (>= capacity()).
  [[nodiscard]] std::size_t host_capacity() const { return host_capacity_; }
  [[nodiscard]] std::size_t page_bytes() const { return page_bytes_; }
  [[nodiscard]] std::size_t num_live_arrays() const;

  // --- per-device physical accounting ---
  [[nodiscard]] int num_devices() const {
    return static_cast<int>(device_capacity_.size());
  }
  [[nodiscard]] std::size_t device_capacity(DeviceId d) const;
  /// Bytes currently resident (charged) on device `d`.
  [[nodiscard]] std::size_t device_used_bytes(DeviceId d) const;
  /// High-water mark of device_used_bytes(d) over the manager's lifetime.
  [[nodiscard]] std::size_t device_peak_bytes(DeviceId d) const;
  /// Total bytes paged out of device `d` (drops + write-backs).
  [[nodiscard]] std::size_t device_evicted_bytes(DeviceId d) const;
  /// Bytes of those evictions that required a D2H write-back.
  [[nodiscard]] std::size_t device_writeback_bytes(DeviceId d) const;
  /// Number of eviction plans applied against device `d`.
  [[nodiscard]] long device_evictions(DeviceId d) const;
  /// Bytes eviction could reclaim on `d` right now, excluding pinned
  /// arrays, arrays with pending ops, and `protect`.
  [[nodiscard]] std::size_t evictable_bytes(
      DeviceId d, std::span<const ArrayId> protect = {}) const;

  // --- tenancy: soft quotas and per-tenant accounting ---
  /// Soft residency quota of `t` on device `d` (kNoQuota = unlimited).
  /// Quotas never block an admission; they bias eviction: a tenant
  /// resident beyond its quota has its pages victimized before any
  /// under-quota tenant's (pinned / pending / own-working-set exemptions
  /// unchanged). With no quotas set the victim order is untouched.
  void set_tenant_quota(TenantId t, DeviceId d, std::size_t bytes);
  [[nodiscard]] std::size_t tenant_quota(TenantId t, DeviceId d) const;
  /// Bytes tenant `t` has resident (charged) on device `d` right now.
  [[nodiscard]] std::size_t tenant_used_bytes(TenantId t, DeviceId d) const;
  /// Bytes of tenant `t`'s pages evicted from device `d` so far — the
  /// live per-tenant pressure signal DevicePolicy::MinPressure steers on.
  [[nodiscard]] std::size_t tenant_evicted_bytes(TenantId t,
                                                 DeviceId d) const;
  /// Logical managed-heap bytes tenant `t` has allocated.
  [[nodiscard]] std::size_t tenant_alloc_bytes(TenantId t) const;
  [[nodiscard]] bool tenant_over_quota(TenantId t, DeviceId d) const {
    return tenant_used_bytes(t, d) > tenant_quota(t, d);
  }

  // --- schedule-time planning (policy half; see ResidencyPlanner) ---
  [[nodiscard]] ResidencyPlanner& planner() { return planner_; }
  [[nodiscard]] const ResidencyPlanner& planner() const { return planner_; }
  /// Mark `bytes` of `a` on `d` as prefetched-ahead (wasted-prefetch
  /// tracking): pages evicted before a launch consumes the mark count as
  /// wasted.
  void note_prefetched(ArrayInfo& a, DeviceId d, std::size_t bytes);
  /// A launch admitted `a` on `d`: the prefetched bytes were useful.
  void consume_prefetched(ArrayInfo& a, DeviceId d);
  /// Prefetched bytes paged out before any launch consumed them.
  [[nodiscard]] std::size_t wasted_prefetch_bytes() const {
    return wasted_prefetch_;
  }

 private:
  friend class ResidencyPlanner;  // policy reads the accounting directly
  void check_device(DeviceId d, const char* who) const;
  /// The one victim-eligibility rule (shared by the plan builder and
  /// evictable_bytes): live, unpinned on `d`, outside the protected
  /// working set, and quiescent — unless `behind_last_use`, where
  /// in-flight users are allowed because the caller gates the page-out
  /// on them (prefetch serves under an active frontier).
  [[nodiscard]] static bool eviction_candidate(
      const ArrayInfo& a, DeviceId d, std::span<const ArrayId> protect,
      bool behind_last_use = false);
  /// Grow the per-tenant accounting vectors to cover tenant `t`.
  void ensure_tenant(TenantId t);
  /// Apply one page-out: clear residency/freshness, hand the only-copy
  /// data to the host on write-back, release the charge.
  void apply_page_out(const PageOut& po, DeviceId d);
  /// Charge every non-resident page of `a` on `d` (capacity must already
  /// be available) and touch the recency stamp.
  void charge_pages(ArrayInfo& a, DeviceId d);

  std::size_t capacity_;       ///< combined roster device memory
  std::size_t host_capacity_;  ///< managed-heap bound (alloc)
  std::size_t page_bytes_;
  std::size_t used_ = 0;
  std::size_t wasted_prefetch_ = 0;
  std::uint64_t lru_clock_ = 0;
  ResidencyPlanner planner_{*this};
  ArrayId next_id_ = 1;
  /// Live arrays. Node-based, so ArrayInfo references stay valid across
  /// alloc; its iteration order is part of the eviction scans' tie-breaks.
  std::unordered_map<ArrayId, ArrayInfo> arrays_;
  /// Id-indexed view of arrays_ (ids are dense from 1): info()/find() are
  /// one bounds-checked load. Freed ids hold nullptr.
  std::vector<ArrayInfo*> by_id_;
  std::vector<std::size_t> device_capacity_;
  std::vector<std::size_t> device_used_;
  std::vector<std::size_t> device_peak_;
  std::vector<std::size_t> device_evicted_;
  std::vector<std::size_t> device_writeback_;
  std::vector<long> device_evictions_;
  // --- per-(tenant, device) accounting (grown on demand; tenant ids are
  // small dense integers handed out by the TenantManager) ---
  std::vector<std::vector<std::size_t>> tenant_quota_;    ///< kNoQuota gap
  std::vector<std::vector<std::size_t>> tenant_used_;
  std::vector<std::vector<std::size_t>> tenant_evicted_;
  std::vector<std::size_t> tenant_alloc_;  ///< logical heap bytes
};

}  // namespace psched::sim
