#include "sim/memory.hpp"

#include <algorithm>
#include <utility>

namespace psched::sim {

MemoryManager::MemoryManager(const Machine& machine, std::size_t page_bytes,
                             std::size_t host_heap_bytes)
    : page_bytes_(page_bytes) {
  const int ndev = machine.num_devices();
  if (ndev < 1) throw ApiError("MemoryManager: machine roster is empty");
  if (page_bytes_ == 0) throw ApiError("MemoryManager: zero page size");
  device_capacity_.reserve(static_cast<std::size_t>(ndev));
  for (DeviceId d = 0; d < ndev; ++d) {
    device_capacity_.push_back(machine.device(d).memory_bytes);
  }
  device_used_.assign(static_cast<std::size_t>(ndev), 0);
  device_peak_.assign(static_cast<std::size_t>(ndev), 0);
  device_evicted_.assign(static_cast<std::size_t>(ndev), 0);
  device_writeback_.assign(static_cast<std::size_t>(ndev), 0);
  device_evictions_.assign(static_cast<std::size_t>(ndev), 0);
  // Combined roster capacity: the historical aggregate view (peak device
  // residency bound). The managed heap itself may oversubscribe it — UM
  // arrays live in host RAM and page in on demand.
  capacity_ = 0;
  for (const std::size_t c : device_capacity_) capacity_ += c;
  host_capacity_ =
      host_heap_bytes != 0 ? host_heap_bytes : kHostHeapMultiple * capacity_;
}

void MemoryManager::check_device(DeviceId d, const char* who) const {
  if (d < 0 || static_cast<std::size_t>(d) >= device_capacity_.size()) {
    throw ApiError(std::string(who) + ": invalid device " +
                   std::to_string(d));
  }
}

std::size_t MemoryManager::device_capacity(DeviceId d) const {
  check_device(d, "device_capacity");
  return device_capacity_[static_cast<std::size_t>(d)];
}

std::size_t MemoryManager::device_used_bytes(DeviceId d) const {
  check_device(d, "device_used_bytes");
  return device_used_[static_cast<std::size_t>(d)];
}

std::size_t MemoryManager::device_peak_bytes(DeviceId d) const {
  check_device(d, "device_peak_bytes");
  return device_peak_[static_cast<std::size_t>(d)];
}

std::size_t MemoryManager::device_evicted_bytes(DeviceId d) const {
  check_device(d, "device_evicted_bytes");
  return device_evicted_[static_cast<std::size_t>(d)];
}

std::size_t MemoryManager::device_writeback_bytes(DeviceId d) const {
  check_device(d, "device_writeback_bytes");
  return device_writeback_[static_cast<std::size_t>(d)];
}

long MemoryManager::device_evictions(DeviceId d) const {
  check_device(d, "device_evictions");
  return device_evictions_[static_cast<std::size_t>(d)];
}

void MemoryManager::ensure_tenant(TenantId t) {
  if (t < 0 || t >= kMaxTenants) {
    throw ApiError("invalid tenant id " + std::to_string(t));
  }
  const auto n = static_cast<std::size_t>(t) + 1;
  if (tenant_used_.size() >= n) return;
  tenant_quota_.resize(
      n, std::vector<std::size_t>(device_capacity_.size(), kNoQuota));
  tenant_used_.resize(n,
                      std::vector<std::size_t>(device_capacity_.size(), 0));
  tenant_evicted_.resize(
      n, std::vector<std::size_t>(device_capacity_.size(), 0));
  tenant_alloc_.resize(n, 0);
}

void MemoryManager::set_tenant_quota(TenantId t, DeviceId d,
                                     std::size_t bytes) {
  check_device(d, "set_tenant_quota");
  ensure_tenant(t);
  tenant_quota_[static_cast<std::size_t>(t)][static_cast<std::size_t>(d)] =
      bytes;
}

std::size_t MemoryManager::tenant_quota(TenantId t, DeviceId d) const {
  check_device(d, "tenant_quota");
  if (t < 0 || static_cast<std::size_t>(t) >= tenant_quota_.size()) {
    return kNoQuota;
  }
  return tenant_quota_[static_cast<std::size_t>(t)]
                      [static_cast<std::size_t>(d)];
}

std::size_t MemoryManager::tenant_used_bytes(TenantId t, DeviceId d) const {
  check_device(d, "tenant_used_bytes");
  if (t < 0 || static_cast<std::size_t>(t) >= tenant_used_.size()) return 0;
  return tenant_used_[static_cast<std::size_t>(t)]
                     [static_cast<std::size_t>(d)];
}

std::size_t MemoryManager::tenant_evicted_bytes(TenantId t,
                                                DeviceId d) const {
  check_device(d, "tenant_evicted_bytes");
  if (t < 0 || static_cast<std::size_t>(t) >= tenant_evicted_.size()) {
    return 0;
  }
  return tenant_evicted_[static_cast<std::size_t>(t)]
                        [static_cast<std::size_t>(d)];
}

std::size_t MemoryManager::tenant_alloc_bytes(TenantId t) const {
  if (t < 0 || static_cast<std::size_t>(t) >= tenant_alloc_.size()) return 0;
  return tenant_alloc_[static_cast<std::size_t>(t)];
}

void MemoryManager::touch(ArrayInfo& a, DeviceId d) {
  check_device(d, "touch");
  if (a.lru_stamp.size() < device_capacity_.size()) {
    a.lru_stamp.resize(device_capacity_.size(), 0);
  }
  a.lru_stamp[static_cast<std::size_t>(d)] = ++lru_clock_;
}

void MemoryManager::set_pinned(ArrayInfo& a, DeviceId d, bool pinned) {
  check_device(d, "set_pinned");
  const std::uint32_t bit = 1u << d;
  if (pinned) {
    a.pinned_mask |= bit;
  } else {
    a.pinned_mask &= ~bit;
  }
}

bool MemoryManager::eviction_candidate(const ArrayInfo& a, DeviceId d,
                                       std::span<const ArrayId> protect,
                                       bool behind_last_use) {
  if (a.pinned_on(d) || (!behind_last_use && a.has_pending())) return false;
  return std::find(protect.begin(), protect.end(), a.id) == protect.end();
}

std::size_t MemoryManager::evictable_bytes(
    DeviceId d, std::span<const ArrayId> protect) const {
  check_device(d, "evictable_bytes");
  std::size_t n = 0;
  for (const auto& [id, a] : arrays_) {
    if (eviction_candidate(a, d, protect)) n += a.resident_bytes_on(d);
  }
  return n;
}

void MemoryManager::apply_page_out(const PageOut& po, DeviceId d) {
  ArrayInfo& a = info(po.array);
  const std::uint32_t bit = 1u << d;
  a.apply_range(po.first, po.count, [&](PageExtent& e) {
    e.resident_mask &= ~bit;
    e.fresh_mask &= ~bit;
    // Write-back hands the only current copy to the host; a drop leaves a
    // current copy elsewhere (peer device or host) by construction.
    if (po.writeback) e.host_fresh = true;
  });
  // Prefetched pages evicted before any launch consumed them were moved
  // for nothing — the planner's miss metric.
  if (static_cast<std::size_t>(d) < a.prefetch_pending.size()) {
    std::size_t& pending = a.prefetch_pending[static_cast<std::size_t>(d)];
    if (pending > 0) {
      const std::size_t wasted = std::min(pending, po.bytes);
      pending -= wasted;
      wasted_prefetch_ += wasted;
    }
  }
  device_used_[static_cast<std::size_t>(d)] -= po.bytes;
  device_evicted_[static_cast<std::size_t>(d)] += po.bytes;
  ensure_tenant(a.owner);
  tenant_used_[static_cast<std::size_t>(a.owner)]
              [static_cast<std::size_t>(d)] -= po.bytes;
  tenant_evicted_[static_cast<std::size_t>(a.owner)]
                 [static_cast<std::size_t>(d)] += po.bytes;
  if (po.writeback) {
    device_writeback_[static_cast<std::size_t>(d)] += po.bytes;
    a.host_touched = true;  // the host now holds real data for these pages
  }
}

void MemoryManager::note_prefetched(ArrayInfo& a, DeviceId d,
                                    std::size_t bytes) {
  check_device(d, "note_prefetched");
  if (bytes == 0) return;
  if (a.prefetch_pending.size() < device_capacity_.size()) {
    a.prefetch_pending.resize(device_capacity_.size(), 0);
  }
  a.prefetch_pending[static_cast<std::size_t>(d)] += bytes;
}

void MemoryManager::consume_prefetched(ArrayInfo& a, DeviceId d) {
  check_device(d, "consume_prefetched");
  if (static_cast<std::size_t>(d) < a.prefetch_pending.size()) {
    a.prefetch_pending[static_cast<std::size_t>(d)] = 0;
  }
}

// --- ResidencyPlanner (policy half of the split) ---------------------------

void ResidencyPlanner::announce(std::vector<FrontierEntry> entries) {
  frontier_ = std::move(entries);
  pos_ = 0;
  served_until_ = 0;
  uses_.clear();
  for (std::size_t k = 0; k < frontier_.size(); ++k) {
    for (const ArrayId a : frontier_[k].arrays) {
      uses_.push_back({a, frontier_[k].device, k});
    }
  }
  std::sort(uses_.begin(), uses_.end());
  // Per-device total demand bound, each (array, device) pair once, plus
  // the device's headroom right now. Freed arrays keep their contribution
  // (the bound only ever over-estimates, which errs toward planning).
  announce_load_.clear();
  for (std::size_t i = 0; i < uses_.size(); ++i) {
    const ArrayId a = uses_[i].id;
    const DeviceId d = uses_[i].device;
    if (i > 0 && uses_[i - 1].id == a && uses_[i - 1].device == d) continue;
    const auto di = static_cast<std::size_t>(d);
    if (d < 0 || di >= mm_.device_capacity_.size()) continue;
    const ArrayInfo* info = mm_.find(a);
    if (info == nullptr) continue;
    auto it =
        std::find_if(announce_load_.begin(), announce_load_.end(),
                     [&](const AnnounceLoad& p) { return p.device == d; });
    if (it == announce_load_.end()) {
      const std::size_t cap = mm_.device_capacity_[di];
      const std::size_t used = mm_.device_used_[di];
      announce_load_.push_back(
          {d, info->bytes, cap > used ? cap - used : 0});
    } else {
      it->load += info->bytes;
    }
  }
}

void ResidencyPlanner::clear() {
  frontier_.clear();
  uses_.clear();
  pos_ = 0;
  served_until_ = 0;
  announce_load_.clear();
}

namespace {
/// Order- and duplicate-insensitive working-set equality (launch argument
/// lists may repeat an array; the frontier stores whatever the announcer
/// recorded).
bool same_working_set(std::span<const ArrayId> a,
                      const std::vector<ArrayId>& b) {
  // Mutual-membership equality: sets are a handful of ids, so the
  // quadratic scan beats sorting copies (this runs on every launch).
  for (const ArrayId id : a) {
    if (std::find(b.begin(), b.end(), id) == b.end()) return false;
  }
  for (const ArrayId id : b) {
    if (std::find(a.begin(), a.end(), id) == a.end()) return false;
  }
  return true;
}
}  // namespace

void ResidencyPlanner::on_admitted(std::span<const ArrayId> ids, DeviceId d) {
  if (!active()) return;
  const FrontierEntry& head = frontier_[pos_];
  // Only an exact head match advances: the frontier is advisory, and a
  // schedule that diverges from the announcement must not mis-track
  // next-use distances (stale scoring is still deterministic).
  if (head.device != d || !same_working_set(ids, head.arrays)) return;
  ++pos_;
}

std::size_t ResidencyPlanner::first_use_from(ArrayId id, DeviceId d,
                                             std::size_t from) const {
  const auto it =
      std::lower_bound(uses_.begin(), uses_.end(), Use{id, d, from});
  return it != uses_.end() && it->id == id && it->device == d ? it->entry
                                                               : kNoNextUse;
}

std::size_t ResidencyPlanner::next_use(ArrayId id, DeviceId d) const {
  if (!active()) return kNoNextUse;
  const std::size_t k = first_use_from(id, d, pos_);
  return k < pos_ + kDefaultHorizon ? k : kNoNextUse;
}

std::size_t ResidencyPlanner::replay_next_use(ArrayId id, DeviceId d) const {
  if (!active()) return kNoNextUse;
  const std::size_t later = first_use_from(id, d, pos_ + kDefaultHorizon);
  if (later != kNoNextUse) return later;
  const std::size_t first = first_use_from(id, d, 0);
  return first != kNoNextUse ? first + frontier_.size() : kNoNextUse;
}

EvictionPlan ResidencyPlanner::build_and_apply_plan(
    DeviceId d, std::size_t shortfall, std::size_t requested,
    std::span<const ArrayId> protect, TenantId requester) {
  return build_plan(d, shortfall, requested, protect, requester, kNoNextUse,
                    /*behind_last_use=*/false, /*nothrow=*/false);
}

EvictionPlan ResidencyPlanner::build_plan(
    DeviceId d, std::size_t shortfall, std::size_t requested,
    std::span<const ArrayId> protect, TenantId requester,
    std::size_t max_next_use, bool behind_last_use, bool nothrow) {
  MemoryManager& mm = mm_;
  const std::uint32_t bit = 1u << d;
  // Victim candidates: every resident extent of every live, unpinned
  // array outside the faulting working set — quiescent ones only, unless
  // `behind_last_use`. `over_quota` selects the outermost eviction tier:
  // runs owned by a tenant resident beyond its soft quota are victimized
  // before anyone else's (the quota's only enforcement). `next_use`
  // scores the tier inside it when a frontier is active: runs the
  // upcoming schedule touches *latest* go first (Belady-style), runs it
  // does not touch inside the window (kNoNextUse) before all of those,
  // ranked among themselves by `replay_next` (farthest first). `fresh`
  // ranks inside that: stale copies (a current copy exists elsewhere —
  // free to drop) go before fresh ones (may need a write-back). With no
  // frontier every next_use and replay_next is kNoNextUse and the order
  // is the historical quota-biased LRU, byte for byte.
  using Candidate = EvictCandidate;
  const bool gated = max_next_use != kNoNextUse;
  std::vector<Candidate>& cands = cand_scratch_;
  cands.clear();
  std::size_t evictable = 0;
  for (const auto& [id, a] : mm.arrays_) {
    if (!MemoryManager::eviction_candidate(a, d, protect, behind_last_use)) {
      continue;
    }
    const std::size_t nu = next_use(id, d);
    // Never-evict-nearer-frontier gate (prefetch planning only): pages an
    // op at or before `max_next_use` will touch are off limits.
    if (gated && nu <= max_next_use) continue;
    const std::size_t replay_nu =
        nu == kNoNextUse ? replay_next_use(id, d) : kNoNextUse;
    const std::uint64_t stamp =
        static_cast<std::size_t>(d) < a.lru_stamp.size()
            ? a.lru_stamp[static_cast<std::size_t>(d)]
            : 0;
    // Quota standing is judged once, at plan-build entry: a deterministic
    // order even though applying the plan drains the over-quota tenant.
    const bool over = mm.tenant_over_quota(a.owner, d);
    for (const PageExtent& e : a.extents) {
      if ((e.resident_mask & bit) == 0) continue;
      Candidate c;
      c.over_quota = over;
      c.next_use = nu;
      c.replay_next = replay_nu;
      c.fresh = (e.fresh_mask & bit) != 0;
      // A write-back is needed only when this device holds the *only*
      // current copy of the run.
      c.writeback = c.fresh && e.fresh_mask == bit && !e.host_fresh;
      c.stamp = stamp;
      c.id = id;
      c.first = e.first;
      c.count = e.count;
      c.bytes = a.run_bytes(e.first, e.count);
      cands.push_back(c);
      evictable += c.bytes;
    }
  }
  if (evictable < shortfall) {
    if (nothrow) {
      // Prefetch planning backs off instead of raising: the admission
      // path will deal with this entry when its turn actually comes.
      EvictionPlan none;
      none.device = d;
      return none;
    }
    if (requester == kInvalidTenant && !protect.empty()) {
      requester = mm.info(protect.front()).owner;
    }
    throw OutOfMemoryError(
        d, requested, mm.device_used_[static_cast<std::size_t>(d)],
        mm.device_capacity_[static_cast<std::size_t>(d)], evictable,
        requester, mm.tenant_used_bytes(requester, d),
        "device " + std::to_string(d) + " out of memory");
  }
  // Deterministic victim order: over-quota tenants' runs first, inside
  // each tier farthest next use first (the replay-aware use beyond the
  // window breaking ties), then stale runs before fresh, then by
  // last-access stamp, ties by (array id, first page).
  std::sort(cands.begin(), cands.end(),
            [](const Candidate& x, const Candidate& y) {
              if (x.over_quota != y.over_quota) return x.over_quota;
              if (x.next_use != y.next_use) return x.next_use > y.next_use;
              if (x.replay_next != y.replay_next) {
                return x.replay_next > y.replay_next;
              }
              if (x.fresh != y.fresh) return !x.fresh;
              if (x.stamp != y.stamp) return x.stamp < y.stamp;
              if (x.id != y.id) return x.id < y.id;
              return x.first < y.first;
            });

  EvictionPlan plan;
  plan.device = d;
  std::size_t freed = 0;
  for (const Candidate& c : cands) {
    if (freed >= shortfall) break;
    PageOut po;
    po.array = c.id;
    po.writeback = c.writeback;
    if (freed + c.bytes <= shortfall || c.count == 1 ||
        (active() && c.bytes <= 2 * (shortfall - freed))) {
      // Whole run. Under frontier scoring a modestly oversized run (up to
      // 2x the remaining shortfall) is taken whole as well: splitting it
      // leaves a fragment the next plan pages out in a second tiny op,
      // and over round-robin reuse those fragments compound into an op
      // storm (the 1.5x-ratio inversion). Without a frontier the split is
      // exact, byte-identical to the historical plans.
      po.first = c.first;
      po.count = c.count;
      po.bytes = c.bytes;
    } else {
      // Partial victim: take just enough pages from the front of the run.
      const ArrayInfo& a = mm.info(c.id);
      std::size_t taken = 0;
      std::uint32_t n = 0;
      while (n < c.count && freed + taken < shortfall) {
        taken += a.page_bytes_of(c.first + n);
        ++n;
      }
      po.first = c.first;
      po.count = n;
      po.bytes = taken;
    }
    freed += po.bytes;
    if (po.writeback) plan.writeback_bytes += po.bytes;
    mm.apply_page_out(po, d);
    plan.page_outs.push_back(po);
  }
  plan.bytes_freed = freed;
  ++mm.device_evictions_[static_cast<std::size_t>(d)];
  return plan;
}

std::size_t ResidencyPlanner::serve_batch(DeviceId d, std::size_t end,
                                          TenantId requester,
                                          std::vector<PrefetchStep>& steps) {
  // Gather the first kServeEntries entries in [pos_, end) with missing
  // pages, within the runway budget, then serve them as one batch,
  // shrinking from the back until the never-evict-nearer rule can be
  // satisfied (a victim must have a next use farther than EVERY entry
  // served, so serving less far ahead only loosens the gate). The window
  // is rescanned from the position every time: residency goes stale fast
  // under eviction, so a sticky "planned" mark would pin decisions made
  // before the pressure that invalidates them. Entries already served
  // come back with nothing missing and are skipped for free. All gather
  // state lives in member scratch — this runs on the launch hot path.
  const auto di = static_cast<std::size_t>(d);
  const std::size_t budget = mm_.device_capacity_[di] * kRunwayPercent / 100;
  std::size_t runway = 0;  // distinct bytes of the entries walked so far
  std::size_t stop = end;  // first entry past the runway budget
  runway_scratch_.clear();
  serve_entries_.clear();
  serve_flat_.clear();
  serve_offsets_.clear();
  serve_offsets_.push_back(0);
  for (std::size_t k = pos_;
       k < end && serve_entries_.size() < kServeEntries; ++k) {
    const FrontierEntry& fe = frontier_[k];
    if (fe.device != d) continue;
    // The entry's working set (deduped, freed ids dropped — the frontier
    // is advisory) and the bytes it still has to charge.
    std::vector<ArrayId>& ids = ids_scratch_;
    ids.clear();
    std::size_t needed = 0;
    for (const ArrayId id : fe.arrays) {
      if (std::find(ids.begin(), ids.end(), id) != ids.end()) continue;
      const ArrayInfo* a = mm_.find(id);
      if (a == nullptr) continue;
      ids.push_back(id);
      needed += a->bytes - a->resident_bytes_on(d);
      if (std::find(runway_scratch_.begin(), runway_scratch_.end(), id) ==
          runway_scratch_.end()) {
        runway_scratch_.push_back(id);
        runway += a->bytes;
      }
    }
    // The runway reaches only as far as the budget (the entry being
    // admitted is always in it).
    if (k > pos_ && runway > budget) {
      stop = k;
      break;
    }
    // Fully charged already (admitted, or planned by an earlier serve):
    // nothing to move for this entry.
    if (needed == 0) continue;
    serve_entries_.push_back(k);
    serve_flat_.insert(serve_flat_.end(), ids.begin(), ids.end());
    serve_offsets_.push_back(serve_flat_.size());
  }
  // Nothing missing up to the window end (or up to the budget).
  if (serve_entries_.empty()) return stop == end ? kNoNextUse : stop;
  for (std::size_t m = serve_entries_.size(); m >= 1; --m) {
    std::vector<ArrayId>& uids = ids_scratch_;
    uids.clear();
    std::size_t needed = 0;
    for (std::size_t i = 0; i < serve_offsets_[m]; ++i) {
      const ArrayId id = serve_flat_[i];
      if (std::find(uids.begin(), uids.end(), id) != uids.end()) continue;
      const ArrayInfo* a = mm_.find(id);
      if (a == nullptr) continue;
      uids.push_back(id);
      needed += a->bytes - a->resident_bytes_on(d);
    }
    const std::size_t mark = serve_entries_[m - 1] + 1;
    if (needed == 0) return mark;
    const std::size_t used = mm_.device_used_[di];
    const std::size_t cap = mm_.device_capacity_[di];
    PrefetchStep step;
    step.entry = serve_entries_.front();
    step.device = d;
    if (used + needed > cap) {
      const std::size_t shortfall = used + needed - cap;
      step.evictions = build_plan(
          d, shortfall, needed, uids, requester,
          /*max_next_use=*/serve_entries_[m - 1],
          /*behind_last_use=*/true, /*nothrow=*/true);
      if (step.evictions.bytes_freed < shortfall) continue;  // shrink
    }
    for (const ArrayId id : uids) {
      // Charged by an earlier batch of this pass: its fetch is not issued
      // yet (the pages still read stale), and that batch moves it.
      if (std::any_of(steps.begin(), steps.end(),
                      [&](const PrefetchStep& st) {
                        return st.device == d &&
                               std::find(st.arrays.begin(), st.arrays.end(),
                                         id) != st.arrays.end();
                      })) {
        continue;
      }
      ArrayInfo& a = mm_.info(id);
      const bool uncharged = a.resident_bytes_on(d) < a.bytes;
      const std::size_t stale = a.stale_bytes_on(d);
      mm_.charge_pages(a, d);
      if (stale == 0 && !uncharged) continue;  // resident and current
      mm_.note_prefetched(a, d, stale);
      step.arrays.push_back(id);
      step.stale_bytes.push_back(stale);
    }
    steps.push_back(std::move(step));
    // The runway ends right after the last served entry: the serve's own
    // victims may be arrays that backed later window entries verified
    // resident during the gather, so nothing beyond it can be trusted.
    return mark;
  }
  return pos_;  // even the nearest entry is infeasible: retry next pass
}

std::vector<PrefetchStep> ResidencyPlanner::plan_prefetch(
    TenantId requester) {
  std::vector<PrefetchStep> steps;
  if (!active()) return steps;
  // Per-device pressure verdicts. A device is quiet while it has never
  // evicted and the whole announced frontier fits the headroom it had at
  // announce time: planning must not touch it (under-capacity schedules
  // stay bit-identical), and proving so costs one comparison per device.
  // A device that will oversubscribe is loud from the first pass, so
  // prefetch covers even the cold start.
  loud_scratch_.clear();
  for (const AnnounceLoad& al : announce_load_) {
    const auto di = static_cast<std::size_t>(al.device);
    if (mm_.device_evictions_[di] != 0 || al.load > al.headroom) {
      loud_scratch_.push_back(al.device);
    }
  }
  if (loud_scratch_.empty()) return steps;
  // Rolling runway: enough served entries still lie ahead of the one
  // being admitted — nothing to do until the schedule consumes some.
  if (served_until_ >= pos_ + kServeSlack) return steps;
  const std::size_t end = std::min(frontier_.size(), pos_ + kDefaultHorizon);
  // Per loud device: serve batches until its runway reaches the slack,
  // nothing more can be served (all charged, budget spent, or the gate
  // stops a batch). The new runway ends at the first entry any device
  // left unserved (min across devices; `end` when no device has anything
  // missing in the window).
  std::size_t new_served = end;
  for (const DeviceId d : loud_scratch_) {
    mm_.check_device(d, "plan_prefetch");
    std::size_t mark = pos_;
    for (;;) {
      const std::size_t next = serve_batch(d, end, requester, steps);
      if (next == kNoNextUse) {  // everything in the window is charged
        mark = end;
        break;
      }
      if (next <= mark) break;  // infeasible, or the budget is spent
      mark = next;
      if (mark >= pos_ + kServeSlack) break;
    }
    new_served = std::min(new_served, mark);
  }
  served_until_ = std::max(new_served, pos_);
  return steps;
}

void MemoryManager::charge_pages(ArrayInfo& a, DeviceId d) {
  const std::uint32_t bit = 1u << d;
  std::size_t charged = 0;
  a.apply_range(0, a.num_pages, [&](PageExtent& e) {
    if ((e.resident_mask & bit) == 0) {
      charged += a.run_bytes(e.first, e.count);
      e.resident_mask |= bit;
    }
  });
  auto& used = device_used_[static_cast<std::size_t>(d)];
  used += charged;
  auto& peak = device_peak_[static_cast<std::size_t>(d)];
  peak = std::max(peak, used);
  ensure_tenant(a.owner);
  tenant_used_[static_cast<std::size_t>(a.owner)]
              [static_cast<std::size_t>(d)] += charged;
  touch(a, d);
}

EvictionPlan MemoryManager::charge_residency(ArrayInfo& a, DeviceId d) {
  const ArrayId ids[] = {a.id};
  return charge_residency(std::span<const ArrayId>(ids), d);
}

EvictionPlan MemoryManager::charge_residency(std::span<const ArrayId> ids,
                                             DeviceId d, TenantId requester) {
  check_device(d, "charge_residency");
  std::size_t needed = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    // Arrays passed several times (duplicate kernel arguments) land once.
    if (std::find(ids.begin(), ids.begin() + static_cast<std::ptrdiff_t>(i),
                  ids[i]) != ids.begin() + static_cast<std::ptrdiff_t>(i)) {
      continue;
    }
    const ArrayInfo& a = info(ids[i]);
    needed += a.bytes - a.resident_bytes_on(d);
  }
  EvictionPlan plan;
  plan.device = d;
  const std::size_t used = device_used_[static_cast<std::size_t>(d)];
  const std::size_t cap = device_capacity_[static_cast<std::size_t>(d)];
  if (needed > 0 && used + needed > cap) {
    // One eviction plan for the whole working set (the faulting op's own
    // arrays are never victims): this is what makes a 2x-capacity working
    // set thrash instead of die. Victim *selection* lives in the planner
    // (the policy half); with no frontier announced the plan is
    // byte-identical to the historical admission-time LRU one.
    plan = planner_.build_and_apply_plan(d, used + needed - cap, needed,
                                         ids, requester);
  }
  for (const ArrayId id : ids) charge_pages(info(id), d);
  return plan;
}

EvictionPlan MemoryManager::evict(ArrayInfo& a, DeviceId d) {
  check_device(d, "evict");
  EvictionPlan plan;
  plan.device = d;
  if (a.has_pending() || a.pinned_on(d)) return plan;
  const std::uint32_t bit = 1u << d;
  // Snapshot the resident runs first: apply_page_out rewrites the extents.
  std::vector<PageOut> outs;
  for (const PageExtent& e : a.extents) {
    if ((e.resident_mask & bit) == 0) continue;
    PageOut po;
    po.array = a.id;
    po.first = e.first;
    po.count = e.count;
    po.bytes = a.run_bytes(e.first, e.count);
    po.writeback = (e.fresh_mask & bit) != 0 && e.fresh_mask == bit &&
                   !e.host_fresh;
    outs.push_back(po);
  }
  for (const PageOut& po : outs) {
    apply_page_out(po, d);
    plan.bytes_freed += po.bytes;
    if (po.writeback) plan.writeback_bytes += po.bytes;
    plan.page_outs.push_back(po);
  }
  if (!plan.empty()) ++device_evictions_[static_cast<std::size_t>(d)];
  return plan;
}

ArrayId MemoryManager::alloc(std::size_t bytes, std::string name,
                             TenantId owner) {
  if (bytes == 0) throw ApiError("alloc: zero-byte allocation");
  ensure_tenant(owner);
  if (used_ + bytes > host_capacity_) {
    throw OutOfMemoryError(kInvalidDevice, bytes, used_, host_capacity_, 0,
                           owner, tenant_alloc_bytes(owner),
                           "managed heap out of memory");
  }
  ArrayInfo info;
  info.id = next_id_++;
  info.name = std::move(name);
  info.owner = owner;
  info.bytes = bytes;
  info.page_size = page_bytes_;
  info.num_pages =
      static_cast<std::uint32_t>((bytes + page_bytes_ - 1) / page_bytes_);
  info.extents.push_back({0, info.num_pages, 0, 0, true});
  info.lru_stamp.assign(device_capacity_.size(), 0);
  used_ += bytes;
  tenant_alloc_[static_cast<std::size_t>(owner)] += bytes;
  const ArrayId id = info.id;
  ArrayInfo& stored = arrays_.emplace(id, std::move(info)).first->second;
  if (by_id_.size() <= static_cast<std::size_t>(id)) {
    by_id_.resize(static_cast<std::size_t>(id) + 1, nullptr);
  }
  by_id_[static_cast<std::size_t>(id)] = &stored;
  return id;
}

void MemoryManager::free_array(ArrayId id) {
  auto it = arrays_.find(id);
  if (it == arrays_.end()) {
    throw ApiError("free_array: invalid or double free");
  }
  ArrayInfo& a = it->second;
  if (a.has_pending()) {
    throw ApiError("free_array: array '" + a.name +
                   "' still in use by device operations");
  }
  used_ -= a.bytes;
  ensure_tenant(a.owner);
  tenant_alloc_[static_cast<std::size_t>(a.owner)] -= a.bytes;
  // Release every device's per-run residency charge.
  for (const PageExtent& e : a.extents) {
    std::uint32_t mask = e.resident_mask;
    const std::size_t run = a.run_bytes(e.first, e.count);
    while (mask != 0) {
      const int d = std::countr_zero(mask);
      mask &= mask - 1;
      device_used_[static_cast<std::size_t>(d)] -= run;
      tenant_used_[static_cast<std::size_t>(a.owner)]
                  [static_cast<std::size_t>(d)] -= run;
    }
  }
  // Erase outright: the eviction scan walks the live map on every
  // over-capacity fault, so freed entries must not accumulate there.
  by_id_[static_cast<std::size_t>(id)] = nullptr;
  arrays_.erase(it);
}

ArrayInfo& MemoryManager::info(ArrayId id) {
  return const_cast<ArrayInfo&>(std::as_const(*this).info(id));
}

const ArrayInfo& MemoryManager::info(ArrayId id) const {
  const ArrayInfo* a = find(id);
  if (a == nullptr) {
    throw ApiError("info: unknown or freed array " + std::to_string(id));
  }
  return *a;
}

bool MemoryManager::valid(ArrayId id) const { return find(id) != nullptr; }

ArrayInfo* MemoryManager::find(ArrayId id) {
  return const_cast<ArrayInfo*>(std::as_const(*this).find(id));
}

const ArrayInfo* MemoryManager::find(ArrayId id) const {
  return id > 0 && static_cast<std::size_t>(id) < by_id_.size()
             ? by_id_[static_cast<std::size_t>(id)]
             : nullptr;
}

std::size_t MemoryManager::num_live_arrays() const { return arrays_.size(); }

}  // namespace psched::sim
