// Memory ratchet for the engine's per-id history (op records and event
// states, kept for every op and event ever issued). Global operator new
// is replaced by a version that counts allocations and tracks the bytes
// held, and dag_flood-shaped waves on a 4-device engine must stay under
// fixed bounds on the heap still held per issued op id after the drain
// and on the allocations per wave in steady state.
//
// Scenario: 64 streams over 4 devices. Each wave is one transaction of
// 1024 ops (kernels, host and peer copies) with a cross-stream event edge
// (create_event + record_event + wait_event) before every 8th op, drained
// with run_all; the timeline is cleared after each wave, as dag_flood
// does. With the history in doubling vectors (32-byte op records, 48-byte
// event states each keeping its own waiter buffer), this scenario held
// 47.9 B per id and made 315.3 allocations per wave. With 24-byte records
// in fixed chunks and pooled waiter lists it held 31.1 B per id and made
// 270.2 allocations per wave, 256 of them the wait markers' `waits` and
// the gate ops' `gated_events` vectors (one each per event edge). With
// the gated-event lists pooled and a marker's event carried inline, an
// event edge allocates nothing: 30.7 B per id and 18.2 allocations per
// wave, 17.9 of them the stream FIFOs' deque nodes. With the FIFOs linked
// through the op slab and events reduced to 16-byte {gate, record time}
// handles (a wait binds to its gate op at the call), it held 29.2 B per
// id and made 0.3 allocations per wave. The bounds leave 4 bytes (over
// 31.1) and 20 allocations of headroom.
#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "sim/engine.hpp"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<long> g_allocs{0};
std::atomic<long> g_held{0};  ///< bytes currently allocated through new
}  // namespace

void* operator new(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n != 0 ? n : 1)) {
    g_held.fetch_add(static_cast<long>(malloc_usable_size(p)),
                     std::memory_order_relaxed);
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  g_held.fetch_sub(static_cast<long>(malloc_usable_size(p)),
                   std::memory_order_relaxed);
  std::free(p);
}
void operator delete[](void* p) noexcept { operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { operator delete(p); }

namespace psched::sim {
namespace {

constexpr int kDevices = 4;
constexpr int kStreams = 64;
constexpr int kOpsPerWave = 1024;
constexpr int kWarmWaves = 100;
constexpr int kMeasuredWaves = 100;
constexpr double kHeldBytesPerIdBound = 31.1 + 4.0;
constexpr double kAllocsPerWaveBound = 0.3 + 20.0;

/// Op `i` of wave `w`: the dag_flood mix by index — half kernels of
/// varying demand, a sixth each H2D, D2H and peer copies.
Op flood_op(int w, int i) {
  Op op;
  op.stream = static_cast<StreamId>((i + 7 * w) % kStreams);
  switch (i % 6) {
    case 3: op.kind = OpKind::CopyH2D; break;
    case 4: op.kind = OpKind::CopyD2H; break;
    case 5:
      op.kind = OpKind::CopyP2P;
      op.peer = static_cast<DeviceId>((op.stream % kDevices + 3) % kDevices);
      break;
    default: op.kind = OpKind::Kernel; break;
  }
  if (op.kind == OpKind::Kernel) {
    op.name = "k";
    op.work = 5.0 + i % 11;
    op.sm_demand = 1 + i % 4;
    op.occupancy = 0.5 + 0.25 * (i % 3);
  } else {
    op.name = "cp";
    op.bytes = 1e4 + (i % 7) * 1e3;
    op.work = op.bytes;
  }
  return op;
}

/// One wave as one transaction, drained; returns the last op id issued.
OpId run_wave(Engine& eng, int w) {
  const TimeUs t = eng.now();
  OpId last = kInvalidOp;
  eng.begin_transaction(t);
  for (int i = 0; i < kOpsPerWave; ++i) {
    Op op = flood_op(w, i);
    if (i % 8 == 7) {
      const auto from = static_cast<StreamId>(
          (op.stream + 1 + (5 * i) % (kStreams - 1)) % kStreams);
      const EventId ev = eng.create_event();
      eng.record_event(ev, from, t);
      eng.wait_event(op.stream, ev, t);
    }
    last = eng.enqueue(std::move(op), t);
  }
  eng.commit_transaction();
  eng.run_all();
  eng.timeline().clear();
  return last;
}

TEST(EngineMemory, HistoryHeapPerIdAndAllocationsPerWaveStayUnderBounds) {
  const long held_before = g_held.load(std::memory_order_relaxed);
  long allocs = 0;
  OpId last = kInvalidOp;
  {
    Engine eng(Machine::uniform(DeviceSpec::test_device(), kDevices,
                                /*nvlink_all_pairs=*/true));
    for (int j = 1; j < kStreams; ++j) {
      eng.create_stream(static_cast<DeviceId>(j % kDevices));
    }
    // Warm-up: the slab, streams, class tables and scratch reach their
    // working sizes; what still grows after it is the history.
    for (int w = 0; w < kWarmWaves; ++w) last = run_wave(eng, w);
    const long allocs_before = g_allocs.load(std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
    for (int w = kWarmWaves; w < kWarmWaves + kMeasuredWaves; ++w) {
      last = run_wave(eng, w);
    }
    g_counting.store(false, std::memory_order_relaxed);
    allocs = g_allocs.load(std::memory_order_relaxed) - allocs_before;
    ASSERT_TRUE(eng.all_idle());

    const double held_per_id =
        static_cast<double>(g_held.load(std::memory_order_relaxed) -
                            held_before) /
        static_cast<double>(last);
    const double allocs_per_wave =
        static_cast<double>(allocs) / static_cast<double>(kMeasuredWaves);
    std::printf("%ld op ids: %.1f heap bytes held per id, %.1f allocations "
                "per wave\n",
                static_cast<long>(last), held_per_id, allocs_per_wave);
    EXPECT_LT(held_per_id, kHeldBytesPerIdBound);
    EXPECT_LT(allocs_per_wave, kAllocsPerWaveBound);
    // The history still answers for the first op and event ever issued.
    EXPECT_TRUE(eng.op_done(1));
    EXPECT_TRUE(eng.event_done(0));
  }
  // Everything the engine held is returned with it.
  EXPECT_EQ(g_held.load(std::memory_order_relaxed), held_before);
}

}  // namespace
}  // namespace psched::sim
