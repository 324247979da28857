// Memory ratchet for rt::Context: the context keeps only live computations,
// so what it holds must not grow with the length of the program. Global
// operator new is replaced by a version that tracks the bytes held.
//
// Scenario (test_device, functional=false, no DAG history): three arrays,
// `add2` launches rotating through them so every launch reads the two
// previous results and overwrites the third, and a host read of the
// freshest array closing every step of kStepLaunches launches. After every
// step the context audits its live frontier.
//
// Checked: the most computation records held at once is the same after
// 20k and after 200k launches, and no more than one step's computations;
// the heap still held per launch after 200k launches (everything below
// the context included: the engine's op history and the timeline's rows)
// stays under a fixed bound. When the context kept every computation it
// ever registered (328-byte records) plus a DAG vertex and edges for each,
// this scenario held 627.9 B per launch; with retirement it holds 109.6 B,
// what the engine and timeline keep per op. The bound leaves 25 B of
// headroom.
#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "rt_test_util.hpp"

namespace {
std::atomic<long> g_held{0};  ///< bytes currently allocated through new
}  // namespace

void* operator new(std::size_t n) {
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

namespace psched::rt {
namespace {

using test::Fixture;

constexpr int kStepLaunches = 10;
/// Registrations per step: the launches plus the closing host read.
constexpr long kStepComputations = kStepLaunches + 1;
constexpr long kShortRun = 20'000;
constexpr long kLongRun = 200'000;
constexpr double kHeldBytesPerLaunchBound = 109.6 + 25.0;

TEST(ContextMemory, LiveComputationsAndHeapPerLaunchStayFlat) {
  Options opts;
  opts.functional = false;
  Fixture f(opts);
  Context& ctx = *f.ctx;
  constexpr std::size_t kN = 1 << 14;
  DeviceArray arrays[3] = {ctx.array<float>(kN, "a"),
                           ctx.array<float>(kN, "b"),
                           ctx.array<float>(kN, "c")};
  for (DeviceArray& a : arrays) a.touch_write();
  Kernel add2 = ctx.build_kernel(
      "add2", "const pointer, const pointer, pointer, sint32");
  std::vector<Value> args[3];
  for (int i = 0; i < 3; ++i) {
    args[i] = {Value::array(arrays[i]), Value::array(arrays[(i + 1) % 3]),
               Value::array(arrays[(i + 2) % 3]),
               Value::integer(static_cast<std::int64_t>(kN))};
  }
  const ConfiguredKernel k = add2(16, 256);

  const long held_before = g_held.load(std::memory_order_relaxed);
  long launches = 0;
  auto run_until = [&](long target) {
    while (launches < target) {
      for (int i = 0; i < kStepLaunches; ++i, ++launches) {
        k.launch(args[launches % 3]);
      }
      args[(launches - 1) % 3][2].as_array().touch_read();
      ctx.audit();
    }
  };

  run_until(kShortRun);
  const long peak_short = ctx.stats().peak_live_computations;
  run_until(kLongRun);
  ctx.synchronize();
  ctx.audit();
  const ContextStats stats = ctx.stats();
  const double held_per_launch =
      static_cast<double>(g_held.load(std::memory_order_relaxed) -
                          held_before) /
      static_cast<double>(launches);
  std::printf("%ld launches, %ld computations: peak live %ld at %ld "
              "launches, %ld at %ld; %.1f heap bytes held per launch\n",
              launches, stats.computations, peak_short, kShortRun,
              stats.peak_live_computations, kLongRun, held_per_launch);

  EXPECT_EQ(stats.computations, launches + launches / kStepLaunches);
  EXPECT_EQ(stats.peak_live_computations, peak_short);
  EXPECT_LE(stats.peak_live_computations, kStepComputations);
  EXPECT_LT(held_per_launch, kHeldBytesPerLaunchBound);
  EXPECT_EQ(f.gpu->hazard_count(), 0);
}

}  // namespace
}  // namespace psched::rt
