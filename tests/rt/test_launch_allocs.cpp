// Allocation ratchet for the per-call path from rt::Context down to
// GpuRuntime::launch: global operator new is replaced by a counting
// version, and a steady-state kernel chain with periodic host reads must
// stay under fixed per-launch and per-read bounds.
//
// Scenario (test_device, functional=false): three arrays, `add2` launches
// rotating through them so every launch reads the two previous results
// and overwrites the third (a dependency chain across streams), and a host
// read of the freshest array every kReadEvery launches. Before the launch
// path was made allocation-free, this scenario made 33.1 allocations per
// launch and 11.0 per host read. It now makes 0.04 and 0.03: what is left
// is amortized container growth. The bounds add half an allocation per
// call to those, so any new per-call allocation trips them.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "rt_test_util.hpp"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<long> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace psched::rt {
namespace {

using test::Fixture;

/// Counts the allocations `fn` makes.
template <typename Fn>
long allocations_in(Fn&& fn) {
  const long before = g_allocs.load(std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  fn();
  g_counting.store(false, std::memory_order_relaxed);
  return g_allocs.load(std::memory_order_relaxed) - before;
}

constexpr int kReadEvery = 10;
constexpr double kLaunchBound = 0.04 + 0.5;
constexpr double kReadBound = 0.03 + 0.5;

struct Chain {
  explicit Chain(Context& ctx)
      : a(ctx.array<float>(kN, "a")),
        b(ctx.array<float>(kN, "b")),
        c(ctx.array<float>(kN, "c")),
        add2(ctx.build_kernel(
            "add2", "const pointer, const pointer, pointer, sint32")) {
    const auto n = static_cast<std::int64_t>(kN);
    args[0] = {Value::array(a), Value::array(b), Value::array(c),
               Value::integer(n)};
    args[1] = {Value::array(b), Value::array(c), Value::array(a),
               Value::integer(n)};
    args[2] = {Value::array(c), Value::array(a), Value::array(b),
               Value::integer(n)};
  }
  static constexpr std::size_t kN = 1 << 14;
  DeviceArray a, b, c;
  Kernel add2;
  std::vector<Value> args[3];
  long launches = 0;
  long reads = 0;
  long launch_allocs = 0;
  long read_allocs = 0;

  /// `n` launches with a host read of the written array every kReadEvery.
  void run(int n) {
    const ConfiguredKernel k = add2(16, 256);
    for (int i = 0; i < n; ++i) {
      const std::vector<Value>& v = args[i % 3];
      launch_allocs += allocations_in([&] { k.launch(v); });
      ++launches;
      if ((i + 1) % kReadEvery == 0) {
        const DeviceArray& out = v[2].as_array();
        read_allocs += allocations_in([&] { out.touch_read(); });
        ++reads;
      }
    }
  }
};

TEST(LaunchAllocations, SteadyStateLaunchesAndReadsStayUnderBounds) {
  Options opts;
  opts.functional = false;
  Fixture f(opts);
  Chain chain(*f.ctx);
  chain.a.touch_write();
  chain.b.touch_write();
  chain.c.touch_write();
  // Warm-up: streams, event and record tables, the engine's slab and the
  // per-array reader lists reach their working sizes.
  chain.run(300);
  chain.launches = chain.reads = chain.launch_allocs = chain.read_allocs = 0;
  chain.run(1000);
  f.ctx->synchronize();

  const double per_launch = static_cast<double>(chain.launch_allocs) /
                            static_cast<double>(chain.launches);
  const double per_read = static_cast<double>(chain.read_allocs) /
                          static_cast<double>(chain.reads);
  std::printf("allocations per launch %.2f, per host read %.2f\n",
              per_launch, per_read);
  EXPECT_LE(per_launch, kLaunchBound) << "allocations per launch";
  EXPECT_LE(per_read, kReadBound) << "allocations per host read";
  EXPECT_EQ(f.gpu->hazard_count(), 0);
}

}  // namespace
}  // namespace psched::rt
