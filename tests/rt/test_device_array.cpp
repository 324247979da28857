#include <gtest/gtest.h>

#include <vector>

#include "rt_test_util.hpp"

namespace psched::rt {
namespace {

using test::Fixture;

TEST(DeviceArray, BasicProperties) {
  Fixture f;
  auto a = f.ctx->array<float>(100, "a");
  EXPECT_TRUE(a.valid());
  EXPECT_EQ(a.size(), 100u);
  EXPECT_EQ(a.bytes(), 400u);
  EXPECT_EQ(a.dtype(), DType::F32);
  EXPECT_EQ(a.name(), "a");
}

TEST(DeviceArray, AutoNaming) {
  Fixture f;
  auto a = f.ctx->array<float>(10);
  auto b = f.ctx->array<float>(10);
  EXPECT_NE(a.name(), b.name());
}

TEST(DeviceArray, AllDtypes) {
  Fixture f;
  EXPECT_EQ(f.ctx->array<float>(4).bytes(), 16u);
  EXPECT_EQ(f.ctx->array<double>(4).bytes(), 32u);
  EXPECT_EQ(f.ctx->array<std::int32_t>(4).bytes(), 16u);
  EXPECT_EQ(f.ctx->array<std::int64_t>(4).bytes(), 32u);
}

TEST(DeviceArray, GetSetRoundTrip) {
  Fixture f;
  auto a = f.ctx->array<double>(8, "a");
  a.set(3, 2.5);
  EXPECT_DOUBLE_EQ(a.get(3), 2.5);
  EXPECT_DOUBLE_EQ(a.get(0), 0.0);  // zero-initialized
}

TEST(DeviceArray, IntegerTruncation) {
  Fixture f;
  auto a = f.ctx->array<std::int32_t>(4, "a");
  a.set(0, 7.9);
  EXPECT_DOUBLE_EQ(a.get(0), 7.0);
}

TEST(DeviceArray, OutOfRangeThrows) {
  Fixture f;
  auto a = f.ctx->array<float>(4, "a");
  EXPECT_THROW((void)a.get(4), sim::ApiError);
  EXPECT_THROW(a.set(100, 1.0), sim::ApiError);
}

TEST(DeviceArray, FillAndView) {
  Fixture f;
  auto a = f.ctx->array<float>(16, "a");
  a.fill(3.5);
  auto v = a.view<float>();
  for (float x : v) EXPECT_FLOAT_EQ(x, 3.5f);
}

TEST(DeviceArray, CopyFrom) {
  Fixture f;
  auto a = f.ctx->array<float>(4, "a");
  const std::vector<float> src = {1, 2, 3, 4};
  a.copy_from(std::span<const float>(src));
  EXPECT_DOUBLE_EQ(a.get(2), 3.0);
  const std::vector<float> wrong = {1, 2};
  EXPECT_THROW(a.copy_from(std::span<const float>(wrong)), sim::ApiError);
}

TEST(DeviceArray, TypeMismatchThrows) {
  Fixture f;
  auto a = f.ctx->array<float>(4, "a");
  EXPECT_THROW((void)a.view<double>(), sim::ApiError);
  EXPECT_THROW((void)a.span_for_write<std::int32_t>(), sim::ApiError);
}

TEST(DeviceArray, TimingOnlyModeSkipsData) {
  Options opts;
  opts.functional = false;
  Fixture f(opts);
  auto a = f.ctx->array<float>(1 << 20, "a");  // 4 MB, never materialized
  a.fill(1.0);
  EXPECT_DOUBLE_EQ(a.get(5), 0.0);  // data path skipped
  EXPECT_TRUE(a.state()->host.empty());
  EXPECT_THROW((void)a.view<float>(), sim::ApiError);
  // Scheduling effects still happen: the sim tracked the host write.
  EXPECT_GT(f.ctx->stats().immediate_accesses, 0);
}

TEST(DeviceArray, TouchHasSchedulingEffectsOnly) {
  Options opts;
  opts.functional = false;
  Fixture f(opts);
  auto a = f.ctx->array<float>(1 << 20, "a");
  a.touch_write();
  auto slow = f.ctx->build_kernel("slow", "pointer, sint32");
  slow(16, 256)(a, 1L << 20);
  a.touch_read();  // must synchronize the producing kernel
  EXPECT_TRUE(f.ctx->active().empty());
  EXPECT_EQ(f.gpu->hazard_count(), 0);
}

TEST(DeviceArray, EmptyHandleThrows) {
  DeviceArray a;
  EXPECT_FALSE(a.valid());
  EXPECT_THROW((void)a.get(0), sim::ApiError);
  EXPECT_THROW(a.touch_write(), sim::ApiError);
}

TEST(DeviceArray, HostWriteForcesRetransfer) {
  // The VEC streaming pattern: new input data each iteration.
  Fixture f;
  auto& ctx = *f.ctx;
  auto a = ctx.array<float>(1 << 14, "a");
  auto scale = ctx.build_kernel("scale", "pointer, sint32, float");
  a.fill(1.0);
  scale(16, 256)(a, 1L << 14, 1.0);
  ctx.synchronize();
  const double first = f.gpu->bytes_h2d();
  EXPECT_GT(first, 0);
  a.fill(2.0);  // host writes invalidate the device copy
  scale(16, 256)(a, 1L << 14, 1.0);
  ctx.synchronize();
  EXPECT_DOUBLE_EQ(f.gpu->bytes_h2d(), 2 * first);
}

TEST(DeviceArray, ReadResultMigratesBackOnce) {
  Fixture f;
  auto& ctx = *f.ctx;
  auto a = ctx.array<float>(1 << 14, "a");
  auto scale = ctx.build_kernel("scale", "pointer, sint32, float");
  a.fill(1.0);
  scale(16, 256)(a, 1L << 14, 2.0);
  (void)a.get(0);
  const double d2h = f.gpu->bytes_d2h();
  EXPECT_GT(d2h, 0);
  (void)a.get(1);  // second read: no further migration
  EXPECT_DOUBLE_EQ(f.gpu->bytes_d2h(), d2h);
}

TEST(DeviceArray, AdviseEvictPagesOutAndPreservesData) {
  Fixture f;
  auto a = f.ctx->array<float>(256, "a");
  auto init = f.ctx->build_kernel("init", "pointer, sint32, double");
  init(4, 64)(a, 256L, 7.0);
  f.ctx->synchronize();
  EXPECT_TRUE(a.resident_on(0));
  ASSERT_GT(f.gpu->device_bytes_used(0), 0u);

  // The device held the only current copy: eviction writes it back and
  // nothing is lost.
  const std::size_t freed = a.advise_evict(0);
  EXPECT_EQ(freed, a.bytes());
  EXPECT_FALSE(a.resident_on(0));
  EXPECT_EQ(f.gpu->device_bytes_used(0), 0u);
  EXPECT_EQ(f.ctx->stats().advised_evictions, 1);
  f.ctx->synchronize();  // drain the write-back
  EXPECT_DOUBLE_EQ(a.get(5), 7.0);
}

TEST(DeviceArray, PinExemptsFromAdviseEvict) {
  Fixture f;
  auto a = f.ctx->array<float>(256, "a");
  auto init = f.ctx->build_kernel("init", "pointer, sint32, double");
  init(4, 64)(a, 256L, 1.0);
  f.ctx->synchronize();
  a.pin(0);
  EXPECT_EQ(a.advise_evict(0), 0u);  // pinned pages stay put
  EXPECT_TRUE(a.resident_on(0));
  a.unpin(0);
  EXPECT_EQ(a.advise_evict(0), a.bytes());
  EXPECT_FALSE(a.resident_on(0));
}

}  // namespace
}  // namespace psched::rt
