// Differential runs of seeded random engine programs (random_program.hpp).
//
// Event binding: a wait binds to its event's gate op at the call, so a
// program must schedule exactly as the same program with every wait
// replaced by a marker carrying `after = {the gate at the wait call}`,
// even where the event is re-recorded before the waiting head is examined.
// Both runs audit the engine after every call, round and advance.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "random_program.hpp"
#include "sim/engine.hpp"

namespace psched::sim {
namespace {

using test::Program;
using test::WaitLowering;

void expect_same_schedule(const Engine& got, const Engine& want, OpId ops) {
  const std::vector<TimelineEntry> a = got.timeline().entries().to_vector();
  const std::vector<TimelineEntry> b = want.timeline().entries().to_vector();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "timeline entry " << i);
    EXPECT_EQ(a[i].op, b[i].op);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].stream, b[i].stream);
    EXPECT_EQ(a[i].device, b[i].device);
    EXPECT_EQ(a[i].peer, b[i].peer);
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].start, b[i].start);
    EXPECT_EQ(a[i].end, b[i].end);
    EXPECT_EQ(a[i].bytes, b[i].bytes);
  }
  // Markers leave no timeline entry: their start and end come from the
  // op records.
  for (OpId id = 1; id <= ops; ++id) {
    SCOPED_TRACE(testing::Message() << "op " << id);
    EXPECT_EQ(got.op(id).start_time, want.op(id).start_time);
    EXPECT_EQ(got.op(id).end_time, want.op(id).end_time);
  }
}

TEST(RandomPrograms, WaitsBindToTheGateAtTheCall) {
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const Program prog = test::random_program(seed);
    Engine written(prog.machine());
    Engine lowered(prog.machine());
    prog.setup(written);
    prog.setup(lowered);
    const OpId n = test::run_program(written, prog, WaitLowering::AsWritten,
                                     [&] { written.audit(); });
    const OpId m = test::run_program(
        lowered, prog, WaitLowering::MarkerAfterGate, [&] { lowered.audit(); });
    ASSERT_EQ(n, m);
    ASSERT_TRUE(written.all_idle());
    expect_same_schedule(written, lowered, n);
    if (HasFailure()) return;
  }
}

}  // namespace
}  // namespace psched::sim
