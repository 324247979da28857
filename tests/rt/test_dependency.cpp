// Unit tests for the dependency-set semantics of section IV-A / Fig. 3.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <vector>

#include "runtime/dependency.hpp"

namespace psched::rt {
namespace {

class DependencyTest : public ::testing::Test {
 protected:
  ArrayState* make_array(const std::string& name) {
    auto a = std::make_unique<ArrayState>();
    a->name = name;
    arrays_.push_back(std::move(a));
    return arrays_.back().get();
  }

  Computation& make_comp(std::vector<Computation::Use> uses,
                         const std::string& label = "k") {
    Computation& c = pool_.acquire();
    c.name = names_.emplace_back(label);
    c.uses = uses;
    c.state = Computation::State::Scheduled;  // active
    return c;
  }

  static bool depends_on(const Computation& c, const Computation& parent) {
    return std::find(c.parents.begin(), c.parents.end(), &parent) !=
           c.parents.end();
  }

  std::vector<std::unique_ptr<ArrayState>> arrays_;
  ComputationPool pool_;
  std::deque<std::string> names_;  ///< backs the computations' names
};

TEST_F(DependencyTest, FirstComputationHasNoDeps) {
  ArrayState* x = make_array("X");
  Computation& k1 = make_comp({{x, false}});
  EXPECT_TRUE(infer_dependencies(k1, pool_).empty());
  EXPECT_EQ(x->last_writer, &k1);
  EXPECT_TRUE(k1.dep_set.count(x));
}

TEST_F(DependencyTest, ReadAfterWrite) {
  ArrayState* x = make_array("X");
  Computation& k1 = make_comp({{x, false}}, "K1");
  (void)infer_dependencies(k1, pool_);
  Computation& k2 = make_comp({{x, true}}, "K2");
  const auto deps = infer_dependencies(k2, pool_);
  ASSERT_EQ(deps.size(), 1u);
  EXPECT_EQ(deps[0], &k1);
  // Fig. 3-A/C: a read-only consumer does NOT update the writer's
  // dependency set.
  EXPECT_TRUE(k1.dep_set.count(x));
}

TEST_F(DependencyTest, Fig3CaseB_WriteAfterReadDependsOnReaderOnly) {
  ArrayState* x = make_array("X");
  Computation& k1 = make_comp({{x, false}}, "K1");  // writes X
  (void)infer_dependencies(k1, pool_);
  Computation& k2 = make_comp({{x, true}}, "K2");  // reads X
  (void)infer_dependencies(k2, pool_);
  Computation& k3 = make_comp({{x, false}}, "K3");  // writes X
  const auto deps = infer_dependencies(k3, pool_);
  // WAR on K2 only; K1 is covered transitively ("it will not, however,
  // depend on both kernels").
  ASSERT_EQ(deps.size(), 1u);
  EXPECT_EQ(deps[0], &k2);
  // "All dependency sets are updated."
  EXPECT_FALSE(k1.dep_set.count(x));
  EXPECT_FALSE(k2.dep_set.count(x));
  EXPECT_EQ(x->last_writer, &k3);
}

TEST_F(DependencyTest, Fig3CaseC_SecondReaderDependsOnWriterOnly) {
  ArrayState* x = make_array("X");
  Computation& k1 = make_comp({{x, false}}, "K1");
  (void)infer_dependencies(k1, pool_);
  Computation& k2 = make_comp({{x, true}}, "K2");
  (void)infer_dependencies(k2, pool_);
  Computation& k3 = make_comp({{x, true}}, "K3");  // also read-only
  const auto deps = infer_dependencies(k3, pool_);
  ASSERT_EQ(deps.size(), 1u);
  EXPECT_EQ(deps[0], &k1);  // depends on the writer, not on K2
  EXPECT_FALSE(depends_on(k3, k2));
  EXPECT_TRUE(k1.dep_set.count(x));  // still not updated
}

TEST_F(DependencyTest, Fig3CaseC_ThenWriterDependsOnBothReaders) {
  ArrayState* x = make_array("X");
  Computation& k1 = make_comp({{x, false}}, "K1");
  (void)infer_dependencies(k1, pool_);
  Computation& k2 = make_comp({{x, true}}, "K2");
  (void)infer_dependencies(k2, pool_);
  Computation& k3 = make_comp({{x, true}}, "K3");
  (void)infer_dependencies(k3, pool_);
  Computation& k4 = make_comp({{x, false}}, "K4");
  const auto deps = infer_dependencies(k4, pool_);
  // "...otherwise it will depend on both K2 and K3."
  ASSERT_EQ(deps.size(), 2u);
  EXPECT_TRUE(depends_on(k4, k2));
  EXPECT_TRUE(depends_on(k4, k3));
  EXPECT_FALSE(depends_on(k4, k1));
  EXPECT_FALSE(k1.dep_set.count(x));
}

TEST_F(DependencyTest, WriteAfterWrite) {
  ArrayState* x = make_array("X");
  Computation& k1 = make_comp({{x, false}}, "K1");
  (void)infer_dependencies(k1, pool_);
  Computation& k2 = make_comp({{x, false}}, "K2");
  const auto deps = infer_dependencies(k2, pool_);
  ASSERT_EQ(deps.size(), 1u);
  EXPECT_EQ(deps[0], &k1);
  EXPECT_FALSE(k1.dep_set.count(x));  // K1 retired from this argument
  EXPECT_TRUE(k1.dep_set.empty());    // and from the frontier entirely
}

TEST_F(DependencyTest, TwoReadersOfSameInputRunConcurrently) {
  // Fig. 4 VEC shape: no writer yet, two read-only consumers.
  ArrayState* x = make_array("X");
  Computation& k1 = make_comp({{x, true}}, "K1");
  Computation& k2 = make_comp({{x, true}}, "K2");
  EXPECT_TRUE(infer_dependencies(k1, pool_).empty());
  EXPECT_TRUE(infer_dependencies(k2, pool_).empty());
}

TEST_F(DependencyTest, DisjointArraysIndependent) {
  ArrayState* x = make_array("X");
  ArrayState* y = make_array("Y");
  Computation& k1 = make_comp({{x, false}}, "K1");
  Computation& k2 = make_comp({{y, false}}, "K2");
  (void)infer_dependencies(k1, pool_);
  EXPECT_TRUE(infer_dependencies(k2, pool_).empty());
}

TEST_F(DependencyTest, MultiArgumentJoin) {
  // VEC: K1 writes X; K2 writes Y; K3 reads both, writes Z.
  ArrayState* x = make_array("X");
  ArrayState* y = make_array("Y");
  ArrayState* z = make_array("Z");
  Computation& k1 = make_comp({{x, false}}, "K1");
  Computation& k2 = make_comp({{y, false}}, "K2");
  (void)infer_dependencies(k1, pool_);
  (void)infer_dependencies(k2, pool_);
  Computation& k3 = make_comp({{x, true}, {y, true}, {z, false}}, "K3");
  const auto deps = infer_dependencies(k3, pool_);
  ASSERT_EQ(deps.size(), 2u);
  EXPECT_TRUE(depends_on(k3, k1));
  EXPECT_TRUE(depends_on(k3, k2));
  EXPECT_EQ(z->last_writer, &k3);
}

TEST_F(DependencyTest, FinishedComputationsNeverContribute) {
  ArrayState* x = make_array("X");
  Computation& k1 = make_comp({{x, false}}, "K1");
  (void)infer_dependencies(k1, pool_);
  pool_.finish(k1);  // CPU consumed the result
  Computation& k2 = make_comp({{x, true}}, "K2");
  EXPECT_TRUE(infer_dependencies(k2, pool_).empty());
}

TEST_F(DependencyTest, DuplicateArgumentNoSelfDependency) {
  ArrayState* x = make_array("X");
  Computation& k1 = make_comp({{x, true}, {x, false}}, "K1");  // K(X, X)
  EXPECT_TRUE(infer_dependencies(k1, pool_).empty());
  EXPECT_EQ(x->last_writer, &k1);  // the write use dominates
  Computation& k2 = make_comp({{x, true}}, "K2");
  const auto deps = infer_dependencies(k2, pool_);
  ASSERT_EQ(deps.size(), 1u);
  EXPECT_EQ(deps[0], &k1);
}

TEST_F(DependencyTest, DuplicateParentReportedOnce) {
  ArrayState* x = make_array("X");
  ArrayState* y = make_array("Y");
  Computation& k1 = make_comp({{x, false}, {y, false}}, "K1");
  (void)infer_dependencies(k1, pool_);
  Computation& k2 = make_comp({{x, true}, {y, true}}, "K2");
  const auto deps = infer_dependencies(k2, pool_);
  ASSERT_EQ(deps.size(), 1u);  // one edge although two shared arrays
  EXPECT_EQ(deps[0], &k1);
}

TEST_F(DependencyTest, IgnoreReadOnlyAblation) {
  // honor_read_only = false: readers serialize like writers.
  ArrayState* x = make_array("X");
  Computation& k1 = make_comp({{x, true}}, "K1");
  (void)infer_dependencies(k1, pool_, /*honor_read_only=*/false);
  Computation& k2 = make_comp({{x, true}}, "K2");
  const auto deps = infer_dependencies(k2, pool_, /*honor_read_only=*/false);
  ASSERT_EQ(deps.size(), 1u);
  EXPECT_EQ(deps[0], &k1);
}

TEST_F(DependencyTest, EmptyDepSetLeavesFrontier) {
  ArrayState* x = make_array("X");
  Computation& k1 = make_comp({{x, false}}, "K1");
  (void)infer_dependencies(k1, pool_);
  EXPECT_TRUE(k1.can_create_deps());
  Computation& k2 = make_comp({{x, false}}, "K2");
  (void)infer_dependencies(k2, pool_);
  EXPECT_FALSE(k1.can_create_deps());  // dep set emptied by K2's write
  EXPECT_TRUE(k2.can_create_deps());
}

TEST_F(DependencyTest, ChainUpdatesFrontierIncrementally) {
  ArrayState* x = make_array("X");
  Computation* prev = nullptr;
  for (int i = 0; i < 5; ++i) {
    Computation& k = make_comp({{x, false}}, "K" + std::to_string(i));
    const auto deps = infer_dependencies(k, pool_);
    if (prev == nullptr) {
      EXPECT_TRUE(deps.empty());
    } else {
      ASSERT_EQ(deps.size(), 1u);
      EXPECT_EQ(deps[0], prev);
      EXPECT_FALSE(prev->can_create_deps());
    }
    prev = &k;
  }
}

TEST_F(DependencyTest, WideFanInAndFanOutKeepOrderPastInlineCapacity) {
  // Arities beyond the record's inline capacity: ten readers of one
  // producer (its children), then a writer depending on all ten (its
  // parents, in reader registration order), and a kernel over six arrays.
  ArrayState* x = make_array("X");
  Computation& producer = make_comp({{x, false}}, "P");
  (void)infer_dependencies(producer, pool_);
  std::vector<Computation*> readers;
  for (int i = 0; i < 10; ++i) {
    Computation& r = make_comp({{x, true}}, "R" + std::to_string(i));
    const auto deps = infer_dependencies(r, pool_);
    ASSERT_EQ(deps.size(), 1u);
    EXPECT_EQ(deps[0], &producer);
    readers.push_back(&r);
  }
  // The first reader is the child allowed to inherit the producer's
  // stream; every reader's parent link holds a reference on it.
  EXPECT_EQ(producer.first_child, readers.front()->id);
  EXPECT_EQ(producer.refs, 1 + 10);  // last_writer + ten parent links

  Computation& writer = make_comp({{x, false}}, "W");
  const auto deps = infer_dependencies(writer, pool_);
  ASSERT_EQ(deps.size(), 10u);
  EXPECT_TRUE(std::equal(deps.begin(), deps.end(), readers.begin()));
  for (const Computation* r : readers) EXPECT_FALSE(r->dep_set.count(x));

  std::vector<Computation::Use> uses;
  std::vector<ArrayState*> arrays;
  for (int i = 0; i < 6; ++i) {
    arrays.push_back(make_array("A" + std::to_string(i)));
    uses.push_back({arrays.back(), false});
  }
  Computation& wide = make_comp(uses, "WIDE");
  EXPECT_TRUE(infer_dependencies(wide, pool_).empty());
  for (ArrayState* a : arrays) {
    EXPECT_TRUE(wide.dep_set.count(a));
    EXPECT_EQ(a->last_writer, &wide);
  }
  Computation& next = make_comp({{arrays.back(), false}}, "NEXT");
  (void)infer_dependencies(next, pool_);
  EXPECT_FALSE(wide.dep_set.count(arrays.back()));
  EXPECT_TRUE(wide.dep_set.count(arrays.front()));
}

TEST_F(DependencyTest, FinishedComputationRetiresOnceUnreferenced) {
  // K1 writes X, K2 overwrites X (WAW: K2's parent link is what keeps K1
  // alive once the tracking moved on), K3 reads X.
  ArrayState* x = make_array("X");
  Computation& k1 = make_comp({{x, false}}, "K1");
  (void)infer_dependencies(k1, pool_);
  EXPECT_EQ(k1.refs, 1);  // last_writer
  Computation& k2 = make_comp({{x, false}}, "K2");
  (void)infer_dependencies(k2, pool_);
  EXPECT_EQ(k1.refs, 1);  // K2's parent link; the tracking released it
  EXPECT_EQ(pool_.live(), 2u);

  pool_.finish(k1);
  EXPECT_EQ(pool_.live(), 2u);  // still K2's parent
  pool_.finish(k2);             // drops K2's parent links
  EXPECT_EQ(pool_.live(), 1u);  // K1 retired; K2 is X's last writer
  EXPECT_EQ(k1.id, -1);
  ASSERT_EQ(pool_.free_slots().size(), 1u);

  // The next registration reuses K1's slot with a fresh id and no trace of
  // its predecessor.
  Computation& k3 = make_comp({{x, true}}, "K3");
  EXPECT_EQ(&k3, &k1);
  EXPECT_EQ(k3.id, 2);
  EXPECT_EQ(k3.first_child, -1);
  EXPECT_TRUE(k3.parents.empty());
  EXPECT_TRUE(infer_dependencies(k3, pool_).empty());  // K2 is finished
  EXPECT_EQ(pool_.peak_live(), 2u);
}

TEST_F(DependencyTest, HostWriteForgetsTrackingAndRetiresFinishedReaders) {
  ArrayState* x = make_array("X");
  Computation& w = make_comp({{x, false}}, "W");
  (void)infer_dependencies(w, pool_);
  Computation& r = make_comp({{x, true}}, "R");
  (void)infer_dependencies(r, pool_);
  pool_.finish(w);
  pool_.finish(r);
  EXPECT_EQ(pool_.live(), 2u);  // both still named by X's tracking
  forget_tracking(*x, pool_);
  EXPECT_EQ(x->last_writer, nullptr);
  EXPECT_TRUE(x->readers.empty());
  EXPECT_EQ(pool_.live(), 0u);
}

}  // namespace
}  // namespace psched::rt
