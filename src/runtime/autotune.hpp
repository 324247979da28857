// Block-size autotuner — the paper's future-work heuristic ("estimating
// the ideal block size based on data size and previous executions",
// section VI), built on the per-kernel execution history the scheduler
// already keeps (section IV-A).
//
// The tuner is a per-context bandit over the power-of-two block sizes the
// paper sweeps (32..1024). Launches are bucketed by the log2 of their work
// size so a kernel tuned on small inputs does not dictate the choice for
// large ones. Each bucket explores every candidate once (round-robin),
// then exploits the configuration with the best observed time per work
// item. Re-exploration is automatic: any later sample that beats the
// incumbent replaces it, so drifting conditions (e.g. co-scheduled work)
// keep being tracked.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

namespace psched::rt {

class BlockSizeTuner {
 public:
  /// The candidate block sizes of the paper's sweep (section V-C).
  static const std::vector<long>& candidates();

  /// Record one observed launch: `solo_us` is the kernel's uncontended
  /// execution-time estimate and `work_items` the data size it covered.
  void record(const std::string& kernel, long block_size, double solo_us,
              double work_items);

  /// Recommend a block size for `kernel` over `work_items` elements.
  /// Unexplored candidates are proposed first (in ascending order); once
  /// the bucket is fully explored, the best-known configuration wins.
  [[nodiscard]] long recommend(const std::string& kernel,
                               double work_items) const;

  /// True once every candidate has at least one sample in the bucket.
  [[nodiscard]] bool explored(const std::string& kernel,
                              double work_items) const;

  /// Number of samples recorded for the (kernel, bucket) pair.
  [[nodiscard]] long samples(const std::string& kernel,
                             double work_items) const;

  void clear() { stats_.clear(); }

 private:
  struct Cell {
    long block = 0;
    long trials = 0;
    double best_us_per_item = 0;  ///< best observed (lower is better)
  };
  struct Bucket {
    int log2_work = 0;
    std::vector<Cell> cells;  ///< one per block size seen, ascending
    [[nodiscard]] const Cell* cell(long block) const;
  };
  /// A kernel's buckets, in first-recorded order.
  using History = std::vector<Bucket>;

  /// Work sizes are bucketed by log2 so tuning generalizes across runs of
  /// similar magnitude without conflating small and large inputs.
  [[nodiscard]] static int bucket_of(double work_items);

  [[nodiscard]] const Bucket* find(const std::string& kernel,
                                   double work_items) const;

  /// Keyed by kernel name; a recorded launch looks its history up without
  /// building a key, and allocates only for a kernel, bucket or block size
  /// it has not seen before.
  std::unordered_map<std::string, History> stats_;
};

}  // namespace psched::rt
