#include "runtime/autotune.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace psched::rt {

const std::vector<long>& BlockSizeTuner::candidates() {
  static const std::vector<long> kCandidates = {32, 64, 128, 256, 512, 1024};
  return kCandidates;
}

int BlockSizeTuner::bucket_of(double work_items) {
  if (work_items <= 1) return 0;
  return static_cast<int>(std::floor(std::log2(work_items)));
}

const BlockSizeTuner::Cell* BlockSizeTuner::Bucket::cell(long block) const {
  for (const Cell& c : cells) {
    if (c.block == block) return &c;
  }
  return nullptr;
}

const BlockSizeTuner::Bucket* BlockSizeTuner::find(const std::string& kernel,
                                                   double work_items) const {
  const auto it = stats_.find(kernel);
  if (it == stats_.end()) return nullptr;
  const int b = bucket_of(work_items);
  for (const Bucket& bucket : it->second) {
    if (bucket.log2_work == b) return &bucket;
  }
  return nullptr;
}

void BlockSizeTuner::record(const std::string& kernel, long block_size,
                            double solo_us, double work_items) {
  if (work_items <= 0 || solo_us <= 0) return;
  auto it = stats_.find(kernel);
  if (it == stats_.end()) it = stats_.emplace(kernel, History{}).first;
  History& history = it->second;
  const int b = bucket_of(work_items);
  auto bucket = std::find_if(history.begin(), history.end(),
                             [b](const Bucket& x) { return x.log2_work == b; });
  if (bucket == history.end()) {
    history.push_back({b, {}});
    bucket = history.end() - 1;
  }
  std::vector<Cell>& cells = bucket->cells;
  auto cell = std::lower_bound(
      cells.begin(), cells.end(), block_size,
      [](const Cell& c, long block) { return c.block < block; });
  if (cell == cells.end() || cell->block != block_size) {
    cell = cells.insert(cell, Cell{block_size, 0, 0});
  }
  const double us_per_item = solo_us / work_items;
  if (cell->trials == 0 || us_per_item < cell->best_us_per_item) {
    cell->best_us_per_item = us_per_item;
  }
  ++cell->trials;
}

long BlockSizeTuner::recommend(const std::string& kernel,
                               double work_items) const {
  const Bucket* bucket = find(kernel, work_items);
  // Exploration phase: propose the first candidate without a sample.
  for (long c : candidates()) {
    if (bucket == nullptr || bucket->cell(c) == nullptr) return c;
  }
  // Exploitation: best observed time per item; ties break toward larger
  // blocks (fewer blocks to schedule).
  long best = candidates().back();
  double best_rate = std::numeric_limits<double>::infinity();
  for (long c : candidates()) {
    const Cell& cell = *bucket->cell(c);
    if (cell.best_us_per_item <= best_rate) {
      best_rate = cell.best_us_per_item;
      best = c;
    }
  }
  return best;
}

bool BlockSizeTuner::explored(const std::string& kernel,
                              double work_items) const {
  const Bucket* bucket = find(kernel, work_items);
  if (bucket == nullptr) return false;
  return std::all_of(candidates().begin(), candidates().end(),
                     [bucket](long c) { return bucket->cell(c) != nullptr; });
}

long BlockSizeTuner::samples(const std::string& kernel,
                             double work_items) const {
  const Bucket* bucket = find(kernel, work_items);
  if (bucket == nullptr) return 0;
  long total = 0;
  for (const Cell& cell : bucket->cells) total += cell.trials;
  return total;
}

}  // namespace psched::rt
