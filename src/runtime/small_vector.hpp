// Inline-capacity containers for the per-computation records.
//
// A computation has a handful of array arguments and parents;
// SmallVec keeps up to N of them inside the record and spills to the heap
// only beyond that, so registering a computation of ordinary arity
// allocates nothing. SmallSet is the same storage with set semantics by
// linear search — at these sizes a scan beats hashing.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <span>
#include <type_traits>

namespace psched::rt {

template <typename T, std::size_t N>
class SmallVec {
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVec relocates its elements with memcpy");

 public:
  SmallVec() = default;
  SmallVec(std::initializer_list<T> items) { assign(items); }
  SmallVec(const SmallVec& o) { assign(std::span<const T>(o)); }
  SmallVec& operator=(const SmallVec& o) {
    if (this != &o) assign(std::span<const T>(o));
    return *this;
  }
  /// Element-wise copy (any contiguous range, e.g. a std::vector).
  SmallVec& operator=(std::span<const T> items) {
    assign(items);
    return *this;
  }

  void push_back(const T& v) {
    if (size_ == capacity()) reserve(std::max<std::size_t>(2 * size_, N));
    data()[size_++] = v;
  }
  void clear() { size_ = 0; }
  /// Drop elements matching `pred`, keeping the others in order.
  template <typename Pred>
  void erase_if(Pred pred) {
    T* end = std::remove_if(begin(), this->end(), pred);
    size_ = static_cast<std::uint32_t>(end - begin());
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] T* data() { return heap_ ? heap_.get() : inline_; }
  [[nodiscard]] const T* data() const { return heap_ ? heap_.get() : inline_; }
  [[nodiscard]] T* begin() { return data(); }
  [[nodiscard]] T* end() { return data() + size_; }
  [[nodiscard]] const T* begin() const { return data(); }
  [[nodiscard]] const T* end() const { return data() + size_; }
  [[nodiscard]] const T& front() const { return data()[0]; }

 private:
  [[nodiscard]] std::size_t capacity() const { return heap_ ? heap_cap_ : N; }
  void reserve(std::size_t n) {
    if (n <= capacity()) return;
    auto grown = std::make_unique_for_overwrite<T[]>(n);
    if (size_ != 0) std::memcpy(grown.get(), data(), size_ * sizeof(T));
    heap_ = std::move(grown);
    heap_cap_ = static_cast<std::uint32_t>(n);
  }
  void assign(std::span<const T> items) {
    size_ = 0;
    reserve(items.size());
    if (!items.empty()) {
      std::memcpy(data(), items.data(), items.size() * sizeof(T));
    }
    size_ = static_cast<std::uint32_t>(items.size());
  }

  std::unique_ptr<T[]> heap_;  ///< spilled storage; null while inline
  std::uint32_t size_ = 0;
  std::uint32_t heap_cap_ = 0;
  T inline_[N]{};
};

template <typename T, std::size_t N>
class SmallSet {
 public:
  /// Returns false when `v` was already present.
  bool insert(const T& v) {
    if (count(v) != 0) return false;
    items_.push_back(v);
    return true;
  }
  std::size_t erase(const T& v) {
    const std::size_t before = items_.size();
    items_.erase_if([&](const T& x) { return x == v; });
    return before - items_.size();
  }
  [[nodiscard]] std::size_t count(const T& v) const {
    return std::find(items_.begin(), items_.end(), v) != items_.end() ? 1 : 0;
  }
  [[nodiscard]] bool empty() const { return items_.empty(); }

 private:
  SmallVec<T, N> items_;
};

}  // namespace psched::rt
