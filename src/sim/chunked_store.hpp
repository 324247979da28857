// Append-only chunked storage for per-id history.
//
// The engine keeps one compact record per op and per event it ever
// issued, for the life of the engine, and the ids are dense; the timeline
// keeps one row per completed op. A growing std::vector would copy the
// whole history at every doubling, holding old and new buffers at once,
// and leave up to half its capacity unused. ChunkedStore appends into
// fixed-size chunks instead: a chunk is allocated on the first append
// that lands in it and never moves, so growth copies nothing and the
// unused tail is less than one chunk. clear() keeps the chunks, so a
// store refilled to the same size allocates nothing.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

namespace psched::sim {

/// Dense append-only array of trivially copyable elements, stored in
/// chunks of kChunk elements. Elements are constructed only when appended;
/// references stay valid until clear() or the end of the store.
template <typename T, std::size_t kChunk = 4096>
class ChunkedStore {
  static_assert(std::is_trivially_copyable_v<T> &&
                std::is_trivially_destructible_v<T>);
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
  static_assert(kChunk > 0 && (kChunk & (kChunk - 1)) == 0,
                "chunk size must be a power of two");

 public:
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] T& operator[](std::size_t i) {
    return chunks_[i / kChunk].get()[i % kChunk];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    return chunks_[i / kChunk].get()[i % kChunk];
  }

  /// Drop every element; the chunks stay allocated for reuse.
  void clear() { size_ = 0; }

  /// Append `v`; returns the stored element.
  T& push_back(const T& v) {
    const std::size_t off = size_ % kChunk;
    if (off == 0 && size_ / kChunk == chunks_.size()) {
      std::unique_ptr<T, Free> chunk(
          static_cast<T*>(::operator new(kChunk * sizeof(T))));
      chunks_.push_back(std::move(chunk));
    }
    T* slot = ::new (chunks_[size_ / kChunk].get() + off) T(v);
    ++size_;
    return *slot;
  }

 private:
  struct Free {
    void operator()(T* p) const { ::operator delete(p); }
  };
  std::vector<std::unique_ptr<T, Free>> chunks_;
  std::size_t size_ = 0;
};

}  // namespace psched::sim
