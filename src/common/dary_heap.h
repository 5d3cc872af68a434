#ifndef RPG_COMMON_DARY_HEAP_H_
#define RPG_COMMON_DARY_HEAP_H_

/// \file
/// Cache-friendly d-ary min-heap (default d = 4) for the Dijkstra /
/// Prim / Takahashi–Matsuyama inner loops, where heap operations are
/// most of the per-query Steiner time.
///
/// Versus the binary std::priority_queue the solvers used before:
/// a 4-ary layout halves the tree depth, so the push path (sift-up)
/// does half the compares, and the four children of node i are the
/// contiguous cells 4i+1..4i+4 — one cache line for 8-byte entries —
/// which turns the pop path's child scan into sequential reads. For
/// heaps where pushes outnumber pops (lazy-deletion Dijkstra pushes a
/// stale entry per improvement), that trade wins.
///
/// Semantics note for the differential suites: like std::priority_queue
/// with std::greater<>, Pop() always removes a *minimum* element under
/// Less. The solvers' entries are (dist, node) pairs compared
/// lexicographically — a total order with no indistinguishable distinct
/// entries — so the sequence of popped values is identical to the
/// binary heap's, and every Dijkstra dist/parent array (hence every
/// Steiner tree and RePagerResult) is bit-identical before and after
/// the swap. tests/common/dary_heap_test.cc pins both the oracle
/// pop-order equivalence and the Dijkstra differential; the golden
/// fingerprints in tests/steiner/ and tests/core/ pin the end-to-end
/// claim.
///
/// clear() keeps the allocated buffer, so a heap owned by a scratch
/// object (or reused across the phases of one solve) is allocation-free
/// after warm-up.

#include <cstddef>
#include <utility>
#include <vector>

namespace rpg {

template <typename T, unsigned kArity = 4, typename Less = std::less<T>>
class DaryHeap {
  static_assert(kArity >= 2, "a heap needs at least two children per node");

 public:
  DaryHeap() = default;

  bool empty() const { return h_.empty(); }
  size_t size() const { return h_.size(); }
  void reserve(size_t n) { h_.reserve(n); }
  void clear() { h_.clear(); }

  /// Minimum element under Less.
  const T& top() const { return h_.front(); }

  void push(const T& v) {
    h_.push_back(v);
    SiftUp(h_.size() - 1);
  }

  template <typename... Args>
  void emplace(Args&&... args) {
    h_.emplace_back(std::forward<Args>(args)...);
    SiftUp(h_.size() - 1);
  }

  void pop() {
    if (h_.size() > 1) {
      h_.front() = std::move(h_.back());
      h_.pop_back();
      SiftDown(0);
    } else {
      h_.pop_back();
    }
  }

 private:
  void SiftUp(size_t i) {
    T v = std::move(h_[i]);
    while (i > 0) {
      size_t parent = (i - 1) / kArity;
      if (!less_(v, h_[parent])) break;
      h_[i] = std::move(h_[parent]);
      i = parent;
    }
    h_[i] = std::move(v);
  }

  void SiftDown(size_t i) {
    const size_t n = h_.size();
    T v = std::move(h_[i]);
    for (;;) {
      size_t first = i * kArity + 1;
      if (first >= n) break;
      size_t last = std::min(first + kArity, n);
      size_t best = first;
      for (size_t c = first + 1; c < last; ++c) {
        if (less_(h_[c], h_[best])) best = c;
      }
      if (!less_(h_[best], v)) break;
      h_[i] = std::move(h_[best]);
      i = best;
    }
    h_[i] = std::move(v);
  }

  std::vector<T> h_;
  [[no_unique_address]] Less less_;
};

}  // namespace rpg

#endif  // RPG_COMMON_DARY_HEAP_H_
