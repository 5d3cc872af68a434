#ifndef RPG_COMMON_FLAT_HASH_H_
#define RPG_COMMON_FLAT_HASH_H_

/// \file
/// An insert-only open-addressing hash map for the per-query hot path:
/// the co-occurrence counts, the BM25 accumulator and the Steiner
/// closure's pair index, where an allocation per insert would dominate.
/// The std::unordered_map the pipeline scratch used before is
/// node-based: every insert allocates, every probe chases a pointer, and
/// clear() frees the nodes — exactly the behavior a reusable
/// QueryScratch exists to avoid.
///
/// FlatMap instead keeps a dense `items` vector of (key, value) pairs, in
/// insertion order, plus a power-of-two slot table of uint32 indices
/// into it, linear probing, ~0.7 max load. Properties the pipeline
/// relies on:
///  - insert-only: no erase (the scratch never removes individual keys);
///  - clear() keeps capacity, so a warm scratch inserts allocation-free;
///  - iteration walks the dense items vector in INSERTION order —
///    deterministic, unlike unordered_* bucket order. (The pipeline only
///    ever feeds iterated elements into commutative integer sums or
///    re-sorts them with total-order comparators, so the order does not
///    reach any answer; the golden-fingerprint suites pin that.)
///  - keys are integers (PaperId, packed uint64 pairs); the hash is a
///    fixed multiplicative mix, NOT randomized per process, which is
///    what makes serve-path behavior reproducible run-to-run.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace rpg {

namespace flat_internal {

/// splitmix64 finalizer: enough avalanche that sequential ids do not
/// cluster probe chains, and fixed (not seeded) for reproducibility.
inline uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

inline constexpr uint32_t kEmptySlot = 0xFFFFFFFFu;

}  // namespace flat_internal

/// Open-addressing hash map over an integral key. See the file comment
/// for the contract (insert-only, capacity-keeping clear,
/// insertion-order iteration); values live inline in the dense items
/// vector.
template <typename K, typename V>
class FlatMap {
 public:
  FlatMap() = default;

  size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

  /// Drops all elements but keeps both buffers' capacity.
  void clear() {
    items_.clear();
    std::fill(slots_.begin(), slots_.end(), flat_internal::kEmptySlot);
  }

  void reserve(size_t n) {
    items_.reserve(n);
    GrowSlots(n);
  }

  /// unordered_map-style value access: default-constructs on first use.
  V& operator[](K key) {
    MaybeGrow();
    size_t s = ProbeFor(key);
    if (slots_[s] == flat_internal::kEmptySlot) {
      slots_[s] = static_cast<uint32_t>(items_.size());
      items_.emplace_back(key, V{});
    }
    return items_[slots_[s]].second;
  }

  /// Pointer to the value, or nullptr when absent (flat stand-in for
  /// find() != end()).
  const V* Find(K key) const {
    if (slots_.empty()) return nullptr;
    size_t s = ProbeFor(key);
    if (slots_[s] == flat_internal::kEmptySlot) return nullptr;
    return &items_[slots_[s]].second;
  }
  V* Find(K key) {
    return const_cast<V*>(std::as_const(*this).Find(key));
  }

  bool contains(K key) const { return Find(key) != nullptr; }

  /// Insertion-order iteration over (key, value) pairs.
  auto begin() const { return items_.begin(); }
  auto end() const { return items_.end(); }

 private:
  size_t ProbeFor(K key) const {
    const size_t mask = slots_.size() - 1;
    size_t s = flat_internal::Mix(static_cast<uint64_t>(key)) & mask;
    while (slots_[s] != flat_internal::kEmptySlot &&
           items_[slots_[s]].first != key) {
      s = (s + 1) & mask;
    }
    return s;
  }

  void MaybeGrow() {
    // Max load 0.7: grow when (size + 1) / slots > 0.7.
    if (slots_.empty() || (items_.size() + 1) * 10 > slots_.size() * 7) {
      GrowSlots(items_.size() + 1);
    }
  }

  void GrowSlots(size_t want_items) {
    size_t want_slots = 16;
    while (want_slots * 7 < want_items * 10) want_slots <<= 1;
    if (want_slots <= slots_.size()) return;
    slots_.assign(want_slots, flat_internal::kEmptySlot);
    const size_t mask = slots_.size() - 1;
    for (size_t idx = 0; idx < items_.size(); ++idx) {
      size_t s =
          flat_internal::Mix(static_cast<uint64_t>(items_[idx].first)) & mask;
      while (slots_[s] != flat_internal::kEmptySlot) s = (s + 1) & mask;
      slots_[s] = static_cast<uint32_t>(idx);
    }
  }

  std::vector<std::pair<K, V>> items_;
  std::vector<uint32_t> slots_;
};

}  // namespace rpg

#endif  // RPG_COMMON_FLAT_HASH_H_
