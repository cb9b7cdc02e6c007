// The explorer's one table type: an open-addressing map from a 64-bit
// state fingerprint to a uint64_t. It serves as the committed prune set
// (fingerprint -> earliest sim time), as each unit's private overlay of
// it, and as the state graph's fingerprint -> node index map
// (liveness.h).
//
// Fingerprints are final-mixed digests (sim/state_encoder.h), and the
// symmetry minimum keeps their low bits uniform, so the low bits index
// the slots directly; a collision probes the next slot. Key 0 marks an
// empty slot, so fingerprint 0 is stored beside the slots. The table
// grows by doubling before it passes half load and never erases. Slot
// order is unspecified: every caller that needs an order (the snapshot's
// sorted fps= lines, the graph's insertion order) keeps it elsewhere.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace wfd::explore {

class FingerprintTable {
 public:
  /// The value stored for `fp`, nullptr when absent. Valid until the
  /// next insertion.
  [[nodiscard]] const std::uint64_t* find(std::uint64_t fp) const {
    if (fp == 0) return has_zero_ ? &zero_value_ : nullptr;
    if (slots_.empty()) return nullptr;
    const Slot& s = slots_[probe(fp)];
    return s.key == fp ? &s.value : nullptr;
  }

  /// Stores fp -> value unless `fp` is present. Returns the stored
  /// value (valid until the next insertion) and whether it was new.
  std::pair<std::uint64_t*, bool> try_emplace(std::uint64_t fp,
                                              std::uint64_t value) {
    if (fp == 0) {
      if (has_zero_) return {&zero_value_, false};
      has_zero_ = true;
      zero_value_ = value;
      return {&zero_value_, true};
    }
    std::size_t i = slots_.empty() ? 0 : probe(fp);
    if (!slots_.empty() && slots_[i].key == fp) {
      return {&slots_[i].value, false};
    }
    if ((used_ + 1) * 2 > slots_.size()) {
      rehash(slots_.empty() ? kMinSlots : slots_.size() * 2);
      i = probe(fp);
    }
    slots_[i] = Slot{fp, value};
    ++used_;
    return {&slots_[i].value, true};
  }

  /// Stores fp -> value, or lowers the stored value to `value`.
  void keep_min(std::uint64_t fp, std::uint64_t value) {
    const auto [stored, fresh] = try_emplace(fp, value);
    if (!fresh && *stored > value) *stored = value;
  }

  /// keep_min of every entry of `other`, in one scan over its slots —
  /// the wave barrier's fold of an overlay into the committed set.
  void merge_min(const FingerprintTable& other) {
    reserve(size() + other.size());
    if (other.has_zero_) keep_min(0, other.zero_value_);
    for (const Slot& s : other.slots_) {
      if (s.key != 0) keep_min(s.key, s.value);
    }
  }

  /// Room for `n` entries without growing.
  void reserve(std::size_t n) {
    if (n * 2 <= slots_.size()) return;
    std::size_t cap = slots_.empty() ? kMinSlots : slots_.size();
    while (n * 2 > cap) cap *= 2;
    rehash(cap);
  }

  [[nodiscard]] std::size_t size() const {
    return used_ + (has_zero_ ? 1 : 0);
  }

  /// Calls f(fp, value) for every entry, in unspecified order.
  template <typename F>
  void for_each(F&& f) const {
    if (has_zero_) f(std::uint64_t{0}, zero_value_);
    for (const Slot& s : slots_) {
      if (s.key != 0) f(s.key, s.value);
    }
  }

 private:
  struct Slot {
    std::uint64_t key = 0;  ///< 0: empty.
    std::uint64_t value = 0;
  };
  static constexpr std::size_t kMinSlots = 16;

  /// The slot holding `fp`, or the empty slot where it would go.
  /// slots_ is non-empty, a power of two long, and never full.
  [[nodiscard]] std::size_t probe(std::uint64_t fp) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(fp) & mask;
    while (slots_[i].key != 0 && slots_[i].key != fp) i = (i + 1) & mask;
    return i;
  }

  void rehash(std::size_t cap) {
    std::vector<Slot> old(cap);
    old.swap(slots_);
    for (const Slot& s : old) {
      if (s.key != 0) slots_[probe(s.key)] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t used_ = 0;  ///< Occupied slots (fingerprint 0 excluded).
  bool has_zero_ = false;
  std::uint64_t zero_value_ = 0;
};

}  // namespace wfd::explore
