// Canonical state encoding for fingerprint-based pruning.
//
// A StateEncoder folds tagged fields into one 64-bit digest. The combine
// is *order-insensitive* (a wrapping sum of per-field hashes): callers may
// enumerate fields, modules, processes or in-flight messages in any order
// — including unordered-map order — and states that differ only in
// enumeration order hash identically. Collisions between *different*
// fields are avoided by mixing each value with an FNV-1a hash of its tag
// and of the current scope path (push/pop), so `round=1, phase=2` and
// `round=2, phase=1` do not collide.
//
// Components that cannot describe their state faithfully call opaque();
// this poisons the digest (complete() turns false) and the explorer then
// disables fingerprint pruning instead of pruning unsoundly.
//
// Convention for writing encode_state: fold every member that influences
// *future* behaviour (phases, rounds, counters, stored values, quorum
// masks), skip what is derivable or write-only (trace emission already
// happened), and fold times only as *relative* quantities — absolute
// timestamps make every depth unique and defeat the pruning.
//
// Symmetry canonicalization: an encoder may carry a process renaming
// (a permutation of 0..n-1). Every process identity folded through the
// pid-aware entry points — pid_field(), push_proc(), and the ProcessSet
// overload of field() — is mapped through the renaming first, so the
// digest of a state under permutation pi equals the plain digest of the
// pi-renamed state, provided every encode_state routes pids through
// those entry points. The explorer takes the minimum digest over the
// scenario's symmetry group (ScenarioFactory::symmetry_classes) as the
// canonical fingerprint. Sub-encoders must be created with child() so
// the renaming propagates; a pid site folded through the plain scalar
// field() is simply not collapsed (the reduction degrades to fewer
// merges, never to unsound ones — only hash collisions can conflate
// genuinely different states, as with any fingerprint).
//
// Because the combine is a sum, the fields an encoder folded at root
// scope can be taken out as an exact (sum, count) Partial and added to
// another root-scope encoder later: the network encodes each message's
// payload once and keeps a running in-flight sum, and the simulator
// keeps each process's encoding until that process steps again.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <set>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/check.h"
#include "common/process_set.h"
#include "common/types.h"

namespace wfd::sim {

class StateEncoder {
 public:
  /// The fields folded at root scope so far: add() folds them into
  /// another root-scope encoder with the same renaming exactly as if
  /// they had been folded there.
  struct Partial {
    std::uint64_t sum = 0;
    std::uint64_t count = 0;
    bool complete = true;
    bool operator==(const Partial&) const = default;
  };

  StateEncoder() = default;
  /// An encoder that renames process ids through `perm` (size n, a
  /// permutation of 0..n-1; ids outside the range — kNoProcess — pass
  /// through). The caller keeps `perm` alive for the encoder's lifetime.
  explicit StateEncoder(const std::vector<ProcessId>* perm) : perm_(perm) {}

  /// A fresh sub-encoder inheriting the renaming (for the multiset
  /// idiom with merge()). Always build sub-encoders this way.
  [[nodiscard]] StateEncoder child() const { return StateEncoder(perm_); }

  /// Whether this encoder carries a process renaming.
  [[nodiscard]] bool renamed() const { return perm_ != nullptr; }

  /// The renamed identity of `p` (identity map without a renaming).
  [[nodiscard]] ProcessId map_pid(ProcessId p) const {
    if (perm_ == nullptr || p < 0 ||
        static_cast<std::size_t>(p) >= perm_->size()) {
      return p;
    }
    return (*perm_)[static_cast<std::size_t>(p)];
  }

  /// Enter a nested scope; every field folded until the matching pop()
  /// is keyed by this scope (e.g. push("proc", p) around a process).
  void push(std::string_view tag) { enter(mix(top() ^ fnv(tag))); }
  void push(std::string_view tag, std::uint64_t index) {
    enter(mix(top() ^ fnv(tag) ^ mix(index)));
  }
  /// Scope keyed by a *process identity*: the index is renamed.
  void push_proc(std::string_view tag, ProcessId p) {
    push(tag, static_cast<std::uint64_t>(
                  static_cast<std::int64_t>(map_pid(p))));
  }
  void pop() { --depth_; }

  /// Fold a field whose value *is* a process identity (renamed; -1 /
  /// kNoProcess encodes consistently either way).
  void pid_field(std::string_view tag, ProcessId p) {
    field(tag, static_cast<std::int64_t>(map_pid(p)));
  }

  /// Fold one tagged scalar. Accepts any integral or enum type (values
  /// are sign-extended through int64 so -1 encodes consistently), bools,
  /// and string-ish values.
  template <typename T>
  void field(std::string_view tag, T value) {
    if constexpr (std::is_same_v<T, bool>) {
      fold(tag, value ? 1u : 0u);
    } else if constexpr (std::is_enum_v<T>) {
      fold(tag, static_cast<std::uint64_t>(
                    static_cast<std::int64_t>(value)));
    } else if constexpr (std::is_integral_v<T>) {
      fold(tag, static_cast<std::uint64_t>(
                    static_cast<std::int64_t>(value)));
    } else if constexpr (std::is_convertible_v<T, std::string_view>) {
      fold(tag, fnv(std::string_view(value)));
    } else {
      static_assert(sizeof(T) == 0, "unsupported field type");
    }
  }
  void field(std::string_view tag, const ProcessSet& value) {
    if (perm_ == nullptr) {
      fold(tag, value.raw());
      return;
    }
    ProcessSet mapped;
    for (ProcessId p : value.members()) mapped.insert(map_pid(p));
    fold(tag, mapped.raw());
  }
  /// Optional fields fold presence plus (when present) the value, so
  /// nullopt and a present zero stay distinct.
  template <typename T>
  void field(std::string_view tag, const std::optional<T>& value) {
    fold(tag, value.has_value() ? 1u : 0u);
    if (value.has_value()) {
      push(tag);
      field("val", *value);
      pop();
    }
  }

  /// Fold a fully built sub-encoding as one field — the multiset idiom:
  /// encode each element into its own StateEncoder and merge, and the
  /// collection hashes the same under any enumeration order.
  void merge(std::string_view tag, const StateEncoder& sub) {
    fold(tag, sub.digest());
    complete_ = complete_ && sub.complete();
  }

  /// Declare that part of the state could not be encoded. The digest is
  /// then unusable for pruning (complete() == false).
  void opaque(std::string_view what) {
    fold("opaque", fnv(what));
    complete_ = false;
  }

  /// The fields folded so far (root scope only: a partial carries no
  /// scope, so one taken mid-scope could not be re-keyed).
  [[nodiscard]] Partial partial() const {
    WFD_CHECK(depth_ == 0);
    return Partial{acc_, count_, complete_};
  }
  /// Fold a partial taken from a root-scope encoder with the same
  /// renaming, at root scope.
  void add(const Partial& p) {
    WFD_CHECK(depth_ == 0);
    acc_ += p.sum;
    count_ += p.count;
    complete_ = complete_ && p.complete;
  }

  [[nodiscard]] bool complete() const { return complete_; }
  [[nodiscard]] std::uint64_t digest() const {
    return digest(Partial{acc_, count_, complete_});
  }
  /// The digest of an encoder that folded exactly `p`.
  [[nodiscard]] static std::uint64_t digest(const Partial& p) {
    return mix(p.sum ^ mix(p.count));
  }

 private:
  /// Scope nesting limit. Protocol encodings nest a handful of levels
  /// (process, module, field, element); the stack lives inline so push
  /// and child() never touch the heap.
  static constexpr std::size_t kMaxDepth = 32;

  void enter(std::uint64_t scope) {
    WFD_CHECK(depth_ < kMaxDepth);
    ctx_[depth_++] = scope;
  }
  static std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }
  static std::uint64_t fnv(std::string_view s) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ull;
    }
    return h;
  }
  [[nodiscard]] std::uint64_t top() const {
    return depth_ == 0 ? 0x51ed270b35ae2d01ull : ctx_[depth_ - 1];
  }
  void fold(std::string_view tag, std::uint64_t value) {
    acc_ += mix(top() ^ fnv(tag) ^ mix(value));
    ++count_;
  }

  std::uint64_t acc_ = 0;
  std::uint64_t count_ = 0;
  /// Scope keys, innermost at depth_ - 1.
  std::array<std::uint64_t, kMaxDepth> ctx_{};
  std::size_t depth_ = 0;
  bool complete_ = true;
  const std::vector<ProcessId>* perm_ = nullptr;
};

/// Generic field helper for templated protocol state: scalars go through
/// StateEncoder::field, types with an encode_state member recurse, and
/// the container overloads below handle optionals and sequences. Lets
/// `OmegaSigmaConsensusModule<V>` encode without knowing V.
template <typename T>
void encode_field(StateEncoder& enc, std::string_view tag, const T& value) {
  if constexpr (requires(const T& t, StateEncoder& e) { t.encode_state(e); }) {
    enc.push(tag);
    value.encode_state(enc);
    enc.pop();
  } else {
    enc.field(tag, value);
  }
}

template <typename T>
void encode_field(StateEncoder& enc, std::string_view tag,
                  const std::optional<T>& value) {
  enc.field(tag, value.has_value());
  if (value.has_value()) {
    enc.push(tag);
    encode_field(enc, "val", *value);
    enc.pop();
  }
}

/// Sequences fold length plus position-keyed elements (order matters —
/// a log and its permutation are different states).
template <typename T>
void encode_field(StateEncoder& enc, std::string_view tag,
                  const std::vector<T>& value) {
  enc.push(tag);
  enc.field("#", value.size());
  for (std::size_t i = 0; i < value.size(); ++i) {
    enc.push("at", i);
    encode_field(enc, "elem", value[i]);
    enc.pop();
  }
  enc.pop();
}

/// Sets fold as unordered collections of element digests.
template <typename T>
void encode_field(StateEncoder& enc, std::string_view tag,
                  const std::set<T>& value) {
  enc.push(tag);
  enc.field("#", value.size());
  for (const T& x : value) {
    StateEncoder sub = enc.child();
    encode_field(sub, "elem", x);
    enc.merge("in", sub);
  }
  enc.pop();
}

}  // namespace wfd::sim
