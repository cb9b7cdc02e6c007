// Schedulers decide, at each global step, which process takes a step and
// which (if any) pending message it receives. Every scheduler shipped
// here satisfies the run conditions of the model: correct processes take
// unboundedly many steps and every message addressed to a correct process
// is eventually delivered.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/process_set.h"
#include "common/rng.h"
#include "common/types.h"
#include "sim/choice.h"
#include "sim/failure_pattern.h"
#include "sim/network.h"

namespace wfd::inject {
class FaultState;
}  // namespace wfd::inject

namespace wfd::sim {

/// The scheduler's decision for one global step.
struct StepChoice {
  /// What the step does. kDeliver covers the normal moves (start, lambda,
  /// message delivery); the others are adversary moves from an injected
  /// fault plan — no process code runs during them.
  enum class Action : std::uint8_t {
    kDeliver = 0,  ///< Normal step (start / lambda / delivery).
    kDrop = 1,     ///< Discard pending message `message_id` (lossy link).
    kDup = 2,      ///< Re-enqueue a copy of pending message `message_id`.
    kCrash = 3,    ///< Crash process p at the current time.
  };

  ProcessId p = kNoProcess;      ///< kNoProcess: no process can step (halt).
  std::uint64_t message_id = 0;  ///< 0: lambda step.
  Action action = Action::kDeliver;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Called once before the run.
  virtual void begin_run(int n, const FailurePattern& f,
                         std::uint64_t seed) = 0;

  /// Decide the next step.
  virtual StepChoice next(const Network& net, const FailurePattern& f,
                          Time now) = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Copies this scheduler into `slot` for a copied simulator
  /// (sim/clone.h); the copy's choice points ask `choices` and its fault
  /// menus read `faults` (the copy's ledger). False — the default — when
  /// the scheduler cannot be copied.
  [[nodiscard]] virtual bool copy_to(std::unique_ptr<Scheduler>& slot,
                                     ChoiceSource& choices,
                                     const inject::FaultState* faults) const {
    (void)slot;
    (void)choices;
    (void)faults;
    return false;
  }
};

/// Deterministic: processes step cyclically (skipping crashed ones) and
/// always receive their oldest pending message.
class RoundRobinScheduler : public Scheduler {
 public:
  void begin_run(int n, const FailurePattern& f, std::uint64_t seed) override;
  StepChoice next(const Network& net, const FailurePattern& f,
                  Time now) override;
  [[nodiscard]] std::string name() const override { return "round-robin"; }

 private:
  int n_ = 0;
  ProcessId cursor_ = 0;
};

/// Randomized fair scheduler. Each "round" steps every alive process once
/// in a fresh random order. A stepping process receives: nothing with
/// probability lambda_prob; otherwise its oldest pending message with
/// probability oldest_prob, else a uniformly random pending one. Any
/// message older than force_age steps is force-delivered first, which
/// bounds starvation and realises "finite but unbounded" delays.
class RandomFairScheduler : public Scheduler {
 public:
  struct Options {
    double lambda_prob = 0.15;
    double oldest_prob = 0.5;
    Time force_age = 512;
  };

  RandomFairScheduler() : RandomFairScheduler(Options{}) {}
  explicit RandomFairScheduler(Options opt) : opt_(opt), rng_(0) {}

  void begin_run(int n, const FailurePattern& f, std::uint64_t seed) override;
  StepChoice next(const Network& net, const FailurePattern& f,
                  Time now) override;
  [[nodiscard]] std::string name() const override { return "random-fair"; }

 private:
  void refill_round(const FailurePattern& f, Time now);

  Options opt_;
  int n_ = 0;
  Rng rng_;
  std::vector<ProcessId> round_;  ///< Remaining processes of this round.
};

/// Partially synchronous scheduler: before GST it behaves like
/// RandomFairScheduler (arbitrary but fair); from GST on, processes step
/// round-robin and always receive their oldest pending message, so
/// message delay and relative speeds are bounded. Heartbeat-based
/// detector implementations (Omega, FS) are correct under this scheduler.
class PartialSynchronyScheduler : public Scheduler {
 public:
  explicit PartialSynchronyScheduler(Time gst,
                                     RandomFairScheduler::Options pre_opts =
                                         RandomFairScheduler::Options{});

  void begin_run(int n, const FailurePattern& f, std::uint64_t seed) override;
  StepChoice next(const Network& net, const FailurePattern& f,
                  Time now) override;
  [[nodiscard]] std::string name() const override {
    return "partial-synchrony";
  }

  [[nodiscard]] Time gst() const { return gst_; }

 private:
  Time gst_;
  RandomFairScheduler pre_;
  RoundRobinScheduler post_;
};

/// Wraps a base scheduler and additionally withholds any message for
/// which `blocked(env, now)` is true — as long as withholding it keeps
/// the run legal (the filter must stop blocking eventually; use
/// time-bounded filters). Used for adversarial tests: partitions,
/// quorum-targeted delays, leader isolation.
class FilteredScheduler : public Scheduler {
 public:
  using Filter = std::function<bool(const Envelope&, Time now)>;

  FilteredScheduler(std::unique_ptr<Scheduler> base, Filter blocked);

  void begin_run(int n, const FailurePattern& f, std::uint64_t seed) override;
  StepChoice next(const Network& net, const FailurePattern& f,
                  Time now) override;
  [[nodiscard]] std::string name() const override {
    return "filtered(" + base_->name() + ")";
  }

 private:
  std::unique_ptr<Scheduler> base_;
  Filter blocked_;
};

/// Scheduler driven entirely by an external ChoiceSource: at every step
/// it enumerates the legal moves — for each alive process, delivering
/// one of its pending messages or taking a lambda step — and asks the
/// source which one happens. With a FixedChoices source this replays a
/// recorded schedule exactly; with RandomChoices it samples schedules;
/// with the DFS source of src/explore/ it enumerates them.
///
/// Unlike the other schedulers, ReplayScheduler does NOT enforce the run
/// conditions (a decision sequence may starve a message forever); it is
/// meant for bounded exploration and replay, where the horizon — not the
/// scheduler — bounds the run. Safety properties checked on such runs
/// are still sound: every explored prefix is a prefix of some legal run.
class ReplayScheduler : public Scheduler {
 public:
  struct Options {
    /// Partial-order reduction: offer only the oldest pending message of
    /// each (sender -> receiver) channel, i.e. explore per-channel-FIFO
    /// deliveries only. Cuts the branching factor from "all pending" to
    /// "one per sender" at the cost of cross-channel reorderings only.
    bool oldest_per_channel = true;
    /// Borrowed fault ledger; when set (and its plan allows anything) the
    /// menu additionally offers adversary moves — crash labels for
    /// processes the budget permits crashing, drop/duplicate labels for
    /// every delivery on the menu whose link budget permits. Null: menus
    /// are byte-identical to the fault-free scheduler.
    const inject::FaultState* faults = nullptr;
  };

  /// `choices` is borrowed and must outlive the scheduler.
  explicit ReplayScheduler(ChoiceSource* choices)
      : ReplayScheduler(choices, Options{}) {}
  ReplayScheduler(ChoiceSource* choices, Options opt);

  void begin_run(int n, const FailurePattern& f, std::uint64_t seed) override;
  StepChoice next(const Network& net, const FailurePattern& f,
                  Time now) override;
  [[nodiscard]] std::string name() const override { return "replay"; }
  [[nodiscard]] bool copy_to(std::unique_ptr<Scheduler>& slot,
                             ChoiceSource& choices,
                             const inject::FaultState* faults) const override;

  /// Stable label of a schedule option: which process steps, which
  /// message (0 = lambda) it receives, and — bits 46..47 of the message
  /// field — which action the step takes (0 = deliver/λ/start, so plain
  /// delivery labels are byte-identical to the pre-fault encoding).
  /// Stable across reorderings of other processes' steps, which is what
  /// sleep-set reduction needs.
  static constexpr std::uint64_t kMessageMask =
      (std::uint64_t{1} << 46) - 1;
  static std::uint64_t label(ProcessId p, std::uint64_t message_id) {
    return ((static_cast<std::uint64_t>(p) + 1) << 48) |
           (message_id & kMessageMask);
  }
  static std::uint64_t label(ProcessId p, std::uint64_t message_id,
                             StepChoice::Action action) {
    return label(p, message_id) |
           (static_cast<std::uint64_t>(action) << 46);
  }
  static ProcessId label_process(std::uint64_t label) {
    return static_cast<ProcessId>(label >> 48) - 1;
  }
  /// The message id a label acts on (0 = lambda or start step).
  static std::uint64_t label_message(std::uint64_t label) {
    return label & kMessageMask;
  }
  /// The action a label performs (kDeliver for all pre-fault labels).
  static StepChoice::Action label_action(std::uint64_t label) {
    return static_cast<StepChoice::Action>((label >> 46) & 3);
  }
  /// Whether a label is an adversary move (crash/drop/duplicate).
  static bool label_is_fault(std::uint64_t label) {
    return label_action(label) != StepChoice::Action::kDeliver;
  }

 private:
  ChoiceSource* choices_;
  Options opt_;
  int n_ = 0;
  ProcessSet started_;
  /// The menu of the current step; kept across steps to reuse storage.
  /// A copy keeps its own.
  std::vector<StepChoice> options_;
  std::vector<std::uint64_t> labels_;
};

}  // namespace wfd::sim
