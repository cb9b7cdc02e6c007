#include "sim/scheduler.h"

#include <algorithm>

#include "common/check.h"
#include "inject/fault_plan.h"

namespace wfd::sim {

// ---------------------------------------------------------------- RoundRobin

void RoundRobinScheduler::begin_run(int n, const FailurePattern& f,
                                    std::uint64_t seed) {
  (void)f;
  (void)seed;
  n_ = n;
  cursor_ = 0;
}

StepChoice RoundRobinScheduler::next(const Network& net,
                                     const FailurePattern& f, Time now) {
  for (int tried = 0; tried < n_; ++tried) {
    const ProcessId p = cursor_;
    cursor_ = (cursor_ + 1) % n_;
    if (!f.alive(p, now)) continue;
    StepChoice c;
    c.p = p;
    c.message_id = net.oldest_for(p);
    return c;
  }
  return StepChoice{};  // Everyone crashed.
}

// ---------------------------------------------------------------- RandomFair

void RandomFairScheduler::begin_run(int n, const FailurePattern& f,
                                    std::uint64_t seed) {
  (void)f;
  n_ = n;
  rng_.reseed(seed);
  round_.clear();
}

void RandomFairScheduler::refill_round(const FailurePattern& f, Time now) {
  round_.clear();
  for (ProcessId p = 0; p < n_; ++p) {
    if (f.alive(p, now)) round_.push_back(p);
  }
  // Fisher-Yates shuffle.
  for (std::size_t i = round_.size(); i > 1; --i) {
    const std::size_t j = rng_.below(i);
    std::swap(round_[i - 1], round_[j]);
  }
}

StepChoice RandomFairScheduler::next(const Network& net,
                                     const FailurePattern& f, Time now) {
  // Drop processes that crashed since the round was formed.
  while (!round_.empty() && !f.alive(round_.back(), now)) round_.pop_back();
  if (round_.empty()) {
    refill_round(f, now);
    if (round_.empty()) return StepChoice{};  // Everyone crashed.
  }
  StepChoice c;
  c.p = round_.back();
  round_.pop_back();

  const std::vector<Network::Pending>& pending = net.pending(c.p);
  if (pending.empty()) return c;  // Lambda step.

  // Force-deliver overdue messages to keep delays finite.
  const Envelope& oldest = net.get(pending.front().id);
  if (now - oldest.sent_at >= opt_.force_age) {
    c.message_id = pending.front().id;
    return c;
  }
  if (rng_.uniform01() < opt_.lambda_prob) return c;  // Lambda step.
  if (rng_.uniform01() < opt_.oldest_prob) {
    c.message_id = pending.front().id;
  } else {
    c.message_id = pending[rng_.below(pending.size())].id;
  }
  return c;
}

// ---------------------------------------------------------- PartialSynchrony

PartialSynchronyScheduler::PartialSynchronyScheduler(
    Time gst, RandomFairScheduler::Options pre_opts)
    : gst_(gst), pre_(pre_opts) {}

void PartialSynchronyScheduler::begin_run(int n, const FailurePattern& f,
                                          std::uint64_t seed) {
  pre_.begin_run(n, f, seed);
  post_.begin_run(n, f, seed);
}

StepChoice PartialSynchronyScheduler::next(const Network& net,
                                           const FailurePattern& f, Time now) {
  if (now < gst_) return pre_.next(net, f, now);
  return post_.next(net, f, now);
}

// ------------------------------------------------------------------ Filtered

FilteredScheduler::FilteredScheduler(std::unique_ptr<Scheduler> base,
                                     Filter blocked)
    : base_(std::move(base)), blocked_(std::move(blocked)) {
  WFD_CHECK(base_ != nullptr);
  WFD_CHECK(blocked_ != nullptr);
}

void FilteredScheduler::begin_run(int n, const FailurePattern& f,
                                  std::uint64_t seed) {
  base_->begin_run(n, f, seed);
}

StepChoice FilteredScheduler::next(const Network& net, const FailurePattern& f,
                                   Time now) {
  StepChoice c = base_->next(net, f, now);
  if (c.p == kNoProcess || c.message_id == 0) return c;
  if (blocked_(net.get(c.message_id), now)) {
    // Withhold: try to substitute the oldest unblocked message; otherwise
    // the process takes a lambda step and the message stays pending.
    for (const Network::Pending& m : net.pending(c.p)) {
      if (!blocked_(net.get(m.id), now)) {
        c.message_id = m.id;
        return c;
      }
    }
    c.message_id = 0;
  }
  return c;
}

// -------------------------------------------------------------------- Replay

ReplayScheduler::ReplayScheduler(ChoiceSource* choices, Options opt)
    : choices_(choices), opt_(opt) {
  WFD_CHECK(choices_ != nullptr);
}

std::unique_ptr<Scheduler> ReplayScheduler::clone(
    ChoiceSource& choices, const inject::FaultState* faults) const {
  // Options::faults borrows the simulator's ledger: the copy reads the
  // clone's. The menu vectors are per-step scratch and are not copied.
  if ((faults == nullptr) != (opt_.faults == nullptr)) return nullptr;
  Options opt = opt_;
  opt.faults = faults;
  auto copy = std::make_unique<ReplayScheduler>(&choices, opt);
  copy->n_ = n_;
  copy->started_ = started_;
  return copy;
}

void ReplayScheduler::begin_run(int n, const FailurePattern& f,
                                std::uint64_t seed) {
  (void)f;
  (void)seed;
  n_ = n;
  started_ = ProcessSet{};
}

StepChoice ReplayScheduler::next(const Network& net, const FailurePattern& f,
                                 Time now) {
  options_.clear();
  labels_.clear();
  const auto offer = [this](StepChoice c) {
    options_.push_back(c);
    labels_.push_back(label(c.p, c.message_id, c.action));
  };
  for (ProcessId p = 0; p < n_; ++p) {
    if (!f.alive(p, now)) continue;
    if (!started_.contains(p)) {
      // The first step of a process receives no message; offering
      // deliveries would silently waste them (the simulator runs
      // on_start and leaves the message pending).
      offer(StepChoice{p, 0});
      continue;
    }
    std::uint64_t seen_channels = 0;  // Senders already offered (bitmask).
    for (const Network::Pending& m : net.pending(p)) {
      if (opt_.oldest_per_channel) {
        const std::uint64_t bit = std::uint64_t{1} << m.from;
        if ((seen_channels & bit) != 0) continue;
        seen_channels |= bit;
      }
      offer(StepChoice{p, m.id});
    }
    // A lambda step is always on the menu: timeout-driven protocols
    // need it even while messages are pending.
    offer(StepChoice{p, 0});
  }
  if (opt_.faults != nullptr) {
    // Adversary moves go after the normal labels so default (index-0)
    // exploration prefers progress. Drop/duplicate apply to exactly the
    // deliveries already on the menu — dropping a message the reduction
    // would not offer for delivery is covered by dropping the offered
    // (older) one first.
    const std::size_t normal = options_.size();
    for (std::size_t i = 0; i < normal; ++i) {
      // By value: offer() may reallocate `options_`.
      const StepChoice c = options_[i];
      if (c.message_id == 0) continue;
      const ProcessId from = net.get(c.message_id).from;
      if (opt_.faults->may_drop(from, c.p)) {
        offer(StepChoice{c.p, c.message_id, StepChoice::Action::kDrop});
      }
      if (opt_.faults->may_dup(from, c.p)) {
        offer(StepChoice{c.p, c.message_id, StepChoice::Action::kDup});
      }
    }
    for (ProcessId p = 0; p < n_; ++p) {
      if (opt_.faults->may_crash(p, f, now)) {
        offer(StepChoice{p, 0, StepChoice::Action::kCrash});
      }
    }
  }
  if (options_.empty()) return StepChoice{};  // Everyone crashed.
  // Report the full menu — forced moves included — before the >=2 guard:
  // liveness fairness bookkeeping needs the enabled set of every step,
  // and single-option points never reach choose().
  choices_->note_enabled(ChoiceKind::kSchedule, labels_);
  std::size_t idx = 0;
  if (options_.size() >= 2) {
    idx = choices_->choose(ChoiceKind::kSchedule, labels_);
    WFD_CHECK(idx < options_.size());
  }
  if (options_[idx].action == StepChoice::Action::kDeliver) {
    started_.insert(options_[idx].p);
  }
  return options_[idx];
}

}  // namespace wfd::sim
