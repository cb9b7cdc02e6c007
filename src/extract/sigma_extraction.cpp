#include "extract/sigma_extraction.h"

#include <algorithm>

namespace wfd::extract {

void SigmaExtractionModule::on_start() {
  // Lines 1-5: P_i(0) = Pi; E_i = {P_i(0)}; trust everyone initially.
  prev_participants_ = ProcessSet::full(n());
  ei_ = {prev_participants_};
  output_ = ProcessSet::full(n());
  start_iteration();
}

void SigmaExtractionModule::start_iteration() {
  // Lines 7-8: k := k+1; Reg_i.write(k, E_i).
  ++k_;
  state_ = PhaseState::kWriting;
  tracker_->begin_write(k_);
  host()
      .module_at<reg::RegisterApi<QuorumList>>(
          regs_[static_cast<std::size_t>(self())])
      .write(ei_, hook(k_ << 1));
}

void SigmaExtractionModule::on_result(std::uint64_t tag,
                                      const QuorumList& value) {
  if ((tag >> 1) != k_) return;
  if ((tag & 1) == 0) {
    // Lines 8-10: P_i(k) := participants; E_i += {P_i(k)}; F_i := P_i(k-1).
    // E_i has set semantics ("the set of subsets of processes that
    // participate"), so duplicates are not re-added — this is what keeps
    // the register values and the probe fan-out bounded in long runs.
    const ProcessSet pk = tracker_->end_write(k_);
    if (std::find(ei_.begin(), ei_.end(), pk) == ei_.end()) {
      ei_.push_back(pk);
    }
    fi_ = prev_participants_;
    prev_participants_ = pk;
    // Lines 11-12: read all registers.
    state_ = PhaseState::kReading;
    read_index_ = 0;
    probe_sets_.clear();
    read_next_register();
    return;
  }
  // Lines 13-16 gather the sets to probe; dedupe to bound the probe
  // fan-out (probing a set twice selects the same kind of witness).
  for (const ProcessSet& x : value) {
    if (x.empty()) continue;
    if (std::find(probe_sets_.begin(), probe_sets_.end(), x) ==
        probe_sets_.end()) {
      probe_sets_.push_back(x);
    }
  }
  read_next_register();
}

void SigmaExtractionModule::read_next_register() {
  if (read_index_ >= n()) {
    start_probes();
    return;
  }
  host()
      .module_at<reg::RegisterApi<QuorumList>>(
          regs_[static_cast<std::size_t>(read_index_++)])
      .read(hook((k_ << 1) | 1));
}

void SigmaExtractionModule::start_probes() {
  state_ = PhaseState::kProbing;
  ++probe_round_;
  probe_satisfied_.assign(probe_sets_.size(), false);
  if (probe_sets_.empty()) {
    finish_iteration();
    return;
  }
  // Line 14: send (k, ?) to all processes of every set.
  ProcessSet targets;
  for (const ProcessSet& x : probe_sets_) targets = targets.set_union(x);
  for (ProcessId t : targets.members()) {
    send(t, sim::make_payload<ProbeMsg>(probe_round_));
  }
}

void SigmaExtractionModule::on_message(ProcessId from,
                                       const sim::Payload& msg) {
  if (const auto* probe = sim::payload_cast<ProbeMsg>(msg)) {
    // Line 18 (task 2): always acknowledge probes.
    send(from, sim::make_payload<ProbeAck>(probe->id));
    return;
  }
  if (const auto* ack = sim::payload_cast<ProbeAck>(msg)) {
    if (state_ != PhaseState::kProbing || ack->id != probe_round_) return;
    // Lines 15-16: the first replier of each probed set joins F_i.
    bool all = true;
    for (std::size_t s = 0; s < probe_sets_.size(); ++s) {
      if (!probe_satisfied_[s] && probe_sets_[s].contains(from)) {
        probe_satisfied_[s] = true;
        fi_.insert(from);
      }
      all = all && probe_satisfied_[s];
    }
    if (all) finish_iteration();
    return;
  }
}

void SigmaExtractionModule::finish_iteration() {
  // Line 17: publish the new quorum, then loop.
  output_ = fi_;
  state_ = PhaseState::kIdle;
  start_iteration();
}

void SigmaExtractionModule::on_tick() {
  if (sink_ == nullptr) return;
  const Time period = opt_.sample_period != 0 ? opt_.sample_period : 8;
  if (++ticks_since_sample_ < period) return;
  ticks_since_sample_ = 0;
  sim::FdSampleRecord rec;
  rec.p = self();
  rec.t = now();
  rec.value = fd_value();
  sink_->push_back(rec);
}

}  // namespace wfd::extract
