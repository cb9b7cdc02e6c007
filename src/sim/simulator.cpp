#include "sim/simulator.h"

#include "common/check.h"

namespace wfd::sim {

Simulator::Simulator(SimConfig cfg, FailurePattern pattern,
                     std::unique_ptr<fd::Oracle> oracle,
                     std::unique_ptr<Scheduler> scheduler)
    : cfg_(cfg),
      pattern_(std::move(pattern)),
      oracle_(std::move(oracle)),
      scheduler_(std::move(scheduler)) {
  WFD_CHECK(cfg_.n >= 1 && cfg_.n <= kMaxProcesses);
  WFD_CHECK(pattern_.n() == cfg_.n);
  WFD_CHECK(oracle_ != nullptr);
  WFD_CHECK(scheduler_ != nullptr);
  trace_.set_record_samples(cfg_.record_fd_samples);
}

Process& Simulator::process(ProcessId p) {
  WFD_CHECK(p >= 0 && p < static_cast<ProcessId>(procs_.size()));
  ProcSlot& slot = procs_[static_cast<std::size_t>(p)];
  slot.body.reset();
  return *slot.proc;
}

const Process& Simulator::process(ProcessId p) const {
  WFD_CHECK(p >= 0 && p < static_cast<ProcessId>(procs_.size()));
  return *procs_[static_cast<std::size_t>(p)].proc;
}

bool Simulator::copy_to(std::unique_ptr<Simulator>& slot,
                        const CloneMap& map) const {
  if (slot == nullptr) slot.reset(new Simulator());
  Simulator& to = *slot;
  if (faults_ == nullptr) {
    to.faults_.reset();
  } else if (to.faults_ == nullptr) {
    to.faults_ = std::make_unique<inject::FaultState>(*faults_);
  } else {
    *to.faults_ = *faults_;
  }
  if (!oracle_->copy_to(to.oracle_, map.choices()) ||
      !scheduler_->copy_to(to.scheduler_, map.choices(), to.faults_.get())) {
    return false;
  }
  to.procs_.resize(procs_.size());
  for (std::size_t p = 0; p < procs_.size(); ++p) {
    if (!procs_[p].proc->copy_to(to.procs_[p].proc, map)) return false;
    to.procs_[p].body = procs_[p].body;
  }
  to.cfg_ = cfg_;
  to.pattern_ = pattern_;
  to.started_p_ = started_p_;
  to.proc_rng_ = proc_rng_;
  to.net_ = net_;
  to.trace_ = trace_;
  to.now_ = now_;
  to.started_ = started_;
  to.halt_on_done_ = halt_on_done_;
  to.last_step_ = last_step_;
  return true;
}

bool Simulator::all_alive_done() const {
  for (ProcessId p = 0; p < cfg_.n; ++p) {
    if (pattern_.alive(p, now_) &&
        !procs_[static_cast<std::size_t>(p)].proc->done()) {
      return false;
    }
  }
  return true;
}

void Simulator::ensure_started() {
  if (started_) return;
  WFD_CHECK_MSG(static_cast<int>(procs_.size()) == cfg_.n,
                "add_process must be called exactly n times before run");
  scheduler_->begin_run(cfg_.n, pattern_, cfg_.seed);
  if (faults_ != nullptr) faults_->begin_run(cfg_.n);
  oracle_->begin_run(pattern_, cfg_.seed ^ 0xd1b54a32d192ed03ULL,
                     cfg_.max_steps);
  Rng root(cfg_.seed ^ 0xabcdef1234567890ULL);
  proc_rng_.clear();
  proc_rng_.reserve(static_cast<std::size_t>(cfg_.n));
  for (int i = 0; i < cfg_.n; ++i) proc_rng_.push_back(root.split());
  started_ = true;
}

bool Simulator::step() {
  ensure_started();
  if (halted()) return false;

  const StepChoice choice = scheduler_->next(net_, pattern_, now_);
  if (choice.p == kNoProcess) return false;  // Everyone crashed.
  WFD_CHECK(pattern_.alive(choice.p, now_));

  if (choice.action != StepChoice::Action::kDeliver) {
    // Adversary move: no process code runs, no FD query happens.
    WFD_CHECK(faults_ != nullptr);
    last_step_ = LastStep{};
    last_step_.p = choice.p;
    last_step_.action = choice.action;
    switch (choice.action) {
      case StepChoice::Action::kCrash:
        pattern_.crash_at(choice.p, now_);
        oracle_->on_crash(choice.p, now_);
        faults_->note_crash();
        break;
      case StepChoice::Action::kDrop: {
        Envelope env = net_.take(choice.message_id);
        WFD_CHECK(env.to == choice.p);
        last_step_.fault_msg = choice.message_id;
        last_step_.from = env.from;
        faults_->note_drop(env.from, env.to);
        break;
      }
      case StepChoice::Action::kDup: {
        Envelope copy = net_.get(choice.message_id);
        WFD_CHECK(copy.to == choice.p);
        last_step_.fault_msg = choice.message_id;
        last_step_.from = copy.from;
        faults_->note_dup(copy.from, copy.to);
        last_step_.dup_id = net_.send(std::move(copy));
        trace_.count_send();
        break;
      }
      case StepChoice::Action::kDeliver:
        break;  // Unreachable.
    }
    trace_.count_step(false);
    ++now_;
    return true;
  }

  const fd::FdValue v = oracle_->query(choice.p, now_);
  trace_.record_sample(choice.p, now_, v);
  Context ctx(*this, choice.p, v);
  ProcSlot& slot = procs_[static_cast<std::size_t>(choice.p)];
  // Only the stepping process's body can change in this step.
  slot.body.reset();
  Process& proc = *slot.proc;
  last_step_ = LastStep{choice.p, 0, false};

  bool lambda = true;
  if (!started_p_.contains(choice.p)) {
    started_p_.insert(choice.p);
    last_step_.was_start = true;
    proc.on_start(ctx);
  } else if (choice.message_id != 0 && net_.contains(choice.message_id)) {
    Envelope env = net_.take(choice.message_id);
    WFD_CHECK(env.to == choice.p);
    trace_.count_delivery();
    last_step_.delivered = choice.message_id;
    last_step_.from = env.from;
    if (env.meta != nullptr && proc.instrument() != nullptr) {
      proc.instrument()->incoming_meta(env.from, *env.meta);
    }
    proc.on_step(ctx, &env);
    lambda = false;
  } else {
    // Evaluated before the step runs; for a declared no-op the pre- and
    // post-states agree, so either read is the step's verdict.
    last_step_.tick_noop = proc.tick_noop();
    proc.on_step(ctx, nullptr);
  }
  trace_.count_step(lambda);
  ++now_;
  return true;
}

bool Simulator::process_tick_noop(ProcessId p) const {
  return p >= 0 && p < static_cast<ProcessId>(procs_.size()) &&
         started_p_.contains(p) &&
         procs_[static_cast<std::size_t>(p)].proc->tick_noop();
}

StateEncoder::Partial Simulator::encode_body(ProcessId p) const {
  StateEncoder enc;
  enc.push_proc("proc", p);
  procs_[static_cast<std::size_t>(p)].proc->encode_state(enc);
  enc.pop();
  return enc.partial();
}

const StateEncoder::Partial& Simulator::body(ProcessId p) const {
  const ProcSlot& slot = procs_[static_cast<std::size_t>(p)];
  if (!slot.body.has_value()) {
    slot.body = encode_body(p);
  } else {
#ifndef NDEBUG
    WFD_CHECK_MSG(encode_body(p) == *slot.body,
                  "process state changed outside its own steps");
#endif
  }
  return *slot.body;
}

void Simulator::encode_state(StateEncoder& enc) const {
  for (ProcessId p = 0; p < cfg_.n; ++p) {
    // The header depends on the time and the failure pattern, so it is
    // folded afresh every time.
    enc.push_proc("proc", p);
    enc.field("started", started_p_.contains(p));
    enc.field("crashed", !pattern_.alive(p, now_));
    // A crash still ahead of us changes the reachable futures; fold how
    // far away it is (a delta — absolute times would defeat pruning).
    const Time crash = pattern_.crash_time(p);
    if (crash != kNever && crash > now_) {
      enc.field("crash-in", crash - now_);
    }
    if (enc.renamed()) {
      // A renaming rewrites the body's pid fields: no cache applies.
      procs_[static_cast<std::size_t>(p)].proc->encode_state(enc);
      enc.pop();
    } else {
      enc.pop();
      enc.add(body(p));
    }
  }
  net_.encode_state(enc);
  enc.push("oracle");
  oracle_->encode_state(enc, now_);
  enc.pop();
  if (faults_ != nullptr && faults_->plan().any()) {
    enc.push("faults");
    faults_->encode_state(enc);
    enc.pop();
  }
}

std::optional<std::uint64_t> Simulator::state_fingerprint() const {
  StateEncoder enc;
  encode_state(enc);
  if (!enc.complete()) return std::nullopt;
  return enc.digest();
}

RunResult Simulator::run() { return run_for(cfg_.max_steps); }

RunResult Simulator::run_for(Time steps) {
  RunResult r;
  for (Time i = 0; i < steps; ++i) {
    if (!step()) break;
    ++r.steps;
  }
  r.all_done = all_alive_done();
  return r;
}

void Context::send(ProcessId to, PayloadPtr payload) {
  WFD_CHECK(to >= 0 && to < sim_->n());
  Envelope env;
  env.from = self_;
  env.to = to;
  env.sent_at = sim_->now_;
  env.payload = std::move(payload);
  Process& proc = *sim_->procs_[static_cast<std::size_t>(self_)].proc;
  if (TransportInstrument* ins = proc.instrument()) {
    env.meta = ins->outgoing_meta();
  }
  sim_->net_.send(std::move(env));
  sim_->trace_.count_send();
}

void Context::broadcast(PayloadPtr payload, bool include_self) {
  for (ProcessId q = 0; q < sim_->n(); ++q) {
    if (!include_self && q == self_) continue;
    send(q, payload);
  }
}

void Context::emit(const std::string& kind, std::int64_t value) {
  sim_->trace_.record_event(self_, sim_->now(), kind, value);
}

Rng& Context::rng() {
  return sim_->proc_rng_[static_cast<std::size_t>(self_)];
}

}  // namespace wfd::sim
