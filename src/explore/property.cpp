#include "explore/property.h"

#include <algorithm>

#include "broadcast/atomic_broadcast.h"
#include "broadcast/reliable_broadcast.h"
#include "consensus/omega_sigma_consensus.h"
#include "fd/heartbeat_omega.h"
#include "fd/history_checker.h"
#include "sim/module.h"

namespace wfd::explore {

namespace {

/// The module at position `pos` of process p's host, read through the
/// simulator's const accessor (the mutable one drops p's cached
/// encoding). Asserts when p hosts no modules or the type differs.
template <typename M>
const M& hosted(const sim::Simulator& sim, ProcessId p, std::size_t pos) {
  const auto* host = dynamic_cast<const sim::ModuleHost*>(&sim.process(p));
  WFD_CHECK_MSG(host != nullptr, "process hosts no modules");
  return host->module_at<M>(pos);
}

}  // namespace

bool LeadershipClause::goal(const sim::Simulator& sim) const {
  if (sim.all_alive_done()) return true;
  for (ProcessId p = 0; p < sim.n(); ++p) {
    if (sim.pattern().alive(p, sim.now()) &&
        hosted<consensus::OmegaSigmaConsensusModule<int>>(sim, p, position_)
            .is_leading()) {
      return true;
    }
  }
  return false;
}

bool FdCompletenessClause::goal(const sim::Simulator& sim) const {
  std::uint64_t crashed = 0;
  for (ProcessId p = 0; p < sim.n(); ++p) {
    if (!sim.pattern().alive(p, sim.now())) {
      crashed |= std::uint64_t{1} << p;
    }
  }
  for (ProcessId p = 0; p < sim.n(); ++p) {
    if ((crashed >> p) & 1) continue;  // Crashed observers don't count.
    const auto& omega = hosted<fd::HeartbeatOmegaModule>(sim, p, position_);
    const ProcessId leader = omega.current_leader();
    if (leader != kNoProcess && ((crashed >> leader) & 1) != 0) {
      return false;
    }
    if ((omega.suspected().raw() & crashed) != crashed) return false;
  }
  return true;
}

std::optional<Violation> AgreementInvariant::check(const sim::Simulator& sim) {
  const auto& events = sim.trace().events();
  for (; cursor_ < events.size(); ++cursor_) {
    const auto& e = events[cursor_];
    if (e.kind != kind_) continue;
    if (!have_first_) {
      have_first_ = true;
      first_p_ = e.p;
      first_value_ = e.value;
      continue;
    }
    if (e.value != first_value_) {
      return Violation{
          name(),
          "p" + std::to_string(first_p_) + " decided " +
              std::to_string(first_value_) + " but p" + std::to_string(e.p) +
              " decided " + std::to_string(e.value) + " at t=" +
              std::to_string(e.t),
          e.t};
    }
  }
  return std::nullopt;
}

std::optional<Violation> ValidityInvariant::check(const sim::Simulator& sim) {
  const auto& events = sim.trace().events();
  for (; cursor_ < events.size(); ++cursor_) {
    const auto& e = events[cursor_];
    if (e.kind != kind_) continue;
    bool ok = false;
    for (std::int64_t v : allowed_) ok = ok || (v == e.value);
    if (!ok) {
      return Violation{name(),
                       "p" + std::to_string(e.p) + " decided " +
                           std::to_string(e.value) +
                           ", which no process proposed",
                       e.t};
    }
  }
  return std::nullopt;
}

std::optional<Violation> QuitValidityInvariant::check(
    const sim::Simulator& sim) {
  const auto& events = sim.trace().events();
  for (; cursor_ < events.size(); ++cursor_) {
    const auto& e = events[cursor_];
    if (e.kind != "qc-decide" || e.value != -1) continue;
    if (!sim.pattern().failure_by(e.t)) {
      return Violation{name(),
                       "p" + std::to_string(e.p) + " decided Q at t=" +
                           std::to_string(e.t) +
                           " but no failure had occurred",
                       e.t};
    }
  }
  return std::nullopt;
}

std::optional<Violation> NbacValidityInvariant::check(
    const sim::Simulator& sim) {
  const auto& events = sim.trace().events();
  bool all_yes = true;
  for (nbac::Vote v : votes_) all_yes = all_yes && (v == nbac::Vote::kYes);
  for (; cursor_ < events.size(); ++cursor_) {
    const auto& e = events[cursor_];
    if (e.kind != "nbac-decide") continue;
    if (e.value == 1 && !all_yes) {
      return Violation{name(),
                       "p" + std::to_string(e.p) +
                           " committed despite a No vote",
                       e.t};
    }
    if (e.value == 0 && all_yes && sim.pattern().faulty().empty()) {
      return Violation{name(),
                       "p" + std::to_string(e.p) +
                           " aborted with unanimous Yes and no failure",
                       e.t};
    }
  }
  return std::nullopt;
}

std::optional<Violation> FdPrefixInvariant::check(const sim::Simulator& sim) {
  // The pattern only ever gains failures, which only ever *legalise*
  // samples, so re-checking is needed only when new samples arrived.
  const auto& samples = sim.trace().samples();
  if (samples.size() == checked_) return std::nullopt;
  checked_ = samples.size();
  if (fs_) {
    const fd::CheckResult r = fd::check_fs_prefix(samples, sim.pattern());
    if (!r.ok) return Violation{name(), r.violation, sim.now()};
  }
  if (psi_) {
    const fd::CheckResult r = fd::check_psi_prefix(samples, sim.pattern());
    if (!r.ok) return Violation{name(), r.violation, sim.now()};
  }
  return std::nullopt;
}

std::optional<Violation> SigmaIntersectionInvariant::check(
    const sim::Simulator& sim) {
  const auto& samples = sim.trace().samples();
  for (; cursor_ < samples.size(); ++cursor_) {
    const auto& s = samples[cursor_];
    std::uint64_t masks[2];
    int count = 0;
    if (s.value.sigma.has_value()) masks[count++] = s.value.sigma->raw();
    if (s.value.psi.has_value() &&
        s.value.psi->mode == fd::PsiValue::Mode::kOmegaSigma) {
      masks[count++] = s.value.psi->sigma.raw();
    }
    for (int i = 0; i < count; ++i) {
      const std::uint64_t mask = masks[i];
      bool fresh = true;
      for (std::uint64_t old : seen_) {
        if (old == mask) fresh = false;
        if ((old & mask) == 0) {
          return Violation{
              name(),
              "quorums " + ProcessSet::from_raw(old).to_string() + " and " +
                  ProcessSet::from_raw(mask).to_string() +
                  " do not intersect (p" + std::to_string(s.p) +
                  " at t=" + std::to_string(s.t) + ")",
              s.t};
        }
      }
      if (fresh) seen_.push_back(mask);
    }
  }
  return std::nullopt;
}

std::optional<Violation> RegisterAtomicityInvariant::check(
    const sim::Simulator& sim) {
  // Linearizability can only newly fail when a response lands.
  const std::size_t completed = history_.completed();
  if (completed == checked_completed_) return std::nullopt;
  checked_completed_ = completed;
  const reg::LinearizabilityResult r =
      reg::check_linearizable(history_, initial_);
  if (r.ok) return std::nullopt;
  return Violation{name(), r.violation, sim.now()};
}

void RegisterAtomicityInvariant::encode_state(sim::StateEncoder& enc) const {
  const auto& ops = history_.ops();
  // Per-client operation indices give ops a schedule-independent
  // identity (the shared vector's order is invocation order, which is
  // schedule-dependent).
  for (const reg::OpRecord& op : ops) {
    sim::StateEncoder sub = enc.child();
    sub.pid_field("client", op.client);
    sub.field("seq", op.client_seq);
    sub.field("is-write", op.is_write);
    const bool completed = op.responded != kNever;
    sub.field("completed", completed);
    if (op.is_write || completed) sub.field("value", op.value);
    // Real-time precedence edges, identified by (client, seq) — the
    // relative overlap structure without the absolute times.
    for (const reg::OpRecord& later : ops) {
      if (completed && op.responded <= later.invoked) {
        sim::StateEncoder edge = sub.child();
        edge.pid_field("client", later.client);
        edge.field("seq", later.client_seq);
        sub.merge("precedes", edge);
      }
    }
    enc.merge("op", sub);
  }
}

template <typename M>
void DeliveryLogInvariant::catch_up(const sim::Simulator& sim) {
  for (ProcessId p = 0; p < static_cast<ProcessId>(logs_.size()); ++p) {
    const auto& delivered = hosted<M>(sim, p, position_).delivered_log();
    auto& log = logs_[static_cast<std::size_t>(p)];
    log.insert(log.end(),
               delivered.begin() + static_cast<std::ptrdiff_t>(log.size()),
               delivered.end());
  }
}

void DeliveryLogInvariant::encode_state(sim::StateEncoder& enc) const {
  for (std::size_t p = 0; p < logs_.size(); ++p) {
    enc.push("proc", p);
    enc.field("#", logs_[p].size());
    for (std::size_t k = 0; k < logs_[p].size(); ++k) {
      enc.push("at", k);
      logs_[p][k].encode_state(enc);
      enc.pop();
    }
    enc.pop();
  }
}

std::optional<Violation> TotalOrderInvariant::check(
    const sim::Simulator& sim) {
  catch_up<broadcast::AtomicBroadcastModule>(sim);
  for (std::size_t a = 0; a < logs_.size(); ++a) {
    for (std::size_t b = a + 1; b < logs_.size(); ++b) {
      const std::size_t common = std::min(logs_[a].size(), logs_[b].size());
      for (std::size_t k = 0; k < common; ++k) {
        const broadcast::AppMessage& x = logs_[a][k];
        const broadcast::AppMessage& y = logs_[b][k];
        if (x != y || x.body != y.body) {
          return Violation{
              name(),
              "p" + std::to_string(a) + " and p" + std::to_string(b) +
                  " disagree at log position " + std::to_string(k),
              sim.now()};
        }
      }
    }
  }
  return std::nullopt;
}

std::optional<Violation> UrbIntegrityInvariant::check(
    const sim::Simulator& sim) {
  catch_up<broadcast::UrbModule>(sim);
  for (std::size_t p = 0; p < logs_.size(); ++p) {
    const auto& log = logs_[p];
    for (std::size_t k = 0; k < log.size(); ++k) {
      const broadcast::AppMessage& e = log[k];
      // Only broadcast messages: the workload has sender i send exactly
      // one message, body 100+i, seq 1.
      if (e.origin < 0 || e.origin >= senders_ || e.seq != 1 ||
          e.body != 100 + static_cast<std::int64_t>(e.origin)) {
        return Violation{name(),
                         "p" + std::to_string(p) +
                             " delivered a message never broadcast "
                             "(origin " +
                             std::to_string(e.origin) + ", seq " +
                             std::to_string(e.seq) + ")",
                         sim.now()};
      }
      for (std::size_t j = 0; j < k; ++j) {
        if (log[j].origin == e.origin && log[j].seq == e.seq) {
          return Violation{name(),
                           "p" + std::to_string(p) +
                               " delivered (origin " +
                               std::to_string(e.origin) + ", seq " +
                               std::to_string(e.seq) + ") twice",
                           sim.now()};
        }
      }
    }
  }
  return std::nullopt;
}

std::optional<Violation> EventualDecisionProperty::check_final(
    const sim::Simulator& sim) {
  for (ProcessId p : sim.pattern().correct().members()) {
    if (sim.trace().first_event(p, kind_).t == kNever) {
      return Violation{name(),
                       "correct process p" + std::to_string(p) +
                           " never emitted " + kind_,
                       sim.now()};
    }
  }
  return std::nullopt;
}

std::optional<Violation> EventualLeadershipProperty::check_final(
    const sim::Simulator& sim) {
  const ProcessSet correct = sim.pattern().correct();
  ProcessId expected = kNoProcess;
  for (ProcessId p : correct.members()) {
    if (expected == kNoProcess || p < expected) expected = p;
  }
  const auto& events = sim.trace().events();
  for (ProcessId p : correct.members()) {
    ProcessId last = kNoProcess;
    bool any = false;
    for (const auto& e : events) {
      if (e.p != p || e.kind != kind_) continue;
      any = true;
      last = static_cast<ProcessId>(e.value);
    }
    if (!any) {
      return Violation{name(),
                       "correct process p" + std::to_string(p) +
                           " never emitted " + kind_,
                       sim.now()};
    }
    if (last != expected) {
      return Violation{name(),
                       "correct process p" + std::to_string(p) +
                           " last trusted p" + std::to_string(last) +
                           " but the smallest correct process is p" +
                           std::to_string(expected),
                       sim.now()};
    }
  }
  return std::nullopt;
}

}  // namespace wfd::explore
