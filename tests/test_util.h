// Shared helpers for the test suite: pattern/oracle/scheduler builders
// and a tiny do-nothing process for oracle-only runs.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "fd/classic_oracles.h"
#include "fd/fs_oracle.h"
#include "fd/omega_oracle.h"
#include "fd/oracle.h"
#include "fd/psi_oracle.h"
#include "fd/sigma_oracle.h"
#include "sim/environment.h"
#include "sim/module.h"
#include "sim/scheduler.h"
#include "sim/simulator.h"

namespace wfd::test {

/// A pattern with the given (process, crash time) pairs.
inline sim::FailurePattern pattern(
    int n, std::initializer_list<std::pair<ProcessId, Time>> crashes = {}) {
  sim::FailurePattern f(n);
  for (const auto& [p, t] : crashes) f.crash_at(p, t);
  return f;
}

/// Fast-converging oracles so tests keep runs short.
inline std::unique_ptr<fd::Oracle> omega(Time stab = 400) {
  fd::OmegaOracle::Options o;
  o.max_stabilization = stab;
  return std::make_unique<fd::OmegaOracle>(o);
}

inline std::unique_ptr<fd::Oracle> sigma_oracle(
    Time stab = 400,
    fd::SigmaOracle::Mode mode = fd::SigmaOracle::Mode::kCommonCore) {
  fd::SigmaOracle::Options o;
  o.mode = mode;
  o.max_stabilization = stab;
  return std::make_unique<fd::SigmaOracle>(o);
}

inline std::unique_ptr<fd::Oracle> omega_sigma(Time stab = 400) {
  fd::OmegaOracle::Options oo;
  oo.max_stabilization = stab;
  fd::SigmaOracle::Options so;
  so.max_stabilization = stab;
  return std::make_unique<fd::TupleOracle>(
      std::make_unique<fd::OmegaOracle>(oo),
      std::make_unique<fd::SigmaOracle>(so));
}

inline std::unique_ptr<fd::Oracle> fs_oracle(Time lag = 400) {
  fd::FsOracle::Options o;
  o.max_reaction_lag = lag;
  return std::make_unique<fd::FsOracle>(o);
}

inline std::unique_ptr<fd::Oracle> psi_oracle(
    fd::PsiOracle::Branch branch = fd::PsiOracle::Branch::kAuto,
    Time spread = 400, Time stab = 400) {
  fd::PsiOracle::Options o;
  o.branch = branch;
  o.max_switch_spread = spread;
  o.omega.max_stabilization = stab;
  o.sigma.max_stabilization = stab;
  return std::make_unique<fd::PsiOracle>(o);
}

inline std::unique_ptr<fd::Oracle> psi_fs(
    fd::PsiOracle::Branch branch = fd::PsiOracle::Branch::kAuto,
    Time spread = 400, Time stab = 400) {
  fd::FsOracle::Options fo;
  fo.max_reaction_lag = spread;
  fd::PsiOracle::Options po;
  po.branch = branch;
  po.max_switch_spread = spread;
  po.omega.max_stabilization = stab;
  po.sigma.max_stabilization = stab;
  return std::make_unique<fd::TupleOracle>(
      std::make_unique<fd::PsiOracle>(po),
      std::make_unique<fd::FsOracle>(fo));
}

inline std::unique_ptr<sim::Scheduler> random_sched() {
  return std::make_unique<sim::RandomFairScheduler>();
}

inline std::unique_ptr<sim::Scheduler> round_robin() {
  return std::make_unique<sim::RoundRobinScheduler>();
}

/// What each module decided — decision(), or a QC module's result() —
/// or nullopt where it has not: how a test reads outcomes after the run.
template <typename M>
auto decisions(const std::vector<M*>& modules) {
  const auto outcome = [](const M& m) {
    if constexpr (requires { m.result(); }) {
      return m.result();
    } else {
      return m.decision();
    }
  };
  using V = decltype(outcome(*modules.front()));
  std::vector<std::optional<V>> out;
  for (const M* m : modules) {
    out.push_back(m->decided() ? std::optional<V>(outcome(*m))
                               : std::nullopt);
  }
  return out;
}

/// A process that does nothing (for pure-oracle runs).
class NopProcess : public sim::Process {
 public:
  void on_step(sim::Context&, const sim::Envelope*) override {}
};

/// Build a simulator with NopProcesses (for oracle history tests).
inline sim::Simulator nop_sim(sim::SimConfig cfg, sim::FailurePattern f,
                              std::unique_ptr<fd::Oracle> oracle,
                              std::unique_ptr<sim::Scheduler> sched) {
  sim::Simulator s(cfg, std::move(f), std::move(oracle), std::move(sched));
  for (int i = 0; i < cfg.n; ++i) s.add_process<NopProcess>();
  return s;
}

}  // namespace wfd::test
