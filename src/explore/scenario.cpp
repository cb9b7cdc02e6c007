#include "explore/scenario.h"

#include <algorithm>

#include "broadcast/atomic_broadcast.h"
#include "broadcast/quasi_reliable.h"
#include "broadcast/reliable_broadcast.h"
#include "common/check.h"
#include "consensus/omega_sigma_consensus.h"
#include "explore/choice_oracle.h"
#include "explore/liveness.h"
#include "explore/seeded_bug.h"
#include "fd/heartbeat_omega.h"
#include "inject/fault_plan.h"
#include "nbac/nbac_from_qc.h"
#include "qc/psi_qc.h"
#include "reg/abd_register.h"
#include "reg/register_client.h"
#include "sim/scheduler.h"

namespace wfd::explore {

namespace {

/// A process that does nothing: the simulator samples (and records) the
/// oracle at every step regardless, which is all the sigma scenario
/// needs to feed SigmaIntersectionInvariant.
class FdProbeProcess : public sim::Process {
 public:
  void on_step(sim::Context&, const sim::Envelope*) override {}
  [[nodiscard]] bool copy_to(std::unique_ptr<sim::Process>& slot,
                             const sim::CloneMap&) const override {
    sim::copy_into(*this, slot);
    return true;
  }
};

/// Keeps an rb run alive until this process has delivered every
/// broadcast message: UrbModule itself is done once its outbox drains,
/// which would halt the simulator with echoes still in flight. Its
/// state is a pure function of the UrbModule's, so it encodes nothing.
class UrbWaiter : public sim::Module {
 public:
  /// `rb`: the UrbModule's position in this host.
  UrbWaiter(std::size_t rb, std::uint64_t expect) : rb_(rb), expect_(expect) {}
  [[nodiscard]] bool done() const override {
    return host().module_at<broadcast::UrbModule>(rb_).delivered_count() >=
           expect_;
  }
  void on_message(ProcessId, const sim::Payload&) override {}
  [[nodiscard]] bool tick_noop() const override { return true; }
  void encode_state(sim::StateEncoder&) const override {}
  [[nodiscard]] bool copy_to(
      std::unique_ptr<sim::Module>& slot) const override {
    sim::copy_into(*this, slot);
    return true;
  }

 private:
  std::size_t rb_;
  std::uint64_t expect_;
};

/// Detector components, as ChoiceOracle enables them.
enum Component : unsigned { kOmega = 1, kSigma = 2, kFs = 4, kPsi = 8 };

/// One row per problem: the detector components its construction
/// queries and the liveness clauses it can be checked against. Every
/// per-problem detector rule (the majority floor, crash observability,
/// the liveness restrictions, the oracle build() makes) is derived from
/// the components below, so a new problem is one new row.
struct ProblemRow {
  const char* name;
  unsigned fd;  ///< Component bits.
  std::vector<std::string> liveness;
};

const std::vector<ProblemRow>& problem_table() {
  static const std::vector<ProblemRow> kTable = {
      {"consensus", kOmega | kSigma, {"termination", "leadership"}},
      // The broken protocol is detector-free, keeping its choice tree
      // purely about schedules.
      {"consensus-bug", 0, {"termination"}},
      // The participants' fallback path reads FS.
      {"consensus-crash-bug", kFs, {}},
      {"consensus-live-bug", kOmega | kSigma, {"termination", "leadership"}},
      {"consensus-crash-live-bug", kOmega | kSigma,
       {"termination", "leadership"}},
      {"qc", kPsi, {"termination"}},
      {"nbac", kPsi | kFs, {"termination"}},
      {"sigma", kSigma, {}},
      {"register", kSigma, {}},
      {"register-regular", kSigma, {}},
      {"abcast", kOmega | kSigma, {}},
      {"rb", 0, {"termination"}},
      // The implementable heartbeat Omega is a service: its modules are
      // never done, so bounded-safety exhaustion has no halting states
      // to prune and it carries no invariant. Exhaustive mode checks
      // --liveness=fd-completeness (fair-cycle search over the
      // depth-bounded state graph, with truncation reported); campaign
      // mode checks its eventual leadership on random walks.
      {"omega-impl", 0, {"fd-completeness"}},
  };
  return kTable;
}

const ProblemRow* find_problem(const std::string& name) {
  for (const ProblemRow& row : problem_table()) {
    if (name == row.name) return &row;
  }
  return nullptr;
}

/// Sigma and Psi draw quorums from the minimal majorities, which
/// intersect only while a majority stays correct: their failure
/// patterns, scripted or reconstructed by injection, must keep one.
bool majority_floor(const ProblemRow& row) {
  return (row.fd & (kSigma | kPsi)) != 0;
}

/// FS and Psi are the only components whose outputs read failure_by(t)
/// mid-run.
bool reads_failures(const ProblemRow& row) {
  return (row.fd & (kFs | kPsi)) != 0;
}

std::vector<std::int64_t> proposals(int n) {
  std::vector<std::int64_t> out;
  for (int i = 0; i < n; ++i) out.push_back(i % 2);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

ScenarioFactory::ScenarioFactory(ScenarioOptions opt) : opt_(std::move(opt)) {
  WFD_CHECK_MSG(validate(opt_).empty(), "invalid scenario options");
}

const std::vector<std::string>& ScenarioFactory::problems() {
  static const std::vector<std::string> kProblems = [] {
    std::vector<std::string> out;
    for (const ProblemRow& row : problem_table()) out.emplace_back(row.name);
    return out;
  }();
  return kProblems;
}

std::string ScenarioFactory::validate(const ScenarioOptions& opt) {
  if (opt.n < 1 || opt.n > kMaxProcesses) return "n out of range";
  if (opt.crashes < 0 || opt.crashes >= opt.n) {
    return "crashes must be in [0, n)";
  }
  if (opt.max_steps == 0) return "max_steps must be positive";
  const ProblemRow* row = find_problem(opt.problem);
  if (row != nullptr && majority_floor(*row) && 2 * opt.crashes >= opt.n) {
    return "problem '" + opt.problem +
           "' explores Sigma histories and needs a majority-correct "
           "pattern (crashes < n/2)";
  }
  if (opt.crash_mode != "script" && opt.crash_mode != "explore") {
    return "crash_mode must be 'script' or 'explore'";
  }
  if (opt.crash_mode == "explore") {
    if (opt.crash_time != kNever) {
      return "crash_mode 'explore' picks crash times itself; crash_time "
             "must stay unset";
    }
    if (opt.stabilization != kNever) {
      return "crash_mode 'explore' reconstructs the pattern on the fly; "
             "a finite stabilization time is not supported";
    }
  }
  if (opt.loss_drops < 0 || opt.loss_dups < 0) {
    return "loss budgets must be non-negative";
  }
  if (row == nullptr) return "unknown problem '" + opt.problem + "'";
  if (opt.nbac_no_voter != kNoProcess &&
      (opt.nbac_no_voter < 0 || opt.nbac_no_voter >= opt.n)) {
    return "nbac_no_voter out of range";
  }
  if (opt.reg_ops < 1) return "reg_ops must be positive";
  if (opt.reg_readers < 0 || opt.reg_readers >= opt.n) {
    return "reg_readers must be in [0, n)";
  }
  if (opt.abcast_senders < 1 || opt.abcast_senders > opt.n) {
    return "abcast_senders must be in [1, n]";
  }
  if (!opt.liveness.empty()) {
    const std::vector<std::string>& clauses = row->liveness;
    if (std::find(clauses.begin(), clauses.end(), opt.liveness) ==
        clauses.end()) {
      std::string avail;
      for (const std::string& c : clauses) {
        if (!avail.empty()) avail += ", ";
        avail += c;
      }
      return "liveness clause '" + opt.liveness + "' is not available for "
             "problem '" + opt.problem + "'" +
             (avail.empty() ? "" : " (available: " + avail + ")");
    }
    // Fair-cycle search reads every infinite unrolling of a graph cycle
    // as a run of the system, so each source of nondeterminism must be
    // legal *in the limit* — not merely prefix-legal — and the enabled
    // menu at a state must be a function of its fingerprint alone.
    if (opt.stabilization != kNever) {
      return "liveness checking folds convergence into the static "
             "history itself; stabilization must stay unset";
    }
    if (opt.n > kLiveChannelStride) {
      return "liveness checking tracks communication fairness per "
             "directed channel in an n x n bitset and supports n <= " +
             std::to_string(kLiveChannelStride);
    }
    if (row->fd != 0 && opt.fd_per_query) {
      return "liveness checking requires --fd=static on oracle-backed "
             "problems: a cycle of per-query detector choices is a "
             "flapping history, illegal in the limit";
    }
    // Static Omega/Sigma histories anticipate explored crashes (the
    // oracle re-picks invalidated values at each crash point, so the
    // limit history is converged for the final crash set), but FS has
    // no such repair: a per-query green-after-crash choice is legal in
    // every prefix yet illegal in the limit, so an FS component
    // cannot compose with a crash budget.
    if ((row->fd & kFs) != 0 && opt.crashes > 0) {
      return "liveness checking on problem '" + opt.problem +
             "' requires a crash-free pattern: the FS component's "
             "per-query choices are illegal in the limit under explored "
             "crashes";
    }
    if (opt.crashes > 0 && opt.crash_mode != "explore") {
      return "liveness checking requires crash_mode 'explore' when "
             "crashes > 0: scripted crash times make the enabled menu a "
             "function of absolute time, not of the state fingerprint";
    }
  }
  return "";
}

bool ScenarioFactory::pattern_sensitive(const ScenarioOptions& opt) {
  const ProblemRow* row = find_problem(opt.problem);
  return row != nullptr && reads_failures(*row);
}

const std::vector<std::string>& ScenarioFactory::liveness_clauses(
    const std::string& problem) {
  static const std::vector<std::string> kNone;
  const ProblemRow* row = find_problem(problem);
  return row != nullptr ? row->liveness : kNone;
}

std::vector<std::vector<ProcessId>> ScenarioFactory::symmetry_classes(
    const ScenarioOptions& opt) {
  // Scripted crashes pin concrete process ids (faulty set = the first
  // `crashes` processes at fixed times): no renaming maps those runs to
  // runs. Explored crashes draw from symmetric per-process budgets.
  if (opt.crashes > 0 && opt.crash_mode != "explore") return {};
  // After stabilization the oracle's outputs collapse to min(correct),
  // which renaming does not commute with; kNever keeps every query a
  // symmetric menu choice.
  if (opt.stabilization != kNever) return {};
  std::vector<std::vector<ProcessId>> classes;
  const auto add = [&classes](std::vector<ProcessId> cls) {
    if (cls.size() >= 2) classes.push_back(std::move(cls));
  };
  if (opt.problem == "consensus" || opt.problem == "consensus-bug" ||
      opt.problem == "qc") {
    // Initial proposals are i % 2: same-parity processes run identical
    // modules with identical inputs.
    std::vector<ProcessId> evens;
    std::vector<ProcessId> odds;
    for (int i = 0; i < opt.n; ++i) {
      (i % 2 == 0 ? evens : odds).push_back(i);
    }
    add(std::move(evens));
    add(std::move(odds));
  } else if (opt.problem == "nbac") {
    // Every Yes voter is interchangeable; the No voter (if any) is a
    // singleton role.
    std::vector<ProcessId> yes;
    for (int i = 0; i < opt.n; ++i) {
      if (i != opt.nbac_no_voter) yes.push_back(i);
    }
    add(std::move(yes));
  } else if (opt.problem == "sigma") {
    // Pure FD probes: every process is identical.
    std::vector<ProcessId> all;
    for (int i = 0; i < opt.n; ++i) all.push_back(i);
    add(std::move(all));
  } else if (opt.problem == "register" || opt.problem == "register-regular") {
    // Process 0 writes; 1..readers read; the rest are pure replicas.
    const int readers = opt.reg_readers == 0 ? opt.n - 1 : opt.reg_readers;
    std::vector<ProcessId> reading;
    std::vector<ProcessId> replicas;
    for (int i = 1; i < opt.n; ++i) {
      (i <= readers ? reading : replicas).push_back(i);
    }
    add(std::move(reading));
    add(std::move(replicas));
  }
  // abcast/rb broadcast distinct values per sender, consensus-crash-bug
  // has a distinguished coordinator, and omega-impl elects by smallest
  // pid — none verified symmetric (the non-sender / participant classes
  // would need their module encodes audited first).
  return classes;
}

sim::FailurePattern ScenarioFactory::make_pattern(
    sim::ChoiceSource& choices) const {
  sim::FailurePattern f(opt_.n);
  // In explore mode `crashes` is an injection budget, not a script: the
  // pattern starts all-correct and grows as the explorer injects.
  if (opt_.crashes == 0 || opt_.crash_mode == "explore") return f;
  if (opt_.crash_time != kNever) {
    for (int i = 0; i < opt_.crashes; ++i) {
      f.crash_at(i, opt_.crash_time * static_cast<Time>(i + 1));
    }
    return f;
  }
  // Crash times are part of the explored space: a small log-spaced menu
  // inside the horizon (0 = initially dead, up to half the horizon).
  std::vector<std::uint64_t> menu = {0, 2, opt_.max_steps / 8,
                                     opt_.max_steps / 4, opt_.max_steps / 2};
  std::sort(menu.begin(), menu.end());
  menu.erase(std::unique(menu.begin(), menu.end()), menu.end());
  for (int i = 0; i < opt_.crashes; ++i) {
    const std::size_t pick =
        menu.size() >= 2 ? choices.choose(sim::ChoiceKind::kEnvironment, menu)
                         : 0;
    f.crash_at(i, menu[pick]);
  }
  return f;
}

Scenario ScenarioFactory::build(sim::ChoiceSource& choices) const {
  Scenario out;
  const sim::FailurePattern pattern = make_pattern(choices);
  // FD samples feed SigmaIntersectionInvariant and FdPrefixInvariant.
  const sim::SimConfig cfg{opt_.n, opt_.max_steps, opt_.seed,
                           /*record_fd_samples=*/true};

  ChoiceOracle::Options oo;
  oo.per_query = opt_.fd_per_query;
  oo.stabilization = opt_.stabilization;
  // Liveness mode: Psi must be a converged limit from the start (see
  // validate()); harmless when no Psi component is enabled.
  oo.psi_converged = !opt_.liveness.empty();
  const ProblemRow& row = *find_problem(opt_.problem);
  oo.omega = (row.fd & kOmega) != 0;
  oo.sigma = (row.fd & kSigma) != 0;
  oo.fs = (row.fd & kFs) != 0;
  oo.psi = (row.fd & kPsi) != 0;

  const bool crash_explore = opt_.crash_mode == "explore";
  inject::FaultPlan fp;
  fp.crash_mode = crash_explore ? inject::CrashMode::kExplore
                  : opt_.crashes > 0 ? inject::CrashMode::kScript
                                     : inject::CrashMode::kNone;
  fp.crash_budget = crash_explore ? opt_.crashes : 0;
  fp.min_alive = majority_floor(row) ? opt_.n / 2 + 1 : 1;
  fp.drop_budget = opt_.loss_drops;
  fp.dup_budget = opt_.loss_dups;
  std::unique_ptr<inject::FaultState> faults;
  if (fp.any()) faults = std::make_unique<inject::FaultState>(fp);

  sim::ReplayScheduler::Options so;
  so.oldest_per_channel = opt_.oldest_per_channel;
  so.faults = faults.get();

  out.sim = std::make_unique<sim::Simulator>(
      cfg, pattern, std::make_unique<ChoiceOracle>(&choices, oo),
      std::make_unique<sim::ReplayScheduler>(&choices, so));
  if (faults != nullptr) out.sim->adopt_faults(std::move(faults));
  sim::Simulator& s = *out.sim;

  // Per-query detector choices, or a pattern that injected crashes
  // reconstruct mid-run, must keep the history legal for the pattern the
  // run realises — cross-check the prefix-checkable clauses of the
  // failure-reading components via fd/history_checker.
  if ((opt_.fd_per_query || crash_explore) && reads_failures(row)) {
    out.invariants.push_back(
        std::make_unique<FdPrefixInvariant>(oo.fs, oo.psi));
  }
  // Lossy links: the register problems are the ones written against
  // quasi-reliable point-to-point channels, so their traffic goes
  // through the retransmission wrapper (built below, per host).
  const bool lossy = opt_.loss_drops > 0 || opt_.loss_dups > 0;
  const bool wrap_register =
      lossy && (opt_.problem == "register" ||
                opt_.problem == "register-regular");

  if (opt_.problem == "consensus" || opt_.problem == "consensus-live-bug" ||
      opt_.problem == "consensus-crash-live-bug") {
    for (int i = 0; i < opt_.n; ++i) {
      auto& host = s.add_process<sim::ModularProcess>();
      consensus::OmegaSigmaConsensusModule<int>* c =
          opt_.problem == "consensus"
              ? &host.add_module<consensus::OmegaSigmaConsensusModule<int>>(
                    "cons")
          : opt_.problem == "consensus-live-bug"
              ? static_cast<consensus::OmegaSigmaConsensusModule<int>*>(
                    &host.add_module<GiveUpLeaderConsensusModule>("cons"))
              : &host.add_module<DeferToPromisedConsensusModule>("cons");
      c->propose(i % 2);
    }
    out.invariants.push_back(std::make_unique<AgreementInvariant>("decide"));
    out.invariants.push_back(
        std::make_unique<ValidityInvariant>("decide", proposals(opt_.n)));
    out.invariants.push_back(std::make_unique<SigmaIntersectionInvariant>());
    out.eventuals.push_back(
        std::make_unique<EventualDecisionProperty>("decide"));
  } else if (opt_.problem == "consensus-bug") {
    for (int i = 0; i < opt_.n; ++i) {
      auto& host = s.add_process<sim::ModularProcess>();
      auto& c = host.add_module<FirstHeardConsensusModule>("cons");
      c.propose(i % 2);
    }
    out.invariants.push_back(std::make_unique<AgreementInvariant>("decide"));
    out.invariants.push_back(
        std::make_unique<ValidityInvariant>("decide", proposals(opt_.n)));
    out.eventuals.push_back(
        std::make_unique<EventualDecisionProperty>("decide"));
  } else if (opt_.problem == "consensus-crash-bug") {
    // Coordinator (p0) proposes 0, everyone else 1: the two-phase bug
    // flips the outcome only when the coordinator dies in its
    // decide-to-broadcast window (see seeded_bug.h).
    for (int i = 0; i < opt_.n; ++i) {
      auto& host = s.add_process<sim::ModularProcess>();
      auto& c = host.add_module<CrashTimingConsensusModule>("cons");
      c.propose(i == 0 ? 0 : 1);
    }
    out.invariants.push_back(std::make_unique<AgreementInvariant>("decide"));
    out.invariants.push_back(
        std::make_unique<ValidityInvariant>("decide",
                                            std::vector<std::int64_t>{0, 1}));
    out.eventuals.push_back(
        std::make_unique<EventualDecisionProperty>("decide"));
  } else if (opt_.problem == "qc") {
    for (int i = 0; i < opt_.n; ++i) {
      auto& host = s.add_process<sim::ModularProcess>();
      auto& q = host.add_module<qc::PsiQcModule<int>>("qc");
      q.propose(i % 2);
    }
    auto allowed = proposals(opt_.n);
    allowed.push_back(-1);  // Q.
    out.invariants.push_back(
        std::make_unique<AgreementInvariant>("qc-decide"));
    out.invariants.push_back(
        std::make_unique<ValidityInvariant>("qc-decide", std::move(allowed)));
    out.invariants.push_back(std::make_unique<QuitValidityInvariant>());
    out.invariants.push_back(std::make_unique<SigmaIntersectionInvariant>());
    out.eventuals.push_back(
        std::make_unique<EventualDecisionProperty>("qc-decide"));
  } else if (opt_.problem == "nbac") {
    std::vector<nbac::Vote> votes;
    for (int i = 0; i < opt_.n; ++i) {
      votes.push_back(i == opt_.nbac_no_voter ? nbac::Vote::kNo
                                              : nbac::Vote::kYes);
    }
    for (int i = 0; i < opt_.n; ++i) {
      auto& host = s.add_process<sim::ModularProcess>();
      auto& q = host.add_module<qc::PsiQcModule<int>>("qc");
      auto& nb = host.add_module<nbac::NbacFromQcModule>("nbac", q.index());
      nb.vote(votes[static_cast<std::size_t>(i)]);
    }
    out.invariants.push_back(
        std::make_unique<AgreementInvariant>("nbac-decide"));
    out.invariants.push_back(std::make_unique<NbacValidityInvariant>(votes));
    out.eventuals.push_back(
        std::make_unique<EventualDecisionProperty>("nbac-decide"));
  } else if (opt_.problem == "sigma") {
    for (int i = 0; i < opt_.n; ++i) s.add_process<FdProbeProcess>();
    out.invariants.push_back(std::make_unique<SigmaIntersectionInvariant>());
  } else if (opt_.problem == "register" ||
             opt_.problem == "register-regular") {
    // Sigma-quorum ABD register under a deterministic workload: process 0
    // writes, everyone else reads, all against the same replicated
    // register; the shared History feeds the linearizability checker.
    // register-regular drops the read write-back (the register is then
    // only regular), which seeds reachable new-old inversions.
    auto inv = std::make_unique<RegisterAtomicityInvariant>(0);
    reg::History* hist = &inv->history();
    const int readers =
        opt_.reg_readers == 0 ? opt_.n - 1 : opt_.reg_readers;
    for (int i = 0; i < opt_.n; ++i) {
      auto& host = s.add_process<sim::ModularProcess>();
      reg::AbdRegisterModule<std::int64_t>::Options ro;
      ro.rule = reg::QuorumRule::kSigma;
      ro.atomic_reads = opt_.problem == "register";
      auto& r =
          host.add_module<reg::AbdRegisterModule<std::int64_t>>("reg", ro);
      if (wrap_register) {
        r.set_transport(host.add_module<broadcast::QuasiReliableModule>("qr"));
      }
      if (i > readers) continue;  // Pure replica.
      reg::RegisterWorkloadModule::Options wo;
      wo.num_ops = opt_.reg_ops;
      wo.write_percent = (i == 0) ? 100 : 0;
      host.add_module<reg::RegisterWorkloadModule>("client", r.index(), hist,
                                                   wo);
    }
    out.invariants.push_back(std::move(inv));
    out.invariants.push_back(std::make_unique<SigmaIntersectionInvariant>());
  } else if (opt_.problem == "abcast") {
    // Chandra-Toueg atomic broadcast over (Omega, Sigma) consensus
    // rounds; the first abcast_senders processes each broadcast one
    // message and the invariant checks prefix-consistent delivery logs.
    std::size_t position = 0;
    for (int i = 0; i < opt_.n; ++i) {
      auto& host = s.add_process<sim::ModularProcess>();
      auto& ab =
          host.add_module<broadcast::AtomicBroadcastModule>("abcast");
      position = ab.index();
      if (i < opt_.abcast_senders) ab.abcast(100 + i);
    }
    out.invariants.push_back(
        std::make_unique<TotalOrderInvariant>(opt_.n, position));
  } else if (opt_.problem == "rb") {
    // Uniform reliable broadcast alone, detector-free: the first
    // abcast_senders processes each urb-broadcast one message and the
    // invariant checks integrity (each message delivered at most once
    // per process, and only messages actually broadcast). The echo
    // relay storm is the content-dependence showcase: equal-content
    // echoes from distinct relayers all commute, so DPOR under the
    // payload relation collapses the relayer interleavings that the
    // process relation must enumerate.
    std::size_t position = 0;
    for (int i = 0; i < opt_.n; ++i) {
      auto& host = s.add_process<sim::ModularProcess>();
      auto& rb = host.add_module<broadcast::UrbModule>("rb");
      position = rb.index();
      if (i < opt_.abcast_senders) rb.urb_broadcast(100 + i);
      host.add_module<UrbWaiter>(
          "wait", position, static_cast<std::uint64_t>(opt_.abcast_senders));
    }
    out.invariants.push_back(std::make_unique<UrbIntegrityInvariant>(
        opt_.n, opt_.abcast_senders, position));
  } else if (opt_.problem == "omega-impl") {
    // The *implemented* heartbeat/lease Omega (the module the runtime
    // host runs behind the replicated KV), model-checked as an ordinary
    // module: no oracle component is enabled, so the only
    // nondeterminism is the schedule (plus injected crashes). The
    // eventual property is the Omega specification itself — on
    // fair-enough schedules every correct process's *last* emitted
    // leader is the smallest correct process. Timing is deliberately
    // conservative (timeout = 12 periods, with adaptive doubling on any
    // false suspicion) so random fair schedules within the horizon count
    // as "synchronous enough".
    fd::HeartbeatOmegaModule::Options ho;
    ho.period = static_cast<Time>(2 * opt_.n);
    ho.timeout = 12 * ho.period;
    ho.lease = 2 * ho.timeout;
    for (int i = 0; i < opt_.n; ++i) {
      s.add_process<sim::ModularProcess>()
          .add_module<fd::HeartbeatOmegaModule>("omega", ho);
    }
    out.eventuals.push_back(
        std::make_unique<EventualLeadershipProperty>("omega-leader"));
  }

  // The leadership and completeness clauses read each process's first
  // module: its (Omega, Sigma) consensus or its heartbeat Omega.
  if (!opt_.liveness.empty()) {
    if (opt_.liveness == "termination") {
      out.liveness.push_back(std::make_unique<TerminationClause>());
    } else if (opt_.liveness == "leadership") {
      out.liveness.push_back(std::make_unique<LeadershipClause>(0));
    } else {
      WFD_CHECK_MSG(opt_.liveness == "fd-completeness",
                    "liveness clause survived validate() unwired");
      out.liveness.push_back(std::make_unique<FdCompletenessClause>(0));
    }
  }
  return out;
}

std::optional<std::uint64_t> scenario_fingerprint(
    const Scenario& sc, const std::vector<ProcessId>* renaming) {
  sim::StateEncoder enc(renaming);
  sc.sim->encode_state(enc);
  std::size_t i = 0;
  for (const auto& inv : sc.invariants) {
    enc.push("invariant", i++);
    inv->encode_state(enc);
    enc.pop();
  }
  if (!enc.complete()) return std::nullopt;
  return enc.digest();
}

bool copy_scenario(const Scenario& sc, Scenario& to,
                   sim::ChoiceSource& choices) {
  // Invariants first: one that owns an object modules borrow records its
  // copy in the map before the modules relink to it.
  sim::CloneMap map(choices);
  to.invariants.resize(sc.invariants.size());
  for (std::size_t i = 0; i < sc.invariants.size(); ++i) {
    if (!sc.invariants[i]->copy_to(to.invariants[i], map)) return false;
  }
  if (!sc.sim->copy_to(to.sim, map)) return false;
  to.eventuals.resize(sc.eventuals.size());
  for (std::size_t i = 0; i < sc.eventuals.size(); ++i) {
    sc.eventuals[i]->copy_to(to.eventuals[i]);
  }
  to.liveness.resize(sc.liveness.size());
  for (std::size_t i = 0; i < sc.liveness.size(); ++i) {
    sc.liveness[i]->copy_to(to.liveness[i]);
  }
  return true;
}

std::optional<Scenario> clone_scenario(const Scenario& sc,
                                      sim::ChoiceSource& choices) {
  Scenario out;
  if (!copy_scenario(sc, out, choices)) return std::nullopt;
  return out;
}

std::optional<Violation> check_invariants(Scenario& sc) {
  for (auto& inv : sc.invariants) {
    std::optional<Violation> v = inv->check(*sc.sim);
    if (v.has_value()) return v;
  }
  return std::nullopt;
}

ScenarioBuilder ScenarioFactory::builder() const {
  return [opt = opt_](sim::ChoiceSource& choices) {
    return ScenarioFactory(opt).build(choices);
  };
}

}  // namespace wfd::explore
