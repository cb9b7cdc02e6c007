// Theorem 6, necessity (Figure 3): any QC algorithm A using detector D
// can be transformed into Psi. Exercised with two (A, D) pairs:
//   - A = the Psi-based QC of Fig. 2,        D = Psi;
//   - A = plain (Omega, Sigma) consensus (a QC solution that never
//     returns Q),                            D = (Omega, Sigma).
// The emulated output history must satisfy the Psi specification in both
// the (Omega, Sigma) branch and (for the first pair under failures) the
// FS branch.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "consensus/omega_sigma_consensus.h"
#include "extract/psi_extraction.h"
#include "extract/qc_sandbox.h"
#include "extract/sample_dag.h"
#include "extract/sim_forest.h"
#include "fd/history_checker.h"
#include "qc/consensus_qc.h"
#include "qc/psi_qc.h"
#include "sim/dependence.h"
#include "sim/state_encoder.h"
#include "test_util.h"

namespace wfd {
namespace {

using extract::DagNode;
using extract::ExtractProposal;
using extract::PsiExtractionModule;
using extract::SampleDag;
using extract::SandboxSpec;
using extract::ScriptStep;

// ------------------------------------------------------------- sample DAG

TEST(SampleDagTest, VectorClocksCaptureReachability) {
  SampleDag dag(3);
  const DagNode a = dag.add_sample(0, fd::FdValue{});
  const DagNode b = dag.add_sample(1, fd::FdValue{});
  // b was created after a existed in this DAG: a precedes b.
  EXPECT_TRUE(SampleDag::precedes(a, b));
  EXPECT_FALSE(SampleDag::precedes(b, a));
}

TEST(SampleDagTest, MergeIsIdempotentAndPrefixClosed) {
  SampleDag a(2), b(2);
  a.add_sample(0, fd::FdValue{});
  a.add_sample(0, fd::FdValue{});
  const auto snap = a.snapshot();
  b.merge(snap);
  b.merge(snap);
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(b.known(0), 2u);
  EXPECT_EQ(b.known(1), 0u);
}

TEST(SampleDagTest, ConcurrentSamplesAreUnordered) {
  SampleDag a(2), b(2);
  const DagNode x = a.add_sample(0, fd::FdValue{});
  const DagNode y = b.add_sample(1, fd::FdValue{});
  EXPECT_FALSE(SampleDag::precedes(x, y));
  EXPECT_FALSE(SampleDag::precedes(y, x));
}

TEST(SampleDagTest, CanonicalSpineIsAChain) {
  SampleDag a(3), b(3);
  for (int round = 0; round < 5; ++round) {
    a.add_sample(0, fd::FdValue{});
    b.add_sample(1, fd::FdValue{});
    b.merge(a.snapshot());
    a.merge(b.snapshot());
    a.add_sample(2, fd::FdValue{});
  }
  const auto spine = a.canonical_spine();
  ASSERT_GE(spine.size(), 2u);
  for (std::size_t i = 0; i + 1 < spine.size(); ++i) {
    EXPECT_TRUE(SampleDag::precedes(spine[i], spine[i + 1]));
  }
}

TEST(SampleDagTest, SpineIsDeterministicAcrossMergedCopies) {
  SampleDag a(2), b(2);
  for (int round = 0; round < 4; ++round) {
    a.add_sample(0, fd::FdValue{});
    b.add_sample(1, fd::FdValue{});
    a.merge(b.snapshot());
    b.merge(a.snapshot());
  }
  a.merge(b.snapshot());
  b.merge(a.snapshot());
  const auto sa = a.canonical_spine();
  const auto sb = b.canonical_spine();
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].p, sb[i].p);
    EXPECT_EQ(sa[i].seq, sb[i].seq);
  }
}

TEST(SampleDagTest, MergeIsOrderInsensitive) {
  // Two distinct gossip snapshots folded in either order must yield
  // digest-identical DAGs — the semantic half of GossipMsg's
  // commutes_with claim, since the delivery handler does nothing but
  // this merge. The snapshots share a prefix (p0#1) and each carries a
  // node the other lacks.
  SampleDag a(3), b(3);
  a.add_sample(0, fd::FdValue{});
  b.merge(a.snapshot());
  b.add_sample(1, fd::FdValue{});
  a.add_sample(0, fd::FdValue{});
  const auto sa = a.snapshot();
  const auto sb = b.snapshot();

  SampleDag c1(3), c2(3);
  c1.merge(sa);
  c1.merge(sb);
  c2.merge(sb);
  c2.merge(sa);
  EXPECT_EQ(c1.size(), 3u);
  EXPECT_EQ(c1.size(), c2.size());
  sim::StateEncoder e1, e2;
  c1.encode_state(e1);
  c2.encode_state(e2);
  EXPECT_EQ(e1.digest(), e2.digest());
}

// ------------------------------------------------- gossip commutativity

// A classified non-gossip payload: GossipMsg's audit covers only its
// own kind and must fail closed against everything else.
struct UnrelatedMsg final : sim::Payload {
  void encode_state(sim::StateEncoder& enc) const override {
    enc.field("kind", "unrelated");
  }
  [[nodiscard]] std::string_view kind() const override {
    return "test.unrelated";
  }
};

TEST(PsiGossipDependenceTest, GossipPairsCommuteWithNothingConservative) {
  SampleDag a(2), b(2);
  a.add_sample(0, fd::FdValue{});
  b.add_sample(1, fd::FdValue{});
  const PsiExtractionModule::GossipMsg g1(a.snapshot());
  const PsiExtractionModule::GossipMsg g2(b.snapshot());
  std::set<std::string> conservative;
  EXPECT_TRUE(sim::payloads_commute(g1, g2, &conservative));
  EXPECT_TRUE(sim::payloads_commute(g2, g1, &conservative));
  // The known candidate is audited: nothing falls back to the
  // conservative (order-everything) bucket.
  EXPECT_TRUE(conservative.empty());
}

TEST(PsiGossipDependenceTest, GossipIsTickInsensitiveButTypeGuarded) {
  SampleDag a(2);
  a.add_sample(0, fd::FdValue{});
  const PsiExtractionModule::GossipMsg g(a.snapshot());
  // The merge reads neither clock nor detector and all reaction is
  // tick-deferred, so a gossip delivery commutes with an inert lambda.
  EXPECT_TRUE(g.tick_insensitive());
  // Cross-type pairs stay dependent in both consultation orders.
  const UnrelatedMsg other;
  EXPECT_FALSE(sim::payloads_commute(g, other, nullptr));
  EXPECT_FALSE(sim::payloads_commute(other, g, nullptr));
}

// ------------------------------------------------------- sandbox plumbing

/// SandboxSpec for A = PsiQcModule<int> (the Fig. 2 algorithm).
SandboxSpec psi_qc_spec(int n) {
  SandboxSpec spec;
  spec.n = n;
  spec.build = [](sim::Simulator& inner, const std::vector<int>& proposals) {
    for (int i = 0; i < inner.n(); ++i) {
      auto& host = inner.add_process<sim::ModularProcess>();
      auto& q = host.add_module<qc::PsiQcModule<int>>("a");
      q.propose(proposals[static_cast<std::size_t>(i)]);
    }
  };
  spec.decision_of = [](sim::Simulator& inner,
                        ProcessId p) -> std::optional<int> {
    auto& host = dynamic_cast<sim::ModularProcess&>(inner.process(p));
    auto& q = host.module<qc::PsiQcModule<int>>("a");
    if (!q.decided()) return std::nullopt;
    return q.result().quit ? extract::kQuitDecision : q.result().value;
  };
  return spec;
}

/// SandboxSpec for A = plain (Omega, Sigma) consensus used as a QC
/// algorithm (it never returns Q — trivially QC-correct).
SandboxSpec consensus_spec(int n) {
  SandboxSpec spec;
  spec.n = n;
  spec.build = [](sim::Simulator& inner, const std::vector<int>& proposals) {
    for (int i = 0; i < inner.n(); ++i) {
      auto& host = inner.add_process<sim::ModularProcess>();
      auto& c =
          host.add_module<consensus::OmegaSigmaConsensusModule<int>>("a");
      c.propose(proposals[static_cast<std::size_t>(i)]);
    }
  };
  spec.decision_of = [](sim::Simulator& inner,
                        ProcessId p) -> std::optional<int> {
    auto& host = dynamic_cast<sim::ModularProcess&>(inner.process(p));
    auto& c = host.module<consensus::OmegaSigmaConsensusModule<int>>("a");
    if (!c.decided()) return std::nullopt;
    return c.decision();
  };
  return spec;
}

/// A synthetic script in which everyone sees a converged (Omega, Sigma)
/// Psi value; useful for unit-testing the sandbox itself.
std::vector<ScriptStep> converged_script(int n, ProcessId leader,
                                         std::size_t rounds) {
  std::vector<ScriptStep> script;
  fd::FdValue v;
  v.psi = fd::PsiValue::omega_sigma(leader, ProcessSet::full(n));
  v.omega = leader;
  v.sigma = ProcessSet::full(n);
  for (std::size_t r = 0; r < rounds; ++r) {
    for (ProcessId p = 0; p < n; ++p) {
      ScriptStep s;
      s.p = p;
      s.value = v;
      script.push_back(s);
    }
  }
  return script;
}

TEST(QcSandboxTest, PsiQcDecidesAlongConvergedScript) {
  const int n = 3;
  const auto spec = psi_qc_spec(n);
  const auto script = converged_script(n, /*leader=*/1, /*rounds=*/200);
  const auto res = extract::run_sandbox(
      spec, extract::forest_initial_config(n, n), script, /*observer=*/0);
  ASSERT_TRUE(res.decision.has_value());
  EXPECT_EQ(*res.decision, 1);  // All proposed 1.
  EXPECT_LE(res.decided_after, script.size());
}

TEST(QcSandboxTest, ReplayIsDeterministic) {
  const int n = 3;
  const auto spec = psi_qc_spec(n);
  const auto script = converged_script(n, 0, 200);
  const auto cfg = extract::forest_initial_config(n, 1);
  const auto r1 = extract::run_sandbox(spec, cfg, script, 2);
  const auto r2 = extract::run_sandbox(spec, cfg, script, 2);
  EXPECT_EQ(r1.decision, r2.decision);
  EXPECT_EQ(r1.decided_after, r2.decided_after);
  EXPECT_EQ(r1.steppers, r2.steppers);
}

TEST(QcSandboxTest, ForestConfigsShapeDecisions) {
  // With leader L in the script, tree i decides 1 iff L proposes 1,
  // i.e. iff i > L — so the decision flip identifies L.
  const int n = 3;
  const auto spec = psi_qc_spec(n);
  for (ProcessId leader = 0; leader < n; ++leader) {
    const auto script = converged_script(n, leader, 300);
    const auto analysis = extract::analyze_forest(spec, script, 0);
    ASSERT_TRUE(analysis.all_decided);
    EXPECT_FALSE(analysis.any_quit);
    EXPECT_EQ(analysis.leader, leader);
  }
}

TEST(QcSandboxTest, FsBranchScriptYieldsQuitEverywhere) {
  const int n = 3;
  const auto spec = psi_qc_spec(n);
  std::vector<ScriptStep> script;
  fd::FdValue v;
  v.psi = fd::PsiValue::failure_signal(fd::FsColor::kRed);
  for (int r = 0; r < 10; ++r) {
    for (ProcessId p = 0; p < n; ++p) {
      ScriptStep s;
      s.p = p;
      s.value = v;
      script.push_back(s);
    }
  }
  const auto analysis = extract::analyze_forest(spec, script, 1);
  ASSERT_TRUE(analysis.all_decided);
  EXPECT_TRUE(analysis.any_quit);
}

// ---------------------------------------------------- the full extraction

struct PsiRig {
  std::vector<sim::FdSampleRecord> samples;
  std::vector<PsiExtractionModule*> extractors;
};

void build_psi_extraction(sim::Simulator& s, int n, const SandboxSpec& spec,
                          PsiExtractionModule::OuterFactory outer,
                          PsiRig& rig) {
  PsiExtractionModule::Options opt;
  opt.sample_period = 48;
  opt.gossip_period = 96;
  opt.analyze_period = 768;
  opt.window = 512;
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    rig.extractors.push_back(&host.add_module<PsiExtractionModule>(
        "psix", spec, outer, &rig.samples, opt));
  }
}

/// Real execution of A = the Psi-based QC (needs a Psi component in D).
PsiExtractionModule::OuterFactory psi_outer() {
  return [](sim::ModuleHost& h,
            const std::string& nm) -> qc::QcApi<ExtractProposal>& {
    return h.add_module<qc::PsiQcModule<ExtractProposal>>(nm);
  };
}

/// Real execution of A = consensus-as-QC (needs (Omega, Sigma) in D).
PsiExtractionModule::OuterFactory consensus_outer() {
  return [](sim::ModuleHost& h,
            const std::string& nm) -> qc::QcApi<ExtractProposal>& {
    return h.add_module<qc::ConsensusAsQcModule<ExtractProposal>>(nm);
  };
}

TEST(ExtractPsiTest, OmegaSigmaBranchFromPsiBackedQc) {
  const int n = 3;
  const auto f = test::pattern(n);  // Crash-free: branch must be OS.
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 120000;
  cfg.seed = 5;
  sim::Simulator s(cfg, f,
                   test::psi_oracle(fd::PsiOracle::Branch::kOmegaSigma,
                                    /*spread=*/300, /*stab=*/300),
                   test::random_sched());
  PsiRig rig;
  build_psi_extraction(s, n, psi_qc_spec(n), psi_outer(), rig);
  s.set_halt_on_done(false);
  s.run();

  for (auto* x : rig.extractors) {
    EXPECT_EQ(x->stage(), PsiExtractionModule::Stage::kOmegaSigma);
    EXPECT_GE(x->sigma_rounds(), 1u);
  }
  const auto r = fd::check_psi_history(rig.samples, f);
  EXPECT_TRUE(r.ok) << r.violation;
}

TEST(ExtractPsiTest, FsBranchWhenDetectorTurnsRed) {
  const int n = 3;
  sim::FailurePattern f(n);
  f.crash_at(2, 1000);
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 120000;
  cfg.seed = 7;
  sim::Simulator s(cfg, f,
                   test::psi_oracle(fd::PsiOracle::Branch::kFs,
                                    /*spread=*/300, /*stab=*/300),
                   test::random_sched());
  PsiRig rig;
  build_psi_extraction(s, n, psi_qc_spec(n), psi_outer(), rig);
  s.set_halt_on_done(false);
  s.run();

  for (std::size_t i = 0; i < rig.extractors.size(); ++i) {
    if (!f.correct().contains(static_cast<ProcessId>(i))) continue;
    EXPECT_EQ(rig.extractors[i]->stage(), PsiExtractionModule::Stage::kRed);
  }
  const auto r = fd::check_psi_history(rig.samples, f);
  EXPECT_TRUE(r.ok) << r.violation;
}

TEST(ExtractPsiTest, OmegaSigmaBranchFromConsensusAsQc) {
  // A = consensus (never quits), D = (Omega, Sigma): the extraction must
  // take the (Omega, Sigma) branch even under failures.
  const int n = 3;
  sim::FailurePattern f(n);
  f.crash_at(1, 30000);
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 150000;
  cfg.seed = 11;
  sim::Simulator s(cfg, f, test::omega_sigma(/*stab=*/300),
                   test::random_sched());
  PsiRig rig;
  build_psi_extraction(s, n, consensus_spec(n), consensus_outer(), rig);
  s.set_halt_on_done(false);
  s.run();

  for (std::size_t i = 0; i < rig.extractors.size(); ++i) {
    if (!f.correct().contains(static_cast<ProcessId>(i))) continue;
    EXPECT_EQ(rig.extractors[i]->stage(),
              PsiExtractionModule::Stage::kOmegaSigma);
  }
  const auto r = fd::check_psi_history(rig.samples, f);
  EXPECT_TRUE(r.ok) << r.violation;
}

}  // namespace
}  // namespace wfd

namespace wfd {
namespace {

// Auto branch: when the failure pattern has crashes, D may legally take
// either branch; the emulated Psi must mirror whichever it took.
class ExtractPsiAutoSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExtractPsiAutoSweep, EmulationLegalUnderAutoBranch) {
  const int n = 3;
  sim::FailurePattern f(n);
  f.crash_at(static_cast<ProcessId>(GetParam() % n), 900);

  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 100000;
  cfg.seed = GetParam() * 97 + 5;
  sim::Simulator s(cfg, f,
                   test::psi_oracle(fd::PsiOracle::Branch::kAuto,
                                    /*spread=*/300, /*stab=*/300),
                   test::random_sched());
  PsiRig rig;
  build_psi_extraction(s, n, psi_qc_spec(n), psi_outer(), rig);
  s.set_halt_on_done(false);
  s.run();
  const auto r = fd::check_psi_history(rig.samples, f);
  EXPECT_TRUE(r.ok) << r.violation;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExtractPsiAutoSweep,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace wfd
