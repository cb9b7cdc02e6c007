// Theorems 5 and 8 and Corollary 10: QC from Psi (Fig. 2), NBAC from
// QC + FS (Fig. 4), QC from NBAC (Fig. 5), and FS from NBAC — with every
// specification clause checked against the run's failure pattern and the
// actual votes.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "fd/history_checker.h"
#include "nbac/fs_from_nbac.h"
#include "nbac/nbac_from_qc.h"
#include "qc/consensus_qc.h"
#include "qc/psi_qc.h"
#include "qc/qc_from_nbac.h"
#include "sim/fd_sampler.h"
#include "test_util.h"

namespace wfd {
namespace {

using nbac::Decision;
using nbac::FsFromNbacModule;
using nbac::NbacFromQcModule;
using nbac::Vote;
using qc::PsiQcModule;
using qc::QcFromNbacModule;
using qc::QcResult;

// ------------------------------------------------------------- QC from Psi

struct QcParam {
  std::uint64_t seed;
  int crashes;
  fd::PsiOracle::Branch branch;
};

class PsiQcSweep : public ::testing::TestWithParam<QcParam> {};

TEST_P(PsiQcSweep, SatisfiesQcSpec) {
  const auto& prm = GetParam();
  const int n = 4;
  Rng rng(prm.seed * 11 + 1);
  sim::MaxCrashesEnvironment env(n, prm.crashes);
  auto f = env.sample(rng, 2000);
  if (prm.branch == fd::PsiOracle::Branch::kFs && f.faulty().empty()) {
    f.crash_at(0, 500);  // The FS branch requires a failure.
  }

  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 120000;
  cfg.seed = prm.seed;
  sim::Simulator s(cfg, f, test::psi_oracle(prm.branch), test::random_sched());
  std::vector<const PsiQcModule<int>*> qcs;
  std::vector<int> proposals;
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    auto& q = host.add_module<PsiQcModule<int>>("qc");
    const int v = static_cast<int>(rng.below(2));
    proposals.push_back(v);
    q.propose(v);
    qcs.push_back(&q);
  }
  const auto res = s.run();
  const auto results = test::decisions(qcs);

  // Termination for correct processes.
  EXPECT_TRUE(res.all_done);
  std::optional<QcResult<int>> agreed;
  for (int i = 0; i < n; ++i) {
    if (f.correct().contains(i)) {
      ASSERT_TRUE(results[static_cast<std::size_t>(i)].has_value());
    }
    if (!results[static_cast<std::size_t>(i)].has_value()) continue;
    const auto& r = *results[static_cast<std::size_t>(i)];
    // Uniform agreement.
    if (agreed.has_value()) {
      EXPECT_EQ(r, *agreed);
    } else {
      agreed = r;
    }
    // Validity (a): a non-Q decision was proposed.
    if (!r.quit) {
      bool proposed = false;
      for (int v : proposals) proposed = proposed || (v == r.value);
      EXPECT_TRUE(proposed);
    } else {
      // Validity (b): Q only if a failure occurred.
      EXPECT_FALSE(f.faulty().empty());
    }
    // E6 (EXPERIMENTS.md): the FS branch quits; the (Omega, Sigma)
    // branch decides a proposed value.
    if (prm.branch != fd::PsiOracle::Branch::kAuto) {
      EXPECT_EQ(r.quit, prm.branch == fd::PsiOracle::Branch::kFs);
    }
  }
  // E6: ...from the detector alone, with no protocol message.
  if (prm.branch == fd::PsiOracle::Branch::kFs) {
    EXPECT_EQ(s.trace().stats().messages_sent, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PsiQcSweep,
    ::testing::Values(
        QcParam{1, 0, fd::PsiOracle::Branch::kOmegaSigma},
        QcParam{2, 2, fd::PsiOracle::Branch::kOmegaSigma},
        QcParam{3, 3, fd::PsiOracle::Branch::kOmegaSigma},
        QcParam{4, 1, fd::PsiOracle::Branch::kFs},
        QcParam{5, 3, fd::PsiOracle::Branch::kFs},
        QcParam{6, 2, fd::PsiOracle::Branch::kAuto},
        QcParam{7, 3, fd::PsiOracle::Branch::kAuto},
        QcParam{8, 0, fd::PsiOracle::Branch::kAuto},
        QcParam{9, 3, fd::PsiOracle::Branch::kAuto}));

// A ConsensusAsQcModule that never proposes keeps no run alive, like
// every other module: p2 only serves the consensus p0 and p1 run (its
// Omega points at p0, so p2 never needs to lead).
TEST(ConsensusAsQcTest, NonProposerLetsTheRunHalt) {
  const int n = 3;
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 50000;
  cfg.seed = 71;
  fd::OmegaOracle::Options oo;
  oo.fixed_leader = 0;
  auto oracle = std::make_unique<fd::TupleOracle>(
      std::make_unique<fd::OmegaOracle>(oo), test::sigma_oracle());
  sim::Simulator s(cfg, test::pattern(n), std::move(oracle),
                   test::random_sched());
  std::vector<const qc::ConsensusAsQcModule<int>*> qcs;
  for (int i = 0; i < n; ++i) {
    auto& q = s.add_process<sim::ModularProcess>()
                  .add_module<qc::ConsensusAsQcModule<int>>("qc");
    if (i < 2) q.propose(i);
    qcs.push_back(&q);
  }
  const auto res = s.run();
  EXPECT_TRUE(res.all_done);
  EXPECT_LT(res.steps, cfg.max_steps);
  ASSERT_TRUE(qcs[0]->decided() && qcs[1]->decided());
  EXPECT_EQ(qcs[0]->result(), qcs[1]->result());
  EXPECT_FALSE(qcs[2]->decided());
  EXPECT_TRUE(qcs[2]->done());
}

// ------------------------------------------------------- NBAC from QC + FS

struct NbacOutcome {
  std::vector<std::optional<Decision>> decisions;
  bool all_done = false;
};

NbacOutcome run_nbac(const sim::FailurePattern& f,
                     const std::vector<Vote>& votes, std::uint64_t seed,
                     fd::PsiOracle::Branch branch) {
  const int n = f.n();
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 150000;
  cfg.seed = seed;
  sim::Simulator s(cfg, f, test::psi_fs(branch), test::random_sched());
  std::vector<const NbacFromQcModule*> nbacs;
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    auto& q = host.add_module<PsiQcModule<int>>("qc");
    auto& nb = host.add_module<NbacFromQcModule>("nbac", q.index());
    nb.vote(votes[static_cast<std::size_t>(i)]);
    nbacs.push_back(&nb);
  }
  NbacOutcome out;
  out.all_done = s.run().all_done;
  out.decisions = test::decisions(nbacs);
  return out;
}

void check_nbac_spec(const NbacOutcome& out, const sim::FailurePattern& f,
                     const std::vector<Vote>& votes) {
  std::optional<Decision> agreed;
  bool all_yes = true;
  for (Vote v : votes) all_yes = all_yes && (v == Vote::kYes);
  for (std::size_t i = 0; i < out.decisions.size(); ++i) {
    if (f.correct().contains(static_cast<ProcessId>(i))) {
      ASSERT_TRUE(out.decisions[i].has_value())
          << "correct process " << i << " did not decide";
    }
    if (!out.decisions[i].has_value()) continue;
    const Decision d = *out.decisions[i];
    if (agreed.has_value()) {
      EXPECT_EQ(d, *agreed) << "agreement violated";
    } else {
      agreed = d;
    }
    if (d == Decision::kCommit) {
      // Validity (a): Commit only if everyone voted Yes.
      EXPECT_TRUE(all_yes);
    } else {
      // Validity (b): Abort only on a No vote or a failure.
      EXPECT_TRUE(!all_yes || !f.faulty().empty());
    }
  }
}

TEST(NbacTest, AllYesNoFailureCommits) {
  const int n = 4;
  const std::vector<Vote> votes(n, Vote::kYes);
  const auto f = test::pattern(n);
  const auto out =
      run_nbac(f, votes, 31, fd::PsiOracle::Branch::kOmegaSigma);
  EXPECT_TRUE(out.all_done);
  check_nbac_spec(out, f, votes);
  for (const auto& d : out.decisions) {
    ASSERT_TRUE(d.has_value());
    // The paper's non-triviality clause: all Yes and no failure MUST
    // commit.
    EXPECT_EQ(*d, Decision::kCommit);
  }
}

TEST(NbacTest, SingleNoVoteAborts) {
  const int n = 4;
  std::vector<Vote> votes(n, Vote::kYes);
  votes[2] = Vote::kNo;
  const auto f = test::pattern(n);
  const auto out =
      run_nbac(f, votes, 37, fd::PsiOracle::Branch::kOmegaSigma);
  EXPECT_TRUE(out.all_done);
  check_nbac_spec(out, f, votes);
  for (const auto& d : out.decisions) {
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(*d, Decision::kAbort);
  }
}

TEST(NbacTest, CrashBeforeVotingAborts) {
  const int n = 4;
  const std::vector<Vote> votes(n, Vote::kYes);
  sim::FailurePattern f(n);
  f.crash_at(1, 0);  // Crashes before it can even announce its vote.
  const auto out = run_nbac(f, votes, 41, fd::PsiOracle::Branch::kFs);
  EXPECT_TRUE(out.all_done);
  check_nbac_spec(out, f, votes);
  for (std::size_t i = 0; i < out.decisions.size(); ++i) {
    if (!out.decisions[i].has_value()) continue;
    EXPECT_EQ(*out.decisions[i], Decision::kAbort);
  }
}

TEST(NbacTest, CrashWithOmegaSigmaBranchStillSatisfiesSpec) {
  // A failure occurs but Psi still chooses the (Omega, Sigma) branch:
  // the QC result is a real bit, and either Commit or Abort is legal
  // depending on vote delivery — the spec clauses must hold regardless.
  const int n = 4;
  const std::vector<Vote> votes(n, Vote::kYes);
  sim::FailurePattern f(n);
  f.crash_at(3, 800);
  const auto out =
      run_nbac(f, votes, 43, fd::PsiOracle::Branch::kOmegaSigma);
  EXPECT_TRUE(out.all_done);
  check_nbac_spec(out, f, votes);
}

class NbacSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NbacSweep, SpecHoldsUnderRandomVotesAndCrashes) {
  const int n = 5;
  Rng rng(GetParam() * 53 + 5);
  sim::AnyEnvironment env(n);
  const auto f = env.sample(rng, 2000);
  std::vector<Vote> votes;
  for (int i = 0; i < n; ++i) {
    votes.push_back(rng.chance(4, 5) ? Vote::kYes : Vote::kNo);
  }
  const auto out = run_nbac(f, votes, GetParam(),
                            fd::PsiOracle::Branch::kAuto);
  EXPECT_TRUE(out.all_done);
  check_nbac_spec(out, f, votes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NbacSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

// ----------------------------------------------------------- QC from NBAC

TEST(QcFromNbacTest, CommitPathReturnsSmallestProposal) {
  const int n = 3;
  const auto f = test::pattern(n);
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 150000;
  cfg.seed = 47;
  sim::Simulator s(cfg, f,
                   test::psi_fs(fd::PsiOracle::Branch::kOmegaSigma),
                   test::random_sched());
  std::vector<const QcFromNbacModule<int>*> qcs;
  const std::vector<int> proposals = {5, 3, 9};
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    auto& inner_qc = host.add_module<PsiQcModule<int>>("iqc");
    auto& nb = host.add_module<NbacFromQcModule>("nbac", inner_qc.index());
    auto& q = host.add_module<QcFromNbacModule<int>>("qc", nb.index());
    q.propose(proposals[static_cast<std::size_t>(i)]);
    qcs.push_back(&q);
  }
  EXPECT_TRUE(s.run().all_done);
  const auto results = test::decisions(qcs);
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(results[static_cast<std::size_t>(i)].has_value());
    EXPECT_FALSE(results[static_cast<std::size_t>(i)]->quit);
    EXPECT_EQ(results[static_cast<std::size_t>(i)]->value, 3);
  }
}

TEST(QcFromNbacTest, AbortPathQuitsOnlyWithRealFailure) {
  const int n = 3;
  sim::FailurePattern f(n);
  f.crash_at(0, 0);
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 150000;
  cfg.seed = 53;
  sim::Simulator s(cfg, f, test::psi_fs(fd::PsiOracle::Branch::kFs),
                   test::random_sched());
  std::vector<const QcFromNbacModule<int>*> qcs;
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    auto& inner_qc = host.add_module<PsiQcModule<int>>("iqc");
    auto& nb = host.add_module<NbacFromQcModule>("nbac", inner_qc.index());
    auto& q = host.add_module<QcFromNbacModule<int>>("qc", nb.index());
    q.propose(i);
    qcs.push_back(&q);
  }
  EXPECT_TRUE(s.run().all_done);
  const auto results = test::decisions(qcs);
  for (int i = 1; i < n; ++i) {
    ASSERT_TRUE(results[static_cast<std::size_t>(i)].has_value());
    EXPECT_TRUE(results[static_cast<std::size_t>(i)]->quit);
  }
}

/// Messages a crash-free run sends at n processes with `layers`
/// transformations over the Fig. 2 QC: 0 = the QC alone, 1 = NBAC from
/// it (Fig. 4), 2 = QC from that NBAC (Fig. 5). Round-robin steps run the
/// inner QC alike in all three stacks; under random schedules its own
/// message count varies between runs by more than a layer adds.
std::uint64_t layered_messages(int n, int layers, std::uint64_t seed) {
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 150000;
  cfg.seed = seed;
  sim::Simulator s(cfg, test::pattern(n),
                   test::psi_fs(fd::PsiOracle::Branch::kOmegaSigma),
                   test::round_robin());
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    auto& q = host.add_module<PsiQcModule<int>>("qc");
    if (layers == 0) {
      q.propose(i % 2);
      continue;
    }
    auto& nb = host.add_module<NbacFromQcModule>("nbac", q.index());
    if (layers == 1) {
      nb.vote(Vote::kYes);
      continue;
    }
    host.add_module<QcFromNbacModule<int>>("oqc", nb.index()).propose(i % 2);
  }
  EXPECT_TRUE(s.run().all_done);
  return s.trace().stats().messages_sent;
}

// E8 (EXPERIMENTS.md): each transformation layer adds messages on top of
// the protocol it wraps.
TEST(QcFromNbacTest, EachLayerAddsMessages) {
  for (const int n : {3, 5, 7}) {
    for (const std::uint64_t seed : {1, 2, 3}) {
      const std::uint64_t qc = layered_messages(n, 0, seed);
      const std::uint64_t nbac = layered_messages(n, 1, seed);
      const std::uint64_t outer_qc = layered_messages(n, 2, seed);
      EXPECT_LT(qc, nbac) << "n=" << n << " seed=" << seed;
      EXPECT_LT(nbac, outer_qc) << "n=" << n << " seed=" << seed;
    }
  }
}

// ------------------------------------------------------------ FS from NBAC

TEST(FsFromNbacTest, EmulatedFsHistoryIsLegal) {
  const int n = 3;
  sim::FailurePattern f(n);
  f.crash_at(2, 20000);

  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 400000;
  cfg.seed = 59;
  sim::Simulator s(cfg, f, test::psi_fs(fd::PsiOracle::Branch::kAuto, 2000),
                   test::random_sched());
  std::vector<sim::FdSampleRecord> samples;
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    auto factory = [&host](const std::string& prefix) -> nbac::NbacApi& {
      auto& q = host.add_module<PsiQcModule<int>>(prefix + "/qc");
      return host.add_module<NbacFromQcModule>(prefix + "/nbac", q.index());
    };
    auto& fs = host.add_module<FsFromNbacModule>("fs", factory);
    host.add_module<sim::FdSamplerModule>("sampler", &fs, &samples,
                                          /*period=*/64);
  }
  s.set_halt_on_done(false);
  s.run();
  const auto r = fd::check_fs_history(samples, f);
  EXPECT_TRUE(r.ok) << r.violation;
}

TEST(FsFromNbacTest, StaysGreenWhenCrashFree) {
  const int n = 3;
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 200000;
  cfg.seed = 61;
  sim::Simulator s(
      cfg, test::pattern(n),
      test::psi_fs(fd::PsiOracle::Branch::kOmegaSigma, 500),
      test::random_sched());
  std::vector<FsFromNbacModule*> fss;
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    auto factory = [&host](const std::string& prefix) -> nbac::NbacApi& {
      auto& q = host.add_module<PsiQcModule<int>>(prefix + "/qc");
      return host.add_module<NbacFromQcModule>(prefix + "/nbac", q.index());
    };
    fss.push_back(&host.add_module<FsFromNbacModule>("fs", factory));
  }
  s.set_halt_on_done(false);
  s.run();
  for (auto* fs : fss) {
    EXPECT_FALSE(fs->red());
    EXPECT_GE(fs->instances_launched(), 2u);  // It really kept running.
  }
}

}  // namespace
}  // namespace wfd

namespace wfd {
namespace {

// Section 5's closing remark: QC generalises to arbitrary value sets.
// PsiQcModule is value-generic; check the multivalued instance decides
// one of the proposed (distinct) values.
TEST(MultivaluedQcTest, DecidesOneProposedValue) {
  const int n = 4;
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 150000;
  cfg.seed = 67;
  sim::Simulator s(cfg, test::pattern(n),
                   test::psi_oracle(fd::PsiOracle::Branch::kOmegaSigma),
                   test::random_sched());
  std::vector<const qc::PsiQcModule<std::int64_t>*> qcs;
  std::vector<std::int64_t> proposals = {1000, 2000, 3000, 4000};
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    auto& q = host.add_module<qc::PsiQcModule<std::int64_t>>("qc");
    q.propose(proposals[static_cast<std::size_t>(i)]);
    qcs.push_back(&q);
  }
  EXPECT_TRUE(s.run().all_done);
  const auto results = test::decisions(qcs);
  std::optional<std::int64_t> agreed;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(results[static_cast<std::size_t>(i)].has_value());
    EXPECT_FALSE(results[static_cast<std::size_t>(i)]->quit);
    const auto v = results[static_cast<std::size_t>(i)]->value;
    if (agreed.has_value()) {
      EXPECT_EQ(v, *agreed);
    } else {
      agreed = v;
    }
  }
  EXPECT_TRUE(std::find(proposals.begin(), proposals.end(), *agreed) !=
              proposals.end());
}

}  // namespace
}  // namespace wfd
