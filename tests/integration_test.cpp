// Cross-layer integration: the paper's results composed end-to-end.
//
// The flagship scenario is oracle-free consensus: Sigma implemented from
// a correct majority (join-quorum) plus Omega implemented from
// heartbeats under partial synchrony, wired into the (Omega, Sigma)
// consensus through the FdSource indirection — i.e. consensus in a
// majority-correct partially-synchronous system with NO oracle at all,
// which is exactly the classical setting the paper generalises away
// from.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "consensus/omega_sigma_consensus.h"
#include "fd/heartbeat_omega.h"
#include "fd/sigma_majority.h"
#include "nbac/nbac_from_qc.h"
#include "qc/psi_qc.h"
#include "reg/abd_register.h"
#include "reg/linearizability.h"
#include "reg/register_client.h"
#include "test_util.h"

namespace wfd {
namespace {

class OracleFreeSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OracleFreeSweep, ConsensusWithImplementedDetectorsOnly) {
  const int n = 5;
  sim::FailurePattern f(n);
  // p0 dies immediately: the heartbeat Omega initially trusts the
  // smallest id, so the protocol must ride through a leader change
  // before it can decide. p4 dies after GST; a majority stays correct.
  f.crash_at(0, 0);
  f.crash_at(4, 40000);

  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 500000;
  cfg.seed = GetParam();
  sim::Simulator s(cfg, f, std::make_unique<fd::NullOracle>(),
                   std::make_unique<sim::PartialSynchronyScheduler>(20000));
  std::vector<std::unique_ptr<sim::MergedFdSource>> sources;
  std::vector<const consensus::OmegaSigmaConsensusModule<int>*> conses;
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    auto& omega = host.add_module<fd::HeartbeatOmegaModule>("omega");
    auto& sigma = host.add_module<fd::SigmaMajorityModule>("sigma");
    sources.push_back(std::make_unique<sim::MergedFdSource>(&omega, &sigma));
    auto& cons =
        host.add_module<consensus::OmegaSigmaConsensusModule<int>>("cons");
    cons.set_fd_source(sources.back().get());
    cons.propose(i % 2);
    conses.push_back(&cons);
  }
  s.run();
  const auto decisions = test::decisions(conses);
  // The heartbeat Omega is a service and never reports done(), so the
  // run goes to the horizon; what must be done is consensus, at every
  // process still alive.
  for (int i = 0; i < n; ++i) {
    if (!f.alive(i, s.now())) continue;
    EXPECT_TRUE(conses[static_cast<std::size_t>(i)]->done()) << "p" << i;
  }
  std::optional<int> agreed;
  for (int i = 0; i < n; ++i) {
    if (f.correct().contains(i)) {
      ASSERT_TRUE(decisions[static_cast<std::size_t>(i)].has_value());
    }
    if (!decisions[static_cast<std::size_t>(i)].has_value()) continue;
    if (agreed.has_value()) {
      EXPECT_EQ(*decisions[static_cast<std::size_t>(i)], *agreed);
    } else {
      agreed = decisions[static_cast<std::size_t>(i)];
    }
  }
  ASSERT_TRUE(agreed.has_value());
  EXPECT_TRUE(*agreed == 0 || *agreed == 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleFreeSweep, ::testing::Values(1, 2, 3));

// Registers over the join-quorum Sigma implementation (no oracle): the
// full Theorem-1 stack with an implemented detector.
TEST(OracleFreeRegisters, LinearizableOverJoinQuorumSigma) {
  const int n = 5;
  sim::FailurePattern f(n);
  f.crash_at(2, 6000);

  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 300000;
  cfg.seed = 9;
  sim::Simulator s(cfg, f, std::make_unique<fd::NullOracle>(),
                   test::random_sched());
  reg::History history;
  reg::RegisterWorkloadModule::Options wopt;
  wopt.num_ops = 3;
  std::vector<fd::SigmaMajorityModule*> sigmas;
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    auto& sigma = host.add_module<fd::SigmaMajorityModule>("sigma");
    sigmas.push_back(&sigma);
    auto& r = host.add_module<reg::AbdRegisterModule<std::int64_t>>("reg");
    r.set_fd_source(&sigma);
    host.add_module<reg::RegisterWorkloadModule>("load", r.index(), &history,
                                                 wopt);
  }
  const auto res = s.run();
  EXPECT_TRUE(res.all_done);
  const auto lin = reg::check_linearizable(history);
  EXPECT_TRUE(lin.ok) << lin.violation;
}

// The full Corollary-10 tower in one process stack: NBAC over QC over
// consensus over (Psi, FS), with a crash mid-protocol, across
// schedulers.
TEST(FullTower, NbacOverQcOverConsensusWithCrash) {
  for (const bool round_robin : {false, true}) {
    const int n = 4;
    sim::FailurePattern f(n);
    f.crash_at(3, 500);

    sim::SimConfig cfg;
    cfg.n = n;
    cfg.max_steps = 300000;
    cfg.seed = 17;
    sim::Simulator s(cfg, f, test::psi_fs(fd::PsiOracle::Branch::kAuto, 400),
                     round_robin ? test::round_robin()
                                 : test::random_sched());
    std::vector<const nbac::NbacApi*> mods;
    for (int i = 0; i < n; ++i) {
      auto& host = s.add_process<sim::ModularProcess>();
      auto& q = host.add_module<qc::PsiQcModule<int>>("qc");
      auto& nb = host.add_module<nbac::NbacFromQcModule>("nbac", q.index());
      nb.vote(nbac::Vote::kYes);
      mods.push_back(&nb);
    }
    const auto res = s.run();
    const auto decisions = test::decisions(mods);
    EXPECT_TRUE(res.all_done);
    std::optional<nbac::Decision> agreed;
    for (int i = 0; i < n; ++i) {
      if (f.correct().contains(i)) {
        ASSERT_TRUE(decisions[static_cast<std::size_t>(i)].has_value());
      }
      if (!decisions[static_cast<std::size_t>(i)].has_value()) continue;
      if (agreed.has_value()) {
        EXPECT_EQ(*decisions[static_cast<std::size_t>(i)], *agreed);
      } else {
        agreed = decisions[static_cast<std::size_t>(i)];
      }
    }
  }
}

}  // namespace
}  // namespace wfd
