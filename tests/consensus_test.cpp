// Corollary 2/4: consensus from (Omega, Sigma) in any environment.
// Checks Termination, Uniform Agreement and Validity across seeds,
// system sizes, crash counts and schedulers — plus the register-based
// consensus of [19] and the binary-to-multivalued transformation of [20].
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "consensus/multivalued.h"
#include "consensus/omega_sigma_consensus.h"
#include "consensus/register_consensus.h"
#include "test_util.h"

namespace wfd {
namespace {

using consensus::ConsensusApi;
using consensus::MultivaluedFromBinaryModule;
using consensus::OmegaSigmaConsensusModule;
using consensus::RegisterConsensusModule;

struct ConsParam {
  std::uint64_t seed;
  int n;
  int crashes;
};

/// Shared assertion: given per-process recorded decisions and proposals,
/// check Uniform Agreement and Validity; require every correct process
/// decided.
void check_consensus_outcome(const std::vector<std::optional<int>>& decisions,
                             const std::vector<int>& proposals,
                             const sim::FailurePattern& f) {
  std::optional<int> agreed;
  for (std::size_t p = 0; p < decisions.size(); ++p) {
    if (f.correct().contains(static_cast<ProcessId>(p))) {
      ASSERT_TRUE(decisions[p].has_value())
          << "correct process " << p << " did not decide";
    }
    if (decisions[p].has_value()) {
      if (agreed.has_value()) {
        EXPECT_EQ(*decisions[p], *agreed) << "agreement violated";
      } else {
        agreed = decisions[p];
      }
    }
  }
  ASSERT_TRUE(agreed.has_value());
  bool proposed = false;
  for (int v : proposals) proposed = proposed || (v == *agreed);
  EXPECT_TRUE(proposed) << "validity violated: " << *agreed
                        << " was never proposed";
}

class ConsensusSweep : public ::testing::TestWithParam<ConsParam> {};

TEST_P(ConsensusSweep, OmegaSigmaConsensusDecides) {
  const auto& prm = GetParam();
  Rng rng(prm.seed * 101 + 3);
  sim::MaxCrashesEnvironment env(prm.n, prm.crashes);
  const auto f = env.sample(rng, 3000);

  sim::SimConfig cfg;
  cfg.n = prm.n;
  cfg.max_steps = 150000;
  cfg.seed = prm.seed;
  sim::Simulator s(cfg, f, test::omega_sigma(), test::random_sched());
  std::vector<const ConsensusApi<int>*> cons;
  std::vector<int> proposals;
  for (int i = 0; i < prm.n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    auto& c = host.add_module<OmegaSigmaConsensusModule<int>>("cons");
    const int v = static_cast<int>(rng.below(2));
    proposals.push_back(v);
    c.propose(v);
    cons.push_back(&c);
  }
  const auto res = s.run();
  EXPECT_TRUE(res.all_done);
  check_consensus_outcome(test::decisions(cons), proposals, f);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConsensusSweep,
    ::testing::Values(ConsParam{1, 3, 0}, ConsParam{2, 3, 2},
                      ConsParam{3, 4, 3}, ConsParam{4, 5, 4},
                      ConsParam{5, 5, 2}, ConsParam{6, 7, 6},
                      ConsParam{7, 2, 1}, ConsParam{8, 6, 5},
                      ConsParam{9, 4, 2}, ConsParam{10, 5, 3},
                      ConsParam{11, 3, 1}, ConsParam{12, 8, 7}));

// Minority-correct stress: exactly one survivor. Omega alone could not
// decide safely here; with Sigma the survivor still terminates because
// the crashes leave a (single-member) legal quorum history.
TEST(ConsensusEdge, SingleSurvivorDecides) {
  const int n = 4;
  sim::FailurePattern f(n);
  f.crash_at(0, 200);
  f.crash_at(1, 400);
  f.crash_at(2, 600);

  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 150000;
  cfg.seed = 13;
  sim::Simulator s(cfg, f, test::omega_sigma(), test::random_sched());
  std::vector<const ConsensusApi<int>*> cons;
  std::vector<int> proposals = {1, 0, 1, 0};
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    auto& c = host.add_module<OmegaSigmaConsensusModule<int>>("cons");
    c.propose(proposals[static_cast<std::size_t>(i)]);
    cons.push_back(&c);
  }
  const auto res = s.run();
  EXPECT_TRUE(res.all_done);
  check_consensus_outcome(test::decisions(cons), proposals, f);
}

// All-same-proposal must decide that value (follows from validity, but
// this is the common-case fast path worth pinning).
TEST(ConsensusEdge, UnanimousProposalWins) {
  const int n = 5;
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 60000;
  cfg.seed = 17;
  sim::Simulator s(cfg, test::pattern(n), test::omega_sigma(),
                   test::random_sched());
  std::vector<const ConsensusApi<int>*> cons;
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    auto& c = host.add_module<OmegaSigmaConsensusModule<int>>("cons");
    c.propose(1);
    cons.push_back(&c);
  }
  s.run();
  for (const ConsensusApi<int>* c : cons) {
    ASSERT_TRUE(c->decided());
    EXPECT_EQ(c->decision(), 1);
  }
}

// Adversarial: isolate the eventual leader's messages until late, then
// release. Safety must hold throughout; termination after the partition
// heals.
TEST(ConsensusEdge, LeaderIsolationDelaysButNeverBreaksAgreement) {
  const int n = 3;
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 200000;
  cfg.seed = 19;
  fd::OmegaOracle::Options oo;
  oo.fixed_leader = 0;
  oo.max_stabilization = 100;
  fd::SigmaOracle::Options so;
  so.max_stabilization = 100;
  auto oracle = std::make_unique<fd::TupleOracle>(
      std::make_unique<fd::OmegaOracle>(oo),
      std::make_unique<fd::SigmaOracle>(so));
  // Block every message from the leader until t = 50000.
  auto filter = [](const sim::Envelope& e, Time now) {
    return e.from == 0 && now < 50000;
  };
  sim::Simulator s(
      cfg, test::pattern(n), std::move(oracle),
      std::make_unique<sim::FilteredScheduler>(test::random_sched(), filter));
  std::vector<const ConsensusApi<int>*> cons;
  std::vector<int> proposals = {0, 1, 1};
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    auto& c = host.add_module<OmegaSigmaConsensusModule<int>>("cons");
    c.propose(proposals[static_cast<std::size_t>(i)]);
    cons.push_back(&c);
  }
  const auto res = s.run();
  EXPECT_TRUE(res.all_done);
  check_consensus_outcome(test::decisions(cons), proposals,
                          test::pattern(n));
}

// E12c (EXPERIMENTS.md): Omega trusts process 0 from the first step, but
// 0's messages are withheld until t = 30000, so every round it starts
// before then stalls. An eager retry interval starts more of those
// rounds than a lazy one; every process decides either way.
std::uint64_t rounds_with_isolated_leader(Time retry_interval) {
  const int n = 5;
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 400000;
  cfg.seed = 19;
  fd::OmegaOracle::Options oo;
  oo.fixed_leader = 0;
  oo.max_stabilization = 1;
  fd::SigmaOracle::Options so;
  so.max_stabilization = 100;
  auto oracle = std::make_unique<fd::TupleOracle>(
      std::make_unique<fd::OmegaOracle>(oo),
      std::make_unique<fd::SigmaOracle>(so));
  auto filter = [](const sim::Envelope& e, Time now) {
    return e.from == 0 && now < 30000;
  };
  sim::Simulator s(
      cfg, test::pattern(n), std::move(oracle),
      std::make_unique<sim::FilteredScheduler>(test::random_sched(), filter));
  OmegaSigmaConsensusModule<int>::Options opt;
  opt.retry_interval = retry_interval;
  std::vector<const OmegaSigmaConsensusModule<int>*> cons;
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    auto& c = host.add_module<OmegaSigmaConsensusModule<int>>("cons", opt);
    c.propose(i % 2);
    cons.push_back(&c);
  }
  EXPECT_TRUE(s.run().all_done);
  std::uint64_t rounds = 0;
  for (const auto* c : cons) {
    EXPECT_TRUE(c->decided());
    rounds += c->rounds_started();
  }
  return rounds;
}

TEST(ConsensusEdge, EagerRetriesStartMoreRoundsThanLazyOnes) {
  EXPECT_GT(rounds_with_isolated_leader(8), rounds_with_isolated_leader(2048));
}

// ------------------------------------------------- register-based consensus

TEST(RegisterConsensusTest, DecidesOverSigmaBackedRegisters) {
  const int n = 3;
  sim::FailurePattern f(n);
  f.crash_at(2, 5000);

  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 400000;
  cfg.seed = 23;
  sim::Simulator s(cfg, f, test::omega_sigma(), test::random_sched());
  std::vector<const ConsensusApi<int>*> cons;
  std::vector<int> proposals = {0, 1, 0};
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    std::vector<std::size_t> regs;
    for (int j = 0; j < n; ++j) {
      regs.push_back(host.add_module<RegisterConsensusModule<int>::Register>(
                             "breg/" + std::to_string(j))
                         .index());
    }
    auto& c = host.add_module<RegisterConsensusModule<int>>("rcons", regs);
    c.propose(proposals[static_cast<std::size_t>(i)]);
    cons.push_back(&c);
  }
  const auto res = s.run();
  EXPECT_TRUE(res.all_done);
  check_consensus_outcome(test::decisions(cons), proposals, f);
}

// E5 (EXPERIMENTS.md): consensus derived from registers plus Omega
// decides, but costs more steps and messages than (Omega, Sigma)
// consensus directly.
TEST(RegisterConsensusTest, CostsMoreThanOmegaSigmaConsensus) {
  const auto cost = [](int n, std::uint64_t seed, bool over_registers) {
    sim::SimConfig cfg;
    cfg.n = n;
    cfg.max_steps = 600000;
    cfg.seed = seed;
    sim::Simulator s(cfg, test::pattern(n), test::omega_sigma(),
                     test::random_sched());
    for (int i = 0; i < n; ++i) {
      auto& host = s.add_process<sim::ModularProcess>();
      if (!over_registers) {
        host.add_module<OmegaSigmaConsensusModule<int>>("cons").propose(i % 2);
        continue;
      }
      std::vector<std::size_t> regs;
      for (int j = 0; j < n; ++j) {
        regs.push_back(host.add_module<RegisterConsensusModule<int>::Register>(
                               "breg/" + std::to_string(j))
                           .index());
      }
      host.add_module<RegisterConsensusModule<int>>("cons", regs)
          .propose(i % 2);
    }
    const auto res = s.run();
    EXPECT_TRUE(res.all_done);
    return std::pair(res.steps, s.trace().stats().messages_sent);
  };
  for (const int n : {3, 5}) {
    for (const std::uint64_t seed : {1, 2}) {
      const auto [direct_steps, direct_msgs] = cost(n, seed, false);
      const auto [derived_steps, derived_msgs] = cost(n, seed, true);
      EXPECT_GT(derived_steps, direct_steps) << "n=" << n << " seed=" << seed;
      EXPECT_GT(derived_msgs, direct_msgs) << "n=" << n << " seed=" << seed;
    }
  }
}

// ------------------------------------------------ binary -> multivalued

TEST(MultivaluedTest, DecidesAProposedValue) {
  const int n = 4;
  sim::FailurePattern f(n);
  f.crash_at(1, 1500);

  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 400000;
  cfg.seed = 29;
  sim::Simulator s(cfg, f, test::omega_sigma(), test::random_sched());
  std::vector<const ConsensusApi<int>*> cons;
  std::vector<int> proposals = {100, 200, 300, 400};
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    auto& c = host.add_module<MultivaluedFromBinaryModule<int>>("mv");
    c.propose(proposals[static_cast<std::size_t>(i)]);
    cons.push_back(&c);
  }
  const auto res = s.run();
  EXPECT_TRUE(res.all_done);
  check_consensus_outcome(test::decisions(cons), proposals, f);
}

}  // namespace
}  // namespace wfd
