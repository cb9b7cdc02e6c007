// The classical pre-(Omega, Sigma) landscape the paper generalises:
//  - Chandra-Toueg consensus from a Strong detector S (any environment);
//  - NBAC from the perfect detector P (any environment; cf. [9]);
//  - Omega-with-majorities consensus (the [4] setting): live only with a
//    correct majority — the boundary that motivates Sigma;
//  - the regular-register ablation: dropping ABD's read write-back loses
//    atomicity in exactly the documented way.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "consensus/omega_sigma_consensus.h"
#include "consensus/strong_consensus.h"
#include "nbac/nbac_from_perfect.h"
#include "reg/abd_register.h"
#include "reg/linearizability.h"
#include "reg/register_client.h"
#include "test_util.h"

namespace wfd {
namespace {

using consensus::ConsensusQuorumRule;
using consensus::OmegaSigmaConsensusModule;
using consensus::StrongConsensusModule;

// ------------------------------------------------------------ S-consensus

struct StrongParam {
  std::uint64_t seed;
  int n;
  int crashes;
  bool perfect;  ///< P oracle instead of S.
};

class StrongConsensusSweep : public ::testing::TestWithParam<StrongParam> {};

TEST_P(StrongConsensusSweep, DecidesWithAgreementAndValidity) {
  const auto& prm = GetParam();
  Rng rng(prm.seed * 211 + 7);
  sim::MaxCrashesEnvironment env(prm.n, prm.crashes);
  const auto f = env.sample(rng, 3000);

  sim::SimConfig cfg;
  cfg.n = prm.n;
  cfg.max_steps = 200000;
  cfg.seed = prm.seed;
  std::unique_ptr<fd::Oracle> oracle;
  if (prm.perfect) {
    oracle = std::make_unique<fd::PerfectOracle>();
  } else {
    oracle = std::make_unique<fd::StrongOracle>();
  }
  sim::Simulator s(cfg, f, std::move(oracle), test::random_sched());
  std::vector<const consensus::ConsensusApi<int>*> mods;
  std::vector<int> proposals;
  for (int i = 0; i < prm.n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    auto& c = host.add_module<StrongConsensusModule<int>>("scons");
    const int v = 100 + i;  // Distinct proposals stress the relay rounds.
    proposals.push_back(v);
    c.propose(v);
    mods.push_back(&c);
  }
  const auto res = s.run();
  const auto decisions = test::decisions(mods);
  EXPECT_TRUE(res.all_done);
  std::optional<int> agreed;
  for (int i = 0; i < prm.n; ++i) {
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
  EXPECT_GE(*agreed, 100);
  EXPECT_LT(*agreed, 100 + prm.n);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StrongConsensusSweep,
    ::testing::Values(StrongParam{1, 3, 0, false}, StrongParam{2, 3, 2, false},
                      StrongParam{3, 5, 4, false}, StrongParam{4, 5, 2, false},
                      StrongParam{5, 4, 3, true}, StrongParam{6, 6, 5, true},
                      StrongParam{7, 7, 6, false}, StrongParam{8, 2, 1, true}));

// ------------------------------------------------------------- NBAC from P

struct PNbacParam {
  std::uint64_t seed;
  int no_votes;
  int crashes;
};

class NbacFromPerfectSweep : public ::testing::TestWithParam<PNbacParam> {};

TEST_P(NbacFromPerfectSweep, SpecHolds) {
  const auto& prm = GetParam();
  const int n = 4;
  sim::FailurePattern f(n);
  for (int i = 0; i < prm.crashes; ++i) {
    f.crash_at(n - 1 - i, 100 * static_cast<Time>(i));
  }
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 200000;
  cfg.seed = prm.seed;
  sim::Simulator s(cfg, f, std::make_unique<fd::PerfectOracle>(),
                   test::random_sched());
  std::vector<const nbac::NbacApi*> mods;
  bool all_yes = prm.no_votes == 0;
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    auto& nb = host.add_module<nbac::NbacFromPerfectModule>("nbac");
    nb.vote(i < prm.no_votes ? nbac::Vote::kNo : nbac::Vote::kYes);
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
    const auto d = *decisions[static_cast<std::size_t>(i)];
    if (agreed.has_value()) {
      EXPECT_EQ(d, *agreed);
    } else {
      agreed = d;
    }
    if (d == nbac::Decision::kCommit) {
      EXPECT_TRUE(all_yes);
      EXPECT_TRUE(f.faulty().empty() || f.first_crash_time() > 0);
    } else {
      EXPECT_TRUE(!all_yes || !f.faulty().empty());
    }
  }
  // Mandatory commit: all Yes and crash-free.
  if (all_yes && f.faulty().empty()) {
    ASSERT_TRUE(agreed.has_value());
    EXPECT_EQ(*agreed, nbac::Decision::kCommit);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NbacFromPerfectSweep,
    ::testing::Values(PNbacParam{1, 0, 0}, PNbacParam{2, 1, 0},
                      PNbacParam{3, 0, 1}, PNbacParam{4, 0, 3},
                      PNbacParam{5, 2, 1}, PNbacParam{6, 0, 0},
                      PNbacParam{7, 4, 0}));

// -------------------------------------------- Omega + majority boundary

TEST(OmegaMajorityConsensus, LiveWithCorrectMajority) {
  const int n = 5;
  sim::FailurePattern f(n);
  f.crash_at(0, 300);
  f.crash_at(1, 900);  // 3 of 5 stay correct: a majority.

  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 150000;
  cfg.seed = 31;
  sim::Simulator s(cfg, f, test::omega(), test::random_sched());
  OmegaSigmaConsensusModule<int>::Options opt;
  opt.quorum_rule = ConsensusQuorumRule::kMajority;
  std::vector<const consensus::ConsensusApi<int>*> mods;
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    auto& c = host.add_module<OmegaSigmaConsensusModule<int>>("cons", opt);
    c.propose(i % 2);
    mods.push_back(&c);
  }
  const auto res = s.run();
  const auto decisions = test::decisions(mods);
  EXPECT_TRUE(res.all_done);
  for (ProcessId p : f.correct().members()) {
    EXPECT_TRUE(decisions[static_cast<std::size_t>(p)].has_value());
  }
}

TEST(OmegaMajorityConsensus, BlocksWithoutMajority) {
  // The motivating boundary: with only 2 of 5 processes alive, majority
  // quorums cannot form — Omega alone cannot decide, while the same
  // protocol with Sigma (ConsensusSweep elsewhere) sails through.
  const int n = 5;
  sim::FailurePattern f(n);
  for (ProcessId p = 0; p < 3; ++p) f.crash_at(p, 0);

  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 60000;
  cfg.seed = 37;
  sim::Simulator s(cfg, f, test::omega(), test::random_sched());
  OmegaSigmaConsensusModule<int>::Options opt;
  opt.quorum_rule = ConsensusQuorumRule::kMajority;
  std::vector<const consensus::ConsensusApi<int>*> mods;
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    auto& c = host.add_module<OmegaSigmaConsensusModule<int>>("cons", opt);
    c.propose(i % 2);
    mods.push_back(&c);
  }
  const auto res = s.run();
  const auto decisions = test::decisions(mods);
  EXPECT_FALSE(res.all_done);
  for (int i = 0; i < n; ++i) {
    EXPECT_FALSE(decisions[static_cast<std::size_t>(i)].has_value());
  }
}

// ------------------------------------------------ regular-register ablation

TEST(RegularRegisterAblation, AtomicReadsStayLinearizable) {
  // Control: with write-back on, the concurrent workload is linearizable
  // (this is AbdSweep's property, pinned here against the same setup as
  // the ablation below).
  const int n = 3;
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 300000;
  cfg.seed = 41;
  sim::Simulator s(cfg, test::pattern(n), test::sigma_oracle(),
                   test::random_sched());
  reg::History history;
  reg::AbdRegisterModule<std::int64_t>::Options ropt;
  ropt.atomic_reads = true;
  reg::RegisterWorkloadModule::Options wopt;
  wopt.num_ops = 6;
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    auto& r = host.add_module<reg::AbdRegisterModule<std::int64_t>>("reg",
                                                                     ropt);
    host.add_module<reg::RegisterWorkloadModule>("load", r.index(), &history,
                                                 wopt);
  }
  EXPECT_TRUE(s.run().all_done);
  EXPECT_TRUE(reg::is_linearizable(history));
}

/// Messages per completed operation of a crash-free, read-heavy n=5
/// workload, with or without the read write-back.
double messages_per_op(bool atomic_reads, std::uint64_t seed) {
  const int n = 5;
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 300000;
  cfg.seed = seed;
  sim::Simulator s(cfg, test::pattern(n), test::sigma_oracle(),
                   test::random_sched());
  reg::History history;
  reg::AbdRegisterModule<std::int64_t>::Options ropt;
  ropt.atomic_reads = atomic_reads;
  reg::RegisterWorkloadModule::Options wopt;
  wopt.num_ops = 6;
  wopt.write_percent = 30;
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    auto& r = host.add_module<reg::AbdRegisterModule<std::int64_t>>("reg",
                                                                     ropt);
    host.add_module<reg::RegisterWorkloadModule>("load", r.index(), &history,
                                                 wopt);
  }
  EXPECT_TRUE(s.run().all_done);
  return static_cast<double>(s.trace().stats().messages_sent) /
         static_cast<double>(history.completed());
}

// E12a (EXPERIMENTS.md): the write-back is what atomicity costs — without
// it, reads send fewer messages per operation.
TEST(RegularRegisterAblation, RegularReadsSendFewerMessages) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    EXPECT_LT(messages_per_op(false, seed), messages_per_op(true, seed))
        << "seed=" << seed;
  }
}

// A driver that issues one register operation at a fixed local tick and
// records it in a shared history.
class ScriptedOp : public sim::Module, public sim::Listener<std::int64_t> {
 public:
  /// `target`: the register's position in this host.
  ScriptedOp(std::size_t target, reg::History* history, Time start_tick,
             bool is_write, std::int64_t value)
      : target_(target),
        history_(history),
        start_tick_(start_tick),
        is_write_(is_write),
        value_(value) {}

  void on_message(ProcessId, const sim::Payload&) override {}

  void on_tick() override {
    if (issued_ || ++ticks_ < start_tick_) return;
    issued_ = true;
    auto& target =
        host().module_at<reg::AbdRegisterModule<std::int64_t>>(target_);
    const auto idx = history_->invoke(self(), is_write_,
                                      is_write_ ? value_ : 0, now());
    if (is_write_) {
      target.write(value_, hook(idx));
    } else {
      target.read(hook(idx));
    }
  }

  /// The operation recorded at History index `idx` completed.
  void on_result(std::uint64_t idx, const std::int64_t& v) override {
    history_->respond(static_cast<std::size_t>(idx), now(), v);
    finished_ = true;
  }

  [[nodiscard]] bool done() const override { return finished_; }
  [[nodiscard]] bool finished() const { return finished_; }

 private:
  std::size_t target_;
  reg::History* history_;
  Time start_tick_;
  bool is_write_;
  std::int64_t value_;
  Time ticks_ = 0;
  bool issued_ = false;
  bool finished_ = false;
};

TEST(RegularRegisterAblation, DroppingWriteBackAllowsNewOldInversion) {
  // Orchestrated inversion with n = 5 and majority quorums:
  //  - p0's write reaches only p1's replica (all of p0's later messages
  //    except those to p1 are withheld, so the write stalls mid-phase-2);
  //  - p3 reads with replier set {1,2,3} (p4 -> p3 withheld): it sees
  //    p1's fresh replica and returns the NEW value;
  //  - p2 then reads with replier set {2,3,4} (p1 -> p2 withheld): every
  //    replica it sees is stale, so it returns the OLD value.
  // A read that returned new cannot precede one that returns old: with
  // atomic_reads off, the history is not linearizable; the write-back
  // (R2 phase) is precisely what forbids this.
  const int n = 5;
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 40000;
  cfg.seed = 1;
  // Under round-robin the write's phase-1 broadcast is p0's second step
  // (global time 5); everything p0 sends from t=10 on is its phase-2
  // broadcast and its replies to the readers — withhold those (except to
  // p1) so exactly one replica learns the new value.
  auto filter = [](const sim::Envelope& e, Time) {
    if (e.from == 0 && e.to != 1 && e.sent_at >= 10) return true;
    if (e.from == 1 && e.to == 2) return true;
    if (e.from == 4 && e.to == 3) return true;
    return false;
  };
  sim::Simulator s(
      cfg, test::pattern(n), std::make_unique<fd::NullOracle>(),
      std::make_unique<sim::FilteredScheduler>(test::round_robin(), filter));
  reg::History history;
  reg::AbdRegisterModule<std::int64_t>::Options ropt;
  ropt.rule = reg::QuorumRule::kMajority;
  ropt.atomic_reads = false;  // The ablation under test.
  std::vector<ScriptedOp*> ops(n, nullptr);
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    auto& r =
        host.add_module<reg::AbdRegisterModule<std::int64_t>>("reg", ropt);
    if (i == 0) {
      ops[0] = &host.add_module<ScriptedOp>("op", r.index(), &history, 1,
                                            true, 7);
    } else if (i == 3) {
      ops[3] = &host.add_module<ScriptedOp>("op", r.index(), &history, 400,
                                            false, 0);
    } else if (i == 2) {
      ops[2] = &host.add_module<ScriptedOp>("op", r.index(), &history, 2500,
                                            false, 0);
    }
  }
  s.set_halt_on_done(false);
  s.run();
  // The write is stalled forever; both reads must have completed.
  ASSERT_TRUE(ops[3]->finished());
  ASSERT_TRUE(ops[2]->finished());
  ASSERT_FALSE(ops[0]->finished());
  // p3 saw the new value, p2 the old one, strictly afterwards.
  std::int64_t v3 = -1, v2 = -1;
  for (const auto& op : history.ops()) {
    if (op.client == 3) v3 = op.value;
    if (op.client == 2) v2 = op.value;
  }
  EXPECT_EQ(v3, 7);
  EXPECT_EQ(v2, 0);
  EXPECT_FALSE(reg::is_linearizable(history));
}

}  // namespace
}  // namespace wfd
