// The broadcast substrate: uniform reliable broadcast (detector-free)
// and atomic broadcast <-> consensus (the Chandra-Toueg equivalence the
// state-machine substrate of Corollary 3 rests on). Properties checked:
// URB validity/uniform agreement/integrity, total-order prefix
// consistency, and the round-trip consensus-from-abcast.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "broadcast/atomic_broadcast.h"
#include "broadcast/reliable_broadcast.h"
#include "consensus/consensus_from_abcast.h"
#include "test_util.h"

namespace wfd {
namespace {

using broadcast::AppMessage;
using broadcast::AtomicBroadcastModule;
using broadcast::UrbModule;

// ---------------------------------------------------------------- URB

class UrbSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UrbSweep, ValidityAgreementIntegrity) {
  const int n = 5;
  Rng rng(GetParam() * 313 + 9);
  sim::AnyEnvironment env(n);
  const auto f = env.sample(rng, 3000);

  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 60000;
  cfg.seed = GetParam();
  sim::Simulator s(cfg, f, std::make_unique<fd::NullOracle>(),
                   test::random_sched());
  std::vector<UrbModule*> urbs;
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    auto& u = host.add_module<UrbModule>("urb");
    // Every process broadcasts three messages up front.
    u.urb_broadcast(i * 10 + 1);
    u.urb_broadcast(i * 10 + 2);
    u.urb_broadcast(i * 10 + 3);
    urbs.push_back(&u);
  }
  s.set_halt_on_done(false);
  s.run();

  // Integrity: no duplicates anywhere.
  for (auto* u : urbs) {
    auto log = u->delivered_log();
    std::sort(log.begin(), log.end());
    EXPECT_TRUE(std::adjacent_find(log.begin(), log.end()) == log.end());
  }
  // Validity + agreement: all correct processes deliver exactly the same
  // message set, which includes every correct process's messages.
  std::optional<std::vector<AppMessage>> reference;
  for (ProcessId p = 0; p < n; ++p) {
    if (!f.correct().contains(p)) continue;
    auto log = urbs[static_cast<std::size_t>(p)]->delivered_log();
    std::sort(log.begin(), log.end());
    for (ProcessId q : f.correct().members()) {
      int from_q = 0;
      for (const auto& m : log) {
        if (m.origin == q) ++from_q;
      }
      EXPECT_EQ(from_q, 3) << "p" << p << " misses messages from " << q;
    }
    if (reference.has_value()) {
      EXPECT_EQ(log, *reference) << "agreement violated at p" << p;
    } else {
      reference = log;
    }
  }
  // Uniformity: anything delivered anywhere (even by a now-crashed
  // process) is delivered by every correct process.
  for (ProcessId p = 0; p < n; ++p) {
    for (const auto& m : urbs[static_cast<std::size_t>(p)]->delivered_log()) {
      for (ProcessId q : f.correct().members()) {
        const auto& qlog =
            urbs[static_cast<std::size_t>(q)]->delivered_log();
        EXPECT_TRUE(std::find(qlog.begin(), qlog.end(), m) != qlog.end())
            << "message delivered at p" << p << " missing at correct p" << q;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UrbSweep, ::testing::Values(1, 2, 3, 4, 5));

// ------------------------------------------------------ atomic broadcast

class AbcastSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AbcastSweep, TotalOrderPrefixConsistency) {
  const int n = 4;
  Rng rng(GetParam() * 331 + 11);
  sim::AnyEnvironment env(n);
  const auto f = env.sample(rng, 2000);

  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 400000;
  cfg.seed = GetParam();
  sim::Simulator s(cfg, f, test::omega_sigma(), test::random_sched());
  std::vector<AtomicBroadcastModule*> abs;
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    auto& ab = host.add_module<AtomicBroadcastModule>("ab");
    ab.abcast(i * 100 + 1);
    ab.abcast(i * 100 + 2);
    abs.push_back(&ab);
  }
  const auto res = s.run();
  EXPECT_TRUE(res.all_done) << "some correct process's log never drained";
  // Catch-up phase: a process may drain its own queue before the last
  // round's announce/decide messages reach it; let in-flight messages
  // land before comparing logs.
  s.set_halt_on_done(false);
  s.run_for(60000);

  // Total order: every pair of logs is prefix-consistent.
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      const auto& la = abs[static_cast<std::size_t>(a)]->delivered_log();
      const auto& lb = abs[static_cast<std::size_t>(b)]->delivered_log();
      const std::size_t common = std::min(la.size(), lb.size());
      for (std::size_t k = 0; k < common; ++k) {
        EXPECT_EQ(la[k], lb[k])
            << "order diverges at position " << k << " between p" << a
            << " and p" << b;
      }
    }
  }
  // Liveness: every correct sender's messages are in every correct log.
  for (ProcessId q : f.correct().members()) {
    for (ProcessId p : f.correct().members()) {
      const auto& log = abs[static_cast<std::size_t>(p)]->delivered_log();
      int from_q = 0;
      for (const auto& m : log) {
        if (m.origin == q) ++from_q;
      }
      EXPECT_EQ(from_q, 2);
    }
  }
  // Integrity: no duplicates.
  for (ProcessId p : f.correct().members()) {
    auto log = abs[static_cast<std::size_t>(p)]->delivered_log();
    std::sort(log.begin(), log.end());
    EXPECT_TRUE(std::adjacent_find(log.begin(), log.end()) == log.end());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AbcastSweep, ::testing::Values(1, 2, 3, 4));

// --------------------------------------------- consensus from abcast

TEST(ConsensusFromAbcastTest, EquivalenceRoundTrip) {
  const int n = 3;
  sim::FailurePattern f(n);
  f.crash_at(2, 1500);

  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 400000;
  cfg.seed = 17;
  sim::Simulator s(cfg, f, test::omega_sigma(), test::random_sched());
  std::vector<const consensus::ConsensusFromAbcastModule*> cons;
  const std::vector<std::int64_t> proposals = {11, 22, 33};
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    auto& c = host.add_module<consensus::ConsensusFromAbcastModule>("cfa");
    c.propose(proposals[static_cast<std::size_t>(i)]);
    cons.push_back(&c);
  }
  const auto res = s.run();
  EXPECT_TRUE(res.all_done);
  const auto decisions = test::decisions(cons);
  std::optional<std::int64_t> agreed;
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
  EXPECT_TRUE(std::find(proposals.begin(), proposals.end(), *agreed) !=
              proposals.end());
}

/// Records the result its hook hears.
class DecisionProbe : public sim::Module, public sim::Listener<std::int64_t> {
 public:
  void on_message(ProcessId, const sim::Payload&) override {}
  void on_result(std::uint64_t, const std::int64_t& d) override { heard = d; }
  std::optional<std::int64_t> heard;
};

// A process decides on the first TO-delivered message, proposer or not,
// so a propose that comes after its decision must report it at once.
TEST(ConsensusFromAbcastTest, LateProposeLearnsDecision) {
  const int n = 3;
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 400000;
  cfg.seed = 17;
  sim::Simulator s(cfg, test::pattern(n), test::omega_sigma(),
                   test::random_sched());
  std::vector<consensus::ConsensusFromAbcastModule*> cons;
  DecisionProbe* probe = nullptr;
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    auto& c = host.add_module<consensus::ConsensusFromAbcastModule>("cfa");
    if (i < 2) c.propose(11 * (i + 1));
    cons.push_back(&c);
    if (i == 2) probe = &host.add_module<DecisionProbe>("probe");
  }
  s.set_halt_on_done(false);
  s.run_for(20000);
  ASSERT_TRUE(cons[0]->decided() && cons[2]->decided());
  cons[2]->propose(33, probe->hook());
  ASSERT_TRUE(probe->heard.has_value());
  EXPECT_EQ(*probe->heard, cons[2]->decision());
  EXPECT_EQ(*probe->heard, cons[0]->decision());
}

}  // namespace
}  // namespace wfd
