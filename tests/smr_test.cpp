// Corollary 3 substrate: registers implemented from consensus via a
// replicated log (state-machine replication). Linearizability follows
// from the total log order; these tests check it with the same checker
// used for ABD.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "reg/abd_register.h"
#include "reg/linearizability.h"
#include "reg/register_client.h"
#include "smr/register_from_consensus.h"
#include "test_util.h"

namespace wfd {
namespace {

using smr::SmrRegisterModule;

/// The shared register workload (random reads and writes), which drives
/// any register implementation.
reg::RegisterWorkloadModule::Options workload(int num_ops) {
  reg::RegisterWorkloadModule::Options o;
  o.num_ops = num_ops;
  return o;
}

class SmrSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SmrSweep, SmrRegisterIsLinearizable) {
  const int n = 3;
  Rng rng(GetParam() * 67 + 11);
  sim::AnyEnvironment env(n);
  const auto f = env.sample(rng, 3000);

  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 600000;
  cfg.seed = GetParam();
  sim::Simulator s(cfg, f, test::omega_sigma(), test::random_sched());
  reg::History history;
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    auto& r = host.add_module<SmrRegisterModule>("smr");
    host.add_module<reg::RegisterWorkloadModule>("load", r.index(), &history,
                                                 workload(3));
  }
  const auto res = s.run();
  EXPECT_TRUE(res.all_done);
  const auto lin = reg::check_linearizable(history);
  EXPECT_TRUE(lin.ok) << lin.violation;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmrSweep, ::testing::Values(1, 2, 3, 4, 5));

TEST(SmrTest, ReplicasConvergeOnAppliedPrefix) {
  const int n = 3;
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 600000;
  cfg.seed = 71;
  sim::Simulator s(cfg, test::pattern(n), test::omega_sigma(),
                   test::random_sched());
  reg::History history;
  std::vector<SmrRegisterModule*> regs;
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    auto& r = host.add_module<SmrRegisterModule>("smr");
    regs.push_back(&r);
    host.add_module<reg::RegisterWorkloadModule>("load", r.index(), &history,
                                                 workload(4));
  }
  const auto res = s.run();
  ASSERT_TRUE(res.all_done);
  // Let stragglers catch up on remaining Decide messages.
  s.set_halt_on_done(false);
  s.run_for(50000);
  // All replicas that applied the same number of slots hold equal state;
  // at least the full workload's writes were applied somewhere.
  std::uint64_t max_applied = 0;
  for (auto* r : regs) max_applied = std::max(max_applied, r->applied_slots());
  EXPECT_GT(max_applied, 0u);
  for (auto* a : regs) {
    for (auto* b : regs) {
      if (a->applied_slots() == b->applied_slots()) {
        EXPECT_EQ(a->replica_value(), b->replica_value());
      }
    }
  }
}

struct Cost {
  Time steps = 0;
  std::uint64_t messages = 0;
};

/// Every process runs workload(2) on its `Register`, crash-free; what the
/// whole run cost.
template <typename Register>
Cost workload_cost(int n, std::uint64_t seed) {
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 600000;
  cfg.seed = seed;
  sim::Simulator s(cfg, test::pattern(n), test::omega_sigma(),
                   test::random_sched());
  reg::History history;
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    auto& r = host.add_module<Register>("reg");
    host.add_module<reg::RegisterWorkloadModule>("load", r.index(), &history,
                                                 workload(2));
  }
  const auto res = s.run();
  EXPECT_TRUE(res.all_done);
  return {res.steps, s.trace().stats().messages_sent};
}

// E5 (EXPERIMENTS.md): the register derived from consensus works, but
// costs more steps and messages than ABD over Sigma, the direct
// construction, on the same workload.
TEST(SmrTest, CostsMoreThanAbdOverSigma) {
  for (const int n : {3, 5}) {
    for (const std::uint64_t seed : {1, 2}) {
      const Cost abd =
          workload_cost<reg::AbdRegisterModule<std::int64_t>>(n, seed);
      const Cost smr = workload_cost<SmrRegisterModule>(n, seed);
      EXPECT_GT(smr.steps, abd.steps) << "n=" << n << " seed=" << seed;
      EXPECT_GT(smr.messages, abd.messages) << "n=" << n << " seed=" << seed;
    }
  }
}

}  // namespace
}  // namespace wfd
