// The exotic environments the paper's introduction names, plus the
// <>P -> Omega transformation and consensus across schedulers.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "consensus/omega_sigma_consensus.h"
#include "fd/classic_oracles.h"
#include "fd/history_checker.h"
#include "fd/omega_from_suspicions.h"
#include "fd/sigma_majority.h"
#include "sim/environment.h"
#include "sim/fd_sampler.h"
#include "test_util.h"

namespace wfd {
namespace {

TEST(InitialCrashesEnvironmentTest, SamplesOnlyTimeZeroCrashes) {
  sim::InitialCrashesEnvironment env(5, 3);
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const auto f = env.sample(rng, 1000);
    EXPECT_TRUE(env.allows(f));
    for (ProcessId p : f.faulty().members()) {
      EXPECT_EQ(f.crash_time(p), 0u);
    }
    EXPECT_LE(f.faulty().size(), 3);
  }
  sim::FailurePattern late(5);
  late.crash_at(0, 10);
  EXPECT_FALSE(env.allows(late));
}

TEST(OrderedCrashEnvironmentTest, FirstNeverFailsBeforeSecond) {
  sim::OrderedCrashEnvironment env(4, /*first=*/0, /*second=*/1,
                                   /*max_crashes=*/3);
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const auto f = env.sample(rng, 1000);
    ASSERT_TRUE(env.allows(f)) << f.to_string();
    if (f.crash_time(0) != kNever) {
      EXPECT_LE(f.crash_time(1), f.crash_time(0)) << f.to_string();
    }
  }
  sim::FailurePattern bad(4);
  bad.crash_at(0, 5);  // 0 fails while 1 is still alive.
  EXPECT_FALSE(env.allows(bad));
  sim::FailurePattern good(4);
  good.crash_at(1, 3);
  good.crash_at(0, 5);
  EXPECT_TRUE(env.allows(good));
}

TEST(OrderedCrashEnvironmentTest, ConsensusWorksInIt) {
  // (Omega, Sigma) consensus is environment-agnostic; spot-check it in
  // the ordered-crash environment too.
  sim::OrderedCrashEnvironment env(4, 0, 1, 3);
  Rng rng(11);
  const auto f = env.sample(rng, 2000);
  sim::SimConfig cfg;
  cfg.n = 4;
  cfg.max_steps = 120000;
  cfg.seed = 11;
  sim::Simulator s(cfg, f, test::omega_sigma(), test::random_sched());
  std::vector<const consensus::ConsensusApi<int>*> mods;
  for (int i = 0; i < 4; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    auto& c = host.add_module<consensus::OmegaSigmaConsensusModule<int>>(
        "cons");
    c.propose(i % 2);
    mods.push_back(&c);
  }
  EXPECT_TRUE(s.run().all_done);
  const auto decisions = test::decisions(mods);
  for (ProcessId p : f.correct().members()) {
    EXPECT_TRUE(decisions[static_cast<std::size_t>(p)].has_value());
  }
}

// ---------------------------------------------------- <>P -> Omega

TEST(OmegaFromSuspicionsTest, EmulatesOmegaFromEventuallyPerfect) {
  const int n = 4;
  sim::FailurePattern f(n);
  f.crash_at(0, 2000);  // The initial smallest id dies.

  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 60000;
  cfg.seed = 7;
  fd::EventuallyPerfectOracle::Options opt;
  opt.max_stabilization = 800;
  sim::Simulator s(cfg, f,
                   std::make_unique<fd::EventuallyPerfectOracle>(opt),
                   test::random_sched());
  std::vector<sim::FdSampleRecord> samples;
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    auto& om = host.add_module<fd::OmegaFromSuspicionsModule>("omega");
    host.add_module<sim::FdSamplerModule>("sampler", &om, &samples, 16);
  }
  s.set_halt_on_done(false);
  s.run();
  const auto r = fd::check_omega_history(samples, f);
  EXPECT_TRUE(r.ok) << r.violation;
}

TEST(OmegaFromSuspicionsTest, ConsensusOverTransformedDetectors) {
  // The classical recipe in full: <>P -> Omega (transformation) plus
  // join-quorum Sigma (majority), driving the paper's consensus — two
  // implemented/transformed detectors, no (Omega, Sigma) oracle.
  const int n = 5;
  sim::FailurePattern f(n);
  f.crash_at(4, 3000);

  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 300000;
  cfg.seed = 13;
  fd::EventuallyPerfectOracle::Options opt;
  opt.max_stabilization = 800;
  sim::Simulator s(cfg, f,
                   std::make_unique<fd::EventuallyPerfectOracle>(opt),
                   test::random_sched());
  std::vector<const consensus::ConsensusApi<int>*> mods;
  std::vector<std::unique_ptr<sim::MergedFdSource>> sources;
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    auto& om = host.add_module<fd::OmegaFromSuspicionsModule>("omega");
    auto& sm = host.add_module<fd::SigmaMajorityModule>("sigma");
    sources.push_back(std::make_unique<sim::MergedFdSource>(&om, &sm));
    auto& c = host.add_module<consensus::OmegaSigmaConsensusModule<int>>(
        "cons");
    c.set_fd_source(sources.back().get());
    c.propose(i % 2);
    mods.push_back(&c);
  }
  EXPECT_TRUE(s.run().all_done);
  const auto decisions = test::decisions(mods);
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
}

// --------------------------------------- consensus x scheduler matrix

struct SchedParam {
  std::uint64_t seed;
  int which;  ///< 0 random, 1 round-robin, 2 partial synchrony.
};

class SchedulerMatrix : public ::testing::TestWithParam<SchedParam> {};

TEST_P(SchedulerMatrix, ConsensusDecidesUnderEveryScheduler) {
  const auto& prm = GetParam();
  const int n = 4;
  sim::FailurePattern f(n);
  f.crash_at(1, 700);

  std::unique_ptr<sim::Scheduler> sched;
  switch (prm.which) {
    case 0:
      sched = test::random_sched();
      break;
    case 1:
      sched = test::round_robin();
      break;
    default:
      sched = std::make_unique<sim::PartialSynchronyScheduler>(2000);
      break;
  }
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 150000;
  cfg.seed = prm.seed;
  sim::Simulator s(cfg, f, test::omega_sigma(), std::move(sched));
  std::vector<const consensus::ConsensusApi<int>*> mods;
  std::vector<int> proposals = {3, 1, 4, 1};
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    auto& c = host.add_module<consensus::OmegaSigmaConsensusModule<int>>(
        "cons");
    c.propose(proposals[static_cast<std::size_t>(i)]);
    mods.push_back(&c);
  }
  EXPECT_TRUE(s.run().all_done);
  const auto decisions = test::decisions(mods);
  std::optional<int> agreed;
  for (int i = 0; i < n; ++i) {
    if (!decisions[static_cast<std::size_t>(i)].has_value()) continue;
    if (agreed.has_value()) {
      EXPECT_EQ(*decisions[static_cast<std::size_t>(i)], *agreed);
    } else {
      agreed = decisions[static_cast<std::size_t>(i)];
    }
  }
  ASSERT_TRUE(agreed.has_value());
  bool proposed = false;
  for (int v : proposals) proposed = proposed || (v == *agreed);
  EXPECT_TRUE(proposed);
}

std::string sched_param_name(const ::testing::TestParamInfo<SchedParam>& info) {
  static const char* const kNames[] = {"random", "roundrobin", "psync"};
  return std::string(kNames[info.param.which]) + "seed" +
         std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SchedulerMatrix,
    ::testing::Values(SchedParam{1, 0}, SchedParam{2, 0}, SchedParam{1, 1},
                      SchedParam{2, 1}, SchedParam{1, 2}, SchedParam{2, 2}),
    sched_param_name);

}  // namespace
}  // namespace wfd
