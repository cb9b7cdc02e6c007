// Message-passing detector *implementations*: the join-quorum Sigma in
// majority-correct environments (the paper's "ex nihilo" remark),
// heartbeat Omega under partial synchrony, and heartbeat FS under
// synchrony — each checked against the formal definition via the
// recorded output history, plus negative controls at the impossibility
// boundaries.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "fd/fs_heartbeat.h"
#include "fd/heartbeat_omega.h"
#include "fd/history_checker.h"
#include "fd/sigma_majority.h"
#include "sim/fd_sampler.h"
#include "test_util.h"

namespace wfd {
namespace {

class FdImplSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FdImplSweep, SigmaMajorityYieldsLegalSigmaHistory) {
  // n = 5, up to 2 crashes (majority correct): the join-quorum protocol
  // must emulate Sigma with no oracle at all.
  const int n = 5;
  Rng rng(GetParam());
  sim::MajorityCorrectEnvironment env(n);
  const auto f = env.sample(rng, 4000);

  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 40000;
  cfg.seed = GetParam();
  sim::Simulator s(cfg, f, std::make_unique<fd::NullOracle>(),
                   test::random_sched());
  std::vector<sim::FdSampleRecord> samples;
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    auto& sm = host.add_module<fd::SigmaMajorityModule>("sigma");
    host.add_module<sim::FdSamplerModule>("sampler", &sm, &samples,
                                          /*period=*/16);
  }
  s.set_halt_on_done(false);
  s.run();
  const auto r = fd::check_sigma_history(samples, f);
  EXPECT_TRUE(r.ok) << r.violation;
}

TEST_P(FdImplSweep, OmegaHeartbeatConvergesUnderPartialSynchrony) {
  const int n = 4;
  sim::FailurePattern f(n);
  // One crash before GST, one after.
  f.crash_at(0, 500);
  f.crash_at(3, 12000);

  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 120000;
  cfg.seed = GetParam();
  sim::Simulator s(cfg, f, std::make_unique<fd::NullOracle>(),
                   std::make_unique<sim::PartialSynchronyScheduler>(8000));
  std::vector<sim::FdSampleRecord> samples;
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    auto& om = host.add_module<fd::HeartbeatOmegaModule>("omega");
    host.add_module<sim::FdSamplerModule>("sampler", &om, &samples,
                                          /*period=*/32);
  }
  s.set_halt_on_done(false);
  s.run();
  const auto r = fd::check_omega_history(samples, f);
  EXPECT_TRUE(r.ok) << r.violation;
}

TEST_P(FdImplSweep, FsHeartbeatIsAccurateAndCompleteUnderSynchrony) {
  const int n = 3;
  sim::FailurePattern f(n);
  f.crash_at(1, 3000);

  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 60000;
  cfg.seed = GetParam();
  // Round-robin from time 0 = synchronous run: the safe timeout holds.
  sim::Simulator s(cfg, f, std::make_unique<fd::NullOracle>(),
                   test::round_robin());
  std::vector<sim::FdSampleRecord> samples;
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    auto& fs = host.add_module<fd::FsHeartbeatModule>("fs");
    host.add_module<sim::FdSamplerModule>("sampler", &fs, &samples,
                                          /*period=*/32);
  }
  s.set_halt_on_done(false);
  s.run();
  const auto r = fd::check_fs_history(samples, f);
  EXPECT_TRUE(r.ok) << r.violation;
}

TEST_P(FdImplSweep, FsHeartbeatStaysGreenWhenCrashFree) {
  const int n = 3;
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 30000;
  cfg.seed = GetParam();
  sim::Simulator s(cfg, test::pattern(n), std::make_unique<fd::NullOracle>(),
                   test::round_robin());
  std::vector<fd::FsHeartbeatModule*> fss;
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    fss.push_back(&host.add_module<fd::FsHeartbeatModule>("fs"));
  }
  s.set_halt_on_done(false);
  s.run();
  for (auto* fs : fss) EXPECT_FALSE(fs->red());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FdImplSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// ----------------------------------------------------- negative controls

// FS accuracy is impossible in asynchronous runs: with an aggressive
// timeout and an adversarial (but legal, merely slow) schedule, the
// heartbeat FS turns red although nobody crashed — the exact violation
// that makes FS non-implementable without synchrony.
TEST(FdImplNegative, FsHeartbeatViolatesAccuracyUnderAsynchrony) {
  const int n = 3;
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 60000;
  cfg.seed = 7;
  // Withhold all of process 2's outgoing messages until t = 30000.
  auto filter = [](const sim::Envelope& e, Time now) {
    return e.from == 2 && now < 30000;
  };
  sim::Simulator s(
      cfg, test::pattern(n), std::make_unique<fd::NullOracle>(),
      std::make_unique<sim::FilteredScheduler>(test::round_robin(), filter));
  fd::FsHeartbeatModule::Options aggressive;
  aggressive.timeout = 200;  // Far below the safe bound.
  std::vector<fd::FsHeartbeatModule*> fss;
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    fss.push_back(&host.add_module<fd::FsHeartbeatModule>("fs", aggressive));
  }
  s.set_halt_on_done(false);
  s.run();
  // Nobody crashed, yet the signal went red: accuracy violated.
  EXPECT_TRUE(fss[0]->red() || fss[1]->red());
}

// The join-quorum Sigma emulation is only correct with a correct
// majority: if a majority crashes, fresh quorums can never again be
// formed from live responders, so completeness fails (the module keeps
// exposing its last — now stale — quorum containing crashed processes).
TEST(FdImplNegative, SigmaMajorityLosesCompletenessWithoutMajority) {
  const int n = 4;
  sim::FailurePattern f(n);
  f.crash_at(0, 2000);
  f.crash_at(1, 2000);
  f.crash_at(2, 2000);  // Only process 3 survives.

  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 40000;
  cfg.seed = 11;
  sim::Simulator s(cfg, f, std::make_unique<fd::NullOracle>(),
                   test::random_sched());
  std::vector<fd::SigmaMajorityModule*> sms;
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    sms.push_back(&host.add_module<fd::SigmaMajorityModule>("sigma"));
  }
  s.set_halt_on_done(false);
  s.run();
  // The survivor's current quorum still contains a crashed process.
  EXPECT_TRUE(sms[3]->current_quorum().intersects(f.faulty()));
}

}  // namespace
}  // namespace wfd
