// Theorem 1, sufficiency: the Sigma-based ABD register is linearizable
// and wait-free for correct processes in ANY environment — including
// minority-correct ones where classical majority-ABD blocks.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "reg/abd_register.h"
#include "reg/linearizability.h"
#include "reg/register_client.h"
#include "test_util.h"

namespace wfd {
namespace {

using reg::AbdRegisterModule;
using reg::History;
using reg::QuorumRule;
using reg::RegisterWorkloadModule;

// ------------------------------------------------ linearizability checker

History make_history(
    std::initializer_list<std::tuple<ProcessId, bool, std::int64_t, Time, Time>>
        ops) {
  History h;
  for (const auto& [client, is_write, value, inv, rsp] : ops) {
    const auto idx = h.invoke(client, is_write, is_write ? value : 0, inv);
    if (rsp != kNever) h.respond(idx, rsp, value);
  }
  return h;
}

TEST(LinearizabilityTest, EmptyHistoryIsLinearizable) {
  EXPECT_TRUE(reg::is_linearizable(History{}));
}

TEST(LinearizabilityTest, SimpleSequentialHistory) {
  const auto h = make_history({
      {0, true, 7, 0, 10},   // write 7
      {1, false, 7, 20, 30}, // read 7
  });
  EXPECT_TRUE(reg::is_linearizable(h));
}

TEST(LinearizabilityTest, ReadOfInitialValue) {
  const auto h = make_history({{0, false, 0, 0, 5}});
  EXPECT_TRUE(reg::is_linearizable(h, 0));
  EXPECT_FALSE(reg::is_linearizable(h, 42));
}

TEST(LinearizabilityTest, StaleReadAfterWriteIsRejected) {
  const auto h = make_history({
      {0, true, 7, 0, 10},
      {1, false, 0, 20, 30},  // reads initial value after the write: stale.
  });
  EXPECT_FALSE(reg::is_linearizable(h));
}

TEST(LinearizabilityTest, ConcurrentReadMayReturnEitherValue) {
  const auto old_ok = make_history({
      {0, true, 7, 0, 100},
      {1, false, 0, 50, 60},  // concurrent with the write: old value ok.
  });
  EXPECT_TRUE(reg::is_linearizable(old_ok));
  const auto new_ok = make_history({
      {0, true, 7, 0, 100},
      {1, false, 7, 50, 60},  // or the new value.
  });
  EXPECT_TRUE(reg::is_linearizable(new_ok));
}

TEST(LinearizabilityTest, NewOldInversionIsRejected) {
  // Two sequential reads concurrent with one write: the second read may
  // not travel back in time.
  const auto h = make_history({
      {0, true, 7, 0, 100},
      {1, false, 7, 10, 20},  // saw the new value...
      {1, false, 0, 30, 40},  // ...then the old one: inversion.
  });
  EXPECT_FALSE(reg::is_linearizable(h));
}

TEST(LinearizabilityTest, IncompleteWriteMayOrMayNotTakeEffect) {
  const auto took_effect = make_history({
      {0, true, 7, 0, kNever},  // writer crashed mid-write
      {1, false, 7, 50, 60},
  });
  EXPECT_TRUE(reg::is_linearizable(took_effect));
  const auto did_not = make_history({
      {0, true, 7, 0, kNever},
      {1, false, 0, 50, 60},
  });
  EXPECT_TRUE(reg::is_linearizable(did_not));
}

TEST(LinearizabilityTest, IncompleteWriteCannotFlipFlop) {
  const auto h = make_history({
      {0, true, 7, 0, kNever},
      {1, false, 7, 50, 60},   // took effect...
      {1, false, 0, 70, 80},   // ...cannot be undone afterwards.
  });
  EXPECT_FALSE(reg::is_linearizable(h));
}

TEST(LinearizabilityTest, InterleavedWritersAgree) {
  const auto h = make_history({
      {0, true, 1, 0, 10},
      {1, true, 2, 5, 15},   // concurrent writes
      {2, false, 1, 20, 30},
      {3, false, 1, 40, 50},
  });
  // Valid: order w2 before w1.
  EXPECT_TRUE(reg::is_linearizable(h));
  const auto bad = make_history({
      {0, true, 1, 0, 10},
      {1, true, 2, 5, 15},
      {2, false, 1, 20, 30},
      {3, false, 2, 40, 50},
      {2, false, 1, 60, 70},  // 1 -> 2 -> 1 again: impossible.
  });
  EXPECT_FALSE(reg::is_linearizable(bad));
}

// ----------------------------------------------------------- ABD over Sigma

struct AbdParam {
  std::uint64_t seed;
  int n;
  int crashes;
  QuorumRule rule;
};

class AbdSweep : public ::testing::TestWithParam<AbdParam> {
 protected:
  /// Run a multi-client workload; returns (history, all_done).
  std::pair<History, bool> run_workload(const sim::FailurePattern& f,
                                        QuorumRule rule, Time max_steps) {
    const auto& prm = GetParam();
    sim::SimConfig cfg;
    cfg.n = prm.n;
    cfg.max_steps = max_steps;
    cfg.seed = prm.seed;
    auto oracle = (rule == QuorumRule::kSigma)
                      ? test::sigma_oracle()
                      : std::unique_ptr<fd::Oracle>(
                            std::make_unique<fd::NullOracle>());
    sim::Simulator s(cfg, f, std::move(oracle), test::random_sched());
    History history;
    AbdRegisterModule<std::int64_t>::Options ropt;
    ropt.rule = rule;
    RegisterWorkloadModule::Options wopt;
    wopt.num_ops = 4;
    for (int i = 0; i < prm.n; ++i) {
      auto& host = s.add_process<sim::ModularProcess>();
      auto& r = host.add_module<AbdRegisterModule<std::int64_t>>("reg", ropt);
      host.add_module<RegisterWorkloadModule>("load", r.index(), &history,
                                              wopt);
    }
    const auto res = s.run();
    return {std::move(history), res.all_done};
  }
};

TEST_P(AbdSweep, LinearizableAndLive) {
  const auto& prm = GetParam();
  Rng rng(prm.seed * 31 + 7);
  sim::MaxCrashesEnvironment env(prm.n, prm.crashes);
  const auto f = env.sample(rng, 4000);
  const auto [history, all_done] = run_workload(f, prm.rule, 120000);
  EXPECT_TRUE(all_done) << "correct clients did not finish their workload";
  const auto r = reg::check_linearizable(history);
  EXPECT_TRUE(r.ok) << r.violation;
}

INSTANTIATE_TEST_SUITE_P(
    Sigma, AbdSweep,
    ::testing::Values(
        // Sigma works in ANY environment, including minority-correct.
        AbdParam{1, 4, 3, QuorumRule::kSigma},
        AbdParam{2, 4, 3, QuorumRule::kSigma},
        AbdParam{3, 5, 4, QuorumRule::kSigma},
        AbdParam{4, 5, 4, QuorumRule::kSigma},
        AbdParam{5, 3, 2, QuorumRule::kSigma},
        AbdParam{6, 6, 5, QuorumRule::kSigma},
        AbdParam{7, 2, 1, QuorumRule::kSigma},
        // Majority ABD in majority-correct environments.
        AbdParam{8, 5, 2, QuorumRule::kMajority},
        AbdParam{9, 4, 1, QuorumRule::kMajority},
        AbdParam{10, 3, 1, QuorumRule::kMajority}));

// Negative control for the "ex nihilo" boundary: with half the processes
// crashed, majority-ABD blocks forever (liveness lost, safety intact),
// while Sigma-ABD above kept going in the same pattern class.
TEST(AbdNegative, MajorityAbdBlocksWithoutMajority) {
  const int n = 4;
  sim::FailurePattern f(n);
  f.crash_at(0, 0);
  f.crash_at(1, 0);  // Two of four crash at the start.

  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 30000;
  cfg.seed = 3;
  sim::Simulator s(cfg, f, std::make_unique<fd::NullOracle>(),
                   test::random_sched());
  History history;
  AbdRegisterModule<std::int64_t>::Options ropt;
  ropt.rule = QuorumRule::kMajority;
  RegisterWorkloadModule::Options wopt;
  wopt.num_ops = 1;
  std::vector<RegisterWorkloadModule*> loads;
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    auto& r = host.add_module<AbdRegisterModule<std::int64_t>>("reg", ropt);
    loads.push_back(
        &host.add_module<RegisterWorkloadModule>("load", r.index(), &history,
                                                 wopt));
  }
  const auto res = s.run();
  EXPECT_FALSE(res.all_done);
  EXPECT_EQ(history.completed(), 0u);  // Nobody's op ever completed.
}

// Single-writer regression: a writer and a reader ping-ponging through
// many rounds always observe monotone values.
TEST(AbdRegression, MonotoneReadsAcrossRounds) {
  const int n = 3;
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 200000;
  cfg.seed = 5;
  sim::Simulator s(cfg, test::pattern(n), test::sigma_oracle(),
                   test::random_sched());

  struct Driver : sim::Module, sim::Listener<std::int64_t> {
    Driver(std::size_t t, bool w) : target(t), writer(w) {}
    std::size_t target;  ///< The register's position.
    bool writer;
    int rounds_left = 12;
    std::int64_t next = 1;
    std::int64_t last_read = 0;
    bool ok = true;
    void on_message(ProcessId, const sim::Payload&) override {}
    void on_tick() override {
      auto& r = host().module_at<AbdRegisterModule<std::int64_t>>(target);
      if (rounds_left == 0 || r.busy()) return;
      if (writer) {
        r.write(next, hook());
      } else {
        r.read(hook());
      }
    }
    void on_result(std::uint64_t, const std::int64_t& v) override {
      if (writer) {
        ++next;
      } else {
        ok = ok && (v >= last_read);  // Monotone: no new-old inversion.
        last_read = v;
      }
      --rounds_left;
    }
    [[nodiscard]] bool done() const override { return rounds_left == 0; }
  };

  std::vector<Driver*> drivers;
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    auto& r = host.add_module<AbdRegisterModule<std::int64_t>>("reg");
    drivers.push_back(&host.add_module<Driver>("driver", r.index(), i == 0));
  }
  const auto res = s.run();
  EXPECT_TRUE(res.all_done);
  for (auto* d : drivers) EXPECT_TRUE(d->ok);
}

}  // namespace
}  // namespace wfd
