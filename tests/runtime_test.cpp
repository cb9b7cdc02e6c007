// The runtime host: unmodified modules over real threads and channels.
//
// Covers the timer wheel, both transports, the implementable detectors
// under the simulator (eventual leadership on synchronous-enough
// schedules — the model-checking half lives in scenario "omega-impl"),
// the replicated KV service under concurrent load with a
// read-your-writes check, leader-kill failover, and the equal-decisions
// bridge: the same module binaries produce the same scripted-session
// results under the simulator and under the runtime host.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <vector>

#include "broadcast/atomic_broadcast.h"
#include "fd/heartbeat_omega.h"
#include "fd/phi_accrual.h"
#include "runtime/kv.h"
#include "runtime/tcp_transport.h"
#include "runtime/timer_wheel.h"
#include "smr/replicated_object.h"
#include "test_util.h"

namespace wfd {
namespace {

struct TestMsg final : sim::Payload {
  explicit TestMsg(std::int64_t v) : value(v) {}
  std::int64_t value;
  void encode_state(sim::StateEncoder& enc) const override {
    enc.field("v", value);
  }
};

// --- Timer wheel -----------------------------------------------------

TEST(TimerWheelTest, FiresAtDeadlinesAcrossLaps) {
  runtime::TimerWheel wheel(8);  // Small wheel: deadlines wrap laps.
  std::vector<int> fired;
  wheel.schedule(3, [&] { fired.push_back(3); });
  wheel.schedule(20, [&] { fired.push_back(20); });  // > one lap out.
  wheel.schedule(5, [&] { fired.push_back(5); });
  EXPECT_EQ(wheel.pending(), 3u);
  EXPECT_EQ(wheel.advance(2), 0u);
  EXPECT_EQ(wheel.advance(4), 1u);  // Only the t=3 timer.
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 3);
  EXPECT_EQ(wheel.advance(19), 1u);  // t=5; t=20 not yet despite hashing.
  EXPECT_EQ(fired.back(), 5);
  EXPECT_EQ(wheel.advance(25), 1u);
  EXPECT_EQ(fired.back(), 20);
  EXPECT_EQ(wheel.pending(), 0u);
}

TEST(TimerWheelTest, ZeroDelayFiresOnNextAdvance) {
  runtime::TimerWheel wheel;
  bool fired = false;
  wheel.schedule(0, [&] { fired = true; });
  EXPECT_EQ(wheel.advance(1), 1u);
  EXPECT_TRUE(fired);
}

TEST(TimerWheelTest, CallbackReschedulesWithoutSpinning) {
  runtime::TimerWheel wheel;
  int ticks = 0;
  std::function<void()> periodic = [&] {
    ++ticks;
    wheel.schedule(2, periodic);
  };
  wheel.schedule(2, periodic);
  for (Time t = 1; t <= 20; ++t) wheel.advance(t);
  EXPECT_EQ(ticks, 10);  // Every 2 units, no same-advance re-firing.
  EXPECT_EQ(wheel.pending(), 1u);
}

TEST(TimerWheelTest, LongJumpFiresEverythingOnce) {
  runtime::TimerWheel wheel(4);
  int fired = 0;
  for (Time d = 1; d <= 10; ++d) wheel.schedule(d, [&] { ++fired; });
  EXPECT_EQ(wheel.advance(1000), 10u);
  EXPECT_EQ(fired, 10);
  EXPECT_EQ(wheel.advance(2000), 0u);
}

// --- Transports ------------------------------------------------------

TEST(ChannelTransportTest, DeliversToAttachedSinksOnly) {
  runtime::ChannelTransport tr;
  std::vector<std::int64_t> got;
  tr.attach(1, [&](runtime::WireMessage m) {
    const auto* p = sim::payload_cast<TestMsg>(*m.payload);
    ASSERT_NE(p, nullptr);
    got.push_back(p->value);
  });
  tr.send({0, 1, sim::make_payload<TestMsg>(7)});
  tr.send({0, 2, sim::make_payload<TestMsg>(8)});  // Unattached.
  EXPECT_EQ(tr.sent(), 2u);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], 7);
  tr.detach(1);
  tr.send({0, 1, sim::make_payload<TestMsg>(9)});
  EXPECT_EQ(got.size(), 1u);  // Crashed receiver: dropped silently.
}

TEST(ChannelTransportTest, DropInjectionDropsEverythingAtProbOne) {
  runtime::LinkFaults faults;
  faults.drop_prob = 1.0;
  runtime::ChannelTransport tr(faults);
  int delivered = 0;
  tr.attach(1, [&](runtime::WireMessage) { ++delivered; });
  for (int i = 0; i < 50; ++i) {
    tr.send({0, 1, sim::make_payload<TestMsg>(i)});
  }
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(tr.dropped(), 50u);
}

// With retransmission configured, a "dropped" message arrives late
// instead of never — the reliable-transport-over-lossy-network contract
// the bench's lossy row leans on.
TEST(ChannelTransportTest, RetransmitTurnsLossIntoDelay) {
  runtime::LinkFaults faults;
  faults.drop_prob = 1.0;
  faults.retransmit = 5;
  runtime::ChannelTransport tr(faults);
  std::atomic<int> delivered{0};
  tr.attach(1, [&](runtime::WireMessage) { ++delivered; });
  for (int i = 0; i < 20; ++i) {
    tr.send({0, 1, sim::make_payload<TestMsg>(i)});
  }
  for (int spins = 0; spins < 200 && delivered.load() < 20; ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(delivered.load(), 20);
  EXPECT_EQ(tr.dropped(), 20u);  // Still counted as first-copy losses.
}

TEST(TcpTransportTest, RoundTripsFramesOverLoopback) {
  runtime::TcpTransport tr(2);
  std::atomic<int> sum{0};
  std::atomic<int> count{0};
  tr.attach(1, [&](runtime::WireMessage m) {
    const auto* p = sim::payload_cast<TestMsg>(*m.payload);
    ASSERT_NE(p, nullptr);
    sum += static_cast<int>(p->value);
    ++count;
  });
  for (int i = 1; i <= 10; ++i) {
    tr.send({0, 1, sim::make_payload<TestMsg>(i)});
  }
  // Real sockets: delivery is asynchronous; poll briefly.
  for (int spin = 0; spin < 200 && count.load() < 10; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(count.load(), 10);
  EXPECT_EQ(sum.load(), 55);
  tr.shutdown();
}

// --- Implementable detectors under the simulator ---------------------

TEST(HeartbeatOmegaTest, EventualLeadershipUnderPartialSynchrony) {
  const int n = 3;
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 20000;
  cfg.seed = 11;
  sim::Simulator s(cfg, test::pattern(n), test::omega_sigma(),
                   std::make_unique<sim::PartialSynchronyScheduler>(0));
  std::vector<fd::HeartbeatOmegaModule*> dets;
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    dets.push_back(&host.add_module<fd::HeartbeatOmegaModule>("omega"));
  }
  s.set_halt_on_done(false);
  s.run();
  for (auto* d : dets) {
    EXPECT_EQ(d->current_leader(), 0);
    EXPECT_TRUE(d->suspected().empty());
  }
}

TEST(HeartbeatOmegaTest, LeaderCrashMovesLeadershipToNextCorrect) {
  const int n = 3;
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 30000;
  cfg.seed = 13;
  sim::Simulator s(cfg, test::pattern(n, {{0, 2000}}), test::omega_sigma(),
                   std::make_unique<sim::PartialSynchronyScheduler>(0));
  std::vector<fd::HeartbeatOmegaModule*> dets;
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    dets.push_back(&host.add_module<fd::HeartbeatOmegaModule>("omega"));
  }
  s.set_halt_on_done(false);
  s.run();
  for (int i = 1; i < n; ++i) {
    EXPECT_EQ(dets[static_cast<std::size_t>(i)]->current_leader(), 1)
        << "process " << i;
    EXPECT_TRUE(dets[static_cast<std::size_t>(i)]->suspected().contains(0));
  }
  // The emitted-leader event stream records the handover for properties.
  const auto events = s.trace().events_of_kind("omega-leader");
  EXPECT_FALSE(events.empty());
}

TEST(PhiAccrualTest, SuspectsCrashedPeerAndKeepsMajorityQuorum) {
  const int n = 3;
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 30000;
  cfg.seed = 17;
  sim::Simulator s(cfg, test::pattern(n, {{1, 2000}}), test::omega_sigma(),
                   std::make_unique<sim::PartialSynchronyScheduler>(0));
  std::vector<fd::PhiAccrualModule*> dets;
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    dets.push_back(&host.add_module<fd::PhiAccrualModule>("phi"));
  }
  s.set_halt_on_done(false);
  s.run();
  for (int i : {0, 2}) {
    auto* d = dets[static_cast<std::size_t>(i)];
    EXPECT_TRUE(d->suspected().contains(1)) << "process " << i;
    EXPECT_GT(d->phi(1), 3.0);
    // The quorum view dropped to the surviving majority and still
    // contains the observer itself.
    EXPECT_EQ(d->quorum_view().size(), 2);
    EXPECT_TRUE(d->quorum_view().contains(static_cast<ProcessId>(i)));
    EXPECT_FALSE(d->quorum_view().contains(1));
    // Long-confirmed silence latched the FS-style red signal.
    EXPECT_TRUE(d->red());
  }
}

TEST(PhiAccrualTest, CrashFreeRunStaysUnsuspicious) {
  const int n = 3;
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 20000;
  cfg.seed = 19;
  sim::Simulator s(cfg, test::pattern(n), test::omega_sigma(),
                   std::make_unique<sim::PartialSynchronyScheduler>(0));
  std::vector<fd::PhiAccrualModule*> dets;
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    dets.push_back(&host.add_module<fd::PhiAccrualModule>("phi"));
  }
  s.set_halt_on_done(false);
  s.run();
  for (auto* d : dets) {
    EXPECT_TRUE(d->suspected().empty());
    EXPECT_EQ(d->quorum_view().size(), n);
    EXPECT_FALSE(d->red());
  }
}

// --- The replicated KV service on the runtime host -------------------

TEST(RuntimeKvTest, SmokeReadYourWrites) {
  runtime::KvService::Options opt;
  opt.n = 3;
  opt.seed = 42;
  runtime::KvService svc(opt);
  svc.start();
  runtime::KvClient client(svc, 0);
  for (std::uint32_t i = 1; i <= 10; ++i) {
    auto put = client.put(/*key=*/i % 3, /*value=*/100 + i);
    ASSERT_TRUE(put.has_value()) << "put " << i << " timed out";
    EXPECT_EQ(*put, 100 + static_cast<std::int64_t>(i));
    auto got = client.get(i % 3);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, 100 + static_cast<std::int64_t>(i));
  }
  svc.stop();
}

TEST(RuntimeKvTest, ConcurrentClientsStress) {
  runtime::KvService::Options opt;
  opt.n = 3;
  opt.seed = 43;
  runtime::KvService svc(opt);
  svc.start();
  constexpr int kClients = 3;
  constexpr std::uint32_t kOps = 12;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&svc, &failures, c] {
      // Each client owns its keys, so read-your-writes must hold even
      // with the other clients' traffic interleaved in the total order.
      runtime::KvClient client(svc, static_cast<ProcessId>(c % 3));
      for (std::uint32_t i = 0; i < kOps; ++i) {
        const std::uint32_t key = static_cast<std::uint32_t>(c) * 100 + i % 4;
        const std::uint32_t value =
            static_cast<std::uint32_t>(c) * 100000 + i;
        auto put = client.put(key, value);
        if (!put.has_value() || *put != value) {
          ++failures;
          continue;
        }
        auto got = client.get(key);
        if (!got.has_value() || *got != value) ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  svc.stop();
  // After every thread quiesced and the cluster stopped, the replica
  // logs must be prefix-consistent (the abcast agreement invariant).
  const auto& log0 = svc.replica(0)
                         .module<broadcast::AtomicBroadcastModule>("kv/ab")
                         .delivered_log();
  for (ProcessId p = 1; p < 3; ++p) {
    const auto& lp = svc.replica(p)
                         .module<broadcast::AtomicBroadcastModule>("kv/ab")
                         .delivered_log();
    const std::size_t common = std::min(log0.size(), lp.size());
    for (std::size_t i = 0; i < common; ++i) {
      EXPECT_EQ(log0[i], lp[i]) << "log divergence at " << i;
    }
  }
}

TEST(RuntimeKvTest, SurvivesLeaderKill) {
  runtime::KvService::Options opt;
  opt.n = 3;
  opt.seed = 44;
  runtime::KvService svc(opt);
  svc.start();
  runtime::KvClient::Options copt;
  copt.attempt_timeout = 1000;
  runtime::KvClient client(svc, 1, copt);
  ASSERT_TRUE(client.put(1, 11).has_value());
  // Kill the leader (detector stabilises on the smallest id, 0).
  const ProcessId leader = svc.leader_view(1) == kNoProcess
                               ? 0
                               : svc.leader_view(1);
  svc.kill(leader);
  // The service must regain liveness within the detector's timeout +
  // lease bound; the client's retry budget comfortably covers it.
  auto after = client.put(2, 22);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(*after, 22);
  auto read = client.get(1);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(*read, 11);  // Pre-kill write survived the failover.
  svc.stop();
}

TEST(RuntimeKvTest, ServesOverLoopbackTcp) {
  runtime::KvService::Options opt;
  opt.n = 3;
  opt.seed = 45;
  opt.tcp = true;
  runtime::KvService svc(opt);
  svc.start();
  runtime::KvClient client(svc, 0);
  for (std::uint32_t i = 0; i < 5; ++i) {
    auto put = client.put(7, 1000 + i);
    ASSERT_TRUE(put.has_value());
    auto got = client.get(7);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, 1000 + static_cast<std::int64_t>(i));
  }
  svc.stop();
}

// 5% of messages on every link dropped and retransmitted 20 ms later,
// 1 ms extra delay: loss the stack tolerates because the transport turns
// it into delay. The client's wider retry budget rides out retransmit
// storms; every operation must still complete and read its own write.
TEST(RuntimeKvTest, ServesOverLossyLinksWithRetransmit) {
  runtime::KvService::Options opt;
  opt.n = 3;
  opt.seed = 46;
  opt.faults.drop_prob = 0.05;
  opt.faults.delay = 1;
  opt.faults.retransmit = 20;
  runtime::KvService svc(opt);
  svc.start();
  runtime::KvClient::Options copt;
  copt.attempt_timeout = 3000;
  copt.max_attempts = 10;
  runtime::KvClient client(svc, 0, copt);
  for (std::uint32_t i = 0; i < 16; ++i) {
    const std::uint32_t key = i % 4;
    auto put = client.put(key, 500 + i);
    ASSERT_TRUE(put.has_value()) << "put " << i << " wedged";
    EXPECT_EQ(*put, 500 + static_cast<std::int64_t>(i));
    auto got = client.get(key);
    ASSERT_TRUE(got.has_value()) << "get " << i << " wedged";
    EXPECT_EQ(*got, 500 + static_cast<std::int64_t>(i));
  }
  svc.stop();
  const auto& links =
      dynamic_cast<runtime::ChannelTransport&>(svc.cluster().transport());
  EXPECT_GT(links.dropped(), 0u) << "no message was dropped";
}

// --- Equal decisions: simulator vs runtime on one scripted session ---

std::vector<std::int64_t> scripted_session() {
  // put k1=5, get k1, put k2=9, put k1=6, get k1, get k2, get k3(miss).
  return {runtime::kv_put_cmd(1, 5), runtime::kv_get_cmd(1),
          runtime::kv_put_cmd(2, 9), runtime::kv_put_cmd(1, 6),
          runtime::kv_get_cmd(1),    runtime::kv_get_cmd(2),
          runtime::kv_get_cmd(3)};
}

TEST(RuntimeSimEquivalenceTest, EqualDecisionsOnScriptedSession) {
  const std::vector<std::int64_t> cmds = scripted_session();

  // Simulator side: the identical module stack under ModularProcess,
  // with the oracle (Omega, Sigma) detector and a random schedule. The
  // session is sequential (command k+1 submitted in k's callback), so
  // linearizability pins the result sequence.
  std::vector<std::int64_t> sim_results;
  {
    const int n = 3;
    sim::SimConfig cfg;
    cfg.n = n;
    cfg.max_steps = 500000;
    cfg.seed = 7;
    sim::Simulator s(cfg, test::pattern(n), test::omega_sigma(),
                     test::random_sched());
    smr::ReplicatedObjectModule* submitter = nullptr;
    for (int i = 0; i < n; ++i) {
      auto& host = s.add_process<sim::ModularProcess>();
      auto& obj = host.add_module<smr::ReplicatedObjectModule>(
          "kv", runtime::make_kv_apply());
      if (i == 0) submitter = &obj;
    }
    std::function<void(std::size_t)> submit_next =
        [&](std::size_t k) {
          if (k >= cmds.size()) return;
          submitter->submit(cmds[k], [&, k](std::int64_t r) {
            sim_results.push_back(r);
            submit_next(k + 1);
          });
        };
    submit_next(0);
    const auto res = s.run();
    EXPECT_TRUE(res.all_done);
  }

  // Runtime side: the same binaries under threads, channels and the
  // implementable detectors, driven by a closed-loop client.
  std::vector<std::int64_t> runtime_results;
  {
    runtime::KvService::Options opt;
    opt.n = 3;
    opt.seed = 46;
    runtime::KvService svc(opt);
    svc.start();
    runtime::KvClient client(svc, 0);
    for (const std::int64_t cmd : cmds) {
      auto r = (cmd & runtime::kKvOpPut) != 0
                   ? client.put(
                         static_cast<std::uint32_t>((cmd >> 32) & 0xffffff),
                         static_cast<std::uint32_t>(cmd & 0xffffffff))
                   : client.get(
                         static_cast<std::uint32_t>((cmd >> 32) & 0xffffff));
      ASSERT_TRUE(r.has_value());
      runtime_results.push_back(*r);
    }
    svc.stop();
  }

  ASSERT_EQ(sim_results.size(), cmds.size());
  EXPECT_EQ(sim_results, runtime_results);
}

}  // namespace
}  // namespace wfd
