#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fd/oracle.h"
#include "sim/module.h"
#include "sim/network.h"
#include "sim/scheduler.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace wfd {
namespace {

using sim::Envelope;
using sim::Network;
using sim::Payload;

struct IntMsg final : Payload {
  explicit IntMsg(int x) : v(x) {}
  int v;
};

struct EncodedMsg final : Payload {
  explicit EncodedMsg(int x) : v(x) {}
  void encode_state(sim::StateEncoder& enc) const override {
    enc.field("v", v);
    enc.push("owner");
    enc.pid_field("p", 0);
    enc.pop();
  }
  int v;
};

std::uint64_t send(Network& net, ProcessId from, ProcessId to) {
  Envelope e;
  e.from = from;
  e.to = to;
  e.payload = sim::make_payload<IntMsg>(from);
  return net.send(std::move(e));
}

std::vector<std::uint64_t> pending_ids(const Network& net, ProcessId p) {
  std::vector<std::uint64_t> ids;
  for (const Network::Pending& m : net.pending(p)) ids.push_back(m.id);
  return ids;
}

TEST(NetworkTest, SendAssignsIncreasingIds) {
  Network net;
  Envelope e;
  e.from = 0;
  e.to = 1;
  const auto a = net.send(e);
  const auto b = net.send(e);
  EXPECT_LT(a, b);
  EXPECT_EQ(net.size(), 2u);
  EXPECT_EQ(net.total_sent(), 2u);
}

TEST(NetworkTest, PendingForAndOldest) {
  Network net;
  Envelope to1;
  to1.to = 1;
  Envelope to2;
  to2.to = 2;
  const auto a = net.send(to1);
  net.send(to2);
  const auto c = net.send(to1);
  EXPECT_EQ(pending_ids(net, 1), (std::vector<std::uint64_t>{a, c}));
  EXPECT_EQ(net.oldest_for(1), a);
  EXPECT_TRUE(net.has_pending(2));
  EXPECT_FALSE(net.has_pending(3));
  EXPECT_EQ(net.oldest_for(3), 0u);
}

TEST(NetworkTest, TakeRemoves) {
  Network net;
  Envelope e;
  e.to = 1;
  const auto id = net.send(e);
  EXPECT_TRUE(net.contains(id));
  const Envelope out = net.take(id);
  EXPECT_EQ(out.id, id);
  EXPECT_FALSE(net.contains(id));
  EXPECT_EQ(net.size(), 0u);
}

TEST(NetworkTest, TakeFromTheMiddleKeepsSendOrder) {
  Network net;
  std::vector<std::uint64_t> ids;
  for (ProcessId from = 0; from < 4; ++from) ids.push_back(send(net, from, 2));
  const Envelope out = net.take(ids[1]);
  EXPECT_EQ(out.from, 1);
  EXPECT_EQ(out.to, 2);
  EXPECT_EQ(pending_ids(net, 2),
            (std::vector<std::uint64_t>{ids[0], ids[2], ids[3]}));
  EXPECT_FALSE(net.contains(ids[1]));
  EXPECT_TRUE(net.contains(ids[2]));
  EXPECT_EQ(net.get(ids[3]).from, 3);
  EXPECT_EQ(net.size(), 3u);
}

TEST(NetworkTest, DuplicatedSendIsANewPendingMessage) {
  Network net;
  const auto a = send(net, 0, 1);
  Envelope copy = net.get(a);
  const auto b = net.send(std::move(copy));
  EXPECT_NE(a, b);
  EXPECT_EQ(pending_ids(net, 1), (std::vector<std::uint64_t>{a, b}));
  EXPECT_EQ(net.get(b).id, b);
  EXPECT_EQ(net.get(b).payload, net.get(a).payload);
  net.take(a);
  EXPECT_EQ(net.oldest_for(1), b);
  EXPECT_EQ(net.total_sent(), 2u);
}

TEST(NetworkTest, OldestAndHasPendingAfterOutOfOrderTakes) {
  Network net;
  const auto a = send(net, 0, 1);
  const auto b = send(net, 2, 1);
  const auto c = send(net, 0, 2);
  const auto d = send(net, 2, 1);
  net.take(b);
  EXPECT_EQ(net.oldest_for(1), a);
  net.take(a);
  EXPECT_EQ(net.oldest_for(1), d);
  EXPECT_TRUE(net.has_pending(1));
  net.take(d);
  EXPECT_FALSE(net.has_pending(1));
  EXPECT_EQ(net.oldest_for(1), 0u);
  // The receiver-2 message outlives every older take.
  EXPECT_TRUE(net.contains(c));
  EXPECT_EQ(net.oldest_for(2), c);
  net.take(c);
  EXPECT_EQ(net.size(), 0u);
  // Ids keep counting after the buffer drains.
  EXPECT_EQ(send(net, 1, 0), 5u);
}

TEST(NetworkTest, ReceiverWithoutTrafficHasNothingPending) {
  Network net;
  EXPECT_TRUE(net.pending(0).empty());
  send(net, 0, 3);
  for (ProcessId p : {0, 1, 2, 4, kMaxProcesses - 1}) {
    EXPECT_TRUE(net.pending(p).empty()) << p;
    EXPECT_FALSE(net.has_pending(p)) << p;
    EXPECT_EQ(net.oldest_for(p), 0u) << p;
  }
  EXPECT_FALSE(net.contains(0));
  EXPECT_FALSE(net.contains(2));
}

TEST(NetworkTest, PendingEntriesCarryTheirSender) {
  Network net;
  send(net, 3, 0);
  send(net, 1, 0);
  send(net, 3, 0);
  std::vector<ProcessId> senders;
  for (const Network::Pending& m : net.pending(0)) {
    senders.push_back(m.from);
    EXPECT_EQ(net.get(m.id).from, m.from);
  }
  EXPECT_EQ(senders, (std::vector<ProcessId>{3, 1, 3}));
}

TEST(NetworkTest, ContentIsThePayloadsFreshEncoding) {
  Network net;
  Envelope e;
  e.from = 0;
  e.to = 1;
  e.payload = sim::make_payload<EncodedMsg>(7);
  const auto id = net.send(e);
  sim::StateEncoder fresh;
  e.payload->encode_state(fresh);
  EXPECT_EQ(net.content(id), fresh.partial());
  EXPECT_EQ(sim::StateEncoder::digest(net.content(id)), fresh.digest());
  // A second read returns the cached value.
  EXPECT_EQ(net.content(id), fresh.partial());

  // The in-flight fold is the per-message sub-digest over sender,
  // receiver and payload, with or without the cache.
  sim::StateEncoder sub;
  sub.pid_field("from", 0);
  sub.pid_field("to", 1);
  e.payload->encode_state(sub);
  sim::StateEncoder expected;
  expected.merge("in-flight", sub);
  sim::StateEncoder folded;
  net.encode_state(folded);
  EXPECT_EQ(folded.digest(), expected.digest());
  const std::vector<ProcessId> swap{1, 0};
  sim::StateEncoder renamed_sub(&swap);
  renamed_sub.pid_field("from", 0);
  renamed_sub.pid_field("to", 1);
  e.payload->encode_state(renamed_sub);
  sim::StateEncoder renamed_expected(&swap);
  renamed_expected.merge("in-flight", renamed_sub);
  sim::StateEncoder renamed(&swap);
  net.encode_state(renamed);
  EXPECT_EQ(renamed.digest(), renamed_expected.digest());
  EXPECT_NE(renamed.digest(), folded.digest());
}

// A process that counts its own steps and sends pings to its successor.
class PingProcess : public sim::Process {
 public:
  void on_start(sim::Context& ctx) override {
    started_at_ = ctx.now();
    ctx.send((ctx.self() + 1) % ctx.n(), sim::make_payload<IntMsg>(1));
  }
  void on_step(sim::Context& ctx, const Envelope* msg) override {
    ++steps_;
    if (msg != nullptr) {
      ++received_;
      receipt_time_sum_ += ctx.now();
      const auto* m = sim::payload_cast<IntMsg>(*msg->payload);
      ASSERT_NE(m, nullptr);
      if (m->v < 5) {
        ctx.send((ctx.self() + 1) % ctx.n(),
                 sim::make_payload<IntMsg>(m->v + 1));
      }
    }
  }
  int steps_ = 0;
  int received_ = 0;
  Time receipt_time_sum_ = 0;  ///< Schedule-order-sensitive fingerprint.
  Time started_at_ = 0;
};

TEST(SimulatorTest, EveryAliveProcessStepsAndMessagesFlow) {
  sim::SimConfig cfg;
  cfg.n = 4;
  cfg.max_steps = 2000;
  cfg.seed = 3;
  sim::Simulator s(cfg, test::pattern(4), std::make_unique<fd::NullOracle>(),
                   test::random_sched());
  std::vector<PingProcess*> procs;
  for (int i = 0; i < 4; ++i) procs.push_back(&s.add_process<PingProcess>());
  s.run();
  EXPECT_EQ(s.now(), 2000u);
  for (auto* p : procs) {
    EXPECT_GT(p->steps_, 100);
    EXPECT_GE(p->received_, 1);
  }
  EXPECT_GT(s.trace().stats().messages_delivered, 0u);
}

TEST(SimulatorTest, CrashedProcessStopsStepping) {
  sim::SimConfig cfg;
  cfg.n = 3;
  cfg.max_steps = 3000;
  sim::Simulator s(cfg, test::pattern(3, {{1, 50}}),
                   std::make_unique<fd::NullOracle>(), test::random_sched());
  std::vector<PingProcess*> procs;
  for (int i = 0; i < 3; ++i) procs.push_back(&s.add_process<PingProcess>());
  s.run();
  // Process 1 crashed at t=50: it can have taken at most 50 steps.
  EXPECT_LE(procs[1]->steps_, 50);
  EXPECT_GT(procs[0]->steps_, 500);
  EXPECT_GT(procs[2]->steps_, 500);
}

TEST(SimulatorTest, DeterministicReplay) {
  auto run_once = [](std::uint64_t seed) {
    sim::SimConfig cfg;
    cfg.n = 3;
    cfg.max_steps = 1000;
    cfg.seed = seed;
    sim::Simulator s(cfg, test::pattern(3, {{2, 300}}),
                     std::make_unique<fd::NullOracle>(),
                     test::random_sched());
    std::vector<PingProcess*> procs;
    for (int i = 0; i < 3; ++i)
      procs.push_back(&s.add_process<PingProcess>());
    s.run();
    std::vector<int> out;
    for (auto* p : procs) {
      out.push_back(p->steps_);
      out.push_back(p->received_);
      out.push_back(static_cast<int>(p->receipt_time_sum_));
    }
    out.push_back(static_cast<int>(s.trace().stats().messages_sent));
    return out;
  };
  EXPECT_EQ(run_once(99), run_once(99));
  EXPECT_NE(run_once(99), run_once(100));
}

TEST(SimulatorTest, RunForIsResumable) {
  sim::SimConfig cfg;
  cfg.n = 2;
  cfg.max_steps = 1000;
  sim::Simulator s(cfg, test::pattern(2), std::make_unique<fd::NullOracle>(),
                   test::round_robin());
  s.add_process<PingProcess>();
  s.add_process<PingProcess>();
  s.run_for(100);
  EXPECT_EQ(s.now(), 100u);
  s.run_for(100);
  EXPECT_EQ(s.now(), 200u);
}

// --------------------------------------------------------------- schedulers

TEST(SchedulerTest, RoundRobinStepsEveryoneEqually) {
  sim::SimConfig cfg;
  cfg.n = 3;
  cfg.max_steps = 300;
  sim::Simulator s(cfg, test::pattern(3), std::make_unique<fd::NullOracle>(),
                   test::round_robin());
  std::vector<PingProcess*> procs;
  for (int i = 0; i < 3; ++i) procs.push_back(&s.add_process<PingProcess>());
  s.run();
  // on_start counts as a step too; each process took exactly 100 steps,
  // one of which was on_start (not counted in steps_).
  for (auto* p : procs) EXPECT_EQ(p->steps_, 99);
}

TEST(SchedulerTest, RandomFairDeliversOldMessages) {
  // With force_age, no message may stay pending much longer than
  // force_age while its recipient keeps stepping.
  sim::SimConfig cfg;
  cfg.n = 2;
  cfg.max_steps = 5000;
  sim::RandomFairScheduler::Options opt;
  opt.force_age = 64;
  opt.lambda_prob = 0.9;  // Mostly lambda steps: stress the force rule.
  sim::Simulator s(cfg, test::pattern(2), std::make_unique<fd::NullOracle>(),
                   std::make_unique<sim::RandomFairScheduler>(opt));
  std::vector<PingProcess*> procs;
  for (int i = 0; i < 2; ++i) procs.push_back(&s.add_process<PingProcess>());
  s.run();
  // The initial pings (and the 4 follow-ups) must all have been
  // delivered despite the lambda-heavy schedule.
  EXPECT_GE(procs[0]->received_ + procs[1]->received_, 10);
}

TEST(SchedulerTest, FilteredWithholdsUntilDeadline) {
  // Block all messages to process 1 until t=1500, then release.
  sim::SimConfig cfg;
  cfg.n = 2;
  cfg.max_steps = 4000;
  auto filter = [](const Envelope& e, Time now) {
    return e.to == 1 && now < 1500;
  };
  sim::Simulator s(
      cfg, test::pattern(2), std::make_unique<fd::NullOracle>(),
      std::make_unique<sim::FilteredScheduler>(test::round_robin(), filter));
  auto& p0 = s.add_process<PingProcess>();
  auto& p1 = s.add_process<PingProcess>();
  (void)p0;
  // Run until just before the deadline: nothing delivered to p1.
  while (s.now() < 1499 && s.step()) {
  }
  EXPECT_EQ(p1.received_, 0);
  s.run();
  EXPECT_GE(p1.received_, 1);
}

// ------------------------------------------------------------------ modules

struct TagMsg final : Payload {
  explicit TagMsg(std::string t) : tag(std::move(t)) {}
  std::string tag;
};

class EchoModule : public sim::Module {
 public:
  void on_start() override {
    if (self() == 0) broadcast(sim::make_payload<TagMsg>(name()));
  }
  void on_message(ProcessId, const Payload& p) override {
    const auto* m = sim::payload_cast<TagMsg>(p);
    ASSERT_NE(m, nullptr);
    // Routing must be exact: a module only sees its own messages.
    EXPECT_EQ(m->tag, name());
    ++got_;
  }
  int got_ = 0;
};

TEST(ModuleTest, RoutingByName) {
  sim::SimConfig cfg;
  cfg.n = 2;
  cfg.max_steps = 500;
  sim::Simulator s(cfg, test::pattern(2), std::make_unique<fd::NullOracle>(),
                   test::round_robin());
  std::vector<EchoModule*> mods;
  for (int i = 0; i < 2; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    mods.push_back(&host.add_module<EchoModule>("alpha"));
    mods.push_back(&host.add_module<EchoModule>("beta"));
  }
  s.set_halt_on_done(false);  // Service modules never report work left.
  s.run();
  // Process 0 broadcast on both modules (to both processes incl. self).
  for (auto* m : mods) EXPECT_EQ(m->got_, 1);
}

class LateAdder : public sim::Module {
 public:
  void on_message(ProcessId, const Payload&) override {}
  void on_tick() override {
    if (now() > 100 && !added_) {
      added_ = true;
      late_ = &host().add_module<EchoModule>("late");
    }
  }
  bool added_ = false;
  EchoModule* late_ = nullptr;
};

TEST(ModuleTest, MessagesBufferedForLateModules) {
  sim::SimConfig cfg;
  cfg.n = 2;
  cfg.max_steps = 1000;
  sim::Simulator s(cfg, test::pattern(2), std::make_unique<fd::NullOracle>(),
                   test::round_robin());
  // Process 0 has the "late" module from the start; its on_start
  // broadcast reaches process 1 long before process 1 creates its own
  // "late" module at t > 100.
  auto& h0 = s.add_process<sim::ModularProcess>();
  h0.add_module<EchoModule>("late");
  auto& h1 = s.add_process<sim::ModularProcess>();
  auto& adder = h1.add_module<LateAdder>("adder");
  s.set_halt_on_done(false);
  s.run();
  ASSERT_NE(adder.late_, nullptr);
  EXPECT_EQ(adder.late_->got_, 1);  // The buffered message was replayed.
}

TEST(ModuleTest, FindAndTypedLookup) {
  sim::SimConfig cfg;
  cfg.n = 1;
  cfg.max_steps = 10;
  sim::Simulator s(cfg, test::pattern(1), std::make_unique<fd::NullOracle>(),
                   test::round_robin());
  auto& host = s.add_process<sim::ModularProcess>();
  auto& echo = host.add_module<EchoModule>("x");
  EXPECT_EQ(host.find_module("x"), &echo);
  EXPECT_EQ(host.find_module("y"), nullptr);
  EXPECT_EQ(&host.module<EchoModule>("x"), &echo);
}

}  // namespace
}  // namespace wfd
