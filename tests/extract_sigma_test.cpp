// Theorem 1, necessity (Figure 1): any algorithm that implements atomic
// registers using some detector D can be used to emulate Sigma. The
// emulated quorum history must satisfy both Sigma clauses — checked for
// D = Sigma itself (ABD over a Sigma oracle) and, more strikingly, for
// D = nothing at all (majority-ABD in a majority-correct environment):
// Sigma really is extractable "ex nihilo" wherever registers are.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "extract/participant_tracker.h"
#include "extract/sigma_extraction.h"
#include "fd/history_checker.h"
#include "reg/abd_register.h"
#include "test_util.h"

namespace wfd {
namespace {

using extract::ParticipantTracker;
using extract::QuorumList;
using extract::SigmaExtractionModule;
using Reg = reg::AbdRegisterModule<QuorumList>;

struct ExtractionRig {
  std::vector<sim::FdSampleRecord> samples;
  std::vector<std::unique_ptr<ParticipantTracker>> trackers;
  std::vector<SigmaExtractionModule*> extractors;
};

/// Wire up per-process: n register modules (the algorithm A using D),
/// the causal tracker as transport instrument, and the Fig. 1 extractor.
void build_extraction(sim::Simulator& s, int n, reg::QuorumRule rule,
                      ExtractionRig& rig) {
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    rig.trackers.push_back(std::make_unique<ParticipantTracker>(i));
    host.set_instrument(rig.trackers.back().get());
    std::vector<std::size_t> registers;
    for (int j = 0; j < n; ++j) {
      Reg::Options opt;
      opt.rule = rule;
      registers.push_back(
          host.add_module<Reg>("xreg/" + std::to_string(j), opt).index());
    }
    rig.extractors.push_back(&host.add_module<SigmaExtractionModule>(
        "extract", std::move(registers), rig.trackers.back().get(),
        &rig.samples));
  }
}

class ExtractSigmaSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExtractSigmaSweep, FromSigmaBackedRegisters) {
  // D = Sigma; A = Sigma-ABD; any environment (here: up to n-1 crashes).
  const int n = 3;
  Rng rng(GetParam() * 131 + 17);
  sim::AnyEnvironment env(n);
  const auto f = env.sample(rng, 10000);

  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 300000;
  cfg.seed = GetParam();
  sim::Simulator s(cfg, f, test::sigma_oracle(), test::random_sched());
  ExtractionRig rig;
  build_extraction(s, n, reg::QuorumRule::kSigma, rig);
  s.set_halt_on_done(false);
  s.run();

  // The emulation must have made real progress...
  for (int i = 0; i < n; ++i) {
    if (f.correct().contains(i)) {
      EXPECT_GE(rig.extractors[static_cast<std::size_t>(i)]->iterations(), 3u)
          << "extraction stalled at correct process " << i;
    }
  }
  // ...and the emulated history must BE a Sigma history.
  const auto r = fd::check_sigma_history(rig.samples, f);
  EXPECT_TRUE(r.ok) << r.violation;
}

TEST_P(ExtractSigmaSweep, ExNihiloFromMajorityRegisters) {
  // D = nothing; A = majority-ABD; majority-correct environment.
  const int n = 3;
  Rng rng(GetParam() * 137 + 23);
  sim::MajorityCorrectEnvironment env(n);
  const auto f = env.sample(rng, 10000);

  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 300000;
  cfg.seed = GetParam();
  sim::Simulator s(cfg, f, std::make_unique<fd::NullOracle>(),
                   test::random_sched());
  ExtractionRig rig;
  build_extraction(s, n, reg::QuorumRule::kMajority, rig);
  s.set_halt_on_done(false);
  s.run();

  const auto r = fd::check_sigma_history(rig.samples, f);
  EXPECT_TRUE(r.ok) << r.violation;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExtractSigmaSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// The participant sets of completed writes always contain at least one
// correct process (the paper's key lemma about P_i(k)); equivalently,
// every probed set eventually answers, which is what keeps the emulation
// non-blocking. We check the quorums *include* a correct member.
TEST(ExtractSigmaLemma, EveryEmittedQuorumContainsACorrectProcess) {
  const int n = 4;
  sim::FailurePattern f(n);
  f.crash_at(0, 4000);
  f.crash_at(1, 8000);

  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 250000;
  cfg.seed = 77;
  sim::Simulator s(cfg, f, test::sigma_oracle(), test::random_sched());
  ExtractionRig rig;
  build_extraction(s, n, reg::QuorumRule::kSigma, rig);
  s.set_halt_on_done(false);
  s.run();

  for (const auto& rec : rig.samples) {
    EXPECT_TRUE(rec.value.sigma->intersects(f.correct()))
        << "quorum " << rec.value.sigma->to_string() << " at t=" << rec.t;
  }
}

// Tracker unit behaviour: participation spreads along causal chains.
TEST(ParticipantTrackerTest, DirectAndTransitiveParticipation) {
  ParticipantTracker t0(0), t1(1), t2(2);
  t0.begin_write(1);

  // 0 -> 1: p1 becomes a participant.
  auto m01 = t0.outgoing_meta();
  ASSERT_NE(m01, nullptr);
  t1.incoming_meta(0, *m01);

  // 1 -> 2: p2 becomes a participant transitively.
  auto m12 = t1.outgoing_meta();
  ASSERT_NE(m12, nullptr);
  t2.incoming_meta(1, *m12);

  // 2 -> 0: knowledge flows back to the writer.
  auto m20 = t2.outgoing_meta();
  ASSERT_NE(m20, nullptr);
  t0.incoming_meta(2, *m20);

  const ProcessSet p = t0.end_write(1);
  EXPECT_TRUE(p.contains(0));
  EXPECT_TRUE(p.contains(1));
  EXPECT_TRUE(p.contains(2));
}

TEST(ParticipantTrackerTest, CompletedWritesAreGarbageCollected) {
  ParticipantTracker t0(0), t1(1);
  t0.begin_write(1);
  auto m = t0.outgoing_meta();
  t1.incoming_meta(0, *m);
  EXPECT_FALSE(t1.known_participants({0, 1}).empty());

  t0.end_write(1);
  // The writer's next message carries the completion counter...
  auto m2 = t0.outgoing_meta();
  ASSERT_NE(m2, nullptr);
  t1.incoming_meta(0, *m2);
  // ...and the receiver drops the stale tag.
  EXPECT_TRUE(t1.known_participants({0, 1}).empty());
}

TEST(ParticipantTrackerTest, MessagesSentBeforeWriteDoNotTag) {
  ParticipantTracker t0(0), t1(1);
  auto before = t0.outgoing_meta();  // No active write: no metadata.
  EXPECT_EQ(before, nullptr);
  t0.begin_write(1);
  if (before != nullptr) t1.incoming_meta(0, *before);
  EXPECT_TRUE(t1.known_participants({0, 1}).empty());
  const ProcessSet p = t0.end_write(1);
  EXPECT_EQ(p, ProcessSet{0});
}

}  // namespace
}  // namespace wfd

// The Corollary 3 proof path, end to end — registers built FROM
// consensus (state-machine replication) under D = (Omega, Sigma), then
// Figure 1 extracts Sigma from those registers. This is exactly how the
// paper derives "if D solves consensus, D can be transformed into
// Sigma". Each register operation costs a consensus instance, so the
// run is kept small (crash-free; the intersection clause is the meat —
// completeness is trivial with correct = Pi).
#include "smr/register_from_consensus.h"

namespace wfd {
namespace {

TEST(ExtractSigmaFromConsensus, Corollary3Composition) {
  using SmrReg = smr::BasicSmrRegisterModule<QuorumList>;
  const int n = 3;
  const auto f = test::pattern(n);
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 120000;  // Each Fig.1 iteration costs ~4(n+1) consensus
  cfg.seed = 3;           // instances; a couple of iterations suffice.
  sim::Simulator s(cfg, f, test::omega_sigma(/*stab=*/200),
                   test::random_sched());
  ExtractionRig rig;
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    rig.trackers.push_back(std::make_unique<ParticipantTracker>(i));
    host.set_instrument(rig.trackers.back().get());
    std::vector<std::size_t> registers;
    for (int j = 0; j < n; ++j) {
      registers.push_back(
          host.add_module<SmrReg>("sreg/" + std::to_string(j)).index());
    }
    rig.extractors.push_back(&host.add_module<SigmaExtractionModule>(
        "extract", std::move(registers), rig.trackers.back().get(),
        &rig.samples));
  }
  s.set_halt_on_done(false);
  s.run();

  for (int i = 0; i < n; ++i) {
    EXPECT_GE(rig.extractors[static_cast<std::size_t>(i)]->iterations(), 1u)
        << "extraction over SMR registers stalled at process " << i;
  }
  const auto r = fd::check_sigma_history(rig.samples, f);
  EXPECT_TRUE(r.ok) << r.violation;
}

}  // namespace
}  // namespace wfd
