// End-to-end coverage of the exploration subsystem: the DFS explorer
// finds the seeded agreement bug, shrinking preserves and minimizes the
// counterexample, replay files round-trip and re-execute
// deterministically, and the parallel campaign both finds the bug and
// stays clean on the correct protocols.
#include <gtest/gtest.h>

#include <atomic>
#include <climits>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "explore/campaign.h"
#include "explore/explorer.h"
#include "explore/option_text.h"
#include "explore/replay_io.h"
#include "explore/scenario.h"
#include "explore/shrink.h"

namespace wfd::explore {
namespace {

ScenarioOptions bug_options() {
  ScenarioOptions opt;
  opt.problem = "consensus-bug";
  opt.n = 3;
  opt.max_steps = 30;
  return opt;
}

TEST(ScenarioTest, ValidateRejectsBadOptions) {
  ScenarioOptions opt;
  opt.problem = "nonsense";
  EXPECT_FALSE(ScenarioFactory::validate(opt).empty());
  opt = ScenarioOptions{};
  opt.n = 3;
  opt.crashes = 2;  // No correct majority.
  EXPECT_FALSE(ScenarioFactory::validate(opt).empty());
  opt = ScenarioOptions{};
  EXPECT_TRUE(ScenarioFactory::validate(opt).empty());
}

TEST(ExplorerTest, FindsSeededAgreementBug) {
  const ScenarioBuilder build = ScenarioFactory(bug_options()).builder();
  SearchConfig cfg;
  cfg.scenario = bug_options();
  Explorer ex(build, cfg);
  const ExploreReport rep = ex.run();
  ASSERT_TRUE(rep.cex.has_value());
  EXPECT_EQ(rep.cex->violation.property, "agreement(decide)");
  EXPECT_GT(rep.stats.nodes, 0u);
  EXPECT_GT(rep.stats.runs, 0u);
}

TEST(ExplorerTest, CleanConsensusHasNoViolationWithinBudget) {
  ScenarioOptions opt;
  opt.problem = "consensus";
  opt.n = 3;
  opt.max_steps = 25;
  SearchConfig eo;
  eo.scenario = opt;
  eo.max_states = 20000;
  Explorer ex(ScenarioFactory(opt).builder(), eo);
  const ExploreReport rep = ex.run();
  EXPECT_FALSE(rep.cex.has_value());
  EXPECT_GT(rep.stats.nodes, 0u);
}

TEST(ExplorerTest, ExhaustsTinyTree) {
  ScenarioOptions opt = bug_options();
  opt.n = 2;
  opt.max_steps = 6;
  SearchConfig eo;
  eo.scenario = opt;
  eo.max_states = 500000;
  eo.stop_at_first = false;  // Keep going past violations.
  Explorer ex(ScenarioFactory(opt).builder(), eo);
  const ExploreReport rep = ex.run();
  EXPECT_TRUE(rep.stats.exhausted);
  // With n=2 the two processes propose 0 and 1; some interleaving makes
  // them hear different proposals first.
  EXPECT_GT(rep.stats.violations, 0u);
}

TEST(ExplorerTest, SleepSetsPruneWithoutLosingTheBug) {
  ScenarioOptions opt = bug_options();
  opt.max_steps = 9;
  SearchConfig with;
  with.scenario = opt;
  with.max_states = 40000;
  with.stop_at_first = false;
  with.reduction = Reduction::kSleepSets;
  // Pure reduction ablation: keep fingerprints out of the picture.
  with.state_fingerprints = false;
  SearchConfig without = with;
  without.reduction = Reduction::kNone;
  const ScenarioBuilder build = ScenarioFactory(opt).builder();
  Explorer a(build, with);
  Explorer b(build, without);
  const ExploreReport ra = a.run();
  const ExploreReport rb = b.run();
  EXPECT_GT(ra.stats.sleep_skips, 0u);
  EXPECT_EQ(rb.stats.sleep_skips, 0u);
  EXPECT_LE(ra.stats.runs, rb.stats.runs);
  EXPECT_GT(ra.stats.violations, 0u);
  EXPECT_GT(rb.stats.violations, 0u);
}

TEST(ExplorerTest, FingerprintPruningFires) {
  ScenarioOptions opt = bug_options();
  opt.max_steps = 12;
  SearchConfig eo;
  eo.scenario = opt;
  eo.max_states = 5000;
  eo.stop_at_first = false;
  // The seeded-bug scenario is fully modular, so the composed
  // Module::encode_state fingerprint is complete and distinct schedules
  // converge onto equal states (e.g. permuted deliveries of equal
  // proposals); pruning must fire within a modest budget.
  Explorer ex(ScenarioFactory(opt).builder(), eo);
  const ExploreReport rep = ex.run();
  EXPECT_GT(rep.stats.fp_prunes, 0u);
}

TEST(ShrinkTest, ShrunkCounterexampleStillReproduces) {
  const ScenarioBuilder build = ScenarioFactory(bug_options()).builder();
  SearchConfig cfg;
  cfg.scenario = bug_options();
  Explorer ex(build, cfg);
  const ExploreReport rep = ex.run();
  ASSERT_TRUE(rep.cex.has_value());

  const ShrinkResult s =
      shrink(build, rep.cex->decisions, rep.cex->violation.property);
  EXPECT_LE(s.decisions.size(), rep.cex->decisions.size());
  const ReplayOutcome out = run_replay(build, s.decisions);
  ASSERT_TRUE(out.violation.has_value());
  EXPECT_EQ(out.violation->property, rep.cex->violation.property);
}

TEST(ReplayTest, ReplayIsDeterministic) {
  const ScenarioBuilder build = ScenarioFactory(bug_options()).builder();
  SearchConfig cfg;
  cfg.scenario = bug_options();
  Explorer ex(build, cfg);
  const ExploreReport rep = ex.run();
  ASSERT_TRUE(rep.cex.has_value());
  const ReplayOutcome a = run_replay(build, rep.cex->decisions);
  const ReplayOutcome b = run_replay(build, rep.cex->decisions);
  ASSERT_TRUE(a.violation.has_value());
  ASSERT_TRUE(b.violation.has_value());
  EXPECT_EQ(a.violation->message, b.violation->message);
  EXPECT_EQ(a.steps, b.steps);
}

TEST(ReplayTest, FileRoundTrip) {
  ReplayFile f;
  f.scenario = bug_options();
  f.scenario.crashes = 0;
  f.scenario.stabilization = 20;
  f.decisions = {3, 1, 4, 1, 5};
  f.note = "agreement(decide): example";
  std::string error;
  const auto parsed = parse_replay(to_text(f), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->scenario.problem, f.scenario.problem);
  EXPECT_EQ(parsed->scenario.n, f.scenario.n);
  EXPECT_EQ(parsed->scenario.max_steps, f.scenario.max_steps);
  EXPECT_EQ(parsed->scenario.stabilization, f.scenario.stabilization);
  EXPECT_EQ(parsed->decisions, f.decisions);
  EXPECT_EQ(parsed->note, f.note);
}

TEST(ReplayTest, ParseRejectsGarbage) {
  std::string error;
  EXPECT_FALSE(parse_replay("problem=consensus\n", &error).has_value());
  EXPECT_FALSE(parse_replay("decisions=1,x\n", &error).has_value());
  EXPECT_FALSE(
      parse_replay("problem=nope\ndecisions=1\n", &error).has_value());
}

TEST(ReplayTest, ParseRejectsNumericOverflow) {
  // Out-of-range numerics must fail the parse, not silently wrap into a
  // small in-range value that replays a different scenario.
  std::string error;
  // 2^64: one past UINT64_MAX.
  EXPECT_FALSE(parse_replay("problem=consensus\n"
                            "seed=18446744073709551616\ndecisions=1\n",
                            &error)
                   .has_value());
  EXPECT_NE(error.find("seed"), std::string::npos) << error;
  // Far past UINT64_MAX (the classic wrap-to-small-value shape).
  EXPECT_FALSE(parse_replay("problem=consensus\n"
                            "max_steps=99999999999999999999999\n"
                            "decisions=1\n",
                            &error)
                   .has_value());
  // Decisions are 32-bit.
  EXPECT_FALSE(
      parse_replay("problem=consensus\ndecisions=4294967296\n", &error)
          .has_value());
  // Ints: one past INT_MAX, and a negative that a naive `-(int)v`
  // negation would turn into a positive number via signed overflow.
  EXPECT_FALSE(
      parse_replay("problem=consensus\nn=2147483648\ndecisions=1\n", &error)
          .has_value());
  EXPECT_FALSE(parse_replay("problem=consensus\nn=-2147483649\ndecisions=1\n",
                            &error)
                   .has_value());
}

TEST(ReplayTest, ScalarParsersGuardTheBoundaries) {
  std::uint64_t u = 0;
  EXPECT_TRUE(detail::parse_u64("18446744073709551615", &u));
  EXPECT_EQ(u, UINT64_MAX);
  EXPECT_FALSE(detail::parse_u64("18446744073709551616", &u));
  EXPECT_FALSE(detail::parse_u64("99999999999999999999999", &u));
  EXPECT_FALSE(detail::parse_u64("", &u));
  EXPECT_FALSE(detail::parse_u64("12x", &u));

  int i = 0;
  EXPECT_TRUE(detail::parse_int("2147483647", &i));
  EXPECT_EQ(i, INT_MAX);
  // INT_MIN is representable even though its magnitude overflows a
  // positive int — the historical UB case for `-(int)v` negation.
  EXPECT_TRUE(detail::parse_int("-2147483648", &i));
  EXPECT_EQ(i, INT_MIN);
  EXPECT_FALSE(detail::parse_int("2147483648", &i));
  EXPECT_FALSE(detail::parse_int("-2147483649", &i));
  // A huge negative must not wrap into a small positive (the wrap shape
  // -(uint32)4294967295 == 1).
  EXPECT_FALSE(detail::parse_int("-4294967295", &i));
  EXPECT_FALSE(detail::parse_int("-", &i));
}

TEST(ReplayTest, RoundTripsEveryProblemAndAwkwardNotes) {
  // Property check: to_text -> parse_replay is the identity over a grid
  // of option sets and notes — including notes with newlines, which used
  // to be written raw and break the line-oriented format.
  const std::vector<std::string> notes = {
      "",
      "plain provenance",
      "line one\nline two",
      "trailing newline\n",
      "tabs\tand \\backslashes\\",
      "carriage\r\nreturns",
  };
  std::size_t combos = 0;
  for (const std::string& problem : ScenarioFactory::problems()) {
    for (const std::string& note : notes) {
      ReplayFile f;
      f.scenario.problem = problem;
      f.scenario.n = 3;
      f.scenario.max_steps = 17;
      f.scenario.seed = 99;
      f.scenario.stabilization = (combos % 2 == 0) ? kNever : Time{12};
      f.scenario.fd_per_query = combos % 3 != 0;
      if (problem == "nbac") f.scenario.nbac_no_voter = 1;
      f.decisions = {0, 3, 1, 4, 1, 5, 9, 2, 6};
      f.note = note;
      ASSERT_EQ(ScenarioFactory::validate(f.scenario), "") << problem;
      std::string error;
      const auto p = parse_replay(to_text(f), &error);
      ASSERT_TRUE(p.has_value()) << problem << ": " << error;
      EXPECT_EQ(p->note, f.note) << problem;
      EXPECT_EQ(p->decisions, f.decisions) << problem;
      // Rendering covers every scenario field, so text equality is
      // full-struct equality.
      EXPECT_EQ(to_text(*p), to_text(f)) << problem;
      ++combos;
    }
  }
  EXPECT_GE(combos, notes.size() * 5);
}

TEST(CampaignTest, FindsSeededBugAndShrinksIt) {
  SearchConfig co;
  co.scenario = bug_options();
  co.threads = 4;
  co.runs = 2000;
  co.max_states = 2000;
  const ScenarioBuilder build = ScenarioFactory(bug_options()).builder();
  const CampaignReport rep = run_campaign(build, co);
  ASSERT_TRUE(rep.cex.has_value());
  EXPECT_EQ(rep.cex->violation.property, "agreement(decide)");
  EXPECT_GT(rep.violations, 0u);
  // The claimed counterexample was shrunk and still reproduces.
  EXPECT_GT(rep.shrunk_from, 0u);
  const ReplayOutcome out = run_replay(build, rep.cex->decisions);
  ASSERT_TRUE(out.violation.has_value());
  EXPECT_EQ(out.violation->property, "agreement(decide)");
}

// Fires on exactly one invariant check across every scenario instance
// the campaign builds, then never again: after the claim every run is
// clean, so nothing but the stop flag can end the campaign before its
// full run count.
class OneShotInvariant : public Invariant {
 public:
  explicit OneShotInvariant(std::shared_ptr<std::atomic<std::uint64_t>> fuse)
      : fuse_(std::move(fuse)) {}
  [[nodiscard]] std::string name() const override { return "one-shot"; }
  std::optional<Violation> check(const sim::Simulator& sim) override {
    (void)sim;
    if (fuse_->fetch_add(1, std::memory_order_relaxed) == kFireAt) {
      return Violation{name(), "the fuse burned down", 0};
    }
    return std::nullopt;
  }

  static constexpr std::uint64_t kFireAt = 2000;

 private:
  std::shared_ptr<std::atomic<std::uint64_t>> fuse_;
};

TEST(CampaignTest, StopAtFirstStopsEveryWalker) {
  // Under stop_at_first a claimed counterexample stops every walker
  // before its next run. The fuse burns about 50 runs in; walkers that
  // ignored the claim would go on through all million runs.
  ScenarioOptions opt;
  opt.problem = "consensus";
  opt.n = 3;
  opt.max_steps = 40;
  const ScenarioBuilder clean = ScenarioFactory(opt).builder();
  auto fuse = std::make_shared<std::atomic<std::uint64_t>>(0);
  const ScenarioBuilder build = [clean, fuse](sim::ChoiceSource& choices) {
    Scenario sc = clean(choices);
    sc.invariants.push_back(std::make_unique<OneShotInvariant>(fuse));
    return sc;
  };
  SearchConfig co;
  co.scenario = opt;
  co.threads = 2;
  co.runs = 1000000;
  co.shrink = false;  // The one-shot violation cannot re-reproduce.
  const CampaignReport rep = run_campaign(build, co);
  ASSERT_TRUE(rep.cex.has_value());
  EXPECT_EQ(rep.cex->violation.property, "one-shot");
  EXPECT_EQ(rep.violations, 1u);
  EXPECT_LT(rep.runs, co.runs / 10);
}

// The never-halting omega-impl service carries no invariant: the
// campaign checks it by eventual leadership alone, every run filling
// the horizon (the wfd_check_omega_impl lane).
TEST(CampaignTest, ServiceScenarioRunsNoFrontier) {
  SearchConfig co;
  co.scenario.problem = "omega-impl";
  co.scenario.n = 3;
  co.scenario.max_steps = 500;
  co.scenario.seed = 1;
  co.runs = 40;
  ASSERT_EQ(validate(co), "");
  const CampaignReport rep =
      run_campaign(ScenarioFactory(co.scenario).builder(), co);
  EXPECT_EQ(rep.runs, 40u);
  EXPECT_EQ(rep.violations, 0u);
  EXPECT_EQ(rep.liveness_suspects, 0u);
  EXPECT_FALSE(rep.cex.has_value());
}

// Legality sweeps: the correct protocols with choice-driven (adversarial
// but legal) detector histories must never violate their safety clauses.
TEST(CampaignTest, CorrectProtocolsStayClean) {
  for (const char* problem : {"consensus", "qc", "nbac", "sigma"}) {
    ScenarioOptions opt;
    opt.problem = problem;
    opt.n = 3;
    opt.crashes = 1;
    opt.max_steps = 50;
    if (opt.problem == "nbac") opt.nbac_no_voter = 0;
    SearchConfig co;
    co.scenario = opt;
    co.threads = 4;
    co.runs = 300;
    co.shrink = false;
    const CampaignReport rep =
        run_campaign(ScenarioFactory(opt).builder(), co);
    EXPECT_FALSE(rep.cex.has_value())
        << problem << ": " << rep.cex->violation.property << " — "
        << rep.cex->violation.message;
    EXPECT_EQ(rep.violations, 0u) << problem;
    EXPECT_EQ(rep.runs, 300u) << problem;
  }
}

}  // namespace
}  // namespace wfd::explore
