// The contract the explorer's observe-once rule relies on
// (Invariant::check, explore/property.h): check() may be skipped over a
// leading prefix of steps the explorer already observed clean, and the
// next call then judges everything since the last one. For each of the
// nine invariant classes, deterministic runs of a scenario that uses it
// are driven checking after every step, and again skipping the calls
// over each leading prefix; at the step where per-step checking first
// reports a violation (or at the end of the run) both must agree on the
// verdict, the violation text and the invariants' encode_state digest.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "explore/property.h"
#include "explore/scenario.h"
#include "explore/search_config.h"
#include "sim/choice.h"
#include "sim/state_encoder.h"

namespace wfd::explore {
namespace {

/// Deterministic pseudo-random choices (a SplitMix64 stream per seed).
class SeededChoices : public sim::ChoiceSource {
 public:
  explicit SeededChoices(std::uint64_t seed) : state_(seed) {}

  std::size_t choose(sim::ChoiceKind /*kind*/,
                     const std::vector<std::uint64_t>& labels) override {
    state_ += 0x9e3779b97f4a7c15ull;
    std::uint64_t x = state_;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return static_cast<std::size_t>((x ^ (x >> 31)) % labels.size());
  }

 private:
  std::uint64_t state_;
};

/// A test-side fault injected into a run at a given step (the register
/// scenarios have no reachable seeded atomicity violation at n = 3).
using Tamper = void (*)(Scenario&, std::uint64_t step);

struct Verdict {
  std::uint64_t step = 0;  ///< Steps executed when the run stopped.
  std::optional<Violation> violation;
  std::uint64_t digest = 0;  ///< Invariants' encode_state at `step`.
};

std::uint64_t invariant_digest(const Scenario& sc) {
  sim::StateEncoder enc;
  std::size_t i = 0;
  for (const auto& inv : sc.invariants) {
    enc.push("invariant", i++);
    inv->encode_state(enc);
    enc.pop();
  }
  return enc.digest();
}

/// One run under SeededChoices(seed), stopping at the first violation,
/// after `stop_at` steps, or when the run halts. Every invariant is
/// checked after every step from `first_checked` on (all of them, so
/// each one's state is caught up when the digest is taken); earlier
/// steps skip the calls, as the explorer skips a replayed prefix.
Verdict drive(const ScenarioOptions& opt, std::uint64_t seed,
              std::uint64_t first_checked, std::uint64_t stop_at,
              Tamper tamper) {
  SeededChoices choices(seed);
  Scenario sc = ScenarioFactory(opt).build(choices);
  Verdict v;
  while (v.step < stop_at && sc.sim->step()) {
    ++v.step;
    if (tamper) tamper(sc, v.step);
    if (v.step < first_checked) continue;
    for (auto& inv : sc.invariants) {
      std::optional<Violation> found = inv->check(*sc.sim);
      if (!v.violation.has_value()) v.violation = std::move(found);
    }
    if (v.violation.has_value()) break;
  }
  v.digest = invariant_digest(sc);
  return v;
}

struct Case {
  const char* name;
  std::vector<std::string> flags;  ///< wfd_check scenario flags.
  std::vector<std::string> invariants;  ///< Names the scenario must carry.
  /// Some seed must violate; its property.
  std::optional<std::string> violates;
  Tamper tamper;
};

/// Every case compares kSeeds runs; a case that must violate keeps
/// drawing seeds (up to kMaxSeeds) until kViolating violating runs have
/// been compared too.
constexpr std::uint64_t kSeeds = 8;
constexpr std::uint64_t kViolating = 4;
constexpr std::uint64_t kMaxSeeds = 2000;
constexpr std::uint64_t kUnbounded = ~std::uint64_t{0};

/// At step 12, a read that returns a value nobody wrote completes.
void corrupt_a_read(Scenario& sc, std::uint64_t step) {
  if (step != 12) return;
  for (auto& inv : sc.invariants) {
    if (auto* reg = dynamic_cast<RegisterAtomicityInvariant*>(inv.get())) {
      const Time t = sc.sim->now();
      reg::History& h = reg->history();
      h.respond(h.invoke(1, /*is_write=*/false, 0, t), t, 4242);
    }
  }
}

std::vector<Case> cases() {
  return {
      {"consensus-bug",
       {"--problem=consensus-bug", "--n=3", "--depth=24"},
       {"agreement(decide)", "validity(decide)"},
       "agreement(decide)",
       nullptr},
      {"consensus crash=explore",
       {"--problem=consensus", "--n=3", "--crash=explore", "--crashes=1",
        "--depth=30"},
       {"agreement(decide)", "validity(decide)", "sigma-intersection"},
       std::nullopt,
       nullptr},
      {"consensus-crash-bug",
       {"--problem=consensus-crash-bug", "--n=3", "--crash=explore",
        "--crashes=1", "--depth=30"},
       {"agreement(decide)", "validity(decide)"},
       "agreement(decide)",
       nullptr},
      {"qc adversarial",
       {"--problem=qc", "--n=3", "--fd=adversarial", "--depth=30"},
       {"agreement(qc-decide)", "validity(qc-decide)", "quit-validity",
        "sigma-intersection", "fd-prefix"},
       std::nullopt,
       nullptr},
      {"nbac crash=explore",
       {"--problem=nbac", "--n=3", "--crash=explore", "--crashes=1",
        "--depth=30"},
       {"agreement(nbac-decide)", "nbac-validity", "fd-prefix"},
       std::nullopt,
       nullptr},
      {"sigma", {"--problem=sigma", "--n=3", "--depth=20"},
       {"sigma-intersection"}, std::nullopt, nullptr},
      {"register",
       {"--problem=register", "--n=3", "--reg-ops=2", "--depth=60"},
       {"register-atomicity", "sigma-intersection"},
       std::nullopt,
       nullptr},
      {"register-regular, corrupted read",
       {"--problem=register-regular", "--n=3", "--reg-ops=2", "--depth=60"},
       {"register-atomicity"},
       "register-atomicity",
       corrupt_a_read},
      {"abcast", {"--problem=abcast", "--n=2", "--depth=80"},
       {"total-order"}, std::nullopt, nullptr},
      {"rb", {"--problem=rb", "--n=3", "--depth=30"}, {"urb-integrity"},
       std::nullopt, nullptr},
  };
}

TEST(InvariantCatchUpTest, SkippedPrefixGivesThePerStepVerdict) {
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.name);
    SearchConfig cfg;
    for (const std::string& flag : c.flags) {
      ASSERT_EQ(apply_cli_flag(cfg, flag), CliResult::kApplied) << flag;
    }
    {
      sim::FixedChoices fixed;
      const Scenario sc = ScenarioFactory(cfg.scenario).build(fixed);
      for (const std::string& want : c.invariants) {
        bool found = false;
        for (const auto& inv : sc.invariants) found |= inv->name() == want;
        EXPECT_TRUE(found) << "scenario lacks " << want;
      }
    }
    std::uint64_t violating = 0;
    for (std::uint64_t seed = 1; seed <= kMaxSeeds; ++seed) {
      const bool need_more =
          c.violates.has_value() && violating < kViolating;
      if (seed > kSeeds && !need_more) break;
      const Verdict ref = drive(cfg.scenario, seed, 1, kUnbounded, c.tamper);
      if (ref.violation.has_value()) {
        ++violating;
        if (c.violates.has_value()) {
          EXPECT_EQ(ref.violation->property, *c.violates);
        } else {
          ADD_FAILURE() << "seed " << seed << ": unexpected violation "
                        << ref.violation->property << ": "
                        << ref.violation->message;
        }
      } else if (seed > kSeeds) {
        continue;  // Drawing for a violating run only.
      }
      // Skip the calls over steps [1, first): the explorer only skips
      // steps a previous run judged clean, so the prefix ends at or
      // before the per-step verdict's step.
      for (std::uint64_t first = 2; first <= ref.step; ++first) {
        const Verdict got =
            drive(cfg.scenario, seed, first, ref.step, c.tamper);
        ASSERT_EQ(got.step, ref.step) << "seed " << seed << " first " << first;
        ASSERT_EQ(got.violation.has_value(), ref.violation.has_value())
            << "seed " << seed << " first " << first;
        if (ref.violation.has_value()) {
          EXPECT_EQ(got.violation->property, ref.violation->property);
          EXPECT_EQ(got.violation->message, ref.violation->message);
          EXPECT_EQ(got.violation->at, ref.violation->at);
        }
        EXPECT_EQ(got.digest, ref.digest)
            << "seed " << seed << " first " << first;
      }
    }
    if (c.violates.has_value()) {
      EXPECT_GE(violating, kViolating) << "too few seeds reach the violation";
    }
  }
}

}  // namespace
}  // namespace wfd::explore
