// Checkpointed replay (explore/explorer.cpp, DESIGN.md §12): the
// explorer restores a copy of a saved scenario instead of rebuilding it
// and re-executing the prefix, so a copy must continue exactly as its
// source, and a search must count the same whichever path it takes.
//
//  1. Lockstep: for every problem whose parts are cloneable, seeded
//     random runs are cloned at every step boundary; the copy, the
//     source and a rebuild replayed to the same boundary then take the
//     same decisions to the end and must agree after every step.
//  2. Defaults: the problems whose parts keep the not-cloneable default,
//     and a scenario with a forwarding invariant decorator, refuse.
//  3. Fingerprint caches: a copy inherits its source's cached process
//     and in-flight encodings, so along seeded random runs of every
//     problem — copies included — the cached fold must equal a full
//     re-encode after every step.
//  4. Search differential: the explorer run with the factory builder
//     (checkpoint path) and with a decorated builder (rebuild path, as
//     perf's traced phase and ReductionOutcomeTest run) reports the same
//     stats, counterexample, lasso and saved snapshot.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "explore/explorer.h"
#include "explore/property.h"
#include "explore/scenario.h"
#include "explore/search_config.h"
#include "reg/abd_register.h"
#include "sim/choice.h"
#include "sim/module.h"

namespace wfd::explore {
namespace {

ScenarioOptions scenario(const std::vector<std::string>& flags) {
  SearchConfig cfg;
  for (const std::string& flag : flags) {
    EXPECT_EQ(apply_cli_flag(cfg, flag), CliResult::kApplied) << flag;
  }
  EXPECT_EQ(ScenarioFactory::validate(cfg.scenario), "");
  return cfg.scenario;
}

/// The decision log of one random run of `opt` to its end.
sim::DecisionLog random_log(const ScenarioOptions& opt, std::uint64_t seed) {
  sim::RandomChoices random(seed);
  sim::RecordingChoices rec(random);
  Scenario sc = ScenarioFactory(opt).build(rec);
  while (sc.sim->step()) {
  }
  return rec.log();
}

/// A scenario replaying `log`, with the source it asks.
struct Replayed {
  std::unique_ptr<sim::FixedChoices> choices;
  Scenario sc;
};

Replayed replay(const ScenarioOptions& opt, const sim::DecisionLog& log,
                std::uint64_t steps) {
  Replayed r;
  r.choices = std::make_unique<sim::FixedChoices>(log);
  r.sc = ScenarioFactory(opt).build(*r.choices);
  for (std::uint64_t i = 0; i < steps; ++i) {
    EXPECT_TRUE(r.sc.sim->step());
  }
  return r;
}

/// Everything the explorer reads from a state, rendered for comparison.
std::string observe(Scenario& sc) {
  std::ostringstream out;
  out << sc.sim->trace().to_string();
  const sim::LastStep& ls = sc.sim->last_step();
  out << "|last " << ls.p << ' ' << ls.delivered << ' ' << ls.was_start
      << ' ' << ls.tick_noop << ' ' << static_cast<int>(ls.action) << ' '
      << ls.fault_msg << ' ' << ls.dup_id << ' ' << ls.from;
  out << "|sent " << sc.sim->network().total_sent();
  // Checked before the fingerprint, which folds the invariants' state.
  const std::optional<Violation> v = check_invariants(sc);
  out << "|verdict "
      << (v.has_value() ? v->property + ": " + v->message : "ok");
  const std::optional<std::uint64_t> fp = scenario_fingerprint(sc);
  out << "|fp " << (fp.has_value() ? std::to_string(*fp) : "opaque");
  for (const auto& clause : sc.liveness) {
    out << "|goal " << clause->goal(*sc.sim);
  }
  return out.str();
}

/// True when some process's register module has an operation in flight
/// (its completion hook is live).
bool register_busy(const Scenario& sc) {
  for (ProcessId p = 0; p < sc.sim->n(); ++p) {
    const auto* host =
        dynamic_cast<const sim::ModuleHost*>(&sc.sim->process(p));
    if (host == nullptr) continue;
    const sim::Module* m = host->find_module("reg");
    const auto* r =
        dynamic_cast<const reg::AbdRegisterModule<std::int64_t>*>(m);
    if (r != nullptr && r->busy()) return true;
  }
  return false;
}

struct Lockstep {
  std::uint64_t clone_points = 0;
  std::uint64_t busy_points = 0;  ///< Clone points with a register op live.
};

/// Clones a random run of `opt` at every step boundary and steps the
/// copy, the source and a rebuild together to the end.
Lockstep check_lockstep(const ScenarioOptions& opt, std::uint64_t seed) {
  Lockstep out;
  const sim::DecisionLog log = random_log(opt, seed);
  Replayed probe = replay(opt, log, 0);
  std::uint64_t total = 0;
  while (probe.sc.sim->step()) ++total;
  for (std::uint64_t k = 0; k <= total; ++k) {
    SCOPED_TRACE("clone before step " + std::to_string(k + 1));
    Replayed source = replay(opt, log, k);
    Replayed rebuild = replay(opt, log, k);
    const std::uint64_t used = source.choices->consumed();
    sim::FixedChoices rest(sim::DecisionLog(
        log.begin() + static_cast<std::ptrdiff_t>(std::min<std::uint64_t>(
                          used, log.size())),
        log.end()));
    std::optional<Scenario> copy = clone_scenario(source.sc, rest);
    EXPECT_TRUE(copy.has_value());
    if (!copy.has_value()) return out;
    ++out.clone_points;
    if (register_busy(source.sc)) ++out.busy_points;
    EXPECT_EQ(observe(*copy), observe(rebuild.sc));
    for (std::uint64_t step = k + 1;; ++step) {
      const bool a = copy->sim->step();
      const bool b = source.sc.sim->step();
      const bool c = rebuild.sc.sim->step();
      EXPECT_EQ(a, c) << "step " << step;
      EXPECT_EQ(b, c) << "step " << step;
      if (!a || !b || !c) break;
      const std::string want = observe(rebuild.sc);
      EXPECT_EQ(observe(*copy), want) << "copy at step " << step;
      EXPECT_EQ(observe(source.sc), want) << "source at step " << step;
    }
  }
  return out;
}

struct Converted {
  const char* name;
  std::vector<std::string> flags;
};

const std::vector<Converted>& converted() {
  static const std::vector<Converted> kCases = {
      {"register", {"--problem=register", "--n=3", "--depth=40"}},
      {"register static",
       {"--problem=register", "--n=4", "--reg-ops=1", "--reg-readers=1",
        "--fd=static", "--depth=30"}},
      {"register-regular", {"--problem=register-regular", "--n=3",
                            "--depth=40"}},
      {"lossy register",
       {"--problem=register", "--n=3", "--loss=drop:1,dup:1", "--depth=40"}},
      {"consensus", {"--problem=consensus", "--n=3", "--depth=40"}},
      {"consensus --fd=adversarial",
       {"--problem=consensus", "--n=3", "--fd=adversarial", "--depth=40"}},
      {"consensus crash=explore",
       {"--problem=consensus", "--n=3", "--crash=explore", "--crashes=1",
        "--fd=static", "--depth=40"}},
      {"consensus leadership",
       {"--problem=consensus", "--n=3", "--fd=static",
        "--liveness=leadership", "--depth=40"}},
      {"consensus-bug", {"--problem=consensus-bug", "--n=3", "--depth=30"}},
      {"consensus-crash-bug",
       {"--problem=consensus-crash-bug", "--n=3", "--crash=explore",
        "--crashes=1", "--depth=30"}},
      {"consensus-live-bug",
       {"--problem=consensus-live-bug", "--n=2", "--fd=static",
        "--liveness=termination", "--depth=30"}},
      {"consensus-crash-live-bug",
       {"--problem=consensus-crash-live-bug", "--n=3", "--crash=explore",
        "--crashes=1", "--fd=static", "--liveness=termination",
        "--depth=40"}},
      {"sigma", {"--problem=sigma", "--n=3", "--depth=20"}},
  };
  return kCases;
}

TEST(CheckpointLockstepTest, CopiesSourcesAndRebuildsStayEqual) {
  for (const Converted& c : converted()) {
    SCOPED_TRACE(c.name);
    const ScenarioOptions opt = scenario(c.flags);
    Lockstep total;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE("seed " + std::to_string(seed));
      const Lockstep l = check_lockstep(opt, seed);
      total.clone_points += l.clone_points;
      total.busy_points += l.busy_points;
    }
    EXPECT_GT(total.clone_points, 3u);
    if (opt.problem.rfind("register", 0) == 0) {
      EXPECT_GT(total.busy_points, 0u)
          << "no clone point with a register operation in flight";
    }
  }
}

/// Forwards every call to the wrapped invariant and keeps the
/// not-cloneable default — the shape of perf's traced decorators.
class ForwardingInvariant final : public Invariant {
 public:
  explicit ForwardingInvariant(std::unique_ptr<Invariant> inner)
      : inner_(std::move(inner)) {}
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  std::optional<Violation> check(const sim::Simulator& sim) override {
    return inner_->check(sim);
  }
  void encode_state(sim::StateEncoder& enc) const override {
    inner_->encode_state(enc);
  }

 private:
  std::unique_ptr<Invariant> inner_;
};

ScenarioBuilder decorated(ScenarioBuilder inner) {
  return [inner = std::move(inner)](sim::ChoiceSource& choices) {
    Scenario sc = inner(choices);
    sc.invariants[0] =
        std::make_unique<ForwardingInvariant>(std::move(sc.invariants[0]));
    return sc;
  };
}

TEST(CheckpointDefaultsTest, UnconvertedPartsAreNotCloneable) {
  const std::vector<std::vector<std::string>> unconverted = {
      {"--problem=qc", "--n=3"},
      {"--problem=nbac", "--n=3"},
      {"--problem=rb", "--n=3"},
      {"--problem=abcast", "--n=2"},
      {"--problem=omega-impl", "--n=3"},
  };
  for (const auto& flags : unconverted) {
    SCOPED_TRACE(flags[0]);
    const ScenarioOptions opt = scenario(flags);
    sim::RandomChoices choices(1);
    Scenario sc = ScenarioFactory(opt).build(choices);
    for (int i = 0; i < 5 && sc.sim->step(); ++i) {
    }
    EXPECT_FALSE(clone_scenario(sc, choices).has_value());
  }
  // A converted scenario behind a decorator that keeps the default.
  const ScenarioOptions opt = scenario({"--problem=register", "--n=3"});
  sim::RandomChoices choices(1);
  Scenario plain = ScenarioFactory(opt).build(choices);
  EXPECT_TRUE(clone_scenario(plain, choices).has_value());
  Scenario wrapped = decorated(ScenarioFactory(opt).builder())(choices);
  EXPECT_FALSE(clone_scenario(wrapped, choices).has_value());
}

// ---- Fingerprint caches --------------------------------------------------

/// The simulator's state fold through its caches (each process's body,
/// the network's in-flight sum) and through an identity renaming, which
/// bypasses both and re-encodes everything, must agree exactly —
/// completeness included, so opaque states are compared too — and so
/// must the scenario fingerprints.
void expect_cache_exact(const Scenario& sc,
                        const std::vector<ProcessId>& identity,
                        const std::string& where) {
  sim::StateEncoder cached;
  sc.sim->encode_state(cached);
  sim::StateEncoder fresh(&identity);
  sc.sim->encode_state(fresh);
  EXPECT_EQ(cached.digest(), fresh.digest()) << where;
  EXPECT_EQ(cached.complete(), fresh.complete()) << where;
  EXPECT_EQ(scenario_fingerprint(sc), scenario_fingerprint(sc, &identity))
      << where;
}

std::vector<ProcessId> identity_of(const Scenario& sc) {
  std::vector<ProcessId> identity(static_cast<std::size_t>(sc.sim->n()));
  for (std::size_t p = 0; p < identity.size(); ++p) {
    identity[p] = static_cast<ProcessId>(p);
  }
  return identity;
}

struct CacheRun {
  std::uint64_t copy_steps = 0;
  // Injected faults.
  int crashes = 0;
  int drops = 0;
  int dups = 0;
};

/// A seeded random run of `opt`, checked after every step; a cloneable
/// run is also copied mid-run, and the copy and its source each take
/// their own further steps.
CacheRun check_fingerprint_cache(const ScenarioOptions& opt,
                                 std::uint64_t seed) {
  CacheRun out;
  sim::RandomChoices choices(seed);
  Scenario sc = ScenarioFactory(opt).build(choices);
  const std::vector<ProcessId> identity = identity_of(sc);
  expect_cache_exact(sc, identity, "initial state");
  std::optional<Scenario> copy;
  sim::RandomChoices copy_choices(seed + 1000);
  for (std::uint64_t step = 1; sc.sim->step(); ++step) {
    // The fold reads invariants' state, as the explorer's does.
    (void)check_invariants(sc);
    expect_cache_exact(sc, identity, "step " + std::to_string(step));
    if (step == 6) copy = clone_scenario(sc, copy_choices);
    if (copy.has_value() && copy->sim->step()) {
      ++out.copy_steps;
      (void)check_invariants(*copy);
      expect_cache_exact(*copy, identity,
                         "copy at source step " + std::to_string(step));
    }
  }
  if (const inject::FaultState* fs = sc.sim->faults()) {
    out.crashes = fs->crashes();
    out.drops = fs->drops();
    out.dups = fs->dups();
  }
  return out;
}

TEST(FingerprintCacheTest, CachedFoldEqualsFullReencode) {
  std::vector<std::vector<std::string>> cases;
  for (const std::string& problem : ScenarioFactory::problems()) {
    cases.push_back({"--problem=" + problem, "--n=3", "--depth=40"});
  }
  cases.push_back({"--problem=consensus", "--n=3", "--crash=explore",
                   "--crashes=1", "--fd=static", "--depth=40"});
  cases.push_back({"--problem=register", "--n=3", "--loss=drop:1,dup:1",
                   "--depth=40"});
  for (const auto& flags : cases) {
    std::string name;
    for (const std::string& flag : flags) name += flag + " ";
    SCOPED_TRACE(name);
    const ScenarioOptions opt = scenario(flags);
    CacheRun total;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE("seed " + std::to_string(seed));
      const CacheRun r = check_fingerprint_cache(opt, seed);
      total.copy_steps += r.copy_steps;
      total.crashes += r.crashes;
      total.drops += r.drops;
      total.dups += r.dups;
    }
    sim::RandomChoices choices(1);
    if (clone_scenario(ScenarioFactory(opt).build(choices), choices)) {
      EXPECT_GT(total.copy_steps, 0u) << "no copy took a step";
    }
    if (opt.crash_mode == "explore") {
      EXPECT_GT(total.crashes, 0) << "no run injected a crash";
    }
    if (opt.loss_drops > 0) {
      EXPECT_GT(total.drops, 0) << "no run dropped a message";
    }
    if (opt.loss_dups > 0) {
      EXPECT_GT(total.dups, 0) << "no run duplicated a message";
    }
  }
}

// ---- Search differential ------------------------------------------------

void expect_same_stats(const ExploreStats& a, const ExploreStats& b) {
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.sleep_skips, b.sleep_skips);
  EXPECT_EQ(a.fp_prunes, b.fp_prunes);
  EXPECT_EQ(a.hb_races, b.hb_races);
  EXPECT_EQ(a.backtrack_points, b.backtrack_points);
  EXPECT_EQ(a.commute_skips, b.commute_skips);
  EXPECT_EQ(a.injected_crashes, b.injected_crashes);
  EXPECT_EQ(a.injected_drops, b.injected_drops);
  EXPECT_EQ(a.injected_dups, b.injected_dups);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.exhausted, b.exhausted);
  EXPECT_EQ(a.liveness, b.liveness);
  EXPECT_EQ(a.graph_states, b.graph_states);
  EXPECT_EQ(a.graph_edges, b.graph_edges);
  EXPECT_EQ(a.graph_truncated, b.graph_truncated);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Explores `flags` along both paths: whole, then one --budget-states
/// installment whose saved snapshot must be byte-identical.
void expect_paths_agree(const std::vector<std::string>& flags) {
  SearchConfig cfg;
  cfg.max_states = 0;
  for (const std::string& flag : flags) {
    ASSERT_EQ(apply_cli_flag(cfg, flag), CliResult::kApplied) << flag;
  }
  ASSERT_EQ(validate(cfg), "");
  const ScenarioBuilder factory = ScenarioFactory(cfg.scenario).builder();
  const ExploreReport ckpt = Explorer(factory, cfg).run();
  const ExploreReport rebuilt = Explorer(decorated(factory), cfg).run();
  EXPECT_GT(ckpt.restored_steps, 0u);
  EXPECT_EQ(rebuilt.restored_steps, 0u);
  EXPECT_LT(ckpt.replayed_steps, rebuilt.replayed_steps);
  EXPECT_EQ(ckpt.stats.steps - ckpt.restored_steps - ckpt.replayed_steps,
            rebuilt.stats.steps - rebuilt.replayed_steps);
  expect_same_stats(ckpt.stats, rebuilt.stats);
  EXPECT_EQ(ckpt.conservative_payloads, rebuilt.conservative_payloads);
  EXPECT_EQ(ckpt.fair_cycle_checked, rebuilt.fair_cycle_checked);
  ASSERT_EQ(ckpt.cex.has_value(), rebuilt.cex.has_value());
  if (ckpt.cex.has_value()) {
    EXPECT_EQ(ckpt.cex->decisions, rebuilt.cex->decisions);
    EXPECT_EQ(ckpt.cex->loop, rebuilt.cex->loop);
    EXPECT_EQ(ckpt.cex->steps, rebuilt.cex->steps);
    EXPECT_EQ(ckpt.cex->loop_steps, rebuilt.cex->loop_steps);
    EXPECT_EQ(ckpt.cex->violation.property, rebuilt.cex->violation.property);
    EXPECT_EQ(ckpt.cex->violation.message, rebuilt.cex->violation.message);
  }

  SearchConfig part = cfg;
  part.budget_states = ckpt.stats.nodes / 3 + 1;
  // Per test: ctest runs the differential tests as parallel processes.
  const std::string stem =
      testing::TempDir() + "wfd_ckpt_" +
      testing::UnitTest::GetInstance()->current_test_info()->name();
  const std::string a = stem + "_a.wfds";
  const std::string b = stem + "_b.wfds";
  part.save_path = a;
  const ExploreReport pa = Explorer(factory, part).run();
  part.save_path = b;
  const ExploreReport pb = Explorer(decorated(factory), part).run();
  ASSERT_TRUE(pa.save_error.empty()) << pa.save_error;
  ASSERT_TRUE(pb.save_error.empty()) << pb.save_error;
  EXPECT_FALSE(pa.stats.exhausted);
  // Compared as a boolean: gtest's line diff of two large strings needs
  // memory quadratic in their length.
  const std::string sa = read_file(a);
  const std::string sb = read_file(b);
  EXPECT_TRUE(sa == sb) << "snapshots differ: " << sa.size() << " vs "
                        << sb.size() << " bytes";
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(CheckpointDifferentialTest, RegisterSerial) {
  expect_paths_agree({"--problem=register", "--n=3", "--reg-ops=1",
                      "--reg-readers=1", "--fd=static", "--depth=20",
                      "--reduction=dpor", "--threads=1"});
}

TEST(CheckpointDifferentialTest, RegisterFourThreads) {
  expect_paths_agree({"--problem=register", "--n=3", "--reg-ops=1",
                      "--reg-readers=1", "--fd=static", "--depth=20",
                      "--reduction=dpor", "--threads=4"});
}

TEST(CheckpointDifferentialTest, LossyRegister) {
  expect_paths_agree({"--problem=register", "--n=2", "--reg-ops=1",
                      "--reg-readers=1", "--fd=static",
                      "--loss=drop:1,dup:1", "--depth=9"});
}

TEST(CheckpointDifferentialTest, ConsensusExploredCrashes) {
  expect_paths_agree({"--problem=consensus", "--n=3", "--crash=explore",
                      "--fd=static", "--depth=12"});
}

TEST(CheckpointDifferentialTest, ConsensusSymmetry) {
  expect_paths_agree({"--problem=consensus", "--n=3", "--fd=static",
                      "--symmetry", "--depth=14"});
}

TEST(CheckpointDifferentialTest, ConsensusAdversarial) {
  expect_paths_agree({"--problem=consensus", "--n=3", "--fd=adversarial",
                      "--depth=10", "--max-states=5000"});
}

TEST(CheckpointDifferentialTest, CrashLivenessLasso) {
  expect_paths_agree({"--problem=consensus-crash-live-bug", "--n=3",
                      "--crash=explore", "--crashes=1",
                      "--liveness=termination", "--fd=static",
                      "--reduction=none", "--depth=7"});
}

}  // namespace
}  // namespace wfd::explore
