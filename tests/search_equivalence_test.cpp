// The wave-scheduled explorer's two headline guarantees, end to end:
//
//  1. Thread-count invariance: every decision that shapes the search is
//     a pure function of the committed search state, so the full stats
//     block — states, runs, reduction counters, injected faults,
//     violations, coverage — is bit-identical for every
//     SearchConfig::threads value, across the fault matrix (explored
//     crashes, lossy links, a seeded bug).
//
//  2. Symmetry soundness: canonical fingerprints are the minimum digest
//     over the scenario's symmetry group, so two runs that differ only
//     by a renaming of interchangeable processes — schedule AND
//     detector choices renamed together — produce equal canonical
//     fingerprints from genuinely different states, the reduction
//     shrinks the tree, and it still finds the seeded bug.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "explore/explorer.h"
#include "explore/scenario.h"
#include "explore/search_config.h"
#include "sim/choice.h"
#include "sim/scheduler.h"
#include "sim/simulator.h"
#include "sim/state_encoder.h"

namespace wfd::explore {
namespace {

// ---- Thread-count invariance ------------------------------------------

void expect_same_stats(const ExploreStats& a, const ExploreStats& b,
                       const char* what) {
  EXPECT_EQ(a.nodes, b.nodes) << what;
  EXPECT_EQ(a.runs, b.runs) << what;
  EXPECT_EQ(a.steps, b.steps) << what;
  EXPECT_EQ(a.sleep_skips, b.sleep_skips) << what;
  EXPECT_EQ(a.fp_prunes, b.fp_prunes) << what;
  EXPECT_EQ(a.hb_races, b.hb_races) << what;
  EXPECT_EQ(a.backtrack_points, b.backtrack_points) << what;
  EXPECT_EQ(a.commute_skips, b.commute_skips) << what;
  EXPECT_EQ(a.injected_crashes, b.injected_crashes) << what;
  EXPECT_EQ(a.injected_drops, b.injected_drops) << what;
  EXPECT_EQ(a.injected_dups, b.injected_dups) << what;
  EXPECT_EQ(a.violations, b.violations) << what;
  EXPECT_EQ(a.exhausted, b.exhausted) << what;
}

/// Runs the scenario at threads = 1, 2, 8 and requires the T=1 report
/// to be reproduced exactly: same stats block, same coverage, same
/// counterexample presence and property.
void expect_thread_invariant(const SearchConfig& base, const char* what) {
  SearchConfig cfg = base;
  cfg.threads = 1;
  ASSERT_EQ(validate(cfg), "") << what;
  Explorer serial(ScenarioFactory(cfg.scenario).builder(), cfg);
  const ExploreReport ref = serial.run();
  for (int threads : {2, 8}) {
    SearchConfig par = base;
    par.threads = threads;
    Explorer ex(ScenarioFactory(par.scenario).builder(), par);
    const ExploreReport rep = ex.run();
    expect_same_stats(ref.stats, rep.stats, what);
    EXPECT_EQ(coverage(ref.stats), coverage(rep.stats)) << what;
    EXPECT_EQ(ref.cex.has_value(), rep.cex.has_value()) << what;
    if (ref.cex.has_value() && rep.cex.has_value()) {
      EXPECT_EQ(ref.cex->violation.property, rep.cex->violation.property)
          << what;
    }
    EXPECT_EQ(ref.conservative_payloads, rep.conservative_payloads) << what;
  }
}

TEST(ParallelEquivalenceTest, ExploredCrashesAreThreadCountInvariant) {
  SearchConfig cfg;
  cfg.scenario.problem = "consensus";
  cfg.scenario.n = 3;
  cfg.scenario.max_steps = 10;
  cfg.scenario.fd_per_query = false;
  cfg.scenario.crash_mode = "explore";
  cfg.max_states = 0;
  cfg.stop_at_first = false;
  expect_thread_invariant(cfg, "consensus n=3 crash=explore");
}

TEST(ParallelEquivalenceTest, SymmetryComposesWithThreads) {
  SearchConfig cfg;
  cfg.scenario.problem = "consensus";
  cfg.scenario.n = 3;
  cfg.scenario.max_steps = 12;
  cfg.scenario.fd_per_query = false;
  cfg.symmetry = true;
  cfg.max_states = 0;
  cfg.stop_at_first = false;
  expect_thread_invariant(cfg, "consensus n=3 symmetry");
}

TEST(ParallelEquivalenceTest, LossyRegisterIsThreadCountInvariant) {
  SearchConfig cfg;
  cfg.scenario.problem = "register";
  cfg.scenario.n = 2;
  cfg.scenario.max_steps = 10;
  cfg.scenario.fd_per_query = false;
  cfg.scenario.reg_ops = 1;
  cfg.scenario.reg_readers = 1;
  cfg.scenario.loss_drops = 1;
  cfg.scenario.loss_dups = 1;
  cfg.max_states = 0;
  cfg.stop_at_first = false;
  expect_thread_invariant(cfg, "lossy register n=2");
}

TEST(ParallelEquivalenceTest, SeededBugIsThreadCountInvariant) {
  SearchConfig cfg;
  cfg.scenario.problem = "consensus-bug";
  cfg.scenario.n = 2;
  cfg.scenario.max_steps = 6;
  cfg.max_states = 0;
  cfg.stop_at_first = false;
  expect_thread_invariant(cfg, "consensus-bug n=2");
}

// ---- Symmetry reduction soundness -------------------------------------

ExploreReport explore(const SearchConfig& cfg) {
  SearchConfig c = cfg;
  EXPECT_EQ(validate(c), "");
  Explorer ex(ScenarioFactory(c.scenario).builder(), c);
  return ex.run();
}

// Canonicalization must shrink the tree without losing coverage: both
// searches exhaust, agree on violations, and the symmetric one
// materializes strictly fewer choice points (n=3 consensus has the
// even-parity pair {0, 2} interchangeable).
TEST(SymmetrySoundnessTest, ReductionExhaustsWithFewerStates) {
  SearchConfig plain;
  plain.scenario.problem = "consensus";
  plain.scenario.n = 3;
  plain.scenario.max_steps = 12;
  plain.scenario.fd_per_query = false;
  plain.max_states = 0;
  plain.stop_at_first = false;
  SearchConfig sym = plain;
  sym.symmetry = true;

  const ExploreReport rp = explore(plain);
  const ExploreReport rs = explore(sym);
  EXPECT_TRUE(rp.stats.exhausted);
  EXPECT_TRUE(rs.stats.exhausted);
  EXPECT_EQ(rp.stats.violations, 0u);
  EXPECT_EQ(rs.stats.violations, 0u);
  EXPECT_LT(rs.stats.nodes, rp.stats.nodes);
}

// Soundness against a known defect: the seeded agreement bug must
// survive canonicalization (a reduction that merges too much would
// prune the violating branch). n=3 so the even parity class {0, 2}
// gives the renaming group something to act on.
TEST(SymmetrySoundnessTest, SeededBugSurvivesCanonicalization) {
  SearchConfig cfg;
  cfg.scenario.problem = "consensus-bug";
  cfg.scenario.n = 3;
  cfg.scenario.max_steps = 8;
  cfg.symmetry = true;
  cfg.max_states = 0;
  cfg.stop_at_first = false;
  const ExploreReport rep = explore(cfg);
  EXPECT_TRUE(rep.stats.exhausted);
  EXPECT_GT(rep.stats.violations, 0u);
  ASSERT_TRUE(rep.cex.has_value());
  EXPECT_EQ(rep.cex->violation.property, "agreement(decide)");
}

// ---- Canonical fingerprints across renamings --------------------------

/// Baseline run: schedule choices step `order` in sequence, every other
/// choice takes option 0 and records its label so a twin run can map it.
class BaseRun : public sim::ChoiceSource {
 public:
  explicit BaseRun(std::vector<ProcessId> order) : order_(std::move(order)) {}

  std::size_t choose(sim::ChoiceKind kind,
                     const std::vector<std::uint64_t>& labels) override {
    if (kind == sim::ChoiceKind::kSchedule) {
      EXPECT_LT(next_, order_.size());
      const ProcessId want = order_[next_++];
      for (std::size_t i = 0; i < labels.size(); ++i) {
        if (sim::ReplayScheduler::label_process(labels[i]) == want) return i;
      }
      ADD_FAILURE() << "no schedule option for process " << want;
      return 0;
    }
    if (kind == sim::ChoiceKind::kFd) fd_picks_.push_back(labels[0]);
    return 0;
  }

  [[nodiscard]] const std::vector<std::uint64_t>& fd_picks() const {
    return fd_picks_;
  }

 private:
  std::vector<ProcessId> order_;
  std::size_t next_ = 0;
  std::vector<std::uint64_t> fd_picks_;
};

/// The pi-image of a BaseRun: schedules pi(order), and answers each
/// detector choice with the pi-image of the baseline's pick. Omega
/// labels are process ids (all < n), sigma labels are quorum bitmasks;
/// both rename field by field.
class RenamedRun : public sim::ChoiceSource {
 public:
  RenamedRun(std::vector<ProcessId> order, const std::vector<ProcessId>& perm,
             const std::vector<std::uint64_t>& base_fd)
      : order_(std::move(order)), perm_(perm), base_fd_(base_fd) {}

  std::size_t choose(sim::ChoiceKind kind,
                     const std::vector<std::uint64_t>& labels) override {
    if (kind == sim::ChoiceKind::kSchedule) {
      EXPECT_LT(next_, order_.size());
      const auto idx = static_cast<std::size_t>(order_[next_++]);
      const ProcessId want = perm_[idx];
      for (std::size_t i = 0; i < labels.size(); ++i) {
        if (sim::ReplayScheduler::label_process(labels[i]) == want) return i;
      }
      ADD_FAILURE() << "no schedule option for process " << want;
      return 0;
    }
    if (kind == sim::ChoiceKind::kFd) {
      EXPECT_LT(fd_i_, base_fd_.size());
      const std::uint64_t want = map_label(base_fd_[fd_i_++], labels);
      for (std::size_t i = 0; i < labels.size(); ++i) {
        if (labels[i] == want) return i;
      }
      ADD_FAILURE() << "renamed detector label " << want << " not offered";
    }
    return 0;
  }

 private:
  [[nodiscard]] std::uint64_t map_label(
      std::uint64_t label, const std::vector<std::uint64_t>& labels) const {
    const auto n = static_cast<std::uint64_t>(perm_.size());
    const bool pids = std::all_of(labels.begin(), labels.end(),
                                  [n](std::uint64_t l) { return l < n; });
    if (pids) return static_cast<std::uint64_t>(perm_[label]);
    std::uint64_t out = 0;
    for (std::size_t p = 0; p < perm_.size(); ++p) {
      if ((label >> p) & 1) out |= std::uint64_t{1} << perm_[p];
    }
    return out;
  }

  std::vector<ProcessId> order_;
  std::size_t next_ = 0;
  const std::vector<ProcessId>& perm_;
  const std::vector<std::uint64_t>& base_fd_;
  std::size_t fd_i_ = 0;
};

/// The composed digest exactly as the explorer computes it: simulator
/// plus invariants, optionally through a renaming.
std::uint64_t digest(const Scenario& sc, const std::vector<ProcessId>* perm) {
  sim::StateEncoder enc(perm);
  sc.sim->encode_state(enc);
  std::size_t i = 0;
  for (const auto& inv : sc.invariants) {
    enc.push("invariant", i++);
    inv->encode_state(enc);
    enc.pop();
  }
  EXPECT_TRUE(enc.complete());
  return enc.digest();
}

// Two runs of consensus n=3 related by the even-class swap 0 <-> 2 —
// schedule and detector history renamed together — reach states that
// are exact renamings of each other: the digest of one under the
// permutation equals the plain digest of the other, so the canonical
// (minimum over the group) fingerprints coincide even though the plain
// fingerprints keep the genuinely different states apart.
TEST(SymmetrySoundnessTest, CanonicalFingerprintAgreesAcrossRenamings) {
  ScenarioOptions opt;
  opt.problem = "consensus";
  opt.n = 3;
  opt.max_steps = 10;
  opt.fd_per_query = false;

  // The even parity class {0, 2} must be declared interchangeable.
  const auto classes = ScenarioFactory::symmetry_classes(opt);
  ASSERT_FALSE(classes.empty());
  ASSERT_NE(std::find(classes.begin(), classes.end(),
                      std::vector<ProcessId>({0, 2})),
            classes.end());
  const std::vector<ProcessId> swap02 = {2, 1, 0};

  const std::vector<ProcessId> order = {0, 2, 0};
  BaseRun a(order);
  Scenario sa = ScenarioFactory(opt).build(a);
  for (std::size_t i = 0; i < order.size(); ++i) ASSERT_TRUE(sa.sim->step());
  RenamedRun b(order, swap02, a.fd_picks());
  Scenario sb = ScenarioFactory(opt).build(b);
  for (std::size_t i = 0; i < order.size(); ++i) ASSERT_TRUE(sb.sim->step());

  const std::uint64_t a_id = digest(sa, nullptr);
  const std::uint64_t a_sw = digest(sa, &swap02);
  const std::uint64_t b_id = digest(sb, nullptr);
  const std::uint64_t b_sw = digest(sb, &swap02);

  EXPECT_NE(a_id, b_id) << "different states must hash apart plainly";
  EXPECT_EQ(a_sw, b_id) << "digest under pi = plain digest of the "
                           "pi-renamed state";
  EXPECT_EQ(b_sw, a_id);
  EXPECT_EQ(std::min(a_id, a_sw), std::min(b_id, b_sw))
      << "canonical fingerprints must merge the renamed pair";
}

// ---- Golden search counts ----------------------------------------------

// The complete stats block of five small exhaustive searches, pinned.
// Any change to a reduction, a state encoding, the schedule menu or the
// message buffer that alters the explored tree — one state, one prune,
// one backtrack point — fails here. The test runs in every preset, so
// the sanitizer builds replay the exact searches with their exactness
// cross-checks on (e.g. cached message encodings recomputed, see
// sim/network.h).
struct Golden {
  const char* name;
  std::vector<std::string> flags;  ///< wfd_check scenario/search flags.
  ExploreStats want;
  /// Liveness searches: graph_digest() of the saved snapshot.
  std::uint64_t graph_digest = 0;
};

ExploreStats golden_stats(std::uint64_t nodes, std::uint64_t runs,
                          std::uint64_t steps, std::uint64_t sleep_skips,
                          std::uint64_t fp_prunes, std::uint64_t hb_races,
                          std::uint64_t backtrack_points,
                          std::uint64_t commute_skips,
                          std::uint64_t injected_crashes) {
  ExploreStats s;
  s.nodes = nodes;
  s.runs = runs;
  s.steps = steps;
  s.sleep_skips = sleep_skips;
  s.fp_prunes = fp_prunes;
  s.hb_races = hb_races;
  s.backtrack_points = backtrack_points;
  s.commute_skips = commute_skips;
  s.injected_crashes = injected_crashes;
  s.exhausted = true;
  return s;
}

std::vector<Golden> golden_searches() {
  std::vector<Golden> g = {
      {"register n=3 d14 dpor",
       {"--problem=register", "--n=3", "--fd=static", "--reg-ops=1",
        "--reg-readers=1", "--depth=14", "--reduction=dpor"},
       golden_stats(8223, 22474, 278129, 72401, 19041, 3696, 45250, 32191,
                    0)},
      {"consensus n=3 d12 symmetry",
       {"--problem=consensus", "--n=3", "--fd=static", "--depth=12",
        "--symmetry"},
       golden_stats(3519, 5082, 51337, 19302, 4041, 379, 12048, 0, 0)},
      {"consensus n=3 d10 crash=explore",
       {"--problem=consensus", "--n=3", "--fd=static", "--depth=10",
        "--crash=explore", "--crashes=1"},
       golden_stats(16458, 18473, 160482, 72669, 4005, 0, 22941, 0, 13452)},
      {"consensus n=3 d10 liveness=termination",
       {"--problem=consensus", "--n=3", "--fd=static", "--depth=10",
        "--liveness=termination", "--reduction=none"},
       golden_stats(7138, 27890, 230260, 0, 25957, 0, 0, 0, 0)},
      {"rb n=3",
       {"--problem=rb", "--n=3"},
       golden_stats(15, 4, 36, 0, 0, 3, 3, 36, 0)},
  };
  ExploreStats& live = g[3].want;
  live.liveness = true;
  live.graph_states = 2774;
  live.graph_edges = 10698;
  live.graph_truncated = 548;
  g[3].graph_digest = 17145195937447422792ull;
  return g;
}

SearchConfig golden_config(const std::vector<std::string>& flags) {
  SearchConfig cfg;
  cfg.max_states = 0;
  for (const std::string& flag : flags) {
    EXPECT_EQ(apply_cli_flag(cfg, flag), CliResult::kApplied) << flag;
  }
  return cfg;
}

/// FNV-1a over a saved snapshot's fingerprint and state-graph lines
/// (fps=, groot=, gnode=, gedge=): the explored states and the recorded
/// graph by content, in committed order — "same graph" beyond counts.
std::uint64_t graph_digest(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::uint64_t h = 0xcbf29ce484222325ull;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("fps=", 0) != 0 && line.rfind("groot=", 0) != 0 &&
        line.rfind("gnode=", 0) != 0 && line.rfind("gedge=", 0) != 0) {
      continue;
    }
    line += '\n';
    for (const char c : line) {
      h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
    }
  }
  return h;
}

TEST(GoldenSearchTest, StatsBlocksArePinned) {
  for (const Golden& g : golden_searches()) {
    SCOPED_TRACE(g.name);
    SearchConfig cfg = golden_config(g.flags);
    if (g.want.liveness) {
      cfg.save_path = testing::TempDir() + "wfd_golden_live.wfds";
    }
    const ExploreReport rep = explore(cfg);
    if (g.want.liveness) {
      ASSERT_TRUE(rep.save_error.empty()) << rep.save_error;
      EXPECT_EQ(graph_digest(cfg.save_path), g.graph_digest);
      std::remove(cfg.save_path.c_str());
    }
    expect_same_stats(rep.stats, g.want, g.name);
    EXPECT_EQ(rep.stats.liveness, g.want.liveness);
    EXPECT_EQ(rep.stats.graph_states, g.want.graph_states);
    EXPECT_EQ(rep.stats.graph_edges, g.want.graph_edges);
    EXPECT_EQ(rep.stats.graph_truncated, g.want.graph_truncated);
    EXPECT_FALSE(rep.cex.has_value());
    EXPECT_EQ(rep.fair_cycle_checked, g.want.liveness);
    EXPECT_TRUE(rep.conservative_payloads.empty());
  }
}

// The seeded crash-wedge liveness bug (explore/seeded_bug.h) at depth 7:
// the crash-composed state graph and the lasso the fair-cycle search
// reports (unshrunk), pinned. A transition lost or mis-attributed by a
// shortcut over a replayed prefix (a checkpoint restore) moves these
// counts, the lasso or the saved graph's digest.
TEST(GoldenSearchTest, CrashLivenessGraphAndLassoArePinned) {
  SearchConfig cfg = golden_config(
      {"--problem=consensus-crash-live-bug", "--n=3", "--crash=explore",
       "--crashes=1", "--liveness=termination", "--fd=static",
       "--reduction=none", "--depth=7"});
  cfg.save_path = testing::TempDir() + "wfd_golden_crash_live.wfds";
  const ExploreReport rep = explore(cfg);
  expect_same_stats(rep.stats,
                    golden_stats(12290, 36681, 239551, 0, 23995, 0, 0, 0,
                                 27169),
                    "crash-live-bug d7");
  EXPECT_EQ(rep.stats.graph_states, 9984u);
  EXPECT_EQ(rep.stats.graph_edges, 21958u);
  EXPECT_EQ(rep.stats.graph_truncated, 5154u);
  EXPECT_TRUE(rep.fair_cycle_checked);
  EXPECT_TRUE(rep.lasso_error.empty()) << rep.lasso_error;
  ASSERT_TRUE(rep.cex.has_value());
  EXPECT_EQ(rep.cex->decisions, (sim::DecisionLog{0, 0, 0, 2, 2, 4, 6, 0, 1}));
  EXPECT_EQ(rep.cex->loop, (sim::DecisionLog{0, 1}));
  ASSERT_TRUE(rep.save_error.empty()) << rep.save_error;
  EXPECT_EQ(graph_digest(cfg.save_path), 15844492909837552755ull);
  std::remove(cfg.save_path.c_str());
}

// A seeded safety bug searched without stopping at the first violation,
// with and without reduction: every violating run is counted, and the
// first counterexample found is pinned. A skipped invariant check that
// hid a violation, or reported one at another step, moves the count or
// the decisions.
TEST(GoldenSearchTest, SeededBugViolationsArePinned) {
  struct Case {
    const char* name;
    std::vector<std::string> flags;
    ExploreStats want;
    std::uint64_t violations;
    sim::DecisionLog first;
  };
  const Case cases[] = {
      {"consensus-bug n=3 d10 dpor",
       {"--problem=consensus-bug", "--n=3", "--depth=10"},
       golden_stats(285, 586, 4031, 4027, 527, 151, 1890, 0, 0), 48,
       {0, 2, 6, 1, 3}},
      {"consensus-bug n=3 d10 none",
       {"--problem=consensus-bug", "--n=3", "--reduction=none",
        "--depth=10"},
       golden_stats(612, 4160, 30464, 0, 2766, 0, 0, 0, 0), 830,
       {1, 0, 0, 0, 1, 1, 2, 0, 1, 3}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    SearchConfig cfg = golden_config(c.flags);
    cfg.stop_at_first = false;
    const ExploreReport rep = explore(cfg);
    ExploreStats want = c.want;
    want.violations = c.violations;
    expect_same_stats(rep.stats, want, c.name);
    ASSERT_TRUE(rep.cex.has_value());
    EXPECT_EQ(rep.cex->violation.property, "agreement(decide)");
    EXPECT_EQ(rep.cex->decisions, c.first);
  }
}

}  // namespace
}  // namespace wfd::explore
