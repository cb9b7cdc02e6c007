// Persistent search snapshots (explore/state_store.h) and the
// save/resume path through the explorer: the v3 text format (unit queue
// + node registry + search header) round-trips, corrupt or truncated
// snapshots are rejected, a snapshot never resumes under a different
// scenario or reduction configuration, and — the headline property — a
// search split across budgeted save/resume invocations ends with
// exactly the stats, coverage and violation of a single uninterrupted
// run, even when an invocation was abandoned mid-wave by cooperative
// cancel.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>

#include "explore/explorer.h"
#include "explore/scenario.h"
#include "explore/search_config.h"
#include "explore/state_store.h"

namespace wfd::explore {
namespace {

StateSnapshot sample_snapshot() {
  StateSnapshot s;
  s.config.scenario.problem = "consensus-bug";
  s.config.scenario.n = 3;
  s.config.scenario.max_steps = 30;
  s.config.reduction = Reduction::kDpor;
  s.config.symmetry = true;
  s.resume_generation = 3;
  s.wave = 2;
  s.next_unit_id = 6;
  s.stats.nodes = 41;
  s.stats.runs = 11;
  s.stats.steps = 512;
  s.stats.sleep_skips = 9;
  s.stats.fp_prunes = 4;
  s.stats.hb_races = 2;
  s.stats.backtrack_points = 17;
  s.stats.violations = 1;
  s.stats.injected_crashes = 3;
  s.conservative_payloads = {"weird\npayload", "zeta"};
  FrameState f0;
  f0.kind = sim::ChoiceKind::kSchedule;
  f0.labels = {10, 20, 30};
  f0.chosen = 1;
  f0.sleep = {10};
  f0.explored = {20};
  f0.backtrack = {20, 30};
  FrameState f1;
  f1.kind = sim::ChoiceKind::kFd;
  f1.labels = {0, 1};
  f1.chosen = 0;
  f1.blocked = true;
  UnitState u0;
  u0.id = 2;
  u0.floor = 1;
  u0.path_pending = true;
  u0.frames = {f0, f1};
  UnitState u1;
  u1.id = 5;
  u1.floor = 0;
  u1.path_pending = false;
  u1.frames = {f0};
  s.units = {u0, u1};
  NodeState n0;
  n0.key = {0x123456789abcdef0ull, 0x0fedcba987654321ull};
  n0.assigned = {20, 10};
  NodeState n1;
  n1.key = {7, 8};
  n1.assigned = {};
  s.nodes = {n0, n1};
  s.fingerprints = {{3, 9}, {77, 0}, {12345678901234567890ull, 4}};
  return s;
}

TEST(StateStoreTest, TextRoundTripsEveryField) {
  const StateSnapshot s = sample_snapshot();
  std::string error;
  const auto p = parse_snapshot(to_text(s), &error);
  ASSERT_TRUE(p.has_value()) << error;
  EXPECT_EQ(p->version, StateSnapshot::kVersion);
  EXPECT_EQ(p->config.scenario.problem, s.config.scenario.problem);
  EXPECT_EQ(p->config.scenario.n, s.config.scenario.n);
  EXPECT_EQ(p->config.scenario.max_steps, s.config.scenario.max_steps);
  EXPECT_EQ(p->config.reduction, s.config.reduction);
  EXPECT_EQ(p->config.symmetry, s.config.symmetry);
  EXPECT_EQ(p->config.state_fingerprints, s.config.state_fingerprints);
  EXPECT_EQ(p->resume_generation, s.resume_generation);
  EXPECT_EQ(p->wave, s.wave);
  EXPECT_EQ(p->next_unit_id, s.next_unit_id);
  EXPECT_EQ(p->stats.nodes, s.stats.nodes);
  EXPECT_EQ(p->stats.runs, s.stats.runs);
  EXPECT_EQ(p->stats.steps, s.stats.steps);
  EXPECT_EQ(p->stats.sleep_skips, s.stats.sleep_skips);
  EXPECT_EQ(p->stats.fp_prunes, s.stats.fp_prunes);
  EXPECT_EQ(p->stats.hb_races, s.stats.hb_races);
  EXPECT_EQ(p->stats.backtrack_points, s.stats.backtrack_points);
  EXPECT_EQ(p->stats.violations, s.stats.violations);
  EXPECT_EQ(p->stats.injected_crashes, s.stats.injected_crashes);
  EXPECT_EQ(p->stats.exhausted, s.stats.exhausted);
  EXPECT_EQ(p->conservative_payloads, s.conservative_payloads);
  ASSERT_EQ(p->units.size(), s.units.size());
  for (std::size_t i = 0; i < s.units.size(); ++i) {
    EXPECT_EQ(p->units[i].id, s.units[i].id) << i;
    EXPECT_EQ(p->units[i].floor, s.units[i].floor) << i;
    EXPECT_EQ(p->units[i].path_pending, s.units[i].path_pending) << i;
    ASSERT_EQ(p->units[i].frames.size(), s.units[i].frames.size()) << i;
    for (std::size_t j = 0; j < s.units[i].frames.size(); ++j) {
      const FrameState& a = p->units[i].frames[j];
      const FrameState& b = s.units[i].frames[j];
      EXPECT_EQ(a.kind, b.kind) << i << "/" << j;
      EXPECT_EQ(a.chosen, b.chosen) << i << "/" << j;
      EXPECT_EQ(a.blocked, b.blocked) << i << "/" << j;
      EXPECT_EQ(a.labels, b.labels) << i << "/" << j;
      EXPECT_EQ(a.sleep, b.sleep) << i << "/" << j;
      EXPECT_EQ(a.explored, b.explored) << i << "/" << j;
      EXPECT_EQ(a.backtrack, b.backtrack) << i << "/" << j;
    }
  }
  ASSERT_EQ(p->nodes.size(), s.nodes.size());
  for (std::size_t i = 0; i < s.nodes.size(); ++i) {
    EXPECT_EQ(p->nodes[i].key, s.nodes[i].key) << i;
    EXPECT_EQ(p->nodes[i].assigned, s.nodes[i].assigned) << i;
  }
  EXPECT_EQ(p->fingerprints, s.fingerprints);
  // Rendering is canonical: parse(text) re-renders byte-identically.
  EXPECT_EQ(to_text(*p), to_text(s));
}

/// A v5 snapshot with the liveness state graph populated: two nodes in
/// insertion order, a self-loop, a cross edge (a delivery carrying its
/// sender — the channel half of the v5 format), an adversary edge, and
/// a truncated unexpanded frontier node.
StateSnapshot liveness_snapshot() {
  StateSnapshot s = sample_snapshot();
  s.config.scenario.problem = "consensus-live-bug";
  s.config.scenario.liveness = "termination";
  s.config.scenario.fd_per_query = false;
  s.config.reduction = Reduction::kNone;
  s.config.symmetry = false;
  s.stats.liveness = true;
  s.stats.graph_states = 2;
  s.stats.graph_edges = 3;
  s.stats.graph_truncated = 1;
  s.graph.root = 0xfeedull;
  s.graph.have_root = true;
  LiveGraphNode& a = s.graph.at(0xfeedull);
  a.goal = false;
  a.enabled = 0b11;
  // Channel bits (live_channel_bit): 0->1 and 1->0 both pending.
  a.deliverable = live_channel_bit(0, 1) | live_channel_bit(1, 0);
  a.expanded = true;
  LiveGraphEdge self;
  self.choices = {0};
  self.dst = 0xfeedull;
  self.sched = 0;
  LiveGraphEdge hop;
  hop.choices = {1, 2, 0};
  hop.dst = 0xbeefull;
  hop.sched = 1;
  hop.sender = 0;
  hop.deliver = true;
  LiveGraphEdge crash;
  crash.choices = {3};
  crash.dst = 0xbeefull;
  crash.sched = kNoProcess;
  crash.fault = true;
  a.edges = {self, hop, crash};
  LiveGraphNode& b = s.graph.at(0xbeefull);
  b.goal = true;
  b.enabled = 0b01;
  b.truncated = true;
  return s;
}

TEST(StateStoreTest, TextRoundTripsLivenessGraph) {
  const StateSnapshot s = liveness_snapshot();
  std::string error;
  const auto p = parse_snapshot(to_text(s), &error);
  ASSERT_TRUE(p.has_value()) << error;
  EXPECT_EQ(p->config.scenario.liveness, "termination");
  EXPECT_TRUE(p->stats.liveness);
  EXPECT_EQ(p->stats.graph_states, s.stats.graph_states);
  EXPECT_EQ(p->stats.graph_edges, s.stats.graph_edges);
  EXPECT_EQ(p->stats.graph_truncated, s.stats.graph_truncated);
  EXPECT_TRUE(p->graph.have_root);
  EXPECT_EQ(p->graph.root, s.graph.root);
  // Insertion order is part of the format: the fair-cycle search is
  // only deterministic in it.
  ASSERT_EQ(p->graph.order, s.graph.order);
  for (const std::uint64_t fp : s.graph.order) {
    const LiveGraphNode& want = s.graph.nodes.at(fp);
    ASSERT_TRUE(p->graph.nodes.count(fp)) << fp;
    const LiveGraphNode& got = p->graph.nodes.at(fp);
    EXPECT_EQ(got.goal, want.goal) << fp;
    EXPECT_EQ(got.enabled, want.enabled) << fp;
    EXPECT_EQ(got.deliverable, want.deliverable) << fp;
    EXPECT_EQ(got.expanded, want.expanded) << fp;
    EXPECT_EQ(got.truncated, want.truncated) << fp;
    ASSERT_EQ(got.edges.size(), want.edges.size()) << fp;
    for (std::size_t i = 0; i < want.edges.size(); ++i) {
      EXPECT_EQ(got.edges[i].choices, want.edges[i].choices) << fp << "/" << i;
      EXPECT_EQ(got.edges[i].dst, want.edges[i].dst) << fp << "/" << i;
      EXPECT_EQ(got.edges[i].sched, want.edges[i].sched) << fp << "/" << i;
      EXPECT_EQ(got.edges[i].sender, want.edges[i].sender)
          << fp << "/" << i;
      EXPECT_EQ(got.edges[i].fault, want.edges[i].fault) << fp << "/" << i;
      EXPECT_EQ(got.edges[i].deliver, want.edges[i].deliver)
          << fp << "/" << i;
    }
  }
  // Rendering is canonical here too.
  EXPECT_EQ(to_text(*p), to_text(s));
}

TEST(StateStoreTest, GraphSectionIsStructurallyValidated) {
  const std::string good = to_text(liveness_snapshot());
  std::string error;
  ASSERT_TRUE(parse_snapshot(good, &error).has_value()) << error;

  // A dropped edge line leaves its node owing edges.
  std::string missing = good;
  const std::size_t at = missing.find("gedge=");
  ASSERT_NE(at, std::string::npos);
  missing.erase(at, missing.find('\n', at) - at + 1);
  EXPECT_FALSE(parse_snapshot(missing, &error).has_value());
  EXPECT_NE(error.find("edges"), std::string::npos) << error;

  // An edge with no open node is orphaned.
  std::string orphan = good;
  const std::size_t gn = orphan.find("gnode=");
  ASSERT_NE(gn, std::string::npos);
  orphan.insert(gn, "gedge=d=1;p=1;f=0;dv=0;c=0\n");
  EXPECT_FALSE(parse_snapshot(orphan, &error).has_value());

  // The count trailer catches a silently lost node.
  std::string fewer = good;
  const std::size_t total = fewer.find("gnodes_total=2");
  ASSERT_NE(total, std::string::npos);
  fewer.replace(total, std::string("gnodes_total=2").size(),
                "gnodes_total=3");
  EXPECT_FALSE(parse_snapshot(fewer, &error).has_value());
}

TEST(StateStoreTest, ParseRejectsCorruption) {
  const std::string good = to_text(sample_snapshot());
  std::string error;
  ASSERT_TRUE(parse_snapshot(good, &error).has_value()) << error;

  // Truncation anywhere loses the end marker or a count trailer.
  for (const std::size_t keep : {good.size() / 3, good.size() - 5}) {
    EXPECT_FALSE(parse_snapshot(good.substr(0, keep), &error).has_value())
        << "accepted a " << keep << "-byte prefix";
  }
  // A dropped frame line leaves its unit owing frames.
  std::string missing = good;
  const std::size_t at = missing.find("frame=");
  ASSERT_NE(at, std::string::npos);
  missing.erase(at, missing.find('\n', at) - at + 1);
  EXPECT_FALSE(parse_snapshot(missing, &error).has_value());
  EXPECT_NE(error.find("frames"), std::string::npos) << error;

  // Unknown versions are rejected, not guessed at.
  std::string vers = good;
  const std::size_t v = vers.find("snapshot_version=");
  ASSERT_NE(v, std::string::npos);
  vers[v + std::string("snapshot_version=").size()] = '9';
  EXPECT_FALSE(parse_snapshot(vers, &error).has_value());
  EXPECT_NE(error.find("snapshot_version"), std::string::npos) << error;

  // Overflowing numerics must fail loudly instead of wrapping: 2^64 in a
  // stats field and in a fingerprint entry.
  EXPECT_FALSE(
      parse_snapshot(good + "nodes=18446744073709551616\n", &error)
          .has_value());
  std::string badfps = good;
  const std::size_t fp = badfps.find("fps=");
  ASSERT_NE(fp, std::string::npos);
  badfps.insert(fp + 4, "99999999999999999999:1,");
  EXPECT_FALSE(parse_snapshot(badfps, &error).has_value());

  // A frame whose chosen index escapes its menu is structurally invalid
  // (first frame's menu has three entries; point `c` past it).
  std::string badframe = good;
  const std::size_t fr = badframe.find("frame=k=0;c=1");
  ASSERT_NE(fr, std::string::npos);
  badframe.replace(fr, std::string("frame=k=0;c=1").size(),
                   "frame=k=0;c=5");
  EXPECT_FALSE(parse_snapshot(badframe, &error).has_value());
  EXPECT_NE(error.find("bad frame"), std::string::npos) << error;

  // A frame with no owning unit (or past its unit's count) is orphaned.
  std::string orphan = good;
  const std::size_t u = orphan.find("unit=");
  ASSERT_NE(u, std::string::npos);
  orphan.insert(u, "frame=k=0;c=0;b=0;l=1,2;sl=;ex=;bt=\n");
  EXPECT_FALSE(parse_snapshot(orphan, &error).has_value());
  EXPECT_NE(error.find("owning unit"), std::string::npos) << error;

  // A unit whose floor exceeds its frame count could never backtrack.
  std::string floored = good;
  const std::size_t uf = floored.find("unit=id=5;floor=0");
  ASSERT_NE(uf, std::string::npos);
  floored.replace(uf, std::string("unit=id=5;floor=0").size(),
                  "unit=id=5;floor=9");
  EXPECT_FALSE(parse_snapshot(floored, &error).has_value());
  EXPECT_NE(error.find("floor"), std::string::npos) << error;
}

TEST(StateStoreTest, OldFormatVersionIsIncompatibleNotCorrupt) {
  // A well-formed snapshot of a previous format version must be refused
  // as an *incompatibility* (wrong_version), with a message that tells
  // the user what to do — not lumped in with corrupt files. The v3->v4
  // bump (liveness / fair-cycle search) added the state graph and the
  // graph-backed stats: a v3 frontier lacks the graph edges its
  // fingerprint prunes already merged away, so resuming it under a v4
  // build could silently certify "no fair cycle" on a graph with holes.
  // The v4->v5 bump (channel-granular fairness) rewired the graph's
  // dl= bits from per-receiver to per-directed-channel and added the
  // gedge sender field: a v4 graph read under v5 semantics would
  // mistake receiver bits for sender-0 channel bits and carry
  // sender-less delivery edges, so it is refused the same way. The
  // v5->v6 bump dropped the dependence / fault_dependence header
  // levers: the parser ignores unknown keys, so a v5 frontier saved
  // under --dep=process or --no-fault-dep would otherwise resume
  // silently under the content-aware, sparse-fault relation. The v6->v7
  // bump dropped the order_seed lever and the frames' s= rotation
  // offset: a v6 frontier split in a rotated visit order would otherwise
  // resume in menu order.
  const std::string tag =
      "snapshot_version=" + std::to_string(StateSnapshot::kVersion);
  const std::string want_current =
      "version " + std::to_string(StateSnapshot::kVersion);
  for (const int old_version : {2, 3, 4, 5, 6}) {
    std::string old = to_text(sample_snapshot());
    const std::size_t at = old.find(tag);
    ASSERT_NE(at, std::string::npos);
    old.replace(at, tag.size(),
                "snapshot_version=" + std::to_string(old_version));

    std::string error;
    bool wrong_version = false;
    EXPECT_FALSE(parse_snapshot(old, &error, &wrong_version).has_value());
    EXPECT_TRUE(wrong_version) << old_version;
    // The diagnosis names both versions and the way out.
    EXPECT_NE(error.find("unsupported snapshot_version " +
                         std::to_string(old_version)),
              std::string::npos)
        << error;
    EXPECT_NE(error.find(want_current), std::string::npos) << error;
    EXPECT_NE(error.find("--resume"), std::string::npos) << error;
  }

  // A v6 file as a v6 build wrote it: an order_seed= header line and an
  // s= field in every frame, which this build's frame grammar rejects —
  // so the version line must refuse the file before a frame line can
  // fail it as corrupt.
  std::string v6 = to_text(sample_snapshot());
  const std::size_t at = v6.find(tag);
  ASSERT_NE(at, std::string::npos);
  v6.replace(at, tag.size(), "snapshot_version=6");
  const std::size_t header_end = v6.find('\n', v6.find("state_fingerprints="));
  ASSERT_NE(header_end, std::string::npos);
  v6.insert(header_end + 1, "order_seed=0\n");
  for (std::size_t f = v6.find("frame=k="); f != std::string::npos;
       f = v6.find("frame=k=", f + 1)) {
    v6.insert(v6.find(";b=", f), ";s=0");
  }
  {
    std::string error;
    bool wrong_version = false;
    EXPECT_FALSE(parse_snapshot(v6, &error, &wrong_version).has_value());
    EXPECT_TRUE(wrong_version) << error;
    EXPECT_NE(error.find("unsupported snapshot_version 6"), std::string::npos)
        << error;
  }

  // Corruption, by contrast, must NOT claim a version mismatch.
  std::string error;
  bool wrong_version = true;
  EXPECT_FALSE(
      parse_snapshot("not a snapshot\n", &error, &wrong_version).has_value());
  EXPECT_FALSE(wrong_version);
}

TEST(StateStoreTest, ResumeMismatchNamesTheField) {
  const StateSnapshot snap = sample_snapshot();
  // The snapshot's own search header resumes cleanly; execution-shape
  // knobs (threads, budgets, paths) may differ freely.
  SearchConfig cfg = snap.config;
  cfg.threads = 8;
  cfg.max_states = 1;
  cfg.budget_states = 99;
  cfg.save_path = "elsewhere.wfds";
  EXPECT_EQ(resume_mismatch(snap, cfg), "");

  SearchConfig other = cfg;
  other.scenario.n = 4;
  const std::string why = resume_mismatch(snap, other);
  EXPECT_NE(why.find("different scenario"), std::string::npos) << why;
  EXPECT_NE(why.find("n=3"), std::string::npos) << why;
  EXPECT_NE(why.find("n=4"), std::string::npos) << why;

  SearchConfig red = cfg;
  red.reduction = Reduction::kNone;
  EXPECT_NE(resume_mismatch(snap, red).find("reduction"), std::string::npos);
  SearchConfig sym = cfg;
  sym.symmetry = false;
  EXPECT_NE(resume_mismatch(snap, sym).find("symmetry"), std::string::npos);
  SearchConfig fps = cfg;
  fps.state_fingerprints = false;
  EXPECT_NE(resume_mismatch(snap, fps).find("fingerprint"),
            std::string::npos);
}

TEST(StateStoreTest, SaveAndLoadThroughDisk) {
  const std::string path = testing::TempDir() + "wfd_state_store_disk.wfds";
  const StateSnapshot s = sample_snapshot();
  std::string error;
  ASSERT_TRUE(save_snapshot(path, s, &error)) << error;
  const auto p = load_snapshot(path, &error);
  ASSERT_TRUE(p.has_value()) << error;
  EXPECT_EQ(to_text(*p), to_text(s));
  // No temp file left behind, and a missing path reports cleanly.
  std::remove(path.c_str());
  EXPECT_FALSE(load_snapshot(path + ".tmp", &error).has_value());
  EXPECT_FALSE(load_snapshot(path, &error).has_value());
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

// ---------------------------------------------------------------------
// Explorer-level save/resume.

ScenarioOptions small_clean_options() {
  ScenarioOptions opt;
  opt.problem = "consensus";
  opt.n = 3;
  opt.max_steps = 10;
  opt.fd_per_query = false;  // Static detector history: small tree.
  return opt;
}

ScenarioOptions bug_options() {
  ScenarioOptions opt;
  opt.problem = "consensus-bug";
  opt.n = 3;
  opt.max_steps = 30;
  return opt;
}

struct SplitResult {
  ExploreReport last;
  std::optional<Counterexample> cex;
  int resumes = 0;
};

/// Drives the wfd_check loop in-process: run with a per-invocation
/// budget, save, resume from the save, until the tree is done or a
/// violation is claimed.
SplitResult run_split(const ScenarioOptions& scenario,
                      const SearchConfig& base, std::uint64_t budget,
                      const std::string& path) {
  const ScenarioBuilder build = ScenarioFactory(scenario).builder();
  SplitResult out;
  std::remove(path.c_str());
  for (int i = 0; i < 200; ++i) {
    SearchConfig cfg = base;
    cfg.budget_states = budget;
    cfg.save_path = path;
    cfg.scenario = scenario;
    if (i > 0) cfg.resume_path = path;
    Explorer ex(build, cfg);
    out.last = ex.run();
    out.resumes = i;
    EXPECT_EQ(out.last.resume_error, "");
    EXPECT_EQ(out.last.save_error, "");
    EXPECT_EQ(out.last.resumed, i > 0);
    if (out.last.cex.has_value()) {
      out.cex = out.last.cex;
      break;
    }
    if (out.last.stats.exhausted) break;
  }
  std::remove(path.c_str());
  return out;
}

void expect_stats_eq(const ExploreStats& a, const ExploreStats& b) {
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.sleep_skips, b.sleep_skips);
  EXPECT_EQ(a.fp_prunes, b.fp_prunes);
  EXPECT_EQ(a.hb_races, b.hb_races);
  EXPECT_EQ(a.backtrack_points, b.backtrack_points);
  EXPECT_EQ(a.commute_skips, b.commute_skips);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.exhausted, b.exhausted);
  EXPECT_EQ(a.liveness, b.liveness);
  EXPECT_EQ(a.graph_states, b.graph_states);
  EXPECT_EQ(a.graph_edges, b.graph_edges);
  EXPECT_EQ(a.graph_truncated, b.graph_truncated);
}

SearchConfig scenario_config(const ScenarioOptions& scenario) {
  SearchConfig cfg;
  cfg.scenario = scenario;
  return cfg;
}

TEST(ResumeTest, SplitSearchMatchesSingleShot) {
  const ScenarioOptions scenario = small_clean_options();
  Explorer single(ScenarioFactory(scenario).builder(),
                  scenario_config(scenario));
  const ExploreReport whole = single.run();
  ASSERT_TRUE(whole.stats.exhausted);

  const SplitResult split =
      run_split(scenario, scenario_config(scenario), 300,
                testing::TempDir() + "wfd_resume_clean.wfds");
  ASSERT_GE(split.resumes, 2) << "budget too large to exercise resume";
  expect_stats_eq(split.last.stats, whole.stats);
  EXPECT_EQ(coverage(split.last.stats), coverage(whole.stats));
  EXPECT_EQ(split.last.resume_generation,
            static_cast<std::uint64_t>(split.resumes));
  EXPECT_FALSE(split.cex.has_value());
}

TEST(ResumeTest, SplitSearchFindsTheSameViolation) {
  const ScenarioOptions scenario = bug_options();
  Explorer single(ScenarioFactory(scenario).builder(),
                  scenario_config(scenario));
  const ExploreReport whole = single.run();
  ASSERT_TRUE(whole.cex.has_value());

  const SplitResult split =
      run_split(scenario, scenario_config(scenario), 5,
                testing::TempDir() + "wfd_resume_bug.wfds");
  ASSERT_GE(split.resumes, 1) << "violation found before any resume";
  ASSERT_TRUE(split.cex.has_value());
  EXPECT_EQ(split.cex->violation.property, whole.cex->violation.property);
  // Resume continues the very same wave schedule, so the violating run
  // replays the identical decision sequence the single-shot search
  // found.
  EXPECT_EQ(split.cex->decisions, whole.cex->decisions);
}

ScenarioOptions liveness_bug_options() {
  ScenarioOptions opt;
  opt.problem = "consensus-live-bug";
  opt.n = 2;
  opt.max_steps = 12;
  opt.fd_per_query = false;  // Oracle-backed liveness needs --fd=static.
  opt.liveness = "termination";
  return opt;
}

/// Liveness requires --reduction=none, no symmetry (search_config.cpp
/// validation); fingerprints stay on — the graph is keyed by them.
SearchConfig liveness_config(const ScenarioOptions& scenario) {
  SearchConfig cfg;
  cfg.scenario = scenario;
  cfg.reduction = Reduction::kNone;
  cfg.symmetry = false;
  return cfg;
}

TEST(ResumeTest, LivenessSplitSearchReportsTheSameLasso) {
  // A liveness run split into installments is the acid test of the v4
  // graph round-trip: the fair-cycle search only runs at exhaustion, on
  // the graph merged across every installment. Any node or edge lost in
  // save/resume would change (or lose) the lasso.
  const ScenarioOptions scenario = liveness_bug_options();
  Explorer single(ScenarioFactory(scenario).builder(),
                  liveness_config(scenario));
  const ExploreReport whole = single.run();
  ASSERT_TRUE(whole.cex.has_value());
  ASSERT_FALSE(whole.cex->loop.empty());

  const SplitResult split =
      run_split(scenario, liveness_config(scenario), 40,
                testing::TempDir() + "wfd_resume_lasso.wfds");
  ASSERT_GE(split.resumes, 1) << "lasso found before any resume";
  ASSERT_TRUE(split.cex.has_value());
  EXPECT_EQ(split.cex->decisions, whole.cex->decisions);
  EXPECT_EQ(split.cex->loop, whole.cex->loop);
  EXPECT_EQ(split.cex->violation.property, whole.cex->violation.property);
}

TEST(ResumeTest, LivenessSplitSearchMatchesSingleShotOnCleanTree) {
  // The healthy twin: split exploration must end with the identical
  // graph stats and still certify "no fair cycle" at the end.
  ScenarioOptions scenario;
  scenario.problem = "consensus";
  scenario.n = 2;
  scenario.max_steps = 12;
  scenario.fd_per_query = false;
  scenario.liveness = "termination";
  Explorer single(ScenarioFactory(scenario).builder(),
                  liveness_config(scenario));
  const ExploreReport whole = single.run();
  ASSERT_TRUE(whole.stats.exhausted);
  ASSERT_TRUE(whole.fair_cycle_checked);
  ASSERT_FALSE(whole.cex.has_value());

  const SplitResult split =
      run_split(scenario, liveness_config(scenario), 60,
                testing::TempDir() + "wfd_resume_liveclean.wfds");
  ASSERT_GE(split.resumes, 1) << "budget too large to exercise resume";
  EXPECT_TRUE(split.last.fair_cycle_checked);
  EXPECT_FALSE(split.cex.has_value());
  expect_stats_eq(split.last.stats, whole.stats);
  EXPECT_EQ(coverage(split.last.stats), coverage(whole.stats));
}

TEST(ResumeTest, MismatchedScenarioIsRejected) {
  const ScenarioOptions bug = bug_options();
  const std::string path = testing::TempDir() + "wfd_resume_mismatch.wfds";
  SearchConfig save = scenario_config(bug);
  save.budget_states = 5;
  save.save_path = path;
  Explorer first(ScenarioFactory(bug).builder(), save);
  ASSERT_EQ(first.run().save_error, "");

  ScenarioOptions clean = bug;
  clean.problem = "consensus";
  SearchConfig cfg = scenario_config(clean);
  cfg.resume_path = path;
  Explorer second(ScenarioFactory(clean).builder(), cfg);
  const ExploreReport rep = second.run();
  EXPECT_TRUE(rep.resume_rejected);
  EXPECT_NE(rep.resume_error.find("different scenario"), std::string::npos)
      << rep.resume_error;
  // Nothing ran.
  EXPECT_EQ(rep.stats.nodes, 0u);
  EXPECT_EQ(rep.stats.runs, 0u);
  std::remove(path.c_str());
}

TEST(ResumeTest, OldFormatSnapshotIsRejectedAsIncompatible) {
  // End-to-end exit-2 contract: Explorer resume from a file of the
  // previous format version (v6) sets resume_rejected (wfd_check maps
  // that to the incompatible-snapshot exit code) and runs nothing.
  const ScenarioOptions scenario = bug_options();
  const std::string path = testing::TempDir() + "wfd_resume_oldver.wfds";
  SearchConfig save = scenario_config(scenario);
  save.budget_states = 5;
  save.save_path = path;
  Explorer first(ScenarioFactory(scenario).builder(), save);
  ASSERT_EQ(first.run().save_error, "");

  // Downgrade the stored version tag in place.
  std::string text;
  {
    std::FILE* f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, got);
    std::fclose(f);
  }
  const std::string tag =
      "snapshot_version=" + std::to_string(StateSnapshot::kVersion);
  const std::size_t at = text.find(tag);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, tag.size(), "snapshot_version=6");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  }

  SearchConfig cfg = scenario_config(scenario);
  cfg.resume_path = path;
  Explorer second(ScenarioFactory(scenario).builder(), cfg);
  const ExploreReport rep = second.run();
  EXPECT_TRUE(rep.resume_rejected);
  EXPECT_NE(rep.resume_error.find("snapshot_version"), std::string::npos)
      << rep.resume_error;
  EXPECT_EQ(rep.stats.nodes, 0u);
  EXPECT_EQ(rep.stats.runs, 0u);
  std::remove(path.c_str());
}

TEST(ResumeTest, CorruptSnapshotIsRejectedWithoutRunning) {
  const std::string path = testing::TempDir() + "wfd_resume_corrupt.wfds";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("not a snapshot\n", f);
    std::fclose(f);
  }
  const ScenarioOptions scenario = bug_options();
  SearchConfig cfg = scenario_config(scenario);
  cfg.resume_path = path;
  Explorer ex(ScenarioFactory(scenario).builder(), cfg);
  const ExploreReport rep = ex.run();
  EXPECT_FALSE(rep.resume_error.empty());
  EXPECT_FALSE(rep.resume_rejected);  // Corrupt, not incompatible.
  EXPECT_EQ(rep.stats.nodes, 0u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Cooperative cancel (the campaign stop-flag regression).

TEST(CancelTest, PreSetCancelStopsBeforeAnyExpansion) {
  std::atomic<bool> stop{true};
  SearchConfig cfg = scenario_config(small_clean_options());
  cfg.cancel = &stop;
  Explorer ex(ScenarioFactory(small_clean_options()).builder(), cfg);
  const ExploreReport rep = ex.run();
  EXPECT_TRUE(rep.cancelled);
  EXPECT_EQ(rep.stats.nodes, 0u);
  EXPECT_FALSE(rep.stats.exhausted);
  EXPECT_EQ(coverage(rep.stats), Coverage::kBudget);
}

TEST(CancelTest, CancelledSearchNeverClaimsExhaustion) {
  // Flip the flag from another thread mid-search: whenever it lands, the
  // explorer must come back promptly, report cancelled, and refuse to
  // call the tree exhausted. (On a machine slow enough that the flag is
  // already set at the first step, this degrades to the pre-set case —
  // every assertion below still holds.)
  ScenarioOptions opt = small_clean_options();
  opt.max_steps = 40;  // Big enough that the search outlives the timer.
  opt.fd_per_query = true;
  std::atomic<bool> stop{false};
  SearchConfig cfg = scenario_config(opt);
  cfg.max_states = 100000000;
  cfg.cancel = &stop;
  Explorer ex(ScenarioFactory(opt).builder(), cfg);
  std::thread timer([&stop] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    stop.store(true, std::memory_order_relaxed);
  });
  const ExploreReport rep = ex.run();
  timer.join();
  EXPECT_TRUE(rep.cancelled);
  EXPECT_FALSE(rep.stats.exhausted);
  EXPECT_EQ(coverage(rep.stats), Coverage::kBudget);
}

TEST(CancelTest, CancelledRunLeavesNoTraceInTheSnapshot) {
  // The acid test of the wave discard: cancel an invocation at a random
  // point mid-search, snapshot it, then resume with no cancel and run to
  // exhaustion. If the abandoned wave leaked units, fingerprints or
  // stats into the snapshot, the final totals would diverge from the
  // uninterrupted run's.
  const ScenarioOptions scenario = small_clean_options();
  const ScenarioBuilder build = ScenarioFactory(scenario).builder();
  Explorer single(build, scenario_config(scenario));
  const ExploreReport whole = single.run();
  ASSERT_TRUE(whole.stats.exhausted);

  const std::string path = testing::TempDir() + "wfd_resume_cancel.wfds";
  std::remove(path.c_str());
  std::atomic<bool> stop{false};
  SearchConfig first = scenario_config(scenario);
  first.cancel = &stop;
  first.save_path = path;
  Explorer cancelled(build, first);
  std::thread timer([&stop] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    stop.store(true, std::memory_order_relaxed);
  });
  const ExploreReport partial = cancelled.run();
  timer.join();
  ASSERT_EQ(partial.save_error, "");

  ExploreReport last = partial;
  for (int i = 0; !last.stats.exhausted && i < 200; ++i) {
    SearchConfig cfg = scenario_config(scenario);
    cfg.budget_states = 500;
    cfg.save_path = path;
    cfg.resume_path = path;
    Explorer ex(build, cfg);
    last = ex.run();
    ASSERT_EQ(last.resume_error, "") << last.resume_error;
  }
  expect_stats_eq(last.stats, whole.stats);
  EXPECT_EQ(coverage(last.stats), coverage(whole.stats));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace wfd::explore
