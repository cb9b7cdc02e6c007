// Exploration-subsystem throughput: how fast the explorer enumerates
// schedules (states/sec is the budget currency of every wfd_check run),
// what one recorded random walk costs versus a bare simulator run, and
// how the reductions change the tree actually visited.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "explore/explorer.h"
#include "explore/replay_io.h"
#include "explore/scenario.h"
#include "explore/shrink.h"
#include "explore/state_store.h"
#include "sim/choice.h"

namespace wfd::explore {
namespace {

ScenarioOptions consensus_options(int n, Time depth) {
  ScenarioOptions opt;
  opt.problem = "consensus";
  opt.n = n;
  opt.max_steps = depth;
  return opt;
}

void BM_ExplorerDfs(benchmark::State& state) {
  ScenarioOptions opt =
      consensus_options(static_cast<int>(state.range(0)), 25);
  const ScenarioBuilder build = ScenarioFactory(opt).builder();
  SearchConfig eo;
  eo.scenario = opt;
  eo.max_states = 5000;
  std::uint64_t states = 0;
  std::uint64_t steps = 0;
  for (auto _ : state) {
    Explorer ex(build, eo);
    const ExploreReport rep = ex.run();
    states += rep.stats.nodes;
    steps += rep.stats.steps;
  }
  state.counters["states/s"] = benchmark::Counter(
      static_cast<double>(states), benchmark::Counter::kIsRate);
  state.counters["steps/s"] = benchmark::Counter(
      static_cast<double>(steps), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ExplorerDfs)->Arg(2)->Arg(3)->Arg(4);

void BM_ExplorerDfsNoReduction(benchmark::State& state) {
  const ScenarioOptions opt = consensus_options(3, 25);
  const ScenarioBuilder build = ScenarioFactory(opt).builder();
  SearchConfig eo;
  eo.scenario = opt;
  eo.max_states = 5000;
  eo.reduction = Reduction::kNone;
  eo.state_fingerprints = false;
  std::uint64_t states = 0;
  for (auto _ : state) {
    Explorer ex(build, eo);
    states += ex.run().stats.nodes;
  }
  state.counters["states/s"] = benchmark::Counter(
      static_cast<double>(states), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ExplorerDfsNoReduction);

// Per-lever reduction ablation: for every scenario, lever 0 is the
// full default stack (DPOR + content dependence + fault-aware
// dependence + fingerprint pruning, one thread) and every other lever
// index changes exactly ONE knob away from that baseline, so a row's
// delta against its scenario's baseline row is that lever's isolated
// contribution. Downgrade levers (sleep-sets, no-fingerprints) show
// their win as the growth of the ablated tree; symmetry is opt-in, so
// its row turns it ON and shows its win as shrinkage; threads=4 must
// show exact state parity (the wave schedule is thread-invariant — and
// on this project's 1-CPU reference box it cannot show wall-clock wins,
// so parity is the whole claim). The interesting numbers are the
// per-scenario counters: states explored, runs, prunes, races,
// backtrack points; wall time is the benchmark's own metric. Depths and
// static detector histories are chosen so every case exhausts within
// the state cap under every lever.
struct AblationCase {
  const char* name;
  ScenarioOptions opt;
};

const std::vector<AblationCase>& ablation_cases() {
  static const std::vector<AblationCase>* cases = [] {
    auto* v = new std::vector<AblationCase>;
    {
      AblationCase c{"consensus-n3", {}};
      c.opt = consensus_options(3, 10);
      c.opt.fd_per_query = false;
      v->push_back(c);
    }
    {
      AblationCase c{"consensus-bug-n3", {}};
      c.opt.problem = "consensus-bug";
      c.opt.n = 3;
      c.opt.max_steps = 9;
      v->push_back(c);
    }
    {
      AblationCase c{"qc-n3", {}};
      c.opt.problem = "qc";
      c.opt.n = 3;
      c.opt.max_steps = 10;
      c.opt.fd_per_query = false;
      v->push_back(c);
    }
    {
      AblationCase c{"register-n3", {}};
      c.opt.problem = "register";
      c.opt.n = 3;
      c.opt.max_steps = 12;
      c.opt.reg_ops = 1;
      c.opt.reg_readers = 1;
      c.opt.fd_per_query = false;
      v->push_back(c);
    }
    {
      AblationCase c{"abcast-n2", {}};
      c.opt.problem = "abcast";
      c.opt.n = 2;
      c.opt.max_steps = 8;
      c.opt.abcast_senders = 1;
      v->push_back(c);
    }
    {
      AblationCase c{"nbac-n3", {}};
      c.opt.problem = "nbac";
      c.opt.n = 3;
      c.opt.max_steps = 10;
      c.opt.fd_per_query = false;
      v->push_back(c);
    }
    {
      // Echo-relay storm: the content relation's best case (equal-content
      // echoes commute, and the detector-free hosts have inert ticks).
      AblationCase c{"rb-n3", {}};
      c.opt.problem = "rb";
      c.opt.n = 3;
      c.opt.max_steps = 12;
      c.opt.abcast_senders = 2;
      v->push_back(c);
    }
    {
      // Explored crash timing: the sparse fault relation's home turf
      // (every step grows a crash branch; sparse fault dependence is
      // what keeps sleep sets alive across those edges).
      AblationCase c{"crash-explore-n3", {}};
      c.opt = consensus_options(3, 12);
      c.opt.fd_per_query = false;
      c.opt.crash_mode = "explore";
      c.opt.crashes = 1;
      v->push_back(c);
    }
    return v;
  }();
  return *cases;
}

/// One knob away from the full-stack baseline (see BM_ReductionAblation
/// comment). Keep lever_name in sync.
enum Lever : int {
  kLeverBaseline = 0,
  kLeverSleepSets,       ///< Reduction downgraded to sleep sets only.
  kLeverNoFingerprints,  ///< State-fingerprint pruning off.
  kLeverSymmetry,        ///< Canonicalize under process renaming (ON).
  kLeverThreads4,        ///< threads=4; must reproduce baseline states.
  kLeverCount,
};

const char* lever_name(int lever) {
  switch (lever) {
    case kLeverBaseline: return "baseline";
    case kLeverSleepSets: return "sleep-sets";
    case kLeverNoFingerprints: return "no-fingerprints";
    case kLeverSymmetry: return "symmetry";
    case kLeverThreads4: return "threads-4";
  }
  return "unknown";
}

void BM_ReductionAblation(benchmark::State& state) {
  const AblationCase& c =
      ablation_cases()[static_cast<std::size_t>(state.range(0))];
  const int lever = static_cast<int>(state.range(1));
  SearchConfig eo;
  eo.scenario = c.opt;
  eo.max_states = 3000000;
  eo.stop_at_first = false;  // Violating scenarios still explore fully.
  switch (lever) {
    case kLeverSleepSets:
      eo.reduction = Reduction::kSleepSets;
      break;
    case kLeverNoFingerprints:
      eo.state_fingerprints = false;
      break;
    case kLeverSymmetry:
      eo.symmetry = true;
      break;
    case kLeverThreads4:
      eo.threads = 4;
      break;
    default:
      break;
  }
  state.SetLabel(std::string(c.name) + "/" + lever_name(lever));
  // Levers that do not apply to this scenario (symmetry without
  // interchangeable processes) report as skipped, not as fake parity.
  const std::string why = validate(eo);
  if (!why.empty()) {
    state.SkipWithError(why.c_str());
    return;
  }
  const ScenarioBuilder build = ScenarioFactory(c.opt).builder();
  ExploreStats last{};
  for (auto _ : state) {
    Explorer ex(build, eo);
    last = ex.run().stats;
  }
  state.counters["states"] = static_cast<double>(last.nodes);
  state.counters["runs"] = static_cast<double>(last.runs);
  state.counters["fp_prunes"] = static_cast<double>(last.fp_prunes);
  state.counters["sleep_skips"] = static_cast<double>(last.sleep_skips);
  state.counters["hb_races"] = static_cast<double>(last.hb_races);
  state.counters["commute_skips"] =
      static_cast<double>(last.commute_skips);
  state.counters["backtrack_points"] =
      static_cast<double>(last.backtrack_points);
  state.counters["injected_crashes"] =
      static_cast<double>(last.injected_crashes);
  state.counters["exhausted"] = last.exhausted ? 1 : 0;
}
BENCHMARK(BM_ReductionAblation)
    ->ArgsProduct({{0, 1, 2, 3, 4, 5, 6, 7},
                   {kLeverBaseline, kLeverSleepSets, kLeverNoFingerprints,
                    kLeverSymmetry, kLeverThreads4}})
    ->Unit(benchmark::kMillisecond);

// Fault-injection cost: the same exhaustible consensus instance with no
// adversary, with crash timing explorable (budget 1), and with lossy
// links (drop budget 1 per link). Fault labels carry the sparse
// dependence relation of sim/dependence.h (DESIGN.md §12) — a fault
// commutes with steps of processes it does not touch — so the
// interesting counters are how much the tree still grows relative to
// row 0 and how many adversary moves actually execute (DESIGN.md §10
// prices the relation itself).
void BM_FaultInjection(benchmark::State& state) {
  ScenarioOptions opt = consensus_options(3, 14);
  opt.fd_per_query = false;
  switch (state.range(0)) {
    case 0:
      state.SetLabel("fault-free");
      break;
    case 1:
      opt.crash_mode = "explore";
      opt.crashes = 1;
      state.SetLabel("crash-explore");
      break;
    default:
      opt.loss_drops = 1;
      state.SetLabel("lossy-links");
      break;
  }
  const ScenarioBuilder build = ScenarioFactory(opt).builder();
  SearchConfig eo;
  eo.scenario = opt;
  eo.max_states = 3000000;
  ExploreStats last{};
  for (auto _ : state) {
    Explorer ex(build, eo);
    last = ex.run().stats;
  }
  state.counters["states"] = static_cast<double>(last.nodes);
  state.counters["runs"] = static_cast<double>(last.runs);
  state.counters["injected_crashes"] =
      static_cast<double>(last.injected_crashes);
  state.counters["injected_drops"] = static_cast<double>(last.injected_drops);
  state.counters["exhausted"] = last.exhausted ? 1 : 0;
}
BENCHMARK(BM_FaultInjection)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

// Liveness (fair-cycle) overhead: the identical scenario explored as a
// bounded-safety search and as a liveness search. Both rows run under
// --reduction=none — liveness's own requirement — so the delta prices
// exactly what liveness adds: recording the state graph (nodes, edges,
// enabled/deliverable menus) during exploration plus the
// post-exhaustion fair-cycle (SCC) search, and nothing else.
void BM_LivenessOverhead(benchmark::State& state) {
  ScenarioOptions opt = consensus_options(3, 10);
  opt.fd_per_query = false;
  if (state.range(0) == 1) opt.liveness = "termination";
  state.SetLabel(state.range(0) == 1 ? "liveness-on" : "liveness-off");
  const ScenarioBuilder build = ScenarioFactory(opt).builder();
  SearchConfig eo;
  eo.scenario = opt;
  eo.reduction = Reduction::kNone;
  eo.max_states = 3000000;
  ExploreStats last{};
  for (auto _ : state) {
    Explorer ex(build, eo);
    last = ex.run().stats;
  }
  state.counters["states"] = static_cast<double>(last.nodes);
  state.counters["runs"] = static_cast<double>(last.runs);
  state.counters["graph_states"] = static_cast<double>(last.graph_states);
  state.counters["graph_edges"] = static_cast<double>(last.graph_edges);
  state.counters["exhausted"] = last.exhausted ? 1 : 0;
}
BENCHMARK(BM_LivenessOverhead)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_RecordedRandomWalk(benchmark::State& state) {
  const ScenarioBuilder build =
      ScenarioFactory(consensus_options(3, 60)).builder();
  std::uint64_t seed = 1;
  for (auto _ : state) {
    sim::RandomChoices random(seed++);
    sim::RecordingChoices rec(random);
    Scenario sc = build(rec);
    while (sc.sim->step()) {
      for (auto& inv : sc.invariants) {
        benchmark::DoNotOptimize(inv->check(*sc.sim));
      }
    }
    benchmark::DoNotOptimize(rec.log().size());
  }
}
BENCHMARK(BM_RecordedRandomWalk);

void BM_Replay(benchmark::State& state) {
  const ScenarioBuilder build =
      ScenarioFactory(consensus_options(3, 60)).builder();
  sim::RandomChoices random(7);
  sim::RecordingChoices rec(random);
  {
    Scenario sc = build(rec);
    while (sc.sim->step()) {
    }
  }
  const sim::DecisionLog log = rec.log();
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_replay(build, log).steps);
  }
}
BENCHMARK(BM_Replay);

// Snapshot serialization cost: how much a --save-state at the end of a
// budgeted invocation adds on top of the search itself. The snapshot is
// produced by a real partial exploration, so the fingerprint table and
// frame stack have realistic shapes.
void BM_SnapshotRoundTrip(benchmark::State& state) {
  ScenarioOptions opt = consensus_options(3, 25);
  opt.fd_per_query = false;
  const ScenarioBuilder build = ScenarioFactory(opt).builder();
  const std::string path = "bench_snapshot_scratch.wfds";
  SearchConfig eo;
  eo.budget_states = static_cast<std::uint64_t>(state.range(0));
  eo.save_path = path;
  eo.scenario = opt;
  Explorer ex(build, eo);
  const ExploreReport rep = ex.run();
  std::string error;
  const auto snap = load_snapshot(path, &error);
  std::remove(path.c_str());
  if (rep.save_error.empty() && snap.has_value()) {
    std::uint64_t bytes = 0;
    for (auto _ : state) {
      const std::string text = to_text(*snap);
      bytes += text.size();
      benchmark::DoNotOptimize(parse_snapshot(text).has_value());
    }
    state.counters["fps"] = static_cast<double>(snap->fingerprints.size());
    state.counters["bytes/s"] = benchmark::Counter(
        static_cast<double>(bytes), benchmark::Counter::kIsRate);
  }
}
BENCHMARK(BM_SnapshotRoundTrip)->Arg(1000)->Arg(10000);

void BM_ShrinkSeededBug(benchmark::State& state) {
  ScenarioOptions opt;
  opt.problem = "consensus-bug";
  opt.n = 3;
  opt.max_steps = 30;
  const ScenarioBuilder build = ScenarioFactory(opt).builder();
  SearchConfig eo;
  eo.scenario = opt;
  Explorer ex(build, eo);
  const ExploreReport rep = ex.run();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        shrink(build, rep.cex->decisions, rep.cex->violation.property));
  }
}
BENCHMARK(BM_ShrinkSeededBug);

}  // namespace
}  // namespace wfd::explore

BENCHMARK_MAIN();
