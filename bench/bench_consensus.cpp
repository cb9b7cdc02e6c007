// E4 (Corollaries 2/4): (Omega, Sigma) consensus decides in any
// environment. Shape tables: decision latency and message cost vs n, vs
// crash count, and vs detector stabilisation time (the dominant factor —
// consensus is as fast as its detector becomes accurate).
#include <benchmark/benchmark.h>

#include <optional>

#include "bench_util.h"
#include "consensus/omega_sigma_consensus.h"

namespace wfd::bench {
namespace {

struct ConsStats {
  bool all_decided = false;
  double last_decision_time = 0.0;
  double messages = 0.0;
  double rounds = 0.0;
};

ConsStats run_consensus(int n, int crashes, Time stab, std::uint64_t seed) {
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 400000;
  cfg.seed = seed;
  sim::Simulator s(cfg, staggered_crashes(n, crashes, 2000),
                   omega_sigma_oracle(stab), random_sched());
  std::vector<consensus::OmegaSigmaConsensusModule<int>*> mods;
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    auto& c = host.add_module<consensus::OmegaSigmaConsensusModule<int>>(
        "cons");
    c.propose(i % 2);
    mods.push_back(&c);
  }
  const auto res = s.run();
  ConsStats out;
  out.all_decided = res.all_done;
  out.messages = static_cast<double>(s.trace().stats().messages_sent);
  Time last = 0;
  for (ProcessId p = 0; p < n; ++p) {
    const auto e = s.trace().first_event(p, "decide");
    if (e.t != kNever) last = std::max(last, e.t);
    out.rounds += static_cast<double>(
        mods[static_cast<std::size_t>(p)]->rounds_started());
  }
  out.last_decision_time = static_cast<double>(last);
  return out;
}

void shape_tables() {
  table_header("E4a: consensus latency vs system size (crash-free, stab=500)",
               "    n   decided   last-decision(steps)   messages   leader-rounds");
  for (int n : {2, 3, 5, 7, 9, 12}) {
    Series t, m, r;
    bool all = true;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const auto st = run_consensus(n, 0, 500, seed);
      all = all && st.all_decided;
      t.add(st.last_decision_time);
      m.add(st.messages);
      r.add(st.rounds);
    }
    std::printf("  %3d   %-7s   %20.0f   %8.0f   %13.1f\n", n,
                all ? "yes" : "NO", t.mean(), m.mean(), r.mean());
  }

  table_header("E4b: consensus vs crashes (n=5, stab=500; up to n-1 crashes)",
               "  crashes   decided   last-decision(steps)   messages");
  for (int crashes : {0, 1, 2, 3, 4}) {
    Series t, m;
    bool all = true;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const auto st = run_consensus(5, crashes, 500, seed);
      all = all && st.all_decided;
      t.add(st.last_decision_time);
      m.add(st.messages);
    }
    std::printf("  %7d   %-7s   %20.0f   %8.0f\n", crashes,
                all ? "yes" : "NO", t.mean(), m.mean());
  }

  table_header(
      "E4c: consensus vs detector stabilisation time (n=5, 2 crashes)",
      "  stabilisation   last-decision(steps)   messages");
  for (Time stab : {100, 1000, 4000, 16000, 64000}) {
    Series t, m;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const auto st = run_consensus(5, 2, stab, seed);
      t.add(st.last_decision_time);
      m.add(st.messages);
    }
    std::printf("  %13llu   %20.0f   %8.0f\n",
                static_cast<unsigned long long>(stab), t.mean(), m.mean());
  }
  std::printf("\nexpected shape: latency tracks the detector's "
              "stabilisation time (indulgence); crashes cost little once "
              "the detector has converged; messages grow ~n^2 per round.\n");
}

void BM_OmegaSigmaConsensus(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int crashes = static_cast<int>(state.range(1));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto st = run_consensus(n, crashes, 500, seed++);
    benchmark::DoNotOptimize(st);
    state.counters["decision_steps"] = st.last_decision_time;
    state.counters["messages"] = st.messages;
  }
}
BENCHMARK(BM_OmegaSigmaConsensus)
    ->Args({3, 0})
    ->Args({5, 0})
    ->Args({5, 4})
    ->Args({7, 3})
    ->Args({9, 8});

}  // namespace
}  // namespace wfd::bench

int main(int argc, char** argv) {
  wfd::bench::shape_tables();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
