// E6 (Theorem 5, Figure 2): quittable consensus with Psi. Shape tables:
// decision latency in both branches — when Psi turns into (Omega,Sigma)
// the cost is a consensus; when it turns into FS (after a failure) the
// processes quit as soon as the switch reaches them; the switch spread
// dominates either way.
#include <benchmark/benchmark.h>

#include <optional>

#include "bench_util.h"
#include "qc/psi_qc.h"

namespace wfd::bench {
namespace {

struct QcStats {
  bool all_decided = false;
  bool quit = false;
  double last_decision_time = 0.0;
  double messages = 0.0;
};

QcStats run_qc(int n, int crashes, fd::PsiOracle::Branch branch, Time spread,
               std::uint64_t seed) {
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 400000;
  cfg.seed = seed;
  auto pattern = staggered_crashes(n, crashes, 1000);
  sim::Simulator s(cfg, pattern, psi_fs_oracle(branch, spread),
                   random_sched());
  std::vector<qc::PsiQcModule<int>*> mods;
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    auto& q = host.add_module<qc::PsiQcModule<int>>("qc");
    q.propose(i % 2);
    mods.push_back(&q);
  }
  const auto res = s.run();
  QcStats out;
  out.all_decided = res.all_done;
  out.messages = static_cast<double>(s.trace().stats().messages_sent);
  Time last = 0;
  for (ProcessId p = 0; p < n; ++p) {
    const auto e = s.trace().first_event(p, "qc-decide");
    if (e.t != kNever) {
      last = std::max(last, e.t);
      if (e.value == -1) out.quit = true;
    }
  }
  out.last_decision_time = static_cast<double>(last);
  return out;
}

void shape_tables() {
  table_header("E6a: QC decision latency by Psi branch (n=4, spread=800)",
               "  branch       crashes  decided  outcome  last-decision(steps)  messages");
  struct Row {
    const char* name;
    fd::PsiOracle::Branch branch;
    int crashes;
  };
  for (const Row row :
       {Row{"omega-sigma", fd::PsiOracle::Branch::kOmegaSigma, 0},
        Row{"omega-sigma", fd::PsiOracle::Branch::kOmegaSigma, 3},
        Row{"fs", fd::PsiOracle::Branch::kFs, 1},
        Row{"fs", fd::PsiOracle::Branch::kFs, 3}}) {
    Series t, m;
    bool all = true, quit = false;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const auto st = run_qc(4, row.crashes, row.branch, 800, seed);
      all = all && st.all_decided;
      quit = quit || st.quit;
      t.add(st.last_decision_time);
      m.add(st.messages);
    }
    std::printf("  %-11s  %7d  %-7s  %-7s  %20.0f  %8.0f\n", row.name,
                row.crashes, all ? "yes" : "NO", quit ? "Q" : "value",
                t.mean(), m.mean());
  }

  table_header("E6b: QC latency vs Psi switch spread (n=4, crash-free, "
               "omega-sigma branch)",
               "  spread   last-decision(steps)   messages");
  for (Time spread : {100, 400, 1600, 6400, 25600}) {
    Series t, m;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const auto st = run_qc(4, 0, fd::PsiOracle::Branch::kOmegaSigma,
                             spread, seed);
      t.add(st.last_decision_time);
      m.add(st.messages);
    }
    std::printf("  %6llu   %20.0f   %8.0f\n",
                static_cast<unsigned long long>(spread), t.mean(), m.mean());
  }
  std::printf("\nexpected shape: the FS branch decides with ~0 extra "
              "messages (quit on switch); the omega-sigma branch pays one "
              "consensus; latency scales with the switch spread in both.\n");
}

void BM_PsiQc(benchmark::State& state) {
  const bool fs = state.range(0) != 0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto st = run_qc(4, fs ? 1 : 0,
                           fs ? fd::PsiOracle::Branch::kFs
                              : fd::PsiOracle::Branch::kOmegaSigma,
                           800, seed++);
    benchmark::DoNotOptimize(st);
    state.counters["decision_steps"] = st.last_decision_time;
  }
}
BENCHMARK(BM_PsiQc)->Arg(0)->Arg(1);

}  // namespace
}  // namespace wfd::bench

int main(int argc, char** argv) {
  wfd::bench::shape_tables();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
