// E1 (Theorem 1, sufficiency): Sigma-based ABD registers work in any
// environment; majority-ABD works only with a correct majority. The
// shape table reports liveness and per-operation cost (virtual steps and
// messages) across n and crash counts for both quorum rules.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "reg/abd_register.h"
#include "reg/linearizability.h"
#include "reg/register_client.h"

namespace wfd::bench {
namespace {

struct RegRunStats {
  bool live = false;
  bool linearizable = false;
  double steps_per_op = 0.0;
  double msgs_per_op = 0.0;
};

RegRunStats run_register_workload(int n, int crashes, reg::QuorumRule rule,
                                  std::uint64_t seed, int ops_per_client = 4) {
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 400000;
  cfg.seed = seed;
  auto oracle = (rule == reg::QuorumRule::kSigma)
                    ? sigma_oracle(500)
                    : std::unique_ptr<fd::Oracle>(
                          std::make_unique<fd::NullOracle>());
  // Crashes at t=0: the workload must run entirely inside the degraded
  // environment (otherwise fast clients finish before the crashes land
  // and the liveness comparison is vacuous).
  sim::FailurePattern f(n);
  for (int i = 0; i < crashes; ++i) f.crash_at(i, 0);
  sim::Simulator s(cfg, f, std::move(oracle), random_sched());
  reg::History history;
  reg::AbdRegisterModule<std::int64_t>::Options ropt;
  ropt.rule = rule;
  reg::RegisterWorkloadModule::Options wopt;
  wopt.num_ops = ops_per_client;
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    auto& r =
        host.add_module<reg::AbdRegisterModule<std::int64_t>>("reg", ropt);
    host.add_module<reg::RegisterWorkloadModule>("load", r.index(), &history,
                                                 wopt);
  }
  const auto res = s.run();
  RegRunStats out;
  out.live = res.all_done;
  out.linearizable = reg::is_linearizable(history);
  const auto completed = history.completed();
  if (completed > 0) {
    out.steps_per_op =
        static_cast<double>(res.steps) / static_cast<double>(completed);
    out.msgs_per_op =
        static_cast<double>(s.trace().stats().messages_sent) /
        static_cast<double>(completed);
  }
  return out;
}

void shape_table() {
  table_header("E1: atomic register — Sigma vs majority quorums",
               "    n  crashes  rule       live  linearizable  steps/op  msgs/op");
  struct Row {
    int n;
    int crashes;
    reg::QuorumRule rule;
  };
  const Row rows[] = {
      {3, 0, reg::QuorumRule::kSigma},  {3, 2, reg::QuorumRule::kSigma},
      {5, 2, reg::QuorumRule::kSigma},  {5, 4, reg::QuorumRule::kSigma},
      {7, 6, reg::QuorumRule::kSigma},  {9, 8, reg::QuorumRule::kSigma},
      {3, 0, reg::QuorumRule::kMajority}, {3, 1, reg::QuorumRule::kMajority},
      {5, 2, reg::QuorumRule::kMajority}, {5, 4, reg::QuorumRule::kMajority},
      {7, 3, reg::QuorumRule::kMajority}, {9, 8, reg::QuorumRule::kMajority},
  };
  for (const Row& row : rows) {
    Series live, lin, steps, msgs;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const auto st = run_register_workload(row.n, row.crashes, row.rule, seed);
      live.add(st.live ? 1 : 0);
      lin.add(st.linearizable ? 1 : 0);
      steps.add(st.steps_per_op);
      msgs.add(st.msgs_per_op);
    }
    std::printf("  %3d  %7d  %-9s  %-4s  %-12s  %8.0f  %7.0f\n", row.n,
                row.crashes,
                row.rule == reg::QuorumRule::kSigma ? "Sigma" : "majority",
                live.mean() == 1.0 ? "yes" : "NO",
                lin.mean() == 1.0 ? "yes" : "VIOLATED", steps.mean(),
                msgs.mean());
  }
  std::printf("\nexpected shape: Sigma rows are live even with n-1 crashes;\n"
              "majority rows lose liveness once crashes reach n/2 "
              "(safety never breaks).\n");
}

void BM_SigmaRegisterWorkload(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto st =
        run_register_workload(n, n - 1, reg::QuorumRule::kSigma, seed++);
    benchmark::DoNotOptimize(st);
    state.counters["steps_per_op"] = st.steps_per_op;
    state.counters["msgs_per_op"] = st.msgs_per_op;
  }
}
BENCHMARK(BM_SigmaRegisterWorkload)->Arg(3)->Arg(5)->Arg(7);

void BM_MajorityRegisterWorkload(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto st = run_register_workload(n, (n - 1) / 2,
                                          reg::QuorumRule::kMajority, seed++);
    benchmark::DoNotOptimize(st);
    state.counters["steps_per_op"] = st.steps_per_op;
    state.counters["msgs_per_op"] = st.msgs_per_op;
  }
}
BENCHMARK(BM_MajorityRegisterWorkload)->Arg(3)->Arg(5)->Arg(7);

}  // namespace
}  // namespace wfd::bench

int main(int argc, char** argv) {
  wfd::bench::shape_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
