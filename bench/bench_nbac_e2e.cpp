// E9 (Corollary 10): end-to-end NBAC with (Psi, FS) across the
// vote/failure matrix. Shape table: decision and latency for every
// combination the specification distinguishes — all-Yes/no-failure must
// commit; a No vote or a crash leads to abort; survivors always
// terminate (non-blocking).
#include <benchmark/benchmark.h>

#include <vector>

#include "bench_util.h"
#include "nbac/nbac_from_qc.h"
#include "qc/psi_qc.h"

namespace wfd::bench {
namespace {

struct E2eStats {
  bool all_decided = false;
  bool committed = false;
  bool aborted = false;
  double last_decision_time = 0.0;
};

E2eStats run_e2e(int n, int no_votes, int crashes,
                 fd::PsiOracle::Branch branch, std::uint64_t seed) {
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 400000;
  cfg.seed = seed;
  // Crashes strike the last `crashes` processes at t=0 (before voting).
  sim::FailurePattern f(n);
  for (int i = 0; i < crashes; ++i) f.crash_at(n - 1 - i, 0);
  sim::Simulator s(cfg, f, psi_fs_oracle(branch, 800), random_sched());
  std::vector<const nbac::NbacFromQcModule*> nbacs;
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    auto& q = host.add_module<qc::PsiQcModule<int>>("qc");
    auto& nb = host.add_module<nbac::NbacFromQcModule>("nbac", q.index());
    nb.vote(i < no_votes ? nbac::Vote::kNo : nbac::Vote::kYes);
    nbacs.push_back(&nb);
  }
  const auto res = s.run();
  E2eStats out;
  out.all_decided = res.all_done;
  for (const nbac::NbacFromQcModule* nb : nbacs) {
    if (!nb->decided()) continue;
    if (nb->decision() == nbac::Decision::kCommit) out.committed = true;
    if (nb->decision() == nbac::Decision::kAbort) out.aborted = true;
  }
  Time last = 0;
  for (const auto& e : s.trace().events_of_kind("nbac-decide")) {
    last = std::max(last, e.t);
  }
  out.last_decision_time = static_cast<double>(last);
  return out;
}

void shape_table() {
  table_header("E9: NBAC over (Psi, FS) — vote/failure matrix (n=5)",
               "  no-votes  crashes  branch       decided  outcome  last-decision(steps)");
  struct Row {
    int no_votes;
    int crashes;
    fd::PsiOracle::Branch branch;
    const char* bname;
  };
  const Row rows[] = {
      {0, 0, fd::PsiOracle::Branch::kOmegaSigma, "omega-sigma"},
      {1, 0, fd::PsiOracle::Branch::kOmegaSigma, "omega-sigma"},
      {3, 0, fd::PsiOracle::Branch::kOmegaSigma, "omega-sigma"},
      {0, 1, fd::PsiOracle::Branch::kFs, "fs"},
      {0, 1, fd::PsiOracle::Branch::kOmegaSigma, "omega-sigma"},
      {0, 3, fd::PsiOracle::Branch::kFs, "fs"},
      {1, 1, fd::PsiOracle::Branch::kFs, "fs"},
  };
  for (const Row& row : rows) {
    bool all = true, commit = false, abort_seen = false;
    Series t;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const auto st =
          run_e2e(5, row.no_votes, row.crashes, row.branch, seed);
      all = all && st.all_decided;
      commit = commit || st.committed;
      abort_seen = abort_seen || st.aborted;
      t.add(st.last_decision_time);
    }
    const char* outcome = commit && !abort_seen ? "COMMIT"
                          : (!commit && abort_seen ? "ABORT" : "MIXED?");
    std::printf("  %8d  %7d  %-11s  %-7s  %-7s  %20.0f\n", row.no_votes,
                row.crashes, row.bname, all ? "yes" : "NO", outcome,
                t.mean());
  }
  std::printf("\nexpected shape: only the first row commits (all Yes, no "
              "failure — mandatory); every other row aborts; survivors "
              "always decide (non-blocking).\n");
}

void BM_NbacE2e(benchmark::State& state) {
  const int crashes = static_cast<int>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto st = run_e2e(5, 0, crashes,
                            crashes > 0 ? fd::PsiOracle::Branch::kFs
                                        : fd::PsiOracle::Branch::kOmegaSigma,
                            seed++);
    benchmark::DoNotOptimize(st);
    state.counters["decision_steps"] = st.last_decision_time;
  }
}
BENCHMARK(BM_NbacE2e)->Arg(0)->Arg(1)->Arg(3);

}  // namespace
}  // namespace wfd::bench

int main(int argc, char** argv) {
  wfd::bench::shape_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
