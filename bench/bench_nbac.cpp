// E8 (Theorem 8, Figures 4 & 5): the QC <-> NBAC transformations. Shape
// table: the overhead of each direction — NBAC-from-QC adds one vote
// exchange on top of QC; QC-from-NBAC adds one proposal exchange on top
// of NBAC (so the round trip QC -> NBAC -> QC costs both).
#include <benchmark/benchmark.h>

#include <optional>

#include "bench_util.h"
#include "nbac/nbac_from_qc.h"
#include "qc/psi_qc.h"
#include "qc/qc_from_nbac.h"

namespace wfd::bench {
namespace {

struct StackStats {
  bool all_decided = false;
  double last_decision_time = 0.0;
  double messages = 0.0;
};

enum class Stack { kQcOnly, kNbacOverQc, kQcOverNbacOverQc };

StackStats run_stack(Stack stack, int n, std::uint64_t seed) {
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 400000;
  cfg.seed = seed;
  sim::Simulator s(cfg, sim::FailurePattern(n),
                   psi_fs_oracle(fd::PsiOracle::Branch::kOmegaSigma, 500),
                   random_sched());
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    auto& q = host.add_module<qc::PsiQcModule<int>>("qc");
    switch (stack) {
      case Stack::kQcOnly:
        q.propose(i % 2);
        break;
      case Stack::kNbacOverQc: {
        auto& nb = host.add_module<nbac::NbacFromQcModule>("nbac", q.index());
        nb.vote(nbac::Vote::kYes);
        break;
      }
      case Stack::kQcOverNbacOverQc: {
        auto& nb = host.add_module<nbac::NbacFromQcModule>("nbac", q.index());
        auto& outer =
            host.add_module<qc::QcFromNbacModule<int>>("oqc", nb.index());
        outer.propose(i % 2);
        break;
      }
    }
  }
  const auto res = s.run();
  StackStats out;
  out.all_decided = res.all_done;
  out.messages = static_cast<double>(s.trace().stats().messages_sent);
  const char* kind = (stack == Stack::kNbacOverQc) ? "nbac-decide"
                                                   : "qc-decide";
  Time last = 0;
  for (const auto& e : s.trace().events_of_kind(kind)) {
    last = std::max(last, e.t);
  }
  out.last_decision_time = static_cast<double>(last);
  return out;
}

void shape_table() {
  table_header("E8: transformation overhead (crash-free, all-Yes/0-1 inputs)",
               "    n  stack                 decided  last-decision(steps)  messages");
  struct Row {
    Stack stack;
    const char* name;
  };
  const Row stacks[] = {
      {Stack::kQcOnly, "QC (Fig.2)"},
      {Stack::kNbacOverQc, "NBAC<-QC (Fig.4)"},
      {Stack::kQcOverNbacOverQc, "QC<-NBAC<-QC (Fig.5)"},
  };
  for (int n : {3, 5, 7}) {
    for (const Row& row : stacks) {
      Series t, m;
      bool all = true;
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const auto st = run_stack(row.stack, n, seed);
        all = all && st.all_decided;
        t.add(st.last_decision_time);
        m.add(st.messages);
      }
      std::printf("  %3d  %-20s  %-7s  %20.0f  %8.0f\n", n, row.name,
                  all ? "yes" : "NO", t.mean(), m.mean());
    }
  }
  std::printf("\nexpected shape: each transformation layer adds one all-to-"
              "all exchange (~n^2 messages) and a small latency delta on "
              "top of the underlying QC.\n");
}

void BM_NbacStack(benchmark::State& state) {
  const auto stack = static_cast<Stack>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto st = run_stack(stack, 5, seed++);
    benchmark::DoNotOptimize(st);
    state.counters["messages"] = st.messages;
  }
}
BENCHMARK(BM_NbacStack)->Arg(0)->Arg(1)->Arg(2);

}  // namespace
}  // namespace wfd::bench

int main(int argc, char** argv) {
  wfd::bench::shape_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
