// E7 (Theorem 6, necessity / Figure 3): extracting Psi from a QC
// algorithm. Shape table: how long the forest takes to produce decisions
// in all n+1 trees, when the real execution of A resolves the branch,
// and how the Sigma loop's rounds accumulate — per branch.
#include <benchmark/benchmark.h>

#include <string>

#include "bench_util.h"
#include "extract/psi_extraction.h"
#include "fd/history_checker.h"
#include "qc/psi_qc.h"

namespace wfd::bench {
namespace {

using extract::ExtractProposal;
using extract::PsiExtractionModule;
using extract::SandboxSpec;

SandboxSpec psi_qc_spec(int n) {
  SandboxSpec spec;
  spec.n = n;
  spec.build = [](sim::Simulator& inner, const std::vector<int>& proposals) {
    for (int i = 0; i < inner.n(); ++i) {
      auto& host = inner.add_process<sim::ModularProcess>();
      auto& q = host.add_module<qc::PsiQcModule<int>>("a");
      q.propose(proposals[static_cast<std::size_t>(i)]);
    }
  };
  spec.decision_of = [](sim::Simulator& inner,
                        ProcessId p) -> std::optional<int> {
    auto& host = dynamic_cast<sim::ModularProcess&>(inner.process(p));
    auto& q = host.module<qc::PsiQcModule<int>>("a");
    if (!q.decided()) return std::nullopt;
    return q.result().quit ? extract::kQuitDecision : q.result().value;
  };
  return spec;
}

struct PsiXStats {
  bool legal = false;
  double branch_time = 0.0;   ///< First non-bottom output at any process.
  double sigma_rounds = 0.0;  ///< Per correct process.
  double dag_nodes = 0.0;
  bool fs_branch = false;
};

PsiXStats run_extraction(int crashes, fd::PsiOracle::Branch branch,
                         std::uint64_t seed) {
  const int n = 3;
  auto f = staggered_crashes(n, crashes, 1000);
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 120000;
  cfg.seed = seed;
  sim::Simulator s(cfg, f, psi_fs_oracle(branch, 300), random_sched());
  std::vector<sim::FdSampleRecord> samples;
  std::vector<PsiExtractionModule*> xs;
  PsiExtractionModule::Options opt;
  opt.sample_period = 48;
  opt.gossip_period = 96;
  opt.analyze_period = 768;
  opt.window = 512;
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    PsiExtractionModule::OuterFactory outer =
        [](sim::ModuleHost& h,
           const std::string& nm) -> qc::QcApi<ExtractProposal>& {
      return h.add_module<qc::PsiQcModule<ExtractProposal>>(nm);
    };
    xs.push_back(&host.add_module<PsiExtractionModule>(
        "psix", psi_qc_spec(n), outer, &samples, opt));
  }
  s.set_halt_on_done(false);
  s.run();

  PsiXStats out;
  Time first_switch = kNever;
  for (const auto& rec : samples) {
    if (rec.value.psi->mode != fd::PsiValue::Mode::kBottom) {
      first_switch = std::min(first_switch, rec.t);
      if (rec.value.psi->mode == fd::PsiValue::Mode::kFs) {
        out.fs_branch = true;
      }
    }
  }
  out.branch_time =
      first_switch == kNever ? -1.0 : static_cast<double>(first_switch);
  for (ProcessId p = 0; p < n; ++p) {
    if (f.correct().contains(p)) {
      out.sigma_rounds += static_cast<double>(
          xs[static_cast<std::size_t>(p)]->sigma_rounds());
    }
  }
  out.sigma_rounds /= static_cast<double>(f.correct().size());
  // Report a correct process's DAG (a crashed process stops merging).
  for (ProcessId p = 0; p < n; ++p) {
    if (f.correct().contains(p)) {
      out.dag_nodes = std::max(
          out.dag_nodes,
          static_cast<double>(xs[static_cast<std::size_t>(p)]->dag().size()));
    }
  }
  const auto check = fd::check_psi_history(samples, f);
  out.legal = check.ok;
  return out;
}

void shape_table() {
  table_header("E7: Psi extraction from a QC algorithm (Fig. 3, n=3, "
               "A = Fig.2-QC, D = (Psi,FS))",
               "  crashes  branch(D)    legal  emul-branch  switch(t)  "
               "sigma-rounds/proc  dag-nodes");
  struct Row {
    int crashes;
    fd::PsiOracle::Branch branch;
    const char* name;
  };
  const Row rows[] = {
      {0, fd::PsiOracle::Branch::kOmegaSigma, "omega-sigma"},
      {1, fd::PsiOracle::Branch::kOmegaSigma, "omega-sigma"},
      {1, fd::PsiOracle::Branch::kFs, "fs"},
      {2, fd::PsiOracle::Branch::kFs, "fs"},
  };
  for (const Row& row : rows) {
    Series t, sr, dn;
    bool legal = true, fs = false;
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      const auto st = run_extraction(row.crashes, row.branch, seed);
      legal = legal && st.legal;
      fs = fs || st.fs_branch;
      t.add(st.branch_time);
      sr.add(st.sigma_rounds);
      dn.add(st.dag_nodes);
    }
    std::printf("  %7d  %-11s  %-5s  %-11s  %9.0f  %17.1f  %9.0f\n",
                row.crashes, row.name, legal ? "yes" : "NO",
                fs ? "fs" : "omega-sigma", t.mean(), sr.mean(), dn.mean());
  }
  std::printf("\nexpected shape: the emulated branch follows D's branch; "
              "the emulated output switches from bottom well inside the "
              "run; the Sigma loop keeps refreshing quorums in the "
              "omega-sigma branch.\n");
}

void BM_PsiExtraction(benchmark::State& state) {
  const bool fs = state.range(0) != 0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto st = run_extraction(fs ? 1 : 0,
                                   fs ? fd::PsiOracle::Branch::kFs
                                      : fd::PsiOracle::Branch::kOmegaSigma,
                                   seed++);
    benchmark::DoNotOptimize(st);
    state.counters["branch_time"] = st.branch_time;
  }
}
BENCHMARK(BM_PsiExtraction)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace wfd::bench

int main(int argc, char** argv) {
  wfd::bench::shape_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
