// E3 (Theorem 1, necessity / Figure 1): extracting Sigma from a register
// implementation. Shape table: emulation progress (write-read-probe
// iterations), emulated quorum sizes, and the completeness witness time,
// for two substrates: ABD-over-Sigma (D = Sigma) and majority-ABD with
// no detector at all (D = nothing, majority-correct environment).
#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "bench_util.h"
#include "extract/participant_tracker.h"
#include "extract/sigma_extraction.h"
#include "fd/history_checker.h"
#include "reg/abd_register.h"

namespace wfd::bench {
namespace {

using extract::ParticipantTracker;
using extract::QuorumList;
using extract::SigmaExtractionModule;
using Reg = reg::AbdRegisterModule<QuorumList>;

struct ExtractStats {
  bool legal = false;
  double iterations = 0.0;
  double completeness_witness = 0.0;
  double mean_quorum_size = 0.0;
};

ExtractStats run_extraction(int n, int crashes, reg::QuorumRule rule,
                            std::uint64_t seed) {
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 250000;
  cfg.seed = seed;
  const auto f = staggered_crashes(n, crashes, 8000);
  auto oracle = (rule == reg::QuorumRule::kSigma)
                    ? sigma_oracle(500)
                    : std::unique_ptr<fd::Oracle>(
                          std::make_unique<fd::NullOracle>());
  sim::Simulator s(cfg, f, std::move(oracle), random_sched());
  std::vector<sim::FdSampleRecord> samples;
  std::vector<std::unique_ptr<ParticipantTracker>> trackers;
  std::vector<SigmaExtractionModule*> extractors;
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    trackers.push_back(std::make_unique<ParticipantTracker>(i));
    host.set_instrument(trackers.back().get());
    std::vector<std::size_t> registers;
    for (int j = 0; j < n; ++j) {
      Reg::Options opt;
      opt.rule = rule;
      registers.push_back(
          host.add_module<Reg>("xreg/" + std::to_string(j), opt).index());
    }
    extractors.push_back(&host.add_module<SigmaExtractionModule>(
        "extract", std::move(registers), trackers.back().get(), &samples));
  }
  s.set_halt_on_done(false);
  s.run();

  ExtractStats out;
  for (ProcessId p = 0; p < n; ++p) {
    if (f.correct().contains(p)) {
      out.iterations += static_cast<double>(
          extractors[static_cast<std::size_t>(p)]->iterations());
    }
  }
  out.iterations /= static_cast<double>(f.correct().size());
  double size_sum = 0.0;
  for (const auto& rec : samples) {
    size_sum += static_cast<double>(rec.value.sigma->size());
  }
  if (!samples.empty()) {
    out.mean_quorum_size = size_sum / static_cast<double>(samples.size());
  }
  const auto check = fd::check_sigma_history(samples, f);
  out.legal = check.ok;
  out.completeness_witness = static_cast<double>(check.witness_time);
  return out;
}

void shape_table() {
  table_header("E3: Sigma extraction from register implementations (Fig. 1)",
               "  substrate        n  crashes  legal  iters/proc  |quorum|  "
               "completeness-witness(t)");
  struct Row {
    const char* name;
    reg::QuorumRule rule;
    int n;
    int crashes;
  };
  const Row rows[] = {
      {"ABD(Sigma)", reg::QuorumRule::kSigma, 3, 0},
      {"ABD(Sigma)", reg::QuorumRule::kSigma, 3, 2},
      {"ABD(Sigma)", reg::QuorumRule::kSigma, 4, 3},
      {"ABD(majority)", reg::QuorumRule::kMajority, 3, 1},
      {"ABD(majority)", reg::QuorumRule::kMajority, 5, 2},
  };
  for (const Row& row : rows) {
    Series iters, qsize, witness;
    bool legal = true;
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      const auto st = run_extraction(row.n, row.crashes, row.rule, seed);
      legal = legal && st.legal;
      iters.add(st.iterations);
      qsize.add(st.mean_quorum_size);
      witness.add(st.completeness_witness);
    }
    std::printf("  %-14s %3d  %7d  %-5s  %10.0f  %8.1f  %23.0f\n", row.name,
                row.n, row.crashes, legal ? "yes" : "NO", iters.mean(),
                qsize.mean(), witness.mean());
  }
  std::printf("\nexpected shape: every substrate yields a legal Sigma "
              "history — even the detector-free majority registers (Sigma "
              "is what registers 'contain'); quorums shrink towards the "
              "correct set after the last crash.\n");
}

void BM_SigmaExtraction(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto st = run_extraction(3, 1, reg::QuorumRule::kSigma, seed++);
    benchmark::DoNotOptimize(st);
    state.counters["iters_per_proc"] = st.iterations;
  }
}
BENCHMARK(BM_SigmaExtraction);

}  // namespace
}  // namespace wfd::bench

int main(int argc, char** argv) {
  wfd::bench::shape_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
