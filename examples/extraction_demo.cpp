// Watching the Figure 1 extraction emulate Sigma, live.
//
// The deepest idea in the paper's Theorem 1 is the necessity direction:
// *any* register implementation secretly contains a quorum failure
// detector. This demo runs majority-ABD registers — an algorithm using
// NO failure detector at all — in a majority-correct system, mounts the
// Figure 1 transformation on top, and prints each process's emulated
// Sigma output as the run progresses: watch the quorums start at
// {everyone}, then track the causal participant sets of real writes,
// and shed the crashed replica soon after it dies.
//
// Build & run:   ./build/examples/extraction_demo
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "extract/participant_tracker.h"
#include "extract/sigma_extraction.h"
#include "fd/history_checker.h"
#include "fd/oracle.h"
#include "reg/abd_register.h"
#include "sim/module.h"
#include "sim/scheduler.h"
#include "sim/simulator.h"

using namespace wfd;
using extract::ParticipantTracker;
using extract::QuorumList;
using extract::SigmaExtractionModule;
using Reg = reg::AbdRegisterModule<QuorumList>;

int main() {
  constexpr int kN = 3;
  sim::FailurePattern pattern(kN);
  pattern.crash_at(2, 30000);  // One replica dies mid-run.

  sim::SimConfig cfg;
  cfg.n = kN;
  cfg.max_steps = 120000;
  cfg.seed = 42;
  sim::Simulator sim(cfg, pattern, std::make_unique<fd::NullOracle>(),
                     std::make_unique<sim::RandomFairScheduler>());

  std::vector<sim::FdSampleRecord> samples;
  std::vector<std::unique_ptr<ParticipantTracker>> trackers;
  std::vector<SigmaExtractionModule*> extractors;
  for (int i = 0; i < kN; ++i) {
    auto& host = sim.add_process<sim::ModularProcess>();
    trackers.push_back(std::make_unique<ParticipantTracker>(i));
    host.set_instrument(trackers.back().get());
    std::vector<std::size_t> registers;
    for (int j = 0; j < kN; ++j) {
      Reg::Options opt;
      opt.rule = reg::QuorumRule::kMajority;  // Algorithm A uses no detector.
      registers.push_back(
          host.add_module<Reg>("xreg/" + std::to_string(j), opt).index());
    }
    extractors.push_back(&host.add_module<SigmaExtractionModule>(
        "extract", std::move(registers), trackers.back().get(), &samples));
  }

  std::printf("Figure 1: extracting Sigma from majority-ABD registers "
              "(no oracle), n=%d, p2 crashes at t=30000\n\n", kN);
  std::printf("%9s  %-12s %-12s %-12s %8s\n", "t", "Sigma-out p0",
              "Sigma-out p1", "Sigma-out p2", "iters p0");
  sim.set_halt_on_done(false);
  for (int slice = 0; slice < 12; ++slice) {
    sim.run_for(10000);
    std::printf("%9llu", static_cast<unsigned long long>(sim.now()));
    for (int i = 0; i < kN; ++i) {
      if (pattern.crashed(i, sim.now())) {
        std::printf("  %-12s", "x");
      } else {
        std::printf("  %-12s",
                    extractors[static_cast<std::size_t>(i)]
                        ->output()
                        .to_string()
                        .c_str());
      }
    }
    std::printf("  %7llu\n",
                static_cast<unsigned long long>(extractors[0]->iterations()));
  }

  const auto check = fd::check_sigma_history(samples, pattern);
  std::printf("\nemulated history is a legal Sigma history: %s",
              check.ok ? "yes" : "NO");
  if (check.ok) {
    std::printf(" (completeness witness at t=%llu)",
                static_cast<unsigned long long>(check.witness_time));
  } else {
    std::printf("  [%s]", check.violation.c_str());
  }
  std::printf("\n");
  return check.ok ? 0 : 1;
}
