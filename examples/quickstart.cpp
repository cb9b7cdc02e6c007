// Quickstart: fault-tolerant consensus with the weakest detector.
//
// Five processes propose values; two of them crash mid-run. With the
// (Omega, Sigma) failure detector — the weakest one that solves
// consensus in ANY environment (Corollary 4 of the paper) — the
// survivors still reach a common decision.
//
// Build & run:   ./build/examples/quickstart
#include <cstdio>
#include <memory>
#include <vector>

#include "consensus/omega_sigma_consensus.h"
#include "fd/omega_oracle.h"
#include "fd/oracle.h"
#include "fd/sigma_oracle.h"
#include "sim/module.h"
#include "sim/scheduler.h"
#include "sim/simulator.h"

using namespace wfd;

int main() {
  constexpr int kN = 5;

  // 1. Pick the environment: who crashes, and when. Here processes 1
  //    and 3 crash — note that with a second crash pending, a correct
  //    majority is not guaranteed at all times, which is exactly where
  //    plain Omega-based consensus would be stuck without Sigma.
  sim::FailurePattern pattern(kN);
  pattern.crash_at(1, 2000);
  pattern.crash_at(3, 6000);

  // 2. Build the failure detector (Omega, Sigma) as an oracle drawing a
  //    legal history for this pattern.
  fd::OmegaOracle::Options omega_opt;
  omega_opt.max_stabilization = 1000;
  fd::SigmaOracle::Options sigma_opt;
  sigma_opt.max_stabilization = 1000;
  auto oracle = std::make_unique<fd::TupleOracle>(
      std::make_unique<fd::OmegaOracle>(omega_opt),
      std::make_unique<fd::SigmaOracle>(sigma_opt));

  // 3. Assemble the simulated system: one consensus module per process.
  sim::SimConfig cfg;
  cfg.n = kN;
  cfg.max_steps = 100000;
  cfg.seed = 2024;
  sim::Simulator sim(cfg, pattern, std::move(oracle),
                     std::make_unique<sim::RandomFairScheduler>());

  std::vector<const consensus::OmegaSigmaConsensusModule<int>*> cons;
  std::printf("proposals: ");
  for (int i = 0; i < kN; ++i) {
    auto& host = sim.add_process<sim::ModularProcess>();
    auto& c =
        host.add_module<consensus::OmegaSigmaConsensusModule<int>>("cons");
    const int proposal = (i % 2 == 0) ? 10 + i : 20 + i;
    std::printf("p%d->%d ", i, proposal);
    c.propose(proposal);
    cons.push_back(&c);
  }
  std::printf("\n");

  // 4. Run to completion and report.
  const auto result = sim.run();
  std::printf("run: %llu steps, %llu messages\n",
              static_cast<unsigned long long>(result.steps),
              static_cast<unsigned long long>(
                  sim.trace().stats().messages_sent));
  for (int i = 0; i < kN; ++i) {
    const auto& c = *cons[static_cast<std::size_t>(i)];
    if (c.decided()) {
      std::printf("p%d decided %d%s\n", i, c.decision(),
                  pattern.faulty().contains(i) ? " (before crashing)" : "");
    } else {
      std::printf("p%d crashed without deciding\n", i);
    }
  }
  return 0;
}
