// Implementing Omega with heartbeats under partial synchrony.
//
// The oracle detectors elsewhere in the examples are *specifications*;
// this example shows a real message-passing implementation: heartbeats
// with adaptive timeouts pick the smallest trusted id, which claims a
// lease. Before GST the leader can flap; after GST every surviving
// process converges to the same correct leader — the Omega behaviour
// that (with Sigma) is the weakest thing consensus needs. It is the
// same module the replicated KV service runs (fd/heartbeat_omega.h).
//
// Build & run:   ./build/examples/leader_election
#include <cstdio>
#include <memory>
#include <vector>

#include "fd/heartbeat_omega.h"
#include "fd/oracle.h"
#include "sim/module.h"
#include "sim/scheduler.h"
#include "sim/simulator.h"

using namespace wfd;

int main() {
  constexpr int kN = 5;
  constexpr Time kGst = 20000;

  sim::FailurePattern pattern(kN);
  pattern.crash_at(0, 10000);  // The initial "leader" (smallest id) dies...
  pattern.crash_at(1, 35000);  // ...and so does its successor, after GST.

  sim::SimConfig cfg;
  cfg.n = kN;
  cfg.max_steps = 120000;
  cfg.seed = 3;
  sim::Simulator sim(cfg, pattern, std::make_unique<fd::NullOracle>(),
                     std::make_unique<sim::PartialSynchronyScheduler>(kGst));

  std::vector<fd::HeartbeatOmegaModule*> omegas(kN, nullptr);
  for (int i = 0; i < kN; ++i) {
    auto& host = sim.add_process<sim::ModularProcess>();
    omegas[static_cast<std::size_t>(i)] =
        &host.add_module<fd::HeartbeatOmegaModule>("omega");
  }

  std::printf("heartbeat-based Omega, n=%d, GST at t=%llu\n", kN,
              static_cast<unsigned long long>(kGst));
  std::printf("crashes: p0 at t=10000, p1 at t=35000\n\n");
  std::printf("%10s", "t");
  for (int i = 0; i < kN; ++i) std::printf("   p%d", i);
  std::printf("\n");

  sim.set_halt_on_done(false);
  for (int slice = 0; slice < 12; ++slice) {
    sim.run_for(10000);
    std::printf("%10llu", static_cast<unsigned long long>(sim.now()));
    for (int i = 0; i < kN; ++i) {
      if (pattern.crashed(i, sim.now())) {
        std::printf("    x");
      } else {
        std::printf("   %2d",
                    omegas[static_cast<std::size_t>(i)]->current_leader());
      }
    }
    std::printf("\n");
  }

  std::printf("\nexpected: columns converge to 2 (the smallest correct id) "
              "after GST and the crash of p1.\n");
  return 0;
}
