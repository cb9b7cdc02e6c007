// Distributed transaction commit with NBAC over (Psi, FS).
//
// Corollary 10 in practice: four bank branches must atomically commit a
// money transfer. Each branch validates its part and votes Yes/No; the
// NBAC stack (Figure 4: votes + FS, then quittable consensus over Psi)
// decides Commit or Abort uniformly. Three scenarios:
//   1. every branch votes Yes, nobody crashes     -> Commit (mandatory);
//   2. one branch detects a problem and votes No  -> Abort;
//   3. one branch crashes before voting           -> Abort (non-blocking:
//      the survivors still terminate).
//
// Build & run:   ./build/examples/atomic_commit
#include <cstdio>
#include <memory>
#include <optional>
#include <vector>

#include "fd/fs_oracle.h"
#include "fd/oracle.h"
#include "fd/psi_oracle.h"
#include "nbac/nbac_from_qc.h"
#include "qc/psi_qc.h"
#include "sim/module.h"
#include "sim/scheduler.h"
#include "sim/simulator.h"

using namespace wfd;

namespace {

constexpr int kN = 4;

struct Scenario {
  const char* name;
  std::vector<nbac::Vote> votes;
  std::optional<ProcessId> crash;  ///< Crashes at t=0, before voting.
  fd::PsiOracle::Branch branch;
};

void run_scenario(const Scenario& sc, std::uint64_t seed) {
  sim::FailurePattern pattern(kN);
  if (sc.crash.has_value()) pattern.crash_at(*sc.crash, 0);

  fd::PsiOracle::Options psi_opt;
  psi_opt.branch = sc.branch;
  psi_opt.max_switch_spread = 1000;
  fd::FsOracle::Options fs_opt;
  fs_opt.max_reaction_lag = 1000;
  auto oracle = std::make_unique<fd::TupleOracle>(
      std::make_unique<fd::PsiOracle>(psi_opt),
      std::make_unique<fd::FsOracle>(fs_opt));

  sim::SimConfig cfg;
  cfg.n = kN;
  cfg.max_steps = 200000;
  cfg.seed = seed;
  sim::Simulator sim(cfg, pattern, std::move(oracle),
                     std::make_unique<sim::RandomFairScheduler>());

  std::vector<const nbac::NbacFromQcModule*> nbacs;
  for (int i = 0; i < kN; ++i) {
    auto& host = sim.add_process<sim::ModularProcess>();
    auto& qc_mod = host.add_module<qc::PsiQcModule<int>>("qc");
    auto& nb =
        host.add_module<nbac::NbacFromQcModule>("nbac", qc_mod.index());
    if (!sc.crash.has_value() || *sc.crash != i) {
      nb.vote(sc.votes[static_cast<std::size_t>(i)]);
    }
    nbacs.push_back(&nb);
  }

  const auto result = sim.run();
  std::printf("--- %s ---\n", sc.name);
  for (int i = 0; i < kN; ++i) {
    const char* vote =
        (sc.crash.has_value() && *sc.crash == i)
            ? "(crashed)"
            : (sc.votes[static_cast<std::size_t>(i)] == nbac::Vote::kYes
                   ? "Yes"
                   : "No");
    const nbac::NbacFromQcModule& nb = *nbacs[static_cast<std::size_t>(i)];
    const char* decision = "-";
    if (nb.decided()) {
      decision =
          nb.decision() == nbac::Decision::kCommit ? "COMMIT" : "ABORT";
    }
    std::printf("  branch %d: vote %-9s decision %s\n", i, vote, decision);
  }
  std::printf("  (%llu steps, %llu messages)\n",
              static_cast<unsigned long long>(result.steps),
              static_cast<unsigned long long>(
                  sim.trace().stats().messages_sent));
}

}  // namespace

int main() {
  std::printf("atomic commitment across %d bank branches (NBAC over "
              "(Psi, FS))\n\n", kN);

  run_scenario({"all Yes, no failure: must commit",
                {nbac::Vote::kYes, nbac::Vote::kYes, nbac::Vote::kYes,
                 nbac::Vote::kYes},
                std::nullopt,
                fd::PsiOracle::Branch::kOmegaSigma},
               11);

  run_scenario({"branch 2 votes No: abort",
                {nbac::Vote::kYes, nbac::Vote::kYes, nbac::Vote::kNo,
                 nbac::Vote::kYes},
                std::nullopt,
                fd::PsiOracle::Branch::kOmegaSigma},
               12);

  run_scenario({"branch 1 crashes before voting: abort, survivors live on",
                {nbac::Vote::kYes, nbac::Vote::kYes, nbac::Vote::kYes,
                 nbac::Vote::kYes},
                ProcessId{1},
                fd::PsiOracle::Branch::kFs},
               13);

  return 0;
}
