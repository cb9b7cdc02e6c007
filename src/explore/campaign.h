// Parallel checking campaign: random walks fanned across a thread pool,
// results aggregated lock-free.
//
// Each worker draws whole runs from the choice tree with per-run
// deterministic seeds, recording every decision so any violating run is
// immediately replayable (and shrinkable). The campaign samples; it
// reports no coverage. Exhaustive coverage, save/resume and liveness
// (fair-cycle) verdicts belong to the explorer (explore/explorer.h).
//
// Safety violations yield a counterexample (the first one is claimed by
// an atomic flag and, optionally, shrunk); under stop_at_first the claim
// also stops every other worker before its next run. Eventual
// properties are only *suspects* on bounded runs — a run that merely hit
// the horizon hasn't refuted "eventually" — so they are counted
// separately and never produce a counterexample.
#pragma once

#include <cstdint>
#include <optional>

#include "explore/scenario.h"
#include "explore/search_config.h"
#include "explore/types.h"

namespace wfd::explore {

struct CampaignReport {
  std::uint64_t runs = 0;   ///< Random-walk runs completed.
  std::uint64_t steps = 0;  ///< Simulator steps, all workers.
  std::uint64_t violations = 0;
  std::uint64_t liveness_suspects = 0;
  std::optional<Counterexample> cex;  ///< First claimed (shrunk if asked).
  std::uint64_t shrunk_from = 0;  ///< Decisions before shrinking (0: none).
};

/// Runs the campaign described by `cfg`: `runs` random walks on
/// `threads` workers, seeded from the scenario seed, with
/// `stop_at_first` and `shrink` as above. `cfg` must already be valid
/// and must name no liveness clause (`scenario.liveness` empty): the
/// walks check invariants and eventual properties, never a clause.
CampaignReport run_campaign(const ScenarioBuilder& build,
                            const SearchConfig& cfg);

}  // namespace wfd::explore
