// Parallel checking campaign: fans randomized exploration across a
// thread pool and aggregates results lock-free.
//
// Two kinds of worker share the pool:
//  * Random-walk workers draw whole runs from the choice tree with
//    per-run deterministic seeds, recording every decision so any
//    violating run is immediately replayable (and shrinkable).
//  * The frontier is ONE wave-scheduled exhaustive Explorer running
//    with SearchConfig::frontier_workers threads (and an order seed
//    derived from the campaign seed), alongside the walkers. It shares
//    the campaign's stop flag (SearchConfig::cancel on the frontier's
//    config), so a stop_at_first counterexample claimed by any worker
//    halts it within one step instead of letting it burn its full
//    state budget — and vice versa.
//
// Safety violations yield a counterexample (the first one is claimed by
// an atomic flag and, optionally, shrunk). Liveness clauses are only
// *suspects* on bounded runs — a run that merely hit the horizon hasn't
// refuted "eventually" — so they are counted separately and never
// produce a counterexample.
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
  std::uint64_t nodes = 0;  ///< Choice points, frontier search.
  std::uint64_t violations = 0;
  std::uint64_t liveness_suspects = 0;
  std::optional<Counterexample> cex;  ///< First claimed (shrunk if asked).
  std::uint64_t shrunk_from = 0;  ///< Decisions before shrinking (0: none).
};

/// Runs the campaign described by `cfg` (the campaign section plus
/// scenario/seed/stop_at_first; `threads` is the random-walk worker
/// count, `frontier_workers` the frontier Explorer's thread count — 0
/// disables the frontier — and `max_states` its state cap). The
/// frontier also stays off when the scenario has no invariant and no
/// liveness clause, since it could not report anything. `cfg` must
/// already be valid.
CampaignReport run_campaign(const ScenarioBuilder& build,
                            const SearchConfig& cfg);

}  // namespace wfd::explore
