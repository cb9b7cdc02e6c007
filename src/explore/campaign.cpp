#include "explore/campaign.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "explore/explorer.h"
#include "explore/shrink.h"
#include "sim/choice.h"

namespace wfd::explore {

namespace {

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

CampaignReport run_campaign(const ScenarioBuilder& build,
                            const SearchConfig& cfg) {
  std::atomic<std::uint64_t> next_run{0};
  std::atomic<std::uint64_t> runs{0};
  std::atomic<std::uint64_t> steps{0};
  std::atomic<std::uint64_t> nodes{0};
  std::atomic<std::uint64_t> violations{0};
  std::atomic<std::uint64_t> suspects{0};
  std::atomic<bool> stop{false};
  std::atomic<bool> claimed{false};
  // Written by the single thread that wins `claimed`, read after join.
  std::optional<Counterexample> cex;

  const auto claim = [&](Counterexample candidate) {
    violations.fetch_add(1, std::memory_order_relaxed);
    if (cfg.stop_at_first) stop.store(true, std::memory_order_relaxed);
    bool expected = false;
    if (claimed.compare_exchange_strong(expected, true)) {
      cex = std::move(candidate);
    }
  };

  const auto random_worker = [&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::uint64_t i =
          next_run.fetch_add(1, std::memory_order_relaxed);
      if (i >= cfg.runs) break;
      sim::RandomChoices random(mix(cfg.scenario.seed ^ mix(i)));
      sim::RecordingChoices rec(random);
      Scenario sc = build(rec);
      std::optional<Violation> v;
      std::uint64_t run_steps = 0;
      while (sc.sim->step()) {
        ++run_steps;
        for (auto& inv : sc.invariants) {
          v = inv->check(*sc.sim);
          if (v.has_value()) break;
        }
        if (v.has_value()) break;
      }
      steps.fetch_add(run_steps, std::memory_order_relaxed);
      runs.fetch_add(1, std::memory_order_relaxed);
      if (v.has_value()) {
        claim(Counterexample{rec.log(), *v, run_steps});
        continue;
      }
      for (auto& ev : sc.eventuals) {
        if (ev->check_final(*sc.sim).has_value()) {
          suspects.fetch_add(1, std::memory_order_relaxed);
          break;
        }
      }
    }
  };

  // The frontier is one wave-parallel exhaustive search, not N
  // independent per-seed DFS workers: its frontier_workers threads
  // cooperate on a single deterministic frontier instead of racing
  // into overlapping subtrees. Cooperative cancel couples it to the
  // walkers: when either side claims a counterexample under
  // stop_at_first, the other stops within one step.
  const auto frontier_worker = [&] {
    SearchConfig fc = cfg;
    fc.threads = std::max(cfg.frontier_workers, 1);
    fc.stop_at_first = true;
    fc.order_seed = mix(cfg.scenario.seed ^ 0xf0f0f0f0ull);
    fc.budget_states = 0;
    fc.save_path.clear();
    fc.resume_path.clear();
    fc.cancel = &stop;
    Explorer ex(build, fc);
    const ExploreReport rep = ex.run();
    steps.fetch_add(rep.stats.steps, std::memory_order_relaxed);
    nodes.fetch_add(rep.stats.nodes, std::memory_order_relaxed);
    if (rep.cex.has_value()) claim(*rep.cex);
  };

  // The frontier can only report what an invariant or a liveness clause
  // flags. A scenario with neither (a never-halting service such as
  // omega-impl, checked by its eventual properties alone) would have
  // it fill the whole horizon for nothing, so ask one built instance.
  bool frontier_can_find = false;
  if (cfg.frontier_workers > 0) {
    sim::FixedChoices probe;
    const Scenario sc = build(probe);
    frontier_can_find = !sc.invariants.empty() || !sc.liveness.empty();
  }

  std::vector<std::thread> pool;
  const int walkers = std::max(cfg.threads, 1);
  pool.reserve(static_cast<std::size_t>(walkers) + 1);
  for (int i = 0; i < walkers; ++i) pool.emplace_back(random_worker);
  if (frontier_can_find) pool.emplace_back(frontier_worker);
  for (std::thread& t : pool) t.join();

  CampaignReport rep;
  rep.runs = runs.load();
  rep.steps = steps.load();
  rep.nodes = nodes.load();
  rep.violations = violations.load();
  rep.liveness_suspects = suspects.load();
  rep.cex = std::move(cex);
  if (rep.cex.has_value() && cfg.shrink) {
    const ShrinkResult s =
        shrink(build, rep.cex->decisions, rep.cex->violation.property);
    rep.shrunk_from = s.original_size;
    rep.cex->decisions = s.decisions;
  }
  return rep;
}

}  // namespace wfd::explore
