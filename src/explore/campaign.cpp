#include "explore/campaign.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "common/check.h"
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
  WFD_CHECK_MSG(cfg.scenario.liveness.empty(),
                "the campaign checks no liveness clause; use the explorer");
  std::atomic<std::uint64_t> next_run{0};
  std::atomic<std::uint64_t> runs{0};
  std::atomic<std::uint64_t> steps{0};
  std::atomic<std::uint64_t> violations{0};
  std::atomic<std::uint64_t> suspects{0};
  std::atomic<bool> stop{false};
  std::atomic<bool> claimed{false};
  // Written by the single thread that wins `claimed`, read after join.
  std::optional<Counterexample> cex;

  const auto worker = [&] {
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
        v = check_invariants(sc);
        if (v.has_value()) break;
      }
      steps.fetch_add(run_steps, std::memory_order_relaxed);
      runs.fetch_add(1, std::memory_order_relaxed);
      if (v.has_value()) {
        violations.fetch_add(1, std::memory_order_relaxed);
        if (cfg.stop_at_first) stop.store(true, std::memory_order_relaxed);
        bool expected = false;
        if (claimed.compare_exchange_strong(expected, true)) {
          cex = Counterexample{rec.log(), *v, run_steps};
        }
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

  std::vector<std::thread> pool;
  const int workers = std::max(cfg.threads, 1);
  pool.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();

  CampaignReport rep;
  rep.runs = runs.load();
  rep.steps = steps.load();
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
