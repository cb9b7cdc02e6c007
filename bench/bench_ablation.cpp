// E12 (ablations of the design points DESIGN.md calls out):
//  (a) the read write-back phase of ABD — cost of atomicity vs the
//      regular-register shortcut (which the tests show is unsafe);
//  (b) Sigma history shape — quorum size directly prices every register
//      phase (common-core vs majority vs all-then-correct oracles);
//  (c) the consensus leader's retry interval — too eager wastes rounds,
//      too lazy wastes time when the first attempt is lost.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "consensus/omega_sigma_consensus.h"
#include "reg/abd_register.h"
#include "reg/register_client.h"

namespace wfd::bench {
namespace {

struct OpCost {
  double steps_per_op = 0.0;
  double msgs_per_op = 0.0;
};

OpCost register_cost(bool atomic_reads, fd::SigmaOracle::Mode mode,
                     std::uint64_t seed) {
  const int n = 5;
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 400000;
  cfg.seed = seed;
  fd::SigmaOracle::Options so;
  so.mode = mode;
  so.max_stabilization = 200;
  sim::Simulator s(cfg, sim::FailurePattern(n),
                   std::make_unique<fd::SigmaOracle>(so), random_sched());
  reg::History history;
  reg::AbdRegisterModule<std::int64_t>::Options ropt;
  ropt.atomic_reads = atomic_reads;
  reg::RegisterWorkloadModule::Options wopt;
  wopt.num_ops = 6;
  wopt.write_percent = 30;  // Read-heavy: the ablation targets reads.
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    auto& r =
        host.add_module<reg::AbdRegisterModule<std::int64_t>>("reg", ropt);
    host.add_module<reg::RegisterWorkloadModule>("load", r.index(), &history,
                                                 wopt);
  }
  const auto res = s.run();
  OpCost out;
  const auto done = history.completed();
  if (done > 0) {
    out.steps_per_op =
        static_cast<double>(res.steps) / static_cast<double>(done);
    out.msgs_per_op = static_cast<double>(s.trace().stats().messages_sent) /
                      static_cast<double>(done);
  }
  return out;
}

void ablation_tables() {
  table_header("E12a: read write-back ablation (n=5, read-heavy; the "
               "regular variant is UNSAFE — see tests)",
               "  reads        steps/op  msgs/op");
  for (const bool atomic : {true, false}) {
    Series st, ms;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const auto c =
          register_cost(atomic, fd::SigmaOracle::Mode::kCommonCore, seed);
      st.add(c.steps_per_op);
      ms.add(c.msgs_per_op);
    }
    std::printf("  %-11s  %8.1f  %7.1f\n", atomic ? "atomic" : "regular",
                st.mean(), ms.mean());
  }

  table_header("E12b: Sigma history shape vs register cost (n=5)",
               "  sigma-mode        steps/op  msgs/op");
  struct Mode {
    fd::SigmaOracle::Mode mode;
    const char* name;
  };
  for (const Mode m : {Mode{fd::SigmaOracle::Mode::kCommonCore, "common-core"},
                       Mode{fd::SigmaOracle::Mode::kMajority, "majority"},
                       Mode{fd::SigmaOracle::Mode::kAllThenCorrect,
                            "all-then-correct"}}) {
    Series st, ms;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const auto c = register_cost(true, m.mode, seed);
      st.add(c.steps_per_op);
      ms.add(c.msgs_per_op);
    }
    std::printf("  %-16s  %8.1f  %7.1f\n", m.name, st.mean(), ms.mean());
  }

  table_header("E12c: consensus leader retry interval with the leader "
               "partitioned off until t=30000 (n=5)",
               "  retry(own steps)   last-decision(steps)   leader-rounds");
  for (const Time retry : {8, 32, 128, 512, 2048}) {
    Series t, r;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      sim::SimConfig cfg;
      cfg.n = 5;
      cfg.max_steps = 400000;
      cfg.seed = seed;
      // Omega points at process 0 from the start, but 0's messages are
      // withheld until t=30000: every attempt before then stalls, so
      // the retry interval controls how many rounds are burned while
      // partitioned (and how stale state must be recovered after).
      fd::OmegaOracle::Options oo;
      oo.fixed_leader = 0;
      oo.max_stabilization = 100;
      fd::SigmaOracle::Options so;
      so.max_stabilization = 100;
      auto oracle = std::make_unique<fd::TupleOracle>(
          std::make_unique<fd::OmegaOracle>(oo),
          std::make_unique<fd::SigmaOracle>(so));
      auto filter = [](const sim::Envelope& e, Time now) {
        return e.from == 0 && now < 30000;
      };
      sim::Simulator s(cfg, sim::FailurePattern(5), std::move(oracle),
                       std::make_unique<sim::FilteredScheduler>(
                           random_sched(), filter));
      consensus::OmegaSigmaConsensusModule<int>::Options copt;
      copt.retry_interval = retry;
      std::vector<consensus::OmegaSigmaConsensusModule<int>*> mods;
      for (int i = 0; i < 5; ++i) {
        auto& host = s.add_process<sim::ModularProcess>();
        auto& c = host.add_module<consensus::OmegaSigmaConsensusModule<int>>(
            "cons", copt);
        c.propose(i % 2);
        mods.push_back(&c);
      }
      s.run();
      Time last = 0;
      double rounds = 0;
      for (ProcessId p = 0; p < 5; ++p) {
        const auto e = s.trace().first_event(p, "decide");
        if (e.t != kNever) last = std::max(last, e.t);
        rounds += static_cast<double>(
            mods[static_cast<std::size_t>(p)]->rounds_started());
      }
      t.add(static_cast<double>(last));
      r.add(rounds);
    }
    std::printf("  %16llu   %20.0f   %13.1f\n",
                static_cast<unsigned long long>(retry), t.mean(), r.mean());
  }
  std::printf("\nexpected shape: regular reads save ~40%% of a read's "
              "messages (at the price of atomicity); quorum shape moves "
              "cost marginally (every mode still needs one round trip to "
              "a quorum); eager retries burn rounds (~1/interval) while "
              "buying almost no latency.\n");
}

void BM_RegisterReadVariant(benchmark::State& state) {
  const bool atomic = state.range(0) != 0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto c =
        register_cost(atomic, fd::SigmaOracle::Mode::kCommonCore, seed++);
    benchmark::DoNotOptimize(c);
    state.counters["msgs_per_op"] = c.msgs_per_op;
  }
}
BENCHMARK(BM_RegisterReadVariant)->Arg(1)->Arg(0);

}  // namespace
}  // namespace wfd::bench

int main(int argc, char** argv) {
  wfd::bench::ablation_tables();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
