// E5 (the proof cycle behind Corollaries 2-4): registers can be built
// from Sigma directly (ABD) or from consensus via state-machine
// replication; consensus can be built from (Omega, Sigma) directly or
// from registers plus Omega. Shape table: the cost of each construction
// for the same logical operation — the reductions are computable but not
// free, which is why they appear in proofs rather than systems.
#include <benchmark/benchmark.h>

#include <optional>
#include <string>

#include "bench_util.h"
#include "consensus/omega_sigma_consensus.h"
#include "consensus/register_consensus.h"
#include "reg/abd_register.h"
#include "smr/register_from_consensus.h"

namespace wfd::bench {
namespace {

struct CycleStats {
  bool done = false;
  double steps = 0.0;
  double messages = 0.0;
};

/// One write followed by one read, on either register construction.
CycleStats run_register_op(bool smr_backed, int n, std::uint64_t seed) {
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 600000;
  cfg.seed = seed;
  sim::Simulator s(cfg, sim::FailurePattern(n), omega_sigma_oracle(300),
                   random_sched());

  /// Process 0 writes the register at `position`, then reads it; every
  /// other process finishes at its first step.
  struct Driver : sim::Module, sim::Listener<std::int64_t> {
    explicit Driver(std::size_t p) : position(p) {}
    std::size_t position;
    bool started = false;
    bool finished = false;
    void on_message(ProcessId, const sim::Payload&) override {}
    void on_tick() override {
      if (started) return;
      started = true;
      if (self() != 0) {
        finished = true;
        return;
      }
      target().write(42, hook(0));
    }
    /// The write (tag 0), then the read (tag 1), completed.
    void on_result(std::uint64_t tag, const std::int64_t&) override {
      if (tag == 0) {
        target().read(hook(1));
      } else {
        finished = true;
      }
    }
    [[nodiscard]] bool done() const override { return finished; }
    [[nodiscard]] reg::RegisterApi<std::int64_t>& target() const {
      return host().module_at<reg::RegisterApi<std::int64_t>>(position);
    }
  };

  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    const std::size_t r =
        smr_backed
            ? host.add_module<smr::SmrRegisterModule>("reg").index()
            : host.add_module<reg::AbdRegisterModule<std::int64_t>>("reg")
                  .index();
    host.add_module<Driver>("driver", r);
  }
  const auto res = s.run();
  CycleStats out;
  out.done = res.all_done;
  out.steps = static_cast<double>(res.steps);
  out.messages = static_cast<double>(s.trace().stats().messages_sent);
  return out;
}

/// One consensus instance, direct or register-based.
CycleStats run_consensus_op(bool register_based, int n, std::uint64_t seed) {
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 600000;
  cfg.seed = seed;
  sim::Simulator s(cfg, sim::FailurePattern(n), omega_sigma_oracle(300),
                   random_sched());
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    if (register_based) {
      std::vector<std::size_t> regs;
      for (int j = 0; j < n; ++j) {
        regs.push_back(
            host.add_module<
                    consensus::RegisterConsensusModule<int>::Register>(
                    "breg/" + std::to_string(j))
                .index());
      }
      auto& c =
          host.add_module<consensus::RegisterConsensusModule<int>>("cons",
                                                                   regs);
      c.propose(i % 2);
    } else {
      auto& c =
          host.add_module<consensus::OmegaSigmaConsensusModule<int>>("cons");
      c.propose(i % 2);
    }
  }
  const auto res = s.run();
  CycleStats out;
  out.done = res.all_done;
  out.steps = static_cast<double>(res.steps);
  out.messages = static_cast<double>(s.trace().stats().messages_sent);
  return out;
}

void shape_table() {
  table_header("E5: the reduction cycle — direct vs derived constructions "
               "(crash-free)",
               "    n  construction                     done  steps  messages");
  for (int n : {3, 5}) {
    struct Row {
      const char* name;
      bool flag;
      bool is_register;
    };
    const Row rows[] = {
        {"register: ABD over Sigma", false, true},
        {"register: SMR over consensus", true, true},
        {"consensus: (Omega,Sigma) direct", false, false},
        {"consensus: registers + Omega", true, false},
    };
    for (const Row& row : rows) {
      Series steps, msgs;
      bool all = true;
      for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        const auto st = row.is_register ? run_register_op(row.flag, n, seed)
                                        : run_consensus_op(row.flag, n, seed);
        all = all && st.done;
        steps.add(st.steps);
        msgs.add(st.messages);
      }
      std::printf("  %3d  %-31s  %-4s  %5.0f  %8.0f\n", n, row.name,
                  all ? "yes" : "NO", steps.mean(), msgs.mean());
    }
  }
  std::printf("\nexpected shape: each derived construction costs a "
              "constant-factor more than its direct counterpart (SMR pays "
              "a consensus per op; register-based consensus pays ~4n "
              "register ops per round).\n");
}

void BM_RegisterConstruction(benchmark::State& state) {
  const bool smr = state.range(0) != 0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto st = run_register_op(smr, 3, seed++);
    benchmark::DoNotOptimize(st);
    state.counters["messages"] = st.messages;
  }
}
BENCHMARK(BM_RegisterConstruction)->Arg(0)->Arg(1);

void BM_ConsensusConstruction(benchmark::State& state) {
  const bool reg_based = state.range(0) != 0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto st = run_consensus_op(reg_based, 3, seed++);
    benchmark::DoNotOptimize(st);
    state.counters["messages"] = st.messages;
  }
}
BENCHMARK(BM_ConsensusConstruction)->Arg(0)->Arg(1);

}  // namespace
}  // namespace wfd::bench

int main(int argc, char** argv) {
  wfd::bench::shape_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
