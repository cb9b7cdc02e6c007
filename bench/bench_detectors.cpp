// E10: the detector landscape. Shape tables: convergence/reaction
// witnesses of every oracle class vs its stabilisation bound, and the
// heartbeat Omega's convergence vs GST — the constructive counterpart of
// the Chandra-Toueg hierarchy the paper builds on.
#include <benchmark/benchmark.h>

#include <memory>

#include "bench_util.h"
#include "fd/classic_oracles.h"
#include "fd/history_checker.h"
#include "fd/heartbeat_omega.h"
#include "sim/fd_sampler.h"
#include "sim/process.h"

namespace wfd::bench {
namespace {

class NopProcess : public sim::Process {
 public:
  void on_step(sim::Context&, const sim::Envelope*) override {}
};

double oracle_witness(const char* which, Time stab, std::uint64_t seed) {
  const int n = 5;
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 8 * stab + 20000;
  cfg.seed = seed;
  cfg.record_fd_samples = true;
  auto f = staggered_crashes(n, 2, stab);
  std::unique_ptr<fd::Oracle> oracle;
  if (std::string(which) == "omega") {
    fd::OmegaOracle::Options o;
    o.max_stabilization = stab;
    oracle = std::make_unique<fd::OmegaOracle>(o);
  } else if (std::string(which) == "sigma") {
    fd::SigmaOracle::Options o;
    o.max_stabilization = stab;
    oracle = std::make_unique<fd::SigmaOracle>(o);
  } else {
    fd::FsOracle::Options o;
    o.max_reaction_lag = stab;
    oracle = std::make_unique<fd::FsOracle>(o);
  }
  sim::Simulator s(cfg, f, std::move(oracle), random_sched());
  for (int i = 0; i < n; ++i) s.add_process<NopProcess>();
  s.run();
  fd::CheckResult r;
  if (std::string(which) == "omega") {
    r = fd::check_omega_history(s.trace().samples(), f);
  } else if (std::string(which) == "sigma") {
    r = fd::check_sigma_history(s.trace().samples(), f);
  } else {
    r = fd::check_fs_history(s.trace().samples(), f);
  }
  return r.ok ? static_cast<double>(r.witness_time) : -1.0;
}

double heartbeat_omega_witness(Time gst, std::uint64_t seed) {
  const int n = 4;
  sim::FailurePattern f(n);
  f.crash_at(0, gst / 2);
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 6 * gst + 80000;
  cfg.seed = seed;
  sim::Simulator s(cfg, f, std::make_unique<fd::NullOracle>(),
                   std::make_unique<sim::PartialSynchronyScheduler>(gst));
  std::vector<sim::FdSampleRecord> samples;
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    auto& om = host.add_module<fd::HeartbeatOmegaModule>("omega");
    host.add_module<sim::FdSamplerModule>("sampler", &om, &samples, 32);
  }
  s.set_halt_on_done(false);
  s.run();
  const auto r = fd::check_omega_history(samples, f);
  return r.ok ? static_cast<double>(r.witness_time) : -1.0;
}

void shape_tables() {
  table_header("E10a: oracle convergence witness vs stabilisation bound "
               "(n=5, 2 crashes)",
               "  stabilisation   omega-witness   sigma-witness   fs-witness");
  for (Time stab : {200, 800, 3200, 12800}) {
    Series om, si, fs;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      om.add(oracle_witness("omega", stab, seed));
      si.add(oracle_witness("sigma", stab, seed));
      fs.add(oracle_witness("fs", stab, seed));
    }
    std::printf("  %13llu   %13.0f   %13.0f   %10.0f\n",
                static_cast<unsigned long long>(stab), om.mean(), si.mean(),
                fs.mean());
  }

  table_header("E10b: heartbeat Omega convergence vs GST (n=4, 1 crash)",
               "      GST   convergence-witness(t)");
  for (Time gst : {2000, 8000, 32000}) {
    Series w;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      w.add(heartbeat_omega_witness(gst, seed));
    }
    std::printf("  %7llu   %22.0f\n", static_cast<unsigned long long>(gst),
                w.mean());
  }
  std::printf("\nexpected shape: every witness scales linearly with the "
              "stabilisation bound / GST; -1 would mean an illegal history "
              "(never happens).\n");
}

void BM_OracleQuery(benchmark::State& state) {
  const int n = 8;
  sim::FailurePattern f(n);
  fd::OmegaOracle om;
  om.begin_run(f, 1, 1 << 20);
  Time t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(om.query(static_cast<ProcessId>(t % n), t));
    ++t;
  }
}
BENCHMARK(BM_OracleQuery);

}  // namespace
}  // namespace wfd::bench

int main(int argc, char** argv) {
  wfd::bench::shape_tables();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
