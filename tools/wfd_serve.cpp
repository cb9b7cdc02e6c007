// wfd_serve — the protocol stack as a service.
//
// Boots the replicated KV (src/runtime/kv.h): n replicas, each a
// thread-per-process runtime host running the *unmodified* module stack
// (ReplicatedObjectModule / AtomicBroadcast / URB / per-round
// (Omega, Sigma) consensus) with the implementable detectors
// (heartbeat/lease Omega + phi-accrual quorum view) merged into the
// host's detector sample. Examples:
//
//   wfd_serve                         # demo: puts/gets, kill the leader,
//                                     # show the service surviving it
//   wfd_serve --n=5 --tcp             # same over loopback-TCP sockets
//   wfd_serve --seconds=10            # closed-loop load, progress line/s
//
// Measured load (minutes, with machine context and correctness gates)
// lives in perf/: `python3 perf/run.py --workload kv_n3_closed`.
//
// Exit status: 0 on success, 1 on usage error (a malformed or
// out-of-range flag is refused before anything starts), 2 when the
// service wedged (an operation exhausted every attempt).
#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "explore/option_text.h"
#include "runtime/kv.h"

using namespace wfd;

namespace {

using Clock = std::chrono::steady_clock;

struct Args {
  int n = 3;
  bool tcp = false;
  std::uint64_t seconds = 0;  ///< >0: timed load run instead of the demo.
  int clients = 3;
  std::uint64_t seed = 1;
};

void usage() {
  std::fprintf(
      stderr,
      "usage: wfd_serve [--n=N] [--tcp] [--seed=S]   N replicas, 1..%d\n"
      "                 [--seconds=S] [--clients=C]  timed closed-loop "
      "load\n",
      kMaxProcesses);
}

/// A strict decimal (explore/option_text.h: "1x", "-1" and overflow are
/// refused, never read as a prefix or wrapped) in [lo, hi].
bool parse_in(const std::string& v, std::uint64_t lo, std::uint64_t hi,
              std::uint64_t* out) {
  std::uint64_t x = 0;
  if (!explore::detail::parse_u64(v, &x) || x < lo || x > hi) return false;
  *out = x;
  return true;
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto val = [&](const char* name) -> std::optional<std::string> {
      const std::string prefix = std::string("--") + name + "=";
      if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
      return std::nullopt;
    };
    bool ok = true;
    std::uint64_t x = 0;
    if (arg == "--tcp") {
      a.tcp = true;
    } else if (auto v = val("n")) {
      ok = parse_in(*v, 1, kMaxProcesses, &x);
      a.n = static_cast<int>(x);
    } else if (auto v2 = val("seconds")) {
      ok = explore::detail::parse_u64(*v2, &a.seconds);
    } else if (auto v3 = val("clients")) {
      ok = parse_in(*v3, 1, INT_MAX, &x);
      a.clients = static_cast<int>(x);
    } else if (auto v4 = val("seed")) {
      ok = explore::detail::parse_u64(*v4, &a.seed);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
    if (!ok) {
      std::fprintf(stderr, "bad value: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

runtime::KvService::Options service_options(const Args& a) {
  runtime::KvService::Options so;
  so.n = a.n;
  so.seed = a.seed;
  so.tcp = a.tcp;
  return so;
}

/// One client thread's share of a closed-loop load run: alternating
/// put/get on per-client keys until the deadline, recording per-op
/// latency in microseconds.
struct LoadResult {
  std::vector<std::uint64_t> latencies_us;
  bool wedged = false;
};

LoadResult run_client(runtime::KvService& service, int client_id,
                      Clock::time_point deadline) {
  runtime::KvClient client(service,
                           static_cast<ProcessId>(client_id % service.n()));
  LoadResult res;
  std::uint32_t i = 0;
  while (Clock::now() < deadline) {
    const auto key = static_cast<std::uint32_t>(client_id * 100 + (i & 3));
    const auto value = static_cast<std::uint32_t>(client_id * 100000 + i);
    const auto t0 = Clock::now();
    const std::optional<std::int64_t> r =
        (i & 1) ? client.get(key) : client.put(key, value);
    if (!r.has_value()) {
      res.wedged = true;
      break;
    }
    res.latencies_us.push_back(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              t0)
            .count()));
    ++i;
  }
  return res;
}

struct RowStats {
  std::uint64_t ops = 0;
  double ops_per_sec = 0;
  std::uint64_t p50_us = 0;
  std::uint64_t p99_us = 0;
  bool wedged = false;
};

/// Drives `clients` closed-loop threads against a running service for
/// one second and merges their latency streams.
RowStats run_second(runtime::KvService& service, int clients) {
  const auto deadline = Clock::now() + std::chrono::seconds(1);
  std::vector<LoadResult> results(static_cast<std::size_t>(clients));
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(clients));
  const auto t0 = Clock::now();
  for (int c = 0; c < clients; ++c) {
    pool.emplace_back([&service, &results, c, deadline] {
      results[static_cast<std::size_t>(c)] = run_client(service, c, deadline);
    });
  }
  for (auto& t : pool) t.join();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - t0).count();

  RowStats row;
  std::vector<std::uint64_t> all;
  for (const LoadResult& r : results) {
    all.insert(all.end(), r.latencies_us.begin(), r.latencies_us.end());
    row.wedged = row.wedged || r.wedged;
  }
  row.ops = all.size();
  row.ops_per_sec = elapsed > 0 ? static_cast<double>(all.size()) / elapsed : 0;
  if (!all.empty()) {
    std::sort(all.begin(), all.end());
    row.p50_us = all[all.size() / 2];
    row.p99_us = all[std::min(all.size() - 1, all.size() * 99 / 100)];
  }
  return row;
}

/// Timed closed-loop load with a progress line per second.
int run_timed(const Args& a) {
  runtime::KvService service(service_options(a));
  service.start();
  std::printf("serving replicated KV: n=%d transport=%s\n", a.n,
              a.tcp ? "tcp" : "channel");
  RowStats total;
  for (std::uint64_t s = 0; s < a.seconds; ++s) {
    const RowStats row = run_second(service, a.clients);
    std::printf("[%2llu s] %8.1f ops/s  p50 %6llu us  p99 %6llu us  leader p%d\n",
                static_cast<unsigned long long>(s + 1), row.ops_per_sec,
                static_cast<unsigned long long>(row.p50_us),
                static_cast<unsigned long long>(row.p99_us),
                service.leader_view(0));
    total.ops += row.ops;
    total.wedged = total.wedged || row.wedged;
    if (total.wedged) break;
  }
  service.stop();
  std::printf("%llu ops total\n",
              static_cast<unsigned long long>(total.ops));
  return total.wedged ? 2 : 0;
}

/// The default guided tour: a few operations, then a leader kill, then
/// proof the service still answers (and still remembers).
int run_demo(const Args& a) {
  runtime::KvService service(service_options(a));
  service.start();
  std::printf("replicated KV up: n=%d transport=%s (unmodified module "
              "stack, heartbeat Omega + phi-accrual quorums)\n",
              a.n, a.tcp ? "tcp" : "channel");
  runtime::KvClient client(service, 0);
  const auto step = [&](const char* what,
                        std::optional<std::int64_t> r) -> bool {
    if (!r.has_value()) {
      std::fprintf(stderr, "%s: WEDGED\n", what);
      return false;
    }
    std::printf("%-28s -> %lld\n", what, static_cast<long long>(*r));
    return true;
  };
  if (!step("put k=1 v=41", client.put(1, 41))) return 2;
  if (!step("put k=1 v=42", client.put(1, 42))) return 2;
  if (!step("get k=1", client.get(1))) return 2;
  const ProcessId leader =
      service.leader_view(0) == kNoProcess ? 0 : service.leader_view(0);
  std::printf("killing leader p%d...\n", leader);
  service.kill(leader);
  runtime::KvClient survivor(
      service, static_cast<ProcessId>((leader + 1) % a.n));
  if (!step("put k=2 v=7 (post-kill)", survivor.put(2, 7))) return 2;
  const std::optional<std::int64_t> back = survivor.get(1);
  if (!step("get k=1 (post-kill)", back)) return 2;
  if (*back != 42) {
    std::fprintf(stderr, "DIVERGENCE: k=1 read %lld, expected 42\n",
                 static_cast<long long>(*back));
    service.stop();
    return 2;
  }
  std::printf("service survived the leader kill (%llu failovers seen)\n",
              static_cast<unsigned long long>(survivor.failovers()));
  service.stop();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) {
    usage();
    return 1;
  }
  if (a.seconds > 0) return run_timed(a);
  return run_demo(a);
}
