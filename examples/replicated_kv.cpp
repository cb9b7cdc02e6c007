// A replicated key-value store over Sigma-backed atomic registers.
//
// Theorem 1 in practice: one ABD register per key, with quorums supplied
// by the Sigma failure detector. The store stays linearizable AND live
// even when all but one replica crash — an environment in which the
// classical majority-based replication would block forever.
//
// Build & run:   ./build/examples/replicated_kv
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fd/sigma_oracle.h"
#include "reg/abd_register.h"
#include "sim/module.h"
#include "sim/scheduler.h"
#include "sim/simulator.h"

using namespace wfd;

namespace {

constexpr int kN = 4;
const std::vector<std::string> kKeys = {"alice", "bob", "carol"};

/// A client that runs a small scripted session against the KV store and
/// prints what it observes.
class KvClient : public sim::Module, public sim::Listener<std::int64_t> {
 public:
  using Register = reg::AbdRegisterModule<std::int64_t>;

  /// `store`: each key's register, by its position in this host.
  explicit KvClient(std::map<std::string, std::size_t> store)
      : store_(std::move(store)) {}

  void on_message(ProcessId, const sim::Payload&) override {}

  void on_tick() override {
    if (busy_ || script_pos_ >= script().size()) return;
    const auto& [key, deposit] = script()[script_pos_++];
    busy_ = true;
    key_ = key;
    add_ = deposit;
    // A deposit's read-modify-write is split into two linearizable ops
    // here; a production store would layer consensus (or the SMR
    // register) for true transactions — see the atomic_commit example.
    account().read(hook(kRead));
  }

  /// The read, or a deposit's write of the new balance, completed.
  void on_result(std::uint64_t tag, const std::int64_t& value) override {
    if (tag == kRead && add_ != 0) {
      balance_ = value;
      account().write(balance_ + add_, hook(kWrite));
      return;
    }
    if (tag == kRead) {
      std::printf("[t=%llu] p%d: read %s = %lld\n",
                  static_cast<unsigned long long>(now()), self(),
                  key_.c_str(), static_cast<long long>(value));
    } else {
      std::printf("[t=%llu] p%d: %s += %lld (balance %lld -> %lld)\n",
                  static_cast<unsigned long long>(now()), self(), key_.c_str(),
                  static_cast<long long>(add_),
                  static_cast<long long>(balance_),
                  static_cast<long long>(balance_ + add_));
    }
    busy_ = false;
  }

  [[nodiscard]] bool done() const override {
    return !busy_ && script_pos_ >= script().size();
  }

 private:
  /// (key, deposit) pairs; deposit 0 = plain read.
  [[nodiscard]] const std::vector<std::pair<std::string, std::int64_t>>&
  script() const {
    static const std::vector<std::pair<std::string, std::int64_t>> kScript = {
        {"alice", 100}, {"bob", 250}, {"alice", -40},
        {"carol", 75},  {"alice", 0}, {"bob", 0},
    };
    return kScript;
  }

  enum : std::uint64_t { kRead, kWrite };

  [[nodiscard]] Register& account() const {
    return host().module_at<Register>(store_.at(key_));
  }

  std::map<std::string, std::size_t> store_;
  bool busy_ = false;
  std::size_t script_pos_ = 0;
  // The operation in flight.
  std::string key_;
  std::int64_t add_ = 0;  ///< The deposit; 0 = plain read.
  std::int64_t balance_ = 0;
};

}  // namespace

int main() {
  // Three of four replicas crash *while the session is running* — only
  // p0 survives. Sigma keeps the store both safe and live regardless
  // (operations stall briefly until the detector's quorums shed the
  // crashed replicas, then proceed).
  sim::FailurePattern pattern(kN);
  pattern.crash_at(1, 150);
  pattern.crash_at(2, 250);
  pattern.crash_at(3, 350);

  fd::SigmaOracle::Options sigma_opt;
  sigma_opt.max_stabilization = 2000;

  sim::SimConfig cfg;
  cfg.n = kN;
  cfg.max_steps = 400000;
  cfg.seed = 7;
  sim::Simulator sim(cfg, pattern,
                     std::make_unique<fd::SigmaOracle>(sigma_opt),
                     std::make_unique<sim::RandomFairScheduler>());

  for (int i = 0; i < kN; ++i) {
    auto& host = sim.add_process<sim::ModularProcess>();
    std::map<std::string, std::size_t> store;
    for (const auto& key : kKeys) {
      store[key] = host.add_module<KvClient::Register>("kv/" + key).index();
    }
    // Only p0 runs the client session; all replicas serve the registers.
    if (i == 0) host.add_module<KvClient>("client", std::move(store));
  }

  std::printf("replicated KV store: %d replicas, 3 of them crash\n", kN);
  const auto result = sim.run();
  std::printf("run: %llu steps, all operations completed: %s\n",
              static_cast<unsigned long long>(result.steps),
              result.all_done ? "yes" : "NO");
  return 0;
}
