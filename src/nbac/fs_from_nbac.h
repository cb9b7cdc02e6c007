// FS from any NBAC solution (Theorem 8b, second half; originally
// Charron-Bost & Toueg [5] and Guerraoui [11]).
//
// Processes run NBAC instances forever, voting Yes in each. While every
// instance commits the output stays green. As soon as an instance
// aborts, the output turns red permanently — and by NBAC validity an
// abort under all-Yes votes implies a failure occurred, which is exactly
// FS's accuracy clause. Completeness: if a process crashes, it stops
// voting, so by NBAC termination+validity the next instance aborts at
// every correct process.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/check.h"
#include "nbac/nbac_api.h"
#include "sim/module.h"

namespace wfd::nbac {

/// Listens to each instance's decision.
class FsFromNbacModule : public sim::Module,
                         public sim::FdSource,
                         public sim::Listener<Decision> {
 public:
  /// Builds a fresh NBAC stack on the host under the given module-name
  /// prefix. Every process must build the same stack under the same
  /// names. The returned reference must stay valid for the run.
  using NbacFactory = std::function<NbacApi&(const std::string& name_prefix)>;

  struct Options {
    /// Own-step pause between instances; 0 = 8 * n.
    Time period = 0;
    /// Stop after this many instances (0 = keep going forever); useful
    /// to bound finite test runs.
    std::uint64_t max_instances = 0;
  };

  explicit FsFromNbacModule(NbacFactory factory)
      : FsFromNbacModule(std::move(factory), Options{}) {}

  FsFromNbacModule(NbacFactory factory, Options opt)
      : opt_(opt), factory_(std::move(factory)) {
    WFD_CHECK(factory_ != nullptr);
  }

  void on_message(ProcessId, const sim::Payload&) override {}

  void on_tick() override {
    if (red_ || in_flight_) return;
    if (opt_.max_instances != 0 && launched_ >= opt_.max_instances) return;
    const Time period =
        opt_.period != 0 ? opt_.period : static_cast<Time>(8 * n());
    if (launched_ > 0 && ++idle_ < period) return;
    idle_ = 0;
    in_flight_ = true;
    const std::uint64_t k = launched_++;
    factory_(name() + "/inst/" + std::to_string(k)).vote(Vote::kYes, hook());
  }

  /// The instance in flight decided `d`.
  void on_result(std::uint64_t, const Decision& d) override {
    in_flight_ = false;
    if (d == Decision::kAbort) red_ = true;
  }

  /// FdSource: the emulated FS output.
  [[nodiscard]] fd::FdValue fd_value() const override {
    fd::FdValue v;
    v.fs = red_ ? fd::FsColor::kRed : fd::FsColor::kGreen;
    return v;
  }

  [[nodiscard]] bool red() const { return red_; }
  [[nodiscard]] std::uint64_t instances_launched() const { return launched_; }

  void encode_state(sim::StateEncoder& enc) const override {
    enc.field("red", red_);
    enc.field("in-flight", in_flight_);
    enc.field("idle", idle_);
    enc.field("launched", launched_);
  }

 private:
  Options opt_;
  NbacFactory factory_;
  bool red_ = false;
  bool in_flight_ = false;
  Time idle_ = 0;
  std::uint64_t launched_ = 0;
};

}  // namespace wfd::nbac
