// The adversarial failure-detector oracle: ChoiceOracle driven to its
// most hostile configuration. Every query is a fresh choice from the
// full allowed set (Ω leader churn, Σ quorum reshuffling, Ψ's
// bottom-lingering and mandatory-quit flip), and the oracle tracks the
// *evolving* failure pattern, so a crash the explorer injects mid-run
// immediately widens the legal menus (FS may go red, Ψ may take its FS
// branch). Opt-in via `wfd_check --fd=adversarial`.
//
// Legality is inherited from ChoiceOracle: with stabilization == kNever
// every finite prefix extends to a history in D(F) for the final
// reconstructed pattern F — convergence is simply deferred past the
// horizon. This strictly subsumes the static-history collapse
// (--fd=static explores exactly the histories whose prefix happens to be
// constant) and the flap mode over a fixed pattern (--fd=flap with
// scripted crashes): every history either mode can realise is reachable
// here, plus all histories only legal for some injected crash timing.
#pragma once

#include <memory>
#include <string>

#include "explore/choice_oracle.h"

namespace wfd::inject {

class FdAdversary : public explore::ChoiceOracle {
 public:
  /// `choices` is borrowed and must outlive the oracle. Whatever `opt`
  /// says, per-query choice and live-pattern tracking are forced on.
  FdAdversary(sim::ChoiceSource* choices, Options opt)
      : explore::ChoiceOracle(choices, force(opt)) {}

  [[nodiscard]] std::string name() const override { return "fd-adversary"; }

  /// Not cloneable (the Oracle default, restored over ChoiceOracle's
  /// copy, which would drop this type): adversarial searches rebuild
  /// every run until they get the lockstep coverage of the converted
  /// problems (tests/checkpoint_test.cpp).
  [[nodiscard]] std::unique_ptr<fd::Oracle> clone(
      sim::ChoiceSource& choices) const override {
    (void)choices;
    return nullptr;
  }

 private:
  static Options force(Options o) {
    o.per_query = true;
    o.live_pattern = true;
    return o;
  }
};

}  // namespace wfd::inject
