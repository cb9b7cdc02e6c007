#include "extract/psi_extraction.h"

#include <algorithm>

namespace wfd::extract {

PsiExtractionModule::PsiExtractionModule(SandboxSpec spec, OuterFactory outer,
                                         std::vector<sim::FdSampleRecord>* sink,
                                         Options opt)
    : spec_(std::move(spec)),
      outer_factory_(std::move(outer)),
      sink_(sink),
      opt_(opt),
      dag_(std::max(1, spec_.n)) {
  WFD_CHECK(spec_.n >= 1);
  WFD_CHECK(spec_.build != nullptr && spec_.decision_of != nullptr);
  WFD_CHECK(outer_factory_ != nullptr);
  WFD_CHECK(opt_.sample_period >= 1 && opt_.gossip_period >= 1 &&
            opt_.analyze_period >= 1 && opt_.config_stride >= 1);
}

void PsiExtractionModule::on_start() {
  WFD_CHECK_MSG(spec_.n == n(), "SandboxSpec.n must match the system size");
  // The real execution of A must exist from the start so this process
  // serves it (as acceptor/participant) even before proposing.
  outer_ = dynamic_cast<sim::Module&>(
               outer_factory_(host(), name() + "/outer"))
               .index();
}

void PsiExtractionModule::on_message(ProcessId, const sim::Payload& msg) {
  if (const auto* g = sim::payload_cast<GossipMsg>(msg)) {
    dag_.merge(g->nodes);
  }
}

std::vector<ScriptStep> PsiExtractionModule::spine_window() const {
  auto spine = dag_.canonical_spine();
  if (spine.size() > opt_.window) {
    spine.erase(spine.begin(),
                spine.end() - static_cast<std::ptrdiff_t>(opt_.window));
  }
  return to_script(spine);
}

void PsiExtractionModule::on_tick() {
  ++ticks_;
  if (stage_ != Stage::kRed) {
    if (ticks_ % opt_.sample_period == 0) {
      dag_.add_sample(self(), detector());
    }
    if (ticks_ % opt_.gossip_period == 0) {
      broadcast(sim::make_payload<GossipMsg>(dag_.snapshot()),
                /*include_self=*/false);
    }
  }
  switch (stage_) {
    case Stage::kForest:
      if (ticks_ % opt_.analyze_period == 0) forest_round();
      break;
    case Stage::kAgreeing:
    case Stage::kRed:
      break;  // Waiting for the real execution of A / terminal.
    case Stage::kOmegaSigma:
      if (ticks_ % opt_.analyze_period == 0) {
        omega_round(spine_window());
        sigma_round();
      }
      break;
  }
  record_sample_point();
}

void PsiExtractionModule::forest_round() {
  const auto window = spine_window();
  if (window.empty()) return;
  const auto analysis = analyze_forest(spec_, window, self());
  if (!analysis.all_decided) return;  // Line 8: keep waiting.

  ExtractProposal prop;
  if (analysis.any_quit) {
    // Lines 9-11: a Q decision proves a failure; propose red evidence
    // (the paper's proposal of 0).
    prop.red_evidence = true;
  } else {
    // Lines 12-14: propose the adjacent decision-flip witness.
    WFD_CHECK(analysis.critical_index >= 1);
    prop.tree0 = analysis.critical_index - 1;
    prop.tree1 = analysis.critical_index;
    prop.s0 = analysis.trees[static_cast<std::size_t>(prop.tree0)]
                  .deciding_prefix;
    prop.s1 = analysis.trees[static_cast<std::size_t>(prop.tree1)]
                  .deciding_prefix;
  }
  stage_ = Stage::kAgreeing;
  host().module_at<qc::QcApi<ExtractProposal>>(outer_).propose(prop, hook());
}

void PsiExtractionModule::on_result(std::uint64_t,
                                    const qc::QcResult<ExtractProposal>& r) {
  if (r.quit || r.value.red_evidence) {
    // Lines 16-18: behave like FS, permanently red. Legal because a Q
    // (or red-evidence, which stems from a simulated Q) implies, via
    // A's validity, that a failure really occurred.
    stage_ = Stage::kRed;
    emit("psix-red", 0);
    return;
  }
  // Lines 19-20: switch to (Omega, Sigma) behaviour.
  stage_ = Stage::kOmegaSigma;
  omega_output_ = self();
  sigma_output_ = ProcessSet::full(n());
  setup_sigma_configs(r.value);
  fresh_seq_ = dag_.known(self());  // Line 27: wait for a fresh sample.
  emit("psix-omegasigma", 0);
}

void PsiExtractionModule::setup_sigma_configs(const ExtractProposal& tuple) {
  // Line 25: C = all configurations reached by applying prefixes of
  // S0/S1 to I0/I1 (config_stride == 1 gives every prefix).
  sigma_configs_.clear();
  auto add_prefixes = [&](int tree, const std::vector<ScriptStep>& s) {
    for (std::size_t len = 0; len <= s.size(); len += opt_.config_stride) {
      SigmaConfig c;
      c.tree = tree;
      c.base.assign(s.begin(), s.begin() + static_cast<std::ptrdiff_t>(len));
      sigma_configs_.push_back(std::move(c));
    }
    // Always include the full prefix even when striding.
    if ((s.size() % opt_.config_stride) != 0) {
      SigmaConfig c;
      c.tree = tree;
      c.base = s;
      sigma_configs_.push_back(std::move(c));
    }
  };
  add_prefixes(tuple.tree0, tuple.s0);
  add_prefixes(tuple.tree1, tuple.s1);
}

void PsiExtractionModule::omega_round(const std::vector<ScriptStep>& window) {
  if (window.empty()) return;
  const auto analysis = analyze_forest(spec_, window, self());
  if (analysis.all_decided && !analysis.any_quit &&
      analysis.leader != kNoProcess) {
    omega_output_ = analysis.leader;
  }
}

void PsiExtractionModule::sigma_round() {
  // Line 27: only proceed once a sample strictly fresher than the last
  // round's marker exists.
  if (dag_.known(self()) <= fresh_seq_) return;
  const DagNode u = dag_.get(self(), fresh_seq_ + 1);

  // Lines 28-30: extensions use only descendants of u.
  const auto spine = dag_.canonical_spine();
  std::vector<DagNode> descendants;
  for (const DagNode& z : spine) {
    if (SampleDag::precedes(u, z)) descendants.push_back(z);
  }
  if (descendants.empty()) return;
  const auto extension = to_script(descendants);

  ProcessSet quorum;
  for (const SigmaConfig& c : sigma_configs_) {
    std::vector<ScriptStep> script = c.base;
    script.insert(script.end(), extension.begin(), extension.end());
    const auto res = run_sandbox(spec_, forest_initial_config(n(), c.tree),
                                 script, self());
    if (!res.decision.has_value()) {
      // No deciding extension yet (line 31: keep extending) — retry next
      // round, when the spine has grown.
      return;
    }
    if (res.decided_after <= c.base.size()) {
      // p had already decided within the base prefix: the empty
      // extension decides and contributes no steppers (this happens for
      // the full-length prefix of S0/S1). The empty-base configuration
      // always contributes a non-empty extension, so the union stays
      // non-empty.
      continue;
    }
    // Steppers of the deciding extension only (line 32).
    for (std::size_t k = c.base.size(); k < res.decided_after; ++k) {
      quorum.insert(script[k].p);
    }
  }
  WFD_CHECK(!quorum.empty());
  sigma_output_ = quorum;
  ++sigma_rounds_;
  fresh_seq_ = dag_.known(self());
}

void PsiExtractionModule::record_sample_point() {
  if (sink_ == nullptr || ticks_ % opt_.sample_period != 0) return;
  sim::FdSampleRecord rec;
  rec.p = self();
  rec.t = now();
  rec.value = fd_value();
  sink_->push_back(rec);
}

fd::FdValue PsiExtractionModule::fd_value() const {
  fd::FdValue v;
  switch (stage_) {
    case Stage::kForest:
    case Stage::kAgreeing:
      v.psi = fd::PsiValue::bottom();
      break;
    case Stage::kRed:
      v.psi = fd::PsiValue::failure_signal(fd::FsColor::kRed);
      break;
    case Stage::kOmegaSigma:
      v.psi = fd::PsiValue::omega_sigma(omega_output_, sigma_output_);
      v.omega = omega_output_;
      v.sigma = sigma_output_;
      break;
  }
  return v;
}

}  // namespace wfd::extract
