// wfd_check — systematic schedule exploration and property checking.
//
// Drives small instances of the library's protocols through every
// source of nondeterminism (schedules, detector histories, crash times)
// and checks the specification clauses on each run. Three modes:
//
//   wfd_check --problem=consensus --n=3 --exhaustive --depth=40
//       Wave-scheduled exhaustive search over the whole choice tree
//       (DPOR + sleep sets + fingerprints; --threads=N workers with
//       results identical for every N; --max-states budget).
//
//   wfd_check --problem=qc --n=3 --campaign --runs=20000 --threads=8
//       Parallel randomized campaign: recorded random walks, checked
//       for safety violations and eventual-property suspects. It
//       samples the tree and reports no coverage; the flags the help
//       marks exhaustive-only do not apply, and --liveness is refused.
//
//   wfd_check --replay=cex.wfdr
//       Deterministic re-execution of a saved counterexample.
//
// All scenario and search knobs are SearchConfig flags
// (explore/search_config.h) — one parser shared with the campaign
// driver and the snapshot header; this tool adds only mode and output
// flags on top.
//
// A found safety violation is shrunk to a minimal decision sequence,
// printed, optionally saved with --save=FILE, and exits with status 3;
// a clean exploration exits 0; usage or setup errors (an unknown
// problem among them) exit 1.
//
// --liveness=<clause> switches the exhaustive search from bounded
// safety to liveness: the explorer records the state graph it visits
// and, once the tree is exhausted, searches it for a fair cycle that
// avoids the clause's goal (explore/liveness.h). A found lasso is
// shrunk (stem and loop separately), printed, saved as a replay file
// with a loop= line, and exits 3; --replay on such a file re-validates
// the fair cycle deterministically. A clean exhaust reports the graph
// size and "no fair cycle avoids the goal".
//
// Exhaustive mode defaults to DPOR plus module-state fingerprints and
// reports its coverage honestly: "complete" (every branch visited),
// "modulo-fingerprints" (every branch visited or cut at a state whose
// subtree was explored from an equivalent fingerprint), or "budget".
//
// Budget-capped searches are resumable: --save-state=FILE persists the
// search frontier + visited fingerprints on exit, --resume=FILE
// continues from such a snapshot (a snapshot from a different scenario
// or search configuration is rejected with exit 2), and
// --budget-states=N caps the NEW states of this invocation, exiting 4
// when the budget ran out with frontier left. Scripts keep re-invoking
// `wfd_check ... --budget-states=N --save-state=s.wfds --resume=s.wfds`
// while the exit status is 4, until the verdict is a violation (3) or
// coverage=complete / modulo-fingerprints (0); see tools/resume_check.sh.
// The split search visits exactly the states one uninterrupted run
// would — as does a --threads=N run versus a serial one.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdarg>
#include <cstdio>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>

#include "explore/campaign.h"
#include "explore/explorer.h"
#include "explore/option_text.h"
#include "explore/replay_io.h"
#include "explore/scenario.h"
#include "explore/search_config.h"
#include "explore/shrink.h"

using namespace wfd;

namespace {

constexpr int kExitClean = 0;
constexpr int kExitUsage = 1;
/// --resume named a snapshot of another scenario, search configuration
/// or format version.
constexpr int kExitIncompatible = 2;
constexpr int kExitViolation = 3;
constexpr int kExitBudget = 4;
/// The fair-cycle search found a witness SCC but could not pin its lasso
/// by replay probing — a graph/scenario mismatch (internal error), never
/// a sound "no fair cycle" verdict.
constexpr int kExitConcretize = 5;

struct Args {
  /// Scenario + search knobs: parsed exclusively by apply_cli_flag.
  explore::SearchConfig cfg;
  enum class Mode { kExhaustive, kCampaign, kReplay } mode = Mode::kExhaustive;
  std::string replay_path;
  /// --save: write a found counterexample as a replay file.
  std::string save_path;
  /// 0 = no deadline. Otherwise a watchdog converts a still-running
  /// exhaustive search into a cooperative cancel after this many
  /// milliseconds: partial report, frontier saved (with --save-state),
  /// exit 4 — a hung lane becomes a budget-style verdict, not a timeout.
  std::uint64_t deadline_ms = 0;
  bool json = false;
};

/// --deadline-ms=N: a positive millisecond count the watchdog's
/// steady_clock wait can represent. The wait ends at now() + N, so N may
/// take half the clock's range (about 146 years) and leave the other
/// half to now(), which counts from boot.
bool parse_deadline_ms(const std::string& v, std::uint64_t* out) {
  const auto max_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::duration::max() / 2)
          .count());
  std::uint64_t ms = 0;
  if (!explore::detail::parse_u64(v, &ms) || ms == 0 || ms > max_ms) {
    return false;
  }
  *out = ms;
  return true;
}

void usage() {
  std::string problems;
  for (const std::string& p : explore::ScenarioFactory::problems()) {
    if (!problems.empty()) problems += "|";
    problems += p;
  }
  std::printf(
      "usage: wfd_check [--exhaustive | --campaign | --replay=FILE]\n"
      "                 [--save=FILE] [--deadline-ms=N] [--json]\n"
      "                 [scenario/search flags below]\n"
      "\n"
      "problems: %s\n"
      "\n"
      "scenario + search flags (shared with every exploration driver):\n"
      "%s"
      "\n"
      "--crash=explore makes crash timing a per-step exploration choice\n"
      "(--crashes becomes the injection budget, default 1); --loss gives\n"
      "the adversary per-link drop/duplicate budgets; --fd=adversarial\n"
      "(the default) makes every detector query a fresh choice against\n"
      "the evolving failure pattern, --fd=static one history per run.\n"
      "--deadline-ms converts a long exhaustive run into a cooperative\n"
      "cancel: partial report, frontier saved with --save-state, exit 4.\n"
      "--liveness=<clause> checks <>[]goal instead of bounded safety:\n"
      "after exhausting the tree the explored state graph is searched for\n"
      "a fair goal-avoiding cycle, reported as a replayable (and\n"
      "shrinkable) stem+loop lasso.\n"
      "\n"
      "--threads=N runs the wave-scheduled exhaustive search on N worker\n"
      "threads (results are identical for every N); in campaign mode it\n"
      "is the random-walk worker count. The campaign samples random\n"
      "walks and reports no coverage. --save-state persists a\n"
      "resumable snapshot of an exhaustive search; --resume continues\n"
      "from one; --budget-states=N caps the NEW states explored this\n"
      "invocation, so scripts can loop save/resume until coverage is\n"
      "complete (--max-states stays the cap on the cumulative total).\n"
      "\n"
      "exit status: 0 no violation, 3 violation found, 1 usage error,\n"
      "             2 resume snapshot incompatible (different scenario,\n"
      "               search configuration or format version),\n"
      "             4 state budget exhausted, frontier saved,\n"
      "             5 fair-cycle witness found but its lasso could not\n"
      "               be concretized (internal error; diagnostic on\n"
      "               stderr)\n",
      problems.c_str(), explore::cli_flags_help().c_str());
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto val = [&](const char* key) -> std::optional<std::string> {
      const std::string prefix = std::string("--") + key + "=";
      if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
      return std::nullopt;
    };
    if (arg == "--help" || arg == "-h") return false;
    if (arg == "--exhaustive") {
      a.mode = Args::Mode::kExhaustive;
      continue;
    }
    if (arg == "--campaign") {
      a.mode = Args::Mode::kCampaign;
      continue;
    }
    if (auto v = val("replay")) {
      a.mode = Args::Mode::kReplay;
      a.replay_path = *v;
      continue;
    }
    if (auto v = val("save")) {
      a.save_path = *v;
      continue;
    }
    if (auto v = val("deadline-ms")) {
      if (!parse_deadline_ms(*v, &a.deadline_ms)) {
        std::fprintf(stderr, "bad value: %s\n", arg.c_str());
        return false;
      }
      continue;
    }
    if (arg == "--json") {
      a.json = true;
      continue;
    }
    switch (explore::apply_cli_flag(a.cfg, arg)) {
      case explore::CliResult::kApplied:
        break;
      case explore::CliResult::kBadValue:
        std::fprintf(stderr, "bad value: %s\n", arg.c_str());
        return false;
      case explore::CliResult::kUnknown:
        std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
        return false;
    }
  }
  // Injected crashes are bounded by --crashes; exploring with a zero
  // budget would silently degenerate to the crash-free tree.
  if (a.cfg.scenario.crash_mode == "explore" && a.cfg.scenario.crashes == 0) {
    a.cfg.scenario.crashes = 1;
  }
  return true;
}

/// printf into a string.
__attribute__((format(printf, 1, 2))) std::string format(const char* fmt,
                                                         ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list again;
  va_copy(again, ap);
  const int len = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string out(static_cast<std::size_t>(len), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, again);
  va_end(again);
  return out;
}

std::string decisions_to_text(const sim::DecisionLog& log) {
  std::string out;
  for (std::size_t i = 0; i < log.size(); ++i) {
    if (i != 0) out += ",";
    out += std::to_string(log[i]);
  }
  return out;
}

/// A liveness lasso: shrink (stem + loop), print, optionally save as a
/// replay file with a loop= line. Returns the process exit status.
/// Builds its own scenario with a widened horizon — the lasso may run
/// past the search depth (probing already did), and under the liveness
/// rules the horizon changes no transition. `stats` is the search's
/// JSON stats fields, appended to the --json line.
int report_lasso(const Args& a, explore::Counterexample cex, const char* how,
                 const std::string& stats) {
  explore::ScenarioOptions wide = a.cfg.scenario;
  wide.max_steps =
      std::max<std::uint64_t>(wide.max_steps,
                              cex.decisions.size() + cex.loop.size() + 8);
  const explore::ScenarioBuilder build =
      explore::ScenarioFactory(wide).builder();
  std::uint64_t stem_from = 0;
  std::uint64_t loop_from = 0;
  if (a.cfg.shrink) {
    explore::ShrinkLassoResult s =
        explore::shrink_lasso(build, cex.decisions, cex.loop);
    stem_from = s.original_stem;
    loop_from = s.original_loop;
    cex.decisions = std::move(s.stem);
    cex.loop = std::move(s.loop);
  }
  if (a.json) {
    std::printf(
        "{\"verdict\":\"violation\",\"property\":\"%s\",\"message\":\"%s\","
        "\"mode\":\"%s\",\"decisions\":\"%s\",\"loop\":\"%s\","
        "\"stem_shrunk_from\":%llu,\"loop_shrunk_from\":%llu,%s}\n",
        explore::json_escape(cex.violation.property).c_str(),
        explore::json_escape(cex.violation.message).c_str(), how,
        decisions_to_text(cex.decisions).c_str(),
        decisions_to_text(cex.loop).c_str(),
        static_cast<unsigned long long>(stem_from),
        static_cast<unsigned long long>(loop_from), stats.c_str());
  } else {
    std::printf("VIOLATION of %s (%s)\n", cex.violation.property.c_str(),
                how);
    std::printf("  %s\n", cex.violation.message.c_str());
    if (stem_from + loop_from != 0) {
      std::printf("  shrunk: stem %llu -> %llu, loop %llu -> %llu decisions\n",
                  static_cast<unsigned long long>(stem_from),
                  static_cast<unsigned long long>(cex.decisions.size()),
                  static_cast<unsigned long long>(loop_from),
                  static_cast<unsigned long long>(cex.loop.size()));
    }
    std::printf("  stem: [%s]\n", decisions_to_text(cex.decisions).c_str());
    std::printf("  loop: [%s]\n", decisions_to_text(cex.loop).c_str());
  }
  if (!a.save_path.empty()) {
    explore::ReplayFile rf;
    rf.scenario = a.cfg.scenario;
    rf.decisions = cex.decisions;
    rf.loop = cex.loop;
    rf.note = cex.violation.property + ": " + cex.violation.message;
    if (!explore::save_replay(a.save_path, rf)) {
      std::fprintf(stderr, "cannot write %s\n", a.save_path.c_str());
      return kExitUsage;
    }
    if (!a.json) {
      std::printf("  saved: %s (re-run with --replay=%s)\n",
                  a.save_path.c_str(), a.save_path.c_str());
    }
  }
  return kExitViolation;
}

/// Shrink, print, optionally save. Returns the process exit status.
/// `stats` is the search's JSON stats fields, appended to the --json
/// line.
int report_cex(const Args& a, const explore::ScenarioBuilder& build,
               explore::Counterexample cex, const char* how, bool reshrink,
               const std::string& stats) {
  std::uint64_t shrunk_from = 0;
  if (reshrink && a.cfg.shrink) {
    const explore::ShrinkResult s =
        explore::shrink(build, cex.decisions, cex.violation.property);
    shrunk_from = s.original_size;
    cex.decisions = s.decisions;
  }
  if (a.json) {
    std::printf(
        "{\"verdict\":\"violation\",\"property\":\"%s\",\"message\":\"%s\","
        "\"mode\":\"%s\",\"decisions\":\"%s\",\"shrunk_from\":%llu,%s}\n",
        explore::json_escape(cex.violation.property).c_str(),
        explore::json_escape(cex.violation.message).c_str(), how,
        decisions_to_text(cex.decisions).c_str(),
        static_cast<unsigned long long>(shrunk_from), stats.c_str());
  } else {
    std::printf("VIOLATION of %s (%s)\n", cex.violation.property.c_str(),
                how);
    std::printf("  %s\n", cex.violation.message.c_str());
    if (shrunk_from != 0) {
      std::printf("  shrunk: %llu -> %llu decisions\n",
                  static_cast<unsigned long long>(shrunk_from),
                  static_cast<unsigned long long>(cex.decisions.size()));
    }
    std::printf("  decisions: [%s]\n",
                decisions_to_text(cex.decisions).c_str());
  }
  if (!a.save_path.empty()) {
    explore::ReplayFile rf;
    rf.scenario = a.cfg.scenario;
    rf.decisions = cex.decisions;
    rf.note = cex.violation.property + ": " + cex.violation.message;
    if (!explore::save_replay(a.save_path, rf)) {
      std::fprintf(stderr, "cannot write %s\n", a.save_path.c_str());
      return kExitUsage;
    }
    if (!a.json) {
      std::printf("  saved: %s (re-run with --replay=%s)\n",
                  a.save_path.c_str(), a.save_path.c_str());
    }
  }
  return kExitViolation;
}

std::string conservative_to_json(const std::set<std::string>& ids) {
  std::string out = "[";
  for (const std::string& id : ids) {
    if (out.size() > 1) out += ",";
    out += "\"" + explore::json_escape(id) + "\"";
  }
  return out + "]";
}

int run_exhaustive(const Args& a) {
  const explore::ScenarioBuilder build =
      explore::ScenarioFactory(a.cfg.scenario).builder();
  explore::SearchConfig cfg = a.cfg;

  // --deadline-ms: arm a watchdog that flips the explorer's cooperative
  // cancel flag, so a search that would outlive the deadline stops at a
  // clean wave boundary (partial stats, resumable frontier) instead of
  // hanging its lane.
  std::atomic<bool> cancel{false};
  std::mutex mu;
  std::condition_variable cv;
  bool finished = false;
  std::thread watchdog;
  if (a.deadline_ms > 0) {
    cfg.cancel = &cancel;
    watchdog = std::thread([&a, &cancel, &mu, &cv, &finished] {
      std::unique_lock<std::mutex> lock(mu);
      const bool done = cv.wait_for(
          lock, std::chrono::milliseconds(a.deadline_ms),
          [&finished] { return finished; });
      if (!done) cancel.store(true, std::memory_order_relaxed);
    });
  }
  explore::Explorer ex(build, cfg);
  const auto start = std::chrono::steady_clock::now();
  const explore::ExploreReport rep = ex.run();
  const double elapsed_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
  if (watchdog.joinable()) {
    {
      const std::lock_guard<std::mutex> lock(mu);
      finished = true;
    }
    cv.notify_all();
    watchdog.join();
  }
  if (!rep.resume_error.empty()) {
    std::fprintf(stderr, "cannot resume %s: %s\n", cfg.resume_path.c_str(),
                 rep.resume_error.c_str());
    // Incompatible snapshot (different scenario / search configuration)
    // is the "combination not supported" case; corrupt or unreadable
    // input is a plain usage error.
    return rep.resume_rejected ? kExitIncompatible : kExitUsage;
  }
  const auto& st = rep.stats;
  const std::string cov = explore::coverage_name(explore::coverage(st));
  // Throughput of this invocation: a resumed search adds to the
  // snapshot's counts, so only the states it added count toward its rate.
  const auto elapsed_ms = static_cast<unsigned long long>(elapsed_s * 1e3);
  const auto barrier_ms = static_cast<unsigned long long>(rep.barrier_s * 1e3);
  const auto fair_cycle_ms =
      static_cast<unsigned long long>(rep.fair_cycle_s * 1e3);
  const double states_per_sec =
      elapsed_s > 0
          ? static_cast<double>(st.nodes - rep.resumed_nodes) / elapsed_s
          : 0.0;
  const double steps_per_state =
      st.nodes > 0
          ? static_cast<double>(st.steps) / static_cast<double>(st.nodes)
          : 0.0;
  // A run that cannot persist its frontier must not report success, or
  // a save/resume loop would silently restart from scratch.
  const bool save_failed = !rep.save_error.empty();
  if (save_failed) {
    std::fprintf(stderr, "cannot save state: %s\n", rep.save_error.c_str());
  }
  // A concretization failure poisons the liveness verdict: the graph
  // says a fair cycle exists but no replay pins it, so neither "lasso"
  // nor "no fair cycle" would be honest. Diagnostic to stderr, own exit
  // code.
  if (!rep.lasso_error.empty()) {
    std::fprintf(stderr, "lasso concretization failed: %s\n",
                 rep.lasso_error.c_str());
    return kExitConcretize;
  }
  // A deadline cancel is a budget-style verdict: the search stopped at a
  // clean wave boundary with frontier left, so the lane's save/resume
  // loop treats it exactly like a spent state budget.
  const bool deadline_hit = rep.cancelled && !rep.cex.has_value();
  const bool budget_left =
      (cfg.budget_states != 0 || deadline_hit) && !st.exhausted &&
      !rep.cex.has_value();
  std::string liveness_json;
  if (st.liveness) {
    liveness_json = ",\"graph_states\":" + std::to_string(st.graph_states) +
                    ",\"graph_edges\":" + std::to_string(st.graph_edges) +
                    ",\"graph_truncated\":" +
                    std::to_string(st.graph_truncated) +
                    ",\"fair_cycle_checked\":" +
                    (rep.fair_cycle_checked ? "true" : "false");
  }
  // The search's stats, rendered once: the clean line and a violation's
  // line both carry them.
  const std::string stats = format(
      "\"states\":%llu,\"runs\":%llu,\"steps\":%llu,\"sleep_skips\":%llu,"
      "\"fp_prunes\":%llu,\"hb_races\":%llu,\"backtrack_points\":%llu,"
      "\"commute_skips\":%llu,\"injected_crashes\":%llu,"
      "\"injected_drops\":%llu,\"injected_dups\":%llu,"
      "\"conservative_payloads\":%s,"
      "\"status\":\"%s\",\"coverage\":\"%s\","
      "\"resumed\":%s,\"resume_generation\":%llu,"
      "\"barrier_ms\":%llu,\"fair_cycle_ms\":%llu,"
      "\"elapsed_ms\":%llu,\"states_per_sec\":%.0f,"
      "\"steps_per_state\":%.2f,\"replayed_steps\":%llu,"
      "\"restored_steps\":%llu,\"config\":%s%s",
      static_cast<unsigned long long>(st.nodes),
      static_cast<unsigned long long>(st.runs),
      static_cast<unsigned long long>(st.steps),
      static_cast<unsigned long long>(st.sleep_skips),
      static_cast<unsigned long long>(st.fp_prunes),
      static_cast<unsigned long long>(st.hb_races),
      static_cast<unsigned long long>(st.backtrack_points),
      static_cast<unsigned long long>(st.commute_skips),
      static_cast<unsigned long long>(st.injected_crashes),
      static_cast<unsigned long long>(st.injected_drops),
      static_cast<unsigned long long>(st.injected_dups),
      conservative_to_json(rep.conservative_payloads).c_str(),
      st.exhausted          ? "exhausted"
      : rep.cex.has_value() ? "violation"
      : deadline_hit        ? "deadline"
                            : "budget",
      cov.c_str(), rep.resumed ? "true" : "false",
      static_cast<unsigned long long>(rep.resume_generation), barrier_ms,
      fair_cycle_ms, elapsed_ms, states_per_sec, steps_per_state,
      static_cast<unsigned long long>(rep.replayed_steps),
      static_cast<unsigned long long>(rep.restored_steps),
      explore::config_to_json(cfg).c_str(), liveness_json.c_str());
  if (a.json && !rep.cex.has_value()) {
    std::printf("{\"verdict\":\"clean\",\"mode\":\"exhaustive\",%s}\n",
                stats.c_str());
    if (save_failed) return kExitUsage;
    return budget_left ? kExitBudget : kExitClean;
  }
  if (!a.json) {
    if (rep.resumed) {
      std::printf("resumed from %s (generation %llu)\n",
                  cfg.resume_path.c_str(),
                  static_cast<unsigned long long>(rep.resume_generation));
    }
    std::printf(
        "explored %llu states across %llu runs (%llu steps, %llu replayed, "
        "%llu restored, %llu sleep-set skips, %llu fp prunes, %llu hb races, "
        "%llu backtrack points, %llu commute skips): %s [coverage: %s] "
        "in %.3f s (%.0f states/s, %.1f steps/state)\n",
        static_cast<unsigned long long>(st.nodes),
        static_cast<unsigned long long>(st.runs),
        static_cast<unsigned long long>(st.steps),
        static_cast<unsigned long long>(rep.replayed_steps),
        static_cast<unsigned long long>(rep.restored_steps),
        static_cast<unsigned long long>(st.sleep_skips),
        static_cast<unsigned long long>(st.fp_prunes),
        static_cast<unsigned long long>(st.hb_races),
        static_cast<unsigned long long>(st.backtrack_points),
        static_cast<unsigned long long>(st.commute_skips),
        st.exhausted          ? "tree exhausted"
        : rep.cex.has_value() ? "stopped at violation"
        : deadline_hit        ? "deadline reached"
                              : "budget reached",
        cov.c_str(), elapsed_s, states_per_sec, steps_per_state);
    if (st.injected_crashes + st.injected_drops + st.injected_dups != 0) {
      std::printf(
          "injected faults: %llu crashes, %llu drops, %llu duplicates\n",
          static_cast<unsigned long long>(st.injected_crashes),
          static_cast<unsigned long long>(st.injected_drops),
          static_cast<unsigned long long>(st.injected_dups));
    }
    if (!rep.conservative_payloads.empty()) {
      std::printf("conservative payloads (no commutativity audit):");
      for (const std::string& id : rep.conservative_payloads) {
        std::printf(" %s", id.c_str());
      }
      std::printf("\n");
    }
    if (st.liveness) {
      std::printf("state graph: %llu states, %llu edges, %llu truncated\n",
                  static_cast<unsigned long long>(st.graph_states),
                  static_cast<unsigned long long>(st.graph_edges),
                  static_cast<unsigned long long>(st.graph_truncated));
    }
  }
  if (rep.cex.has_value()) {
    if (!rep.cex->loop.empty()) {
      return report_lasso(a, *rep.cex, "exhaustive", stats);
    }
    return report_cex(a, build, *rep.cex, "exhaustive", /*reshrink=*/true,
                      stats);
  }
  if (rep.fair_cycle_checked && !a.json) {
    std::printf("no fair cycle avoids the goal (liveness=%s holds on the "
                "explored graph)\n",
                a.cfg.scenario.liveness.c_str());
  }
  if (!cfg.save_path.empty() && !save_failed) {
    std::printf("state saved: %s (continue with --resume=%s)\n",
                cfg.save_path.c_str(), cfg.save_path.c_str());
  }
  std::printf("no violation found%s\n",
              !budget_left   ? ""
              : deadline_hit ? " yet (deadline reached, partial results)"
                             : " yet (budget exhausted, frontier saved)");
  if (save_failed) return kExitUsage;
  return budget_left ? kExitBudget : kExitClean;
}

int run_campaign_mode(const Args& a) {
  const explore::ScenarioBuilder build =
      explore::ScenarioFactory(a.cfg.scenario).builder();
  const explore::CampaignReport rep = explore::run_campaign(build, a.cfg);
  const std::string stats =
      format("\"runs\":%llu,\"steps\":%llu,\"liveness_suspects\":%llu",
             static_cast<unsigned long long>(rep.runs),
             static_cast<unsigned long long>(rep.steps),
             static_cast<unsigned long long>(rep.liveness_suspects));
  if (a.json && !rep.cex.has_value()) {
    std::printf("{\"verdict\":\"clean\",\"mode\":\"campaign\",%s}\n",
                stats.c_str());
    return kExitClean;
  }
  if (!a.json) {
    std::printf(
        "campaign: %llu random runs, %llu steps, %llu liveness suspects\n",
        static_cast<unsigned long long>(rep.runs),
        static_cast<unsigned long long>(rep.steps),
        static_cast<unsigned long long>(rep.liveness_suspects));
  }
  if (rep.cex.has_value()) {
    // The campaign already shrank it (when enabled).
    return report_cex(a, build, *rep.cex, "campaign", /*reshrink=*/false,
                      stats);
  }
  std::printf("no violation found\n");
  return kExitClean;
}

int run_replay_mode(const Args& a) {
  std::string error;
  const auto rf = explore::load_replay(a.replay_path, &error);
  if (!rf.has_value()) {
    std::fprintf(stderr, "bad replay file: %s\n", error.c_str());
    return kExitUsage;
  }
  if (!rf->loop.empty()) {
    // Lasso replay: re-validate the fair cycle rather than just re-run
    // the stem. The saved file keeps the scenario as searched; the
    // horizon is widened here exactly as the probe that found the lasso
    // widened it.
    explore::ScenarioOptions wide = rf->scenario;
    wide.max_steps = std::max<std::uint64_t>(
        wide.max_steps, rf->decisions.size() + rf->loop.size() + 8);
    const explore::ScenarioBuilder build =
        explore::ScenarioFactory(wide).builder();
    const explore::LassoOutcome out =
        explore::run_lasso(build, rf->decisions, rf->loop);
    if (out.ok) {
      if (a.json) {
        std::printf(
            "{\"verdict\":\"violation\",\"property\":\"liveness(%s)\","
            "\"mode\":\"lasso-replay\",\"confirmed\":true,"
            "\"stem_steps\":%llu,\"loop_steps\":%llu}\n",
            explore::json_escape(rf->scenario.liveness).c_str(),
            static_cast<unsigned long long>(out.stem_steps),
            static_cast<unsigned long long>(out.loop_steps));
      } else {
        std::printf(
            "lasso confirmed: fair %llu-step loop entered after %llu steps, "
            "goal liveness(%s) never converges\n",
            static_cast<unsigned long long>(out.loop_steps),
            static_cast<unsigned long long>(out.stem_steps),
            rf->scenario.liveness.c_str());
      }
      return kExitViolation;
    }
    if (out.violation.has_value()) {
      if (a.json) {
        std::printf(
            "{\"verdict\":\"violation\",\"property\":\"%s\","
            "\"message\":\"%s\",\"mode\":\"lasso-replay\","
            "\"confirmed\":false}\n",
            explore::json_escape(out.violation->property).c_str(),
            explore::json_escape(out.violation->message).c_str());
      } else {
        std::printf("VIOLATION of %s (lasso replay hit a safety violation)\n",
                    out.violation->property.c_str());
        std::printf("  %s\n", out.violation->message.c_str());
      }
      return kExitViolation;
    }
    if (a.json) {
      std::printf(
          "{\"verdict\":\"clean\",\"mode\":\"lasso-replay\","
          "\"confirmed\":false,\"reason\":\"%s\"}\n",
          explore::json_escape(out.reason).c_str());
    } else {
      std::printf("lasso NOT confirmed: %s\n", out.reason.c_str());
    }
    return kExitClean;
  }
  const explore::ScenarioBuilder build =
      explore::ScenarioFactory(rf->scenario).builder();
  const explore::ReplayOutcome out =
      explore::run_replay(build, rf->decisions);
  if (out.violation.has_value()) {
    if (a.json) {
      std::printf(
          "{\"verdict\":\"violation\",\"property\":\"%s\",\"message\":\"%s\","
          "\"mode\":\"replay\",\"steps\":%llu}\n",
          explore::json_escape(out.violation->property).c_str(),
          explore::json_escape(out.violation->message).c_str(),
          static_cast<unsigned long long>(out.steps));
    } else {
      std::printf("VIOLATION of %s (replay, %llu steps)\n",
                  out.violation->property.c_str(),
                  static_cast<unsigned long long>(out.steps));
      std::printf("  %s\n", out.violation->message.c_str());
    }
    return kExitViolation;
  }
  if (a.json) {
    std::printf(
        "{\"verdict\":\"clean\",\"mode\":\"replay\",\"steps\":%llu,"
        "\"all_done\":%s}\n",
        static_cast<unsigned long long>(out.steps),
        out.all_done ? "true" : "false");
  } else {
    std::printf("replay clean: %llu steps, all done: %s\n",
                static_cast<unsigned long long>(out.steps),
                out.all_done ? "yes" : "no");
  }
  return kExitClean;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) {
    usage();
    return kExitUsage;
  }
  if (a.mode != Args::Mode::kExhaustive &&
      (!a.cfg.save_path.empty() || !a.cfg.resume_path.empty() ||
       a.cfg.budget_states != 0 || a.deadline_ms != 0)) {
    std::fprintf(stderr,
                 "--save-state/--resume/--budget-states/--deadline-ms "
                 "require --exhaustive\n");
    return kExitUsage;
  }
  // The campaign's random walks check invariants and eventual
  // properties, never a liveness clause: a fair-cycle verdict needs the
  // explorer's complete state graph.
  if (a.mode == Args::Mode::kCampaign && !a.cfg.scenario.liveness.empty()) {
    std::fprintf(stderr, "--liveness requires --exhaustive\n");
    return kExitUsage;
  }
  if (a.mode != Args::Mode::kReplay) {
    const std::string why = explore::validate(a.cfg);
    if (!why.empty()) {
      std::fprintf(stderr, "invalid configuration: %s\n", why.c_str());
      return kExitUsage;
    }
  }
  switch (a.mode) {
    case Args::Mode::kExhaustive:
      return run_exhaustive(a);
    case Args::Mode::kCampaign:
      return run_campaign_mode(a);
    case Args::Mode::kReplay:
      return run_replay_mode(a);
  }
  return kExitUsage;
}
