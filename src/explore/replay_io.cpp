#include "explore/replay_io.h"

#include <bit>
#include <cstdint>
#include <fstream>
#include <sstream>

#include "common/check.h"
#include "explore/liveness.h"
#include "explore/option_text.h"
#include "explore/search_config.h"
#include "sim/scheduler.h"

namespace wfd::explore {

using detail::escape_line;
using detail::parse_u64;
using detail::unescape_line;

namespace {

void log_to_stream(std::ostringstream& out, const sim::DecisionLog& log) {
  for (std::size_t i = 0; i < log.size(); ++i) {
    if (i != 0) out << ",";
    out << log[i];
  }
}

bool parse_log(const std::string& val, sim::DecisionLog* log,
               std::string* bad_item) {
  std::string item;
  std::istringstream items(val);
  while (std::getline(items, item, ',')) {
    std::uint64_t d = 0;
    if (!parse_u64(item, &d) || d > UINT32_MAX) {
      *bad_item = item;
      return false;
    }
    log->push_back(static_cast<std::uint32_t>(d));
  }
  return true;
}

}  // namespace

std::string to_text(const ReplayFile& f) {
  std::ostringstream out;
  out << "# wfd_check replay\n";
  // The note is free-form provenance; escape it so an embedded newline
  // (e.g. a multi-line violation message) cannot break the line-oriented
  // format and make the file fail to re-parse.
  if (!f.note.empty()) out << "note=" << escape_line(f.note) << "\n";
  SearchConfig header;
  header.scenario = f.scenario;
  search_header_to_text(out, header, /*scenario_only=*/true);
  out << "decisions=";
  log_to_stream(out, f.decisions);
  out << "\n";
  if (!f.loop.empty()) {
    out << "loop=";
    log_to_stream(out, f.loop);
    out << "\n";
  }
  return out.str();
}

std::optional<ReplayFile> parse_replay(const std::string& text,
                                       std::string* error) {
  const auto fail = [&](const std::string& why) -> std::optional<ReplayFile> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  ReplayFile f;
  SearchConfig header;  // Only its scenario is read; it becomes f.scenario.
  std::istringstream in(text);
  std::string line;
  bool saw_decisions = false;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) return fail("line without '=': " + line);
    const std::string key = line.substr(0, eq);
    const std::string val = line.substr(eq + 1);
    bool ok = true;
    if (search_header_apply(header, key, val, &ok, /*scenario_only=*/true)) {
      // Scenario field; ok already reflects the parse.
    } else if (key == "note") {
      if (!unescape_line(val, &f.note)) return fail("bad note escape: " + val);
    } else if (key == "decisions") {
      saw_decisions = true;
      std::string bad;
      if (!parse_log(val, &f.decisions, &bad)) {
        return fail("bad decision entry: " + bad);
      }
    } else if (key == "loop") {
      std::string bad;
      if (!parse_log(val, &f.loop, &bad)) {
        return fail("bad loop entry: " + bad);
      }
    }
    // Unknown keys are ignored for forward compatibility.
    if (!ok) return fail("bad value for " + key + ": " + val);
  }
  if (!saw_decisions) return fail("missing decisions= line");
  f.scenario = std::move(header.scenario);
  if (!f.loop.empty() && f.scenario.liveness.empty()) {
    return fail("loop= (a lasso) requires a liveness= clause");
  }
  const std::string why = ScenarioFactory::validate(f.scenario);
  if (!why.empty()) return fail(why);
  return f;
}

bool save_replay(const std::string& path, const ReplayFile& f) {
  std::ofstream out(path);
  if (!out) return false;
  out << to_text(f);
  return static_cast<bool>(out);
}

std::optional<ReplayFile> load_replay(const std::string& path,
                                      std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_replay(buf.str(), error);
}

ReplayOutcome run_replay(const ScenarioBuilder& build,
                         const sim::DecisionLog& decisions) {
  sim::FixedChoices choices(decisions);
  Scenario sc = build(choices);
  ReplayOutcome out;
  while (sc.sim->step()) {
    ++out.steps;
    out.violation = check_invariants(sc);
    if (out.violation.has_value()) return out;
  }
  out.all_done = sc.sim->all_alive_done();
  return out;
}

LassoOutcome run_lasso(const ScenarioBuilder& build,
                       const sim::DecisionLog& stem,
                       const sim::DecisionLog& loop) {
  LassoOutcome out;
  if (loop.empty()) {
    out.reason = "empty loop";
    return out;
  }
  sim::DecisionLog full = stem;
  full.insert(full.end(), loop.begin(), loop.end());
  sim::MenuChoices choices(full);
  Scenario sc = build(choices);
  WFD_CHECK_MSG(!sc.liveness.empty(), "lasso replay without a liveness clause");
  const LivenessClause& clause = *sc.liveness.front();

  const auto check_safety = [&]() {
    out.violation = check_invariants(sc);
    return out.violation.has_value();
  };

  // Stem: run to the decision boundary. The boundary must fall between
  // steps — a lasso whose loop starts mid-step is malformed.
  while (choices.consumed() < stem.size()) {
    if (!sc.sim->step()) {
      out.reason = "run halted inside the stem (horizon too small?)";
      return out;
    }
    ++out.stem_steps;
    if (check_safety()) {
      out.reason = "safety violation inside the stem";
      return out;
    }
  }
  if (choices.consumed() != stem.size()) {
    out.reason = "stem/loop boundary falls inside one step's decisions";
    return out;
  }
  const std::optional<std::uint64_t> entry = scenario_fingerprint(sc);
  WFD_CHECK_MSG(entry.has_value(), "lasso replay without fingerprints");

  // Loop: one unrolling, collecting the fairness evidence. enabled /
  // sched accumulate by union over the loop's states and steps;
  // deliverable — an n×n channel bitset, bit live_channel_bit(s, r) —
  // intersects (the obligation is a channel's delivery kept pending at
  // EVERY state of the cycle) while delivered unions the channels the
  // executed deliveries actually served.
  bool goal_false_seen = !clause.goal(*sc.sim);
  std::uint64_t enabled = 0;
  std::uint64_t sched = 0;
  std::uint64_t deliverable_all = ~std::uint64_t{0};
  std::uint64_t delivered = 0;
  while (choices.consumed() < full.size()) {
    if (!sc.sim->step()) {
      out.reason = "run halted inside the loop (horizon too small?)";
      return out;
    }
    ++out.loop_steps;
    if (check_safety()) {
      out.reason = "safety violation inside the loop";
      return out;
    }
    std::uint64_t deliverable = 0;
    note_menu_fairness(choices.menu(), *sc.sim, &enabled, &deliverable);
    deliverable_all &= deliverable;
    const std::uint64_t ex = choices.executed();
    if (sim::ReplayScheduler::label_is_fault(ex)) {
      // Crash / drop / duplicate budgets are finite; a loop containing
      // an adversary move cannot repeat forever.
      out.reason = "loop contains an adversary move";
      return out;
    }
    sched |= std::uint64_t{1} << sim::ReplayScheduler::label_process(ex);
    if (sim::ReplayScheduler::label_message(ex) != 0) {
      delivered |= live_channel_bit(sc.sim->last_step().from,
                                    sim::ReplayScheduler::label_process(ex));
    }
    if (!clause.goal(*sc.sim)) goal_false_seen = true;
  }
  if (choices.consumed() != full.size()) {
    out.reason = "loop end falls inside one step's decisions";
    return out;
  }
  const std::optional<std::uint64_t> landed = scenario_fingerprint(sc);
  if (landed != entry) {
    out.reason = "loop does not return to its entry state";
    return out;
  }
  if ((enabled & ~sched) != 0) {
    out.reason = "unfair: some process enabled in the loop is never scheduled";
    return out;
  }
  if ((deliverable_all & ~delivered) != 0) {
    const int bit = std::countr_zero(deliverable_all & ~delivered);
    out.reason = "unfair: channel " +
                 std::to_string(bit / kLiveChannelStride) + "->" +
                 std::to_string(bit % kLiveChannelStride) +
                 " stays pending through the whole loop unserved";
    return out;
  }
  if (!goal_false_seen) {
    out.reason = "the goal holds at every state of the loop";
    return out;
  }
  out.ok = true;
  return out;
}

}  // namespace wfd::explore
