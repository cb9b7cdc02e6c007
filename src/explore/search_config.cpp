#include "explore/search_config.h"

#include <algorithm>
#include <sstream>
#include <type_traits>
#include <utility>

#include "explore/option_text.h"

namespace wfd::explore {

namespace {

using detail::parse_bool;
using detail::parse_int;
using detail::parse_u64;

constexpr std::pair<Reduction, std::string_view> kReductions[] = {
    {Reduction::kNone, "none"},
    {Reduction::kSleepSets, "sleep-sets"},
    {Reduction::kDpor, "dpor"}};

bool parse_reduction(std::string_view s, Reduction* out) {
  for (const auto& [value, name] : kReductions) {
    if (name == s) {
      *out = value;
      return true;
    }
  }
  return false;
}

/// Whether member pointer `M` names a ScenarioOptions field (reached
/// through cfg.scenario) rather than a SearchConfig one.
template <auto M>
constexpr bool kInScenario = requires(ScenarioOptions& s) { s.*M; };

template <auto M, class Cfg>
auto& member(Cfg& cfg) {
  if constexpr (kInScenario<M>) {
    return cfg.scenario.*M;
  } else {
    return cfg.*M;
  }
}

// Value codecs beyond option_text's. A row parses into a temporary and
// assigns only on success, so a refused value changes nothing.

/// A time is a u64 or "never" (kNever).
bool parse_time(std::string_view v, Time* out) {
  if (v != "never") return parse_u64(v, out);
  *out = kNever;
  return true;
}

std::string time_to_text(Time t) {
  return t == kNever ? "never" : std::to_string(t);
}

bool parse_text(std::string_view v, std::string* out) {
  *out = v;
  return true;
}

bool parse_crash_mode(std::string_view v, std::string* out) {
  *out = v;
  return v == "script" || v == "explore";
}

bool parse_threads(std::string_view v, int* out) {
  return parse_int(v, out) && *out >= 1;
}

template <auto M, auto Parse>
bool read_field(SearchConfig& cfg, std::string_view v) {
  std::remove_cvref_t<decltype(member<M>(cfg))> x{};
  if (!Parse(v, &x)) return false;
  member<M>(cfg) = std::move(x);
  return true;
}

/// Renders field `M` for the headers: by `Print`, else by operator<<
/// (numbers, 0/1 for bools, raw strings). With `json`, that text typed:
/// true/false for a bool, null for a time printed "never", quoted unless
/// a number.
template <auto M, auto Print>
void print_field(std::ostream& out, const SearchConfig& cfg, bool json) {
  const auto& v = member<M>(cfg);
  using T = std::remove_cvref_t<decltype(v)>;
  std::ostringstream text;
  if constexpr (Print == nullptr) {
    text << v;
  } else {
    text << Print(v);
  }
  if (!json) {
    out << text.str();
  } else if constexpr (std::is_same_v<T, bool>) {
    out << (v ? "true" : "false");
  } else if constexpr (std::is_arithmetic_v<T>) {
    out << (text.str() == "never" ? "null" : text.str());
  } else {
    out << '"' << json_escape(text.str()) << '"';
  }
}

/// --loss=drop:N[,dup:M]: either budget or both, in any order; one the
/// value does not name keeps its value, and one must end up positive.
bool read_loss(SearchConfig& cfg, std::string_view v) {
  int budgets[] = {cfg.scenario.loss_drops, cfg.scenario.loss_dups};
  while (!v.empty()) {
    const std::string_view part = v.substr(0, v.find(','));
    const int which = part.starts_with("drop:") ? 0
                      : part.starts_with("dup:") ? 1
                                                 : -1;
    int budget = 0;
    if (which < 0 || !parse_int(part.substr(part.find(':') + 1), &budget) ||
        budget < 1) {
      return false;
    }
    budgets[which] = budget;
    v.remove_prefix(std::min(part.size() + 1, v.size()));
  }
  if (budgets[0] <= 0 && budgets[1] <= 0) return false;
  cfg.scenario.loss_drops = budgets[0];
  cfg.scenario.loss_dups = budgets[1];
  return true;
}

/// --fd=static|adversarial for fd_per_query.
bool read_fd(SearchConfig& cfg, std::string_view v) {
  if (v != "static" && v != "adversarial") return false;
  cfg.scenario.fd_per_query = (v == "adversarial");
  return true;
}

using FieldReader = bool (*)(SearchConfig&, std::string_view);
using enum FlagGroup;

/// The row of field `M`, read by `Parse` and printed by print_field:
/// `spec` is the flag as the help shows it ("name=VALUE", "name" when
/// valueless, empty for none); the JSON key is `key` unless `json` says.
template <auto M, auto Parse, auto Print = nullptr>
constexpr ConfigField row(std::string_view spec, std::string_view key,
                          FlagGroup group = kEveryMode,
                          const char* json = nullptr,
                          FieldReader read_flag = nullptr) {
  const std::size_t eq = std::min(spec.find('='), spec.size());
  constexpr FieldReader read = read_field<M, Parse>;
  return {spec.substr(0, eq), spec.substr(std::min(eq + 1, spec.size())),
          group, key, json == nullptr ? key : json, kInScenario<M>, read,
          read_flag == nullptr ? read : read_flag, print_field<M, Print>};
}

/// A valueless flag that sets bool field `M` to `kValue`.
template <auto M, bool kValue>
constexpr ConfigField switch_row(std::string_view spec, std::string_view key,
                                 FlagGroup group = kEveryMode) {
  return row<M, parse_bool>(spec, key, group, nullptr,
                            [](SearchConfig& cfg, std::string_view) {
                              member<M>(cfg) = kValue;
                              return true;
                            });
}

using S = ScenarioOptions;
using C = SearchConfig;

// The field table. Header order is row order: the scenario rows are the
// replay header and open the snapshot header, whose last rows are the
// reduction levers; rows without a key are CLI and JSON only.
constexpr ConfigField kFields[] = {
    row<&S::problem, parse_text>("problem=NAME", "problem"),
    row<&S::n, parse_int>("n=N", "n"),
    row<&S::crashes, parse_int>("crashes=K", "crashes"),
    row<&S::crash_time, parse_time, time_to_text>("crash-time=T",
                                                  "crash_time"),
    row<&S::crash_mode, parse_crash_mode>("crash=script|explore",
                                          "crash_mode"),
    row<&S::loss_drops, parse_int>("loss=drop:N[,dup:M]", "loss_drops",
                                   kEveryMode, nullptr, read_loss),
    row<&S::loss_dups, parse_int>("", "loss_dups"),
    // "never" parses, but the horizon prints as its number.
    row<&S::max_steps, parse_time>("depth=T", "max_steps", kEveryMode,
                                   "depth"),
    row<&S::seed, parse_u64>("seed=S", "seed"),
    row<&S::stabilization, parse_time, time_to_text>("stab=T",
                                                     "stabilization"),
    row<&S::fd_per_query, parse_bool>("fd=static|adversarial", "fd_per_query",
                                      kEveryMode, nullptr, read_fd),
    row<&S::nbac_no_voter, parse_int>("nbac-no-voter=P", "nbac_no_voter"),
    row<&S::reg_ops, parse_int>("reg-ops=N", "reg_ops"),
    row<&S::reg_readers, parse_int>("reg-readers=N", "reg_readers"),
    row<&S::abcast_senders, parse_int>("abcast-senders=N", "abcast_senders"),
    switch_row<&S::oldest_per_channel, false>("all-pending",
                                              "oldest_per_channel"),
    // Clause-name validity is ScenarioFactory::validate's.
    row<&S::liveness, parse_text>(
        "liveness=termination|leadership|fd-completeness", "liveness",
        kExhaustive),
    row<&C::max_states, parse_u64>("max-states=N", "", kExhaustive,
                                   "max_states"),
    row<&C::reduction, parse_reduction, reduction_to_text>(
        "reduction=dpor|sleep-sets|none", "reduction", kExhaustive),
    switch_row<&C::symmetry, true>("symmetry", "symmetry", kExhaustive),
    switch_row<&C::state_fingerprints, false>(
        "no-fingerprints", "state_fingerprints", kExhaustive),
    row<&C::threads, parse_threads>("threads=N", "", kEveryMode, "threads"),
    row<&C::budget_states, parse_u64>("budget-states=N", "", kExhaustive,
                                      "budget_states"),
    row<&C::save_path, parse_text>("save-state=FILE", "", kExhaustive),
    row<&C::resume_path, parse_text>("resume=FILE", "", kExhaustive),
    row<&C::runs, parse_u64>("runs=N", "", kCampaign),
    switch_row<&C::shrink, false>("no-shrink", "", kCampaign),
};

}  // namespace

std::span<const ConfigField> config_fields() { return kFields; }

std::string json_escape(const std::string& s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (u < 0x20) {
          out += "\\u00";
          out += kHex[u >> 4];
          out += kHex[u & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string reduction_to_text(Reduction r) {
  for (const auto& [value, name] : kReductions) {
    if (value == r) return std::string(name);
  }
  return "unknown";
}

std::string validate(const SearchConfig& cfg) {
  const std::string why = ScenarioFactory::validate(cfg.scenario);
  if (!why.empty()) return why;
  if (cfg.threads < 1 || cfg.threads > 64) {
    return "threads must be in [1, 64], got " + std::to_string(cfg.threads);
  }
  if (!cfg.scenario.liveness.empty()) {
    // The fair-cycle search needs the explored graph to be the complete
    // transition system: every reachable state expanded over its full
    // menu, prunes only at expanded fingerprints. Reductions drop
    // interleavings (sound for safety, not for cycle existence) and
    // symmetry merges nodes under renaming, which breaks the per-process
    // fairness bookkeeping.
    if (cfg.reduction != Reduction::kNone) {
      return "liveness checking requires --reduction=none (partial-order "
             "reduction drops interleavings that may carry the fair cycle)";
    }
    if (cfg.symmetry) {
      return "liveness checking is incompatible with --symmetry (renamed "
             "merges break per-process fairness accounting)";
    }
    if (!cfg.state_fingerprints) {
      return "liveness checking requires state fingerprints (the state "
             "graph is keyed on them); drop --no-fingerprints";
    }
  }
  if (cfg.symmetry) {
    const auto classes = ScenarioFactory::symmetry_classes(cfg.scenario);
    if (classes.empty()) {
      return "symmetry reduction is not supported for this scenario "
             "(problem '" +
             cfg.scenario.problem +
             "' has no verified symmetry classes, or the fault script / "
             "detector configuration breaks the renaming argument)";
    }
  }
  return "";
}

CliResult apply_cli_flag(SearchConfig& cfg, const std::string& arg) {
  const std::string_view a = arg;
  if (!a.starts_with("--")) return CliResult::kUnknown;
  const std::size_t eq = a.find('=');
  const std::string_view name = a.substr(2, eq - 2);
  const bool valueless = eq == std::string_view::npos;
  for (const ConfigField& f : kFields) {
    // A valueless flag takes no "=", and every other flag needs one.
    if (name.empty() || f.flag != name || f.metavar.empty() != valueless) {
      continue;
    }
    const std::string_view v = valueless ? "" : a.substr(eq + 1);
    return f.read_flag(cfg, v) ? CliResult::kApplied : CliResult::kBadValue;
  }
  return CliResult::kUnknown;
}

std::string cli_flags_help() {
  std::string out;
  for (const FlagGroup group : {kEveryMode, kExhaustive, kCampaign}) {
    out += group == kExhaustive ? " exhaustive only:\n"
           : group == kCampaign ? " campaign only:\n"
                                : "";
    std::string line;
    for (const ConfigField& f : kFields) {
      if (f.flag.empty() || f.group != group) continue;
      std::string item = "--" + std::string(f.flag);
      if (!f.metavar.empty()) item += "=" + std::string(f.metavar);
      if (!line.empty() && line.size() + 1 + item.size() > 55) {
        out += line + "\n";
        line.clear();
      }
      line += (line.empty() ? "  " : " ") + item;
    }
    out += line + "\n";
  }
  return out;
}

void search_header_to_text(std::ostream& out, const SearchConfig& cfg,
                           bool scenario_only) {
  for (const ConfigField& f : kFields) {
    if (f.key.empty() || (scenario_only && !f.scenario)) continue;
    out << f.key << '=';
    f.print(out, cfg, false);
    out << '\n';
  }
}

bool search_header_apply(SearchConfig& cfg, const std::string& key,
                         const std::string& val, bool* ok,
                         bool scenario_only) {
  *ok = true;
  for (const ConfigField& f : kFields) {
    if (f.key.empty() || f.key != key || (scenario_only && !f.scenario)) {
      continue;
    }
    *ok = f.read(cfg, val);
    return true;
  }
  return false;
}

std::string config_to_json(const SearchConfig& cfg) {
  std::ostringstream out;
  char sep = '{';
  for (const ConfigField& f : kFields) {
    if (f.json.empty()) continue;
    out << sep << '"' << f.json << "\":";
    f.print(out, cfg, true);
    sep = ',';
  }
  out << '}';
  return out.str();
}

}  // namespace wfd::explore
