#include "explore/search_config.h"

#include <optional>
#include <sstream>

#include "explore/option_text.h"

namespace wfd::explore {

namespace {

using detail::parse_bool;
using detail::parse_int;
using detail::parse_time;
using detail::parse_u64;

/// --loss=drop:N[,dup:M] (either component, any order).
bool parse_loss(const std::string& v, ScenarioOptions& s) {
  std::size_t start = 0;
  while (start < v.size()) {
    const std::size_t comma = v.find(',', start);
    const std::string part =
        v.substr(start, comma == std::string::npos ? std::string::npos
                                                   : comma - start);
    const std::size_t colon = part.find(':');
    if (colon == std::string::npos) return false;
    const std::string key = part.substr(0, colon);
    int budget = 0;
    if (!parse_int(part.substr(colon + 1), &budget) || budget < 1) {
      return false;
    }
    if (key == "drop") {
      s.loss_drops = budget;
    } else if (key == "dup") {
      s.loss_dups = budget;
    } else {
      return false;
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return s.loss_drops > 0 || s.loss_dups > 0;
}

}  // namespace

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
  switch (r) {
    case Reduction::kNone:
      return "none";
    case Reduction::kSleepSets:
      return "sleep-sets";
    case Reduction::kDpor:
      return "dpor";
  }
  return "unknown";
}

bool parse_reduction(const std::string& s, Reduction* out) {
  if (s == "none") {
    *out = Reduction::kNone;
  } else if (s == "sleep-sets") {
    *out = Reduction::kSleepSets;
  } else if (s == "dpor") {
    *out = Reduction::kDpor;
  } else {
    return false;
  }
  return true;
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
  const auto val = [&](const char* key) -> std::optional<std::string> {
    const std::string prefix = std::string("--") + key + "=";
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
    return std::nullopt;
  };
  const auto as = [](bool ok) {
    return ok ? CliResult::kApplied : CliResult::kBadValue;
  };
  ScenarioOptions& s = cfg.scenario;
  // Scenario surface.
  if (auto v = val("problem")) {
    s.problem = *v;
    return CliResult::kApplied;
  }
  if (auto v = val("n")) return as(parse_int(*v, &s.n));
  if (auto v = val("crashes")) return as(parse_int(*v, &s.crashes));
  if (auto v = val("crash-time")) return as(parse_time(*v, &s.crash_time));
  if (auto v = val("crash")) {
    if (*v != "script" && *v != "explore") return CliResult::kBadValue;
    s.crash_mode = *v;
    return CliResult::kApplied;
  }
  if (auto v = val("loss")) return as(parse_loss(*v, s));
  if (auto v = val("depth")) return as(parse_time(*v, &s.max_steps));
  if (auto v = val("seed")) return as(parse_u64(*v, &s.seed));
  if (auto v = val("stab")) return as(parse_time(*v, &s.stabilization));
  if (auto v = val("fd")) {
    if (*v != "static" && *v != "adversarial") return CliResult::kBadValue;
    s.fd_per_query = (*v == "adversarial");
    return CliResult::kApplied;
  }
  if (auto v = val("liveness")) {
    s.liveness = *v;
    return CliResult::kApplied;
  }
  if (auto v = val("nbac-no-voter")) {
    return as(parse_int(*v, &s.nbac_no_voter));
  }
  if (auto v = val("reg-ops")) return as(parse_int(*v, &s.reg_ops));
  if (auto v = val("reg-readers")) return as(parse_int(*v, &s.reg_readers));
  if (auto v = val("abcast-senders")) {
    return as(parse_int(*v, &s.abcast_senders));
  }
  if (arg == "--all-pending") {
    s.oldest_per_channel = false;
    return CliResult::kApplied;
  }
  // Search surface.
  if (auto v = val("max-states")) return as(parse_u64(*v, &cfg.max_states));
  if (auto v = val("reduction")) {
    return as(parse_reduction(*v, &cfg.reduction));
  }
  if (arg == "--symmetry") {
    cfg.symmetry = true;
    return CliResult::kApplied;
  }
  if (arg == "--no-fingerprints") {
    cfg.state_fingerprints = false;
    return CliResult::kApplied;
  }
  if (auto v = val("threads")) {
    return as(parse_int(*v, &cfg.threads) && cfg.threads >= 1);
  }
  if (auto v = val("budget-states")) {
    return as(parse_u64(*v, &cfg.budget_states));
  }
  if (auto v = val("save-state")) {
    cfg.save_path = *v;
    return CliResult::kApplied;
  }
  if (auto v = val("resume")) {
    cfg.resume_path = *v;
    return CliResult::kApplied;
  }
  // Campaign surface.
  if (auto v = val("runs")) return as(parse_u64(*v, &cfg.runs));
  if (arg == "--no-shrink") {
    cfg.shrink = false;
    return CliResult::kApplied;
  }
  return CliResult::kUnknown;
}

std::string cli_flags_help() {
  return "  --problem=NAME --n=N --crashes=K --crash-time=T\n"
         "  --crash=script|explore --loss=drop:N[,dup:M]\n"
         "  --depth=T --seed=S --stab=T --fd=static|adversarial\n"
         "  --nbac-no-voter=P --reg-ops=N --reg-readers=N\n"
         "  --abcast-senders=N --all-pending --threads=N\n"
         " exhaustive only:\n"
         "  --liveness=termination|leadership|fd-completeness\n"
         "  --max-states=N --reduction=dpor|sleep-sets|none\n"
         "  --symmetry --no-fingerprints\n"
         "  --budget-states=N --save-state=FILE --resume=FILE\n"
         " campaign only:\n"
         "  --runs=N --no-shrink\n";
}

void search_header_to_text(std::ostream& out, const SearchConfig& cfg) {
  detail::scenario_to_text(out, cfg.scenario);
  out << "reduction=" << reduction_to_text(cfg.reduction) << "\n";
  out << "symmetry=" << (cfg.symmetry ? 1 : 0) << "\n";
  out << "state_fingerprints=" << (cfg.state_fingerprints ? 1 : 0) << "\n";
}

bool search_header_apply(SearchConfig& cfg, const std::string& key,
                         const std::string& val, bool* ok) {
  *ok = true;
  if (detail::scenario_apply(cfg.scenario, key, val, ok)) return true;
  if (key == "reduction") {
    *ok = parse_reduction(val, &cfg.reduction);
  } else if (key == "symmetry") {
    *ok = parse_bool(val, &cfg.symmetry);
  } else if (key == "state_fingerprints") {
    *ok = parse_bool(val, &cfg.state_fingerprints);
  } else {
    return false;
  }
  return true;
}

std::string config_to_json(const SearchConfig& cfg) {
  const ScenarioOptions& s = cfg.scenario;
  // kNever (no scripted crash time, never stabilizes) renders as null.
  const auto time = [](Time t) {
    return t == kNever ? std::string("null") : std::to_string(t);
  };
  std::ostringstream out;
  out << "{\"problem\":\"" << json_escape(s.problem) << "\",\"n\":" << s.n
      << ",\"crashes\":" << s.crashes << ",\"crash_mode\":\""
      << json_escape(s.crash_mode) << "\",\"crash_time\":" << time(s.crash_time)
      << ",\"loss_drops\":" << s.loss_drops
      << ",\"loss_dups\":" << s.loss_dups << ",\"depth\":" << s.max_steps
      << ",\"seed\":" << s.seed
      << ",\"stabilization\":" << time(s.stabilization)
      << ",\"fd_per_query\":" << (s.fd_per_query ? "true" : "false")
      << ",\"nbac_no_voter\":" << s.nbac_no_voter
      << ",\"reg_ops\":" << s.reg_ops << ",\"reg_readers\":" << s.reg_readers
      << ",\"abcast_senders\":" << s.abcast_senders
      << ",\"oldest_per_channel\":"
      << (s.oldest_per_channel ? "true" : "false")
      << ",\"liveness\":\"" << json_escape(s.liveness) << "\""
      << ",\"max_states\":" << cfg.max_states << ",\"reduction\":\""
      << reduction_to_text(cfg.reduction) << "\",\"symmetry\":"
      << (cfg.symmetry ? "true" : "false") << ",\"state_fingerprints\":"
      << (cfg.state_fingerprints ? "true" : "false")
      << ",\"threads\":" << cfg.threads
      << ",\"budget_states\":" << cfg.budget_states << "}";
  return out.str();
}

}  // namespace wfd::explore
