#include "explore/option_text.h"

#include <limits>

namespace wfd::explore::detail {

bool parse_u64(const std::string& s, std::uint64_t* out) {
  if (s.empty()) return false;
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    const auto d = static_cast<std::uint64_t>(c - '0');
    // v * 10 + d must fit: a corrupted field that wraps would parse as a
    // different valid value and replay the wrong schedule.
    if (v > (kMax - d) / 10) return false;
    v = v * 10 + d;
  }
  *out = v;
  return true;
}

bool parse_int(const std::string& s, int* out) {
  std::uint64_t v = 0;
  const bool neg = !s.empty() && s[0] == '-';
  if (!parse_u64(neg ? s.substr(1) : s, &v)) return false;
  // Range-check before casting: -static_cast<int>(v) on v > INT_MAX is
  // signed overflow (UB), and out-of-range values are corrupt anyway.
  constexpr auto kIntMax =
      static_cast<std::uint64_t>(std::numeric_limits<int>::max());
  if (neg) {
    if (v > kIntMax + 1) return false;
    *out = static_cast<int>(-static_cast<std::int64_t>(v));
  } else {
    if (v > kIntMax) return false;
    *out = static_cast<int>(v);
  }
  return true;
}

bool parse_bool(const std::string& s, bool* out) {
  if (s != "0" && s != "1") return false;
  *out = (s == "1");
  return true;
}

bool parse_time(const std::string& s, Time* out) {
  if (s == "never") {
    *out = kNever;
    return true;
  }
  return parse_u64(s, out);
}

std::string time_to_text(Time t) {
  return t == kNever ? "never" : std::to_string(t);
}

void scenario_to_text(std::ostream& out, const ScenarioOptions& o) {
  out << "problem=" << o.problem << "\n";
  out << "n=" << o.n << "\n";
  out << "crashes=" << o.crashes << "\n";
  out << "crash_time=" << time_to_text(o.crash_time) << "\n";
  out << "crash_mode=" << o.crash_mode << "\n";
  out << "loss_drops=" << o.loss_drops << "\n";
  out << "loss_dups=" << o.loss_dups << "\n";
  out << "fd_adversarial=" << (o.fd_adversarial ? 1 : 0) << "\n";
  out << "max_steps=" << o.max_steps << "\n";
  out << "seed=" << o.seed << "\n";
  out << "stabilization=" << time_to_text(o.stabilization) << "\n";
  out << "fd_per_query=" << (o.fd_per_query ? 1 : 0) << "\n";
  out << "nbac_no_voter=" << o.nbac_no_voter << "\n";
  out << "reg_ops=" << o.reg_ops << "\n";
  out << "reg_readers=" << o.reg_readers << "\n";
  out << "abcast_senders=" << o.abcast_senders << "\n";
  out << "oldest_per_channel=" << (o.oldest_per_channel ? 1 : 0) << "\n";
  out << "liveness=" << o.liveness << "\n";
}

bool scenario_apply(ScenarioOptions& o, const std::string& key,
                    const std::string& val, bool* ok) {
  *ok = true;
  if (key == "problem") {
    o.problem = val;
  } else if (key == "n") {
    *ok = parse_int(val, &o.n);
  } else if (key == "crashes") {
    *ok = parse_int(val, &o.crashes);
  } else if (key == "crash_time") {
    *ok = parse_time(val, &o.crash_time);
  } else if (key == "crash_mode") {
    *ok = (val == "script" || val == "explore");
    if (*ok) o.crash_mode = val;
  } else if (key == "loss_drops") {
    *ok = parse_int(val, &o.loss_drops);
  } else if (key == "loss_dups") {
    *ok = parse_int(val, &o.loss_dups);
  } else if (key == "fd_adversarial") {
    *ok = parse_bool(val, &o.fd_adversarial);
  } else if (key == "max_steps") {
    *ok = parse_time(val, &o.max_steps);
  } else if (key == "seed") {
    *ok = parse_u64(val, &o.seed);
  } else if (key == "stabilization") {
    *ok = parse_time(val, &o.stabilization);
  } else if (key == "fd_per_query") {
    *ok = parse_bool(val, &o.fd_per_query);
  } else if (key == "nbac_no_voter") {
    *ok = parse_int(val, &o.nbac_no_voter);
  } else if (key == "reg_ops") {
    *ok = parse_int(val, &o.reg_ops);
  } else if (key == "reg_readers") {
    *ok = parse_int(val, &o.reg_readers);
  } else if (key == "abcast_senders") {
    *ok = parse_int(val, &o.abcast_senders);
  } else if (key == "oldest_per_channel") {
    *ok = parse_bool(val, &o.oldest_per_channel);
  } else if (key == "liveness") {
    o.liveness = val;  // Clause-name validity is ScenarioFactory::validate's.
  } else {
    return false;
  }
  return true;
}

std::string escape_line(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        out += c;
    }
  }
  return out;
}

bool unescape_line(const std::string& s, std::string* out) {
  out->clear();
  out->reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      *out += s[i];
      continue;
    }
    if (++i == s.size()) return false;
    switch (s[i]) {
      case '\\':
        *out += '\\';
        break;
      case 'n':
        *out += '\n';
        break;
      case 'r':
        *out += '\r';
        break;
      default:
        return false;
    }
  }
  return true;
}

}  // namespace wfd::explore::detail
