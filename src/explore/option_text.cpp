#include "explore/option_text.h"

#include <limits>

namespace wfd::explore::detail {

bool parse_u64(std::string_view s, std::uint64_t* out) {
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

bool parse_int(std::string_view s, int* out) {
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

bool parse_bool(std::string_view s, bool* out) {
  if (s != "0" && s != "1") return false;
  *out = (s == "1");
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
