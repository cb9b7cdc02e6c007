// Strict scalar parsing and one-line escaping, shared by the field table
// (search_config.h: each configuration field is one row there), replay
// files, search snapshots and the tools' own flags. One set of overflow
// guards: a corrupted numeric field must fail the parse, never wrap
// into a different valid value and replay (or resume) the wrong run.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace wfd::explore::detail {

/// Strict decimal u64: digits only, and the value must fit — any digit
/// that would overflow fails the parse instead of wrapping.
bool parse_u64(std::string_view s, std::uint64_t* out);

/// Strict decimal int with an optional leading '-'; range-checked
/// against INT_MIN/INT_MAX before the (otherwise UB-prone) cast.
bool parse_int(std::string_view s, int* out);

bool parse_bool(std::string_view s, bool* out);

/// One-line string escaping for values that may contain newlines (the
/// replay note): '\\' -> "\\\\", '\n' -> "\\n", '\r' -> "\\r". unescape
/// returns false on a dangling or unknown escape.
std::string escape_line(const std::string& s);
bool unescape_line(const std::string& s, std::string* out);

}  // namespace wfd::explore::detail
