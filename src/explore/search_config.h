// SearchConfig — the one validated configuration object for every
// driver of the exploration subsystem: wfd_check, the campaign driver,
// the explorer, the snapshot store, tests and benches all construct
// and pass the same object, with one validate().
//
// Each field is declared once more, as one row of the field table in
// search_config.cpp: its CLI flag, header key, JSON key, help group and
// the codec that reads and prints its value. apply_cli_flag,
// cli_flags_help, the snapshot and replay headers and config_to_json
// only walk that table, so a new knob is its member plus one row.
// Fields with no surface (stop_at_first, cancel) have no row.
//
// The snapshot header (search_header_to_text / search_header_apply)
// renders ONLY the rows with a header key: the fields a stored
// frontier's soundness depends on, the scenario plus reduction,
// symmetry and state_fingerprints. Execution-shape knobs — threads,
// budgets, save/resume paths — are absent by design, so resuming a
// snapshot with a different thread count or budget is legal (the
// wave-scheduled search is deterministic in those), while resuming
// under a different reduction configuration is rejected field by field
// (state_store::resume_mismatch diffs the rendered headers). A replay
// file's header is the scenario rows alone (`scenario_only`).
//
// The campaign (explore/campaign.h) reads the scenario, threads,
// stop_at_first and its own section; every other search field is
// exhaustive-only, and cli_flags_help says so.
#pragma once

#include <atomic>
#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <string_view>

#include "explore/scenario.h"

namespace wfd::explore {

/// Partial-order reduction mode of the exhaustive search.
enum class Reduction {
  kNone,       ///< Plain DFS over the full choice tree.
  kSleepSets,  ///< Sleep sets only (no backtrack-set gating).
  kDpor,       ///< Dynamic partial-order reduction + sleep sets.
};

struct SearchConfig {
  ScenarioOptions scenario;

  // --- Exhaustive search -------------------------------------------------
  /// Cumulative cap on materialized choice points. 0 = unlimited.
  std::uint64_t max_states = 100000;
  Reduction reduction = Reduction::kDpor;
  /// Canonicalize state fingerprints under process renaming within the
  /// scenario's symmetry classes (ScenarioFactory::symmetry_classes).
  /// Opt-in; validate() rejects it for scenarios whose initial
  /// configuration or fault script is not symmetric.
  bool symmetry = false;
  /// Prune states whose fingerprint was already fully explored.
  bool state_fingerprints = true;
  /// Stop at the first violation instead of collecting all of them
  /// (the campaign too).
  bool stop_at_first = true;
  /// Worker threads of the wave-scheduled exhaustive search. Results
  /// (states, coverage, violations, snapshots) are identical for every
  /// value — threads only buy wall clock. In the campaign: the
  /// random-walk worker count.
  int threads = 1;
  /// Cap on NEW states this invocation (0 = off); with save_path this
  /// yields resumable installments (exit 4 contract in wfd_check).
  std::uint64_t budget_states = 0;
  /// Persist the frontier + fingerprints here on exit (empty = off).
  std::string save_path;
  /// Resume from this snapshot (empty = fresh search).
  std::string resume_path;
  /// Cooperative cancel: polled every step; a cancelled wave is
  /// discarded wholesale, so saved snapshots never carry partial waves.
  const std::atomic<bool>* cancel = nullptr;

  // --- Campaign ----------------------------------------------------------
  /// Total random-walk runs across all campaign workers.
  std::uint64_t runs = 10000;
  /// Shrink a claimed counterexample before reporting it.
  bool shrink = true;
};

/// Empty when the configuration is valid (scenario included), else a
/// diagnosis. Every driver calls this once before running.
[[nodiscard]] std::string validate(const SearchConfig& cfg);

/// Outcome of feeding one CLI argument to apply_cli_flag.
enum class CliResult {
  kApplied,   ///< Flag recognized, value parsed, cfg updated.
  kBadValue,  ///< Flag recognized, value refused; cfg unchanged.
  kUnknown,   ///< Not a SearchConfig flag (caller's problem).
};

/// Applies one `--key=value` (or boolean `--key`) CLI argument. This is
/// the single flag surface for scenario + search knobs; wfd_check layers
/// only mode/output flags (--exhaustive, --json, --save, ...) on top.
CliResult apply_cli_flag(SearchConfig& cfg, const std::string& arg);

/// The flag reference for usage text: the flags every mode reads, then
/// the exhaustive-only and the campaign-only ones.
[[nodiscard]] std::string cli_flags_help();

/// The part of cli_flags_help that lists a flag.
enum class FlagGroup { kEveryMode, kExhaustive, kCampaign };

/// One row of the field table: a ScenarioOptions or SearchConfig field
/// and every spelling it has. A reader leaves the config untouched when
/// it refuses a value.
struct ConfigField {
  std::string_view flag;     ///< CLI name after "--"; empty: no flag.
  std::string_view metavar;  ///< Help text after '='; empty: no value.
  FlagGroup group;
  std::string_view key;   ///< Header key; empty: not in the headers.
  std::string_view json;  ///< config_to_json key; empty: not in it.
  bool scenario;          ///< A ScenarioOptions field (replay header).
  /// Read a header value, and a flag value: `read` unless the flag
  /// spells the field its own way (a valueless flag gets "").
  bool (*read)(SearchConfig& cfg, std::string_view v);
  bool (*read_flag)(SearchConfig& cfg, std::string_view v);
  /// Prints the value as the headers show it, or with `json` as JSON.
  void (*print)(std::ostream& out, const SearchConfig& cfg, bool json);
};

/// The field table, in header order.
[[nodiscard]] std::span<const ConfigField> config_fields();

/// Renders the soundness-relevant header (scenario + reduction levers)
/// as key=value lines — the shared snapshot header — or, with
/// `scenario_only`, its scenario lines alone: a replay file's header.
void search_header_to_text(std::ostream& out, const SearchConfig& cfg,
                           bool scenario_only = false);

/// Applies one key=value line of the header. Returns false when the key
/// is not a header field (a scenario field, with `scenario_only`); *ok
/// reports whether the value parsed.
bool search_header_apply(SearchConfig& cfg, const std::string& key,
                         const std::string& val, bool* ok,
                         bool scenario_only = false);

/// The full configuration as one JSON object (scenario + search knobs),
/// for --json reports and tooling.
[[nodiscard]] std::string config_to_json(const SearchConfig& cfg);

/// `s` as the contents of a JSON string literal: quotes, backslashes
/// and control characters escaped. Every string a --json report writes
/// goes through it.
[[nodiscard]] std::string json_escape(const std::string& s);

[[nodiscard]] std::string reduction_to_text(Reduction r);

}  // namespace wfd::explore
