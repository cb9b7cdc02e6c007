// SearchConfig is the single configuration surface of the exploration
// subsystem: one CLI parser, one validate(), one JSON rendering and one
// snapshot-header rendering shared by wfd_check, the campaign driver
// and the snapshot store, all walks over one field table. These tests
// pin that contract: a config built from CLI flags round-trips through
// the snapshot header (render → apply → render identical), the header
// and JSON bytes of a config with every field off its default stay
// those recorded before the table existed, every row reaches the help,
// header and JSON it names, execution-shape knobs stay out of the
// header by design, the JSON view carries every soundness lever, and
// validate() rejects the configurations no driver may run.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "explore/search_config.h"

namespace wfd::explore {
namespace {

SearchConfig from_flags(const std::vector<std::string>& flags) {
  SearchConfig cfg;
  for (const std::string& f : flags) {
    EXPECT_EQ(apply_cli_flag(cfg, f), CliResult::kApplied) << f;
  }
  return cfg;
}

std::string header_text(const SearchConfig& cfg) {
  std::ostringstream out;
  search_header_to_text(out, cfg);
  return out.str();
}

SearchConfig apply_header(const std::string& text) {
  SearchConfig cfg;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t eq = line.find('=');
    EXPECT_NE(eq, std::string::npos) << line;
    bool ok = false;
    EXPECT_TRUE(
        search_header_apply(cfg, line.substr(0, eq), line.substr(eq + 1), &ok))
        << "not a header field: " << line;
    EXPECT_TRUE(ok) << "value did not parse: " << line;
  }
  return cfg;
}

TEST(SearchConfigTest, CliFlagsRoundTripThroughSnapshotHeader) {
  const SearchConfig cfg = from_flags(
      {"--problem=nbac", "--n=4", "--depth=18", "--crash=explore",
       "--fd=static", "--seed=11", "--reduction=sleep-sets", "--symmetry",
       "--no-fingerprints", "--threads=8", "--max-states=0",
       "--budget-states=123", "--save-state=/tmp/never-written.snap"});
  EXPECT_EQ(validate(cfg), "");

  const std::string header = header_text(cfg);
  const SearchConfig back = apply_header(header);
  EXPECT_EQ(header_text(back), header) << "apply → render must be identity";
  EXPECT_EQ(validate(back), "");
  // --fd=adversarial is fd_per_query itself; no second field carries it.
  EXPECT_EQ(header.find("fd_adversarial"), std::string::npos) << header;
  EXPECT_NE(header.find("fd_per_query=0"), std::string::npos) << header;

  // Soundness fields survive the trip...
  EXPECT_EQ(back.scenario.problem, "nbac");
  EXPECT_EQ(back.scenario.n, 4);
  EXPECT_EQ(back.scenario.crash_mode, "explore");
  EXPECT_EQ(back.scenario.max_steps, 18);
  EXPECT_EQ(back.scenario.seed, 11u);
  EXPECT_FALSE(back.scenario.fd_per_query);
  EXPECT_EQ(back.reduction, Reduction::kSleepSets);
  EXPECT_TRUE(back.symmetry);
  EXPECT_FALSE(back.state_fingerprints);

  // ...while execution-shape knobs are intentionally absent from the
  // header (resuming with different threads or budgets is legal), so
  // the applied config keeps their defaults.
  EXPECT_EQ(back.threads, 1);
  EXPECT_EQ(back.max_states, SearchConfig{}.max_states);
  EXPECT_EQ(back.budget_states, 0u);
  EXPECT_TRUE(back.save_path.empty());
}

TEST(SearchConfigTest, JsonCarriesEverySoundnessLever) {
  const SearchConfig cfg = from_flags(
      {"--problem=register", "--n=3", "--reg-ops=1", "--reg-readers=1",
       "--loss=drop:2,dup:1", "--depth=20", "--reduction=dpor",
       "--threads=4", "--crash-time=5", "--stab=7", "--nbac-no-voter=1",
       "--abcast-senders=1", "--all-pending"});
  const std::string json = config_to_json(cfg);
  for (const char* needle :
       {"\"problem\":\"register\"", "\"n\":3", "\"loss_drops\":2",
        "\"loss_dups\":1", "\"depth\":20", "\"reduction\":\"dpor\"",
        "\"symmetry\":false", "\"state_fingerprints\":true",
        "\"threads\":4", "\"fd_per_query\":true", "\"reg_ops\":1",
        "\"reg_readers\":1", "\"crash_time\":5", "\"stabilization\":7",
        "\"nbac_no_voter\":1", "\"abcast_senders\":1",
        "\"oldest_per_channel\":false"}) {
    EXPECT_NE(json.find(needle), std::string::npos)
        << needle << " missing from " << json;
  }
  EXPECT_EQ(json.find("fd_adversarial"), std::string::npos) << json;
  // Every field the snapshot header renders is in the JSON too (the
  // horizon under its CLI name, depth), and kNever renders as null.
  std::istringstream header(header_text(cfg));
  for (std::string line; std::getline(header, line);) {
    std::string key = line.substr(0, line.find('='));
    if (key == "max_steps") key = "depth";
    EXPECT_NE(json.find("\"" + key + "\":"), std::string::npos)
        << key << " missing from " << json;
  }
  EXPECT_NE(config_to_json(SearchConfig{}).find("\"crash_time\":null"),
            std::string::npos);
}

TEST(SearchConfigTest, JsonEscapeCoversQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("agreement"), "agreement");
  EXPECT_EQ(json_escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("l1\nl2\r\tx"), "l1\\nl2\\r\\tx");
  EXPECT_EQ(json_escape(std::string("\x01\x1f", 2)), "\\u0001\\u001f");
  EXPECT_EQ(json_escape(std::string("nul\0!", 5)), "nul\\u0000!");
  // Bytes >= 0x20 (UTF-8 included) pass through unchanged.
  EXPECT_EQ(json_escape("Ω ~"), "Ω ~");
  // A user string reaches the config JSON escaped.
  SearchConfig cfg;
  cfg.scenario.liveness = "x\"\n";
  EXPECT_NE(config_to_json(cfg).find("\"liveness\":\"x\\\"\\n\""),
            std::string::npos);
}

TEST(SearchConfigTest, CliFlagOutcomes) {
  SearchConfig cfg;
  // Not SearchConfig flags: the caller (wfd_check) layers these on top.
  EXPECT_EQ(apply_cli_flag(cfg, "--exhaustive"), CliResult::kUnknown);
  EXPECT_EQ(apply_cli_flag(cfg, "--json"), CliResult::kUnknown);
  // Retired options must be refused, not silently accepted.
  for (const char* retired :
       {"--dep=content", "--dep=process", "--no-fault-dep", "--max-runs=1",
        "--no-lambda", "--order-seed=1", "--frontier=2"}) {
    EXPECT_EQ(apply_cli_flag(cfg, retired), CliResult::kUnknown) << retired;
  }
  for (const char* gone : {"--dep=", "--no-fault-dep", "--max-runs",
                           "--no-lambda", "--order-seed", "--frontier",
                           "flap"}) {
    EXPECT_EQ(cli_flags_help().find(gone), std::string::npos) << gone;
  }
  // --fd takes static|adversarial; adversarial is per-query choice.
  EXPECT_EQ(apply_cli_flag(cfg, "--fd=static"), CliResult::kApplied);
  EXPECT_FALSE(cfg.scenario.fd_per_query);
  EXPECT_EQ(apply_cli_flag(cfg, "--fd=adversarial"), CliResult::kApplied);
  EXPECT_TRUE(cfg.scenario.fd_per_query);
  EXPECT_EQ(apply_cli_flag(cfg, "--fd=static"), CliResult::kApplied);
  EXPECT_EQ(apply_cli_flag(cfg, "--fd=flap"), CliResult::kBadValue);
  EXPECT_FALSE(cfg.scenario.fd_per_query);
  // Recognized flag, unparseable value.
  EXPECT_EQ(apply_cli_flag(cfg, "--n=banana"), CliResult::kBadValue);
  EXPECT_EQ(apply_cli_flag(cfg, "--reduction=fast"), CliResult::kBadValue);
  EXPECT_EQ(apply_cli_flag(cfg, "--crash=maybe"), CliResult::kBadValue);
  EXPECT_EQ(apply_cli_flag(cfg, "--threads=0"), CliResult::kBadValue);
  EXPECT_EQ(apply_cli_flag(cfg, "--loss=drop:0"), CliResult::kBadValue);
  EXPECT_EQ(apply_cli_flag(cfg, "--loss=drop:2,dup:0"), CliResult::kBadValue);
  // Bad values must not have mutated the config.
  EXPECT_EQ(cfg.reduction, Reduction::kDpor);
  EXPECT_EQ(cfg.scenario.crash_mode, SearchConfig{}.scenario.crash_mode);
  EXPECT_EQ(cfg.threads, SearchConfig{}.threads);
  EXPECT_EQ(cfg.scenario.loss_drops, 0);
  EXPECT_EQ(cfg.scenario.loss_dups, 0);
}

// Every field with a surface off its default: the table's flags, all of
// them.
SearchConfig every_field_off_default() {
  return from_flags(
      {"--problem=register-regular", "--n=4", "--crashes=1",
       "--crash-time=5", "--crash=explore", "--loss=drop:2,dup:1",
       "--depth=20", "--seed=11", "--stab=7", "--fd=static",
       "--nbac-no-voter=1", "--reg-ops=1", "--reg-readers=1",
       "--abcast-senders=1", "--all-pending", "--liveness=termination",
       "--max-states=5000", "--reduction=sleep-sets", "--symmetry",
       "--no-fingerprints", "--threads=4", "--budget-states=123",
       "--save-state=/tmp/never-written-a.snap",
       "--resume=/tmp/never-written-b.snap", "--runs=77", "--no-shrink"});
}

TEST(SearchConfigTest, HeaderAndJsonKeepTheirRecordedBytes) {
  const SearchConfig cfg = every_field_off_default();
  // Recorded from the hand-written renderers the field table replaced:
  // snapshot and replay files must stay byte-identical.
  const std::string scenario_part =
      "problem=register-regular\n"
      "n=4\n"
      "crashes=1\n"
      "crash_time=5\n"
      "crash_mode=explore\n"
      "loss_drops=2\n"
      "loss_dups=1\n"
      "max_steps=20\n"
      "seed=11\n"
      "stabilization=7\n"
      "fd_per_query=0\n"
      "nbac_no_voter=1\n"
      "reg_ops=1\n"
      "reg_readers=1\n"
      "abcast_senders=1\n"
      "oldest_per_channel=0\n"
      "liveness=termination\n";
  EXPECT_EQ(header_text(cfg), scenario_part +
                                  "reduction=sleep-sets\n"
                                  "symmetry=1\n"
                                  "state_fingerprints=0\n");
  std::ostringstream replay_header;
  search_header_to_text(replay_header, cfg, /*scenario_only=*/true);
  EXPECT_EQ(replay_header.str(), scenario_part);

  // The same recording's JSON pairs; key order may follow the table.
  const std::vector<std::string> pairs = {
      "\"problem\":\"register-regular\"", "\"n\":4", "\"crashes\":1",
      "\"crash_mode\":\"explore\"", "\"crash_time\":5",
      "\"loss_drops\":2", "\"loss_dups\":1", "\"depth\":20",
      "\"seed\":11", "\"stabilization\":7", "\"fd_per_query\":false",
      "\"nbac_no_voter\":1", "\"reg_ops\":1", "\"reg_readers\":1",
      "\"abcast_senders\":1", "\"oldest_per_channel\":false",
      "\"liveness\":\"termination\"", "\"max_states\":5000",
      "\"reduction\":\"sleep-sets\"", "\"symmetry\":true",
      "\"state_fingerprints\":false", "\"threads\":4",
      "\"budget_states\":123"};
  const std::string json = config_to_json(cfg);
  std::size_t pair_bytes = 2;  // The braces.
  for (const std::string& pair : pairs) {
    EXPECT_NE(json.find(pair), std::string::npos) << pair << " in " << json;
    pair_bytes += pair.size() + 1;
  }
  EXPECT_EQ(json.size(), pair_bytes - 1) << "a key beyond the recording: "
                                         << json;
}

TEST(SearchConfigTest, EveryRowReachesTheSurfacesItNames) {
  const SearchConfig cfg = every_field_off_default();
  const std::string help = cli_flags_help();
  const std::size_t exhaustive = help.find(" exhaustive only:\n");
  const std::size_t campaign = help.find(" campaign only:\n");
  ASSERT_NE(exhaustive, std::string::npos) << help;
  ASSERT_NE(campaign, std::string::npos) << help;
  const std::string json = config_to_json(cfg);
  std::set<std::string_view> flags;
  std::set<std::string_view> keys;
  std::set<std::string_view> json_keys;
  for (const ConfigField& f : config_fields()) {
    const std::string name = "--" + std::string(f.flag);
    if (!f.flag.empty()) {
      EXPECT_TRUE(flags.insert(f.flag).second) << "duplicate " << name;
      const std::string item =
          " " + name + (f.metavar.empty() ? "" : "=" + std::string(f.metavar));
      const std::size_t at = help.find(item);
      ASSERT_NE(at, std::string::npos) << item << " missing from " << help;
      const char end = help[at + item.size()];
      EXPECT_TRUE(end == ' ' || end == '\n') << item;
      switch (f.group) {
        case FlagGroup::kEveryMode:
          EXPECT_LT(at, exhaustive) << name;
          break;
        case FlagGroup::kExhaustive:
          EXPECT_GT(at, exhaustive) << name;
          EXPECT_LT(at, campaign) << name;
          break;
        case FlagGroup::kCampaign:
          EXPECT_GT(at, campaign) << name;
          break;
      }
    }
    if (!f.key.empty()) {
      EXPECT_TRUE(keys.insert(f.key).second) << "duplicate " << f.key;
      const std::string key(f.key);
      std::ostringstream value;
      f.print(value, cfg, false);
      const std::string line = key + "=" + value.str() + "\n";
      EXPECT_NE(header_text(cfg).find(line), std::string::npos) << line;
      EXPECT_EQ(header_text(SearchConfig{}).find(line), std::string::npos)
          << line << " is the default: the round trip proves nothing";
      // render → apply → render, one field at a time.
      SearchConfig back;
      bool ok = false;
      EXPECT_TRUE(search_header_apply(back, key, value.str(), &ok)) << key;
      EXPECT_TRUE(ok) << line;
      std::ostringstream again;
      f.print(again, back, false);
      EXPECT_EQ(again.str(), value.str()) << key;
      EXPECT_EQ(search_header_apply(back, key, value.str(), &ok,
                                    /*scenario_only=*/true),
                f.scenario)
          << key;
    }
    if (!f.json.empty()) {
      EXPECT_TRUE(json_keys.insert(f.json).second) << "duplicate " << f.json;
      EXPECT_NE(json.find("\"" + std::string(f.json) + "\":"),
                std::string::npos)
          << f.json << " missing from " << json;
    }
  }
}

TEST(SearchConfigTest, ValidateRejectsWhatDriversMustNotRun) {
  SearchConfig cfg;
  cfg.scenario.problem = "consensus";
  cfg.scenario.n = 3;
  EXPECT_EQ(validate(cfg), "");

  SearchConfig threads = cfg;
  threads.threads = 65;
  EXPECT_NE(validate(threads).find("threads"), std::string::npos);

  // Scripted crashes pin concrete process ids, so no symmetry classes
  // exist and enabling the reduction must be refused, not ignored.
  SearchConfig scripted = cfg;
  scripted.scenario.crashes = 1;
  scripted.symmetry = true;
  EXPECT_NE(validate(scripted).find("symmetry"), std::string::npos);

  SearchConfig bogus;
  bogus.scenario.problem = "no-such-problem";
  EXPECT_NE(validate(bogus), "");
}

}  // namespace
}  // namespace wfd::explore
