#include "explore/explorer.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <map>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "explore/liveness.h"
#include "explore/state_store.h"
#include "inject/fault_plan.h"
#include "sim/dependence.h"
#include "sim/scheduler.h"
#include "sim/state_encoder.h"

namespace wfd::explore {

namespace {

bool contains(const std::vector<std::uint64_t>& v, std::uint64_t x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint32_t index_of(const std::vector<std::uint64_t>& labels,
                       std::uint64_t label) {
  const auto it = std::find(labels.begin(), labels.end(), label);
  WFD_CHECK_MSG(it != labels.end(), "label not in frame menu");
  return static_cast<std::uint32_t>(it - labels.begin());
}

/// Identifies a choice-tree node by hashing the (kind, chosen label)
/// edge sequence from the root — two independent mix lanes, so an
/// accidental collision between distinct paths needs to defeat 128
/// bits. Keys are recomputed from the frames on snapshot load, never
/// trusted from the wire.
using ChainKey = std::array<std::uint64_t, 2>;

constexpr ChainKey kRootKey = {0x9b1a6e3c5d4f2a07ull, 0x6f4b2d9c8e1a3f55ull};

ChainKey advance_key(const ChainKey& k, sim::ChoiceKind kind,
                     std::uint64_t label) {
  const std::uint64_t e = (static_cast<std::uint64_t>(kind) << 62) ^ label;
  return ChainKey{mix(k[0] ^ mix(e)),
                  mix(k[1] + mix(e ^ 0xd1b54a32d192ed03ull))};
}

/// One work unit: a fixed path prefix (frames[0, floor) never change;
/// backtracking stops at floor) plus the unit's private DFS frontier
/// above it. keys[d] is the chain key of the node at depth d, kept for
/// depths 0..floor so deferred insertions and decomposition can name
/// prefix nodes without re-walking the path.
struct Unit {
  std::uint64_t id = 0;
  std::size_t floor = 0;
  /// The current path has not been executed to completion (fresh unit):
  /// continuing means re-executing it, not backtracking past it.
  bool path_pending = true;
  std::vector<FrameState> frames;
  std::vector<ChainKey> keys;  ///< Size floor + 1.
};

enum class UnitOutcome {
  kExhausted,  ///< Backtrack walked back to the floor: subtree done.
  kBudget,     ///< Hit the per-wave node budget (path fully executed).
  kViolation,  ///< stop_at_first and this unit's run violated.
  kCancelled,  ///< SearchConfig::cancel observed mid-wave.
};

/// A DPOR backtrack insertion that targeted a frame below the unit's
/// floor: the prefix is shared with sibling units, so the insertion is
/// resolved against the node registry at the wave barrier instead of
/// mutating the local copy.
struct DeferredOp {
  std::size_t depth = 0;  ///< Frame index, < unit.floor.
  std::uint64_t label = 0;
  bool race = false;  ///< Counts toward hb_races when accepted.
};

struct UnitResult {
  Unit unit;
  UnitOutcome outcome = UnitOutcome::kExhausted;
  /// Stats delta of this wave's execution (merged at the barrier).
  ExploreStats delta;
  std::set<std::string> conservative;
  /// Fingerprints first seen (or seen earlier) by this unit; merged
  /// min-wise into the committed set at the barrier.
  std::unordered_map<std::uint64_t, std::uint64_t> fps_overlay;
  std::vector<DeferredOp> deferred;
  std::optional<Counterexample> cex;
  /// Liveness mode: the state-graph fragment this unit observed, merged
  /// into the committed graph at the barrier (slot order).
  LiveGraph graph;
  /// Steps of this wave's runs that ended inside their run's recorded
  /// path: re-executed only to rebuild a state.
  std::uint64_t replayed_steps = 0;
  /// Steps of this wave's runs that a checkpoint restore skipped.
  std::uint64_t restored_steps = 0;
};

/// Registry entry for a node whose frontier was split across units: the
/// labels already assigned, in assignment order (the order defines the
/// sleep-set asymmetry between sibling units — a later-assigned label's
/// unit sees every earlier one as explored, never the reverse).
struct NodeReg {
  std::vector<std::uint64_t> assigned;
};

/// Read-only shared context of one wave.
struct WaveContext {
  const SearchConfig* cfg = nullptr;
  /// ScenarioFactory::pattern_sensitive of the scenario — whether crash
  /// labels stay dependent with everything (sim/dependence.h).
  bool pattern_sensitive = false;
  /// Non-identity renamings of the scenario's symmetry group (empty
  /// unless SearchConfig::symmetry).
  const std::vector<std::vector<ProcessId>>* perms = nullptr;
  /// Fingerprints committed at the wave start (frozen for the wave).
  const std::unordered_map<std::uint64_t, std::uint64_t>* fps = nullptr;
  /// Per-unit cap on nodes materialized this wave.
  std::uint64_t wave_budget = 0;
};

/// Send-time metadata of a message of the current run.
struct MsgInfo {
  ProcessId sender = kNoProcess;  ///< kNoProcess: not tracked.
  std::uint64_t sent_time = 0;    ///< Global step number of the send.
  /// Offset of the sender's vector clock at send (n entries) in the
  /// engine's clock pool; the sends of one step share it.
  std::size_t clock = 0;
  /// The payload itself (shared with the envelope).
  sim::PayloadPtr payload;
  /// Content digest when the payload's encoding is complete; fuels the
  /// same-sender identical-copy rule.
  std::optional<std::uint64_t> digest;
};

/// One executed event of one process within the current run.
struct StepRec {
  int frame = -1;  ///< Index into the unit's frames, -1 = forced move.
  std::uint64_t time = 0;       ///< Global step number within the run.
  std::uint64_t delivered = 0;  ///< Message id; 0 for lambda/start.
  bool is_start = false;
  /// λ step the process declared inert (Process::tick_noop): commutes
  /// with tick-insensitive deliveries.
  bool tick_inert = false;
};

// ---- UnitEngine ------------------------------------------------------

/// Runs one unit for one wave: the classic stateless-model-checking
/// loop (re-execute the scenario along the recorded path, extend to a
/// halt, backtrack the deepest frame with an alternative) with three
/// twists — the backtrack walk stops at the unit's floor, backtrack
/// insertions below the floor are deferred to the wave barrier, and
/// fingerprint writes go to a private overlay. Everything the engine
/// reads from shared state is frozen for the wave, so a unit's result
/// is a pure function of (unit, committed state): independent of
/// thread count, scheduling and sibling units.
///
/// Checkpointed replay: the engine keeps a stack of scenario copies,
/// one taken before every step of the current path (every step won the
/// ablation in DESIGN.md §12 against every second or third one, which
/// copy less but re-execute more). A run starts from the deepest
/// checkpoint at or below the flipped frame and re-executes only the
/// steps from there to the flip; a fresh build is the checkpoint at
/// position 0, which a run falls back to when none qualifies, e.g.
/// every run of a scenario with a non-cloneable part (clone_scenario).
/// Either way the run counts the same: a restore adds the skipped
/// prefix's steps and commute skips, and truncates the DPOR state to
/// the checkpoint's lengths — the prefix's events, clocks and message
/// records are the ones the previous run computed.
class UnitEngine {
 public:
  UnitEngine(ScenarioBuilder build, const WaveContext& ctx)
      : build_(std::move(build)),
        ctx_(ctx),
        cfg_(*ctx.cfg),
        liveness_(!cfg_.scenario.liveness.empty()) {}
  // The decision source, and every scenario that asks it, hold `this`.
  UnitEngine(const UnitEngine&) = delete;
  UnitEngine& operator=(const UnitEngine&) = delete;

  UnitResult run(Unit unit) {
    res_.unit = std::move(unit);
    u_ = &res_.unit;
    deferred_at_.assign(u_->floor, PrefixDeferrals{});
    // A re-queued unit (budget break with the search stopping, or a
    // violation stop) holds a fully executed path: the next move is
    // the backtrack flip the uninterrupted search would have made.
    if (!u_->path_pending) {
      if (!backtrack()) {
        res_.outcome = UnitOutcome::kExhausted;
        return std::move(res_);
      }
      u_->path_pending = true;
    }
    const bool dpor = cfg_.reduction == Reduction::kDpor;
    while (true) {
      if (cancel_requested()) {
        res_.outcome = UnitOutcome::kCancelled;
        return std::move(res_);
      }
      // One run: restore the deepest checkpoint at or below the flipped
      // frame (or build afresh), replay the prefix from there, extend to
      // a halt. States reached while the source is still inside the
      // replayed prefix are re-visits of the previous run's own states —
      // invisible to fingerprint pruning, or every run would prune
      // itself at step one.
      const std::size_t replay_len = u_->frames.size();
      // A checkpoint past the flipped frame holds a state of the path
      // before the flip.
      while (!checkpoints_.empty() &&
             checkpoints_.back().pos >= replay_len) {
        checkpoints_.pop_back();
      }
      run_blocked_ = false;
      // Commute skips this run's steps count, restored prefix included.
      const std::uint64_t commute_origin = res_.delta.commute_skips;
      std::uint64_t run_steps = 0;
      std::uint64_t cur_fp = 0;
      const bool fresh = checkpoints_.empty();
      source_.restart(fresh ? 0 : checkpoints_.back().pos);
      Scenario sc = fresh ? build() : restore(run_steps, cur_fp);
      // The first step count at which this run may take a checkpoint:
      // a restored boundary has one already, or needs none.
      const std::uint64_t checkpoint_from = fresh ? 0 : run_steps + 1;
      const LivenessClause* goal = nullptr;
      if (liveness_) {
        WFD_CHECK_MSG(!sc.liveness.empty(),
                      "liveness scenario built no clause");
        goal = sc.liveness.front().get();
        // A fresh run is anchored at the initial state.
        if (fresh) cur_fp = root_fingerprint(sc, *goal);
      }
      std::optional<Violation> violation;
      std::uint64_t run_replayed = 0;
      bool pruned = false;
      while (!run_blocked_) {
        // Once per step, so at least once per choice-point expansion.
        if (cancel_requested()) {
          res_.outcome = UnitOutcome::kCancelled;
          return std::move(res_);
        }
        const std::size_t pos_before = source_.pos();
        // A checkpoint serves flips at or past the floor, so the steps
        // before the one that can consume the floor frame get none.
        if (cloneable_ && run_steps >= checkpoint_from &&
            pos_before + 1 >= u_->floor && !sc.sim->halted()) {
          take_checkpoint(sc, pos_before, run_steps, cur_fp,
                          res_.delta.commute_skips - commute_origin);
        }
        if (!sc.sim->step()) break;
        ++run_steps;
        if (run_blocked_) break;
        if (dpor) {
          // The schedule frame consumed by this step, if the step was
          // an actual choice (forced moves never reach choose()).
          int frame = -1;
          for (std::size_t j = pos_before; j < source_.pos(); ++j) {
            if (u_->frames[j].kind == sim::ChoiceKind::kSchedule) {
              frame = static_cast<int>(j);
            }
          }
          observe_step(*sc.sim, frame, run_steps);
        }
        const bool replaying = source_.pos() < replay_len;
        if (replaying) ++run_replayed;
        violation = check_invariants(sc);
        if (violation.has_value()) break;

        // Liveness mode: record the step's transition. A backtrack
        // flips the chosen option of an existing frame, so the step that
        // consumes it — the "replayed" flipped step — is in fact a new
        // transition. add_live_edge dedups by decision block, so a
        // re-executed step re-records its transition harmlessly.
        std::optional<std::uint64_t> fp;
        if (liveness_) {
          fp = fingerprint(sc);
          WFD_CHECK_MSG(fp.has_value(),
                        "liveness mode requires a complete state encoding");
          record_transition(sc, *goal, cur_fp, *fp, pos_before, source_.pos());
          cur_fp = *fp;
        }

        if (replaying) continue;
        if (!cfg_.state_fingerprints) continue;
        if (!fp.has_value()) fp = fingerprint(sc);
        if (!fp.has_value()) continue;
        // Keyed on sim time: the fingerprint does not fold the
        // remaining horizon, so a revisit only subsumes the earlier
        // visit when at least as much future is left (same or earlier
        // time).
        const auto t = static_cast<std::uint64_t>(sc.sim->now());
        const std::optional<std::uint64_t> known = fps_lookup(*fp);
        // Liveness mode prunes on any revisit regardless of time:
        // states are time-free under the liveness validate() rules and
        // the first visitor had at least as much horizon left, so the
        // prune is an exact merge into an already-expanded graph node.
        if (known.has_value() && (*known <= t || liveness_)) {
          pruned = true;
          ++res_.delta.fp_prunes;
          // The unexecuted suffix can no longer testify about races
          // with this path; re-arm the whole path conservatively.
          if (dpor) expand_path_on_prune();
          break;
        }
        const auto [it, fresh] = res_.fps_overlay.emplace(*fp, t);
        if (!fresh && it->second > t) it->second = t;
      }
      // Liveness mode: a run that ended only because the horizon ran
      // out leaves its final state's future unexplored — mark it, so
      // the fair-cycle verdict can confess where it is silent. Runs
      // that halted (all alive modules done), pruned into a known node,
      // blocked, or violated are complete at cur_fp.
      if (liveness_ && !violation.has_value() && !pruned && !run_blocked_ &&
          !sc.sim->all_alive_done()) {
        res_.graph.at(cur_fp).truncated = true;
      }
      u_->path_pending = false;
      // A prune armed every schedule frame on the path with its whole
      // menu (expand_path_on_prune), so the race pass could add nothing.
      if (dpor && !pruned) end_of_run_races(*sc.sim);
#ifndef NDEBUG
      if (dpor && pruned) check_prune_covers_races(*sc.sim);
#endif
      res_.delta.steps += run_steps;
      res_.replayed_steps += run_replayed;
      ++res_.delta.runs;
      if (const inject::FaultState* fs = sc.sim->faults()) {
        res_.delta.injected_crashes +=
            static_cast<std::uint64_t>(fs->crashes());
        res_.delta.injected_drops += static_cast<std::uint64_t>(fs->drops());
        res_.delta.injected_dups += static_cast<std::uint64_t>(fs->dups());
      }
      if (violation.has_value()) {
        ++res_.delta.violations;
        if (!res_.cex.has_value()) {
          res_.cex = Counterexample{decisions(), *violation, run_steps,
                                    /*loop=*/{}, /*loop_steps=*/0};
        }
        if (cfg_.stop_at_first) {
          res_.outcome = UnitOutcome::kViolation;
          return std::move(res_);
        }
      }
      if (res_.delta.nodes >= ctx_.wave_budget) {
        res_.outcome = UnitOutcome::kBudget;
        return std::move(res_);
      }
      if (!backtrack()) {
        res_.outcome = UnitOutcome::kExhausted;
        return std::move(res_);
      }
      u_->path_pending = true;
    }
  }

 private:
  /// Walks the recorded path, replaying frames below frames.size() and
  /// materializing new ones past the end. A run is the unique extension
  /// of the current path in which every fresh choice point takes its
  /// first eligible option.
  class DfsSource : public sim::ChoiceSource {
   public:
    explicit DfsSource(UnitEngine& owner) : owner_(&owner) {}

    /// Starts a run at frame `pos` of the recorded path (a restored run
    /// has already consumed the frames below it).
    void restart(std::size_t pos) { pos_ = pos; }

    std::size_t choose(sim::ChoiceKind kind,
                       const std::vector<std::uint64_t>& labels) override {
      return owner_->choose(kind, labels, pos_);
    }

    void note_enabled(sim::ChoiceKind kind,
                      const std::vector<std::uint64_t>& labels) override {
      if (owner_->liveness_ && kind == sim::ChoiceKind::kSchedule) {
        owner_->menu_ = labels;
      }
    }

    [[nodiscard]] std::size_t pos() const { return pos_; }

   private:
    UnitEngine* owner_;
    std::size_t pos_ = 0;
  };

  /// A scenario copy taken before a step of the current path, with what
  /// the run had computed by then.
  struct Checkpoint {
    std::size_t pos = 0;      ///< Frames consumed before the step.
    std::uint64_t steps = 0;  ///< Steps executed before it.
    Scenario sc;  ///< Runs only once restore() hands it over.
    std::uint64_t fp = 0;     ///< Liveness mode: the state's fingerprint.
    /// Commute skips the run's steps so far counted.
    std::uint64_t commute_skips = 0;
    // DPOR's per-run state: the lengths of the append-only records and
    // the clocks, which steps overwrite.
    std::vector<std::size_t> proc_events;
    std::vector<std::uint64_t> clock;  ///< n x n, row-major.
    std::size_t msgs = 0;
    std::size_t msg_clocks = 0;
    std::uint64_t prev_sent = 0;
  };

  /// The checkpoint at position 0: a fresh build, with the DPOR state
  /// cleared.
  Scenario build() {
    Scenario sc = build_(source_);
    if (cfg_.reduction == Reduction::kDpor) {
      // Cleared, not reallocated: the storage serves every run.
      const auto n = static_cast<std::size_t>(sc.sim->n());
      proc_events_.resize(n);
      clock_.resize(n);
      for (std::size_t p = 0; p < n; ++p) {
        proc_events_[p].clear();
        clock_[p].assign(n, 0);
      }
      msgs_.clear();
      msg_clocks_.clear();
      prev_sent_ = sc.sim->network().total_sent();
      msgs_base_ = prev_sent_;
    }
    return sc;
  }

  /// Liveness mode: the fingerprint of a freshly built scenario. It is
  /// taken before the first step, which is where the scheduler lazily
  /// starts the run (so it precedes the oracle's begin_run picks and is
  /// identical across runs and units), and recorded as the graph's root
  /// once per engine; builds without NDEBUG re-take and compare it.
  std::uint64_t root_fingerprint(const Scenario& sc,
                                 const LivenessClause& goal) {
    bool take = !res_.graph.have_root;
#ifndef NDEBUG
    take = true;
#endif
    if (take) {
      const std::optional<std::uint64_t> root = fingerprint(sc);
      WFD_CHECK_MSG(root.has_value(),
                    "liveness mode requires a complete state encoding");
      WFD_CHECK_MSG(!res_.graph.have_root || res_.graph.root == *root,
                    "initial-state fingerprint varies across runs");
      if (!res_.graph.have_root) {
        res_.graph.root = *root;
        res_.graph.have_root = true;
        res_.graph.at(*root).goal = goal.goal(*sc.sim);
      }
    }
    return res_.graph.root;
  }

  /// The run's start at the deepest checkpoint, with the run's counters
  /// and the DPOR state put back to where they stood there: a copy, or
  /// the checkpoint itself when no frame it covers can be flipped again
  /// (flippable_from), which saves the copy. Should a later backtrack
  /// insertion reopen such a frame, that run restores from a shallower
  /// checkpoint: it re-executes more steps and finds the same states.
  Scenario restore(std::uint64_t& run_steps, std::uint64_t& cur_fp) {
    Checkpoint& cp = checkpoints_.back();
    const bool hand_over = !flippable_from(cp.pos);
    std::optional<Scenario> sc;
    if (hand_over) {
      sc = std::move(cp.sc);
    } else {
      sc = clone_scenario(cp.sc, source_);
      WFD_CHECK_MSG(sc.has_value(), "a checkpoint stopped being cloneable");
    }
    run_steps = cp.steps;
    cur_fp = cp.fp;
    res_.delta.commute_skips += cp.commute_skips;
    res_.restored_steps += cp.steps;
    if (cfg_.reduction == Reduction::kDpor) {
      // The previous run went past this checkpoint along the same
      // prefix, so the records hold at least its lengths.
      const std::size_t n = proc_events_.size();
      for (std::size_t p = 0; p < n; ++p) {
        WFD_CHECK(proc_events_[p].size() >= cp.proc_events[p]);
        proc_events_[p].resize(cp.proc_events[p]);
        std::copy_n(cp.clock.begin() + static_cast<std::ptrdiff_t>(p * n),
                    n, clock_[p].begin());
      }
      WFD_CHECK(msgs_.size() >= cp.msgs &&
                msg_clocks_.size() >= cp.msg_clocks);
      msgs_.resize(cp.msgs);
      msg_clocks_.resize(cp.msg_clocks);
      prev_sent_ = cp.prev_sent;
    }
#ifndef NDEBUG
    if (!restore_checked_) {
      restore_checked_ = true;
      check_restore(*sc, cp.pos, cp.steps);
    }
#endif
    if (hand_over) checkpoints_.pop_back();
    return std::move(*sc);
  }

  /// Whether backtrack() could still flip a frame at or past `pos` to a
  /// label other than its chosen one: next_choice's test, without
  /// counting sleep skips.
  [[nodiscard]] bool flippable_from(std::size_t pos) const {
    for (std::size_t j = pos; j < u_->frames.size(); ++j) {
      const FrameState& f = u_->frames[j];
      const bool dpor_schedule = f.kind == sim::ChoiceKind::kSchedule &&
                                 cfg_.reduction == Reduction::kDpor;
      for (std::uint32_t i = 0; i < f.labels.size(); ++i) {
        const std::uint64_t label = f.labels[i];
        if (i == f.chosen) continue;
        if (dpor_schedule && !contains(f.backtrack, label)) continue;
        if (contains(f.explored, label) || contains(f.sleep, label)) continue;
        return true;
      }
    }
    return false;
  }

  /// Pushes a copy of `sc`, about to take step steps + 1 from frame
  /// `pos`. The first copy that fails marks the scenario not cloneable
  /// for the rest of the engine.
  void take_checkpoint(const Scenario& sc, std::size_t pos,
                       std::uint64_t steps, std::uint64_t fp,
                       std::uint64_t commute_skips) {
    std::optional<Scenario> copy = clone_scenario(sc, source_);
    if (!copy.has_value()) {
      cloneable_ = false;
      return;
    }
    Checkpoint& cp = checkpoints_.emplace_back();
    cp.pos = pos;
    cp.steps = steps;
    cp.sc = std::move(*copy);
    cp.fp = fp;
    cp.commute_skips = commute_skips;
    if (cfg_.reduction == Reduction::kDpor) {
      cp.proc_events.reserve(proc_events_.size());
      for (const auto& events : proc_events_) {
        cp.proc_events.push_back(events.size());
      }
      cp.clock.reserve(proc_events_.size() * proc_events_.size());
      for (const auto& row : clock_) {
        cp.clock.insert(cp.clock.end(), row.begin(), row.end());
      }
      cp.msgs = msgs_.size();
      cp.msg_clocks = msg_clocks_.size();
      cp.prev_sent = prev_sent_;
    }
  }

  std::size_t choose(sim::ChoiceKind kind,
                     const std::vector<std::uint64_t>& labels,
                     std::size_t& pos) {
    WFD_CHECK_MSG(labels.size() >= 2, "forced move reached choose()");
    std::vector<FrameState>& frames = u_->frames;
    if (pos < frames.size()) {
      FrameState& f = frames[pos];
      WFD_CHECK_MSG(f.kind == kind && f.labels == labels,
                    "scenario is not a pure function of its decisions");
      ++pos;
      return f.chosen;
    }
    FrameState f;
    f.kind = kind;
    f.labels = labels;
    const bool dpor_schedule = kind == sim::ChoiceKind::kSchedule &&
                               cfg_.reduction == Reduction::kDpor;
    if (kind == sim::ChoiceKind::kSchedule &&
        cfg_.reduction != Reduction::kNone) {
      // Inherit the sleep set along the edge from the nearest schedule
      // ancestor g: everything asleep or already explored at g stays
      // asleep here unless it is dependent with the action that just
      // ran. For kSleepSets that means "same process acted" (it never
      // consults payload hooks); under kDpor a sleeping delivery
      // additionally survives a commuting delivery to the same process.
      // Fault labels use the sparse relation of sim/dependence.h: a
      // crash/drop/dup commutes with steps of processes it does not
      // touch, so sleep survives fault edges and fault labels may
      // themselves sleep.
      for (auto it = frames.rbegin(); it != frames.rend(); ++it) {
        if (it->kind != sim::ChoiceKind::kSchedule) continue;
        const FrameState& g = *it;
        const std::uint64_t executed = g.labels[g.chosen];
        const bool exec_fault =
            sim::ReplayScheduler::label_is_fault(executed);
        const ProcessId acted =
            sim::ReplayScheduler::label_process(executed);
        for (const auto* set : {&g.sleep, &g.explored}) {
          for (std::uint64_t a : *set) {
            const bool a_fault = sim::ReplayScheduler::label_is_fault(a);
            if (contains(f.sleep, a)) continue;
            bool indep;
            if (a_fault || exec_fault) {
              indep = !sim::fault_labels_dependent(a, executed,
                                                   ctx_.pattern_sensitive);
            } else {
              indep = sim::ReplayScheduler::label_process(a) != acted;
              if (!indep && dpor_schedule) {
                const std::uint64_t am =
                    sim::ReplayScheduler::label_message(a);
                const std::uint64_t em =
                    sim::ReplayScheduler::label_message(executed);
                if (am != 0 && em != 0 && am != em) {
                  const MsgInfo* ai = msg_info(am);
                  const MsgInfo* ei = msg_info(em);
                  indep = ai != nullptr && ei != nullptr &&
                          deliveries_independent(*ai, *ei);
                }
              }
            }
            if (indep) f.sleep.push_back(a);
          }
        }
        break;
      }
    }
    const std::optional<std::uint32_t> first =
        dpor_schedule ? dpor_default_choice(f) : next_choice(f);
    if (first.has_value()) {
      f.chosen = *first;
      // Under DPOR the frame starts out owing only its default child;
      // race insertion grows the debt.
      if (dpor_schedule) {
        f.backtrack.push_back(f.labels[f.chosen]);
        // Race insertion only reasons about deliveries and lambdas, so
        // fault labels would never enter a backtrack set dynamically:
        // any frame whose menu offers a fault is fully expanded
        // instead (soundness over reduction — the fault subtrees, and
        // every ordering against them, are enumerated outright). The
        // sparse fault relation does not relax this: it sparsifies the
        // sleep relation, which is what lets most of these expanded
        // labels be skipped as already-covered.
        if (std::any_of(labels.begin(), labels.end(),
                        sim::ReplayScheduler::label_is_fault)) {
          for (std::uint64_t l : labels) {
            if (!contains(f.backtrack, l)) {
              f.backtrack.push_back(l);
              ++res_.delta.backtrack_points;
            }
          }
          f.armed = true;
        }
      }
    } else {
      // Every option is asleep: the subtree is covered elsewhere. Pick
      // an arbitrary option to satisfy the caller and have the engine
      // abort the run right after this step.
      f.blocked = true;
      f.chosen = 0;
      run_blocked_ = true;
    }
    ++res_.delta.nodes;
    frames.push_back(std::move(f));
    ++pos;
    return frames.back().chosen;
  }

  std::optional<std::uint32_t> next_choice(FrameState& f) {
    const auto k = static_cast<std::uint32_t>(f.labels.size());
    const bool dpor_schedule = f.kind == sim::ChoiceKind::kSchedule &&
                               cfg_.reduction == Reduction::kDpor;
    for (std::uint32_t idx = 0; idx < k; ++idx) {
      const std::uint64_t label = f.labels[idx];
      if (dpor_schedule && !contains(f.backtrack, label)) continue;
      if (contains(f.explored, label)) continue;
      if (contains(f.sleep, label)) {
        ++res_.delta.sleep_skips;
        continue;
      }
      return idx;
    }
    return std::nullopt;
  }

  std::optional<std::uint32_t> dpor_default_choice(FrameState& f) {
    // Round-robin fairness: prefer the successor of the process that
    // acted at the nearest schedule ancestor. A greedy "first label"
    // default would keep stepping process 0 and push everyone else's
    // turns into backtrack churn; rotating actors keeps default runs
    // representative and the backtrack sets small.
    int pref = 0;
    for (auto it = u_->frames.rbegin(); it != u_->frames.rend(); ++it) {
      if (it->kind != sim::ChoiceKind::kSchedule) continue;
      pref = (sim::ReplayScheduler::label_process(it->labels[it->chosen]) +
              1) %
             kMaxProcesses;
      break;
    }
    std::optional<std::uint32_t> best;
    std::uint64_t bf = 0, bd = 0, bl = 0, bm = 0;
    for (std::uint32_t i = 0; i < f.labels.size(); ++i) {
      const std::uint64_t label = f.labels[i];
      if (contains(f.explored, label)) continue;
      if (contains(f.sleep, label)) {
        ++res_.delta.sleep_skips;
        continue;
      }
      const int p = sim::ReplayScheduler::label_process(label);
      const std::uint64_t msg = sim::ReplayScheduler::label_message(label);
      const auto d = static_cast<std::uint64_t>((p - pref + kMaxProcesses) %
                                                kMaxProcesses);
      const std::uint64_t lam = (msg == 0) ? 1 : 0;  // Deliveries first.
      // Faults rank dead last: the default run makes progress, fault
      // subtrees are visited on backtrack.
      const std::uint64_t flt =
          sim::ReplayScheduler::label_is_fault(label) ? 1 : 0;
      if (!best.has_value() || flt < bf ||
          (flt == bf &&
           (d < bd || (d == bd && (lam < bl || (lam == bl && msg < bm)))))) {
        best = i;
        bf = flt;
        bd = d;
        bl = lam;
        bm = msg;
      }
    }
    return best;
  }

  /// Adds `label` to the backtrack set of the frame at `idx`. Below the
  /// unit's floor the frame is a shared prefix: the insertion is
  /// deferred to the barrier (returns false — the barrier counts it if
  /// the registry accepts it). At or above the floor it mutates the
  /// local frame and returns whether the label was new.
  bool add_backtrack(std::size_t idx, std::uint64_t label, bool race) {
    if (idx < u_->floor) {
      std::vector<std::uint64_t>& deferred = deferred_at_[idx].labels;
      if (!contains(deferred, label)) {
        deferred.push_back(label);
        res_.deferred.push_back(DeferredOp{idx, label, race});
      }
      return false;
    }
    FrameState& f = u_->frames[idx];
    if (contains(f.backtrack, label)) return false;
    f.backtrack.push_back(label);
    ++res_.delta.backtrack_points;
    return true;
  }

  /// Insert `the delivery of msg to receiver` into the backtrack set of
  /// the frame at `idx` — the exact label when the menu offers it, else
  /// the channel-oldest delivery from the same sender, else
  /// (unreachable in practice) the whole menu. Returns true when a new
  /// label was added locally.
  bool insert_backtrack(std::size_t idx, ProcessId receiver,
                        std::uint64_t msg, ProcessId sender) {
    const FrameState& f = u_->frames[idx];
    const std::uint64_t want = sim::ReplayScheduler::label(receiver, msg);
    if (contains(f.labels, want)) {
      return add_backtrack(idx, want, /*race=*/true);
    }
    // Oldest-per-channel delivery hid the exact message behind an older
    // one from the same sender; delivering that one is the first move
    // of every schedule that delivers `msg` here, so it stands in.
    // Fault labels never stand in for a delivery (dropping the older
    // copy is not a move toward delivering `msg`).
    for (std::uint64_t label : f.labels) {
      if (sim::ReplayScheduler::label_is_fault(label)) continue;
      const std::uint64_t m = sim::ReplayScheduler::label_message(label);
      if (m == 0 ||
          sim::ReplayScheduler::label_process(label) != receiver) {
        continue;
      }
      const MsgInfo* mi = msg_info(m);
      if (mi != nullptr && mi->sender == sender) {
        return add_backtrack(idx, label, /*race=*/true);
      }
    }
    // Unreachable in practice — the message was pending, so its channel
    // offers some delivery — but degrade to full expansion, not
    // silence.
    bool any = false;
    const std::vector<std::uint64_t> menu = f.labels;
    for (std::uint64_t label : menu) {
      any = add_backtrack(idx, label, /*race=*/true) || any;
    }
    return any;
  }

  /// A fingerprint prune cuts the run before its races are observable:
  /// conservatively re-expand every schedule frame on the path (prefix
  /// frames via deferral). A frame's backtrack set only grows while the
  /// frame lives, and a prefix frame's deferrals only grow during the
  /// wave, so each is re-armed once; later prunes skip it.
  void expand_path_on_prune() {
    for (std::size_t idx = 0; idx < u_->frames.size(); ++idx) {
      FrameState& f = u_->frames[idx];
      if (f.kind != sim::ChoiceKind::kSchedule) continue;
      bool& armed = idx < u_->floor ? deferred_at_[idx].whole_menu : f.armed;
      if (armed) continue;
      for (std::uint64_t label : f.labels) {
        add_backtrack(idx, label, /*race=*/false);
      }
      armed = true;
    }
  }

  /// True when the two deliveries commute (declared by their payloads,
  /// or same-sender copies with equal content digests), so reordering
  /// them cannot be observable. Records conservative-default payloads
  /// as a side effect.
  [[nodiscard]] bool deliveries_independent(const MsgInfo& a,
                                            const MsgInfo& b) {
    if (a.payload == nullptr || b.payload == nullptr) return false;
    // Same-sender copies with identical content: the channel delivers
    // interchangeable messages, so either order is the same execution.
    if (a.sender == b.sender && a.digest.has_value() &&
        b.digest.has_value() && *a.digest == *b.digest) {
      return true;
    }
    return sim::payloads_commute(*a.payload, *b.payload,
                                 &res_.conservative);
  }

  /// Race-detect the delivery of msg to p (executed or hypothetical)
  /// against p's earlier events, inserting backtrack labels at every
  /// racing choice point.
  void race_delivery(ProcessId p, std::uint64_t msg, const MsgInfo& mi) {
    const auto pi = static_cast<std::size_t>(p);
    const std::uint64_t send_knows_p = msg_clocks_[mi.clock + pi];
    const auto& events = proc_events_[pi];
    for (std::size_t j = events.size(); j-- > 0;) {
      const StepRec& ej = events[j];
      // All three guards are monotone going backward, so they end the
      // scan.
      if (mi.sent_time >= ej.time) break;  // Not yet sent: no race.
      if (send_knows_p >= j + 1) break;    // Send happens-after e_j.
      if (ej.is_start) break;              // No delivery before start.
      // Content-aware dependence: a commuting pair of deliveries is not
      // a race. Keep scanning — msg may still race with an earlier
      // event.
      if (ej.delivered != 0) {
        const MsgInfo* ei = msg_info(ej.delivered);
        if (ei != nullptr && deliveries_independent(mi, *ei)) {
          ++res_.delta.commute_skips;
          continue;
        }
      } else if (ej.tick_inert && mi.payload != nullptr &&
                 mi.payload->tick_insensitive()) {
        // An inert lambda (every module tick a declared no-op) commutes
        // with a tick-insensitive delivery: neither side observes the
        // one-step time shift the reorder causes.
        ++res_.delta.commute_skips;
        continue;
      }
      if (ej.frame >= 0 &&
          insert_backtrack(static_cast<std::size_t>(ej.frame), p, msg,
                           mi.sender)) {
        ++res_.delta.hb_races;
      }
    }
  }

  /// Race-detect a lambda step of p against p's earlier events: a
  /// lambda commutes with everything except a delivery to p right
  /// before it. Once the reordered branch runs, its own lambda re-races
  /// with the next delivery down, so the single-step rule covers every
  /// depth. An *inert* lambda further commutes backward past
  /// tick-insensitive deliveries and other inert lambdas, so the scan
  /// continues through those until the first genuinely dependent event.
  void race_lambda(ProcessId p, bool inert) {
    const auto& events = proc_events_[static_cast<std::size_t>(p)];
    for (std::size_t j = events.size(); j-- > 0;) {
      const StepRec& ej = events[j];
      if (ej.is_start) return;
      if (ej.delivered == 0) {
        // λ after λ needs no backtrack (same label, same schedule) —
        // but an inert lambda commutes with earlier inert lambdas, so
        // keep looking for the delivery it may still race with.
        if (inert && ej.tick_inert) continue;
        return;
      }
      if (inert) {
        const MsgInfo* ei = msg_info(ej.delivered);
        if (ei != nullptr && ei->payload != nullptr &&
            ei->payload->tick_insensitive()) {
          ++res_.delta.commute_skips;
          continue;
        }
      }
      if (ej.frame >= 0 &&
          add_backtrack(static_cast<std::size_t>(ej.frame),
                        sim::ReplayScheduler::label(p, 0),
                        /*race=*/true)) {
        ++res_.delta.hb_races;
      }
      return;
    }
  }

  /// A run's halt leaves transitions enabled-but-never-executed: the
  /// messages still in flight (their receivers went done, crashed, or
  /// the horizon hit) and the lambda of every process whose last event
  /// was a delivery. Those hypothetical events race with executed ones
  /// exactly like executed events do — without this pass DPOR would
  /// never revisit a choice point whose alternative delivery only
  /// happens on the road not taken.
  void end_of_run_races(sim::Simulator& sim) {
    sim.network().for_each_pending([this](const sim::Envelope& env) {
      const MsgInfo* mi = msg_info(env.id);
      if (mi == nullptr) return;  // Sent before tracking started.
      race_delivery(env.to, env.id, *mi);
    });
    for (std::size_t p = 0; p < proc_events_.size(); ++p) {
      const auto pid = static_cast<ProcessId>(p);
      race_lambda(pid, sim.process_tick_noop(pid));
    }
  }

#ifndef NDEBUG
  /// Builds without NDEBUG: the race pass a pruned run skips must find
  /// nothing new. Its commute skips are taken back, so the counts match
  /// builds that skip it.
  void check_prune_covers_races(sim::Simulator& sim) {
    const std::uint64_t points = res_.delta.backtrack_points;
    const std::uint64_t skips = res_.delta.commute_skips;
    const std::size_t deferred = res_.deferred.size();
    const std::size_t conservative = res_.conservative.size();
    end_of_run_races(sim);
    WFD_CHECK_MSG(res_.delta.backtrack_points == points &&
                      res_.deferred.size() == deferred &&
                      res_.conservative.size() == conservative,
                  "a pruned run's race pass found something new");
    res_.delta.commute_skips = skips;
  }
#endif

  /// Send-time metadata of message `id`; nullptr when it was sent
  /// before tracking started.
  [[nodiscard]] const MsgInfo* msg_info(std::uint64_t id) const {
    if (id <= msgs_base_ || id - msgs_base_ > msgs_.size()) return nullptr;
    const MsgInfo& mi = msgs_[id - msgs_base_ - 1];
    return mi.sender == kNoProcess ? nullptr : &mi;
  }

  /// Record one executed simulator step into the happens-before state
  /// and run race detection against the acting process's earlier
  /// events.
  void observe_step(sim::Simulator& sim, int frame,
                    std::uint64_t step_time) {
    const sim::LastStep& ls = sim.last_step();
    if (ls.p == kNoProcess) return;
    const auto p = static_cast<std::size_t>(ls.p);
    if (p >= proc_events_.size()) return;

    if (ls.action != sim::StepChoice::Action::kDeliver) {
      // An adversary move. Its frame is fully expanded (see choose()),
      // so no race insertion is needed; record it as an opaque event of
      // the affected process — race scans treat it as dependent, which
      // is the conservative direction.
      std::vector<std::uint64_t>& cp = clock_[p];
      cp[p] = proc_events_[p].size() + 1;
      proc_events_[p].push_back(StepRec{frame, step_time, 0, false, false});
      if (ls.action == sim::StepChoice::Action::kDup && ls.dup_id != 0) {
        // The duplicate inherits the original's send metadata —
        // payload, digest, sender and (crucially, for the conservative
        // direction) the sender's clock — but exists only from this
        // step on.
        WFD_CHECK(ls.dup_id == msgs_base_ + msgs_.size() + 1);
        const MsgInfo* orig = msg_info(ls.fault_msg);
        MsgInfo info;
        if (orig != nullptr) {
          info = *orig;
          info.sent_time = step_time;
        }
        msgs_.push_back(std::move(info));
      }
      prev_sent_ = sim.network().total_sent();
      return;
    }

    // Race detection runs before this event joins the clocks: it
    // compares the *delivery* against the acting process's earlier
    // events. Two steps of different processes always commute (a step
    // consumes only its own pending messages and appends sends), so
    // dependence — and hence every race — is within one process's
    // event sequence; race_delivery further exempts same-process
    // delivery pairs whose payloads commute.
    if (!ls.was_start && ls.delivered != 0) {
      if (const MsgInfo* mi = msg_info(ls.delivered)) {
        race_delivery(ls.p, ls.delivered, *mi);
      }
    } else if (!ls.was_start) {
      race_lambda(ls.p, ls.tick_noop);
    }

    // Fold the event into the happens-before state.
    std::vector<std::uint64_t>& cp = clock_[p];
    if (ls.delivered != 0) {
      if (const MsgInfo* mi = msg_info(ls.delivered)) {
        for (std::size_t q = 0; q < cp.size(); ++q) {
          cp[q] = std::max(cp[q], msg_clocks_[mi->clock + q]);
        }
      }
    }
    cp[p] = proc_events_[p].size() + 1;
    proc_events_[p].push_back(
        StepRec{frame, step_time, ls.delivered, ls.was_start, ls.tick_noop});

    // Every message sent during this step carries the sender's clock,
    // its payload and its content digest, so dependence can be decided
    // at race time without the (possibly consumed) envelope.
    const sim::Network& net = sim.network();
    const std::uint64_t total = net.total_sent();
    const std::size_t clock = msg_clocks_.size();
    if (total > prev_sent_) {
      msg_clocks_.insert(msg_clocks_.end(), cp.begin(), cp.end());
    }
    for (std::uint64_t id = prev_sent_ + 1; id <= total; ++id) {
      MsgInfo info{ls.p, step_time, clock, net.get(id).payload,
                   std::nullopt};
      if (info.payload != nullptr) {
        if (info.payload->kind().empty()) {
          res_.conservative.insert(info.payload->identity());
        }
        // The network's cached encoding: the state fingerprints of this
        // run reuse it.
        const sim::StateEncoder::Partial& content = net.content(id);
        if (content.complete) {
          info.digest = sim::StateEncoder::digest(content);
        }
      }
      msgs_.push_back(std::move(info));
    }
    prev_sent_ = total;
  }

  /// Flip the deepest frame above the floor with an unvisited
  /// alternative; false when the unit's whole subtree has been visited.
  bool backtrack() {
    while (u_->frames.size() > u_->floor) {
      FrameState& f = u_->frames.back();
      if (!f.blocked) f.explored.push_back(f.labels[f.chosen]);
      const std::optional<std::uint32_t> next = next_choice(f);
      if (next.has_value()) {
        f.chosen = *next;
        f.blocked = false;
        return true;
      }
      u_->frames.pop_back();
    }
    return false;
  }

  [[nodiscard]] sim::DecisionLog decisions() const {
    sim::DecisionLog log;
    log.reserve(u_->frames.size());
    for (const FrameState& f : u_->frames) log.push_back(f.chosen);
    return log;
  }

  /// The state digest at the current step — canonicalized as the
  /// minimum over the symmetry group when renamings are configured, so
  /// runs differing only by a renaming of interchangeable processes
  /// merge. nullopt when any component is opaque (pruning would be
  /// unsound).
  [[nodiscard]] std::optional<std::uint64_t> fingerprint(
      const Scenario& sc) const {
    std::optional<std::uint64_t> fp = scenario_fingerprint(sc);
    if (!fp.has_value()) return std::nullopt;
    for (const auto& perm : *ctx_.perms) {
      const std::optional<std::uint64_t> alt = scenario_fingerprint(sc, &perm);
      if (!alt.has_value()) return std::nullopt;
      fp = std::min(*fp, *alt);
    }
    return fp;
  }

  [[nodiscard]] std::optional<std::uint64_t> fps_lookup(
      std::uint64_t fp) const {
    std::optional<std::uint64_t> t;
    if (const auto it = ctx_.fps->find(fp); it != ctx_.fps->end()) {
      t = it->second;
    }
    if (const auto it = res_.fps_overlay.find(fp);
        it != res_.fps_overlay.end()) {
      t = t.has_value() ? std::min(*t, it->second) : it->second;
    }
    return t;
  }

  /// Liveness mode: record into the unit's graph overlay the transition
  /// src_fp -> dst_fp taken by the step that consumed frames
  /// [pos_before, pos_after).
  void record_transition(const Scenario& sc, const LivenessClause& goal,
                         std::uint64_t src_fp, std::uint64_t dst_fp,
                         std::size_t pos_before, std::size_t pos_after) {
    LiveGraphEdge e;
    e.dst = dst_fp;
    e.choices.reserve(pos_after - pos_before);
    std::uint64_t label = 0;
    bool have_label = false;
    for (std::size_t j = pos_before; j < pos_after; ++j) {
      const FrameState& f = u_->frames[j];
      e.choices.push_back(f.chosen);
      if (f.kind == sim::ChoiceKind::kSchedule) {
        label = f.labels[f.chosen];
        have_label = true;
      }
    }
    if (!have_label) {
      // The menu never reached choose(): a singleton, possible only when
      // injected crashes leave a single schedulable move. note_enabled
      // still reported it.
      WFD_CHECK_MSG(menu_.size() == 1, "scheduled step consumed no frame");
      label = menu_.front();
    }
    e.sched = sim::ReplayScheduler::label_process(label);
    e.fault = sim::ReplayScheduler::label_is_fault(label);
    // Non-fault labels with a message id are deliveries; id 0 is a
    // lambda or start step (sim/scheduler.h label encoding).
    e.deliver = !e.fault && sim::ReplayScheduler::label_message(label) != 0;
    if (e.deliver) e.sender = sc.sim->last_step().from;
    // The menu was captured before the step ran, so the one message the
    // step consumed (delivered or dropped) is no longer in the network;
    // its sender is on last_step(). Every other menu message still is.
    const sim::Network& net = sc.sim->network();
    const auto sender_of = [&](std::uint64_t id) -> ProcessId {
      return net.contains(id) ? net.get(id).from : sc.sim->last_step().from;
    };
    std::uint64_t enabled = 0;
    std::uint64_t deliverable = 0;
    for (const std::uint64_t l : menu_) {
      if (sim::ReplayScheduler::label_is_fault(l)) continue;
      const ProcessId to = sim::ReplayScheduler::label_process(l);
      enabled |= std::uint64_t{1} << to;
      const std::uint64_t id = sim::ReplayScheduler::label_message(l);
      if (id != 0) deliverable |= live_channel_bit(sender_of(id), to);
    }
    {
      // Scoped: at() below may rehash and invalidate this reference.
      LiveGraphNode& src = res_.graph.at(src_fp);
      src.expanded = true;
      src.enabled |= enabled;
      src.deliverable |= deliverable;
      add_live_edge(src, std::move(e));
    }
    res_.graph.at(dst_fp).goal = goal.goal(*sc.sim);
  }

#ifndef NDEBUG
  /// Builds without NDEBUG, at an engine's first restore: a rebuild
  /// replayed to the checkpoint's position, its invariants checked
  /// after every step as the run that took the copy checked them, must
  /// match the copy. The fingerprint folds the invariants' state.
  void check_restore(const Scenario& restored, std::size_t pos,
                     std::uint64_t steps) {
    sim::FixedChoices replay(decisions());
    Scenario fresh = build_(replay);
    for (std::uint64_t i = 0; i < steps; ++i) {
      WFD_CHECK_MSG(fresh.sim->step(), "rebuild halted before checkpoint");
      WFD_CHECK_MSG(!check_invariants(fresh).has_value(),
                    "a restored prefix violates an invariant");
    }
    WFD_CHECK_MSG(replay.consumed() == pos,
                  "rebuild consumed other frames than the checkpoint");
    WFD_CHECK_MSG(fresh.sim->trace().to_string() ==
                      restored.sim->trace().to_string(),
                  "restored trace differs from a rebuild");
    WFD_CHECK_MSG(fresh.sim->last_step() == restored.sim->last_step(),
                  "restored last step differs from a rebuild");
    WFD_CHECK_MSG(fresh.sim->network().total_sent() ==
                      restored.sim->network().total_sent(),
                  "restored network differs from a rebuild");
    const std::optional<std::uint64_t> fp = scenario_fingerprint(fresh);
    if (fp.has_value()) {
      WFD_CHECK_MSG(scenario_fingerprint(restored) == fp,
                    "restored state differs from a rebuild");
    }
  }
#endif

  [[nodiscard]] bool cancel_requested() const {
    return cfg_.cancel != nullptr &&
           cfg_.cancel->load(std::memory_order_relaxed);
  }

  ScenarioBuilder build_;
  const WaveContext& ctx_;
  const SearchConfig& cfg_;
  const bool liveness_;  ///< cfg_.scenario.liveness non-empty.

  /// The decision source of every run, and of every checkpoint: a
  /// stored copy asks it only once a restore hands the copy to a run.
  DfsSource source_{*this};
  /// Checkpoints along the current path, shallowest first; at most one
  /// per step.
  std::vector<Checkpoint> checkpoints_;
  /// Cleared by the first failed copy: no checkpoint is taken again.
  bool cloneable_ = true;
#ifndef NDEBUG
  bool restore_checked_ = false;
#endif

  UnitResult res_;
  Unit* u_ = nullptr;  ///< = &res_.unit while run() executes.
  bool run_blocked_ = false;
  /// Liveness mode: the schedule menu of the step being executed, as
  /// reported by the scheduler's note_enabled hook — captured even for
  /// singleton menus that never reach choose().
  std::vector<std::uint64_t> menu_;
  /// Deferred insertions of this wave per prefix depth (< floor): the
  /// labels already deferred — one op per (depth, label) — and whether
  /// a prune already deferred the depth's whole menu.
  struct PrefixDeferrals {
    std::vector<std::uint64_t> labels;
    bool whole_menu = false;
  };
  std::vector<PrefixDeferrals> deferred_at_;

  // Per-run happens-before state (rebuilt every re-execution).
  std::vector<std::vector<StepRec>> proc_events_;
  std::vector<std::vector<std::uint64_t>> clock_;
  /// msgs_[id - msgs_base_ - 1] describes message id: ids are dense, so
  /// the messages sent since tracking started form one vector.
  std::vector<MsgInfo> msgs_;
  std::uint64_t msgs_base_ = 0;
  /// The vector clocks msgs_ refers to, n entries each.
  std::vector<std::uint64_t> msg_clocks_;
  std::uint64_t prev_sent_ = 0;
};

// ---- Orchestration ---------------------------------------------------

/// Units per wave. Fixed (not a knob): wave composition must be a pure
/// function of the committed queue, and 32 keeps every thread count up
/// to a large machine busy once the queue has grown past the first few
/// waves.
constexpr std::size_t kWaveUnits = 32;

/// Per-unit node budget of wave w: 4 · 4^w, capped at 256. Early waves
/// stay tiny so the root unit decomposes quickly (parallelism ramps up
/// within a few waves — and a "budget 5" style caller still gets a
/// chance to stop before the tree is blown past); later waves run long
/// enough that barrier overhead stops mattering.
std::uint64_t wave_budget(std::uint64_t wave) {
  std::uint64_t b = 4;
  for (std::uint64_t i = 0; i < wave && b < 256; ++i) b *= 4;
  return std::min<std::uint64_t>(b, 256);
}

/// Chain keys are recomputed from the frames, never trusted from the
/// wire (the parser has already validated floor <= frames.size() and
/// chosen < labels.size()).
Unit unit_from_state(const UnitState& us) {
  Unit u;
  u.id = us.id;
  u.floor = static_cast<std::size_t>(us.floor);
  u.path_pending = us.path_pending;
  u.frames = us.frames;
  u.keys.reserve(u.floor + 1);
  u.keys.push_back(kRootKey);
  for (std::size_t i = 0; i < u.floor; ++i) {
    const FrameState& f = u.frames[i];
    u.keys.push_back(advance_key(u.keys[i], f.kind, f.labels[f.chosen]));
  }
  return u;
}

UnitState unit_to_state(const Unit& u) {
  UnitState us;
  us.id = u.id;
  us.floor = static_cast<std::uint64_t>(u.floor);
  us.path_pending = u.path_pending;
  us.frames = u.frames;
  return us;
}

/// Expands the per-class interchangeable-process sets into the full
/// symmetry group minus the identity: the cartesian product of each
/// class's permutations, written as full 0..n-1 renaming vectors
/// (identity outside every class). next_permutation from the sorted
/// base enumerates each class's permutations in a canonical order, so
/// the group — and hence the canonical (minimum) fingerprint — is
/// deterministic.
std::vector<std::vector<ProcessId>> symmetry_permutations(
    const std::vector<std::vector<ProcessId>>& classes, int n) {
  std::vector<std::vector<ProcessId>> perms;
  if (classes.empty() || n <= 0) return perms;
  std::vector<std::vector<ProcessId>> bases;
  std::vector<std::vector<std::vector<ProcessId>>> images;
  for (const std::vector<ProcessId>& cls : classes) {
    std::vector<ProcessId> base = cls;
    std::sort(base.begin(), base.end());
    std::vector<std::vector<ProcessId>> per;
    std::vector<ProcessId> p = base;
    do {
      per.push_back(p);
    } while (std::next_permutation(p.begin(), p.end()));
    bases.push_back(std::move(base));
    images.push_back(std::move(per));
  }
  std::vector<std::size_t> pick(classes.size(), 0);
  while (true) {
    std::vector<ProcessId> full(static_cast<std::size_t>(n));
    for (int p = 0; p < n; ++p) {
      full[static_cast<std::size_t>(p)] = static_cast<ProcessId>(p);
    }
    bool identity = true;
    for (std::size_t c = 0; c < bases.size(); ++c) {
      const std::vector<ProcessId>& img = images[c][pick[c]];
      for (std::size_t j = 0; j < bases[c].size(); ++j) {
        full[static_cast<std::size_t>(bases[c][j])] = img[j];
        if (img[j] != bases[c][j]) identity = false;
      }
    }
    if (!identity) perms.push_back(std::move(full));
    std::size_t c = 0;
    for (; c < pick.size(); ++c) {
      if (++pick[c] < images[c].size()) break;
      pick[c] = 0;
    }
    if (c == pick.size()) break;
  }
  return perms;
}

void merge_stats(ExploreStats& into, const ExploreStats& d) {
  into.nodes += d.nodes;
  into.runs += d.runs;
  into.steps += d.steps;
  into.sleep_skips += d.sleep_skips;
  into.fp_prunes += d.fp_prunes;
  into.hb_races += d.hb_races;
  into.backtrack_points += d.backtrack_points;
  into.commute_skips += d.commute_skips;
  into.injected_crashes += d.injected_crashes;
  into.injected_drops += d.injected_drops;
  into.injected_dups += d.injected_dups;
  into.violations += d.violations;
}

/// Splits a budget-stopped unit's subtree across fresh units — the
/// work-stealing move. Every frame of the final path donates its
/// unvisited-but-owed labels (in menu order; under DPOR only labels in
/// the backtrack set are owed): each
/// donated label becomes a unit whose floor pins the path down to and
/// including that label. The node is simultaneously entered into the
/// registry with the full assignment order, explored + chosen + sleep
/// first — so a later deferred insertion of an already-covered label is
/// rejected, and each child sees everything assigned before it as
/// explored (the sleep-set asymmetry, preserved across units). The
/// decomposed unit itself is dropped: its chosen chain was executed to
/// completion (the deepest frame's run), and every sidetrack it still
/// owed now lives in a child or in the registry.
void decompose(const Unit& u, const SearchConfig& cfg,
               std::map<ChainKey, NodeReg>& registry,
               std::map<std::uint64_t, Unit>& queue,
               std::uint64_t& next_unit_id) {
  // Chain keys along the final path (the unit only stores them up to
  // its floor).
  std::vector<ChainKey> keys = u.keys;
  keys.reserve(u.frames.size() + 1);
  for (std::size_t j = u.floor; j < u.frames.size(); ++j) {
    const FrameState& f = u.frames[j];
    keys.push_back(advance_key(keys[j], f.kind, f.labels[f.chosen]));
  }
  for (std::size_t j = u.floor; j < u.frames.size(); ++j) {
    const FrameState& f = u.frames[j];
    NodeReg reg;
    if (f.blocked) {
      // Every option was asleep: covered elsewhere, nothing to steal —
      // but register the full menu so no deferred insertion re-spawns
      // the node.
      reg.assigned = f.labels;
    } else {
      reg.assigned = f.explored;
      const std::uint64_t chosen = f.labels[f.chosen];
      if (!contains(reg.assigned, chosen)) reg.assigned.push_back(chosen);
      for (std::uint64_t l : f.sleep) {
        if (!contains(reg.assigned, l)) reg.assigned.push_back(l);
      }
      const bool dpor_schedule = f.kind == sim::ChoiceKind::kSchedule &&
                                 cfg.reduction == Reduction::kDpor;
      for (const std::uint64_t l : f.labels) {
        if (dpor_schedule && !contains(f.backtrack, l)) continue;
        if (contains(reg.assigned, l)) continue;
        Unit child;
        child.id = next_unit_id++;
        child.floor = j + 1;
        child.frames.assign(u.frames.begin(),
                            u.frames.begin() +
                                static_cast<std::ptrdiff_t>(j) + 1);
        FrameState& cf = child.frames.back();
        cf.chosen = index_of(f.labels, l);
        cf.explored = reg.assigned;
        cf.blocked = false;
        child.keys.assign(keys.begin(),
                          keys.begin() + static_cast<std::ptrdiff_t>(j) + 1);
        child.keys.push_back(advance_key(keys[j], f.kind, l));
        reg.assigned.push_back(l);
        queue.emplace(child.id, std::move(child));
      }
    }
    // Units partition the tree by edges: a node at depth >= floor
    // belongs to exactly one live unit, so it is registered exactly
    // once — here, when that unit decomposes.
    const bool fresh = registry.emplace(keys[j], std::move(reg)).second;
    WFD_CHECK_MSG(fresh, "choice point decomposed twice");
  }
}

/// Resolves one deferred backtrack insertion at the barrier. The target
/// node (below the deferring unit's floor) is always in the registry —
/// it was registered by the decomposition that spawned the first unit
/// below it. An already-assigned label is rejected (that reordering is
/// someone's work already, or sleeps); a fresh one is assigned and
/// spawns a unit that takes it at the target node, seeing every earlier
/// assignment as explored.
void apply_deferred(const Unit& du, const DeferredOp& op,
                    std::map<ChainKey, NodeReg>& registry,
                    std::map<std::uint64_t, Unit>& queue,
                    std::uint64_t& next_unit_id, ExploreStats& stats) {
  WFD_CHECK_MSG(op.depth < du.floor && op.depth + 1 < du.keys.size(),
                "deferred op outside the unit's prefix");
  const auto it = registry.find(du.keys[op.depth]);
  WFD_CHECK_MSG(it != registry.end(), "deferred target not registered");
  NodeReg& reg = it->second;
  if (contains(reg.assigned, op.label)) return;
  Unit child;
  child.id = next_unit_id++;
  child.floor = op.depth + 1;
  child.frames.assign(du.frames.begin(),
                      du.frames.begin() +
                          static_cast<std::ptrdiff_t>(op.depth) + 1);
  FrameState& cf = child.frames.back();
  cf.chosen = index_of(cf.labels, op.label);
  cf.explored = reg.assigned;
  cf.blocked = false;
  child.keys.assign(du.keys.begin(),
                    du.keys.begin() +
                        static_cast<std::ptrdiff_t>(op.depth) + 1);
  child.keys.push_back(
      advance_key(child.keys[op.depth], cf.kind, op.label));
  reg.assigned.push_back(op.label);
  ++stats.backtrack_points;
  if (op.race) ++stats.hb_races;
  queue.emplace(child.id, std::move(child));
}

}  // namespace

Coverage coverage(const ExploreStats& stats) {
  if (!stats.exhausted) return Coverage::kBudget;
  // A liveness-mode fingerprint prune is an exact merge into an
  // already-expanded state-graph node (states are time-free under the
  // liveness rules), not an approximation to confess.
  if (stats.liveness) return Coverage::kComplete;
  return stats.fp_prunes > 0 ? Coverage::kModuloFingerprints
                             : Coverage::kComplete;
}

std::string coverage_name(Coverage c) {
  switch (c) {
    case Coverage::kBudget:
      return "budget";
    case Coverage::kComplete:
      return "complete";
    case Coverage::kModuloFingerprints:
      return "modulo-fingerprints";
  }
  return "unknown";
}

Explorer::Explorer(ScenarioBuilder build, SearchConfig cfg)
    : build_(std::move(build)), cfg_(std::move(cfg)) {
  WFD_CHECK_MSG(build_ != nullptr, "Explorer needs a scenario builder");
}

ExploreReport Explorer::run() {
  ExploreReport rep;

  // The committed search state. Mutated only here, between waves.
  std::map<std::uint64_t, Unit> queue;
  std::map<ChainKey, NodeReg> registry;
  std::unordered_map<std::uint64_t, std::uint64_t> fps;
  LiveGraph graph;
  ExploreStats stats;
  std::set<std::string> conservative;
  std::uint64_t wave = 0;
  std::uint64_t next_unit_id = 0;
  std::uint64_t gen = 0;
  const bool liveness = !cfg_.scenario.liveness.empty();

  if (!cfg_.resume_path.empty()) {
    std::string err;
    bool wrong_version = false;
    const std::optional<StateSnapshot> snap =
        load_snapshot(cfg_.resume_path, &err, &wrong_version);
    if (!snap.has_value()) {
      rep.resume_error = err.empty() ? "failed to load snapshot" : err;
      rep.resume_rejected = wrong_version;
      return rep;
    }
    const std::string mismatch = resume_mismatch(*snap, cfg_);
    if (!mismatch.empty()) {
      rep.resume_error = mismatch;
      rep.resume_rejected = true;
      return rep;
    }
    stats = snap->stats;
    conservative = snap->conservative_payloads;
    wave = snap->wave;
    next_unit_id = snap->next_unit_id;
    gen = snap->resume_generation;
    for (const auto& [fp, t] : snap->fingerprints) fps.emplace(fp, t);
    graph = snap->graph;
    for (const NodeState& ns : snap->nodes) {
      registry.emplace(ChainKey{ns.key[0], ns.key[1]},
                       NodeReg{ns.assigned});
    }
    for (const UnitState& us : snap->units) {
      queue.emplace(us.id, unit_from_state(us));
    }
    rep.resumed = true;
  } else {
    Unit root;
    root.id = next_unit_id++;
    root.keys.push_back(kRootKey);
    queue.emplace(root.id, std::move(root));
  }
  rep.resume_generation = gen;

  const std::uint64_t base_total = stats.nodes;
  rep.resumed_nodes = base_total;
  const bool pattern_sensitive =
      ScenarioFactory::pattern_sensitive(cfg_.scenario);
  std::vector<std::vector<ProcessId>> perms;
  if (cfg_.symmetry) {
    perms = symmetry_permutations(
        ScenarioFactory::symmetry_classes(cfg_.scenario), cfg_.scenario.n);
  }

  while (true) {
    if (cfg_.cancel != nullptr &&
        cfg_.cancel->load(std::memory_order_relaxed)) {
      rep.cancelled = true;
      break;
    }
    // A resumed snapshot of an already-exhausted search has nothing
    // left to do (and must not report fresh work).
    if (stats.exhausted) break;
    if (queue.empty()) {
      stats.exhausted = true;
      break;
    }

    // Compose the wave: the first kWaveUnits queued units in id order —
    // a pure function of the committed queue.
    std::vector<Unit> batch;
    batch.reserve(kWaveUnits);
    while (!queue.empty() && batch.size() < kWaveUnits) {
      const auto it = queue.begin();
      batch.push_back(std::move(it->second));
      queue.erase(it);
    }
    // Pristine copies, so a cancelled wave can be discarded wholesale:
    // the snapshot then equals the last barrier state and a resumed run
    // re-executes this wave verbatim.
    std::vector<Unit> pristine;
    if (cfg_.cancel != nullptr) pristine = batch;

    const WaveContext ctx{&cfg_, pattern_sensitive, &perms, &fps,
                          wave_budget(wave)};

    // Execute the wave. Workers pull slots from an atomic dispenser;
    // results land by slot, so the merge below sees canonical unit
    // order no matter which thread ran what.
    std::vector<UnitResult> results(batch.size());
    const std::size_t nthreads = std::min<std::size_t>(
        static_cast<std::size_t>(std::max(1, cfg_.threads)), batch.size());
    if (nthreads <= 1) {
      for (std::size_t s = 0; s < batch.size(); ++s) {
        UnitEngine eng(build_, ctx);
        results[s] = eng.run(std::move(batch[s]));
      }
    } else {
      std::atomic<std::size_t> slot{0};
      const auto worker = [&] {
        while (true) {
          const std::size_t s = slot.fetch_add(1, std::memory_order_relaxed);
          if (s >= batch.size()) return;
          UnitEngine eng(build_, ctx);
          results[s] = eng.run(std::move(batch[s]));
        }
      };
      std::vector<std::thread> pool;
      pool.reserve(nthreads);
      for (std::size_t i = 0; i < nthreads; ++i) pool.emplace_back(worker);
      for (std::thread& th : pool) th.join();
    }

    // Barrier. A wave any unit of which was cancelled is discarded
    // wholesale (determinism: a partial wave's merge order would depend
    // on which units the cancel signal caught). The first
    // counterexample a completed unit found is still reported — the
    // caller cancelled, it should know why others might have — but
    // nothing is committed.
    bool wave_cancelled = false;
    for (const UnitResult& r : results) {
      if (r.outcome == UnitOutcome::kCancelled) {
        wave_cancelled = true;
        break;
      }
    }
    if (wave_cancelled) {
      for (Unit& u : pristine) {
        const std::uint64_t id = u.id;
        queue.emplace(id, std::move(u));
      }
      for (const UnitResult& r : results) {
        if (r.outcome != UnitOutcome::kCancelled && r.cex.has_value() &&
            !rep.cex.has_value()) {
          rep.cex = r.cex;
        }
      }
      rep.cancelled = true;
      break;
    }

    // Pass 1 (slot order): fold per-unit deltas into the committed
    // state — stats, conservative-payload audit, fingerprint overlays
    // (min-wise on the earliest-time value), first counterexample.
    bool wave_violation = false;
    for (UnitResult& r : results) {
      merge_stats(stats, r.delta);
      rep.replayed_steps += r.replayed_steps;
      rep.restored_steps += r.restored_steps;
      conservative.insert(r.conservative.begin(), r.conservative.end());
      for (const auto& [fp, t] : r.fps_overlay) {
        const auto [it, fresh] = fps.emplace(fp, t);
        if (!fresh && it->second > t) it->second = t;
      }
      if (liveness) merge_live_graph(graph, r.graph);
      if (r.cex.has_value() && !rep.cex.has_value()) rep.cex = r.cex;
      if (r.outcome == UnitOutcome::kViolation) wave_violation = true;
    }
    const bool stopping = cfg_.stop_at_first && wave_violation;

    // Pass 2 (slot order): decompose budget-stopped units into fresh
    // work — unless the search is stopping, in which case they are
    // re-queued as-is in pass 4 (the snapshot stays small and resumable
    // either way).
    if (!stopping) {
      for (const UnitResult& r : results) {
        if (r.outcome == UnitOutcome::kBudget) {
          decompose(r.unit, cfg_, registry, queue, next_unit_id);
        }
      }
    }

    // Pass 3 (slot order): deferred backtrack insertions — applied even
    // when stopping, or pending reorderings recorded nowhere else would
    // be lost and a later resume would be unsound.
    for (const UnitResult& r : results) {
      for (const DeferredOp& op : r.deferred) {
        apply_deferred(r.unit, op, registry, queue, next_unit_id, stats);
      }
    }

    // Pass 4 (slot order): dispose. Exhausted units are done;
    // violation-stopped and (when stopping) budget-stopped units go
    // back on the queue with their executed path, so a resume continues
    // with the exact backtrack flip an uninterrupted run would make.
    for (UnitResult& r : results) {
      switch (r.outcome) {
        case UnitOutcome::kExhausted:
          break;
        case UnitOutcome::kViolation: {
          const std::uint64_t id = r.unit.id;
          queue.emplace(id, std::move(r.unit));
          break;
        }
        case UnitOutcome::kBudget:
          if (stopping) {
            const std::uint64_t id = r.unit.id;
            queue.emplace(id, std::move(r.unit));
          }
          break;
        case UnitOutcome::kCancelled:
          WFD_CHECK_MSG(false, "cancelled unit past the wave gate");
          break;
      }
    }

    // The snapshot stores the *next* wave index: the per-unit budget
    // schedule continues across an interruption exactly as it would
    // have uninterrupted.
    ++wave;

    if (stopping) break;
    if (cfg_.max_states != 0 && stats.nodes >= cfg_.max_states) break;
    if (cfg_.budget_states != 0 &&
        stats.nodes - base_total >= cfg_.budget_states) {
      break;
    }
  }

  if (liveness) {
    stats.liveness = true;
    stats.graph_states = static_cast<std::uint64_t>(graph.order.size());
    stats.graph_edges = graph.edge_count();
    stats.graph_truncated = graph.truncated_count();
    // Post-exhaustion fair-cycle search: only once the graph is the
    // complete transition system, and only when no safety violation
    // pre-empted the verdict. A found lasso is reported as the
    // counterexample but does not count into stats.violations — the
    // stats are cumulative across save/resume and the search re-runs on
    // every exhausted (re)invocation.
    if (stats.exhausted && !rep.cex.has_value() && !rep.cancelled) {
      rep.fair_cycle_checked = true;
      rep.cex = find_fair_lasso(graph, cfg_.scenario, &rep.lasso_error);
    }
  }

  rep.stats = stats;
  rep.conservative_payloads = std::move(conservative);

  if (!cfg_.save_path.empty()) {
    StateSnapshot snap;
    snap.config = cfg_;
    snap.resume_generation = gen + 1;
    snap.wave = wave;
    snap.next_unit_id = next_unit_id;
    snap.stats = stats;
    snap.conservative_payloads = rep.conservative_payloads;
    snap.units.reserve(queue.size());
    for (const auto& [id, u] : queue) snap.units.push_back(unit_to_state(u));
    snap.nodes.reserve(registry.size());
    for (const auto& [key, reg] : registry) {
      snap.nodes.push_back(NodeState{{key[0], key[1]}, reg.assigned});
    }
    snap.fingerprints.assign(fps.begin(), fps.end());
    std::sort(snap.fingerprints.begin(), snap.fingerprints.end());
    snap.graph = std::move(graph);
    std::string err;
    if (!save_snapshot(cfg_.save_path, snap, &err)) {
      rep.save_error = err.empty() ? "failed to write snapshot" : err;
    }
  }
  return rep;
}

}  // namespace wfd::explore
