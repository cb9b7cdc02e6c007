// The fair-cycle (lasso) layer of liveness checking.
//
// Bounded-safety exploration treats the fingerprint store as a prune
// set; liveness checking grows it into an explicit state graph. A node
// is a scenario_fingerprint (scenario.h: the plain state digest, no
// symmetry canonicalization); an edge is one executed simulator step,
// identified by the block of decisions it consumed — the oracle's
// begin_run picks on a run's first step, then the single schedule pick.
// Each node carries the liveness clause's goal bit (the clause contract
// makes it a pure function of the fingerprinted state) and the set of
// processes enabled there; each edge remembers which process it
// scheduled, and whether it was an adversary move (drop/dup/crash),
// which runs no process code and never discharges a fairness
// obligation.
//
// When the tree is exhausted under the liveness validate() rules
// (reduction none, no symmetry, fingerprints on), the graph is the
// complete transition system of the scenario restricted to the horizon:
// every reachable node's full menu was branched at its first visit, and
// a fingerprint prune is an exact merge into an already-expanded node.
// Nodes whose futures were cut by the horizon are marked truncated; a
// "no fair cycle" verdict is exact on the explored graph and silent
// only about what lies beyond truncated nodes.
//
// Fairness is twofold. (1) Weak process fairness over scheduling: an
// infinite unrolling of a cycle is fair only if every process enabled
// in the cycle is scheduled in it (under the liveness rules every alive
// process always has at least a lambda move, so enabled sets are
// constant along a cycle). (2) Communication fairness at directed
// channel granularity, the graph shadow of the quasi-reliable channel
// assumption: a cycle that keeps some channel's pending delivery
// continuously enabled but never delivers a message on that channel
// starves an in-flight message forever — the receiver keeps taking
// steps past it — and is discarded as unfair. Deliverability is an
// n×n bitset over (sender, receiver) pairs (bit sender*8 + receiver;
// n ≤ 8 enforced by validate()), so a cycle that starves one sender's
// channel while serving another sender's messages to the same receiver
// is correctly rejected.
//
// Crash-composed liveness: injected crash edges carry no fairness
// credit and — because fault budgets decrease monotonically and are
// fingerprinted — can never lie on a cycle, so every crash sits in the
// lasso's stem. The oracle re-picks its static Ω leader / Σ quorum at
// each crash (choice_oracle.cpp), so the history along any infinite
// unrolling is a legal converged limit history of the final crash set.
//
// find_fair_lasso runs the classic SCC refinement: compute SCCs,
// discard those in which some enabled process is never scheduled by an
// internal non-fault edge (deleting their nodes and re-deriving SCCs —
// in general such an SCC may still contain a smaller fair one), discard
// wholesale those violating delivery fairness (every sub-SCC inherits
// the continuously-enabled obligation and has no delivering edge
// either, so no refinement can save them), and report a surviving fair
// SCC containing a goal-false node. The checked property is <>[]goal: a
// fair cycle visiting a goal-false node infinitely often refutes it.
//
// The witness is a replayable lasso — a stem decision log from the
// initial state to the cycle and a loop decision log that closes back
// on the cycle-entry fingerprint while scheduling every enabled
// process and serving every obligated channel. Recorded edge decisions
// are *indices into per-state menus*, and delivery menus at a
// fingerprint can order message ids differently depending on the path
// that reached it, so the lasso is concretized by probing: each route
// step is pinned by replaying a candidate decision block and checking
// that the landed fingerprint AND edge identity (process, channel,
// fault bit) match the route's next hop — recorded tuples first, then
// a rescan of the leading schedule index over the actual menu width at
// the probed state. Everything here is deterministic given the graph,
// and the graph is merged in canonical slot order — so the reported
// lasso is identical at any --threads.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "explore/scenario.h"
#include "explore/types.h"
#include "sim/choice.h"

namespace wfd::explore {

/// Row stride of the channel bitset: bit sender*stride + receiver in a
/// single uint64_t, so liveness checking requires n ≤ kLiveChannelStride
/// (validate() rejects larger instances).
inline constexpr int kLiveChannelStride = 8;

/// The channel bit for a (sender, receiver) pair.
[[nodiscard]] inline constexpr std::uint64_t live_channel_bit(
    ProcessId sender, ProcessId receiver) {
  return std::uint64_t{1}
         << (sender * kLiveChannelStride + receiver);
}

/// One recorded transition: the decision block the step consumed, the
/// destination fingerprint, the process the step ran.
struct LiveGraphEdge {
  sim::DecisionLog choices;
  std::uint64_t dst = 0;
  ProcessId sched = kNoProcess;
  /// Sender of the delivered message (deliver == true); kNoProcess for
  /// λ/start/fault edges. (sender, sched) is the directed channel the
  /// delivery serves.
  ProcessId sender = kNoProcess;
  bool fault = false;    ///< Adversary move: no fairness credit.
  bool deliver = false;  ///< The step delivered a message to `sched`.
};

/// Per-node bookkeeping, keyed by state fingerprint in LiveGraph.
struct LiveGraphNode {
  bool goal = false;          ///< The liveness clause's goal bit here.
  std::uint64_t enabled = 0;  ///< Processes with a move in the menu here.
  /// Directed channels with a pending message delivery in the menu here
  /// (bit live_channel_bit(sender, receiver)) — a pure function of the
  /// fingerprinted state (the in-flight multiset and the crash set are
  /// both encoded), like `goal`.
  std::uint64_t deliverable = 0;
  bool expanded = false;      ///< At least one outgoing step recorded.
  bool truncated = false;     ///< Some run was cut by the horizon here.
  std::vector<LiveGraphEdge> edges;  ///< First-recorded order, deduped.
};

/// Insertion-ordered fingerprint-keyed state graph. Units record into
/// private overlays; the wave barrier merges them in canonical slot
/// order, so the committed insertion order — and everything the
/// fair-cycle search derives from it — is thread-count independent.
struct LiveGraph {
  std::vector<std::uint64_t> order;  ///< Fingerprints, insertion order.
  std::unordered_map<std::uint64_t, LiveGraphNode> nodes;
  /// The initial state (computed before the first step, which precedes
  /// the oracle's begin_run picks — identical across runs).
  std::uint64_t root = 0;
  bool have_root = false;

  /// The node for `fp`, appending it to the insertion order when new.
  LiveGraphNode& at(std::uint64_t fp) {
    const auto [it, fresh] = nodes.try_emplace(fp);
    if (fresh) order.push_back(fp);
    return it->second;
  }

  [[nodiscard]] std::uint64_t edge_count() const {
    std::uint64_t total = 0;
    for (const auto& [fp, n] : nodes) {
      total += static_cast<std::uint64_t>(n.edges.size());
    }
    return total;
  }

  [[nodiscard]] std::uint64_t truncated_count() const {
    std::uint64_t total = 0;
    for (const auto& [fp, n] : nodes) {
      if (n.truncated) ++total;
    }
    return total;
  }
};

/// Record `e` on `n` unless an edge with the same decision block exists
/// (distinct runs and units reach the same node by the same transition;
/// the decision block identifies the transition).
void add_live_edge(LiveGraphNode& n, LiveGraphEdge e);

/// Fold a unit overlay into the committed graph. Caller supplies the
/// canonical order (barrier slot order) for determinism.
void merge_live_graph(LiveGraph& into, const LiveGraph& from);

/// Post-exhaustion search (see the file comment). Returns a replayable
/// lasso counterexample — decisions = stem, loop = the repeatable block
/// — when some fair cycle avoids the goal; nullopt when the explored
/// graph is fair-cycle-free. `scenario` must be the options the graph
/// was explored with; probes may raise max_steps (the horizon bounds
/// neither menus nor fingerprints under the liveness rules, so the
/// probed transitions are the recorded ones even past the original
/// horizon). If a route hop cannot be concretized by probing — which
/// indicates a graph/scenario mismatch, never a sound "no cycle" —
/// the function returns nullopt and, when `concretize_error` is
/// non-null, fills it with a structured diagnostic (the partial lasso
/// pinned so far plus the scenario header) instead of aborting.
[[nodiscard]] std::optional<Counterexample> find_fair_lasso(
    const LiveGraph& g, const ScenarioOptions& scenario,
    std::string* concretize_error = nullptr);

}  // namespace wfd::explore
