#include "explore/liveness.h"

#include <algorithm>
#include <deque>
#include <sstream>
#include <string>
#include <utility>

#include "common/check.h"
#include "explore/search_config.h"
#include "sim/scheduler.h"
#include "sim/simulator.h"

namespace wfd::explore {

void note_menu_fairness(const std::vector<std::uint64_t>& menu,
                        const sim::Simulator& sim, std::uint64_t* enabled,
                        std::uint64_t* deliverable) {
  // The menu predates the step, so the one message the step consumed
  // (delivered or dropped) is off the network now; its sender is on
  // last_step(). Every other menu message still is.
  const sim::Network& net = sim.network();
  for (const std::uint64_t l : menu) {
    if (sim::ReplayScheduler::label_is_fault(l)) continue;
    const ProcessId to = sim::ReplayScheduler::label_process(l);
    *enabled |= std::uint64_t{1} << to;
    const std::uint64_t id = sim::ReplayScheduler::label_message(l);
    if (id == 0) continue;
    const ProcessId from =
        net.contains(id) ? net.get(id).from : sim.last_step().from;
    *deliverable |= live_channel_bit(from, to);
  }
}

std::uint32_t LiveGraph::add_node(std::uint64_t fp) {
  const auto [at, fresh] = index.try_emplace(fp, nodes.size());
  if (fresh) {
    WFD_CHECK_MSG(nodes.size() < UINT32_MAX, "state graph index overflow");
    nodes.emplace_back().fp = fp;
  }
  return static_cast<std::uint32_t>(*at);
}

void LiveGraph::add_edge(std::uint32_t src,
                         std::span<const std::uint32_t> decisions,
                         LiveGraphEdge e) {
  std::vector<LiveGraphEdge>& edges = nodes[src].edges;
  for (const LiveGraphEdge& have : edges) {
    const std::span<const std::uint32_t> b = block(have);
    if (std::equal(b.begin(), b.end(), decisions.begin(), decisions.end())) {
      return;
    }
  }
  WFD_CHECK_MSG(choices.size() + decisions.size() <= UINT32_MAX,
                "state graph decision pool overflow");
  e.block_at = static_cast<std::uint32_t>(choices.size());
  e.block_size = static_cast<std::uint32_t>(decisions.size());
  choices.insert(choices.end(), decisions.begin(), decisions.end());
  edges.push_back(e);
}

void merge_live_graph(LiveGraph& into, const LiveGraph& from) {
  if (from.have_root) {
    if (into.have_root) {
      WFD_CHECK_MSG(into.root == from.root,
                    "initial-state fingerprint varies across runs");
    } else {
      into.root = from.root;
      into.have_root = true;
    }
  }
  // Map every overlay node first, in the overlay's insertion order: new
  // nodes append in that order, and an edge into a node the overlay
  // created after its source resolves.
  std::vector<std::uint32_t> to(from.nodes.size());
  for (std::size_t i = 0; i < from.nodes.size(); ++i) {
    to[i] = into.add_node(from.nodes[i].fp);
  }
  for (std::size_t i = 0; i < from.nodes.size(); ++i) {
    const LiveGraphNode& src = from.nodes[i];
    LiveGraphNode& dst = into.nodes[to[i]];
    // goal is fingerprint-pure: equal wherever computed. enabled and
    // deliverable are fingerprint-pure too, but only *computed* where a
    // unit expanded the node; a destination-only overlay entry carries
    // zeros, so they fold by OR to keep the expanded writer's value.
    dst.goal = src.goal;
    dst.deliverable |= src.deliverable;
    dst.enabled |= src.enabled;
    dst.expanded = dst.expanded || src.expanded;
    dst.truncated = dst.truncated || src.truncated;
    for (LiveGraphEdge e : src.edges) {
      const std::span<const std::uint32_t> decisions = from.block(e);
      e.to = to[e.to];
      into.add_edge(to[i], decisions, e);
    }
  }
}

namespace {

/// Iterative Tarjan over the subgraph induced by `alive`. Roots are
/// tried in insertion order and successors in edge-recording order, so
/// the SCC list is deterministic; members come out sorted by index.
std::vector<std::vector<std::size_t>> sccs_of(const LiveGraph& g,
                                              const std::vector<char>& alive) {
  const std::size_t n = g.nodes.size();
  std::vector<int> index(n, -1);
  std::vector<int> low(n, 0);
  std::vector<char> on_stack(n, 0);
  std::vector<std::size_t> stack;
  std::vector<std::vector<std::size_t>> out;
  int counter = 0;

  struct Call {
    std::size_t v = 0;
    std::size_t next_child = 0;
  };
  std::vector<Call> call;
  for (std::size_t root = 0; root < n; ++root) {
    if (!alive[root] || index[root] != -1) continue;
    call.push_back(Call{root, 0});
    index[root] = low[root] = counter++;
    stack.push_back(root);
    on_stack[root] = 1;
    while (!call.empty()) {
      Call& f = call.back();
      const std::size_t v = f.v;
      const std::vector<LiveGraphEdge>& out_edges = g.nodes[v].edges;
      if (f.next_child < out_edges.size()) {
        const std::size_t w = out_edges[f.next_child++].to;
        if (!alive[w]) continue;
        if (index[w] == -1) {
          index[w] = low[w] = counter++;
          stack.push_back(w);
          on_stack[w] = 1;
          call.push_back(Call{w, 0});
        } else if (on_stack[w] != 0) {
          low[v] = std::min(low[v], index[w]);
        }
        continue;
      }
      if (low[v] == index[v]) {
        std::vector<std::size_t> comp;
        while (true) {
          const std::size_t w = stack.back();
          stack.pop_back();
          on_stack[w] = 0;
          comp.push_back(w);
          if (w == v) break;
        }
        std::sort(comp.begin(), comp.end());
        out.push_back(std::move(comp));
      }
      call.pop_back();
      if (!call.empty()) {
        low[call.back().v] = std::min(low[call.back().v], low[v]);
      }
    }
  }
  return out;
}

/// A fair SCC that refutes <>[]goal, plus what its lasso must cover.
struct FairWitness {
  std::vector<std::size_t> members;  ///< Sorted by insertion index.
  std::uint64_t sched_mask = 0;      ///< Fairness obligations to cover.
  /// Directed channels (bit live_channel_bit(s, r)) with a pending
  /// delivery at EVERY member node: the loop must deliver on each of
  /// them (communication fairness).
  std::uint64_t deliver_mask = 0;
  std::size_t entry = 0;             ///< First goal-false member.
};

/// SCC refinement: an SCC some of whose enabled processes are never
/// scheduled by an internal non-fault edge cannot be looped fairly as a
/// whole, but a subset avoiding the nodes where the starved processes
/// are enabled still might — delete those nodes and re-derive. The
/// first surviving fair SCC (deterministic work order) containing a
/// goal-false node is the witness. Fault edges never discharge an
/// obligation; they also cannot lie on a cycle at all (injection
/// budgets decrease monotonically and are fingerprinted), so they never
/// manufacture one.
std::optional<FairWitness> fair_goal_avoiding_scc(const LiveGraph& g) {
  std::deque<std::vector<std::size_t>> work;
  {
    const std::vector<char> all(g.nodes.size(), 1);
    for (auto& comp : sccs_of(g, all)) work.push_back(std::move(comp));
  }
  std::vector<char> in_comp(g.nodes.size(), 0);
  while (!work.empty()) {
    const std::vector<std::size_t> comp = std::move(work.front());
    work.pop_front();
    for (const std::size_t v : comp) in_comp[v] = 1;
    std::uint64_t enabled = 0;
    std::uint64_t sched = 0;
    std::uint64_t deliverable_all = ~std::uint64_t{0};
    std::uint64_t delivered = 0;
    bool internal = false;
    for (const std::size_t v : comp) {
      enabled |= g.nodes[v].enabled;
      deliverable_all &= g.nodes[v].deliverable;
      for (const LiveGraphEdge& e : g.nodes[v].edges) {
        if (in_comp[e.to] == 0) continue;
        internal = true;
        if (!e.fault && e.sched != kNoProcess) {
          sched |= std::uint64_t{1} << e.sched;
          if (e.deliver) delivered |= live_channel_bit(e.sender, e.sched);
        }
      }
    }
    const std::uint64_t starved = enabled & ~sched;
    if (internal && starved == 0) {
      // Communication fairness: a directed channel whose pending
      // delivery stays enabled at every member node must be served by
      // some internal edge delivering on exactly that channel. When it
      // is not, the whole SCC is hopeless — any sub-SCC inherits the
      // continuously-enabled obligation and has no delivering edge
      // either — so it is discarded without refinement.
      if ((deliverable_all & ~delivered) != 0) {
        for (const std::size_t v : comp) in_comp[v] = 0;
        continue;
      }
      for (const std::size_t v : comp) {
        if (!g.nodes[v].goal) {
          for (const std::size_t w : comp) in_comp[w] = 0;
          return FairWitness{comp, sched, deliverable_all, v};
        }
      }
    } else if (internal) {
      std::vector<char> sub(g.nodes.size(), 0);
      bool any = false;
      for (const std::size_t v : comp) {
        if ((g.nodes[v].enabled & starved) == 0) {
          sub[v] = 1;
          any = true;
        }
      }
      if (any) {
        for (auto& c : sccs_of(g, sub)) work.push_back(std::move(c));
      }
    }
    for (const std::size_t v : comp) in_comp[v] = 0;
  }
  return std::nullopt;
}

/// One hop of a fingerprint route.
struct Hop {
  std::size_t src = 0;
  const LiveGraphEdge* edge = nullptr;
};

/// Shortest path (BFS; ties broken by insertion/edge order) from `from`
/// to `to` through nodes with mask[v] != 0. Empty when from == to.
std::vector<Hop> route(const LiveGraph& g, const std::vector<char>& mask,
                       std::size_t from, std::size_t to) {
  std::vector<Hop> out;
  if (from == to) return out;
  std::vector<int> parent(g.nodes.size(), -1);
  std::vector<const LiveGraphEdge*> via(g.nodes.size(), nullptr);
  std::deque<std::size_t> q;
  parent[from] = static_cast<int>(from);
  q.push_back(from);
  bool found = false;
  while (!q.empty() && !found) {
    const std::size_t v = q.front();
    q.pop_front();
    for (const LiveGraphEdge& e : g.nodes[v].edges) {
      const std::size_t w = e.to;
      if (mask[w] == 0 || parent[w] != -1) continue;
      parent[w] = static_cast<int>(v);
      via[w] = &e;
      if (w == to) {
        found = true;
        break;
      }
      q.push_back(w);
    }
  }
  WFD_CHECK_MSG(found, "disconnected route request inside the state graph");
  for (std::size_t v = to; v != from;
       v = static_cast<std::size_t>(parent[v])) {
    out.push_back(Hop{static_cast<std::size_t>(parent[v]), via[v]});
  }
  std::reverse(out.begin(), out.end());
  return out;
}

/// A closed walk through the witness SCC from its entry node covering
/// one delivering edge per obligated channel (ascending channel-bit
/// order) and one scheduling edge per remaining obligated process
/// (ascending process order), then closing back on the entry — the
/// fairness certificate made concrete as a fingerprint route.
template <typename MatchFn>
void cover_edge(const LiveGraph& g, const FairWitness& w,
                const std::vector<char>& in_comp, MatchFn match,
                std::size_t& cur, std::vector<Hop>& out) {
  const LiveGraphEdge* cover = nullptr;
  std::size_t cover_src = 0;
  for (const std::size_t v : w.members) {
    for (const LiveGraphEdge& e : g.nodes[v].edges) {
      if (e.fault || !match(e)) continue;
      if (in_comp[e.to] == 0) continue;
      cover = &e;
      cover_src = v;
      break;
    }
    if (cover != nullptr) break;
  }
  WFD_CHECK_MSG(cover != nullptr, "obligated cover edge missing in fair SCC");
  std::vector<Hop> leg = route(g, in_comp, cur, cover_src);
  out.insert(out.end(), leg.begin(), leg.end());
  out.push_back(Hop{cover_src, cover});
  cur = cover->to;
}

std::vector<Hop> loop_route(const LiveGraph& g, const FairWitness& w) {
  std::vector<char> in_comp(g.nodes.size(), 0);
  for (const std::size_t v : w.members) in_comp[v] = 1;
  std::vector<Hop> out;
  std::size_t cur = w.entry;
  // A channel with a continuously pending delivery must be covered by
  // an edge delivering on exactly that channel; the delivery also
  // discharges the receiver's scheduling obligation.
  std::uint64_t sched_done = 0;
  for (ProcessId s = 0; s < kLiveChannelStride; ++s) {
    for (ProcessId r = 0; r < kLiveChannelStride; ++r) {
      if ((w.deliver_mask & live_channel_bit(s, r)) == 0) continue;
      cover_edge(
          g, w, in_comp,
          [&](const LiveGraphEdge& e) {
            return e.deliver && e.sender == s && e.sched == r;
          },
          cur, out);
      sched_done |= std::uint64_t{1} << r;
    }
  }
  for (ProcessId p = 0; p < kMaxProcesses; ++p) {
    if (((w.sched_mask >> p) & 1) == 0) continue;
    if (((sched_done >> p) & 1) != 0) continue;
    cover_edge(
        g, w, in_comp,
        [&](const LiveGraphEdge& e) { return e.sched == p; }, cur, out);
  }
  std::vector<Hop> close = route(g, in_comp, cur, w.entry);
  out.insert(out.end(), close.begin(), close.end());
  WFD_CHECK_MSG(!out.empty(), "fair SCC produced an empty loop");
  return out;
}

}  // namespace

std::optional<Counterexample> find_fair_lasso(
    const LiveGraph& g, const ScenarioOptions& scenario,
    std::string* concretize_error) {
  if (!g.have_root || g.nodes.empty()) return std::nullopt;
  const std::optional<FairWitness> w = fair_goal_avoiding_scc(g);
  if (!w.has_value()) return std::nullopt;

  // Fingerprint routes: stem from the initial state to the cycle entry
  // (over the whole graph), then the covering loop inside the SCC.
  const std::uint64_t* root = g.index.find(g.root);
  WFD_CHECK_MSG(root != nullptr, "state graph without its root node");
  const std::vector<char> all(g.nodes.size(), 1);
  const std::vector<Hop> stem =
      route(g, all, static_cast<std::size_t>(*root), w->entry);
  const std::vector<Hop> loop = loop_route(g, *w);

  // Concretize by probing. The probe scenario widens the horizon so the
  // stem plus one unrolling always fit; under the liveness validate()
  // rules max_steps bounds neither menus nor fingerprints, so the
  // probed transitions are exactly the recorded ones.
  ScenarioOptions probe_opt = scenario;
  probe_opt.max_steps =
      std::max(scenario.max_steps,
               static_cast<Time>(stem.size() + loop.size()) + 8);
  const ScenarioFactory probe(probe_opt);

  sim::DecisionLog log;       // Pinned decisions so far.
  std::uint64_t pinned = 0;   // Steps the pinned decisions drive.

  // Replay the pinned prefix, take one more step driven by `block`, and
  // check it executes `want` — the landed fingerprint AND the edge's
  // identity (process, delivery, fault). The fingerprint alone cannot
  // tell two self-loop edges apart (e.g. each process's lambda step at
  // the same state), and pinning the wrong twin would void the loop's
  // fairness certificate. Probing re-runs the invariants so their
  // carried history — part of the fingerprint — evolves exactly as it
  // did during exploration.
  const auto lands = [&](std::span<const std::uint32_t> block,
                         const LiveGraphEdge& want) -> bool {
    sim::DecisionLog full = log;
    full.insert(full.end(), block.begin(), block.end());
    sim::MenuChoices src(full);
    Scenario sc = probe.build(src);
    for (std::uint64_t s = 0; s < pinned; ++s) {
      if (!sc.sim->step()) return false;
      if (check_invariants(sc).has_value()) return false;
    }
    if (src.consumed() != log.size()) return false;
    if (!sc.sim->step()) return false;
    if (check_invariants(sc).has_value()) return false;
    if (src.consumed() != full.size()) return false;
    const std::uint64_t ex = src.executed();
    if (sim::ReplayScheduler::label_is_fault(ex) != want.fault) return false;
    if (sim::ReplayScheduler::label_process(ex) != want.sched) return false;
    if ((sim::ReplayScheduler::label_message(ex) != 0) != want.deliver) {
      return false;
    }
    // Channel identity: the delivered message's sender must match the
    // edge's — the loop's fairness certificate serves channels, and two
    // same-receiver deliveries at one state can land the same
    // fingerprint while serving different channels.
    if (want.deliver && sc.sim->last_step().from != want.sender) {
      return false;
    }
    const std::optional<std::uint64_t> fp = scenario_fingerprint(sc);
    return fp.has_value() && *fp == g.nodes[want.to].fp;
  };

  // The schedule-menu width at the state the pinned prefix lands on:
  // replay the prefix and take one (discarded) default step, whose
  // note_enabled hook captures the menu even when it is forced.
  const auto menu_width = [&]() -> std::size_t {
    sim::MenuChoices src(log);
    Scenario sc = probe.build(src);
    for (std::uint64_t s = 0; s <= pinned; ++s) {
      if (!sc.sim->step()) return 0;
    }
    return src.menu().size();
  };

  // Pin one hop: recorded decision blocks for this transition first
  // (always exact when the pinned prefix walks the same menus the
  // recorder saw), then a rescan of the leading schedule index over the
  // actual menu width at the probed state, keeping any recorded tail —
  // the pending-message menu at a fingerprint can order message ids
  // differently along the pinned stem than along the recording path,
  // while trailing oracle picks (begin_run, crash re-picks) enumerate
  // from the pattern and are path-independent.
  const auto pin = [&](const Hop& hop) -> bool {
    for (const LiveGraphEdge& e : g.nodes[hop.src].edges) {
      if (e.to != hop.edge->to) continue;
      const std::span<const std::uint32_t> recorded = g.block(e);
      if (lands(recorded, *hop.edge)) {
        log.insert(log.end(), recorded.begin(), recorded.end());
        ++pinned;
        return true;
      }
    }
    const std::size_t width = menu_width();
    for (const LiveGraphEdge& e : g.nodes[hop.src].edges) {
      if (e.to != hop.edge->to || e.block_size == 0) continue;
      for (std::size_t i = 0; i < width; ++i) {
        const std::span<const std::uint32_t> tail = g.block(e).subspan(1);
        sim::DecisionLog block = {static_cast<std::uint32_t>(i)};
        block.insert(block.end(), tail.begin(), tail.end());
        if (lands(block, *hop.edge)) {
          log.insert(log.end(), block.begin(), block.end());
          ++pinned;
          return true;
        }
      }
    }
    return false;
  };

  // A hop that cannot be concretized means the graph and the scenario
  // disagree — an internal error, never a sound verdict. Surface a
  // structured diagnostic instead of aborting the whole process.
  const auto concretize_failed = [&](const char* part, std::size_t at,
                                     std::size_t total, const Hop& hop) {
    if (concretize_error == nullptr) return;
    std::ostringstream err;
    err << "failed to concretize a lasso transition (" << part << " hop "
        << at << " of " << total << ": fingerprint "
        << g.nodes[hop.src].fp << " -> " << g.nodes[hop.edge->to].fp
        << ")\n";
    err << "partial lasso pinned so far: " << pinned << " steps, decisions=";
    for (std::size_t i = 0; i < log.size(); ++i) {
      err << (i == 0 ? "" : ",") << log[i];
    }
    err << "\nscenario:\n";
    SearchConfig header;
    header.scenario = scenario;
    search_header_to_text(err, header, /*scenario_only=*/true);
    *concretize_error = err.str();
  };

  for (std::size_t i = 0; i < stem.size(); ++i) {
    if (!pin(stem[i])) {
      concretize_failed("stem", i, stem.size(), stem[i]);
      return std::nullopt;
    }
  }
  const sim::DecisionLog stem_log = log;
  const std::uint64_t stem_steps = pinned;
  for (std::size_t i = 0; i < loop.size(); ++i) {
    if (!pin(loop[i])) {
      concretize_failed("loop", i, loop.size(), loop[i]);
      return std::nullopt;
    }
  }
  const sim::DecisionLog loop_log(
      log.begin() + static_cast<std::ptrdiff_t>(stem_log.size()), log.end());

  Violation v;
  v.property = "liveness(" + scenario.liveness + ")";
  v.message = "fair cycle avoiding the goal: a " +
              std::to_string(loop.size()) + "-step loop over " +
              std::to_string(w->members.size()) +
              " states, entered after " + std::to_string(stem_steps) +
              " steps, schedules every enabled process and serves every "
              "continuously pending channel forever without the goal "
              "ever holding";
  v.at = static_cast<Time>(stem_steps);

  Counterexample cex;
  cex.decisions = stem_log;
  cex.violation = std::move(v);
  cex.steps = stem_steps;
  cex.loop = loop_log;
  cex.loop_steps = static_cast<std::uint64_t>(loop.size());
  return cex;
}

}  // namespace wfd::explore
