// Fixture tests for the fair-cycle search over hand-built LiveGraphs:
// graphs constructed edge by edge, not explored, so each test isolates
// one fairness rule of find_fair_lasso with a known-shape witness. The
// last tests pin the graph's own bookkeeping: edge deduplication and
// the barrier merge's insertion and edge order.
//
// Two outcomes are distinguishable through the public API without a
// real exploration behind the graph. A graph whose only goal-avoiding
// cycles are unfair makes find_fair_lasso return nullopt and leave the
// concretize-error slot empty — the search never got past the SCC
// refinement. A graph with a *fair* goal-avoiding cycle makes the
// search accept a witness and try to concretize it against the real
// scenario, which must fail (the fingerprints are synthetic) and fill
// the error slot with the structured diagnostic instead of aborting.
// "error empty" vs "error mentions concretization" therefore observes
// exactly the graph-level accept/reject decision under test — and the
// accept side doubles as coverage for the diagnostic path itself.
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "explore/liveness.h"
#include "explore/scenario.h"
#include "explore/types.h"

namespace wfd::explore {
namespace {

/// The decision block every fixture edge carries.
constexpr std::uint32_t kBlock[] = {0};

ScenarioOptions live_options() {
  ScenarioOptions opt;
  opt.problem = "consensus";
  opt.n = 3;
  opt.liveness = "termination";
  opt.fd_per_query = false;
  opt.max_steps = 12;
  return opt;
}

/// Two-node goal-avoiding cycle A <-> B with one obligated receiver.
/// Both channels 0->2 and 1->2 hold a pending delivery at every node;
/// the cycle's two edges both deliver to process 2, but `serve_both`
/// decides whether they serve both senders' channels or only 1->2.
LiveGraph two_sender_cycle(bool serve_both) {
  LiveGraph g;
  const std::uint64_t fp_a = 10;
  const std::uint64_t fp_b = 11;
  g.root = fp_a;
  g.have_root = true;
  const std::uint32_t a = g.add_node(fp_a);
  const std::uint32_t b = g.add_node(fp_b);
  const std::uint64_t pending =
      live_channel_bit(0, 2) | live_channel_bit(1, 2);
  for (const std::uint32_t v : {a, b}) {
    LiveGraphNode& n = g.nodes[v];
    n.goal = false;
    n.enabled = std::uint64_t{1} << 2;
    n.deliverable = pending;
    n.expanded = true;
  }
  LiveGraphEdge ab;
  ab.to = b;
  ab.sched = 2;
  ab.sender = 1;
  ab.deliver = true;
  g.add_edge(a, kBlock, ab);
  LiveGraphEdge ba;
  ba.to = a;
  ba.sched = 2;
  ba.sender = serve_both ? ProcessId{0} : ProcessId{1};
  ba.deliver = true;
  g.add_edge(b, kBlock, ba);
  return g;
}

TEST(LivenessFixtureTest, CycleStarvingOneSendersChannelIsUnfair) {
  // The regression the channel-granular bitset exists for: the cycle
  // delivers to the obligated receiver on every edge, so fairness
  // tracked per *receiver* would accept it — yet channel 0->2 stays
  // continuously pending and never served, i.e. some in-flight message
  // from sender 0 is starved forever while process 2 keeps stepping
  // past it. Quasi-reliable channels forbid that limit, so the lasso
  // must be rejected at the graph level.
  const LiveGraph g = two_sender_cycle(/*serve_both=*/false);
  std::string err;
  EXPECT_FALSE(find_fair_lasso(g, live_options(), &err).has_value());
  EXPECT_TRUE(err.empty()) << err;
}

TEST(LivenessFixtureTest, CycleServingBothChannelsIsAcceptedAsFair) {
  // Positive control for the fixture above — the same cycle with the
  // return edge serving sender 0's channel discharges both obligations
  // and must survive the SCC refinement. Concretization then fails
  // (synthetic fingerprints never replay against the real scenario)
  // and must surface the structured diagnostic, not abort.
  const LiveGraph g = two_sender_cycle(/*serve_both=*/true);
  std::string err;
  EXPECT_FALSE(find_fair_lasso(g, live_options(), &err).has_value());
  ASSERT_FALSE(err.empty());
  EXPECT_NE(err.find("failed to concretize a lasso transition"),
            std::string::npos)
      << err;
  EXPECT_NE(err.find("scenario:"), std::string::npos) << err;
}

/// Two-node cycle whose edges schedule process 0; `fault` marks both
/// edges as adversary moves.
LiveGraph sched_cycle(bool fault) {
  LiveGraph g;
  const std::uint64_t fp_a = 20;
  const std::uint64_t fp_b = 21;
  g.root = fp_a;
  g.have_root = true;
  const std::uint32_t a = g.add_node(fp_a);
  const std::uint32_t b = g.add_node(fp_b);
  for (const std::uint32_t v : {a, b}) {
    LiveGraphNode& n = g.nodes[v];
    n.goal = false;
    n.enabled = 1;  // Process 0 has a move everywhere.
    n.expanded = true;
    LiveGraphEdge e;
    e.to = (v == a) ? b : a;
    e.sched = 0;
    e.fault = fault;
    g.add_edge(v, kBlock, e);
  }
  return g;
}

TEST(LivenessFixtureTest, FaultEdgesEarnNoSchedulingCredit) {
  // A cycle closed purely by adversary moves (fault edges carrying a
  // process label) never runs process code, so the enabled process is
  // starved and the cycle is unfair — crash/drop/dup steps must not
  // discharge weak-fairness obligations.
  std::string err;
  EXPECT_FALSE(
      find_fair_lasso(sched_cycle(/*fault=*/true), live_options(), &err)
          .has_value());
  EXPECT_TRUE(err.empty()) << err;

  // The same cycle with real (non-fault) steps is fair.
  EXPECT_FALSE(
      find_fair_lasso(sched_cycle(/*fault=*/false), live_options(), &err)
          .has_value());
  EXPECT_NE(err.find("failed to concretize"), std::string::npos) << err;
}

/// Two-node cycle with channel 0->1 continuously pending; one edge
/// delivers on it (optionally as a fault move, i.e. a duplication the
/// adversary injects), the other is process 1's lambda step.
LiveGraph deliver_cycle(bool deliver_is_fault) {
  LiveGraph g;
  const std::uint64_t fp_a = 30;
  const std::uint64_t fp_b = 31;
  g.root = fp_a;
  g.have_root = true;
  const std::uint32_t a = g.add_node(fp_a);
  const std::uint32_t b = g.add_node(fp_b);
  for (const std::uint32_t v : {a, b}) {
    LiveGraphNode& n = g.nodes[v];
    n.goal = false;
    n.enabled = std::uint64_t{1} << 1;
    n.deliverable = live_channel_bit(0, 1);
    n.expanded = true;
  }
  LiveGraphEdge ab;
  ab.to = b;
  ab.sched = 1;
  ab.sender = 0;
  ab.deliver = true;
  ab.fault = deliver_is_fault;
  g.add_edge(a, kBlock, ab);
  LiveGraphEdge ba;  // Lambda step: keeps process 1 scheduled.
  ba.to = a;
  ba.sched = 1;
  g.add_edge(b, kBlock, ba);
  return g;
}

TEST(LivenessFixtureTest, FaultEdgesEarnNoChannelCredit) {
  // Communication fairness wants the *channel* served by a real
  // delivery; an adversary move that happens to carry a message (a
  // duplication) is not the system serving the channel and earns no
  // credit, so the obligation stays undischarged and the cycle dies.
  std::string err;
  EXPECT_FALSE(find_fair_lasso(deliver_cycle(/*deliver_is_fault=*/true),
                               live_options(), &err)
                   .has_value());
  EXPECT_TRUE(err.empty()) << err;

  // With the delivery as a real step the obligation is met.
  EXPECT_FALSE(find_fair_lasso(deliver_cycle(/*deliver_is_fault=*/false),
                               live_options(), &err)
                   .has_value());
  EXPECT_NE(err.find("failed to concretize"), std::string::npos) << err;
}

TEST(LivenessFixtureTest, GoalTrueCyclesRefuteNothing) {
  // Sanity: a perfectly fair cycle whose every node satisfies the goal
  // is not a counterexample to <>[]goal.
  LiveGraph g = sched_cycle(/*fault=*/false);
  for (LiveGraphNode& n : g.nodes) n.goal = true;
  std::string err;
  EXPECT_FALSE(find_fair_lasso(g, live_options(), &err).has_value());
  EXPECT_TRUE(err.empty()) << err;
}

// ---- Graph bookkeeping ------------------------------------------------

/// Records src -> to with decision block `block`, scheduling `sched`.
void add_step(LiveGraph& g, std::uint32_t src, std::uint32_t to,
              const std::vector<std::uint32_t>& block, ProcessId sched) {
  LiveGraphEdge e;
  e.to = to;
  e.sched = sched;
  g.add_edge(src, block, e);
}

/// The graph node by node in insertion order, each line
/// "<fp> g<goal> en<enabled> x<expanded> t<truncated>:" followed by
/// " <block>-><destination fp>@<sched>" per edge in edge order. Also
/// checks that the fingerprint index names each node's position.
std::vector<std::string> render(const LiveGraph& g) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < g.nodes.size(); ++i) {
    const LiveGraphNode& n = g.nodes[i];
    const std::uint64_t* at = g.index.find(n.fp);
    EXPECT_TRUE(at != nullptr && *at == i) << n.fp;
    std::string line = std::to_string(n.fp) + " g" +
                       std::to_string(n.goal ? 1 : 0) + " en" +
                       std::to_string(n.enabled) + " x" +
                       std::to_string(n.expanded ? 1 : 0) + " t" +
                       std::to_string(n.truncated ? 1 : 0) + ":";
    for (const LiveGraphEdge& e : n.edges) {
      line += " ";
      const auto block = g.block(e);
      for (std::size_t k = 0; k < block.size(); ++k) {
        line += (k == 0 ? "" : ",") + std::to_string(block[k]);
      }
      line += "->" + std::to_string(g.nodes[e.to].fp) + "@" +
              std::to_string(e.sched);
    }
    out.push_back(line);
  }
  return out;
}

TEST(LiveGraphTest, RecordedTransitionIsNotRecordedAgain) {
  LiveGraph g;
  const std::uint32_t a = g.add_node(7);
  const std::uint32_t b = g.add_node(8);
  EXPECT_EQ(g.add_node(7), a);
  EXPECT_EQ(g.nodes.size(), 2u);
  add_step(g, a, b, {1, 0}, 0);
  // A prefix of a recorded block is another transition.
  add_step(g, a, a, {1}, 0);
  const std::size_t pool = g.choices.size();
  const std::size_t capacity = g.nodes[a].edges.capacity();
  add_step(g, a, b, {1, 0}, 0);
  add_step(g, a, a, {1}, 1);
  EXPECT_EQ(g.choices.size(), pool);
  EXPECT_EQ(g.nodes[a].edges.capacity(), capacity);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_EQ(render(g), (std::vector<std::string>{
                           "7 g0 en0 x0 t0: 1,0->8@0 1->7@0",
                           "8 g0 en0 x0 t0:"}));
}

TEST(LiveGraphTest, BarrierMergeKeepsInsertionAndEdgeOrder) {
  const std::uint64_t r = 100, b = 200, c = 300, d = 400, e = 500;
  LiveGraph into;
  into.root = r;
  into.have_root = true;
  {
    const std::uint32_t vr = into.add_node(r);
    into.nodes[vr].enabled = 1;
    into.nodes[vr].expanded = true;
    add_step(into, vr, vr, {0}, 0);
  }
  // Slot 0's overlay: a duplicate of the committed self-loop, then B
  // and C, new, with B's edge into C.
  LiveGraph u1;
  u1.root = r;
  u1.have_root = true;
  {
    const std::uint32_t vr = u1.add_node(r);
    const std::uint32_t vb = u1.add_node(b);
    const std::uint32_t vc = u1.add_node(c);
    u1.nodes[vr].enabled = 1;
    u1.nodes[vr].expanded = true;
    add_step(u1, vr, vr, {0}, 0);
    add_step(u1, vr, vb, {1}, 1);
    u1.nodes[vb].enabled = 2;
    u1.nodes[vb].expanded = true;
    add_step(u1, vb, vc, {0}, 1);
    u1.nodes[vc].goal = true;
    u1.nodes[vc].truncated = true;
  }
  // Slot 1's overlay: D first, whose first edge points at E, created
  // later in the same overlay; B again, with the edge slot 0 already
  // recorded and one into D.
  LiveGraph u2;
  u2.root = r;
  u2.have_root = true;
  {
    const std::uint32_t vd = u2.add_node(d);
    const std::uint32_t vb = u2.add_node(b);
    const std::uint32_t ve = u2.add_node(e);
    const std::uint32_t vc = u2.add_node(c);
    u2.nodes[vd].enabled = 1;
    u2.nodes[vd].expanded = true;
    add_step(u2, vd, ve, {2}, 0);
    add_step(u2, vd, vb, {0}, 0);
    u2.nodes[vb].enabled = 2;
    u2.nodes[vb].expanded = true;
    add_step(u2, vb, vc, {0}, 1);
    add_step(u2, vb, vd, {3}, 1);
    u2.nodes[vc].goal = true;
  }
  merge_live_graph(into, u1);
  merge_live_graph(into, u2);
  EXPECT_TRUE(into.have_root);
  EXPECT_EQ(into.root, r);
  EXPECT_EQ(render(into), (std::vector<std::string>{
                              "100 g0 en1 x1 t0: 0->100@0 1->200@1",
                              "200 g0 en2 x1 t0: 0->300@1 3->400@1",
                              "300 g1 en0 x0 t1:",
                              "400 g0 en1 x1 t0: 2->500@0 0->200@0",
                              "500 g0 en0 x0 t0:"}));
  EXPECT_EQ(into.edge_count(), 6u);
  EXPECT_EQ(into.truncated_count(), 1u);

  // Folding the same overlays again finds every node and edge recorded.
  const std::vector<std::string> once = render(into);
  const std::size_t pool = into.choices.size();
  merge_live_graph(into, u2);
  merge_live_graph(into, u1);
  EXPECT_EQ(render(into), once);
  EXPECT_EQ(into.choices.size(), pool);
}

}  // namespace
}  // namespace wfd::explore
