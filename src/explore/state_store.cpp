#include "explore/state_store.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <span>
#include <sstream>
#include <vector>

#include "explore/option_text.h"

namespace wfd::explore {

namespace {

using detail::escape_line;
using detail::parse_bool;
using detail::parse_u64;
using detail::unescape_line;

/// Fingerprint entries per fps= line: keeps lines bounded without
/// bloating the file with one key per entry.
constexpr std::size_t kFpsPerLine = 512;

void labels_to_text(std::ostream& out, const char* tag,
                    const std::vector<std::uint64_t>& v) {
  out << tag << "=";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out << ",";
    out << v[i];
  }
}

bool parse_labels(const std::string& s, std::vector<std::uint64_t>* out) {
  out->clear();
  if (s.empty()) return true;
  std::string item;
  std::istringstream items(s);
  while (std::getline(items, item, ',')) {
    std::uint64_t v = 0;
    if (!parse_u64(item, &v)) return false;
    out->push_back(v);
  }
  return true;
}

// frame=k=<kind>;c=<chosen>;b=<blocked>;l=<labels>;sl=<sleep>;
//       ex=<explored>;bt=<backtrack>
void frame_to_text(std::ostream& out, const FrameState& f) {
  out << "frame=k=" << static_cast<int>(f.kind) << ";c=" << f.chosen
      << ";b=" << (f.blocked ? 1 : 0) << ";";
  labels_to_text(out, "l", f.labels);
  out << ";";
  labels_to_text(out, "sl", f.sleep);
  out << ";";
  labels_to_text(out, "ex", f.explored);
  out << ";";
  labels_to_text(out, "bt", f.backtrack);
  out << "\n";
}

bool parse_frame(const std::string& s, FrameState* f) {
  std::string part;
  std::istringstream parts(s);
  bool saw_labels = false;
  while (std::getline(parts, part, ';')) {
    const std::size_t eq = part.find('=');
    if (eq == std::string::npos) return false;
    const std::string key = part.substr(0, eq);
    const std::string val = part.substr(eq + 1);
    std::uint64_t v = 0;
    if (key == "k") {
      if (!parse_u64(val, &v) || v > 2) return false;
      f->kind = static_cast<sim::ChoiceKind>(v);
    } else if (key == "c") {
      if (!parse_u64(val, &v) || v > UINT32_MAX) return false;
      f->chosen = static_cast<std::uint32_t>(v);
    } else if (key == "b") {
      bool b = false;
      if (!parse_bool(val, &b)) return false;
      f->blocked = b;
    } else if (key == "l") {
      if (!parse_labels(val, &f->labels)) return false;
      saw_labels = true;
    } else if (key == "sl") {
      if (!parse_labels(val, &f->sleep)) return false;
    } else if (key == "ex") {
      if (!parse_labels(val, &f->explored)) return false;
    } else if (key == "bt") {
      if (!parse_labels(val, &f->backtrack)) return false;
    } else {
      return false;
    }
  }
  // Choice points always carry at least two options (forced moves never
  // materialize frames), and the indices must address the menu.
  return saw_labels && f->labels.size() >= 2 && f->chosen < f->labels.size();
}

// unit=id=<id>;floor=<floor>;pending=<0|1>;frames=<count> — the next
// <count> frame= lines belong to this unit.
void unit_to_text(std::ostream& out, const UnitState& u) {
  out << "unit=id=" << u.id << ";floor=" << u.floor
      << ";pending=" << (u.path_pending ? 1 : 0)
      << ";frames=" << u.frames.size() << "\n";
  for (const FrameState& f : u.frames) frame_to_text(out, f);
}

bool parse_unit(const std::string& s, UnitState* u,
                std::uint64_t* frames_expected) {
  bool saw_id = false;
  bool saw_frames = false;
  std::string part;
  std::istringstream parts(s);
  while (std::getline(parts, part, ';')) {
    const std::size_t eq = part.find('=');
    if (eq == std::string::npos) return false;
    const std::string key = part.substr(0, eq);
    const std::string val = part.substr(eq + 1);
    if (key == "id") {
      if (!parse_u64(val, &u->id)) return false;
      saw_id = true;
    } else if (key == "floor") {
      if (!parse_u64(val, &u->floor)) return false;
    } else if (key == "pending") {
      if (!parse_bool(val, &u->path_pending)) return false;
    } else if (key == "frames") {
      if (!parse_u64(val, frames_expected)) return false;
      saw_frames = true;
    } else {
      return false;
    }
  }
  return saw_id && saw_frames;
}

// node=<k0>:<k1>;a=<labels in assignment order>
void node_to_text(std::ostream& out, const NodeState& n) {
  out << "node=" << n.key[0] << ":" << n.key[1] << ";";
  labels_to_text(out, "a", n.assigned);
  out << "\n";
}

bool parse_node(const std::string& s, NodeState* n) {
  const std::size_t semi = s.find(';');
  if (semi == std::string::npos) return false;
  const std::string key = s.substr(0, semi);
  const std::string rest = s.substr(semi + 1);
  const std::size_t colon = key.find(':');
  if (colon == std::string::npos) return false;
  if (!parse_u64(key.substr(0, colon), &n->key[0]) ||
      !parse_u64(key.substr(colon + 1), &n->key[1])) {
    return false;
  }
  if (rest.rfind("a=", 0) != 0) return false;
  return parse_labels(rest.substr(2), &n->assigned);
}

// gnode=<fp>;g=<goal>;en=<enabled>;dl=<channel bitset, bit sender*8 +
//       receiver>;x=<expanded>;t=<truncated>;edges=<count> — the next
//       <count> gedge= lines belong to it.
void gnode_to_text(std::ostream& out, const LiveGraphNode& n) {
  out << "gnode=" << n.fp << ";g=" << (n.goal ? 1 : 0) << ";en=" << n.enabled
      << ";dl=" << n.deliverable << ";x=" << (n.expanded ? 1 : 0)
      << ";t=" << (n.truncated ? 1 : 0) << ";edges=" << n.edges.size()
      << "\n";
}

bool parse_gnode(const std::string& s, LiveGraphNode* n,
                 std::uint64_t* edges_expected) {
  std::string part;
  std::istringstream parts(s);
  bool saw_fp = false;
  bool saw_edges = false;
  bool first = true;
  while (std::getline(parts, part, ';')) {
    if (first) {
      first = false;
      if (!parse_u64(part, &n->fp)) return false;
      saw_fp = true;
      continue;
    }
    const std::size_t eq = part.find('=');
    if (eq == std::string::npos) return false;
    const std::string key = part.substr(0, eq);
    const std::string val = part.substr(eq + 1);
    if (key == "g") {
      if (!parse_bool(val, &n->goal)) return false;
    } else if (key == "en") {
      if (!parse_u64(val, &n->enabled)) return false;
    } else if (key == "dl") {
      if (!parse_u64(val, &n->deliverable)) return false;
    } else if (key == "x") {
      if (!parse_bool(val, &n->expanded)) return false;
    } else if (key == "t") {
      if (!parse_bool(val, &n->truncated)) return false;
    } else if (key == "edges") {
      if (!parse_u64(val, edges_expected)) return false;
      saw_edges = true;
    } else {
      return false;
    }
  }
  return saw_fp && saw_edges;
}

// gedge=d=<dst>;p=<sched+1, 0 = none>;s=<sender+1, 0 = none>;f=<fault>;
//       c=<decision indices>
void gedge_to_text(std::ostream& out, const LiveGraph& g,
                   const LiveGraphEdge& e) {
  out << "gedge=d=" << g.nodes[e.to].fp << ";p=" << (e.sched + 1)
      << ";s=" << (e.sender + 1) << ";f=" << (e.fault ? 1 : 0)
      << ";dv=" << (e.deliver ? 1 : 0) << ";c=";
  const std::span<const std::uint32_t> block = g.block(e);
  for (std::size_t i = 0; i < block.size(); ++i) {
    if (i != 0) out << ",";
    out << block[i];
  }
  out << "\n";
}

/// Parses one gedge= line into `e` and its destination fingerprint
/// `dst`, appending its decision block to `choices`; the caller
/// resolves `dst` to e->to once every node is known.
bool parse_gedge(const std::string& s, LiveGraphEdge* e, std::uint64_t* dst,
                 std::vector<std::uint32_t>* choices) {
  std::string part;
  std::istringstream parts(s);
  bool saw_dst = false;
  while (std::getline(parts, part, ';')) {
    const std::size_t eq = part.find('=');
    if (eq == std::string::npos) return false;
    const std::string key = part.substr(0, eq);
    const std::string val = part.substr(eq + 1);
    if (key == "d") {
      if (!parse_u64(val, dst)) return false;
      saw_dst = true;
    } else if (key == "p") {
      std::uint64_t v = 0;
      if (!parse_u64(val, &v) || v > INT32_MAX) return false;
      e->sched = static_cast<ProcessId>(v) - 1;
    } else if (key == "s") {
      std::uint64_t v = 0;
      if (!parse_u64(val, &v) || v > INT32_MAX) return false;
      e->sender = static_cast<ProcessId>(v) - 1;
    } else if (key == "f") {
      if (!parse_bool(val, &e->fault)) return false;
    } else if (key == "dv") {
      if (!parse_bool(val, &e->deliver)) return false;
    } else if (key == "c") {
      std::vector<std::uint64_t> raw;
      if (!parse_labels(val, &raw)) return false;
      if (choices->size() + raw.size() > UINT32_MAX) return false;
      e->block_at = static_cast<std::uint32_t>(choices->size());
      e->block_size = static_cast<std::uint32_t>(raw.size());
      for (const std::uint64_t v : raw) {
        if (v > UINT32_MAX) return false;
        choices->push_back(static_cast<std::uint32_t>(v));
      }
    } else {
      return false;
    }
  }
  return saw_dst;
}

void stats_to_text(std::ostream& out, const ExploreStats& st) {
  for (const StatsField& f : kStatsFields) {
    out << f.key << "="
        << (f.count != nullptr ? st.*f.count : (st.*f.flag ? 1 : 0)) << "\n";
  }
}

bool stats_apply(ExploreStats& st, const std::string& key,
                 const std::string& val, bool* ok) {
  *ok = true;
  for (const StatsField& f : kStatsFields) {
    if (key != f.key) continue;
    *ok = f.count != nullptr ? parse_u64(val, &(st.*f.count))
                             : parse_bool(val, &(st.*f.flag));
    return true;
  }
  return false;
}

}  // namespace

std::string to_text(const StateSnapshot& s) {
  std::ostringstream out;
  out << "# wfd_check search snapshot\n";
  out << "snapshot_version=" << s.version << "\n";
  search_header_to_text(out, s.config);
  out << "resume_generation=" << s.resume_generation << "\n";
  out << "wave=" << s.wave << "\n";
  out << "next_unit_id=" << s.next_unit_id << "\n";
  stats_to_text(out, s.stats);
  for (const std::string& id : s.conservative_payloads) {
    out << "conservative=" << escape_line(id) << "\n";
  }
  std::uint64_t frames_total = 0;
  for (const UnitState& u : s.units) {
    unit_to_text(out, u);
    frames_total += u.frames.size();
  }
  for (const NodeState& n : s.nodes) node_to_text(out, n);
  for (std::size_t i = 0; i < s.fingerprints.size(); i += kFpsPerLine) {
    out << "fps=";
    const std::size_t end = std::min(i + kFpsPerLine, s.fingerprints.size());
    for (std::size_t j = i; j < end; ++j) {
      if (j != i) out << ",";
      out << s.fingerprints[j].first << ":" << s.fingerprints[j].second;
    }
    out << "\n";
  }
  // State graph (liveness mode), in committed insertion order — the
  // fair-cycle search is deterministic in that order, so a resumed run
  // must restore it verbatim.
  if (s.graph.have_root) out << "groot=" << s.graph.root << "\n";
  std::uint64_t gedges_total = 0;
  for (const LiveGraphNode& n : s.graph.nodes) {
    gnode_to_text(out, n);
    for (const LiveGraphEdge& e : n.edges) gedge_to_text(out, s.graph, e);
    gedges_total += static_cast<std::uint64_t>(n.edges.size());
  }
  // Trailer: count checks plus an end marker, so a torn or truncated
  // file (no matter how it was produced) fails the parse.
  out << "units_total=" << s.units.size() << "\n";
  out << "nodes_total=" << s.nodes.size() << "\n";
  out << "frames_total=" << frames_total << "\n";
  out << "fps_total=" << s.fingerprints.size() << "\n";
  out << "gnodes_total=" << s.graph.nodes.size() << "\n";
  out << "gedges_total=" << gedges_total << "\n";
  out << "end=snapshot\n";
  return out.str();
}

std::optional<StateSnapshot> parse_snapshot(const std::string& text,
                                            std::string* error,
                                            bool* wrong_version) {
  if (wrong_version != nullptr) *wrong_version = false;
  const auto fail =
      [&](const std::string& why) -> std::optional<StateSnapshot> {
    if (error != nullptr) *error = "bad snapshot: " + why;
    return std::nullopt;
  };
  const auto refuse_version =
      [&](std::uint64_t v) -> std::optional<StateSnapshot> {
    if (wrong_version != nullptr) *wrong_version = true;
    return fail("unsupported snapshot_version " + std::to_string(v) +
                " (this build reads and writes version " +
                std::to_string(StateSnapshot::kVersion) +
                "; stored frontiers are not sound across format versions — "
                "restart the search without --resume)");
  };
  StateSnapshot s;
  s.version = 0;
  std::istringstream in(text);
  std::string line;
  bool saw_end = false;
  std::optional<std::uint64_t> units_total;
  std::optional<std::uint64_t> nodes_total;
  std::optional<std::uint64_t> frames_total;
  std::optional<std::uint64_t> fps_total;
  std::optional<std::uint64_t> gnodes_total;
  std::optional<std::uint64_t> gedges_total;
  std::uint64_t frames_seen = 0;
  /// Frames still owed to the unit last opened by a unit= line.
  std::uint64_t frames_owed = 0;
  std::uint64_t gedges_seen = 0;
  /// Edges still owed to the node last opened by a gnode= line.
  std::uint64_t gedges_owed = 0;
  /// Each edge's destination fingerprint, in file order: an edge may
  /// point at a node listed after it, so they resolve at the end.
  std::vector<std::uint64_t> gedge_dsts;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) return fail("line without '=': " + line);
    const std::string key = line.substr(0, eq);
    const std::string val = line.substr(eq + 1);
    bool ok = true;
    if (search_header_apply(s.config, key, val, &ok) ||
        stats_apply(s.stats, key, val, &ok)) {
      // Header / stats field; ok already reflects the parse.
    } else if (key == "snapshot_version") {
      std::uint64_t v = 0;
      ok = parse_u64(val, &v) && v <= UINT32_MAX;
      // The rest of another version's file follows another grammar:
      // refuse it here, before one of its lines fails as corrupt.
      if (ok && v != StateSnapshot::kVersion) return refuse_version(v);
      if (ok) s.version = static_cast<std::uint32_t>(v);
    } else if (key == "resume_generation") {
      ok = parse_u64(val, &s.resume_generation);
    } else if (key == "wave") {
      ok = parse_u64(val, &s.wave);
    } else if (key == "next_unit_id") {
      ok = parse_u64(val, &s.next_unit_id);
    } else if (key == "conservative") {
      std::string id;
      ok = unescape_line(val, &id);
      if (ok) s.conservative_payloads.insert(id);
    } else if (key == "unit") {
      if (frames_owed != 0) return fail("unit with missing frames");
      UnitState u;
      std::uint64_t expected = 0;
      if (!parse_unit(val, &u, &expected)) return fail("bad unit: " + val);
      frames_owed = expected;
      s.units.push_back(std::move(u));
    } else if (key == "frame") {
      if (s.units.empty() || frames_owed == 0) {
        return fail("frame without an owning unit");
      }
      FrameState f;
      if (!parse_frame(val, &f)) return fail("bad frame: " + val);
      s.units.back().frames.push_back(std::move(f));
      --frames_owed;
      ++frames_seen;
    } else if (key == "node") {
      NodeState n;
      if (!parse_node(val, &n)) return fail("bad node: " + val);
      s.nodes.push_back(std::move(n));
    } else if (key == "fps") {
      std::string item;
      std::istringstream items(val);
      while (std::getline(items, item, ',')) {
        const std::size_t colon = item.find(':');
        std::uint64_t fp = 0;
        std::uint64_t t = 0;
        if (colon == std::string::npos ||
            !parse_u64(item.substr(0, colon), &fp) ||
            !parse_u64(item.substr(colon + 1), &t)) {
          return fail("bad fingerprint entry: " + item);
        }
        s.fingerprints.emplace_back(fp, t);
      }
    } else if (key == "groot") {
      ok = parse_u64(val, &s.graph.root);
      if (ok) s.graph.have_root = true;
    } else if (key == "gnode") {
      if (gedges_owed != 0) return fail("graph node with missing edges");
      LiveGraphNode n;
      std::uint64_t expected = 0;
      if (!parse_gnode(val, &n, &expected)) {
        return fail("bad graph node: " + val);
      }
      if (s.graph.index.find(n.fp) != nullptr) {
        return fail("duplicate graph node " + std::to_string(n.fp));
      }
      s.graph.nodes[s.graph.add_node(n.fp)] = std::move(n);
      gedges_owed = expected;
    } else if (key == "gedge") {
      if (gedges_owed == 0) return fail("graph edge without an owning node");
      LiveGraphEdge e;
      std::uint64_t dst = 0;
      if (!parse_gedge(val, &e, &dst, &s.graph.choices)) {
        return fail("bad graph edge: " + val);
      }
      s.graph.nodes.back().edges.push_back(e);
      gedge_dsts.push_back(dst);
      --gedges_owed;
      ++gedges_seen;
    } else if (key == "units_total") {
      std::uint64_t v = 0;
      ok = parse_u64(val, &v);
      if (ok) units_total = v;
    } else if (key == "nodes_total") {
      std::uint64_t v = 0;
      ok = parse_u64(val, &v);
      if (ok) nodes_total = v;
    } else if (key == "frames_total") {
      std::uint64_t v = 0;
      ok = parse_u64(val, &v);
      if (ok) frames_total = v;
    } else if (key == "fps_total") {
      std::uint64_t v = 0;
      ok = parse_u64(val, &v);
      if (ok) fps_total = v;
    } else if (key == "gnodes_total") {
      std::uint64_t v = 0;
      ok = parse_u64(val, &v);
      if (ok) gnodes_total = v;
    } else if (key == "gedges_total") {
      std::uint64_t v = 0;
      ok = parse_u64(val, &v);
      if (ok) gedges_total = v;
    } else if (key == "end") {
      ok = (val == "snapshot");
      saw_end = ok;
    }
    // Unknown keys are ignored for forward compatibility.
    if (!ok) return fail("bad value for " + key + ": " + val);
  }
  if (s.version != StateSnapshot::kVersion) return refuse_version(s.version);
  if (!saw_end) return fail("truncated (missing end marker)");
  if (frames_owed != 0) return fail("unit with missing frames");
  if (!units_total.has_value() || *units_total != s.units.size()) {
    return fail("unit count mismatch");
  }
  if (!nodes_total.has_value() || *nodes_total != s.nodes.size()) {
    return fail("node count mismatch");
  }
  if (!frames_total.has_value() || *frames_total != frames_seen) {
    return fail("frame count mismatch");
  }
  if (!fps_total.has_value() || *fps_total != s.fingerprints.size()) {
    return fail("fingerprint count mismatch");
  }
  if (gedges_owed != 0) return fail("graph node with missing edges");
  if (!gnodes_total.has_value() || *gnodes_total != s.graph.nodes.size()) {
    return fail("graph node count mismatch");
  }
  if (!gedges_total.has_value() || *gedges_total != gedges_seen) {
    return fail("graph edge count mismatch");
  }
  if (!s.graph.nodes.empty() && !s.graph.have_root) {
    return fail("state graph without a root");
  }
  // Internal consistency the fair-cycle search would otherwise
  // WFD_CHECK-crash on: the root and every edge's destination must be
  // stored nodes.
  if (s.graph.have_root && !s.graph.nodes.empty() &&
      s.graph.index.find(s.graph.root) == nullptr) {
    return fail("state graph root is not a graph node");
  }
  std::size_t next_dst = 0;
  for (LiveGraphNode& n : s.graph.nodes) {
    for (LiveGraphEdge& e : n.edges) {
      const std::uint64_t* to = s.graph.index.find(gedge_dsts[next_dst++]);
      if (to == nullptr) return fail("graph edge into an unknown node");
      e.to = static_cast<std::uint32_t>(*to);
    }
  }
  for (const UnitState& u : s.units) {
    if (u.floor > u.frames.size()) {
      return fail("unit " + std::to_string(u.id) +
                  ": floor exceeds its frame count");
    }
  }
  const std::string why = validate(s.config);
  if (!why.empty()) return fail(why);
  return s;
}

bool save_snapshot(const std::string& path, const StateSnapshot& s,
                   std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  // Temp-file + rename: a run killed mid-write leaves the previous
  // snapshot (or nothing) in place, never a torn one.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return fail("cannot write " + tmp);
    out << to_text(s);
    out.flush();
    if (!out) return fail("write failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return fail("cannot rename " + tmp + " to " + path);
  }
  return true;
}

std::optional<StateSnapshot> load_snapshot(const std::string& path,
                                           std::string* error,
                                           bool* wrong_version) {
  if (wrong_version != nullptr) *wrong_version = false;
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_snapshot(buf.str(), error, wrong_version);
}

std::string resume_mismatch(const StateSnapshot& snap,
                            const SearchConfig& cfg) {
  // Compare the rendered search headers line by line, so every scenario
  // field and every reduction lever (including ones added later)
  // participates automatically — and only those: threads, budgets and
  // paths are execution-shape knobs a resume may change freely.
  std::ostringstream have;
  std::ostringstream want;
  search_header_to_text(have, snap.config);
  search_header_to_text(want, cfg);
  if (have.str() == want.str()) return "";
  std::istringstream ih(have.str());
  std::istringstream iw(want.str());
  std::string lh;
  std::string lw;
  while (std::getline(ih, lh) && std::getline(iw, lw)) {
    if (lh != lw) {
      return "snapshot is for a different scenario or search "
             "configuration: snapshot has '" +
             lh + "', this run has '" + lw + "'";
    }
  }
  return "snapshot is for a different scenario or search configuration";
}

}  // namespace wfd::explore
