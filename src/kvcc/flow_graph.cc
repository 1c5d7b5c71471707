#include "kvcc/flow_graph.h"

#include <algorithm>
#include <cassert>

namespace kvcc {

void FlowProbe::SetLink(VertexId from, VertexId to) {
  for (const VertexId x : {from, to}) {
    if (links_[x].epoch != flow_epoch_) links_[x] = {flow_epoch_, kNone, kNone};
  }
  links_[from].succ = to;
  links_[to].pred = from;
}

void FlowProbe::ClearLink(VertexId from, VertexId to) {
  assert(Succ(from) == to && Pred(to) == from);
  links_[from].succ = kNone;
  links_[to].pred = kNone;
}

// Warm path: one level BFS per Dinic phase over the pooled queue.
// kvcc-lint: no-alloc
bool FlowProbe::BuildLevels(const Graph& g, VertexId u, VertexId v) {
  if (++phase_epoch_ == 0) {  // Epoch wrapped: invalidate every stamp.
    for (Level& level : levels_) level.epoch = 0;
    phase_epoch_ = 1;
  }
  const std::uint32_t sink = In(v);
  queue_.clear();
  queue_.push_back(Out(u));  // kvcc-lint: reserved
  Visit(Out(u), 0);
  std::uint64_t work = 0;
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    const std::uint32_t node = queue_[head];
    const VertexId x = node >> 1;
    const std::uint32_t next = levels_[node].level + 1;
    if (IsIn(node)) {
      ++work;
      const std::uint32_t to = InSideMove(x);
      if (LevelOf(to) == kNone) {
        Visit(to, next);
        queue_.push_back(to);  // kvcc-lint: reserved
      }
      continue;
    }
    const VertexId succ = Succ(x);
    for (const VertexId y : g.Neighbors(x)) {
      ++work;
      if (y == succ || LevelOf(In(y)) != kNone || (x == u && Pred(y) == u)) {
        continue;
      }
      Visit(In(y), next);
      if (In(y) == sink) {  // Shortest sink level found; enough to phase.
        work_moves_ += work;
        return true;
      }
      queue_.push_back(In(y));  // kvcc-lint: reserved
    }
    if (Pred(x) != kNone) {  // x carries flow: x_out -> x_in is residual.
      ++work;
      if (LevelOf(In(x)) == kNone) {
        Visit(In(x), next);
        queue_.push_back(In(x));  // kvcc-lint: reserved
      }
    }
  }
  work_moves_ += work;
  return false;
}

// Warm path: one augmenting path by DFS through the level graph, over the
// pooled path and the per-node cursors.
// kvcc-lint: no-alloc
bool FlowProbe::Augment(const Graph& g, VertexId u, VertexId v) {
  const std::uint32_t sink = In(v);
  path_.clear();
  std::uint32_t node = Out(u);
  std::uint64_t work = 0;
  while (node != sink) {
    Level& at = levels_[node];
    const VertexId x = node >> 1;
    const std::uint32_t next = at.level + 1;
    std::uint32_t to = kNone;
    if (IsIn(node)) {
      ++work;
      const std::uint32_t move = InSideMove(x);
      if (LevelOf(move) == next) to = move;
    } else {
      const auto row = g.Neighbors(x);
      const VertexId succ = Succ(x);
      for (; at.cursor < row.size(); ++at.cursor) {
        ++work;
        const VertexId y = row[at.cursor];
        if (y != succ && LevelOf(In(y)) == next &&
            !(x == u && Pred(y) == u)) {
          to = In(y);
          break;
        }
      }
      if (to == kNone && Pred(x) != kNone) {
        ++work;
        if (LevelOf(In(x)) == next) to = In(x);
      }
    }
    if (to == kNone) {
      at.level = kNone;  // Dead end for the rest of this phase.
      if (path_.empty()) {
        work_moves_ += work;
        return false;
      }
      node = path_.back();
      path_.pop_back();
    } else {
      path_.push_back(node);  // kvcc-lint: reserved
      node = to;
    }
  }
  work_moves_ += work;
  path_.push_back(sink);  // kvcc-lint: reserved

  // A step between two vertices either cancels a link (y_in -> x_out, back
  // along x -> y) or adds one (x_out -> y_in); a step between one vertex's
  // own sides is its vertex arc, as Graph rows hold no self-loops.
  // Cancellations go first: a path may enter y_in on a new link and leave
  // it by cancelling y's old one, and both write pred[y].
  for (std::size_t i = 0; i + 1 < path_.size(); ++i) {
    const std::uint32_t a = path_[i];
    const std::uint32_t b = path_[i + 1];
    if (IsIn(a) && (a >> 1) != (b >> 1)) ClearLink(b >> 1, a >> 1);
  }
  for (std::size_t i = 0; i + 1 < path_.size(); ++i) {
    const std::uint32_t a = path_[i];
    const std::uint32_t b = path_[i + 1];
    if (!IsIn(a) && (a >> 1) != (b >> 1)) SetLink(a >> 1, b >> 1);
  }
  return true;
}

// Warm path: the flow's short paths, read off rows with no level graph.
// The free neighbours of u wait on the pooled path, which Augment clears.
// kvcc-lint: no-alloc
std::uint32_t FlowProbe::SeedPaths(const Graph& g, VertexId u, VertexId v,
                                   std::uint32_t limit) {
  // Each common neighbour w of u and v carries one path u -> w -> v, and
  // these paths share no inner vertex. One merge of the two sorted rows
  // finds them; it stamps every other entry of v's row and lists every
  // other entry of u's row. Each row entry read counts as one move.
  const auto row_u = g.Neighbors(u);
  const auto row_v = g.Neighbors(v);
  path_.clear();
  std::uint32_t flow = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (flow < limit && i < row_u.size() && j < row_v.size()) {
    if (row_u[i] < row_v[j]) {
      path_.push_back(row_u[i++]);  // kvcc-lint: reserved
    } else if (row_v[j] < row_u[i]) {
      marks_[row_v[j++]] = flow_epoch_;
    } else {
      SetLink(u, row_u[i]);
      SetLink(row_u[i], v);
      ++flow;
      ++i;
      ++j;
    }
  }
  if (flow < limit) {
    for (; j < row_v.size(); ++j) marks_[row_v[j]] = flow_epoch_;
    for (; i < row_u.size(); ++i) {
      path_.push_back(row_u[i]);  // kvcc-lint: reserved
    }
  }
  std::uint64_t work = i + j;

  // Every common neighbour now carries its unit, so the stamped entries
  // are exactly v's free neighbours b, and no listed neighbour a of u is
  // one of them. The first stamped entry of a's row gives the path
  // u -> a -> b -> v; clearing b's stamp keeps every inner vertex at one
  // unit.
  std::size_t free_b = row_v.size() - flow;
  for (std::size_t next = 0; flow < limit && free_b > 0 && next < path_.size();
       ++next) {
    const VertexId a = path_[next];
    for (const VertexId b : g.Neighbors(a)) {
      ++work;
      if (marks_[b] != flow_epoch_) continue;
      marks_[b] = 0;
      SetLink(u, a);
      SetLink(a, b);
      SetLink(b, v);
      --free_b;
      ++flow;
      break;
    }
  }
  work_moves_ += work;
  return flow;
}

// Warm path: one Dinic run on pooled, epoch-stamped state.
// kvcc-lint: no-alloc
std::uint32_t FlowProbe::LocalConnectivity(const Graph& g, VertexId u,
                                           VertexId v, std::uint32_t limit) {
  assert(u != v && !g.HasEdge(u, v));
  const std::size_t n = g.NumVertices();
  if (links_.size() < n) {
    // Grow-only: new entries carry epoch 0, which never equals a live one,
    // and the BFS queue and the path never hold more than 2n nodes.
    links_.resize(n);        // kvcc-lint: reserved
    marks_.resize(n);        // kvcc-lint: reserved
    levels_.resize(2 * n);   // kvcc-lint: reserved
    queue_.reserve(2 * n);   // kvcc-lint: reserved
    path_.reserve(2 * n);    // kvcc-lint: reserved
  }
  if (++flow_epoch_ == 0) {  // Epoch wrapped: invalidate every stamp.
    for (Links& links : links_) links.epoch = 0;
    std::fill(marks_.begin(), marks_.end(), 0);
    flow_epoch_ = 1;
  }
  std::uint32_t flow = SeedPaths(g, u, v, limit);
  while (flow < limit && BuildLevels(g, u, v)) {
    while (flow < limit && Augment(g, u, v)) ++flow;
  }
  return flow;
}

std::vector<VertexId> FlowProbe::LocCut(const Graph& g, VertexId u,
                                        VertexId v, std::uint32_t k) {
  if (u == v || g.HasEdge(u, v)) return {};  // Lemma 5.
  const std::uint32_t flow = LocalConnectivity(g, u, v, k);
  if (flow >= k) return {};
  // The flow is maximum, so the last level BFS failed and queued exactly
  // the residual-reachable set R. The `flow` saturated arcs leaving R are
  // the in-side arcs x_in -> x_out with x_out outside R, and the source
  // arcs u_out -> y_in with y_in outside R: any other out-side carrying
  // flow out of R is reachable only back through the in-side it feeds.
  // Removing x, respectively y, severs each.
  std::vector<VertexId> cut;
  for (const std::uint32_t node : queue_) {
    if (IsIn(node) && LevelOf(node + 1) == kNone) cut.push_back(node >> 1);
  }
  for (const VertexId y : g.Neighbors(u)) {
    if (LevelOf(In(y)) == kNone) cut.push_back(y);
  }
  assert(cut.size() == flow);
  std::sort(cut.begin(), cut.end());
  return cut;
}

}  // namespace kvcc
