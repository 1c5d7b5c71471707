#include "flow/unit_flow_network.h"

#include <algorithm>
#include <cassert>

namespace kvcc {

UnitFlowNetwork::UnitFlowNetwork(std::uint32_t num_nodes) {
  Reinit(num_nodes);
}

void UnitFlowNetwork::Reinit(std::uint32_t num_nodes) {
  topo_ = &own_topo_;
  own_topo_.first.assign(num_nodes, kNone);
  own_topo_.next.clear();
  own_topo_.arc_to.clear();
  own_topo_.init_cap.clear();
  arc_cap_.clear();
  arc_init_cap_.clear();
  dirty_pairs_.clear();
  dirty_epoch_.clear();
  reset_epoch_ = 1;
  level_.resize(num_nodes);
  iter_.resize(num_nodes);
  node_epoch_.assign(num_nodes, 0);
  phase_epoch_ = 0;
}

std::uint32_t UnitFlowNetwork::AddArc(std::uint32_t from, std::uint32_t to,
                                      std::int32_t capacity) {
  assert(topo_ == &own_topo_ && "AddArc on an adopted topology");
  const auto forward = static_cast<std::uint32_t>(own_topo_.arc_to.size());
  own_topo_.arc_to.push_back(to);
  arc_cap_.push_back(capacity);
  own_topo_.next.push_back(own_topo_.first[from]);
  own_topo_.first[from] = forward;

  const auto backward = forward + 1;
  own_topo_.arc_to.push_back(from);
  arc_cap_.push_back(0);
  own_topo_.next.push_back(own_topo_.first[to]);
  own_topo_.first[to] = backward;

  own_topo_.init_cap.push_back(capacity);
  own_topo_.init_cap.push_back(0);
  arc_init_cap_.push_back(capacity);
  arc_init_cap_.push_back(0);
  dirty_epoch_.push_back(0);  // one stamp per (forward, reverse) pair
  return forward;
}

// Steady-state zero-allocation is asserted dynamically by
// memory_tracker_test.WarmOracleBindSharedAllocatesNothing; the grow-only
// resizes below run only when the adopted topology outgrows the private
// watermark (a cold-path event).
// kvcc-lint: no-alloc
void UnitFlowNetwork::AdoptTopology(const UnitFlowNetwork& owner) {
  // Restore any dirt left under the *previous* topology first: the dirty
  // pairs index into arc_init_cap_, our private grow-only copy, which is
  // valid regardless of what topo_ points at afterwards.
  ResetFlow();
  topo_ = owner.topo_;
  const std::size_t arcs = topo_->arc_to.size();
  // Grow-only sync: arcs below the watermark (arc_init_cap_.size()) already
  // hold their initial capacities — by the equal-initial-capacity contract
  // these are the same values the new topology assigns — so only the new
  // tail is written. In the steady state (same-or-smaller topology) this
  // whole block is a no-op.
  const std::size_t synced = arc_init_cap_.size();
  if (synced < arcs) {
    arc_cap_.resize(arcs);      // kvcc-lint: reserved
    arc_init_cap_.resize(arcs);  // kvcc-lint: reserved
    for (std::size_t i = synced; i < arcs; ++i) {
      arc_cap_[i] = topo_->init_cap[i];
      arc_init_cap_[i] = topo_->init_cap[i];
    }
    dirty_epoch_.resize(arcs / 2, 0);  // kvcc-lint: reserved
  }
#ifndef NDEBUG
  for (std::size_t i = 0; i < arcs; ++i) {
    assert(arc_init_cap_[i] == topo_->init_cap[i] &&
           "AdoptTopology: initial-capacity pattern mismatch");
    assert(arc_cap_[i] == topo_->init_cap[i]);
  }
#endif
  const std::size_t n = topo_->first.size();
  if (node_epoch_.size() < n) {
    // New nodes carry stamp 0, which never equals a live (monotone) epoch.
    node_epoch_.resize(n, 0);  // kvcc-lint: reserved
    level_.resize(n);          // kvcc-lint: reserved
    iter_.resize(n);           // kvcc-lint: reserved
  }
}

// Warm-path: one level BFS per Dinic phase on pooled buffers.
// kvcc-lint: no-alloc
bool UnitFlowNetwork::BuildLevels(std::uint32_t s, std::uint32_t t) {
  NextPhase();
  const Topology& topo = *topo_;
  bfs_queue_.clear();
  Visit(s, 0);
  // Grow-only member buffer: capacity reached high-water after the first
  // probe on this topology, every later push stays within it.
  bfs_queue_.push_back(s);  // kvcc-lint: reserved
  std::uint64_t work = 0;
  for (std::size_t head = 0; head < bfs_queue_.size(); ++head) {
    const std::uint32_t u = bfs_queue_[head];
    for (std::uint32_t arc = topo.first[u]; arc != kNone;
         arc = topo.next[arc]) {
      ++work;
      const std::uint32_t w = topo.arc_to[arc];
      if (arc_cap_[arc] > 0 && LevelOf(w) == kNone) {
        Visit(w, level_[u] + 1);
        if (w == t) {  // Shortest t level found; enough to phase.
          work_arcs_ += work;
          return true;
        }
        bfs_queue_.push_back(w);  // kvcc-lint: reserved
      }
    }
  }
  work_arcs_ += work;
  return LevelOf(t) != kNone;
}

// Warm-path: augmenting-path DFS over pooled cursors and path stack.
// kvcc-lint: no-alloc
std::int32_t UnitFlowNetwork::FindAugmentingPath(std::uint32_t s,
                                                 std::uint32_t t,
                                                 std::int32_t limit) {
  const Topology& topo = *topo_;
  path_.clear();
  std::uint32_t u = s;
  std::uint64_t work = 0;
  while (true) {
    if (u == t) {
      work_arcs_ += work;
      std::int32_t bottleneck = limit;
      for (std::uint32_t arc : path_) {
        bottleneck = std::min(bottleneck, arc_cap_[arc]);
      }
      for (std::uint32_t arc : path_) {
        MarkDirty(arc);
        arc_cap_[arc] -= bottleneck;
        arc_cap_[arc ^ 1] += bottleneck;
      }
      return bottleneck;
    }
    // u is on a path from s, so the level BFS visited it and seeded iter_[u].
    std::uint32_t& arc = iter_[u];
    while (arc != kNone &&
           !(arc_cap_[arc] > 0 && LevelOf(topo.arc_to[arc]) == level_[u] + 1)) {
      ++work;
      arc = topo.next[arc];
    }
    if (arc == kNone) {
      level_[u] = kNone;  // Dead end within this phase.
      if (path_.empty()) {
        work_arcs_ += work;
        return 0;
      }
      u = topo.arc_to[path_.back() ^ 1];  // Retreat to the arc's tail node.
      path_.pop_back();
    } else {
      ++work;
      path_.push_back(arc);  // kvcc-lint: reserved
      u = topo.arc_to[arc];
    }
  }
}

// kvcc-lint: no-alloc
std::int32_t UnitFlowNetwork::MaxFlow(std::uint32_t s, std::uint32_t t,
                                      std::int32_t limit) {
  std::int32_t flow = 0;
  while (flow < limit && BuildLevels(s, t)) {
    while (flow < limit) {
      const std::int32_t got = FindAugmentingPath(s, t, limit - flow);
      if (got == 0) break;
      flow += got;
    }
  }
  return flow;
}

// Warm-path: O(touched) undo of the last probe's flow.
// kvcc-lint: no-alloc
void UnitFlowNetwork::ResetFlow() {
  for (const std::uint32_t pair : dirty_pairs_) {
    arc_cap_[2 * pair] = arc_init_cap_[2 * pair];
    arc_cap_[2 * pair + 1] = arc_init_cap_[2 * pair + 1];
  }
  dirty_pairs_.clear();
  if (++reset_epoch_ == 0) {  // Epoch wrapped: invalidate all stamps.
    std::fill(dirty_epoch_.begin(), dirty_epoch_.end(), 0);
    reset_epoch_ = 1;
  }
}

std::vector<bool> UnitFlowNetwork::ResidualReachable(std::uint32_t s) const {
  const Topology& topo = *topo_;
  std::vector<bool> reachable(topo.first.size(), false);
  std::vector<std::uint32_t> queue;
  reachable[s] = true;
  queue.push_back(s);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::uint32_t u = queue[head];
    for (std::uint32_t arc = topo.first[u]; arc != kNone;
         arc = topo.next[arc]) {
      const std::uint32_t w = topo.arc_to[arc];
      if (arc_cap_[arc] > 0 && !reachable[w]) {
        reachable[w] = true;
        queue.push_back(w);
      }
    }
  }
  return reachable;
}

}  // namespace kvcc
