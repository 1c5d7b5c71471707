// Unit-capacity max-flow (Dinic / Even–Tarjan) with early termination.
//
// The k-VCC algorithm tests local vertex connectivity by max-flow on a
// vertex-split "directed flow graph" in which every arc has capacity 1 and
// every node has in-degree 1 or out-degree 1; on such networks Dinic runs in
// O(sqrt(n) * m) (Even & Tarjan 1975). Because the algorithm only needs to
// know whether the flow reaches k, MaxFlow takes a `limit` and stops as soon
// as the flow value reaches it, giving O(min(sqrt(n), k) * m).
//
// The network is built for heavy reuse: the enumeration runs O(n * delta)
// flow probes against the same network, so per-probe state is restored in
// time proportional to what the probe touched, not to the network size.
//   * ResetFlow restores only the arcs dirtied by augmentation (a dirty-pair
//     list with epoch stamps), not the whole capacity array.
//   * Per-phase Dinic state (levels and arc iterators) is seeded lazily via
//     epoch stamps during the level BFS instead of O(n) assignments.
//   * Reinit() rebinds the object to a new node count while keeping every
//     internal buffer's capacity, so one instance serves a whole recursion.
//   * AdoptTopology() shares another instance's immutable arc arrays, so a
//     pool of networks probing one graph pays the O(m) build exactly once
//     ("incremental rebind"); only per-instance capacity/epoch state stays
//     private.
#ifndef KVCC_FLOW_UNIT_FLOW_NETWORK_H_
#define KVCC_FLOW_UNIT_FLOW_NETWORK_H_

#include <algorithm>
#include <cstdint>
#include <vector>

namespace kvcc {

/// Directed flow network with integer capacities and residual bookkeeping.
/// Arcs are stored in (forward, reverse) pairs: arc i's reverse is i ^ 1.
class UnitFlowNetwork {
 public:
  explicit UnitFlowNetwork(std::uint32_t num_nodes);

  /// Clears all arcs and resets the node count, reusing the allocated
  /// buffers. Equivalent to constructing a fresh network of `num_nodes`.
  /// Detaches from any adopted topology (the instance owns its own again).
  void Reinit(std::uint32_t num_nodes);

  /// Adds arc from->to with the given capacity (reverse arc capacity 0).
  /// Returns the forward arc index. Only valid on an instance that owns its
  /// topology (i.e., not after AdoptTopology without an intervening Reinit).
  std::uint32_t AddArc(std::uint32_t from, std::uint32_t to,
                       std::int32_t capacity = 1);

  /// Shares `owner`'s arc topology (adjacency structure) instead of
  /// rebuilding it arc by arc: O(1) in the steady state, O(new arcs) the
  /// first time this instance sees a larger topology. All flow state is
  /// reset as by ResetFlow().
  ///
  /// Contract: every topology adopted by one instance over its lifetime
  /// must assign the same initial capacity to the same arc index (true for
  /// any fixed AddArc capacity pattern, e.g. the unit [1, 0] pair pattern
  /// of the vertex-split networks). `owner`'s topology must outlive all
  /// queries on this instance and must not be mutated (Reinit/AddArc) while
  /// borrowed; re-adopt after the owner rebuilds. Concurrent AdoptTopology
  /// and queries on *distinct* borrower instances of one owner are safe —
  /// borrowers only read the owner's immutable arrays.
  void AdoptTopology(const UnitFlowNetwork& owner);

  std::uint32_t NumNodes() const {
    return static_cast<std::uint32_t>(topo_->first.size());
  }
  std::size_t NumArcs() const { return topo_->arc_to.size(); }

  /// Max flow from s to t, stopping early once the value reaches `limit`.
  /// Returns the achieved flow value (== true max flow when < limit).
  std::int32_t MaxFlow(std::uint32_t s, std::uint32_t t,
                       std::int32_t limit = kNoLimit);

  /// Restores all capacities to their construction-time values so the
  /// network can be reused for another (s, t) query. O(arcs dirtied since
  /// the previous reset), not O(total arcs).
  void ResetFlow();

  /// Nodes reachable from s along positive-residual arcs. Valid after
  /// MaxFlow; defines the minimum cut (reachable -> unreachable arcs).
  std::vector<bool> ResidualReachable(std::uint32_t s) const;

  std::uint32_t ArcTo(std::uint32_t arc) const { return topo_->arc_to[arc]; }
  std::int32_t ArcResidual(std::uint32_t arc) const { return arc_cap_[arc]; }
  /// Flow currently on forward arc `arc` (= residual of its reverse).
  std::int32_t ArcFlow(std::uint32_t arc) const { return arc_cap_[arc ^ 1]; }

  /// Monotone count of arc inspections performed by MaxFlow since
  /// construction — the per-probe work measure behind
  /// KvccStats::probe_edges_touched. Callers snapshot-and-diff.
  std::uint64_t work_arcs() const { return work_arcs_; }

  static constexpr std::int32_t kNoLimit = 0x3fffffff;

 private:
  // The immutable adjacency structure: linked arc lists plus the
  // construction-time capacities. Separated from the mutable flow state so
  // AdoptTopology can share one build across a pool of instances.
  struct Topology {
    // Linked adjacency: first[node] -> arc index, next[arc] -> next arc.
    std::vector<std::uint32_t> first;
    std::vector<std::uint32_t> next;
    std::vector<std::uint32_t> arc_to;
    std::vector<std::int32_t> init_cap;
  };

  bool BuildLevels(std::uint32_t s, std::uint32_t t);
  // Iterative DFS for one augmenting path in the level graph; returns the
  // pushed amount (0 when the phase is exhausted). Iterative so that long
  // augmenting paths cannot overflow the call stack.
  std::int32_t FindAugmentingPath(std::uint32_t s, std::uint32_t t,
                                  std::int32_t limit);

  /// Bumps the per-phase epoch, invalidating all Visit stamps.
  void NextPhase() {
    if (++phase_epoch_ == 0) {  // Epoch wrapped: invalidate all stamps.
      std::fill(node_epoch_.begin(), node_epoch_.end(), 0);
      phase_epoch_ = 1;
    }
  }

  /// Seeds v's per-phase state (BFS level + arc iterator) for the current
  /// phase epoch.
  void Visit(std::uint32_t v, std::uint32_t level) {
    node_epoch_[v] = phase_epoch_;
    level_[v] = level;
    iter_[v] = topo_->first[v];
  }

  /// v's BFS level in the current phase; kNone if the BFS never reached it.
  std::uint32_t LevelOf(std::uint32_t v) const {
    return node_epoch_[v] == phase_epoch_ ? level_[v] : kNone;
  }

  /// Records that `arc`'s capacity pair deviates from its initial values.
  void MarkDirty(std::uint32_t arc) {
    const std::uint32_t pair = arc >> 1;
    if (dirty_epoch_[pair] != reset_epoch_) {
      dirty_epoch_[pair] = reset_epoch_;
      dirty_pairs_.push_back(pair);
    }
  }

  Topology own_topo_;
  // The active topology: &own_topo_ (owner) or another instance's (after
  // AdoptTopology). Never null.
  const Topology* topo_ = &own_topo_;

  // Mutable per-instance flow state. arc_cap_ / arc_init_cap_ are sized
  // grow-only to the largest topology seen; arc_init_cap_ doubles as the
  // sync watermark for AdoptTopology (its size = arcs already initialized).
  std::vector<std::int32_t> arc_cap_;
  std::vector<std::int32_t> arc_init_cap_;

  // Arc pairs whose capacities differ from arc_init_cap_ (for ResetFlow).
  std::vector<std::uint32_t> dirty_pairs_;
  std::vector<std::uint32_t> dirty_epoch_;  // one stamp per arc pair
  std::uint32_t reset_epoch_ = 1;

  // Dinic per-phase state, seeded lazily against phase_epoch_.
  std::vector<std::uint32_t> level_;
  std::vector<std::uint32_t> iter_;
  std::vector<std::uint32_t> node_epoch_;  // one stamp per node
  std::uint32_t phase_epoch_ = 0;
  std::vector<std::uint32_t> bfs_queue_;
  std::vector<std::uint32_t> path_;

  std::uint64_t work_arcs_ = 0;

  static constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);
};

}  // namespace kvcc

#endif  // KVCC_FLOW_UNIT_FLOW_NETWORK_H_
