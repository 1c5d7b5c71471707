// The LOC-CUT probe: max flow on the directed flow graph, run on the
// undirected graph's own CSR without building the flow graph.
//
// The directed flow graph (paper Section 4.1, Fig. 3) splits every vertex x
// into an in-side x_in and an out-side x_out joined by the arc
// x_in -> x_out, and turns every edge (x, y) into the arcs x_out -> y_in
// and y_out -> x_in, all of capacity 1. The max flow from u_out to v_in is
// the local vertex connectivity kappa(u, v) of non-adjacent u, v (Menger).
//
// FlowProbe runs Dinic on that graph implicitly, as the local vertex-cut
// procedure of Nanongkai, Saranurak and Yingchareonthawornchai (arXiv
// 1905.05329) explores it:
//   * Every vertex other than the source u and the sink v carries at most
//     one unit, so the flow is two links per vertex: the flow predecessor
//     pred[x] (pred[x]_out -> x_in carries flow) and the flow successor
//     succ[x] (x_out -> succ[x]_in does). The arc x_out -> y_in is
//     saturated iff succ[x] == y, or pred[y] == u when x is the source u,
//     because the source and the sink hold several links.
//   * An out-side x_out scans x's CSR row once: every unsaturated
//     x_out -> y_in, then back to x_in when x carries flow.
//   * An in-side x_in has exactly one move: to x_out when x is free, else
//     back to pred[x]'s out-side, cancelling that link.
//   * Before the first level BFS, the flow is seeded with short paths
//     read off rows, each pass stopping at the limit:
//       - two hops: one merge of the sorted rows of u and v routes a unit
//         through each common neighbour w (u -> w -> v; the paper's
//         common-neighbour argument, Thm 8), stamps the other entries of
//         v's row and lists the other entries of u's row;
//       - three hops: for each listed neighbour a of u, the first stamped
//         entry b of a's row gives u -> a -> b -> v, and b's stamp is
//         cleared.
//     The seeded flow is feasible: every common neighbour carries its unit
//     before the second pass, so the stamped b are exactly v's free
//     neighbours, no a is one of them, and each inner vertex carries one
//     unit. Seeding reads the rows of u and v once and at most the rows of
//     u's free neighbours, which the first level BFS would scan in full
//     before it could reach v. Dinic then searches only for what is left,
//     and a pair whose short paths reach the limit runs no BFS.
// Dinic stops as soon as the flow reaches the limit, O(min(sqrt(n), k) * m).
// When the flow ends below it, the last level BFS failed to reach v_in, so
// the nodes it levelled are exactly the residual-reachable set: the minimal
// source-side min cut. Every maximum flow leaves the same residual-reachable
// set, so that cut depends neither on the augmenting-path order nor on the
// seeded paths. LocCut reads its cut off that BFS.
//
// A probe binds no graph. Its per-vertex state is epoch-stamped and grows
// only, so one probe answers queries on graph after graph, of any size,
// with no reset and, once warm, no allocation.
#ifndef KVCC_KVCC_FLOW_GRAPH_H_
#define KVCC_KVCC_FLOW_GRAPH_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace kvcc {

/// Reusable LOC-CUT probe. Not thread-safe: concurrent probes each use
/// their own instance and may share one immutable Graph.
class FlowProbe {
 public:
  /// min(kappa(u, v), limit) in g, for u != v non-adjacent (kappa is
  /// infinite for adjacent pairs; Lemma 5).
  std::uint32_t LocalConnectivity(const Graph& g, VertexId u, VertexId v,
                                  std::uint32_t limit);

  /// LOC-CUT (paper Alg. 2 lines 12-17): empty when u == v, u and v are
  /// adjacent, or kappa(u, v) >= k; otherwise a minimum u-v vertex cut
  /// (kappa(u, v) < k vertices, excluding u and v), in ascending order.
  std::vector<VertexId> LocCut(const Graph& g, VertexId u, VertexId v,
                               std::uint32_t k);

  /// Monotone count of residual moves examined by this probe's flow work,
  /// plus one per row entry the seeding passes read
  /// (KvccStats::probe_edges_touched is accumulated from deltas of this).
  std::uint64_t work_moves() const { return work_moves_; }

 private:
  static constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);

  // Split-graph node ids: 2x is x_in, 2x + 1 is x_out.
  static std::uint32_t In(VertexId x) { return 2 * x; }
  static std::uint32_t Out(VertexId x) { return 2 * x + 1; }
  static bool IsIn(std::uint32_t node) { return (node & 1) == 0; }

  // A vertex's flow links; valid in the probe whose epoch they carry.
  struct Links {
    std::uint32_t epoch = 0;
    VertexId pred = kNone;
    VertexId succ = kNone;
  };
  // A node's Dinic phase state; valid in the phase whose epoch it carries.
  // `cursor` is an out-side's position in its row (the row's length stands
  // for the move back to the in-side).
  struct Level {
    std::uint32_t epoch = 0;
    std::uint32_t level = kNone;
    std::uint32_t cursor = 0;
  };

  std::uint32_t SeedPaths(const Graph& g, VertexId u, VertexId v,
                          std::uint32_t limit);
  bool BuildLevels(const Graph& g, VertexId u, VertexId v);
  bool Augment(const Graph& g, VertexId u, VertexId v);

  VertexId Pred(VertexId x) const {
    return links_[x].epoch == flow_epoch_ ? links_[x].pred : kNone;
  }
  VertexId Succ(VertexId x) const {
    return links_[x].epoch == flow_epoch_ ? links_[x].succ : kNone;
  }
  // x_in's one residual move.
  std::uint32_t InSideMove(VertexId x) const {
    const VertexId p = Pred(x);
    return p == kNone ? Out(x) : Out(p);
  }
  void SetLink(VertexId from, VertexId to);
  void ClearLink(VertexId from, VertexId to);

  std::uint32_t LevelOf(std::uint32_t node) const {
    return levels_[node].epoch == phase_epoch_ ? levels_[node].level : kNone;
  }
  void Visit(std::uint32_t node, std::uint32_t level) {
    levels_[node] = {phase_epoch_, level, 0};
  }

  std::vector<Links> links_;    // one per vertex
  // One per vertex: flow_epoch_ marks a free neighbour of the sink that the
  // three-hop pass may still route through; 0 never equals a live epoch.
  std::vector<std::uint32_t> marks_;
  std::vector<Level> levels_;   // one per split-graph node
  std::uint32_t flow_epoch_ = 0;
  std::uint32_t phase_epoch_ = 0;
  std::vector<std::uint32_t> queue_;  // the last level BFS, in order
  // The augmenting path's nodes; while seeding, u's free neighbours.
  std::vector<std::uint32_t> path_;
  std::uint64_t work_moves_ = 0;
};

}  // namespace kvcc

#endif  // KVCC_KVCC_FLOW_GRAPH_H_
