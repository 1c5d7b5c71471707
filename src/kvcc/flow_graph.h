// The directed flow graph (vertex splitting) and the LOC-CUT primitive.
//
// Construction (paper Section 4.1, Fig. 3): every vertex v of the undirected
// graph becomes an arc v_in -> v_out of capacity 1; every undirected edge
// (u, v) becomes two arcs u_out -> v_in and v_out -> u_in of capacity 1.
// The max flow from u_out to v_in equals the local vertex connectivity
// kappa(u, v) for non-adjacent u, v (Menger), and every node of the network
// has in-degree 1 or out-degree 1, so Dinic runs in O(sqrt(n) m).
//
// LocCut is the one LOC-CUT probe: Dinic from scratch with early stop at
// k, O(min(sqrt(n), k) * m). Whenever kappa(u, v) < k, the cut is derived
// from the residual-reachable set of a true max flow — the minimal
// source-side min cut, which does not depend on the augmenting-path order.
#ifndef KVCC_KVCC_FLOW_GRAPH_H_
#define KVCC_KVCC_FLOW_GRAPH_H_

#include <cstdint>
#include <vector>

#include "flow/unit_flow_network.h"
#include "graph/graph.h"

namespace kvcc {

/// Reusable vertex-connectivity oracle over a fixed undirected graph.
/// Queries reset the flow state internally, so a single instance serves all
/// LOC-CUT calls of one GLOBAL-CUT invocation. Rebind the oracle to another
/// graph with Rebuild(): the flow network's buffers are recycled, so one
/// long-lived instance (e.g. per enumeration worker) runs the whole
/// recursion without reallocating per subgraph. RebindShared() goes one
/// step further and adopts another instance's already-built arc topology in
/// O(1) steady state — the "incremental rebind" used by the wavefront probe
/// pool, where one owner pays the O(m) build per GLOBAL-CUT invocation and
/// every pool slot borrows it.
///
/// Instances are not thread-safe, but they are affine: GLOBAL-CUT's probe
/// wavefronts keep a pool of these, one per executor slot, each lazily
/// RebindShared-bound ("epoch rebind", see GlobalCutScratch::probe_pool) to
/// the invocation's topology owner — concurrent probes then query disjoint
/// mutable state over one immutable topology and Graph, which is safe.
class DirectedFlowGraph {
 public:
  /// Unbound oracle; call Rebuild() before querying.
  DirectedFlowGraph() = default;
  explicit DirectedFlowGraph(const Graph& g);

  DirectedFlowGraph(const DirectedFlowGraph&) = delete;
  DirectedFlowGraph& operator=(const DirectedFlowGraph&) = delete;

  /// Rebinds the oracle to `g`, which must outlive all subsequent queries.
  /// Reuses the internal network storage. This instance becomes a topology
  /// owner (see RebindShared).
  void Rebuild(const Graph& g);

  /// Rebinds the oracle to `owner`'s graph by adopting its already-built
  /// arc topology instead of re-running the O(m) Rebuild: O(1) when this
  /// instance has seen a topology at least this large before (the pool
  /// steady state), O(m) tail-fill the first time. `owner` must stay bound
  /// and un-rebuilt for as long as this instance queries it; re-call after
  /// the owner's next Rebuild. Distinct borrowers of one owner may rebind
  /// and query concurrently (they only read the owner's immutable state).
  void RebindShared(const DirectedFlowGraph& owner);

  /// min(kappa(u, v), limit) for non-adjacent u != v. The caller must not
  /// pass adjacent vertices (kappa is infinite there; Lemma 5).
  std::int32_t LocalConnectivity(VertexId u, VertexId v, std::int32_t limit);

  /// LOC-CUT (paper Alg. 2 lines 12-17): empty result when u == v, u and v
  /// are adjacent, or kappa(u, v) >= k; otherwise a u-v vertex cut with
  /// fewer than k vertices (excluding u and v themselves).
  std::vector<VertexId> LocCut(VertexId u, VertexId v, std::uint32_t k);

  /// Monotone count of arcs inspected by all flow work on this oracle
  /// (KvccStats::probe_edges_touched is accumulated from deltas of this).
  std::uint64_t work_arcs() const { return network_.work_arcs(); }

  /// The bound graph (nullptr before the first Rebuild/RebindShared).
  const Graph* graph() const { return graph_; }

  static std::uint32_t InNode(VertexId v) { return 2 * v; }
  static std::uint32_t OutNode(VertexId v) { return 2 * v + 1; }

 private:
  /// Extracts the vertex cut after a LocalConnectivity call that returned a
  /// value < limit (i.e., a true max flow).
  std::vector<VertexId> ExtractVertexCut(VertexId u, VertexId v);

  const Graph* graph_ = nullptr;
  UnitFlowNetwork network_{0};
};

}  // namespace kvcc

#endif  // KVCC_KVCC_FLOW_GRAPH_H_
