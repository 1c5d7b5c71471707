#include "kvcc/flow_graph.h"

#include <cassert>

namespace kvcc {

DirectedFlowGraph::DirectedFlowGraph(const Graph& g) { Rebuild(g); }

void DirectedFlowGraph::Rebuild(const Graph& g) {
  graph_ = &g;
  network_.Reinit(2 * g.NumVertices());
  // Vertex arcs first: arc index of v's arc is 2v (its reverse 2v+1), which
  // makes vertex-arc lookups in ExtractVertexCut index-free.
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    network_.AddArc(InNode(v), OutNode(v), 1);
  }
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    for (VertexId v : g.Neighbors(u)) {
      // Each undirected edge contributes u_out -> v_in from both endpoints'
      // iterations.
      network_.AddArc(OutNode(u), InNode(v), 1);
    }
  }
}

// Warm-path: O(1) steady-state rebind (see AdoptTopology).
// kvcc-lint: no-alloc
void DirectedFlowGraph::RebindShared(const DirectedFlowGraph& owner) {
  assert(owner.graph_ != nullptr && "RebindShared from an unbound owner");
  graph_ = owner.graph_;
  network_.AdoptTopology(owner.network_);
}

// Warm-path: one exact Dinic probe on the pooled network.
// kvcc-lint: no-alloc
std::int32_t DirectedFlowGraph::LocalConnectivity(VertexId u, VertexId v,
                                                  std::int32_t limit) {
  assert(graph_ != nullptr);
  assert(u != v);
  network_.ResetFlow();
  return network_.MaxFlow(OutNode(u), InNode(v), limit);
}

std::vector<VertexId> DirectedFlowGraph::LocCut(VertexId u, VertexId v,
                                                std::uint32_t k) {
  if (u == v || graph_->HasEdge(u, v)) return {};  // Lemma 5.
  const std::int32_t flow =
      LocalConnectivity(u, v, static_cast<std::int32_t>(k));
  if (flow >= static_cast<std::int32_t>(k)) return {};
  return ExtractVertexCut(u, v);
}

std::vector<VertexId> DirectedFlowGraph::ExtractVertexCut(VertexId u,
                                                          VertexId v) {
  const std::vector<bool> reachable =
      network_.ResidualReachable(OutNode(u));
  std::vector<bool> in_cut(graph_->NumVertices(), false);
  std::vector<VertexId> cut;

  auto add = [&](VertexId w) {
    assert(w != u && w != v);
    if (!in_cut[w]) {
      in_cut[w] = true;
      cut.push_back(w);
    }
  };

  // Vertex arcs crossing the residual cut: w itself is a cut vertex.
  for (VertexId w = 0; w < graph_->NumVertices(); ++w) {
    if (reachable[InNode(w)] && !reachable[OutNode(w)]) add(w);
  }
  // Edge arcs a_out -> b_in crossing the cut. Any source-to-sink path using
  // such an arc must next traverse b's vertex arc (b_in has a single
  // outgoing arc), so removing b also severs it — unless b is the sink v,
  // in which case the path came through a's vertex arc and removing a works
  // (a cannot be the source u because u and v are non-adjacent).
  for (VertexId a = 0; a < graph_->NumVertices(); ++a) {
    if (!reachable[OutNode(a)]) continue;
    for (VertexId b : graph_->Neighbors(a)) {
      if (reachable[InNode(b)]) continue;
      if (b != v) {
        // Arcs into u_in never carry flow, so b == u cannot occur here.
        add(b);
      } else {
        add(a);
      }
    }
  }
  assert(!cut.empty());
  return cut;
}

}  // namespace kvcc
