#include "kvcc/connectivity.h"

#include <algorithm>

#include "graph/connected_components.h"
#include "kvcc/flow_graph.h"

namespace kvcc {

std::uint32_t LocalVertexConnectivity(const Graph& g, VertexId u, VertexId v,
                                      std::uint32_t limit) {
  if (u == v || g.HasEdge(u, v)) return kInfiniteConnectivity;
  // kappa(u,v) <= min(d(u), d(v)) <= n - 2, so n is a safe "exact" limit.
  return FlowProbe().LocalConnectivity(g, u, v,
                                       limit == 0 ? g.NumVertices() : limit);
}

bool IsKVertexConnected(const Graph& g, std::uint32_t k) {
  if (k == 0) return true;
  const VertexId n = g.NumVertices();
  if (n <= k) return false;  // Definition 2 requires |V| > k.
  if (!IsConnected(g)) return false;
  if (k == 1) return true;

  // Esfahanian–Hakimi: pick any source u; if a cut S (|S| < k) avoids u,
  // phase 1 finds kappa(u, v) < k for v behind S; if every such cut
  // contains u, phase 2 finds a neighbor pair with kappa < k (Lemma 4).
  const VertexId source = g.MinDegreeVertex();
  if (g.Degree(source) < k) return false;  // Whitney: kappa <= delta.
  FlowProbe probe;
  for (VertexId v = 0; v < n; ++v) {
    if (v == source || g.HasEdge(source, v)) continue;
    if (probe.LocalConnectivity(g, source, v, k) < k) return false;
  }
  const auto nbrs = g.Neighbors(source);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
      if (g.HasEdge(nbrs[i], nbrs[j])) continue;
      if (probe.LocalConnectivity(g, nbrs[i], nbrs[j], k) < k) return false;
    }
  }
  return true;
}

std::uint32_t VertexConnectivity(const Graph& g) {
  const VertexId n = g.NumVertices();
  if (n <= 1) return 0;
  if (!IsConnected(g)) return 0;

  const VertexId source = g.MinDegreeVertex();
  std::uint32_t best = g.Degree(source);  // kappa <= delta (Whitney).
  if (best == 0) return 0;

  FlowProbe probe;
  for (VertexId v = 0; v < n && best > 0; ++v) {
    if (v == source || g.HasEdge(source, v)) continue;
    best = std::min(best, probe.LocalConnectivity(g, source, v, best));
  }
  const auto nbrs = g.Neighbors(source);
  for (std::size_t i = 0; i < nbrs.size() && best > 0; ++i) {
    for (std::size_t j = i + 1; j < nbrs.size() && best > 0; ++j) {
      if (g.HasEdge(nbrs[i], nbrs[j])) continue;
      best = std::min(best,
                      probe.LocalConnectivity(g, nbrs[i], nbrs[j], best));
    }
  }
  // If no non-adjacent pair was ever tested the graph is complete and
  // best == delta == n - 1, which is correct for K_n.
  return best;
}

}  // namespace kvcc
