// Vertex-connectivity queries built directly on the LOC-CUT flow probe.
//
// These are deliberately independent of GLOBAL-CUT's certificate and sweep
// machinery (they run on the full graph with no pruning) so they can serve
// as a trustworthy oracle in tests and as a simple public API for one-off
// connectivity questions.
#ifndef KVCC_KVCC_CONNECTIVITY_H_
#define KVCC_KVCC_CONNECTIVITY_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace kvcc {

/// Local connectivity value reported for adjacent pairs (no u-v cut exists).
inline constexpr std::uint32_t kInfiniteConnectivity =
    static_cast<std::uint32_t>(-1);

/// kappa(u, v): minimum number of vertices (excluding u, v) whose removal
/// disconnects u from v; kInfiniteConnectivity when (u,v) is an edge. The
/// search stops at `limit` (result is min(kappa, limit)) unless limit is 0,
/// meaning exact.
std::uint32_t LocalVertexConnectivity(const Graph& g, VertexId u, VertexId v,
                                      std::uint32_t limit = 0);

/// True iff g is k-vertex-connected per Definition 2: |V| > k and no vertex
/// cut of fewer than k vertices exists. Every graph is 0-connected.
bool IsKVertexConnected(const Graph& g, std::uint32_t k);

/// kappa(g) (Definition 1): 0 for disconnected or single-vertex graphs,
/// n - 1 for the complete graph. Uses the Esfahanian–Hakimi reduction:
/// kappa = min over (source vs non-neighbors) and (pairs of source
/// neighbors).
std::uint32_t VertexConnectivity(const Graph& g);

}  // namespace kvcc

#endif  // KVCC_KVCC_CONNECTIVITY_H_
