// k-core peeling and full core decomposition.
//
// The k-core of G is the maximal subgraph with minimum degree >= k. By the
// Whitney theorem (paper Thm 3) every k-VCC and every k-ECC is contained in
// the k-core, so peeling is the first size-reduction step of KVCC-ENUM
// (Alg. 1 line 2).
//
// The peel is a level-synchronous bucket kernel over one FIFO removal
// queue: each round removes every vertex whose degree fell below k in the
// previous round, decrementing neighbor degrees unconditionally and
// queueing a vertex exactly when its degree counter crosses k (old value
// == k). The round count is the peel depth of the graph. The residual
// degrees double as the removal marks (a vertex was removed iff its degree
// ends below k), and the queue doubles as the removal list.
#ifndef KVCC_GRAPH_K_CORE_H_
#define KVCC_GRAPH_K_CORE_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace kvcc {

/// Read-only view of a finished peel's removal marks: a vertex was removed
/// iff its residual degree ended below k (valid until the owning
/// KCoreScratch runs another peel).
struct PeelMask {
  const std::uint32_t* degree = nullptr;  ///< residual degrees of the peel
  std::uint32_t k = 0;                    ///< k of the peel

  /// True iff the peel removed v.
  bool Removed(VertexId v) const { return degree[v] < k; }
  /// True iff v survived the peel.
  bool Alive(VertexId v) const { return degree[v] >= k; }
};

/// Reusable scratch for KCoreVerticesInto: two arrays of n entries that
/// only ever grow. One instance serves every peel without per-call clearing
/// or allocation once warm.
struct KCoreScratch {
  std::vector<std::uint32_t> degree;  // residual degrees of the last peel
  std::vector<VertexId> queue;        // FIFO removal queue = removal list
  std::uint32_t k = 0;                // k of the last peel

  /// Removal marks of the most recent peel.
  PeelMask Mask() const { return {degree.data(), k}; }
};

/// Bucket k-core peel into caller-owned storage: `survivors` receives the
/// sorted vertices of the k-core, and `scratch.queue` the removed vertices,
/// each once, in removal order (query the marks via scratch.Mask()).
/// Allocation-free once scratch and survivors have grown to the largest
/// graph seen.
/// \return Number of level-synchronous peel rounds (the peel depth).
std::uint64_t KCoreVerticesInto(const Graph& g, std::uint32_t k,
                                KCoreScratch& scratch,
                                std::vector<VertexId>& survivors);

/// Vertices (sorted) surviving iterative removal of degree < k vertices.
/// O(n + m).
std::vector<VertexId> KCoreVertices(const Graph& g, std::uint32_t k);

/// Induced subgraph on KCoreVertices(g, k).
Graph KCoreSubgraph(const Graph& g, std::uint32_t k);

/// Core number of every vertex (Batagelj–Zaversnik bucket peeling, O(n + m)).
/// core[v] = largest k such that v belongs to the k-core.
std::vector<std::uint32_t> CoreNumbers(const Graph& g);

/// Degeneracy of the graph = max core number (0 for the empty graph).
std::uint32_t Degeneracy(const Graph& g);

}  // namespace kvcc

#endif  // KVCC_GRAPH_K_CORE_H_
