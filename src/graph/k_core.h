// k-core peeling and full core decomposition.
//
// The k-core of G is the maximal subgraph with minimum degree >= k. By the
// Whitney theorem (paper Thm 3) every k-VCC and every k-ECC is contained in
// the k-core, so peeling is the first size-reduction step of KVCC-ENUM
// (Alg. 1 line 2).
//
// The peel is a level-synchronous bucket kernel: each round removes every
// vertex whose degree fell below k in the previous round, decrementing
// neighbor degrees unconditionally and claiming a vertex exactly when its
// degree counter crosses k (old value == k). The round count is the peel
// depth of the graph.
#ifndef KVCC_GRAPH_K_CORE_H_
#define KVCC_GRAPH_K_CORE_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace kvcc {

/// Read-only view of a finished peel's removal marks (valid until the
/// owning KCoreScratch is rebound to another peel).
struct PeelMask {
  const std::uint64_t* stamp = nullptr;  ///< removed_stamp of the scratch
  std::uint64_t epoch = 0;               ///< epoch of the peel

  /// True iff the peel removed v.
  bool Removed(VertexId v) const { return stamp[v] == epoch; }
  /// True iff v survived the peel.
  bool Alive(VertexId v) const { return stamp[v] != epoch; }
};

/// Reusable scratch for KCoreVerticesInto (epoch-stamped removal marks,
/// SweepContext shape: stamps start at 0, epochs at 1, payload arrays only
/// ever grow). One instance serves every peel without per-call clearing or
/// allocation once warm.
struct KCoreScratch {
  std::uint64_t epoch = 0;
  std::vector<std::uint64_t> removed_stamp;  // == epoch ? removed : alive
  std::vector<std::uint32_t> degree;         // live residual degrees
  std::vector<VertexId> frontier;            // current peel round
  std::vector<VertexId> next;                // next peel round

  /// Removal marks of the most recent peel.
  PeelMask Mask() const { return {removed_stamp.data(), epoch}; }
};

/// Bucket k-core peel into caller-owned storage: `survivors` receives the
/// sorted vertices of the k-core and `scratch` keeps the removal marks
/// (query via scratch.Mask()). Allocation-free once scratch and survivors
/// have grown to the largest graph seen.
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
