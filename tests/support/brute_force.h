// Exponential reference implementations used as oracles in property tests.
// They rely on nothing but BFS connectivity, so they are independent of the
// max-flow / certificate / sweep machinery under test.
#ifndef KVCC_TESTS_SUPPORT_BRUTE_FORCE_H_
#define KVCC_TESTS_SUPPORT_BRUTE_FORCE_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace kvcc::testing {

/// kappa(u, v) by enumerating removal sets of increasing size;
/// kvcc::kInfiniteConnectivity (== UINT32_MAX) when (u,v) in E.
/// Feasible for n <= ~16.
std::uint32_t BruteLocalVertexConnectivity(const Graph& g, VertexId u,
                                           VertexId v);

/// Definition-2 check by enumerating all removal sets of size < k.
bool BruteIsKVertexConnected(const Graph& g, std::uint32_t k);

/// kappa(g) by the definition (smallest disconnecting set; n-1 for K_n).
std::uint32_t BruteVertexConnectivity(const Graph& g);

/// Theorem 8 by the definition: every pair of u's neighbours is adjacent
/// or has at least k common neighbours. No degree cap, no memo.
bool BruteIsStrongSideVertex(const Graph& g, VertexId u, std::uint32_t k);

/// All k-VCCs by enumerating every vertex subset (n <= ~14): keep subsets
/// W with |W| > k whose induced subgraph is k-vertex-connected, drop
/// non-maximal ones. Output format matches KvccResult::components.
std::vector<std::vector<VertexId>> BruteKVccs(const Graph& g,
                                              std::uint32_t k);

/// Global minimum edge cut weight by enumerating bipartitions (n <= ~14).
/// Returns UINT64_MAX for graphs with < 2 vertices.
std::uint64_t BruteMinEdgeCutWeight(const Graph& g);

/// Uniform random connected graph: random spanning tree plus `extra_edges`
/// uniform random extra edges. Deterministic in seed.
Graph RandomConnectedGraph(VertexId n, std::uint64_t extra_edges,
                           std::uint64_t seed);

/// Three parts of at least 512 vertices each, every part of minimum degree
/// at least k: two chains of planted 8-connected blocks (one vertex shared
/// and one edge between neighbouring blocks) and a Barabási–Albert graph
/// with k edges per new vertex. Consecutive parts are joined through one
/// connector vertex of degree 2, so the graph is connected but its k-core
/// falls into the three parts. Needs 4 <= k <= 8. Deterministic in seed.
Graph SplitCoreGraph(std::uint32_t k, std::uint64_t seed);

/// 17 vertices: a 5-clique on {2..6}, a 4-clique on {10..13}, the edge
/// (15, 16), and isolated vertices 0, 1, 7, 8, 9 and 14 — a graph whose
/// components are numbered with gaps.
Graph DisconnectedFixture();

}  // namespace kvcc::testing

#endif  // KVCC_TESTS_SUPPORT_BRUTE_FORCE_H_
