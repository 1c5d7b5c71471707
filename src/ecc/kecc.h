// k-edge-connected components (k-ECC) — the comparison model of the paper's
// effectiveness study (Figs. 7-9, 14).
//
// A k-ECC is a maximal subgraph that cannot be disconnected by removing
// fewer than k edges. Unlike k-VCCs, k-ECCs never overlap, so the recursive
// split by a < k edge cut partitions the vertex set directly (no
// duplication). The implementation recursively peels the k-core and splits
// by Stoer–Wagner cuts with early termination (cf. Zhou et al., EDBT'12).
//
// A Stoer–Wagner run that finds no cut below k runs to completion, so it
// confirms its component with the component's exact edge connectivity
// lambda >= k. That value is reported beside the component: a caller that
// walks the levels k, k + 1, ... (the incremental update's regions) knows
// without another run that the component is its own k'-ECC for every
// k' <= lambda, since the k'-core peel then removes nothing and no cut falls
// below k'. The linear k <= 2 paths report k.
#ifndef KVCC_ECC_KECC_H_
#define KVCC_ECC_KECC_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace kvcc {

/// All k-ECCs of g (k >= 1), each as a sorted list of vertex ids of g;
/// the list is sorted lexicographically. Components have > k vertices
/// (a k-edge-connected graph has minimum degree >= k). If `connectivity`
/// is non-null it receives, per component in the same order, a lower
/// bound on the component's edge connectivity, at least k: the weight of
/// the Stoer–Wagner cut that confirmed it, or k on the k <= 2 paths.
std::vector<std::vector<VertexId>> KEdgeConnectedComponents(
    const Graph& g, std::uint32_t k,
    std::vector<std::uint32_t>* connectivity = nullptr);

/// True iff g is k-edge-connected: >= 2 vertices and every edge cut has at
/// least k edges.
bool IsKEdgeConnected(const Graph& g, std::uint32_t k);

}  // namespace kvcc

#endif  // KVCC_ECC_KECC_H_
