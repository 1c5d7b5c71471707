// Connected components of an undirected graph by BFS labelling (an
// allocating wrapper plus a pooled-scratch variant for hot callers).
// Component ids are canonical: they increase with each component's
// smallest vertex.
#ifndef KVCC_GRAPH_CONNECTED_COMPONENTS_H_
#define KVCC_GRAPH_CONNECTED_COMPONENTS_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace kvcc {

/// Assigns a component id in [0, count) to every vertex.
struct ComponentLabeling {
  std::vector<std::uint32_t> component_of;  // size n
  std::uint32_t count = 0;
};

/// Reusable scratch for LabelComponentsInto (epoch-stamped visited marks,
/// SweepContext shape: stamps start at 0, epochs at 1, payload arrays only
/// ever grow). One instance per worker serves every call without per-call
/// clearing or allocation once warm.
struct CcScratch {
  std::uint64_t epoch = 0;
  std::vector<std::uint64_t> visited_stamp;
  std::vector<VertexId> queue;
};

/// BFS-based component labeling. O(n + m).
ComponentLabeling LabelComponents(const Graph& g);

/// LabelComponents into caller-owned storage: `out.component_of` is
/// resized to n and fully rewritten, `scratch` supplies the BFS queue and
/// the epoch-stamped visited marks. Allocation-free once both have grown
/// to the largest graph seen.
void LabelComponentsInto(const Graph& g, CcScratch& scratch,
                         ComponentLabeling& out);

/// Vertex sets of all connected components, each sorted ascending; the list
/// is ordered by smallest contained vertex.
std::vector<std::vector<VertexId>> ConnectedComponents(const Graph& g);

/// True iff g is connected (the empty graph counts as connected).
bool IsConnected(const Graph& g);

}  // namespace kvcc

#endif  // KVCC_GRAPH_CONNECTED_COMPONENTS_H_
