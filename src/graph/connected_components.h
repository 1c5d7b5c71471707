// Connected components of an undirected graph by BFS. Components are
// ordered by their smallest vertex.
#ifndef KVCC_GRAPH_CONNECTED_COMPONENTS_H_
#define KVCC_GRAPH_CONNECTED_COMPONENTS_H_

#include <vector>

#include "graph/graph.h"

namespace kvcc {

/// Vertex sets of all connected components, each sorted ascending; the list
/// is ordered by smallest contained vertex. O(n + m).
std::vector<std::vector<VertexId>> ConnectedComponents(const Graph& g);

/// True iff g is connected (the empty graph counts as connected).
bool IsConnected(const Graph& g);

}  // namespace kvcc

#endif  // KVCC_GRAPH_CONNECTED_COMPONENTS_H_
