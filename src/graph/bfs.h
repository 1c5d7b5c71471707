// Breadth-first search utilities: distance vectors, eccentricities, and
// traversal orders used by GLOBAL-CUT* (farthest-first processing) and by
// the diameter metric.
#ifndef KVCC_GRAPH_BFS_H_
#define KVCC_GRAPH_BFS_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace kvcc {

/// Distance value for unreachable vertices.
inline constexpr std::uint32_t kUnreachable = static_cast<std::uint32_t>(-1);

/// Fills `dist` (resized to n) with hop distances from src; unreachable
/// vertices get kUnreachable. Returns the number of reached vertices.
std::uint32_t BfsDistances(const Graph& g, VertexId src,
                           std::vector<std::uint32_t>& dist);

/// (vertex, distance) of a farthest vertex from src within its component.
std::pair<VertexId, std::uint32_t> FarthestVertex(const Graph& g,
                                                  VertexId src);

/// Eccentricity of src within its component (max distance to any reachable
/// vertex).
std::uint32_t Eccentricity(const Graph& g, VertexId src);

}  // namespace kvcc

#endif  // KVCC_GRAPH_BFS_H_
