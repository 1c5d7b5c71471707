#include "graph/bfs.h"

namespace kvcc {

std::uint32_t BfsDistances(const Graph& g, VertexId src,
                           std::vector<std::uint32_t>& dist) {
  dist.assign(g.NumVertices(), kUnreachable);
  std::vector<VertexId> queue;
  dist[src] = 0;
  queue.push_back(src);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const VertexId u = queue[head];
    for (VertexId w : g.Neighbors(u)) {
      if (dist[w] == kUnreachable) {
        dist[w] = dist[u] + 1;
        queue.push_back(w);
      }
    }
  }
  return static_cast<std::uint32_t>(queue.size());
}

std::pair<VertexId, std::uint32_t> FarthestVertex(const Graph& g,
                                                  VertexId src) {
  std::vector<std::uint32_t> dist;
  BfsDistances(g, src, dist);
  VertexId best = src;
  std::uint32_t best_dist = 0;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (dist[v] != kUnreachable && dist[v] > best_dist) {
      best = v;
      best_dist = dist[v];
    }
  }
  return {best, best_dist};
}

std::uint32_t Eccentricity(const Graph& g, VertexId src) {
  return FarthestVertex(g, src).second;
}

}  // namespace kvcc
