#include "graph/connected_components.h"

#include <cstdint>

namespace kvcc {

std::vector<std::vector<VertexId>> ConnectedComponents(const Graph& g) {
  constexpr std::uint32_t kUnlabelled = static_cast<std::uint32_t>(-1);
  const VertexId n = g.NumVertices();
  // Components are numbered in order of their smallest vertex.
  std::vector<std::uint32_t> component_of(n, kUnlabelled);
  std::vector<VertexId> queue;
  queue.reserve(n);
  std::uint32_t count = 0;
  for (VertexId start = 0; start < n; ++start) {
    if (component_of[start] != kUnlabelled) continue;
    component_of[start] = count;
    queue.assign(1, start);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      for (VertexId w : g.Neighbors(queue[head])) {
        if (component_of[w] == kUnlabelled) {
          component_of[w] = count;
          queue.push_back(w);
        }
      }
    }
    ++count;
  }
  std::vector<std::vector<VertexId>> components(count);
  for (VertexId v = 0; v < n; ++v) {
    components[component_of[v]].push_back(v);
  }
  return components;  // Vertex order within each component is ascending.
}

bool IsConnected(const Graph& g) { return ConnectedComponents(g).size() <= 1; }

}  // namespace kvcc
