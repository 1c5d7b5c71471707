#include "support/brute_force.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <utility>
#include <vector>

#include "gen/barabasi_albert.h"
#include "gen/planted_vcc.h"
#include "graph/connected_components.h"
#include "graph/graph_builder.h"
#include "kvcc/connectivity.h"  // for kInfiniteConnectivity
#include "util/random.h"

namespace kvcc::testing {
namespace {

/// Is g - removed connected on its surviving vertices (and is at least one
/// vertex surviving)? `removed` is a bitmask over vertex ids.
bool ConnectedWithout(const Graph& g, std::uint32_t removed_mask) {
  const VertexId n = g.NumVertices();
  VertexId start = kInvalidVertex, alive = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (!(removed_mask >> v & 1)) {
      if (start == kInvalidVertex) start = v;
      ++alive;
    }
  }
  if (alive == 0) return false;
  std::uint32_t seen = 1u << start;
  std::vector<VertexId> queue{start};
  VertexId reached = 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    for (VertexId w : g.Neighbors(queue[head])) {
      if ((removed_mask >> w & 1) || (seen >> w & 1)) continue;
      seen |= 1u << w;
      ++reached;
      queue.push_back(w);
    }
  }
  return reached == alive;
}

/// Iterates all masks with `bits` bits set over `n` positions, calling f;
/// stops early if f returns true. Returns whether any f returned true.
template <typename F>
bool ForEachSubsetOfSize(VertexId n, std::uint32_t bits, F&& f) {
  if (bits > n) return false;
  // Gosper's hack over n-bit masks.
  std::uint32_t mask = bits == 0 ? 0 : (1u << bits) - 1;
  const std::uint32_t limit = 1u << n;
  if (bits == 0) return f(0u);
  while (mask < limit) {
    if (f(mask)) return true;
    const std::uint32_t c = mask & -mask;
    const std::uint32_t r = mask + c;
    mask = (((r ^ mask) >> 2) / c) | r;
  }
  return false;
}

}  // namespace

std::uint32_t BruteLocalVertexConnectivity(const Graph& g, VertexId u,
                                           VertexId v) {
  if (g.HasEdge(u, v)) return kInfiniteConnectivity;
  const VertexId n = g.NumVertices();
  const std::uint32_t forbidden = (1u << u) | (1u << v);
  for (std::uint32_t size = 0; size + 2 <= n; ++size) {
    bool found = ForEachSubsetOfSize(n, size, [&](std::uint32_t mask) {
      if (mask & forbidden) return false;
      if (ConnectedWithout(g, mask)) return false;
      // Check u and v specifically ended up in different components.
      std::uint32_t seen = 1u << u;
      std::vector<VertexId> queue{u};
      for (std::size_t head = 0; head < queue.size(); ++head) {
        for (VertexId w : g.Neighbors(queue[head])) {
          if ((mask >> w & 1) || (seen >> w & 1)) continue;
          seen |= 1u << w;
          queue.push_back(w);
        }
      }
      return !(seen >> v & 1);
    });
    if (found) return size;
  }
  return kInfiniteConnectivity;
}

bool BruteIsKVertexConnected(const Graph& g, std::uint32_t k) {
  const VertexId n = g.NumVertices();
  if (k == 0) return true;
  if (n <= k) return false;
  for (std::uint32_t size = 0; size < k; ++size) {
    const bool disconnecting =
        ForEachSubsetOfSize(n, size, [&](std::uint32_t mask) {
          return !ConnectedWithout(g, mask);
        });
    if (disconnecting) return false;
  }
  return true;
}

std::uint32_t BruteVertexConnectivity(const Graph& g) {
  const VertexId n = g.NumVertices();
  if (n <= 1) return 0;
  for (std::uint32_t size = 0; size + 2 <= n; ++size) {
    const bool disconnecting =
        ForEachSubsetOfSize(n, size, [&](std::uint32_t mask) {
          return !ConnectedWithout(g, mask);
        });
    if (disconnecting) return size;
  }
  return n - 1;  // Complete graph.
}

std::vector<std::vector<VertexId>> BruteKVccs(const Graph& g,
                                              std::uint32_t k) {
  const VertexId n = g.NumVertices();
  std::vector<std::uint32_t> candidates;
  for (std::uint32_t mask = 1; mask < (1u << n); ++mask) {
    if (static_cast<std::uint32_t>(__builtin_popcount(mask)) <= k) continue;
    std::vector<VertexId> members;
    for (VertexId v = 0; v < n; ++v) {
      if (mask >> v & 1) members.push_back(v);
    }
    const Graph sub = g.InducedSubgraph(members);
    if (BruteIsKVertexConnected(sub, k)) candidates.push_back(mask);
  }
  std::vector<std::vector<VertexId>> result;
  for (std::uint32_t mask : candidates) {
    bool maximal = true;
    for (std::uint32_t other : candidates) {
      if (other != mask && (mask & other) == mask) {
        maximal = false;
        break;
      }
    }
    if (!maximal) continue;
    std::vector<VertexId> members;
    for (VertexId v = 0; v < n; ++v) {
      if (mask >> v & 1) members.push_back(v);
    }
    result.push_back(std::move(members));
  }
  std::sort(result.begin(), result.end());
  return result;
}

std::uint64_t BruteMinEdgeCutWeight(const Graph& g) {
  const VertexId n = g.NumVertices();
  if (n < 2) return std::numeric_limits<std::uint64_t>::max();
  std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
  // Enumerate bipartitions with vertex 0 always on side A.
  for (std::uint32_t mask = 1; mask < (1u << (n - 1)); ++mask) {
    const std::uint32_t side = mask << 1 | 0;  // Vertex 0 stays on side A.
    std::uint64_t crossing = 0;
    for (VertexId u = 0; u < n; ++u) {
      for (VertexId v : g.Neighbors(u)) {
        if (u < v && ((side >> u & 1) != (side >> v & 1))) ++crossing;
      }
    }
    best = std::min(best, crossing);
  }
  return best;
}

bool BruteIsStrongSideVertex(const Graph& g, VertexId u, std::uint32_t k) {
  const auto nbrs = g.Neighbors(u);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
      const auto a = g.Neighbors(nbrs[i]);
      const auto b = g.Neighbors(nbrs[j]);
      if (std::binary_search(a.begin(), a.end(), nbrs[j])) continue;
      std::vector<VertexId> common;
      std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                            std::back_inserter(common));
      if (common.size() < k) return false;
    }
  }
  return true;
}

Graph RandomConnectedGraph(VertexId n, std::uint64_t extra_edges,
                           std::uint64_t seed) {
  GraphBuilder builder(n);
  Rng rng(seed);
  // Random spanning tree: attach each vertex to a uniform earlier vertex.
  for (VertexId v = 1; v < n; ++v) {
    builder.AddEdge(v, static_cast<VertexId>(rng.NextBounded(v)));
  }
  for (std::uint64_t e = 0; e < extra_edges; ++e) {
    const auto u = static_cast<VertexId>(rng.NextBounded(n));
    const auto v = static_cast<VertexId>(rng.NextBounded(n));
    builder.AddEdge(u, v);  // Self-loops / duplicates dropped by builder.
  }
  return builder.Build();
}

Graph SplitCoreGraph(std::uint32_t k, std::uint64_t seed) {
  PlantedVccConfig planted;
  planted.num_blocks = 16;
  planted.block_size_min = 34;
  planted.block_size_max = 40;
  planted.connectivity = 8;
  planted.overlap = 1;
  planted.bridge_edges = 1;
  std::vector<Graph> parts;
  planted.seed = seed;
  parts.push_back(GeneratePlantedVcc(planted).graph);
  parts.push_back(BarabasiAlbert(560, k, seed + 1));
  planted.seed = seed + 2;
  parts.push_back(GeneratePlantedVcc(planted).graph);

  std::vector<std::pair<VertexId, VertexId>> edges;
  VertexId base = 0;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    for (const auto& [u, v] : parts[i].Edges()) {
      edges.emplace_back(base + u, base + v);
    }
    const VertexId next_base = base + parts[i].NumVertices();
    if (i + 1 < parts.size()) {
      // The connector: adjacent to the first vertex of this part and of
      // the next one, so the peel removes it at any k >= 3.
      edges.emplace_back(next_base, base);
      edges.emplace_back(next_base, next_base + 1);
      base = next_base + 1;
    } else {
      base = next_base;
    }
  }
  return Graph::FromEdges(base, edges);
}

Graph DisconnectedFixture() {
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId i = 0; i < 5; ++i) {  // clique on {2..6}
    for (VertexId j = i + 1; j < 5; ++j) edges.emplace_back(2 + i, 2 + j);
  }
  for (VertexId i = 0; i < 4; ++i) {  // clique on {10..13}
    for (VertexId j = i + 1; j < 4; ++j) edges.emplace_back(10 + i, 10 + j);
  }
  edges.emplace_back(15, 16);
  return Graph::FromEdges(17, edges);
}

}  // namespace kvcc::testing
