#include "support/referee.h"

#include <algorithm>
#include <cassert>

namespace kvcc::testing {
namespace {

/// Explicit vertex-split network: node 2x is x's in-side, node 2x + 1 its
/// out-side. Arcs come in pairs, and arc i's reverse is arc i ^ 1.
struct SplitNetwork {
  std::vector<std::uint32_t> head;             // arc -> target node
  std::vector<int> residual;                   // arc -> residual capacity
  std::vector<std::vector<std::uint32_t>> out;  // node -> arcs leaving it

  void AddArc(std::uint32_t from, std::uint32_t to) {
    out[from].push_back(static_cast<std::uint32_t>(head.size()));
    head.push_back(to);
    residual.push_back(1);
    out[to].push_back(static_cast<std::uint32_t>(head.size()));
    head.push_back(from);
    residual.push_back(0);
  }
};

}  // namespace

Referee::Referee(const Graph& g) : adjacency_(g.NumVertices()) {
  for (const auto& [a, b] : g.Edges()) {
    adjacency_[a].push_back(b);
    adjacency_[b].push_back(a);
  }
}

bool Referee::Adjacent(std::uint32_t u, std::uint32_t v) const {
  const auto& row = adjacency_[u];
  return std::find(row.begin(), row.end(), v) != row.end();
}

std::uint32_t Referee::LocalConnectivity(std::uint32_t u,
                                         std::uint32_t v) const {
  assert(u != v && !Adjacent(u, v));
  const auto n = static_cast<std::uint32_t>(adjacency_.size());
  SplitNetwork net;
  net.out.resize(2 * n);
  for (std::uint32_t x = 0; x < n; ++x) net.AddArc(2 * x, 2 * x + 1);
  for (std::uint32_t x = 0; x < n; ++x) {
    for (std::uint32_t y : adjacency_[x]) net.AddArc(2 * x + 1, 2 * y);
  }

  // Edmonds–Karp from u's out-side to v's in-side: each BFS finds one
  // shortest augmenting path, which carries one unit.
  const std::uint32_t source = 2 * u + 1;
  const std::uint32_t sink = 2 * v;
  std::uint32_t flow = 0;
  while (true) {
    std::vector<bool> seen(2 * n, false);
    std::vector<std::uint32_t> via(2 * n, 0);  // arc that reached the node
    std::vector<std::uint32_t> queue = {source};
    seen[source] = true;
    for (std::size_t i = 0; i < queue.size() && !seen[sink]; ++i) {
      for (std::uint32_t arc : net.out[queue[i]]) {
        const std::uint32_t to = net.head[arc];
        if (net.residual[arc] > 0 && !seen[to]) {
          seen[to] = true;
          via[to] = arc;
          queue.push_back(to);
        }
      }
    }
    if (!seen[sink]) return flow;
    for (std::uint32_t node = sink; node != source;
         node = net.head[via[node] ^ 1]) {
      --net.residual[via[node]];
      ++net.residual[via[node] ^ 1];
    }
    ++flow;
  }
}

bool Referee::Separates(const std::vector<std::uint32_t>& cut,
                        std::uint32_t u, std::uint32_t v) const {
  std::vector<bool> blocked(adjacency_.size(), false);
  for (std::uint32_t w : cut) blocked[w] = true;
  if (blocked[u] || blocked[v]) return false;
  std::vector<std::uint32_t> queue = {u};
  blocked[u] = true;
  for (std::size_t i = 0; i < queue.size(); ++i) {
    for (std::uint32_t w : adjacency_[queue[i]]) {
      if (w == v) return false;
      if (!blocked[w]) {
        blocked[w] = true;
        queue.push_back(w);
      }
    }
  }
  return true;
}

}  // namespace kvcc::testing
