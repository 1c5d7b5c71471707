#include "support/referee.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace kvcc::testing {
namespace {

using Adjacency = std::vector<std::vector<std::uint32_t>>;

/// Explicit vertex-split network: node 2x is x's in-side, node 2x + 1 its
/// out-side. Arcs come in pairs, and arc i's reverse is arc i ^ 1.
struct SplitNetwork {
  std::vector<std::uint32_t> head;             // arc -> target node
  std::vector<int> residual;                   // arc -> residual capacity
  std::vector<std::vector<std::uint32_t>> out;  // node -> arcs leaving it

  void AddArc(std::uint32_t from, std::uint32_t to, int capacity) {
    out[from].push_back(static_cast<std::uint32_t>(head.size()));
    head.push_back(to);
    residual.push_back(capacity);
    out[to].push_back(static_cast<std::uint32_t>(head.size()));
    head.push_back(from);
    residual.push_back(0);
  }
};

/// Edmonds–Karp on the split network of `adjacency`, from u's out-side to
/// v's in-side, stopping once the flow reaches `limit`. Each vertex arc
/// x_in -> x_out has capacity 1 and each edge arc is uncapacitated, so a
/// minimum cut crosses vertex arcs only. Returns the flow. When it is below
/// `limit`, the last BFS failed to reach the sink and `reach` holds exactly
/// the nodes that BFS reached: the residual-reachable set.
std::uint32_t MaxFlow(const Adjacency& adjacency, std::uint32_t u,
                      std::uint32_t v, std::uint32_t limit,
                      std::vector<bool>& reach) {
  const auto n = static_cast<std::uint32_t>(adjacency.size());
  const int uncapacitated = std::numeric_limits<int>::max() / 2;
  SplitNetwork net;
  net.out.resize(2 * n);
  for (std::uint32_t x = 0; x < n; ++x) net.AddArc(2 * x, 2 * x + 1, 1);
  for (std::uint32_t x = 0; x < n; ++x) {
    for (std::uint32_t y : adjacency[x]) {
      net.AddArc(2 * x + 1, 2 * y, uncapacitated);
    }
  }

  // Each BFS finds one shortest augmenting path, which carries one unit.
  const std::uint32_t source = 2 * u + 1;
  const std::uint32_t sink = 2 * v;
  std::uint32_t flow = 0;
  while (flow < limit) {
    reach.assign(2 * n, false);
    std::vector<std::uint32_t> via(2 * n, 0);  // arc that reached the node
    std::vector<std::uint32_t> queue = {source};
    reach[source] = true;
    for (std::size_t i = 0; i < queue.size() && !reach[sink]; ++i) {
      for (std::uint32_t arc : net.out[queue[i]]) {
        const std::uint32_t to = net.head[arc];
        if (net.residual[arc] > 0 && !reach[to]) {
          reach[to] = true;
          via[to] = arc;
          queue.push_back(to);
        }
      }
    }
    if (!reach[sink]) break;
    for (std::uint32_t node = sink; node != source;
         node = net.head[via[node] ^ 1]) {
      --net.residual[via[node]];
      ++net.residual[via[node] ^ 1];
    }
    ++flow;
  }
  return flow;
}

bool Contains(const std::vector<std::uint32_t>& row, std::uint32_t x) {
  return std::find(row.begin(), row.end(), x) != row.end();
}

/// The subgraph of `adjacency` induced by `keep` (ascending), with vertex
/// keep[i] renumbered i.
Adjacency Induce(const Adjacency& adjacency,
                 const std::vector<std::uint32_t>& keep) {
  const std::uint32_t absent = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> local(adjacency.size(), absent);
  for (std::uint32_t i = 0; i < keep.size(); ++i) local[keep[i]] = i;
  Adjacency sub(keep.size());
  for (std::uint32_t i = 0; i < keep.size(); ++i) {
    for (std::uint32_t y : adjacency[keep[i]]) {
      if (local[y] != absent) sub[i].push_back(local[y]);
    }
  }
  return sub;
}

/// Marks the vertices of the k-core: repeatedly removes a vertex of degree
/// below k.
std::vector<bool> KCore(const Adjacency& adjacency, std::uint32_t k) {
  const std::size_t n = adjacency.size();
  std::vector<bool> alive(n, true);
  std::vector<std::size_t> degree(n);
  std::vector<std::uint32_t> doomed;
  for (std::uint32_t x = 0; x < n; ++x) {
    degree[x] = adjacency[x].size();
    if (degree[x] < k) {
      alive[x] = false;
      doomed.push_back(x);
    }
  }
  while (!doomed.empty()) {
    const std::uint32_t x = doomed.back();
    doomed.pop_back();
    for (std::uint32_t y : adjacency[x]) {
      if (alive[y] && --degree[y] < k) {
        alive[y] = false;
        doomed.push_back(y);
      }
    }
  }
  return alive;
}

/// Connected components of the vertices marked in `alive`, by BFS; each
/// is returned ascending.
std::vector<std::vector<std::uint32_t>> Components(
    const Adjacency& adjacency, std::vector<bool> alive) {
  std::vector<std::vector<std::uint32_t>> components;
  for (std::uint32_t start = 0; start < adjacency.size(); ++start) {
    if (!alive[start]) continue;
    std::vector<std::uint32_t> component = {start};
    alive[start] = false;
    for (std::size_t i = 0; i < component.size(); ++i) {
      for (std::uint32_t y : adjacency[component[i]]) {
        if (alive[y]) {
          alive[y] = false;
          component.push_back(y);
        }
      }
    }
    std::sort(component.begin(), component.end());
    components.push_back(std::move(component));
  }
  return components;
}

/// A vertex cut of fewer than k vertices of a connected graph with more
/// than k vertices, or an empty list if there is none. A cut that avoids a
/// minimum-degree vertex u separates u from a non-neighbour; a minimal cut
/// that holds u separates two non-adjacent neighbours of u.
std::vector<std::uint32_t> FindSmallCut(const Adjacency& adjacency,
                                        std::uint32_t k) {
  const auto n = static_cast<std::uint32_t>(adjacency.size());
  std::uint32_t u = 0;
  for (std::uint32_t x = 1; x < n; ++x) {
    if (adjacency[x].size() < adjacency[u].size()) u = x;
  }
  std::vector<bool> reach;
  // The flow between a and b is at least 1 in a connected graph, so a cut
  // read off the residual graph is never empty.
  auto cut_between = [&](std::uint32_t a, std::uint32_t b) {
    std::vector<std::uint32_t> cut;
    if (MaxFlow(adjacency, a, b, k, reach) < k) {
      for (std::uint32_t x = 0; x < n; ++x) {
        if (reach[2 * x] && !reach[2 * x + 1]) cut.push_back(x);
      }
    }
    return cut;
  };
  const std::vector<std::uint32_t>& near = adjacency[u];
  for (std::uint32_t v = 0; v < n; ++v) {
    if (v == u || Contains(near, v)) continue;
    std::vector<std::uint32_t> cut = cut_between(u, v);
    if (!cut.empty()) return cut;
  }
  for (std::size_t i = 0; i < near.size(); ++i) {
    for (std::size_t j = i + 1; j < near.size(); ++j) {
      if (Contains(adjacency[near[i]], near[j])) continue;
      std::vector<std::uint32_t> cut = cut_between(near[i], near[j]);
      if (!cut.empty()) return cut;
    }
  }
  return {};
}

/// Appends the k-VCCs inside `vertices` (ascending ids of `graph`) to
/// `out`.
void Enumerate(const Adjacency& graph,
               const std::vector<std::uint32_t>& vertices, std::uint32_t k,
               std::vector<std::vector<std::uint32_t>>& out) {
  const Adjacency piece = Induce(graph, vertices);
  for (const auto& component : Components(piece, KCore(piece, k))) {
    if (component.size() <= k) continue;
    const Adjacency sub = Induce(piece, component);
    const std::vector<std::uint32_t> cut = FindSmallCut(sub, k);
    auto original = [&](std::uint32_t x) { return vertices[component[x]]; };
    if (cut.empty()) {
      std::vector<std::uint32_t> kvcc;
      for (std::uint32_t x = 0; x < sub.size(); ++x) {
        kvcc.push_back(original(x));
      }
      out.push_back(std::move(kvcc));
      continue;
    }
    std::vector<bool> outside_cut(sub.size(), true);
    for (std::uint32_t x : cut) outside_cut[x] = false;
    for (const auto& part : Components(sub, outside_cut)) {
      std::vector<std::uint32_t> next;
      for (std::uint32_t x : part) next.push_back(original(x));
      for (std::uint32_t x : cut) next.push_back(original(x));
      std::sort(next.begin(), next.end());
      Enumerate(graph, next, k, out);
    }
  }
}

Adjacency CopyAdjacency(const Graph& g) {
  Adjacency adjacency(g.NumVertices());
  for (const auto& [a, b] : g.Edges()) {
    adjacency[a].push_back(b);
    adjacency[b].push_back(a);
  }
  return adjacency;
}

}  // namespace

Referee::Referee(const Graph& g) : adjacency_(CopyAdjacency(g)) {}

bool Referee::Adjacent(std::uint32_t u, std::uint32_t v) const {
  return Contains(adjacency_[u], v);
}

std::uint32_t Referee::LocalConnectivity(std::uint32_t u,
                                         std::uint32_t v) const {
  assert(u != v && !Adjacent(u, v));
  std::vector<bool> reach;
  return MaxFlow(adjacency_, u, v, std::numeric_limits<std::uint32_t>::max(),
                 reach);
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

std::vector<std::vector<std::uint32_t>> RefereeKVccs(const Graph& g,
                                                     std::uint32_t k) {
  const Adjacency graph = CopyAdjacency(g);
  std::vector<std::uint32_t> all(graph.size());
  for (std::uint32_t x = 0; x < all.size(); ++x) all[x] = x;
  std::vector<std::vector<std::uint32_t>> kvccs;
  Enumerate(graph, all, k, kvccs);
  std::sort(kvccs.begin(), kvccs.end());
  return kvccs;
}

}  // namespace kvcc::testing
