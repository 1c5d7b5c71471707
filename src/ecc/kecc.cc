#include "ecc/kecc.h"

#include <algorithm>
#include <utility>

#include "flow/stoer_wagner.h"
#include "graph/connected_components.h"
#include "graph/k_core.h"

namespace kvcc {
namespace {

// 2-ECCs in O(n + m): the connected components left after deleting every
// bridge (Tarjan lowlink, iterative). Identical output to the generic
// Stoer-Wagner recursion below — a 2-ECC has minimum degree >= 2, so it
// survives the 2-core peel intact and is never split by a weight-1 cut.
std::vector<std::vector<VertexId>> TwoEdgeConnectedComponents(
    const Graph& g) {
  const VertexId n = g.NumVertices();
  std::vector<std::uint32_t> disc(n, 0), low(n, 0);
  std::vector<VertexId> comp_stack;
  std::vector<std::vector<VertexId>> result;
  std::uint32_t clock = 0;

  // DFS frame: vertex, its tree parent, and the cursor into its
  // neighbor list.
  struct Frame {
    VertexId v;
    VertexId parent;
    std::uint32_t next;
  };
  std::vector<Frame> dfs;
  const auto pop_component = [&](VertexId head) {
    std::vector<VertexId> comp;
    while (true) {
      const VertexId w = comp_stack.back();
      comp_stack.pop_back();
      comp.push_back(w);
      if (w == head) break;
    }
    // A simple graph has no 2-edge-connected subgraph on < 3 vertices.
    if (comp.size() > 2) {
      std::sort(comp.begin(), comp.end());
      result.push_back(std::move(comp));
    }
  };

  for (VertexId root = 0; root < n; ++root) {
    if (disc[root] != 0) continue;
    dfs.push_back({root, root, 0});
    disc[root] = low[root] = ++clock;
    comp_stack.push_back(root);
    while (!dfs.empty()) {
      Frame& frame = dfs.back();
      const auto neighbors = g.Neighbors(frame.v);
      if (frame.next < neighbors.size()) {
        const VertexId w = neighbors[frame.next++];
        if (w == frame.parent && frame.v != frame.parent) {
          // The one tree edge back to the parent (simple graph, so there
          // is no parallel edge to mistake for it).
          frame.parent = frame.v;  // skip it exactly once
          continue;
        }
        if (disc[w] != 0) {
          low[frame.v] = std::min(low[frame.v], disc[w]);
          continue;
        }
        disc[w] = low[w] = ++clock;
        comp_stack.push_back(w);
        dfs.push_back({w, frame.v, 0});
        continue;
      }
      const VertexId v = frame.v;
      const bool is_root = dfs.size() == 1;
      dfs.pop_back();
      if (is_root) {
        pop_component(v);
        continue;
      }
      Frame& up = dfs.back();
      low[up.v] = std::min(low[up.v], low[v]);
      if (low[v] > disc[up.v]) pop_component(v);  // tree edge is a bridge
    }
  }
  std::sort(result.begin(), result.end());
  return result;
}

}  // namespace

std::vector<std::vector<VertexId>> KEdgeConnectedComponents(
    const Graph& g, std::uint32_t k,
    std::vector<std::uint32_t>* connectivity) {
  // Linear fast paths. k = 1: the 1-ECCs are the connected components
  // with at least one edge. k = 2: bridge decomposition. Both match the
  // generic recursion's output exactly (sorted components, sorted list).
  if (k <= 2) {
    std::vector<std::vector<VertexId>> result;
    if (k == 2) {
      result = TwoEdgeConnectedComponents(g);
    } else {
      for (std::vector<VertexId>& comp : ConnectedComponents(g)) {
        if (comp.size() < 2) continue;
        std::sort(comp.begin(), comp.end());
        result.push_back(std::move(comp));
      }
      std::sort(result.begin(), result.end());
    }
    if (connectivity != nullptr) connectivity->assign(result.size(), k);
    return result;
  }

  // Each component with the weight of the cut that confirmed it.
  std::vector<std::pair<std::vector<VertexId>, std::uint32_t>> found;
  std::vector<Graph> stack;
  stack.push_back(g.WithIdentityLabels());

  while (!stack.empty()) {
    Graph cur = std::move(stack.back());
    stack.pop_back();

    // kappa' <= delta (Whitney), so peeling the k-core is sound and fast.
    const std::vector<VertexId> survivors = KCoreVertices(cur, k);
    if (survivors.size() <= k) continue;
    Graph core = survivors.size() == cur.NumVertices()
                     ? std::move(cur)
                     : cur.InducedSubgraph(survivors);

    for (const std::vector<VertexId>& comp : ConnectedComponents(core)) {
      if (comp.size() <= k) continue;
      Graph sub = core.InducedSubgraph(comp);

      const GlobalMinCut cut = StoerWagnerMinCut(sub, /*early_stop_below=*/k);
      if (cut.weight >= k) {
        // No edge cut below k: sub is a k-ECC, and the search ran every
        // phase, so the weight is its exact edge connectivity.
        std::vector<VertexId> ids;
        ids.reserve(sub.NumVertices());
        for (VertexId v = 0; v < sub.NumVertices(); ++v) {
          ids.push_back(sub.LabelOf(v));
        }
        std::sort(ids.begin(), ids.end());
        found.emplace_back(std::move(ids),
                           static_cast<std::uint32_t>(cut.weight));
        continue;
      }
      // Split along the edge cut: the two sides share no vertices.
      std::vector<bool> in_side(sub.NumVertices(), false);
      for (VertexId v : cut.side) in_side[v] = true;
      std::vector<VertexId> side, rest;
      for (VertexId v = 0; v < sub.NumVertices(); ++v) {
        (in_side[v] ? side : rest).push_back(v);
      }
      if (side.size() > k) stack.push_back(sub.InducedSubgraph(side));
      if (rest.size() > k) stack.push_back(sub.InducedSubgraph(rest));
    }
  }

  // Components are disjoint, so their vertex lists alone decide the order.
  std::sort(found.begin(), found.end());
  std::vector<std::vector<VertexId>> result;
  result.reserve(found.size());
  if (connectivity != nullptr) connectivity->clear();
  for (auto& [ids, lambda] : found) {
    result.push_back(std::move(ids));
    if (connectivity != nullptr) connectivity->push_back(lambda);
  }
  return result;
}

bool IsKEdgeConnected(const Graph& g, std::uint32_t k) {
  if (g.NumVertices() < 2) return false;
  if (k == 0) return IsConnected(g);
  const GlobalMinCut cut = StoerWagnerMinCut(g, /*early_stop_below=*/k);
  return cut.weight >= k;
}

}  // namespace kvcc
