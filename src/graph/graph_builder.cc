#include "graph/graph_builder.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace kvcc {

GraphBuilder::GraphBuilder(VertexId num_vertices,
                           std::vector<std::pair<VertexId, VertexId>> edges)
    : num_vertices_(num_vertices), edges_(std::move(edges)) {
  std::size_t kept = 0;
  for (auto [u, v] : edges_) {
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    edges_[kept++] = {u, v};
    if (v >= num_vertices_) num_vertices_ = v + 1;
  }
  edges_.resize(kept);
}

void GraphBuilder::AddEdge(VertexId u, VertexId v) {
  if (u == v) return;
  if (u > v) std::swap(u, v);
  edges_.emplace_back(u, v);
  if (v >= num_vertices_) num_vertices_ = v + 1;
}

void GraphBuilder::SetLabels(std::vector<VertexId> labels) {
  labels_ = std::move(labels);
}

Graph GraphBuilder::Build() {
  if (!labels_.empty() && labels_.size() != num_vertices_) {
    throw std::invalid_argument("GraphBuilder: label count != vertex count");
  }
  // Producers that already emit edges in lexicographic order with u < v
  // (e.g. Graph::FromEdges on an edge list written by Graph::Edges) skip
  // the O(m log m) sort.
  if (!std::is_sorted(edges_.begin(), edges_.end())) {
    std::sort(edges_.begin(), edges_.end());
  }
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());

  Graph g;
  g.num_vertices_ = num_vertices_;
  g.num_edges_ = edges_.size();
  g.offsets_.assign(num_vertices_ + 1, 0);
  for (const auto& [u, v] : edges_) {
    ++g.offsets_[u + 1];
    ++g.offsets_[v + 1];
  }
  for (VertexId i = 0; i < num_vertices_; ++i) {
    g.offsets_[i + 1] += g.offsets_[i];
  }
  g.adjacency_.resize(2 * edges_.size());
  std::vector<std::uint64_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  // Edges are distinct (u, v) pairs with u < v in lexicographic order, so
  // every row comes out strictly ascending in two waves: first each v's
  // smaller neighbors (the u's arrive ascending, as the outer order is by
  // u), then each u's larger ones (its v's arrive ascending).
  for (const auto& [u, v] : edges_) {
    g.adjacency_[cursor[v]++] = u;
  }
  for (const auto& [u, v] : edges_) {
    g.adjacency_[cursor[u]++] = v;
  }
  g.labels_ = std::move(labels_);

  edges_.clear();
  labels_.clear();
  num_vertices_ = 0;
  return g;
}

}  // namespace kvcc
