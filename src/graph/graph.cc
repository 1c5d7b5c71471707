#include "graph/graph.h"

#include <algorithm>

#include "graph/graph_builder.h"

namespace kvcc {

Graph Graph::FromEdges(VertexId num_vertices,
                       std::span<const std::pair<VertexId, VertexId>> edges) {
  GraphBuilder builder(num_vertices);
  for (const auto& [u, v] : edges) builder.AddEdge(u, v);
  return builder.Build();
}

bool Graph::HasEdge(VertexId u, VertexId v) const {
  const auto nbrs = Neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::vector<VertexId> Graph::LabelsOf(std::span<const VertexId> vertices) const {
  std::vector<VertexId> out;
  out.reserve(vertices.size());
  for (VertexId v : vertices) out.push_back(LabelOf(v));
  return out;
}

Graph Graph::InducedSubgraph(std::span<const VertexId> vertices) const {
  return InduceImpl(vertices, /*as_root=*/false);
}

Graph Graph::InducedSubgraphAsRoot(std::span<const VertexId> vertices) const {
  return InduceImpl(vertices, /*as_root=*/true);
}

Graph Graph::InduceImpl(std::span<const VertexId> vertices,
                        bool as_root) const {
  std::vector<VertexId> sorted(vertices.begin(), vertices.end());
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());

  std::vector<VertexId> local(num_vertices_, kInvalidVertex);
  for (VertexId i = 0; i < sorted.size(); ++i) local[sorted[i]] = i;

  Graph sub;
  sub.num_vertices_ = static_cast<VertexId>(sorted.size());
  sub.offsets_.assign(sub.num_vertices_ + 1, 0);

  // Two passes: count then fill, keeping neighbor order (already sorted in
  // the parent; the subset of a sorted list is sorted).
  for (VertexId i = 0; i < sub.num_vertices_; ++i) {
    std::uint64_t deg = 0;
    for (VertexId w : Neighbors(sorted[i])) {
      if (local[w] != kInvalidVertex) ++deg;
    }
    sub.offsets_[i + 1] = sub.offsets_[i] + deg;
  }
  sub.adjacency_.resize(sub.offsets_[sub.num_vertices_]);
  for (VertexId i = 0; i < sub.num_vertices_; ++i) {
    std::uint64_t pos = sub.offsets_[i];
    for (VertexId w : Neighbors(sorted[i])) {
      if (local[w] != kInvalidVertex) sub.adjacency_[pos++] = local[w];
    }
    // Local ids are assigned in increasing parent order, so the filled range
    // is already sorted.
  }
  sub.num_edges_ = sub.adjacency_.size() / 2;

  sub.labels_.resize(sub.num_vertices_);
  for (VertexId i = 0; i < sub.num_vertices_; ++i) {
    sub.labels_[i] = as_root ? sorted[i] : LabelOf(sorted[i]);
  }
  return sub;
}

std::vector<std::pair<VertexId, VertexId>> Graph::Edges() const {
  std::vector<std::pair<VertexId, VertexId>> out;
  out.reserve(num_edges_);
  for (VertexId u = 0; u < num_vertices_; ++u) {
    for (VertexId v : Neighbors(u)) {
      if (u < v) out.emplace_back(u, v);
    }
  }
  return out;
}

double Graph::AverageDegree() const {
  if (num_vertices_ == 0) return 0.0;
  return static_cast<double>(2 * num_edges_) / num_vertices_;
}

VertexId Graph::MaxDegree() const {
  VertexId best = 0;
  for (VertexId v = 0; v < num_vertices_; ++v) {
    best = std::max(best, Degree(v));
  }
  return best;
}

VertexId Graph::MinDegreeVertex() const {
  if (num_vertices_ == 0) return kInvalidVertex;
  VertexId best = 0;
  for (VertexId v = 1; v < num_vertices_; ++v) {
    if (Degree(v) < Degree(best)) best = v;
  }
  return best;
}

std::uint64_t Graph::MemoryBytes() const {
  return offsets_.capacity() * sizeof(std::uint64_t) +
         adjacency_.capacity() * sizeof(VertexId) +
         labels_.capacity() * sizeof(VertexId) + sizeof(*this);
}

}  // namespace kvcc
