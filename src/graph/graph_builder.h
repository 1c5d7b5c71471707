// Mutable accumulator that produces immutable Graph objects.
#ifndef KVCC_GRAPH_GRAPH_BUILDER_H_
#define KVCC_GRAPH_GRAPH_BUILDER_H_

#include <utility>
#include <vector>

#include "graph/graph.h"

namespace kvcc {

/// Collects edges (duplicates and self-loops tolerated) and builds a
/// normalized CSR Graph. Vertex count grows automatically to cover the
/// largest endpoint seen; it can also be fixed up-front to include isolated
/// vertices.
class GraphBuilder {
 public:
  GraphBuilder() = default;
  explicit GraphBuilder(VertexId num_vertices) : num_vertices_(num_vertices) {}

  /// Takes `edges` whole, without a copy, as if each pair were passed to
  /// AddEdge: self-loops are dropped and every pair is stored as (min, max).
  GraphBuilder(VertexId num_vertices,
               std::vector<std::pair<VertexId, VertexId>> edges);

  /// Adds an undirected edge. Self-loops are silently dropped.
  void AddEdge(VertexId u, VertexId v);

  /// Attaches root-graph labels (size must equal the final vertex count).
  void SetLabels(std::vector<VertexId> labels);

  VertexId NumVertices() const { return num_vertices_; }

  /// Normalizes (sort, dedup) and produces the Graph. The builder is left
  /// empty afterwards.
  Graph Build();

 private:
  VertexId num_vertices_ = 0;
  std::vector<std::pair<VertexId, VertexId>> edges_;
  std::vector<VertexId> labels_;
};

}  // namespace kvcc

#endif  // KVCC_GRAPH_GRAPH_BUILDER_H_
