// Core immutable undirected graph type used across the library.
//
// Vertices of a Graph are contiguous ids [0, n). Because the k-VCC algorithm
// recursively partitions graphs into overlapped subgraphs, every Graph keeps
// a label per vertex naming the corresponding vertex of the *root* graph the
// subgraph chain started from; labels compose automatically through
// InducedSubgraph(). Results are reported in label space.
#ifndef KVCC_GRAPH_GRAPH_H_
#define KVCC_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace kvcc {

using VertexId = std::uint32_t;

/// Sentinel for "no vertex".
inline constexpr VertexId kInvalidVertex = static_cast<VertexId>(-1);

/// Undirected simple graph in CSR (compressed sparse row) form. Neighbor
/// lists are sorted, enabling O(log d) adjacency queries and linear merges
/// for common-neighbor counting. Construction goes through GraphBuilder (or
/// the static factory below); the only mutation is InduceInPlace, which
/// shrinks a graph its owner no longer needs whole.
class Graph {
 public:
  Graph() = default;

  Graph(const Graph&) = default;
  Graph& operator=(const Graph&) = default;
  Graph(Graph&&) = default;
  Graph& operator=(Graph&&) = default;

  /// Builds a graph with vertices [0, num_vertices) from an edge list.
  /// Self-loops are dropped and duplicate edges are collapsed.
  static Graph FromEdges(VertexId num_vertices,
                         std::span<const std::pair<VertexId, VertexId>> edges);

  VertexId NumVertices() const { return num_vertices_; }

  /// Number of undirected edges.
  std::uint64_t NumEdges() const { return num_edges_; }

  /// Sorted neighbor list of v.
  std::span<const VertexId> Neighbors(VertexId v) const {
    return {adjacency_.data() + offsets_[v],
            adjacency_.data() + offsets_[v + 1]};
  }

  VertexId Degree(VertexId v) const {
    return static_cast<VertexId>(offsets_[v + 1] - offsets_[v]);
  }

  /// O(log d) adjacency test.
  bool HasEdge(VertexId u, VertexId v) const;

  /// Root-graph name of vertex v. Identity when this graph *is* the root.
  VertexId LabelOf(VertexId v) const {
    return labels_.empty() ? v : labels_[v];
  }

  /// True if the graph carries a non-identity label mapping.
  bool HasLabels() const { return !labels_.empty(); }

  /// Maps a list of local vertex ids to root-graph labels.
  std::vector<VertexId> LabelsOf(std::span<const VertexId> vertices) const;

  /// Subgraph induced by `vertices` (local ids; duplicates allowed and
  /// ignored). The result has contiguous ids and composed labels.
  Graph InducedSubgraph(std::span<const VertexId> vertices) const;

  /// Shrinks this graph in place to the subgraph induced by `vertices`
  /// (local ids, ascending and distinct). The result equals
  /// InducedSubgraph(vertices), labels included, but keeps this graph's
  /// storage: rows are compacted front to back, so no second CSR exists at
  /// any point. `local` is the caller's id-map buffer and only grows. Once
  /// it holds NumVertices() entries, shrinking a labeled graph allocates
  /// nothing.
  void InduceInPlace(std::span<const VertexId> vertices,
                     std::vector<VertexId>& local);

  /// Like InducedSubgraph, but labels the result with *this graph's local
  /// ids*, ignoring any labels this graph carries. Seeds a subgraph chain
  /// that bottoms out here — equivalent to WithIdentityLabels()
  /// .InducedSubgraph(vertices) without materializing the identity copy.
  Graph InducedSubgraphAsRoot(std::span<const VertexId> vertices) const;

  /// Copy of this graph with labels reset to the identity. Algorithms that
  /// report results in *this graph's* id space seed their subgraph chain
  /// with this copy so that label composition bottoms out here.
  Graph WithIdentityLabels() const {
    Graph copy = *this;
    copy.labels_.clear();
    return copy;
  }

  /// All edges as (u, v) pairs with u < v, lexicographically sorted.
  std::vector<std::pair<VertexId, VertexId>> Edges() const;

  /// 2m / n; 0 for the empty graph. (Matches the "Density" column of the
  /// paper's Table 1, which reports average degree.)
  double AverageDegree() const;

  VertexId MaxDegree() const;

  /// Vertex with minimum degree (smallest id wins ties); kInvalidVertex for
  /// the empty graph.
  VertexId MinDegreeVertex() const;

  /// Structural equality (same vertex count, same adjacency; labels ignored).
  bool SameStructure(const Graph& other) const {
    return num_vertices_ == other.num_vertices_ &&
           offsets_ == other.offsets_ && adjacency_ == other.adjacency_;
  }

  /// Approximate heap footprint of this graph object, in bytes.
  std::uint64_t MemoryBytes() const;

 private:
  friend class GraphBuilder;
  // The dynamic-graph delta merge (graph/delta_store.h) and the sparse
  // certificate (kvcc/sparse_certificate.cc) write CSR rows into a reused
  // Graph in place — the seam GraphBuilder lacks.
  friend class DeltaApplier;
  friend class CertificateRowWriter;

  Graph InduceImpl(std::span<const VertexId> vertices, bool as_root) const;
  std::uint64_t CompactRows(std::span<const VertexId> vertices,
                            VertexId* local);

  VertexId num_vertices_ = 0;
  std::uint64_t num_edges_ = 0;
  std::vector<std::uint64_t> offsets_;  // size n+1
  std::vector<VertexId> adjacency_;     // size 2m, sorted per vertex
  std::vector<VertexId> labels_;        // size n, or empty for identity
};

}  // namespace kvcc

#endif  // KVCC_GRAPH_GRAPH_H_
