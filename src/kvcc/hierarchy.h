// The k-VCC hierarchy: k-VCCs for every k = 1..k_max, organized as a
// dendrogram of structural cohesion (Moody & White's "cohesive blocking",
// which the paper cites as the sociological root of vertex connectivity).
//
// Built on a nesting fact: every k-VCC is (k-1)-vertex-connected, so it is
// contained in exactly one (k-1)-VCC (two parents would overlap in >= k-1
// vertices, violating Property 1 at level k-1). Level k is therefore
// computed *inside* each level-(k-1) component instead of on the whole
// graph, which both speeds the sweep up and yields parent links for free.
#ifndef KVCC_KVCC_HIERARCHY_H_
#define KVCC_KVCC_HIERARCHY_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "kvcc/options.h"
#include "kvcc/stats.h"

/// \file
/// \brief The k-VCC hierarchy (cohesive blocking): nested k-VCCs for
/// every k, built level-inside-level with parent links for free.

namespace kvcc {

class KvccEngine;

/// \brief One component of the k-VCC hierarchy dendrogram.
struct HierarchyNode {
  /// \brief Connectivity level of this component (it is a level-VCC).
  std::uint32_t level = 0;
  /// \brief Sorted vertex ids (in the input graph's id space).
  std::vector<VertexId> vertices;
  /// \brief Index of the enclosing node at level-1, or kNoParent for
  /// level 1.
  std::size_t parent = kNoParent;
  /// \brief Indices of the nodes at level+1 nested inside this one.
  std::vector<std::size_t> children;

  /// \brief Sentinel parent index for level-1 nodes.
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);
};

/// \brief The full dendrogram produced by BuildKvccHierarchy.
struct KvccHierarchy {
  /// \brief All nodes, in construction order.
  std::vector<HierarchyNode> nodes;
  /// \brief Nodes grouped by level: levels[k-1] lists node indices of
  /// level k.
  std::vector<std::vector<std::size_t>> levels;
  /// \brief Execution counters summed over every level's enumeration.
  KvccStats stats;

  /// \brief The deepest level that still has components.
  /// \return Largest k with at least one k-VCC (0 for an empty
  /// hierarchy).
  std::uint32_t MaxLevel() const {
    return static_cast<std::uint32_t>(levels.size());
  }

  /// \brief Node indices of the k-VCCs at one level.
  /// \param k The connectivity level to look up.
  /// \return The node indices (empty if k is beyond the hierarchy).
  const std::vector<std::size_t>& NodesAtLevel(std::uint32_t k) const;

  /// \brief The components at level k in EnumerateKVccs output format.
  /// \param k The connectivity level to extract.
  /// \return Sorted component lists, sorted lexicographically.
  std::vector<std::vector<VertexId>> ComponentsAtLevel(std::uint32_t k) const;

  /// \brief Largest k such that some k-VCC contains vertex v.
  /// \param v A vertex id of the input graph.
  /// \return The vertex's structural cohesion (0 if no component holds
  /// it).
  std::uint32_t CohesionOf(VertexId v) const;

  /// \brief Sizes of the components containing v, level 1 first.
  ///
  /// Since k-VCCs at one level may overlap (in up to k-1 vertices), a
  /// vertex can sit in several components of a level; the path follows
  /// the first containing node in construction order at every level,
  /// which is deterministic for a given build. Used by kvccd's
  /// membership responses, so a cached hierarchy answers them
  /// byte-identically to a fresh one.
  /// \param v A vertex id of the input graph.
  /// \return One size per level from 1 to CohesionOf(v); empty if no
  /// component holds v.
  std::vector<std::uint64_t> PathOf(VertexId v) const;

  /// \brief Approximate heap footprint of the hierarchy, in bytes.
  ///
  /// The byte-budget currency of kvccd's result cache.
  /// \return The estimate (element counts, not capacities, so it is
  /// reproducible across builds).
  std::uint64_t MemoryBytes() const;

 private:
  /// \cond INTERNAL
  friend KvccHierarchy BuildKvccHierarchy(const Graph&, std::uint32_t,
                                          const KvccOptions&);
  friend KvccHierarchy BuildKvccHierarchy(KvccEngine&, const Graph&,
                                          std::uint32_t,
                                          const KvccOptions&);
  // Incremental maintenance (kvcc/incremental.h) reassembles hierarchies
  // from patched per-level lists, including the cohesion array.
  friend class IncrementalKvcc;
  /// \endcond
  std::vector<std::uint32_t> cohesion_;  // per input vertex
};

/// \brief Builds the hierarchy up to `max_level` on the calling thread,
/// level by level, decomposing one parent component at a time.
/// \param g The input graph.
/// \param max_level Deepest level to compute; 0 = until no components
///   remain (bounded by the degeneracy since a k-VCC needs minimum degree
///   >= k).
/// \param options Algorithm variant and execution knobs.
/// \return The dendrogram of nested k-VCCs.
KvccHierarchy BuildKvccHierarchy(const Graph& g, std::uint32_t max_level = 0,
                                 const KvccOptions& options = {});

/// \brief Same, but decomposes each level's parent components as
/// independent jobs on a caller-provided engine and merges them in parent
/// order, so the output is identical to the serial build's for every
/// worker count. The way to build in parallel, or to build many
/// hierarchies (or mix hierarchy and plain enumeration traffic) on one
/// warm worker pool.
/// \param engine The engine to run on; its worker count governs
///   parallelism.
/// \param g The input graph.
/// \param max_level Deepest level to compute; 0 = until no components
///   remain.
/// \param options Algorithm variant and execution knobs.
/// \return The dendrogram of nested k-VCCs.
KvccHierarchy BuildKvccHierarchy(KvccEngine& engine, const Graph& g,
                                 std::uint32_t max_level = 0,
                                 const KvccOptions& options = {});

}  // namespace kvcc

#endif  // KVCC_KVCC_HIERARCHY_H_
