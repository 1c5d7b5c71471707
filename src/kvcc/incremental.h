// Incremental re-decomposition over a VersionedGraph.
//
// IncrementalKvcc keeps the full k-VCC hierarchy of a mutating graph
// current without re-running the enumeration on the whole graph per
// batch. The exactness argument (docs/DYNAMIC.md spells it out) rests on
// locality of vertex connectivity: for each level k, every k-VCC of the
// new graph lies inside exactly one of its k-ECCs ("regions" — Whitney:
// k-vertex-connected implies k-edge-connected); a region is dirty iff it
// contains both endpoints of some batch edge or intersects an old k-VCC
// that does. Every k-VCC of the new graph inside a clean region is
// exactly an old, untouched k-VCC — its induced subgraph did not change —
// so only dirty regions are re-enumerated and everything else is carried
// over verbatim. The assembled per-level component lists (and the
// hierarchy rebuilt from them) are byte-identical to a cold
// BuildKvccHierarchy on the materialized graph; the differential harness
// in tests/incremental_test.cc asserts this after every mutation step.
#ifndef KVCC_KVCC_INCREMENTAL_H_
#define KVCC_KVCC_INCREMENTAL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/delta_store.h"
#include "graph/graph.h"
#include "kvcc/hierarchy.h"
#include "kvcc/options.h"
#include "kvcc/stats.h"

/// \file
/// \brief IncrementalKvcc: dirty-region incremental maintenance of the
/// k-VCC hierarchy over a VersionedGraph, exact by construction.

namespace kvcc {

class KvccEngine;

/// \brief What one IncrementalKvcc::Update call did.
struct IncrementalOutcome {
  /// \brief The VersionedGraph version the state now reflects.
  std::uint64_t version = 0;
  /// \brief Effective deltas consumed by this update (0 for a no-op).
  std::uint64_t delta_edges_applied = 0;
  /// \brief Old hierarchy components invalidated (not carried verbatim),
  /// summed over levels. Strictly below the old component total on
  /// localized edits — the headline locality metric.
  std::uint64_t dirty_components = 0;
  /// \brief Dirty regions re-enumerated (k-core component × level pairs
  /// that ran a fresh enumeration; 1 for a full rebuild).
  std::uint64_t incremental_reruns = 0;
  /// \brief True when the update could not proceed incrementally (first
  /// initialization, or a Compact() folded away the needed deltas) and
  /// the hierarchy was rebuilt from scratch.
  bool full_rebuild = false;
  /// \brief Levels whose component set actually changed, ascending.
  ///
  /// Computed by exact comparison of the old and new per-level lists, so
  /// a mutation that re-derives an identical level leaves it out —
  /// cached results for such levels stay valid (the serving layer keys
  /// its invalidation off this list).
  std::vector<std::uint32_t> dirty_levels;
};

/// \brief Incrementally maintained k-VCC hierarchy of a VersionedGraph.
///
/// Not thread-safe: callers serialize Update() externally (kvccd holds
/// one mutation lock). Readers may hold the shared_ptr results of
/// Hierarchy() / CurrentGraph() across updates — each update publishes
/// fresh immutable objects and never mutates published ones.
class IncrementalKvcc {
 public:
  /// \brief Creates an empty (uninitialized) state.
  /// \param options Enumeration options used for every rebuild and every
  ///   dirty-region re-run.
  explicit IncrementalKvcc(KvccOptions options = {});

  /// \brief Whether a first Update() has run.
  /// \return True once the state holds a hierarchy.
  bool Initialized() const { return hierarchy_ != nullptr; }

  /// \brief The VersionedGraph version the state currently reflects.
  /// \return The version (0 before initialization).
  std::uint64_t Version() const { return version_; }

  /// \brief Catches the state up to `vg`'s current version.
  ///
  /// Snapshots `vg`, replays the effective deltas since the state's
  /// version, re-enumerates only the dirty regions, and publishes the
  /// patched hierarchy. Falls back to a full rebuild when uninitialized
  /// or when Compact() folded the needed history away. With a non-null
  /// engine all dirty-region jobs (across every level) run concurrently
  /// on its pool; without one they run on the calling thread. The result
  /// is byte-identical either way.
  /// \param vg The versioned graph to catch up to.
  /// \param engine Optional warm engine for the region jobs.
  /// \return Counters describing the work done.
  IncrementalOutcome Update(const VersionedGraph& vg,
                            KvccEngine* engine = nullptr);

  /// \brief The current hierarchy (null before the first Update()).
  ///
  /// Structurally byte-identical — nodes, levels, parent/child links,
  /// cohesion — to BuildKvccHierarchy on CurrentGraph(); only the stats
  /// field differs (it accumulates incremental work, not a cold build's).
  /// \return Immutable shared hierarchy.
  std::shared_ptr<const KvccHierarchy> Hierarchy() const {
    return hierarchy_;
  }

  /// \brief The materialized graph the hierarchy describes.
  /// \return Immutable shared graph (null before the first Update()).
  std::shared_ptr<const Graph> CurrentGraph() const { return graph_; }

  /// \brief Cumulative counters over every update since construction,
  /// including the dynamic-maintenance trio (delta_edges_applied,
  /// dirty_components, incremental_reruns). Replay-identical: a given
  /// mutation sequence produces the same totals at every thread count.
  /// \return The accumulated stats.
  const KvccStats& Stats() const { return stats_; }

 private:
  IncrementalOutcome Rebuild(GraphSnapshot snapshot, KvccEngine* engine,
                             std::uint64_t applied);
  void PublishHierarchy();
  std::vector<std::uint32_t> DiffLevels(
      const std::vector<std::vector<std::vector<VertexId>>>& before) const;

  KvccOptions options_;
  std::shared_ptr<const Graph> graph_;
  std::shared_ptr<const KvccHierarchy> hierarchy_;
  // levels_[k-1] = the k-VCCs of *graph_, each sorted, the list in
  // canonical lexicographic order (EnumerateKVccs output format);
  // trailing empty levels trimmed.
  std::vector<std::vector<std::vector<VertexId>>> levels_;
  // One k-ECC of *graph_ and a lower bound (>= k) on its edge
  // connectivity, as KEdgeConnectedComponents reports it. Ordered by the
  // vertex list; the regions of one level are disjoint.
  struct Region {
    std::vector<VertexId> vertices;
    std::uint32_t connectivity = 0;
    bool operator<(const Region& other) const {
      return vertices < other.vertices;
    }
  };
  // regions_[k-1] = the k-ECCs of *graph_ ("regions" at level k), in
  // levels_' order. Cached so the next update only re-derives regions
  // whose induced subgraph a batch edge touched; cleared on full rebuilds
  // (the following update re-derives every level once and re-primes it).
  std::vector<std::vector<Region>> regions_;
  KvccStats stats_;
  std::uint64_t version_ = 0;
  std::uint64_t applied_seen_ = 0;  // vg.AppliedTotal() at last update
  std::vector<EdgeDelta> batch_;    // replay scratch
};

}  // namespace kvcc

#endif  // KVCC_KVCC_INCREMENTAL_H_
