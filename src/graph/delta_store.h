// Dynamic-graph substrate: an LSM-style in-memory delta over the
// immutable CSR Graph.
//
// A VersionedGraph holds one materialized, immutable Graph per version
// behind a shared_ptr plus an append-only edge memtable (inserts and
// tombstoned deletes, stamped with the version that applied them).
// Snapshot() hands out the current materialized graph; because every
// version is a distinct immutable object, an in-flight decomposition job
// keeps reading its submission-time graph — byte-identical output — while
// any number of mutation batches land behind it. Compact() folds the
// memtable into the current materialization, resetting the catch-up
// horizon (EffectiveSince) without touching any outstanding snapshot.
//
// Materialization cost is one DeltaApplier merge per batch: the previous
// version's CSR rows are merged with the batch's per-vertex sorted delta
// into a reused buffer (the retired version's storage, once no snapshot
// holds it), so steady-state mutation applies without heap allocation —
// see the memhook test WarmDeltaApplyAllocatesNothing and docs/DYNAMIC.md.
#ifndef KVCC_GRAPH_DELTA_STORE_H_
#define KVCC_GRAPH_DELTA_STORE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.h"

/// \file
/// \brief VersionedGraph: snapshot-isolated edge memtable over an
/// immutable base Graph, with a no-alloc CSR merge (DeltaApplier) and
/// Compact() folding.

namespace kvcc {

/// \brief One normalized, effective edge mutation (u < v).
///
/// "Effective" means the mutation changed the graph: an insert of an edge
/// that was absent, or a delete (tombstone) of an edge that was present.
/// VersionedGraph normalizes every incoming batch down to its effective
/// subset before recording or applying it.
struct EdgeDelta {
  /// \brief Smaller endpoint.
  VertexId u = 0;
  /// \brief Larger endpoint.
  VertexId v = 0;
  /// \brief True for an insert, false for a tombstoned delete.
  bool insert = true;
};

/// \brief Merges one effective batch into a base graph's CSR arrays,
/// reusing the output graph's storage.
///
/// This is the seam GraphBuilder::Build lacks: it assumes the edge set
/// is final at build time, so a per-batch rebuild through it costs a
/// full edge-pair pass and fresh allocations.
/// DeltaApplier instead counting-sorts the batch's directed ops by source
/// row and two-pointer-merges each touched CSR row, writing into `out`'s
/// existing vectors. All scratch is owned by the applier and grows
/// monotonically, so a warm Apply performs zero heap allocation (memhook
/// test WarmDeltaApplyAllocatesNothing; inner merge annotated for
/// kvcc-lint R3).
class DeltaApplier {
 public:
  /// \brief Materializes `base` + `batch` into `out`.
  ///
  /// Requirements (debug-asserted): `base` carries no label mapping (the
  /// delta store works in root-id space), every delta has u < v, inserts
  /// are absent from `base`, deletes are present in it, and no (u, v)
  /// pair appears twice in the batch. The output vertex count is
  /// max(base vertices, largest endpoint + 1) — inserts may grow the
  /// graph. `out` must not alias `base`.
  /// \param base The previous materialization.
  /// \param batch Normalized effective deltas (any order).
  /// \param out Receives the new materialization (storage reused).
  void Apply(const Graph& base, std::span<const EdgeDelta> batch, Graph& out);

 private:
  // One direction of one delta, counting-sorted by src.
  struct DirectedOp {
    VertexId src = 0;
    VertexId dst = 0;
    bool is_insert = true;
  };

  // The allocation-free inner kernel: two-pointer merge of every CSR row
  // with its sorted op range into out's already-sized arrays.
  void MergeRowsInto(const Graph& base, VertexId n, Graph& out) const;

  // Grow-only scratch: directed ops sorted by (src, dst), and the op
  // range per source row (CSR-style offsets, size n+1).
  std::vector<DirectedOp> ops_;
  std::vector<std::uint64_t> op_offsets_;
  std::vector<std::uint64_t> op_cursor_;
};

/// \brief An immutable view of one VersionedGraph version.
///
/// The graph pointer stays valid (and its contents frozen) for as long as
/// the snapshot is held, regardless of later mutations or compactions.
struct GraphSnapshot {
  /// \brief The materialized graph of this version.
  std::shared_ptr<const Graph> graph;
  /// \brief The version counter value this snapshot reflects.
  std::uint64_t version = 0;
};

/// \brief Thread-safe versioned graph: immutable base + append-only edge
/// memtable, snapshot isolation, and delta compaction.
///
/// All mutating calls are serialized internally; Snapshot() may race with
/// them freely. Only edge mutations are supported — inserts may introduce
/// new (higher-id) vertices, deletes never remove vertices.
class VersionedGraph {
 public:
  /// \brief Wraps an initial base graph (version 0).
  /// \param base The starting graph; must not carry a label mapping
  ///   (the delta store works in root-id space).
  /// \throws std::invalid_argument if `base` has labels.
  explicit VersionedGraph(Graph base = Graph());

  /// \brief VersionedGraphs are not copyable (they own a mutex and
  /// buffer-reuse state).
  VersionedGraph(const VersionedGraph&) = delete;
  /// \brief VersionedGraphs are not copyable (they own a mutex and
  /// buffer-reuse state).
  VersionedGraph& operator=(const VersionedGraph&) = delete;

  /// \brief The current version's immutable view.
  /// \return Graph pointer + version; never null.
  GraphSnapshot Snapshot() const;

  /// \brief Current version counter (bumped once per effective batch).
  /// \return The version.
  std::uint64_t Version() const;

  /// \brief Version the memtable is relative to (last Compact, or 0).
  /// \return The base version.
  std::uint64_t BaseVersion() const;

  /// \brief Effective deltas currently in the memtable.
  /// \return The count (0 right after Compact()).
  std::size_t DeltaEdges() const;

  /// \brief Effective deltas applied over the graph's whole lifetime
  /// (survives Compact()).
  /// \return The cumulative count.
  std::uint64_t AppliedTotal() const;

  /// \brief Applies an insert batch.
  ///
  /// Self-loops are dropped, duplicates collapsed, and edges already
  /// present ignored; the version advances only if the effective subset
  /// is non-empty.
  /// \param edges Endpoint pairs in any order.
  /// \return Number of effective inserts applied.
  std::size_t InsertEdges(
      std::span<const std::pair<VertexId, VertexId>> edges);

  /// \brief Applies a delete batch (tombstones).
  ///
  /// Self-loops, duplicates, and edges not present are ignored; the
  /// version advances only if the effective subset is non-empty.
  /// \param edges Endpoint pairs in any order.
  /// \return Number of effective deletes applied.
  std::size_t DeleteEdges(
      std::span<const std::pair<VertexId, VertexId>> edges);

  /// \brief Folds the memtable into the current materialization.
  ///
  /// The current version becomes the new base: DeltaEdges() drops to 0
  /// and EffectiveSince() can no longer replay across the fold. No
  /// snapshot is disturbed and the version counter does not change.
  /// \return Number of memtable deltas folded away.
  std::size_t Compact();

  /// \brief Replays the effective deltas applied after `since`.
  ///
  /// The catch-up path for incremental consumers: a consumer at version
  /// `since` appends exactly the deltas it is missing. Fails (returns
  /// false, appends nothing) when `since` predates the base version — a
  /// Compact() folded part of the needed history, so the consumer must
  /// rebuild from a fresh Snapshot() instead.
  /// \param since The consumer's current version.
  /// \param out Receives the missing deltas, oldest first.
  /// \return Whether the memtable still covers `since`.
  bool EffectiveSince(std::uint64_t since, std::vector<EdgeDelta>& out) const;

 private:
  std::size_t Mutate(std::span<const std::pair<VertexId, VertexId>> edges,
                     bool insert);

  struct MemtableEntry {
    EdgeDelta delta;
    std::uint64_t version = 0;
  };

  mutable std::mutex mutex_;
  std::shared_ptr<Graph> current_;  // handed out as shared_ptr<const Graph>
  std::shared_ptr<Graph> retired_;  // previous version; reused when unique
  DeltaApplier applier_;
  std::vector<MemtableEntry> memtable_;
  std::vector<EdgeDelta> batch_;  // normalization scratch
  std::uint64_t version_ = 0;
  std::uint64_t base_version_ = 0;
  std::uint64_t applied_total_ = 0;
};

}  // namespace kvcc

#endif  // KVCC_GRAPH_DELTA_STORE_H_
