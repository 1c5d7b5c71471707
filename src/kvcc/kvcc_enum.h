// KVCC-ENUM (paper Algorithm 1): enumerate all k-vertex connected
// components of a graph by recursive overlapped partitioning.
//
// Outline: peel the k-core; for every connected component, search for a
// vertex cut with fewer than k vertices (GLOBAL-CUT); components without
// such a cut are k-VCCs; otherwise the cut S is *duplicated* into every
// component of G - S (OVERLAP-PARTITION) and the pieces are processed
// recursively. Correctness: paper Theorem 4; the number of partitions and
// of k-VCCs are both < n/2 (Lemma 10, Theorem 6), giving polynomial total
// time O(min(n^1/2, k) * m * (n + delta^2) * n) (Theorem 7).
#ifndef KVCC_KVCC_KVCC_ENUM_H_
#define KVCC_KVCC_KVCC_ENUM_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "kvcc/job_control.h"
#include "kvcc/options.h"
#include "kvcc/stats.h"

/// \file
/// \brief KVCC-ENUM (paper Algorithm 1): enumerate all k-vertex connected
/// components by recursive overlapped partitioning (EnumerateKVccs).

/// \brief The k-VCC library: enumeration (EnumerateKVccs), batch serving
/// (KvccEngine), streaming delivery (stream.h), and the cohesion
/// hierarchy (hierarchy.h).
namespace kvcc {

/// \brief The complete output of one k-VCC enumeration.
struct KvccResult {
  /// \brief All k-VCCs, each as a sorted list of vertex ids of the
  /// *input* graph; the list of components is sorted lexicographically.
  /// (If the input graph carries labels, map with Graph::LabelsOf.)
  std::vector<std::vector<VertexId>> components;

  /// \brief Execution counters accumulated over the whole run.
  KvccStats stats;
};

/// \brief Enumerates all k-VCCs of g (k >= 1; g need not be connected).
///
/// Runs on the calling thread. Deterministic: identical inputs and options
/// give identical output order. For workers, hold a KvccEngine (see
/// kvcc/engine.h) and Submit the job: its result is byte-identical to this
/// call's at every worker count.
/// \param g The input graph.
/// \param k Connectivity parameter (>= 1).
/// \param options Algorithm variant and execution knobs; deadline_ms > 0
///   arms a wall-clock budget for the call.
/// \return Every k-VCC plus the run's execution counters.
/// \throws std::invalid_argument if k == 0.
/// \throws JobCancelled if options.deadline_ms elapsed before the run
///   finished; the exception carries the partial stats of the work that
///   ran (see kvcc/job_control.h).
KvccResult EnumerateKVccs(const Graph& g, std::uint32_t k,
                          const KvccOptions& options = {});

/// \brief One piece of an overlapped partition: the induced subgraph on
/// (component ∪ cut) plus the ids it was built from.
struct PartitionPiece {
  /// \brief The piece as a graph (label chain per OverlapPartition's
  /// `as_root` parameter).
  Graph graph;
  /// \brief Sorted vertex ids of the piece in the parent graph's id space.
  std::vector<VertexId> vertices;
};

/// \brief OVERLAP-PARTITION (Algorithm 1 lines 13-18): removes `cut` from
/// g, splits the remainder into connected components, and returns for each
/// component the induced subgraph on (component ∪ cut) together with the
/// vertex ids (in g's id space) it was built from.
///
/// `cut` must be a real vertex cut of g, so at least two pieces are
/// returned; a set that fails to separate g (or swallows it whole) throws
/// std::logic_error — checked in every build mode, since recursing on a
/// single self-equal piece would never terminate.
/// \param g The graph to partition.
/// \param cut A vertex cut of g (ids in g's id space).
/// \param as_root When true the pieces' label chains bottom out at g's
///   local ids (see Graph::InducedSubgraphAsRoot) instead of composing
///   g's own labels.
/// \return One piece per connected component of g - cut (at least two).
/// \throws std::logic_error if removing `cut` leaves fewer than two
///   pieces.
std::vector<PartitionPiece> OverlapPartition(const Graph& g,
                                             const std::vector<VertexId>& cut,
                                             bool as_root = false);

}  // namespace kvcc

#endif  // KVCC_KVCC_KVCC_ENUM_H_
