// Sparse certificate for k-vertex connectivity (Cheriyan–Kao–Thurimella)
// and the side-groups used by the group-sweep optimization, both from one
// Nagamochi–Ibaraki pass.
//
// The pass scans every vertex once in maximum-adjacency order. A vertex's
// rank is its number of scanned neighbours, capped at k; the next vertex
// scanned is a waiting one of the highest rank, and among equals the one
// whose rank rose last (untouched vertices go in ascending id), so the
// order depends on g alone. An edge (x, y) with x scanned first belongs
// to forest F_i when x is the i-th of y's neighbours to be scanned.
//
// Each F_i with i <= k is a scan-first-search forest of
// G_{i-1} = G - F_1 - ... - F_{i-1}. In G_{i-1} a waiting vertex has a
// scanned neighbour exactly when its rank is at least i, and a vertex of
// rank below i is scanned only when no vertex of rank i or more is
// waiting; capping ranks at k keeps that true for every i <= k. So
// SC = F_1 ∪ ... ∪ F_k is the certificate of paper Thm 5: it has at most
// k(n-1) edges, and for every vertex set S with |S| < k, G - S and SC - S
// have the same connected components. Consequently:
//   * any vertex cut of SC with fewer than k vertices is a cut of G, and
//   * min(kappa(u,v), k) is identical in SC and G,
// which lets GLOBAL-CUT run all flow tests on the sparser SC.
//
// An edge (x, y) with x scanned first lies in SC iff x is among y's first
// k scanned neighbours. The pass records each vertex's scan position and
// the position of the scan that raised its rank to k, so SC's rows are g's
// sorted rows filtered by an O(1) test, written in place. The scan also
// counts SC's edges before any row is written: a vertex keeps one edge to
// each of its first k scanned neighbours, as many as its rank when it is
// scanned. So SC's row buffer holds twice the sum of those ranks, plus the
// one slot the filter writes past its last kept entry, not g's 2m entries.
//
// Side-groups (paper Thm 10, which holds for any scan-first F_k): the
// connected components of F_k, in which every vertex pair is locally
// k-connected in G. F_k gives each vertex at most one edge to an earlier
// scanned vertex, the one whose scan raised its rank to k, so its trees
// are parent-pointer trees over the scan order.
//
// The whole build costs O(n + m + k): a bucket queue over the ranks
// 0..min(k, n), one scan per vertex, one pass over the rows.
#ifndef KVCC_KVCC_SPARSE_CERTIFICATE_H_
#define KVCC_KVCC_SPARSE_CERTIFICATE_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace kvcc {

/// Group id meaning "vertex belongs to no side-group".
inline constexpr std::uint32_t kNoGroup = static_cast<std::uint32_t>(-1);

struct SparseCertificate {
  /// The certificate subgraph. Same vertex ids (and labels) as the input.
  Graph certificate;

  /// Side-groups: connected components of F_k with at least 2 vertices,
  /// ordered by smallest member. groups[i] is sorted ascending.
  std::vector<std::vector<VertexId>> groups;

  /// Per-vertex group id, or kNoGroup.
  std::vector<std::uint32_t> group_of;
};

/// Reusable working buffers for BuildSparseCertificate: seven arrays of n
/// entries and one of min(k, n) + 1. One instance per enumeration worker
/// amortizes them across the O(n) certificate constructions of a run: once
/// they have grown to the largest subgraph seen, a rebuild performs no heap
/// allocation (beyond side-group list growth on pathological inputs). A
/// default-constructed scratch is always valid.
struct CertificateScratch {
  // The bucket queue: rank[v] is v's capped rank while it waits (kScanned
  // once scanned), and each rank's waiting vertices form an intrusive
  // doubly linked list, newest first.
  std::vector<std::uint32_t> rank;
  std::vector<VertexId> bucket_head;  // size min(k, n) + 1
  std::vector<VertexId> bucket_next;
  std::vector<VertexId> bucket_prev;

  // The pass's record. order[p] is the vertex scanned p-th and position is
  // its inverse. An earlier scanned neighbour x of y is among y's first k
  // iff position[x] < limit[y]: one past the position of the scan that
  // raised y's rank to k, or kNotReached if its rank stayed below k.
  std::vector<VertexId> order;
  std::vector<std::uint32_t> position;
  std::vector<std::uint32_t> limit;

  // The root of each vertex's tree in F_k.
  std::vector<VertexId> tree_root;
};

/// Builds the certificate and its side-groups by one Nagamochi–Ibaraki
/// pass, O(n + m + k), writing into `out` and reusing both `out`'s storage
/// and `scratch`'s buffers.
void BuildSparseCertificate(const Graph& g, std::uint32_t k,
                            SparseCertificate& out,
                            CertificateScratch& scratch);

/// Convenience overload allocating transient storage.
SparseCertificate BuildSparseCertificate(const Graph& g, std::uint32_t k);

}  // namespace kvcc

#endif  // KVCC_KVCC_SPARSE_CERTIFICATE_H_
