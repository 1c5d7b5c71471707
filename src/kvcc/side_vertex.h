// Strong side-vertex detection (paper Section 5.1.1).
//
// A vertex u is a *strong side-vertex* (Thm 8 / Def 10) if every pair of its
// neighbors is either adjacent or shares >= k common neighbors. Such a
// vertex cannot belong to any minimum vertex cut, which makes the
// transitivity rule of Lemma 11 applicable: once the source is known to be
// locally k-connected to u, all of u's neighbors can be swept.
//
// Soundness note: over-reporting strong side-vertices would let sweeps hide
// real cuts, so detection errs strictly on the side of under-reporting
// (degree caps and unverified maintenance hints downgrade to "not strong").
#ifndef KVCC_KVCC_SIDE_VERTEX_H_
#define KVCC_KVCC_SIDE_VERTEX_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace kvcc {

/// Carry-over verdict for one vertex when a graph is derived from a parent
/// graph (overlap partition and/or k-core peeling), per Lemmas 15/16.
enum class SideVertexHint : std::uint8_t {
  /// No usable parent verdict; run the full check.
  kRecheck,
  /// Strong in the parent and 2-hop neighbourhood untouched: still strong.
  kStrong,
  /// Not strong in the parent: conservatively treated as not strong
  /// (Lemma 15 direction; sound under-detection).
  kNotStrong,
};

/// Instrumentation counters of one detection pass (the verdicts land in
/// the scratch).
struct SideVertexCounts {
  std::uint64_t checks_run = 0;    // full Theta(d^2) checks executed
  std::uint64_t reused = 0;        // verdicts taken from hints
  std::uint64_t strong_count = 0;
};

/// Reusable working set for strong side-vertex detection. One instance per
/// enumeration worker (inside GlobalCutScratch) serves every GLOBAL-CUT
/// call of a run: the verdict vector and the memoized pair-verdict table
/// only ever grow, so the steady-state detection pass performs no heap
/// allocation. A default-constructed scratch is always valid.
///
/// For each neighbor N(u)[i] the pass walks N(u)[i]'s row once with a
/// forward cursor that steps over short gaps, and gallops over long ones,
/// to each later neighbor N(u)[j]. The walk settles every adjacent pair
/// (N(u)[i], N(u)[j]), j > i, so only non-adjacent pairs reach the pair
/// table, and a short N(u) crossing a hub's long row costs O(log) per
/// pair.
struct SideVertexScratch {
  /// Verdicts of the most recent ComputeStrongSideVerticesInto call, one
  /// byte per vertex of that call's graph (1 = strong). Stable until the
  /// next call. Bytes, not bits: the ranges of one pass may be written by
  /// different threads, and neighbouring bits of a vector<bool> share a
  /// word.
  std::vector<std::uint8_t> strong;

  // Open-addressing pair-verdict cache (Theorem-8 memoization). Slots are
  // epoch-stamped so invalidating the table costs O(1); growth reallocates
  // and simply drops the cached verdicts (they are deterministic, so
  // re-deriving them cannot change any result). `pair_pass` is the
  // detection pass whose verdicts the live slots hold: a range of another
  // pass bumps the epoch first, so a table lent to the ranges of several
  // passes never serves one pass's verdict to another.
  struct PairSlot {
    std::uint64_t key = 0;
    std::uint64_t epoch = 0;
    bool good = false;
  };
  std::vector<PairSlot> pair_slots;
  std::uint64_t pair_epoch = 0;
  std::uint64_t pair_pass = 0;
  std::size_t pair_live = 0;
};

/// A stamp for one detection pass that no other pass of the process
/// holds: a 64-bit counter, so it never repeats within a run (an address
/// would, once a pass's frame is reused). Never 0.
std::uint64_t NewSideVertexPass();

/// The Theorem-8 loop behind every detection pass: writes the verdict of
/// each vertex u in [begin, end) of g to strong[u] (1 = strong, 0 = not)
/// and returns the range's counts. A pass may check its vertices as one
/// range or as several disjoint ranges, on any threads; the verdicts and
/// the counts summed over the ranges are the same either way. `hints` and
/// `degree_cap` are as for ComputeStrongSideVerticesInto. `memo` lends its
/// pair table: it serves verdicts memoized under the same `pass` only
/// (see SideVertexScratch), so every range of one pass must share one
/// stamp from NewSideVertexPass(), and a memo may serve one range at a
/// time. `memo.strong` is not touched.
SideVertexCounts CheckStrongSideVertexRange(
    const Graph& g, std::uint32_t k, const std::vector<SideVertexHint>& hints,
    std::uint32_t degree_cap, VertexId begin, VertexId end,
    std::uint64_t pass, SideVertexScratch& memo, std::uint8_t* strong);

/// Computes the strong side-vertex set of g into scratch.strong (resized
/// to one byte per vertex of g; capacity only grows): one range over all
/// of g, under a fresh pass stamp. `hints` may be empty (check
/// everything) or size n. Vertices with degree above `degree_cap` (if
/// nonzero) are reported not strong without checking. The Theorem-8 pair
/// checks are memoized in the scratch's flat table. Steady state
/// (capacities already grown): no heap allocation.
SideVertexCounts ComputeStrongSideVerticesInto(
    const Graph& g, std::uint32_t k, const std::vector<SideVertexHint>& hints,
    std::uint32_t degree_cap, SideVertexScratch& scratch);

/// True iff a and b have at least k common neighbors in g (Lemma 13 gives
/// a ≡k b then). Linear merge of the sorted adjacency lists, early exit.
bool CommonNeighborsAtLeast(const Graph& g, VertexId a, VertexId b,
                            std::uint32_t k);

/// Vertices within distance <= 2 of any vertex in `sources` (including the
/// sources themselves). Used to invalidate side-vertex verdicts around a
/// cut / peeled set before deriving child graphs.
std::vector<bool> TwoHopBall(const Graph& g,
                             const std::vector<VertexId>& sources);

}  // namespace kvcc

#endif  // KVCC_KVCC_SIDE_VERTEX_H_
