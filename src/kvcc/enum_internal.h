// Internal core of the k-VCC enumeration engine (paper Algorithm 1),
// shared by the serial path in kvcc_enum.cc and the batch KvccEngine in
// engine.cc. Not part of the public API surface; include kvcc/kvcc_enum.h
// or kvcc/engine.h instead.
//
// The unit of work is a WorkItem (one subgraph of the recursion tree plus
// carried side-vertex verdicts). ProcessItem runs one recursion step on one
// item using only a per-worker EnumScratch, emitting found k-VCCs and
// spawning partition pieces through caller-supplied sinks. The step is a
// pure function of (item/root, k, options): the emitted components and the
// spawned children do not depend on which worker runs it or when, which is
// what makes any parallel interleaving's merged-and-sorted output identical
// to the serial run's.
//
// Preprocessing inside the step (Alg. 1 lines 2-3) is one staged path: a
// serial bucket peel into pooled scratch (graph/k_core.h), the k-core as
// an induced subgraph, BFS component labelling (graph/
// connected_components.h), and one induced subgraph per component. When
// the core is the whole working graph, or a single component spans the
// core, the step reuses that graph instead of copying it. The peel and the
// split take < 1% of enumeration time, and a fused single-pass variant
// measured no faster, so this is the only path.
//
// The emit callback is also the streaming-delivery tap (kvcc/stream.h):
// the drivers either buffer emitted components for a sorted KvccResult
// (EnumerateKVccs, KvccEngine::Wait) or forward them to a ComponentSink
// the moment they fire (EnumerateKVccsStreaming,
// KvccEngine::SubmitStreaming). Within one ProcessItem call the emission
// order is deterministic, and the serial driver's LIFO stack visits
// children last-spawned-first — together that fixes the "serial emission
// order" that KvccOptions::stable_order reproduces under parallelism (the
// engine keys each emit/spawn with a hierarchical path; see
// KvccEngine::EmitKey in kvcc/engine.h). docs/ARCHITECTURE.md has the
// full map.
#ifndef KVCC_KVCC_ENUM_INTERNAL_H_
#define KVCC_KVCC_ENUM_INTERNAL_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/connected_components.h"
#include "graph/graph.h"
#include "graph/k_core.h"
#include "kvcc/global_cut.h"
#include "kvcc/job_control.h"
#include "kvcc/kvcc_enum.h"
#include "kvcc/options.h"
#include "kvcc/side_vertex.h"
#include "kvcc/stats.h"

namespace kvcc::internal {

struct WorkItem {
  Graph graph;
  /// Strong side-vertex carry-over verdicts (Lemmas 15/16); empty = none.
  std::vector<SideVertexHint> hints;
};

/// Per-worker mutable scratch. Workers never share an EnumScratch, so the
/// hot path runs without atomics or locks, and a long-lived engine keeps
/// the LOC-CUT flow graph (DirectedFlowGraph, including its topology),
/// certificate, sweep buffers, and the peel scratch warm across every job
/// it serves. A default-constructed scratch is always valid.
struct EnumScratch {
  GlobalCutScratch cut_scratch;
  // NeighborsOfSet working set.
  std::vector<bool> nbr_in_set;
  std::vector<bool> nbr_touched;
  KCoreScratch kcore;               // peel marks, degrees, frontiers
  std::vector<VertexId> survivors;  // sorted k-core of the working graph
  std::vector<VertexId> removed;    // peel casualties (hint invalidation)
};

/// Vertices of g with at least one neighbor in `sources` (the 1-hop
/// dilation, excluding the sources themselves unless they qualify). Used
/// for the partition-time maintenance rule: a strong side-vertex verdict
/// survives a partition by cut S iff N(v) ∩ S = ∅ (Lemma 16). Returns a
/// reference into `scratch`, valid until the next call.
inline const std::vector<bool>& NeighborsOfSet(
    const Graph& g, const std::vector<VertexId>& sources,
    EnumScratch& scratch) {
  std::vector<bool>& in_set = scratch.nbr_in_set;
  std::vector<bool>& touched = scratch.nbr_touched;
  in_set.assign(g.NumVertices(), false);
  for (VertexId s : sources) in_set[s] = true;
  touched.assign(g.NumVertices(), false);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (VertexId w : g.Neighbors(v)) {
      if (in_set[w]) {
        touched[v] = true;
        break;
      }
    }
  }
  return touched;
}

/// Runs one step of the Algorithm-1 recursion (k-core peel -> components ->
/// GLOBAL-CUT -> overlapped partition) on one work item. Found k-VCCs are
/// passed to `emit` as sorted id lists; partition pieces are handed to
/// `spawn` as child items; counters accumulate into `stats`. `root` is
/// non-null only for the initial item: the step then reads the caller's
/// graph in place (no identity-label copy) and derived subgraphs seed their
/// label chain at the root via subset labeling. `scheduler` (may be null:
/// fully serial) is handed down into GLOBAL-CUT so a single hard subproblem
/// can fan out to idle workers — the missing parallelism level when the
/// recursion tree is too shallow to feed the pool on its own. `cancel` (may
/// be null: uncancellable) is handed down too; GLOBAL-CUT polls it at its
/// probe and wavefront boundaries and unwinds this step by throwing
/// JobCancelled — the driver is responsible for the whole-item boundary
/// check *before* calling in, and for catching JobCancelled and reporting
/// the outcome with the job's partial stats attached.
template <typename Emit, typename Spawn>
void ProcessItem(WorkItem&& item, const Graph* root, std::uint32_t k,
                 const KvccOptions& options, bool maintain,
                 EnumScratch& scratch, KvccStats& stats,
                 exec::TaskScheduler* scheduler, const CancelToken* cancel,
                 Emit&& emit, Spawn&& spawn) {
  const bool as_root = root != nullptr;
  const Graph* cur = as_root ? root : &item.graph;

  // --- k-core peel (Alg. 1 line 2), bucket kernel ---
  stats.kcore_bucket_rounds +=
      KCoreVerticesInto(*cur, k, scratch.kcore, scratch.survivors);
  const std::vector<VertexId>& survivors = scratch.survivors;
  ++stats.kcore_rounds;
  stats.kcore_removed_vertices += cur->NumVertices() - survivors.size();
  if (survivors.size() <= k) return;  // A k-VCC needs > k vertices.
  const bool full_core = survivors.size() == cur->NumVertices();

  // Peeling invalidates side-vertex verdicts within 2 hops of a removed
  // vertex (common-neighbor counts may have dropped).
  std::vector<bool> peel_touched;
  const bool have_hints = maintain && !item.hints.empty();
  if (have_hints && !full_core) {
    const PeelMask mask = scratch.kcore.Mask();
    std::vector<VertexId>& removed = scratch.removed;
    if (removed.capacity() < cur->NumVertices()) {
      removed.reserve(cur->NumVertices());
    }
    removed.clear();
    for (VertexId v = 0; v < cur->NumVertices(); ++v) {
      if (mask.Removed(v)) removed.push_back(v);
    }
    peel_touched = TwoHopBall(*cur, removed);
  }

  // Maps a component subgraph's vertex i (= cur vertex cur_of(i)) to its
  // carried hint, degrading peel-touched strong verdicts to recheck.
  const auto build_hints = [&](auto&& cur_of, VertexId sub_n,
                               std::vector<SideVertexHint>& out_hints) {
    if (!have_hints) return;
    out_hints.resize(sub_n);
    for (VertexId i = 0; i < sub_n; ++i) {
      const VertexId cur_v = cur_of(i);
      SideVertexHint h = item.hints[cur_v];
      if (h == SideVertexHint::kStrong && !peel_touched.empty() &&
          peel_touched[cur_v]) {
        h = SideVertexHint::kRecheck;
      }
      out_hints[i] = h;
    }
  };

  // Recursion tail (Alg. 1 lines 5-9): GLOBAL-CUT on one component
  // subgraph, then emit it as a k-VCC or partition along the cut.
  const auto run_cut = [&](const Graph& sub, bool sub_is_root,
                           const std::vector<SideVertexHint>& sub_hints) {
    GlobalCutResult found = GlobalCut(sub, k, sub_hints, options, &stats,
                                      &scratch.cut_scratch, scheduler,
                                      cancel);
    if (found.cut.empty()) {
      // sub is k-vertex-connected and maximal within this branch: k-VCC.
      std::vector<VertexId> ids;
      ids.reserve(sub.NumVertices());
      for (VertexId v = 0; v < sub.NumVertices(); ++v) {
        ids.push_back(sub_is_root ? v : sub.LabelOf(v));
      }
      std::sort(ids.begin(), ids.end());
      emit(std::move(ids));
      ++stats.kvccs_found;
      return;
    }

    // --- overlapped partition (Alg. 1 line 9) ---
    ++stats.overlap_partitions;
    // The strong-side verdicts live in the cut scratch (GlobalCutResult
    // documents this); they stay valid until the next GlobalCut call, and
    // every use below happens before this call returns.
    const std::vector<bool>& strong_side = scratch.cut_scratch.side.strong;
    const std::vector<bool>* cut_touched = nullptr;
    if (maintain && found.strong_side_valid) {
      cut_touched = &NeighborsOfSet(sub, found.cut, scratch);
    }
    for (PartitionPiece& piece :
         OverlapPartition(sub, found.cut, sub_is_root)) {
      std::vector<SideVertexHint> child_hints;
      if (maintain && found.strong_side_valid) {
        child_hints.resize(piece.graph.NumVertices());
        for (VertexId i = 0; i < piece.graph.NumVertices(); ++i) {
          const VertexId sub_v = piece.vertices[i];
          if (!strong_side[sub_v]) {
            child_hints[i] = SideVertexHint::kNotStrong;  // Lemma 15.
          } else if ((*cut_touched)[sub_v]) {
            child_hints[i] = SideVertexHint::kRecheck;
          } else {
            child_hints[i] = SideVertexHint::kStrong;  // Lemma 16.
          }
        }
      }
      spawn(WorkItem{std::move(piece.graph), std::move(child_hints)});
    }
  };

  // --- component split (Alg. 1 line 3) ---
  // Materialize the k-core, BFS-label its components, then induce each
  // component from the core.
  Graph core_owned;
  const Graph* core = nullptr;
  bool core_as_root = false;
  if (full_core && as_root) {
    core = root;
    core_as_root = true;
  } else if (full_core) {
    core_owned = std::move(item.graph);  // `cur` is dead from here on.
    core = &core_owned;
  } else {
    core_owned = as_root ? cur->InducedSubgraphAsRoot(survivors)
                         : cur->InducedSubgraph(survivors);
    core = &core_owned;
  }

  const std::vector<std::vector<VertexId>> components =
      ConnectedComponents(*core);
  const bool single_component = components.size() == 1;
  for (const std::vector<VertexId>& comp : components) {
    if (comp.size() <= k) continue;  // Cannot contain a k-VCC (Def. 2).

    // Materialize this component; a single component spanning everything
    // reuses `core` the same way `core` reused the item graph.
    Graph sub_owned;
    const Graph* sub = nullptr;
    bool sub_as_root = false;
    if (single_component && core_as_root) {
      sub = core;
      sub_as_root = true;
    } else if (single_component) {
      sub_owned = std::move(core_owned);
      sub = &sub_owned;
    } else if (core_as_root) {
      sub_owned = core->InducedSubgraphAsRoot(comp);
      sub = &sub_owned;
    } else {
      sub_owned = core->InducedSubgraph(comp);
      sub = &sub_owned;
    }

    // core vertex comp[i] corresponds to cur vertex survivors[comp[i]].
    std::vector<SideVertexHint> sub_hints;
    build_hints([&](VertexId i) { return survivors[comp[i]]; },
                sub->NumVertices(), sub_hints);
    run_cut(*sub, sub_as_root, sub_hints);
  }
}

}  // namespace kvcc::internal

#endif  // KVCC_KVCC_ENUM_INTERNAL_H_
