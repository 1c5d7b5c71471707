// Internal core of the k-VCC enumeration engine (paper Algorithm 1),
// shared by the serial path in kvcc_enum.cc and the batch KvccEngine in
// engine.cc. Not part of the public API surface; include kvcc/kvcc_enum.h
// or kvcc/engine.h instead.
//
// The unit of work is a WorkItem (one subgraph of the recursion tree plus
// carried side-vertex verdicts). ProcessItem runs one recursion step on one
// item using only a per-worker EnumScratch, emitting found k-VCCs and
// spawning partition pieces (and, when the k-core splits, its components)
// through caller-supplied sinks. The step is a pure function of
// (item/root, k, options): the emitted components and the spawned children
// do not depend on which worker runs it or when, which is what makes any
// parallel interleaving's merged-and-sorted output identical to the serial
// run's.
//
// Preprocessing inside the step (Alg. 1 lines 2-3) is one staged path: a
// serial bucket peel into pooled scratch (graph/k_core.h), the item's
// graph shrunk in place to its k-core (Graph::InduceInPlace), and BFS
// component labelling (graph/connected_components.h). Then either each
// component that can hold a k-VCC is copied out as an item of its own
// (when two or more can), or the graph is shrunk in place again to the
// one that can. The caller's graph is never written: a step on it copies
// its core or component out, unless the peel and the split leave it whole.
// The peel and the split take < 1% of enumeration time, and a fused
// single-pass variant measured no faster, so this is the only path.
//
// The emit callback is also the streaming-delivery tap (kvcc/stream.h):
// the drivers either buffer emitted components for a sorted KvccResult
// (EnumerateKVccs, KvccEngine::Wait) or push them into a ResultStream's
// channel the moment they fire (KvccEngine::SubmitStream), in completion
// order. docs/ARCHITECTURE.md has the full map.
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

/// Per-worker mutable scratch. A worker's tasks alone use its EnumScratch,
/// so the hot path runs without atomics or locks, and a long-lived engine
/// keeps the LOC-CUT flow probe (FlowProbe), certificate, sweep buffers,
/// and the peel scratch warm across every job it serves. Between its
/// tasks, GLOBAL-CUT fork-joins of other workers borrow its cut_scratch's
/// probe and pair table (kvcc/global_cut.h). A default-constructed scratch
/// is always valid.
struct EnumScratch {
  GlobalCutScratch cut_scratch;
  // NeighborsOfSet working set.
  std::vector<bool> nbr_in_set;
  std::vector<bool> nbr_touched;
  KCoreScratch kcore;               // residual degrees + removal queue
  std::vector<VertexId> survivors;  // sorted k-core of the working graph
  std::vector<VertexId> local_id;   // Graph::InduceInPlace's id map
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
/// `spawn` as child items; counters accumulate into `stats`. When the
/// k-core splits into two or more components of more than k vertices, each
/// of them is handed to `spawn` as its own item (whose step finds it a
/// k-core of one component) instead of being cut here one after another,
/// so a pool cuts them side by side. `root` is non-null only for the
/// initial item: the step then reads the caller's graph in place (no
/// identity-label copy) and derived subgraphs seed their label chain at
/// the root via subset labeling. `pool` (may be null: fully serial) is
/// handed down into GLOBAL-CUT so a single hard subproblem can fan its
/// set-up and probes out to idle workers — the missing parallelism level
/// when the recursion tree is too shallow to feed the pool on its own.
/// `cancel` (may be null: uncancellable) is handed down too; GLOBAL-CUT
/// polls it at its probe and wavefront boundaries and unwinds this step by
/// throwing JobCancelled — the driver is responsible for the whole-item
/// boundary check *before* calling in, and for catching JobCancelled and
/// reporting the outcome with the job's partial stats attached.
template <typename Emit, typename Spawn>
void ProcessItem(WorkItem&& item, const Graph* root, std::uint32_t k,
                 const KvccOptions& options, EnumScratch& scratch,
                 KvccStats& stats, const GlobalCutPool* pool,
                 const CancelToken* cancel, Emit&& emit, Spawn&& spawn) {
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
  // vertex (common-neighbor counts may have dropped). The peel's removal
  // queue lists each removed vertex once.
  std::vector<bool> peel_touched;
  const bool have_hints = options.neighbor_sweep && !item.hints.empty();
  if (have_hints && !full_core) {
    peel_touched = TwoHopBall(*cur, scratch.kcore.queue);
  }

  // Recursion tail (Alg. 1 lines 5-9): GLOBAL-CUT on one component
  // subgraph, then emit it as a k-VCC or partition along the cut.
  const auto run_cut = [&](const Graph& sub, bool sub_is_root,
                           const std::vector<SideVertexHint>& sub_hints) {
    GlobalCutResult found = GlobalCut(sub, k, sub_hints, options, &stats,
                                      &scratch.cut_scratch, pool, cancel);
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
    // With neighbor sweep, the strong-side verdicts live in the cut scratch
    // (GlobalCut documents this); they stay valid until the next GlobalCut
    // call, and every use below happens before this call returns.
    const std::vector<std::uint8_t>& strong_side =
        scratch.cut_scratch.side.strong;
    const std::vector<bool>* cut_touched = nullptr;
    if (options.neighbor_sweep) {
      cut_touched = &NeighborsOfSet(sub, found.cut, scratch);
    }
    for (PartitionPiece& piece :
         OverlapPartition(sub, found.cut, sub_is_root)) {
      std::vector<SideVertexHint> child_hints;
      if (options.neighbor_sweep) {
        child_hints.resize(piece.graph.NumVertices());
        for (VertexId i = 0; i < piece.graph.NumVertices(); ++i) {
          const VertexId sub_v = piece.vertices[i];
          if (strong_side[sub_v] == 0) {
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
  // The step shrinks the graph its item owns in place, to the k-core and
  // then to a single surviving component. Only a subgraph of the caller's
  // graph (read in place, never written) and the components of a fan-out
  // are copies.
  const Graph* core = cur;
  bool core_as_root = as_root;
  if (!full_core && as_root) {
    item.graph = root->InducedSubgraphAsRoot(survivors);
    core = &item.graph;
    core_as_root = false;
  } else if (!full_core) {
    item.graph.InduceInPlace(survivors, scratch.local_id);
  }

  const std::vector<std::vector<VertexId>> components =
      ConnectedComponents(*core);
  // Components of at most k vertices cannot contain a k-VCC (Def. 2).
  const auto holds_kvcc = [k](const std::vector<VertexId>& comp) {
    return comp.size() > k;
  };
  // The carried hints of a component's subgraph, whose vertex i is core
  // vertex comp[i], which is cur vertex survivors[comp[i]]. Peel-touched
  // strong verdicts degrade to recheck.
  const auto component_hints = [&](const std::vector<VertexId>& comp) {
    std::vector<SideVertexHint> sub_hints;
    if (!have_hints) return sub_hints;
    sub_hints.resize(comp.size());
    for (std::size_t i = 0; i < comp.size(); ++i) {
      const VertexId cur_v = survivors[comp[i]];
      SideVertexHint h = item.hints[cur_v];
      if (h == SideVertexHint::kStrong && !peel_touched.empty() &&
          peel_touched[cur_v]) {
        h = SideVertexHint::kRecheck;
      }
      sub_hints[i] = h;
    }
    return sub_hints;
  };
  if (std::count_if(components.begin(), components.end(), holds_kvcc) >=
      2) {
    // Each component becomes an item of its own, so a pool cuts them side
    // by side; their steps repeat only the peel and the split, which find
    // nothing to remove (each component of a k-core is a k-core).
    for (const std::vector<VertexId>& comp : components) {
      if (!holds_kvcc(comp)) continue;
      spawn(WorkItem{core_as_root ? core->InducedSubgraphAsRoot(comp)
                                  : core->InducedSubgraph(comp),
                     component_hints(comp)});
    }
    return;
  }
  const auto comp =
      std::find_if(components.begin(), components.end(), holds_kvcc);
  if (comp == components.end()) return;
  std::vector<SideVertexHint> sub_hints = component_hints(*comp);
  if (comp->size() < core->NumVertices()) {
    if (core_as_root) {
      item.graph = root->InducedSubgraphAsRoot(*comp);
      core_as_root = false;
    } else {
      item.graph.InduceInPlace(*comp, scratch.local_id);
    }
    core = &item.graph;
  }
  run_cut(*core, core_as_root, sub_hints);
}

}  // namespace kvcc::internal

#endif  // KVCC_KVCC_ENUM_INTERNAL_H_
