#include "kvcc/global_cut.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

#include "kvcc/sparse_certificate.h"
#include "kvcc/sweep_context.h"

namespace kvcc {
namespace {

/// One LOC-CUT probe on `flow`; adds the arcs its flow inspected to
/// `edges_touched`.
std::vector<VertexId> CountedLocCut(DirectedFlowGraph& flow, VertexId u,
                                    VertexId v, std::uint32_t k,
                                    std::uint64_t& edges_touched) {
  const std::uint64_t before = flow.work_arcs();
  std::vector<VertexId> cut = flow.LocCut(u, v, k);
  edges_touched += flow.work_arcs() - before;
  return cut;
}

/// Grow-only sizing of the epoch-stamped visit marks. New entries carry
/// stamp 0, which never equals a live epoch. Warm calls (marks already at
/// high-water) touch no allocator.
// kvcc-lint: no-alloc
void EnsureMarks(GlobalCutScratch& scratch, VertexId n) {
  if (scratch.removed_mark.size() < n) {
    scratch.removed_mark.resize(n, 0);  // kvcc-lint: reserved
    scratch.seen_mark.resize(n, 0);     // kvcc-lint: reserved
  }
}

/// BFS from the source into scratch.order_dist and returns the largest
/// distance. Visited state is epoch-stamped (no O(n) re-assignment per
/// call). Throws std::invalid_argument if some vertex is unreachable —
/// a hard check in every build mode, because the old assert compiled out
/// of Release builds and let kUnreachable either index out of bounds
/// (distance ordering) or silently misread a 0-flow as local
/// k-connectivity (phase 1 on a disconnected input).
// kvcc-lint: no-alloc — warm path; the unreachable-vertex throw below is
// the (allocating) error exit of a dead input, never the steady state.
std::uint32_t CheckConnectedFromSource(const Graph& g, VertexId source,
                                       GlobalCutScratch& scratch) {
  const VertexId n = g.NumVertices();
  EnsureMarks(scratch, n);
  // Grow-only scratch buffers: warm calls stay at high-water capacity.
  if (scratch.order_dist.size() < n) scratch.order_dist.resize(n);  // kvcc-lint: reserved
  const std::uint64_t epoch = ++scratch.mark_epoch;
  std::vector<std::uint32_t>& dist = scratch.order_dist;
  std::vector<std::uint64_t>& seen = scratch.seen_mark;
  std::vector<VertexId>& queue = scratch.mark_queue;
  queue.clear();
  queue.push_back(source);  // kvcc-lint: reserved
  seen[source] = epoch;
  dist[source] = 0;
  VertexId reached = 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const VertexId u = queue[head];
    const std::uint32_t next_dist = dist[u] + 1;
    for (VertexId w : g.Neighbors(u)) {
      if (seen[w] != epoch) {
        seen[w] = epoch;
        dist[w] = next_dist;
        ++reached;
        queue.push_back(w);  // kvcc-lint: reserved
      }
    }
  }
  if (reached < n) {
    VertexId unreachable = kInvalidVertex;
    for (VertexId v = 0; v < n; ++v) {
      if (seen[v] != epoch) {
        unreachable = v;
        break;
      }
    }
    throw std::invalid_argument(
        "GlobalCut: input graph is not connected (vertex " +
        std::to_string(unreachable) + " is unreachable from source " +
        std::to_string(source) + ")");
  }
  return dist[queue.back()];  // BFS order: the last vertex is farthest.
}

/// Fills scratch.order with the phase-1 processing order: non-ascending
/// BFS distance from the source (in scratch.order_dist), ties by ascending
/// id (deterministic). Counting sort over distances into reused buffers.
void DistanceDescendingOrder(const Graph& g, VertexId source,
                             std::uint32_t max_dist,
                             GlobalCutScratch& scratch) {
  const VertexId n = g.NumVertices();
  const std::vector<std::uint32_t>& dist = scratch.order_dist;

  // Bucket counts, then start offsets laid out from the farthest distance
  // down to 0; a stable ascending-id fill lands every vertex in place.
  std::vector<std::uint32_t>& start = scratch.order_bucket_start;
  start.assign(max_dist + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    if (v != source) ++start[dist[v]];
  }
  std::uint32_t base = 0;
  for (std::uint32_t d = max_dist;; --d) {
    const std::uint32_t count = start[d];
    start[d] = base;
    base += count;
    if (d == 0) break;
  }
  std::vector<VertexId>& order = scratch.order;
  order.resize(n - 1);
  for (VertexId v = 0; v < n; ++v) {
    if (v != source) order[start[dist[v]]++] = v;
  }
}

void CountPrunedVertex(SweepCause cause, KvccStats* stats) {
  switch (cause) {
    case SweepCause::kNeighborSweepSide:
      ++stats->phase1_pruned_ns1;
      break;
    case SweepCause::kNeighborSweepDeposit:
      ++stats->phase1_pruned_ns2;
      break;
    case SweepCause::kGroupSweep:
      ++stats->phase1_pruned_gs;
      break;
    case SweepCause::kTested:
      // Only the source carries kTested before the loop reaches a vertex,
      // and the source is excluded from the order; nothing to count.
      break;
  }
}

// Adaptive wavefront batch bounds: start small (distance ordering tends to
// surface cuts within the first few probes, and every probe past a
// committed cut is waste), grow while the observed prune rate keeps
// speculative waste low, shrink when sweeps are pruning aggressively.
// Driven purely by committed (deterministic) outcomes, so the batch-size
// trajectory — and with it every probe-waste counter — is a pure function
// of (input, options), independent of thread count or timing.
constexpr std::uint32_t kBatchInit = 4;
constexpr std::uint32_t kBatchMin = 4;
constexpr std::uint32_t kBatchMax = 256;

}  // namespace

namespace detail {

// Precondition: `cut` entries are distinct vertices of g (LocCut extracts
// them from a deduplicated residual scan). Warm zero-allocation asserted by
// memory_tracker_test.WarmCutDisconnectsAllocatesNothing.
// kvcc-lint: no-alloc
bool CutDisconnects(const Graph& g, const std::vector<VertexId>& cut,
                    GlobalCutScratch& scratch) {
  const VertexId n = g.NumVertices();
  EnsureMarks(scratch, n);
  const std::uint64_t epoch = ++scratch.mark_epoch;
  std::vector<std::uint64_t>& removed = scratch.removed_mark;
  std::vector<std::uint64_t>& seen = scratch.seen_mark;
  std::vector<VertexId>& queue = scratch.mark_queue;
  for (VertexId v : cut) removed[v] = epoch;
  const VertexId alive = n - static_cast<VertexId>(cut.size());
  if (alive == 0) return false;  // Removing everything is not a cut.
  VertexId start = 0;
  while (removed[start] == epoch) ++start;
  queue.clear();
  queue.push_back(start);  // kvcc-lint: reserved
  seen[start] = epoch;
  VertexId reached = 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    for (VertexId w : g.Neighbors(queue[head])) {
      if (removed[w] != epoch && seen[w] != epoch) {
        seen[w] = epoch;
        ++reached;
        queue.push_back(w);  // kvcc-lint: reserved
      }
    }
  }
  return reached < alive;
}

}  // namespace detail

GlobalCutResult GlobalCut(const Graph& g, std::uint32_t k,
                          const std::vector<SideVertexHint>& hints,
                          const KvccOptions& options, KvccStats* stats,
                          GlobalCutScratch* scratch,
                          exec::TaskScheduler* scheduler,
                          const CancelToken* cancel) {
  GlobalCutScratch transient;
  if (scratch == nullptr) scratch = &transient;
  const VertexId n = g.NumVertices();
  assert(n > k);
  assert(hints.empty() || hints.size() == n);

  // Cooperative cancellation: polled at entry, before every serial flow
  // probe, and at every wavefront-batch formation — the boundaries that
  // bound time-to-unwind by one probe / one batch. The thrown JobCancelled
  // carries no stats; the enumeration driver attaches the job's partial
  // counters when it surfaces the outcome.
  auto check_cancelled = [cancel, stats]() {
    if (cancel != nullptr && cancel->Cancelled()) {
      ++stats->cuts_cancelled;
      throw JobCancelled("GLOBAL-CUT cancelled mid-search");
    }
  };
  // Count the invocation before the entry check: a cancelled-at-entry
  // search is still a (cancelled) call, keeping cuts_cancelled <=
  // global_cut_calls coherent in partial stats.
  ++stats->global_cut_calls;
  check_cancelled();
  ++scratch->probe_epoch;  // Pool oracles from older invocations are stale.

  GlobalCutResult result;

  // --- sparse certificate (Alg. 2/3 line 1) ---
  // Rebuilt into the scratch's reused storage: on the steady-state path
  // the certificate construction touches no allocator.
  SparseCertificate& sc = scratch->cert;
  const bool use_certificate = options.sparse_certificate;
  if (use_certificate) {
    BuildSparseCertificate(g, k, sc, scratch->cert_scratch);
    stats->certificate_edges_input += g.NumEdges();
    stats->certificate_edges_kept += sc.certificate.NumEdges();
    stats->side_groups_found += sc.groups.size();
  }
  const Graph& test_graph = use_certificate ? sc.certificate : g;
  const bool group_sweep = options.group_sweep && use_certificate;
  static const std::vector<std::vector<VertexId>> kNoGroups;
  static const std::vector<std::uint32_t> kNoGroupOf;
  const auto& groups = group_sweep ? sc.groups : kNoGroups;
  const auto& group_of = group_sweep ? sc.group_of : kNoGroupOf;

  // --- strong side-vertices (Alg. 3 line 3) ---
  // Verdicts land in the scratch's reused buffer (no per-call O(n) copy);
  // they stay readable there until the scratch's next GlobalCut call.
  if (options.neighbor_sweep) {
    static const std::vector<SideVertexHint> kNoHints;
    const auto& effective_hints =
        options.maintain_side_vertices ? hints : kNoHints;
    const SideVertexCounts side_counts = ComputeStrongSideVerticesInto(
        g, k, effective_hints, options.side_vertex_degree_cap, scratch->side);
    stats->strong_side_vertices_found += side_counts.strong_count;
    stats->strong_side_checks_run += side_counts.checks_run;
    stats->strong_side_verdicts_reused += side_counts.reused;
    result.strong_side_valid = true;
  } else {
    scratch->side.strong.assign(n, false);
  }
  const std::vector<bool>& strong = scratch->side.strong;

  // --- source selection (Alg. 3 lines 4-7) ---
  VertexId source = kInvalidVertex;
  if (options.neighbor_sweep) {
    for (VertexId v = 0; v < n; ++v) {
      if (strong[v]) {
        source = v;
        break;
      }
    }
  }
  if (source == kInvalidVertex) source = test_graph.MinDegreeVertex();
  const bool source_is_strong = options.neighbor_sweep && strong[source];

  // Wavefront engagement, decided up front (see the machinery comment
  // below). The vertex floor keeps small subproblems — which the
  // subproblem level already parallelizes — on the exact serial loop,
  // where speculation cannot pay for itself.
  const bool wavefronts = scheduler != nullptr &&
                          scheduler->num_workers() > 1 &&
                          options.intra_cut_parallelism &&
                          (options.intra_cut_min_vertices == 0 ||
                           n >= options.intra_cut_min_vertices);
  // Bound in both modes — serial probes run on it directly, and in
  // wavefront mode it is the topology owner every pool slot incrementally
  // rebinds to (one O(m) build per invocation instead of one per slot).
  DirectedFlowGraph& flow = scratch->flow;
  flow.Rebuild(test_graph);
  // Epoch rebind: O(1) reset of the sweep arrays, no reallocation.
  SweepContext& sweep = scratch->sweep;
  sweep.Bind(g, k, strong, groups, group_of, options.neighbor_sweep,
             group_sweep);
  sweep.Sweep(source, SweepCause::kTested);

  auto finish_with_cut = [&](std::vector<VertexId> cut) {
    if (use_certificate && options.verify_cuts &&
        !detail::CutDisconnects(g, cut, *scratch)) {
      // By the certificate theorem this cannot happen; if it ever does,
      // fall back to an exact search on the full graph. The recursive call
      // rebinds the scratch's flow/sweep/order/wavefront state; none of
      // it is used here afterwards.
      ++stats->certificate_cut_fallbacks;
      KvccOptions fallback = options;
      fallback.sparse_certificate = false;
      return GlobalCut(g, k, hints, fallback, stats, scratch, scheduler,
                       cancel);
    }
    std::sort(cut.begin(), cut.end());
    result.cut = std::move(cut);
    return result;
  };

  // --- phase-1 processing order ---
  // The connectivity precondition is enforced for every variant (one BFS,
  // dwarfed by the flow tests), not just when its distances are needed.
  const std::uint32_t max_dist = CheckConnectedFromSource(g, source, *scratch);
  if (options.distance_order) {
    DistanceDescendingOrder(g, source, max_dist, *scratch);
  } else {
    scratch->order.clear();
    scratch->order.reserve(n - 1);
    for (VertexId v = 0; v < n; ++v) {
      if (v != source) scratch->order.push_back(v);
    }
  }

  // --- intra-cut wavefront machinery ---
  // Engagement depends only on (options, scheduler shape), never on runtime
  // load: whether a wavefront's probes actually execute on several workers
  // is the scheduler's starvation-gated call, but the wavefront *structure*
  // — which probes launch, in which batches — is a pure function of the
  // input, so the probe-waste counters (and everything else) reproduce
  // exactly across runs and thread counts.
  std::uint32_t batch =
      options.probe_batch_size != 0 ? options.probe_batch_size : kBatchInit;
  const bool adaptive_batch = options.probe_batch_size == 0;
  auto adapt = [&](std::uint32_t launched, std::uint32_t wasted) {
    if (!adaptive_batch || launched == 0) return;
    if (wasted * 4 >= launched) {
      batch = std::max(kBatchMin, batch / 2);  // > 25% waste: back off.
    } else if (wasted * 8 <= launched) {
      batch = std::min(kBatchMax, batch * 2);  // <= 12.5% waste: open up.
    }
  };

  // Runs the current wavefront's probe list concurrently and returns how
  // many *flow* probes actually ran (deferred-common entries settled by
  // the Lemma-13 test never touch a flow graph). Each executor slot owns
  // one pool oracle, incrementally rebound (DirectedFlowGraph::
  // RebindShared — adopt the owner's arc arrays, restamp capacities by
  // epoch) to this invocation's topology owner the first time the slot
  // participates; a probe writes only its own wave_cuts /
  // wave_common_skip / wave_edges entries, and the commit loop below
  // reads the results only after ParallelFor returned, so probes race
  // with nothing. The sweep state is
  // snapshot-immutable during the wavefront: formation read it serially,
  // and commits mutate it serially afterwards.
  auto run_probes = [&]() -> std::uint32_t {
    const auto& args = scratch->wave_probe_args;
    const std::uint32_t launched = static_cast<std::uint32_t>(args.size());
    if (launched == 0) return 0;
    const unsigned slots = scheduler->num_workers() + 1;
    if (scratch->probe_pool.size() < slots) scratch->probe_pool.resize(slots);
    if (scratch->wave_cuts.size() < launched) scratch->wave_cuts.resize(launched);
    if (scratch->wave_common_skip.size() < launched) {
      scratch->wave_common_skip.resize(launched);
    }
    if (scratch->wave_edges.size() < launched) {
      scratch->wave_edges.resize(launched);
    }
    ++stats->probe_wavefronts;
    auto& pool = scratch->probe_pool;
    auto& cuts = scratch->wave_cuts;
    auto& common_skip = scratch->wave_common_skip;
    auto& edges = scratch->wave_edges;
    const auto& deferred = scratch->wave_probe_common;
    const std::uint64_t epoch = scratch->probe_epoch;
    const DirectedFlowGraph& owner = flow;
    const Graph& host = g;
    // Helper stubs carry the owning job's latency class, so an
    // interactive job's wavefront competes for idle workers at its own
    // priority instead of degrading to kNormal on its hardest subproblem.
    scheduler->ParallelFor(
        launched,
        [&pool, &cuts, &common_skip, &edges, &args, &deferred, &owner,
         &host, epoch, k](std::size_t i, unsigned slot) {
          if (!pool[slot]) pool[slot] = std::make_unique<ProbeOracle>();
          ProbeOracle& po = *pool[slot];
          if (po.bound_epoch != epoch) {
            po.flow.RebindShared(owner);
            po.bound_epoch = epoch;
          }
          edges[i] = 0;
          // Lemma-13 pre-test, hoisted out of the serial formation loop: a
          // pure function of the working graph, so evaluating it here is
          // replay-equivalent while parallelizing the Theta(d) merges that
          // dominate pair formation on hub-heavy sources.
          if (deferred[i] != 0 &&
              CommonNeighborsAtLeast(host, args[i].first, args[i].second,
                                     k)) {
            common_skip[i] = 1;
            cuts[i].clear();
          } else {
            common_skip[i] = 0;
            cuts[i] = CountedLocCut(po.flow, args[i].first, args[i].second,
                                    k, edges[i]);
          }
        },
        ToTaskPriority(options.priority));
    // Serial roll-up over every launched probe — speculative ones
    // included, their flow work is real — keeps probe_edges_touched
    // deterministic for a fixed (input, options, thread count).
    std::uint32_t flow_probes = 0;
    for (std::uint32_t i = 0; i < launched; ++i) {
      if (common_skip[i] == 0) ++flow_probes;
      stats->probe_edges_touched += edges[i];
    }
    stats->probes_launched += flow_probes;
    return flow_probes;
  };

  // --- phase 1 (Alg. 3 lines 8-15): covers every cut avoiding the source ---
  if (!wavefronts) {
    for (VertexId v : scratch->order) {
      if (sweep.IsSwept(v)) {
        CountPrunedVertex(sweep.CauseOf(v), stats);
        continue;
      }
      if (g.HasEdge(source, v)) {
        // Lemma 5: adjacent vertices are locally k-connected for free.
        ++stats->phase1_tested_trivial;
        sweep.Sweep(v, SweepCause::kTested);
        continue;
      }
      check_cancelled();
      ++stats->phase1_tested_flow;
      ++stats->loc_cut_flow_calls;
      std::vector<VertexId> cut =
          CountedLocCut(flow, source, v, k, stats->probe_edges_touched);
      if (!cut.empty()) return finish_with_cut(std::move(cut));
      sweep.Sweep(v, SweepCause::kTested);
    }
  } else {
    const std::vector<VertexId>& order = scratch->order;
    std::size_t pos = 0;
    while (pos < order.size()) {
      check_cancelled();
      // Formation (serial): classify vertices from the current position
      // until `batch` probes are collected. The sweep snapshot is the live
      // state — no commit of this wavefront has happened yet, so anything
      // unswept here is exactly what the serial loop could still reach.
      std::vector<ProbeCandidate>& wave = scratch->wave;
      auto& args = scratch->wave_probe_args;
      wave.clear();
      args.clear();
      scratch->wave_probe_common.clear();
      std::size_t end = pos;
      while (end < order.size() && args.size() < batch) {
        const VertexId v = order[end];
        ProbeCandidate cand;
        cand.a = v;
        if (sweep.IsSwept(v)) {
          cand.kind = ProbeCandidate::Kind::kSwept;
        } else if (g.HasEdge(source, v)) {
          cand.kind = ProbeCandidate::Kind::kAdjacent;
        } else {
          cand.kind = ProbeCandidate::Kind::kProbe;
          cand.probe_index = static_cast<std::uint32_t>(args.size());
          args.emplace_back(source, v);
          scratch->wave_probe_common.push_back(0);
        }
        wave.push_back(cand);
        ++end;
      }
      const std::uint32_t launched = static_cast<std::uint32_t>(args.size());
      run_probes();

      // Commit (serial replay): walk the slice in order, re-deriving every
      // serial decision against the *live* sweep state. A probe whose
      // vertex got swept by an earlier commit in this very wavefront is
      // discarded (the serial loop never ran it) and counted as waste.
      std::uint32_t used = 0;
      std::uint32_t wasted_swept = 0;
      for (const ProbeCandidate& cand : wave) {
        const VertexId v = cand.a;
        if (sweep.IsSwept(v)) {
          CountPrunedVertex(sweep.CauseOf(v), stats);
          if (cand.kind == ProbeCandidate::Kind::kProbe) ++wasted_swept;
          continue;
        }
        if (cand.kind == ProbeCandidate::Kind::kAdjacent) {
          ++stats->phase1_tested_trivial;
          sweep.Sweep(v, SweepCause::kTested);
          continue;
        }
        // Unswept and non-adjacent: formation necessarily probed it
        // (sweeps only grow between formation and commit).
        assert(cand.kind == ProbeCandidate::Kind::kProbe);
        ++stats->phase1_tested_flow;
        ++stats->loc_cut_flow_calls;
        ++used;
        std::vector<VertexId>& cut = scratch->wave_cuts[cand.probe_index];
        if (!cut.empty()) {
          // Earliest-in-order cut wins; everything the serial loop would
          // not have reached is pure waste.
          stats->probes_wasted_swept += wasted_swept;
          stats->probes_wasted_after_cut += launched - used - wasted_swept;
          return finish_with_cut(std::move(cut));
        }
        sweep.Sweep(v, SweepCause::kTested);
      }
      stats->probes_wasted_swept += wasted_swept;
      adapt(launched, wasted_swept);
      pos = end;
    }
  }

  // --- phase 2 (Alg. 3 lines 16-21): covers cuts containing the source ---
  // A strong side-vertex source is in no minimum cut; skip entirely.
  if (!source_is_strong) {
    const auto nbrs = test_graph.Neighbors(source);
    const std::size_t deg = nbrs.size();
    // Restart the adaptive ramp: a batch grown across a cut-free phase 1
    // would otherwise turn an early phase-2 cut into a full-batch write-off.
    if (adaptive_batch) batch = kBatchInit;
    if (!wavefronts) {
      for (std::size_t i = 0; i < deg; ++i) {
        for (std::size_t j = i + 1; j < deg; ++j) {
          const VertexId va = nbrs[i];
          const VertexId vb = nbrs[j];
          if (group_sweep && group_of[va] != kNoGroup &&
              group_of[va] == group_of[vb]) {
            // Group sweep rule 3: same side-group => locally k-connected.
            ++stats->phase2_pairs_skipped_group;
            continue;
          }
          if (g.HasEdge(va, vb)) {
            ++stats->phase2_pairs_skipped_adjacent;  // Lemma 5.
            continue;
          }
          if (options.phase2_common_neighbor_skip &&
              CommonNeighborsAtLeast(g, va, vb, k)) {
            ++stats->phase2_pairs_skipped_common;  // Lemma 13.
            continue;
          }
          check_cancelled();
          ++stats->phase2_pairs_tested;
          ++stats->loc_cut_flow_calls;
          std::vector<VertexId> cut =
              CountedLocCut(flow, va, vb, k, stats->probe_edges_touched);
          if (!cut.empty()) return finish_with_cut(std::move(cut));
        }
      }
    } else {
      // Pair wavefronts. The group and adjacency skip predicates are pure
      // functions of the graphs (no sweep state), so formation classifies
      // exactly as the serial loop would. The common-neighbor test (Lemma
      // 13) — also pure, but Theta(d) per pair and the dominant formation
      // cost on hub-heavy sources — is *deferred into the wavefront*: the
      // pair is launched as kProbeDeferred and the parallel body either
      // settles it via the common test (wave_common_skip) or runs the
      // flow probe. The commit replay keeps the skip counters honest —
      // pairs past a committed cut are never counted.
      std::size_t pi = 0;
      std::size_t pj = 1;
      while (pi + 1 < deg) {
        check_cancelled();
        std::vector<ProbeCandidate>& wave = scratch->wave;
        auto& args = scratch->wave_probe_args;
        wave.clear();
        args.clear();
        scratch->wave_probe_common.clear();
        while (pi + 1 < deg && args.size() < batch) {
          const VertexId va = nbrs[pi];
          const VertexId vb = nbrs[pj];
          ProbeCandidate cand;
          cand.a = va;
          cand.b = vb;
          if (group_sweep && group_of[va] != kNoGroup &&
              group_of[va] == group_of[vb]) {
            cand.kind = ProbeCandidate::Kind::kPairGroupSkip;
          } else if (g.HasEdge(va, vb)) {
            cand.kind = ProbeCandidate::Kind::kPairAdjacent;
          } else {
            cand.kind = options.phase2_common_neighbor_skip
                            ? ProbeCandidate::Kind::kProbeDeferred
                            : ProbeCandidate::Kind::kProbe;
            cand.probe_index = static_cast<std::uint32_t>(args.size());
            args.emplace_back(va, vb);
            scratch->wave_probe_common.push_back(
                options.phase2_common_neighbor_skip ? 1 : 0);
          }
          wave.push_back(cand);
          ++pj;
          if (pj >= deg) {
            ++pi;
            pj = pi + 1;
          }
        }
        const std::uint32_t launched = static_cast<std::uint32_t>(args.size());
        const std::uint32_t flow_launched = run_probes();

        std::uint32_t used = 0;
        for (const ProbeCandidate& cand : wave) {
          switch (cand.kind) {
            case ProbeCandidate::Kind::kPairGroupSkip:
              ++stats->phase2_pairs_skipped_group;
              break;
            case ProbeCandidate::Kind::kPairAdjacent:
              ++stats->phase2_pairs_skipped_adjacent;
              break;
            case ProbeCandidate::Kind::kProbeDeferred:
              if (scratch->wave_common_skip[cand.probe_index] != 0) {
                // The wavefront's Lemma-13 test settled the pair — same
                // verdict, same counter as the serial loop's inline test.
                ++stats->phase2_pairs_skipped_common;
                break;
              }
              [[fallthrough]];
            case ProbeCandidate::Kind::kProbe: {
              ++stats->phase2_pairs_tested;
              ++stats->loc_cut_flow_calls;
              ++used;
              std::vector<VertexId>& cut =
                  scratch->wave_cuts[cand.probe_index];
              if (!cut.empty()) {
                stats->probes_wasted_after_cut += flow_launched - used;
                return finish_with_cut(std::move(cut));
              }
              break;
            }
            case ProbeCandidate::Kind::kSwept:
            case ProbeCandidate::Kind::kAdjacent:
              break;  // Phase-1 kinds; unreachable here.
          }
        }
        adapt(launched, 0);
      }
    }
  }

  return result;  // Empty cut: g is k-vertex-connected.
}

}  // namespace kvcc
