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

/// One LOC-CUT probe on `probe`; adds the residual moves its flow examined
/// to `edges_touched`.
std::vector<VertexId> CountedLocCut(FlowProbe& probe, const Graph& g,
                                    VertexId u, VertexId v, std::uint32_t k,
                                    std::uint64_t& edges_touched) {
  const std::uint64_t before = probe.work_moves();
  std::vector<VertexId> cut = probe.LocCut(g, u, v, k);
  edges_touched += probe.work_moves() - before;
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

// Wavefronts engage only on a multi-worker pool and a working graph of at
// least kWavefrontMinVertices vertices. Smaller subproblems — the recursion
// tail of a bushy tree, which already feeds the pool through subproblem
// parallelism — cannot pay for a wavefront's fork-join and speculative
// probes. Each phase starts with a one-probe wave, run inline: distance
// ordering tends to surface a cut with the phase's first probe, and a probe
// run beside a cut-finding one is waste of the costly kind, since it too may
// find a cut and level its whole residual side. After each wave the batch
// doubles, up to kBatchMax, if at most 12.5% of its probes were wasted, and
// halves, to no fewer than one, if at least 25% were. So no probe runs
// speculatively until a probe of the phase has passed. The rule reads only
// the input and committed (deterministic) outcomes, so which probes launch
// in which wave — and with it every probe-waste counter — is a pure
// function of (input, options, whether the pool has more than one worker),
// never of timing.
constexpr VertexId kWavefrontMinVertices = 128;
constexpr std::uint32_t kBatchMax = 256;

// The set-up fork-join (certificate beside side-vertex ranges) engages on a
// multi-worker pool, with neighbor sweep, for working graphs of at least
// kSetUpForkMinVertices vertices; each side-vertex range holds
// kSideVertexRange vertices. Below the floor the fork-join costs more than
// it spreads: with the floor at 128, kvccd_mixed's write median read higher
// in 5 of 6 alternating pairs (4 vCPUs).
constexpr VertexId kSetUpForkMinVertices = 512;
constexpr VertexId kSideVertexRange = 32;

/// The scratch a fork-join participant works on: its worker's, or the
/// caller's own when it runs outside the pool (ParallelFor's external
/// slot). See the file comment of global_cut.h for why borrowing a
/// worker's scratch is safe.
GlobalCutScratch& ParticipantScratch(const GlobalCutPool& pool, unsigned slot,
                                     GlobalCutScratch& caller) {
  return slot < pool.worker_scratch.size() ? *pool.worker_scratch[slot]
                                           : caller;
}

/// Alg. 3 lines 1-3 as one fork-join on the pool: index 0 builds the sparse
/// certificate into `scratch` (when `use_certificate`), and every further
/// index checks one kSideVertexRange-vertex range of the strong side-vertex
/// pass, writing its verdict bytes into scratch.side.strong and its counts
/// into its own entry of scratch.side_range_counts. Returns the counts
/// summed in range order, so they repeat a serial pass's exactly.
///
/// A range runs on the pair-verdict table of its participant's scratch,
/// under this pass's stamp. No index starts a fork-join of its own: that
/// would let this thread borrow the scratch one of its indices is using.
SideVertexCounts ForkSetUp(const Graph& g, std::uint32_t k,
                           const std::vector<SideVertexHint>& hints,
                           bool use_certificate, exec::TaskPriority priority,
                           const GlobalCutPool& pool,
                           GlobalCutScratch& scratch) {
  const VertexId n = g.NumVertices();
  scratch.side.strong.resize(n);
  const std::size_t ranges = (n + kSideVertexRange - 1) / kSideVertexRange;
  scratch.side_range_counts.resize(ranges);
  const std::size_t first_range = use_certificate ? 1 : 0;
  const std::uint64_t pass = NewSideVertexPass();
  // The body copies pointers, not references into this frame: ParallelFor
  // keeps its own copy on the heap, which helpers read while this thread
  // works through its share.
  const Graph* const graph = &g;
  const std::vector<SideVertexHint>* const hint_list = &hints;
  const GlobalCutPool* const cut_pool = &pool;
  GlobalCutScratch* const caller = &scratch;
  pool.scheduler->ParallelFor(
      first_range + ranges,
      [graph, k, hint_list, n, first_range, pass, cut_pool, caller](
          std::size_t index, unsigned slot) {
        if (index < first_range) {
          BuildSparseCertificate(*graph, k, caller->cert, caller->cert_scratch);
          return;
        }
        const std::size_t range = index - first_range;
        const auto begin = static_cast<VertexId>(range * kSideVertexRange);
        const VertexId end = std::min<VertexId>(n, begin + kSideVertexRange);
        SideVertexScratch& memo =
            ParticipantScratch(*cut_pool, slot, *caller).side;
        caller->side_range_counts[range] = CheckStrongSideVertexRange(
            *graph, k, *hint_list, KvccOptions::side_vertex_degree_cap, begin,
            end, pass, memo, caller->side.strong.data());
      },
      priority);
  SideVertexCounts total;
  for (const SideVertexCounts& counts : scratch.side_range_counts) {
    total.checks_run += counts.checks_run;
    total.reused += counts.reused;
    total.strong_count += counts.strong_count;
  }
  return total;
}

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
                          const GlobalCutPool* pool,
                          const CancelToken* cancel, bool use_certificate) {
  GlobalCutScratch transient;
  if (scratch == nullptr) scratch = &transient;
  const VertexId n = g.NumVertices();
  assert(n > k);
  assert(hints.empty() || hints.size() == n);
  assert(pool == nullptr ||
         pool->worker_scratch.size() == pool->scheduler->num_workers());

  // Cooperative cancellation: polled at entry and at every wave's
  // formation, which bounds time-to-unwind by one wave (one probe without
  // wavefronts). The thrown JobCancelled carries no stats; the enumeration
  // driver attaches the job's partial counters when it surfaces the
  // outcome.
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

  GlobalCutResult result;

  // --- set-up: sparse certificate (Alg. 2/3 line 1) and strong
  // side-vertices (Alg. 3 line 3) ---
  // Both land in the scratch's reused storage: on the steady-state path
  // neither touches the allocator, and the verdicts stay readable in
  // scratch->side.strong until the scratch's next GlobalCut call. Neighbor
  // sweep also takes the carried verdicts (Lemmas 15/16).
  const bool multi_worker =
      pool != nullptr && pool->scheduler->num_workers() > 1;
  SparseCertificate& sc = scratch->cert;
  SideVertexCounts side_counts;
  if (options.neighbor_sweep && multi_worker && n >= kSetUpForkMinVertices) {
    side_counts = ForkSetUp(g, k, hints, use_certificate,
                            ToTaskPriority(options.priority), *pool, *scratch);
  } else {
    if (use_certificate) {
      BuildSparseCertificate(g, k, sc, scratch->cert_scratch);
    }
    if (options.neighbor_sweep) {
      side_counts = ComputeStrongSideVerticesInto(
          g, k, hints, KvccOptions::side_vertex_degree_cap, scratch->side);
    } else {
      scratch->side.strong.assign(n, 0);
    }
  }
  stats->strong_side_vertices_found += side_counts.strong_count;
  stats->strong_side_checks_run += side_counts.checks_run;
  stats->strong_side_verdicts_reused += side_counts.reused;
  if (use_certificate) {
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
  const std::vector<std::uint8_t>& strong = scratch->side.strong;

  // --- source selection (Alg. 3 lines 4-7) ---
  VertexId source = kInvalidVertex;
  if (options.neighbor_sweep) {
    for (VertexId v = 0; v < n; ++v) {
      if (strong[v] != 0) {
        source = v;
        break;
      }
    }
  }
  if (source == kInvalidVertex) source = test_graph.MinDegreeVertex();
  const bool source_is_strong = options.neighbor_sweep && strong[source] != 0;

  // Epoch rebind: O(1) reset of the sweep arrays, no reallocation.
  SweepContext& sweep = scratch->sweep;
  sweep.Bind(g, k, strong, groups, group_of, options.neighbor_sweep,
             group_sweep);
  sweep.Sweep(source, SweepCause::kTested);

  auto finish_with_cut = [&](std::vector<VertexId> cut) {
    // A cut found on the certificate is always checked against the
    // working graph, at O(n + m) per cut.
    if (use_certificate && !detail::CutDisconnects(g, cut, *scratch)) {
      // By the certificate theorem this cannot happen; if it ever does,
      // fall back to an exact search on the full graph. The recursive call
      // reuses the scratch's probe/sweep/order/wavefront state; none of it
      // is used here afterwards.
      ++stats->certificate_cut_fallbacks;
      return GlobalCut(g, k, hints, options, stats, scratch, pool, cancel,
                       /*use_certificate=*/false);
    }
    result.cut = std::move(cut);  // Ascending, as LocCut returns it.
    return result;
  };

  // --- phase-1 processing order ---
  // Either sweep orders by non-ascending distance (Alg. 3 line 11); basic
  // VCCE takes ascending ids. The connectivity precondition is enforced
  // for every variant (one BFS, dwarfed by the flow tests), not just when
  // its distances are needed.
  const std::uint32_t max_dist = CheckConnectedFromSource(g, source, *scratch);
  if (options.neighbor_sweep || options.group_sweep) {
    DistanceDescendingOrder(g, source, max_dist, *scratch);
  } else {
    scratch->order.clear();
    scratch->order.reserve(n - 1);
    for (VertexId v = 0; v < n; ++v) {
      if (v != source) scratch->order.push_back(v);
    }
  }

  // --- the search: waves of probes (form, probe, commit) ---
  // Each phase walks its candidates in serial order as a run of waves.
  // Formation settles every candidate before the wave's first probe on the
  // spot, exactly as a serial search would, and then only classifies until
  // the wave holds `batch` probes. A wave of one probe (every wave without
  // wavefronts, and each phase's first wave with them) runs it inline on
  // the scratch's probe; a larger wave runs concurrently on the pool, each
  // probe on its participant's probe. The commit replays the wave in order
  // against the live sweep state, so the cut and every replay-identical
  // counter match a serial search; only what follows a launched probe is
  // speculative, and that speculation is booked as probe waste.
  const bool wavefronts = multi_worker && n >= kWavefrontMinVertices;
  std::uint32_t batch = 1;
  auto adapt = [&](std::uint32_t launched, std::uint32_t wasted) {
    if (!wavefronts || launched == 0) return;
    if (wasted * 4 >= launched) {
      batch = std::max<std::uint32_t>(1, batch / 2);  // >= 25% waste: back off.
    } else if (wasted * 8 <= launched) {
      batch = std::min(kBatchMax, batch * 2);  // <= 12.5% waste: open up.
    }
  };
  std::vector<ProbeCandidate>& wave = scratch->wave;
  auto& args = scratch->wave_probe_args;
  auto& common = scratch->wave_probe_common;
  auto start_wave = [&]() {
    check_cancelled();
    wave.clear();
    args.clear();
    common.clear();
  };

  // Runs the wave's probe list and returns how many *flow* probes ran (a
  // phase-2 pair whose Lemma-13 test settles it runs none). On the pool,
  // each participant probes on its own scratch's FlowProbe (see
  // ParticipantScratch), and every probe reads the same immutable test
  // graph; a probe writes only its probe's state and its own wave_cuts /
  // wave_common_skip / wave_edges entries, and the commit reads them only
  // after ParallelFor returned, so probes race with nothing. The sweep
  // state is snapshot-immutable during the wave: formation read it
  // serially, and commits mutate it serially afterwards.
  auto run_probes = [&]() -> std::uint32_t {
    const std::uint32_t launched = static_cast<std::uint32_t>(args.size());
    auto& cuts = scratch->wave_cuts;
    auto& common_skip = scratch->wave_common_skip;
    auto& edges = scratch->wave_edges;
    if (cuts.size() < launched) cuts.resize(launched);
    if (common_skip.size() < launched) common_skip.resize(launched);
    if (edges.size() < launched) edges.resize(launched);
    auto probe_one = [&](std::size_t i, FlowProbe& probe) {
      edges[i] = 0;
      // The Lemma-13 test runs here rather than at formation: a pure
      // function of the working graph, so this is replay-equivalent, and on
      // the pool it parallelizes the Theta(d) merges that dominate pair
      // formation on hub-heavy sources.
      if (common[i] != 0 &&
          CommonNeighborsAtLeast(g, args[i].first, args[i].second, k)) {
        common_skip[i] = 1;
        cuts[i].clear();
      } else {
        common_skip[i] = 0;
        cuts[i] = CountedLocCut(probe, test_graph, args[i].first,
                                args[i].second, k, edges[i]);
      }
    };
    if (!wavefronts || launched <= 1) {
      for (std::uint32_t i = 0; i < launched; ++i) {
        probe_one(i, scratch->probe);
      }
    } else {
      // Helper stubs carry the owning job's latency class, so an
      // interactive job's wavefront competes for idle workers at its own
      // priority instead of degrading to kNormal on its hardest subproblem.
      // The body holds its own copy of probe_one, which ParallelFor's
      // std::function stores on the heap, so helpers do not read it from
      // this thread's stack while this thread drains its own share there.
      // A body that referenced probe_one read slower per op on
      // paper_sweep_t4 in six of six alternating runs (4 vCPUs). A probe
      // starts no fork-join (see ForkSetUp).
      GlobalCutScratch* const caller = scratch;
      pool->scheduler->ParallelFor(
          launched,
          [probe_one, pool, caller](std::size_t i, unsigned slot) {
            probe_one(i, ParticipantScratch(*pool, slot, *caller).probe);
          },
          ToTaskPriority(options.priority));
    }
    // Serial roll-up over every launched probe — speculative ones
    // included, their flow work is real — keeps probe_edges_touched
    // deterministic for a fixed (input, options, thread count).
    std::uint32_t flow_probes = 0;
    for (std::uint32_t i = 0; i < launched; ++i) {
      if (common_skip[i] == 0) ++flow_probes;
      stats->probe_edges_touched += edges[i];
    }
    if (wavefronts) {
      if (launched > 0) ++stats->probe_wavefronts;
      stats->probes_launched += flow_probes;
    }
    return flow_probes;
  };

  // --- phase 1 (Alg. 3 lines 8-15): covers every cut avoiding the source ---
  // A swept vertex is counted under its sweep's cause; a vertex adjacent to
  // the source is locally k-connected for free (Lemma 5).
  auto settle_vertex = [&](VertexId v, ProbeCandidate::Kind kind) {
    if (kind == ProbeCandidate::Kind::kSwept) {
      CountPrunedVertex(sweep.CauseOf(v), stats);
    } else {
      ++stats->phase1_tested_trivial;
      sweep.Sweep(v, SweepCause::kTested);
    }
  };
  const std::vector<VertexId>& order = scratch->order;
  for (std::size_t pos = 0; pos < order.size();) {
    start_wave();
    while (pos < order.size() && args.size() < batch) {
      ProbeCandidate cand{order[pos++], 0, ProbeCandidate::Kind::kProbe};
      if (sweep.IsSwept(cand.a)) {
        cand.kind = ProbeCandidate::Kind::kSwept;
      } else if (g.HasEdge(source, cand.a)) {
        cand.kind = ProbeCandidate::Kind::kAdjacent;
      }
      if (cand.kind != ProbeCandidate::Kind::kProbe) {
        if (args.empty()) {
          settle_vertex(cand.a, cand.kind);
          continue;
        }
      } else {
        cand.probe_index = static_cast<std::uint32_t>(args.size());
        args.emplace_back(source, cand.a);
        common.push_back(0);
      }
      wave.push_back(cand);
    }
    const std::uint32_t launched = run_probes();

    std::uint32_t used = 0;
    std::uint32_t wasted_swept = 0;
    for (const ProbeCandidate& cand : wave) {
      const VertexId v = cand.a;
      // An earlier commit of this wave may have swept v since formation; a
      // probe of such a vertex is discarded (the serial search never ran
      // it) and counted as waste.
      const ProbeCandidate::Kind kind =
          sweep.IsSwept(v) ? ProbeCandidate::Kind::kSwept : cand.kind;
      if (kind != ProbeCandidate::Kind::kProbe) {
        if (cand.kind == ProbeCandidate::Kind::kProbe) ++wasted_swept;
        settle_vertex(v, kind);
        continue;
      }
      ++stats->phase1_tested_flow;
      ++stats->loc_cut_flow_calls;
      ++used;
      std::vector<VertexId>& cut = scratch->wave_cuts[cand.probe_index];
      if (!cut.empty()) {
        // Earliest-in-order cut wins; everything the serial search would
        // not have reached is pure waste.
        stats->probes_wasted_swept += wasted_swept;
        stats->probes_wasted_after_cut += launched - used - wasted_swept;
        return finish_with_cut(std::move(cut));
      }
      sweep.Sweep(v, SweepCause::kTested);
    }
    stats->probes_wasted_swept += wasted_swept;
    adapt(launched, wasted_swept);
  }

  // --- phase 2 (Alg. 3 lines 16-21): covers cuts containing the source ---
  // A strong side-vertex source is in no minimum cut; skip entirely. With
  // both sweeps, a pair sharing k common neighbors is skipped (Lemma 13).
  if (!source_is_strong) {
    const std::uint8_t common_skip =
        options.neighbor_sweep && options.group_sweep ? 1 : 0;
    const auto nbrs = test_graph.Neighbors(source);
    const std::size_t deg = nbrs.size();
    // Restart the ramp at one probe: a batch grown across a cut-free phase 1
    // would otherwise turn an early phase-2 cut into a full-batch write-off.
    batch = 1;
    auto settle_pair = [&](ProbeCandidate::Kind kind) {
      if (kind == ProbeCandidate::Kind::kPairGroupSkip) {
        ++stats->phase2_pairs_skipped_group;  // Group sweep rule 3.
      } else {
        ++stats->phase2_pairs_skipped_adjacent;  // Lemma 5.
      }
    };
    std::size_t pi = 0;
    std::size_t pj = 1;
    while (pi + 1 < deg) {
      start_wave();
      // The skip predicates are pure functions of the graphs (no sweep
      // state), so formation classifies exactly as the commit would.
      while (pi + 1 < deg && args.size() < batch) {
        ProbeCandidate cand{nbrs[pi], nbrs[pj], ProbeCandidate::Kind::kProbe};
        if (++pj >= deg) {
          ++pi;
          pj = pi + 1;
        }
        if (group_sweep && group_of[cand.a] != kNoGroup &&
            group_of[cand.a] == group_of[cand.b]) {
          cand.kind = ProbeCandidate::Kind::kPairGroupSkip;
        } else if (g.HasEdge(cand.a, cand.b)) {
          cand.kind = ProbeCandidate::Kind::kPairAdjacent;
        }
        if (cand.kind != ProbeCandidate::Kind::kProbe) {
          if (args.empty()) {
            settle_pair(cand.kind);
            continue;
          }
        } else {
          cand.probe_index = static_cast<std::uint32_t>(args.size());
          args.emplace_back(cand.a, cand.b);
          common.push_back(common_skip);
        }
        wave.push_back(cand);
      }
      const std::uint32_t launched = static_cast<std::uint32_t>(args.size());
      const std::uint32_t flow_launched = run_probes();

      std::uint32_t used = 0;
      for (const ProbeCandidate& cand : wave) {
        if (cand.kind != ProbeCandidate::Kind::kProbe) {
          settle_pair(cand.kind);
          continue;
        }
        if (scratch->wave_common_skip[cand.probe_index] != 0) {
          ++stats->phase2_pairs_skipped_common;  // Lemma 13.
          continue;
        }
        ++stats->phase2_pairs_tested;
        ++stats->loc_cut_flow_calls;
        ++used;
        std::vector<VertexId>& cut = scratch->wave_cuts[cand.probe_index];
        if (!cut.empty()) {
          stats->probes_wasted_after_cut += flow_launched - used;
          return finish_with_cut(std::move(cut));
        }
      }
      adapt(launched, 0);
    }
  }

  return result;  // Empty cut: g is k-vertex-connected.
}

}  // namespace kvcc
