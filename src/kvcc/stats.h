// Execution counters for the k-VCC algorithms.
//
// These drive the paper's Table 2 (proportion of phase-1 vertices handled by
// each sweep rule) and the micro-benchmarks; they also make regressions in
// pruning effectiveness visible in tests. A field glossary with the paper
// references lives in README.md ("KvccStats field glossary").
#ifndef KVCC_KVCC_STATS_H_
#define KVCC_KVCC_STATS_H_

#include <cstdint>
#include <string>

/// \file
/// \brief KvccStats: execution counters (Table-2 sweep categories, flow
/// tests, certificate compression, wavefront probe waste) carried with
/// every enumeration result.

namespace kvcc {

/// \brief Execution counters accumulated over one enumeration run (or one
/// engine job).
///
/// Every field except the probe-waste diagnostics is byte-identical across
/// thread counts for the same (graph, k, options) — the parallel paths
/// replay the serial decision sequence exactly.
///
/// Add, ToJson and ToString all iterate one field table in stats.cc, so a
/// counter added here but not there fails to compile.
struct KvccStats {
  // --- phase-1 vertex outcomes (the paper's Table 2 categories) ---

  /// \brief Vertices skipped because a strong side-vertex sweep covered
  /// them (neighbor sweep rule 1).
  std::uint64_t phase1_pruned_ns1 = 0;
  /// \brief Vertices skipped because their deposit reached k (neighbor
  /// sweep rule 2).
  std::uint64_t phase1_pruned_ns2 = 0;
  /// \brief Vertices skipped by a group sweep (rules 1 and 2 of Section
  /// 5.2).
  std::uint64_t phase1_pruned_gs = 0;
  /// \brief Vertices that required a real max-flow test ("Non-Pru").
  std::uint64_t phase1_tested_flow = 0;
  /// \brief Vertices adjacent to the source: locally k-connected for free
  /// (Lemma 5), no flow run.
  std::uint64_t phase1_tested_trivial = 0;

  // --- phase-2 pair outcomes ---

  /// \brief Neighbor pairs of the source that ran a real max-flow test.
  std::uint64_t phase2_pairs_tested = 0;
  /// \brief Pairs skipped because both endpoints share a side-group
  /// (group sweep rule 3).
  std::uint64_t phase2_pairs_skipped_group = 0;
  /// \brief Pairs skipped because the endpoints are adjacent (Lemma 5).
  std::uint64_t phase2_pairs_skipped_adjacent = 0;
  /// \brief Pairs skipped for sharing >= k common neighbors (Lemma 13).
  std::uint64_t phase2_pairs_skipped_common = 0;

  // --- framework-level counters ---

  /// \brief GLOBAL-CUT invocations over the whole recursion.
  std::uint64_t global_cut_calls = 0;
  /// \brief LOC-CUT max-flow computations (phase 1 + phase 2).
  std::uint64_t loc_cut_flow_calls = 0;
  /// \brief Overlapped partitions performed (Alg. 1 line 9).
  std::uint64_t overlap_partitions = 0;
  /// \brief k-VCCs emitted.
  std::uint64_t kvccs_found = 0;
  /// \brief k-core peels run (one per processed work item).
  std::uint64_t kcore_rounds = 0;
  /// \brief Vertices deleted by k-core peeling, summed over all rounds.
  std::uint64_t kcore_removed_vertices = 0;
  /// \brief Level-synchronous rounds of the bucket k-core peel, summed
  /// over all work items (the peel depth of each processed subgraph).
  std::uint64_t kcore_bucket_rounds = 0;

  // --- certificate / side-vertex instrumentation ---

  /// \brief Edges of the working graphs fed to certificate construction.
  std::uint64_t certificate_edges_input = 0;
  /// \brief Edges the sparse certificates kept (<= k * n per graph).
  std::uint64_t certificate_edges_kept = 0;
  /// \brief Side-groups discovered from the certificate forests (Section
  /// 5.2).
  std::uint64_t side_groups_found = 0;
  /// \brief Vertices verified to be strong side-vertices.
  std::uint64_t strong_side_vertices_found = 0;
  /// \brief Strong-side checks actually executed (Theta(d^2) pair work
  /// each).
  std::uint64_t strong_side_checks_run = 0;
  /// \brief Checks skipped by reusing a carried verdict (Lemmas 15/16).
  std::uint64_t strong_side_verdicts_reused = 0;
  /// \brief Times a certificate cut failed to disconnect the working
  /// graph and the search was re-run without the certificate. Must stay
  /// 0 by the certificate theorem; GlobalCut checks every cut it finds on
  /// the certificate with one BFS of the working graph.
  std::uint64_t certificate_cut_fallbacks = 0;

  // --- intra-GLOBAL-CUT wavefront diagnostics ---
  // GLOBAL-CUT runs its search as waves. On a multi-worker pool a wave
  // probes the next batch of phase-1 vertices / phase-2 pairs concurrently
  // and then commits serially, so some probes are redundant: a serial
  // search would have pruned the vertex (an earlier commit swept it) or
  // stopped before the pair (an earlier probe found the cut). These
  // counters quantify that speculation. A serial run runs every wave
  // inline, one probe each, with nothing speculative, so all four stay 0
  // there; they are the only stats fields that differ between a serial and
  // an intra-cut-parallel run of the same input (everything above is
  // replay-identical by construction).

  /// \brief Waves of the GLOBAL-CUT calls that run wavefronts, one-probe
  /// waves (run inline) included.
  std::uint64_t probe_wavefronts = 0;
  /// \brief Flow probes launched inside those waves.
  std::uint64_t probes_launched = 0;
  /// \brief Probes whose vertex was swept between launch and its serial
  /// commit.
  std::uint64_t probes_wasted_swept = 0;
  /// \brief Probes past the point where the committed cut ended the
  /// search.
  std::uint64_t probes_wasted_after_cut = 0;

  // --- probe work profile ---
  // Per-probe accounting of the LOC-CUT flow work (see docs/ARCHITECTURE.md,
  // "The LOC-CUT probe"). Serial runs are replay-identical; wavefront runs
  // add the work of speculative probes, so — like the waste counters
  // above — these are deterministic per (input, options, thread count)
  // but not across thread counts.

  /// \brief Always 0: Dinic is the only probe engine. Kept only because
  /// perfbench/src/replay.cc reads it for kvcc.probe.localvc_share;
  /// delete both at the next change to the benchmark.
  std::uint64_t probes_localvc = 0;
  /// \brief Residual moves examined across all probes, plus one per row
  /// entry each probe's two-hop and three-hop seeding passes read
  /// (FlowProbe::work_moves): the per-probe cost measure.
  std::uint64_t probe_edges_touched = 0;

  // --- dynamic-graph maintenance counters (kvcc/incremental.h) ---
  // Booked by IncrementalKvcc::Update. Replay-identical: a given
  // mutation sequence produces the same totals at every thread count and
  // with or without an engine — the dirty-region analysis is a pure
  // function of (old levels, batch, new graph). They stay 0 on static
  // enumeration runs.

  /// \brief Effective edge deltas consumed by incremental updates
  /// (inserts of absent edges + deletes of present ones).
  std::uint64_t delta_edges_applied = 0;
  /// \brief Old hierarchy components invalidated (not carried verbatim)
  /// across all updates; strictly below the component total on localized
  /// edits.
  std::uint64_t dirty_components = 0;
  /// \brief Dirty regions re-enumerated (full rebuilds count as one).
  std::uint64_t incremental_reruns = 0;

  // --- job-control diagnostics (PR 5) ---
  // Like the wavefront counters these are *not* replay-identical: they
  // depend on when a cancel trigger or a slow consumer was observed, which
  // is timing. They stay 0 on jobs that were never cancelled and never
  // backpressured.

  /// \brief Recursion work items short-circuited whole at the
  /// task-boundary cancellation check (their subgraphs were never
  /// processed).
  std::uint64_t tasks_cancelled = 0;
  /// \brief GLOBAL-CUT searches abandoned mid-flight at a flow-probe or
  /// wavefront-batch boundary by cancellation.
  std::uint64_t cuts_cancelled = 0;
  /// \brief Components whose delivery blocked on a full bounded stream
  /// channel (KvccOptions::stream_buffer_limit) before being accepted.
  std::uint64_t stream_backpressure_blocks = 0;
  /// \brief High-water mark of undelivered components held in the stream
  /// channel; with stream_buffer_limit > 0 this never exceeds the limit.
  std::uint64_t stream_peak_buffered = 0;

  /// \brief Total phase-1 vertices considered (all categories above).
  /// \return Sum of the five phase-1 outcome counters.
  std::uint64_t Phase1Total() const {
    return phase1_pruned_ns1 + phase1_pruned_ns2 + phase1_pruned_gs +
           phase1_tested_flow + phase1_tested_trivial;
  }

  /// \brief Share of phase-1 vertices pruned by neighbor sweep rule 1.
  /// \return Value in [0,1]; 0 when no vertex was processed.
  double Ns1Share() const;
  /// \brief Share of phase-1 vertices pruned by neighbor sweep rule 2.
  /// \return Value in [0,1]; 0 when no vertex was processed.
  double Ns2Share() const;
  /// \brief Share of phase-1 vertices pruned by group sweeps.
  /// \return Value in [0,1]; 0 when no vertex was processed.
  double GsShare() const;
  /// \brief Share of phase-1 vertices that needed a flow test or were
  /// trivially connected ("Non-Pru" in Table 2).
  /// \return Value in [0,1]; 0 when no vertex was processed.
  double NonPrunedShare() const;

  /// \brief Accumulates another run's (or task's) counters into this one.
  /// \param other The counters to add field-by-field.
  void Add(const KvccStats& other);

  /// \brief Multi-line human-readable dump.
  /// \return One line per counter group.
  std::string ToString() const;

  /// \brief Single JSON object with every counter, for NDJSON streaming
  /// output (`kvcc stream`) and bench snapshots.
  /// \return A compact JSON object string.
  std::string ToJson() const;
};

}  // namespace kvcc

#endif  // KVCC_KVCC_STATS_H_
