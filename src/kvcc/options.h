// Configuration knobs for the k-VCC enumeration algorithms.
//
// The four presets correspond to the paper's four evaluated variants:
//   VCCE    = basic algorithm (Section 4)
//   VCCE-N  = + neighbor sweep (Section 5.1)
//   VCCE-G  = + group sweep (Section 5.2)
//   VCCE*   = + both (Section 5.3, GLOBAL-CUT*)
#ifndef KVCC_KVCC_OPTIONS_H_
#define KVCC_KVCC_OPTIONS_H_

#include <cstdint>
#include <string>

/// \file
/// \brief KvccOptions: algorithm-variant presets (VCCE / VCCE-N / VCCE-G
/// / VCCE*) and execution knobs (threads, wavefronts, streaming order).

namespace kvcc {

/// \brief Latency class of one engine job (KvccOptions::priority).
///
/// Priorities shape *scheduling*, never results: the enumerated
/// components and all replay-identical stats are byte-identical across
/// classes. The engine's worker deques pop higher classes preferentially
/// (weighted, not strict — a bounded share of pops rotates through the
/// lower classes, so neither bulk nor normal work can starve; see
/// exec::TaskScheduler and docs/JOB_CONTROL.md).
enum class JobPriority : std::uint8_t {
  /// \brief Latency-sensitive: pops ahead of everything else.
  kInteractive = 0,
  /// \brief Default class.
  kNormal = 1,
  /// \brief Throughput work that should yield to the other classes.
  kBulk = 2,
};

/// \brief Algorithm-variant and execution knobs for the k-VCC
/// enumeration family (EnumerateKVccs, KvccEngine, BuildKvccHierarchy).
struct KvccOptions {
  /// \brief Enables neighbor sweep (strong side-vertices + vertex
  /// deposits, Section 5.1). Off = never prune phase-1 tests via
  /// neighborhoods.
  bool neighbor_sweep = true;

  /// \brief Enables group sweep (side-groups + group deposits, Section
  /// 5.2), including the phase-2 same-group pair skip (rule 3).
  bool group_sweep = true;

  /// \brief Runs connectivity tests on a sparse certificate instead of
  /// the full graph (Section 4.2). Disabling is only useful for ablation
  /// studies; group sweep requires the certificate (side-groups come from
  /// F_k) and is silently unavailable without it.
  bool sparse_certificate = true;

  /// \brief Processes phase-1 vertices in non-ascending BFS-distance
  /// order from the source (Alg. 3 line 11). Off = ascending vertex id
  /// (basic algorithm).
  bool distance_order = true;

  /// \brief Reuses strong side-vertex verdicts across partitions when a
  /// vertex's 2-hop neighbourhood is untouched (Lemmas 15/16). Off =
  /// recompute from scratch on every subgraph.
  bool maintain_side_vertices = true;

  /// \brief Also skip phase-2 pair tests when the two neighbors share
  /// >= k common neighbors (Lemma 13). A cheap, sound extension the paper
  /// applies in Theorem 8; kept optional for ablation.
  bool phase2_common_neighbor_skip = true;

  /// \brief Vertices with degree above this cap are never *checked* for
  /// the strong side-vertex property (checking is Theta(d^2) pair work);
  /// they are conservatively treated as non-strong, which is sound. The
  /// default keeps detection cheap on hub-heavy graphs where the pair
  /// work would exceed the flow tests it saves. 0 = no cap.
  std::uint32_t side_vertex_degree_cap = 128;

  /// \brief Defensive verification that every cut found on the sparse
  /// certificate actually disconnects the working graph (it must, by the
  /// certificate theorem). Costs O(n + m) per cut; keep on in production.
  bool verify_cuts = true;

  /// \brief Worker threads for the enumeration engine. 1 (default) runs
  /// the exact serial code path; 0 uses one worker per hardware thread;
  /// any other value runs that many workers over a work-stealing
  /// scheduler. The enumerated components (and all stats totals) are
  /// identical for every setting — partition subproblems are independent
  /// and the output is canonically sorted — so this is purely a
  /// wall-clock knob.
  std::uint32_t num_threads = 1;

  /// \brief Parallelize the probes *inside* one GLOBAL-CUT call
  /// (deterministic wavefronts over phase-1 vertices / phase-2 pairs)
  /// when the run has a multi-worker scheduler. This is what lets a
  /// recursion tree that is too shallow to feed the pool — e.g. one giant
  /// k-connected component — still scale with cores. The returned cut,
  /// the components, and every pre-existing stats counter are
  /// byte-identical to the serial loop for any thread count or batch
  /// size; the only observable difference is the probe-waste diagnostics
  /// in KvccStats (a serial run launches no speculative probes). Engages
  /// only on workers>1 engine runs; serial EnumerateKVccs
  /// (num_threads = 1) never batches.
  bool intra_cut_parallelism = true;

  /// \brief Probes per intra-cut wavefront. 0 (default) adapts the batch
  /// to the observed prune rate: it grows while little of the batch turns
  /// out to have been swept by earlier commits (bounded waste) and
  /// shrinks when sweeps are pruning aggressively. A nonzero value pins
  /// the batch size — results are identical either way; only probe waste
  /// and parallel saturation change.
  std::uint32_t probe_batch_size = 0;

  /// \brief Wavefronts engage only on working graphs with at least this
  /// many vertices (0 = no floor). Small subproblems — the recursion tail
  /// of a bushy tree, which already feeds the pool through subproblem
  /// parallelism — cannot amortize the per-slot oracle binds and the
  /// speculative probes, so they stay on the exact serial loop. The floor
  /// is a pure function of the input graph, preserving reproducibility.
  std::uint32_t intra_cut_min_vertices = 128;

  /// \brief Streaming delivery only (KvccEngine::SubmitStreaming /
  /// SubmitStream, EnumerateKVccsStreaming): deliver components in the
  /// exact serial emission order — the order the num_threads = 1
  /// streaming path produces — by holding out-of-order completions in a
  /// small reorder buffer, instead of delivering each component the
  /// moment it commits. The delivered *multiset* is byte-identical either
  /// way; stable order trades a little time-to-first-component for a
  /// reproducible sequence. Ignored by the buffered APIs (their output is
  /// canonically sorted regardless).
  bool stable_order = false;

  // ---- job control (see docs/JOB_CONTROL.md) ----

  /// \brief Wall-clock budget for the job in milliseconds; 0 (default) =
  /// none. The deadline arms the job's CancelToken at submission: once it
  /// elapses, tasks short-circuit at the next recursion-task or
  /// probe/wavefront boundary and the job reports JobCancelled with the
  /// partial stats of the work that ran. Honored by KvccEngine jobs and
  /// by the serial EnumerateKVccs / EnumerateKVccsStreaming paths.
  std::uint32_t deadline_ms = 0;

  /// \brief Latency class for engine scheduling (KvccEngine only; the
  /// serial path has nothing to schedule against). Every task of the job
  /// — root, subproblems — carries this class on the shared worker pool,
  /// so an interactive job overtakes a saturating bulk batch instead of
  /// merely round-robining with it. Results are identical across classes.
  JobPriority priority = JobPriority::kNormal;

  /// \brief Bound on undelivered components buffered in a
  /// KvccEngine::SubmitStream channel; 0 (default) = unbounded. When the
  /// consumer lags `stream_buffer_limit` components behind, the producing
  /// worker blocks (backpressure) until the consumer drains, the stream
  /// is abandoned, or the job is cancelled — capping the memory a slow
  /// consumer can pin, where an unbounded channel grows with the
  /// component count (worst-case exponential in dense graphs). Composes
  /// with stable_order: the reorder buffer releases in serial order and
  /// the channel bounds what is released but unread. Ignored by
  /// SubmitStreaming (a push sink owns its own buffering) and by the
  /// buffered APIs. Backpressure parks the producing worker inside the
  /// job's delivery section — pair bounded streams with deadline_ms if
  /// the consumer may stall forever (see docs/JOB_CONTROL.md).
  std::uint32_t stream_buffer_limit = 0;

  // ---- presets matching the paper's evaluated variants ----

  /// \brief Preset VCCE: the paper's basic algorithm (no sweeps, id
  /// order, no verdict maintenance).
  /// \return The configured options.
  static KvccOptions Vcce() {
    KvccOptions o;
    o.neighbor_sweep = false;
    o.group_sweep = false;
    o.distance_order = false;
    o.maintain_side_vertices = false;
    o.phase2_common_neighbor_skip = false;
    return o;
  }

  /// \brief Preset VCCE-N: basic + neighbor sweep, distance order, and
  /// verdict maintenance (Section 5.1).
  /// \return The configured options.
  static KvccOptions VcceN() {
    KvccOptions o = Vcce();
    o.neighbor_sweep = true;
    o.distance_order = true;
    o.maintain_side_vertices = true;
    return o;
  }

  /// \brief Preset VCCE-G: basic + group sweep and distance order
  /// (Section 5.2).
  /// \return The configured options.
  static KvccOptions VcceG() {
    KvccOptions o = Vcce();
    o.group_sweep = true;
    o.distance_order = true;
    return o;
  }

  /// \brief Preset VCCE*: every optimization on (Section 5.3,
  /// GLOBAL-CUT*) — the default-constructed options.
  /// \return The configured options.
  static KvccOptions VcceStar() { return KvccOptions(); }

  /// \brief Preset by name.
  /// \param name One of "VCCE", "VCCE-N", "VCCE-G", "VCCE*".
  /// \return The matching preset.
  /// \throws std::invalid_argument for unknown names.
  static KvccOptions FromVariantName(const std::string& name);
};

}  // namespace kvcc

#endif  // KVCC_KVCC_OPTIONS_H_
