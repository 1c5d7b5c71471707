// Configuration knobs for the k-VCC enumeration algorithms.
//
// The only algorithm settings are the paper's two sweeps; their four
// combinations are its four evaluated variants:
//   VCCE    = basic algorithm (Section 4): sparse certificate, phase-1
//             vertices in ascending id order
//   VCCE-N  = + neighbor sweep (Section 5.1), which also turns on the
//             farthest-first phase-1 order and the Lemma 15/16 reuse of
//             strong side-vertex verdicts across partitions
//   VCCE-G  = + group sweep (Section 5.2), which also turns on the
//             farthest-first phase-1 order
//   VCCE*   = + both (Section 5.3, GLOBAL-CUT*), which also skips phase-2
//             pairs that share k common neighbors (Lemma 13)
// Every variant runs its flow tests on the sparse certificate.
//
// The options carry no worker count. EnumerateKVccs runs on the calling
// thread; a parallel run holds a KvccEngine, whose worker count is the one
// parallel setting (src/kvcc/engine.h).
//
// Intra-cut parallelism has no knob: whenever a multi-worker pool runs a
// GLOBAL-CUT, its probes run as wavefronts on a working graph of 128 or
// more vertices, and with neighbor sweep its set-up (the certificate
// beside 32-vertex side-vertex ranges) forks on one of 512 or more. Each
// participant works on the scratch of the worker it runs on, and no
// fork-join body starts another. Neither changes results
// (src/kvcc/global_cut.h).
#ifndef KVCC_KVCC_OPTIONS_H_
#define KVCC_KVCC_OPTIONS_H_

#include <cstdint>
#include <optional>
#include <string>

/// \file
/// \brief KvccOptions: algorithm-variant presets (VCCE / VCCE-N / VCCE-G
/// / VCCE*) and job-control knobs.

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

/// \brief The name of a latency class, as the CLI's --priority= and
/// kvccd's "priority" field spell it.
/// \param priority The class.
/// \return "interactive", "normal" or "bulk".
const char* JobPriorityName(JobPriority priority);

/// \brief The latency class a JobPriorityName names.
/// \param name "interactive", "normal" or "bulk".
/// \return The class, or std::nullopt for any other name.
std::optional<JobPriority> JobPriorityFromName(const std::string& name);

/// \brief Algorithm-variant and execution knobs for the k-VCC
/// enumeration family (EnumerateKVccs, KvccEngine, BuildKvccHierarchy).
struct KvccOptions {
  /// \brief Enables neighbor sweep (strong side-vertices + vertex
  /// deposits, Section 5.1). Also turns on the farthest-first phase-1
  /// order (Alg. 3 line 11) and carries strong side-vertex verdicts into
  /// partition pieces whose 2-hop neighbourhood is untouched (Lemmas
  /// 15/16). Off = never prune phase-1 tests via neighborhoods.
  bool neighbor_sweep = true;

  /// \brief Enables group sweep (side-groups + group deposits, Section
  /// 5.2), including the phase-2 same-group pair skip (rule 3). Also
  /// turns on the farthest-first phase-1 order; with neighbor_sweep, it
  /// also skips phase-2 pairs that share >= k common neighbors (Lemma
  /// 13).
  bool group_sweep = true;

  /// \brief Vertices with degree above this cap are never *checked* for
  /// the strong side-vertex property (checking is Theta(d^2) pair work);
  /// they are conservatively treated as non-strong, which is sound. The
  /// cap keeps detection cheap on hub-heavy graphs where the pair work
  /// would exceed the flow tests it saves.
  static constexpr std::uint32_t side_vertex_degree_cap = 128;

  // ---- job control (see docs/JOB_CONTROL.md) ----

  /// \brief Wall-clock budget for the job in milliseconds; 0 (default) =
  /// none. The deadline arms the job's CancelToken at submission: once it
  /// elapses, tasks short-circuit at the next recursion-task or
  /// probe/wavefront boundary and the job reports JobCancelled with the
  /// partial stats of the work that ran. Honored by KvccEngine jobs and
  /// by the serial EnumerateKVccs path.
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
  /// component count (worst-case exponential in dense graphs). Ignored
  /// by the buffered APIs. Backpressure parks the producing worker on the
  /// channel — pair bounded streams with deadline_ms if the consumer may
  /// stall forever (see docs/JOB_CONTROL.md).
  std::uint32_t stream_buffer_limit = 0;

  // ---- presets matching the paper's evaluated variants ----

  /// \brief Preset VCCE: the paper's basic algorithm (no sweeps).
  /// \return The configured options.
  static KvccOptions Vcce() {
    KvccOptions o;
    o.neighbor_sweep = false;
    o.group_sweep = false;
    return o;
  }

  /// \brief Preset VCCE-N: basic + neighbor sweep (Section 5.1).
  /// \return The configured options.
  static KvccOptions VcceN() {
    KvccOptions o;
    o.group_sweep = false;
    return o;
  }

  /// \brief Preset VCCE-G: basic + group sweep (Section 5.2).
  /// \return The configured options.
  static KvccOptions VcceG() {
    KvccOptions o;
    o.neighbor_sweep = false;
    return o;
  }

  /// \brief Preset VCCE*: both sweeps (Section 5.3, GLOBAL-CUT*) — the
  /// default-constructed options.
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
