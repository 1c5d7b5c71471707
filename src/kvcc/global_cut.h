// GLOBAL-CUT (paper Alg. 2) and GLOBAL-CUT* (paper Alg. 3).
//
// Given a connected graph g with minimum degree >= k and more than k
// vertices, finds a vertex cut with fewer than k vertices, or reports that
// none exists (g is then k-vertex-connected). The search follows
// Esfahanian–Hakimi: phase 1 tests the local connectivity between a source
// u and every other vertex (covers every cut avoiding u); phase 2 tests all
// pairs of u's neighbors (covers cuts containing u, Lemma 4). All flow
// tests run on a sparse certificate; sweeps (KvccOptions) skip most tests.
//
// Every probe is FlowProbe::LocCut (Dinic on the implicit vertex-split
// flow graph, run on the working graph's CSR; flow_graph.h).
//
// One search loop serves serial and parallel runs: each phase walks its
// candidates in serial order as a run of *waves* (form, probe, commit).
// Without wavefronts (no scheduler, one worker, or a working graph of fewer
// than 128 vertices) a wave holds one probe, run inline. With them, a wave
// holds the next batch of probes, which run concurrently on the pool (each
// participant on its own FlowProbe, all reading the one immutable test
// graph), and is then committed serially in the order a serial search
// uses. The phase-2 common-neighbor test (Lemma 13, a pure function) runs
// with the wave's probes, so hub-heavy pair formation does not serialize
// on it. Sweeps, all replay-identical stats, and the returned cut are
// byte-identical for every thread count; speculative probes a serial
// search would have skipped are bounded by an adaptive batch size and
// surfaced in KvccStats::probes_wasted_*, which a serial run keeps at 0.
#ifndef KVCC_KVCC_GLOBAL_CUT_H_
#define KVCC_KVCC_GLOBAL_CUT_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "exec/task_scheduler.h"
#include "graph/graph.h"
#include "kvcc/flow_graph.h"
#include "kvcc/job_control.h"
#include "kvcc/options.h"
#include "kvcc/side_vertex.h"
#include "kvcc/sparse_certificate.h"
#include "kvcc/stats.h"
#include "kvcc/sweep_context.h"

namespace kvcc {

/// One entry of a wave: a phase-1 vertex or phase-2 pair with the class
/// formation gave it. Entries before the wave's first probe are settled at
/// formation and never stored; the commit replays the rest in order.
struct ProbeCandidate {
  enum class Kind : std::uint8_t {
    kSwept,          // phase 1: already swept at formation time
    kAdjacent,       // phase 1: adjacent to the source (Lemma 5)
    kPairGroupSkip,  // phase 2: same side-group (group sweep rule 3)
    kPairAdjacent,   // phase 2: adjacent pair (Lemma 5)
    kProbe,          // probe launched; result in wave_cuts[probe_index]
  };
  VertexId a = 0;  // phase 1: the vertex; phase 2: first endpoint
  VertexId b = 0;  // phase 2: second endpoint
  Kind kind = Kind::kProbe;
  std::uint32_t probe_index = 0;  // valid iff kind == kProbe
};

/// Reusable per-caller state for GlobalCut. The enumeration engine keeps one
/// instance per worker thread so that the flow probes' per-vertex state, the
/// sparse certificate (storage and working buffers), the side-vertex
/// detection working set, the sweep context, and the hot-path BFS/mark
/// buffers are all recycled across the O(n) GLOBAL-CUT invocations of a run
/// instead of being reallocated in each — the steady-state cut search
/// performs no per-call heap allocation for any of them. A
/// default-constructed scratch is always valid; GlobalCut rebinds it to the
/// working graph on entry, and its contents are meaningless (but safely
/// reusable) between calls — with one documented exception: `side.strong`
/// holds the last call's strong side-vertex verdicts until the next call
/// (see GlobalCutResult).
struct GlobalCutScratch {
  /// The LOC-CUT probe of waves run inline (no wavefronts); its
  /// epoch-stamped state grows only.
  FlowProbe probe;

  /// Sparse-certificate output storage plus the scan's buffers (bucket
  /// queue, scan order and positions, F_k roots); rebuilt in place per
  /// invocation when the certificate is enabled.
  SparseCertificate cert;
  CertificateScratch cert_scratch;

  /// Strong side-vertex detection working set (verdict vector + memoized
  /// pair-check table); epoch-invalidated per invocation.
  SideVertexScratch side;

  /// Sweep bookkeeping; epoch-rebound per invocation (O(1) reset).
  SweepContext sweep;

  // Epoch-stamped visit marks shared by CutDisconnects (verify-cuts mode)
  // and the phase-1 source BFS: a counter bump replaces the O(n) per-call
  // re-assignment of bool/dist arrays (same pattern as SweepContext::Bind).
  std::uint64_t mark_epoch = 0;
  std::vector<std::uint64_t> removed_mark;
  std::vector<std::uint64_t> seen_mark;
  std::vector<VertexId> mark_queue;

  // Phase-1 processing-order working set. order_dist[v] is valid only where
  // seen_mark[v] carries the epoch of the last source BFS — which is all of
  // [0, n) whenever that BFS succeeded (a disconnected input throws).
  std::vector<std::uint32_t> order_dist;
  std::vector<std::uint32_t> order_bucket_start;
  std::vector<VertexId> order;

  // --- wave state ---
  /// One probe per executor slot (scheduler workers + 1 external slot),
  /// each reading the shared test graph. Grown once per scratch lifetime,
  /// and only by waves run on the pool.
  std::vector<std::unique_ptr<FlowProbe>> probe_pool;
  /// Current wave: candidates in serial order, probe argument list
  /// (indexed by ProbeCandidate::probe_index), and per launched probe one
  /// Lemma-13 flag (input: test common neighbors before the flow), one cut
  /// slot, one common-skip verdict, and one count of residual moves the
  /// probe's flow examined (outputs; disjoint writes across the wave).
  std::vector<ProbeCandidate> wave;
  std::vector<std::pair<VertexId, VertexId>> wave_probe_args;
  std::vector<std::uint8_t> wave_probe_common;
  std::vector<std::vector<VertexId>> wave_cuts;
  std::vector<std::uint8_t> wave_common_skip;
  std::vector<std::uint64_t> wave_edges;
};

struct GlobalCutResult {
  /// A vertex cut of g with fewer than k vertices; empty iff g is
  /// k-vertex-connected.
  std::vector<VertexId> cut;
};

/// Preconditions: |V(g)| > k and (for the intended use) min degree >= k.
/// g must be connected: a disconnected input throws std::invalid_argument
/// (checked in every build mode, not assert-only). `hints` is either empty
/// or one entry per vertex of g. `scratch` may be nullptr (a transient
/// scratch is used); pass a live one to amortize allocations across
/// repeated calls. `scheduler` may be nullptr (fully serial search); with a
/// multi-worker scheduler and at least 128 vertices in g, flow probes run
/// as parallel wavefronts (see file comment) with identical output.
/// `cancel` may be nullptr (uncancellable); with a token, the search polls
/// it at entry and at every wave's formation, and unwinds by throwing
/// JobCancelled (with empty stats — the driver attaches the job's
/// partials) the first time it observes cancellation, after bumping
/// KvccStats::cuts_cancelled. Time to unwind is therefore bounded by one
/// wave — one probe without wavefronts — never by the remaining search
/// space.
///
/// With options.neighbor_sweep the call computes strong side-vertex
/// verdicts into `scratch->side.strong`, one flag per vertex of g, valid
/// until the scratch's next GlobalCut call, so the steady-state search
/// does not copy an O(n) vector per invocation. Callers that want the
/// verdicts (Lemma 15/16 maintenance) must pass their own scratch.
///
/// `use_certificate` = false runs every flow test on g itself, without
/// the sparse certificate and hence without group sweep. Only the
/// recovery from a certificate cut that fails to separate g (counted in
/// KvccStats::certificate_cut_fallbacks) and tests pass it; every
/// variant the drivers run uses the certificate.
GlobalCutResult GlobalCut(const Graph& g, std::uint32_t k,
                          const std::vector<SideVertexHint>& hints,
                          const KvccOptions& options, KvccStats* stats,
                          GlobalCutScratch* scratch = nullptr,
                          exec::TaskScheduler* scheduler = nullptr,
                          const CancelToken* cancel = nullptr,
                          bool use_certificate = true);

namespace detail {

/// True iff removing `cut` disconnects g (or empties it). Exposed for the
/// allocation-regression test of verify-cuts mode; uses the epoch-stamped
/// marks in `scratch`, so steady-state calls allocate nothing and touch
/// O(component reached) state, not O(n).
bool CutDisconnects(const Graph& g, const std::vector<VertexId>& cut,
                    GlobalCutScratch& scratch);

}  // namespace detail

}  // namespace kvcc

#endif  // KVCC_KVCC_GLOBAL_CUT_H_
