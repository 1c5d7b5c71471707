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
// Set-up (Alg. 3 lines 1-3) builds the certificate and runs the strong
// side-vertex pass. On a multi-worker pool, with neighbor sweep and a
// working graph of at least 512 vertices, both run as one fork-join: one
// index builds the certificate while the others check 32-vertex ranges of
// the side-vertex pass, so the set-up every probe waits for does not hold
// one worker while the rest idle. Otherwise both run inline.
//
// One search loop serves serial and parallel runs: each phase walks its
// candidates in serial order as a run of *waves* (form, probe, commit).
// Without wavefronts (no pool, one worker, or a working graph of fewer
// than 128 vertices) a wave holds one probe, run inline. With them, each
// phase starts with a one-probe wave, run inline, and the batch then
// doubles after every wave that wastes at most 12.5% of its probes (halving
// at 25% or more, never below one probe, at most 256). A wave of several
// probes runs them concurrently on the pool (all reading the one immutable
// test graph), and every wave is committed serially in the order a serial
// search uses. The phase-2 common-neighbor test (Lemma 13, a pure function)
// runs with the wave's probes, so hub-heavy pair formation does not
// serialize on it. Sweeps, all replay-identical stats, and the returned
// cut are byte-identical for every thread count. No probe runs
// speculatively until a probe of its phase has passed; the probes a serial
// search would have skipped are surfaced in KvccStats::probes_wasted_*,
// which a serial run keeps at 0.
//
// Whose scratch a fork-join participant uses: a participant running on
// pool worker w works on that worker's GlobalCutScratch (its FlowProbe for
// a wave's probes, its pair-verdict table for a side-vertex range), and
// one running on the calling thread outside the pool works on the scratch
// the caller passed. Results go to the calling scratch only, each index to
// its own entries; the certificate index also builds on the calling
// scratch's certificate buffers, which no other index touches. Two facts
// make the borrowing safe: a worker runs a fork-join helper only between
// its own tasks, never inside one, so its scratch is idle then; and the
// thread that called ParallelFor runs none but its own indices until the
// fork-join returns. No fork-join body may start another fork-join that
// borrows scratch: its caller would borrow the scratch its own body is
// still using.
#ifndef KVCC_KVCC_GLOBAL_CUT_H_
#define KVCC_KVCC_GLOBAL_CUT_H_

#include <cstdint>
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
/// instance per worker thread so that the flow probe's per-vertex state, the
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
///
/// Between its worker's tasks, the scratch is lent to the fork-joins other
/// workers' GLOBAL-CUT calls run (see the file comment): `probe` serves
/// their wave probes and `side`'s pair table their side-vertex ranges. No
/// other field is lent.
struct GlobalCutScratch {
  /// The LOC-CUT probe of this scratch's caller — every probe of a wave run
  /// inline, and the caller's share of a wave run on the pool — and of the
  /// fork-join participants its worker runs for other calls. Its
  /// epoch-stamped state grows only.
  FlowProbe probe;

  /// Sparse-certificate output storage plus the scan's buffers (bucket
  /// queue, scan order and positions, F_k roots); rebuilt in place per
  /// invocation when the certificate is enabled. A set-up fork-join builds
  /// it in the calling scratch on whichever participant takes that index.
  SparseCertificate cert;
  CertificateScratch cert_scratch;

  /// Strong side-vertex detection working set: the call's verdict bytes
  /// (which a set-up fork-join's ranges write, each its own vertices) and
  /// the memoized pair-check table (stamped per detection pass).
  SideVertexScratch side;
  /// Per-call counts of a set-up fork-join's side-vertex ranges, one entry
  /// per range, summed in range order.
  std::vector<SideVertexCounts> side_range_counts;

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

/// The pool a GLOBAL-CUT may fork onto: a scheduler and the scratch of each
/// of its workers, which the call borrows for the participants running on
/// them (see the file comment). The owner of the workers' scratch — the
/// enumeration engine — builds one and hands it to every call. An external
/// caller's own scratch must not be one of the workers'.
struct GlobalCutPool {
  /// The scheduler the fork-joins run on (non-null).
  exec::TaskScheduler* scheduler = nullptr;
  /// worker_scratch[w] is worker w's scratch; one entry per worker.
  std::vector<GlobalCutScratch*> worker_scratch;
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
/// repeated calls. `pool` may be nullptr (fully serial search); with a
/// multi-worker pool, a working graph of at least 512 vertices forks its
/// set-up onto it (with neighbor sweep), and one of at least 128 runs its
/// flow probes as parallel wavefronts (see file comment), with identical
/// output. Never call it from inside one of its own fork-join bodies (see
/// the file comment).
/// `cancel` may be nullptr (uncancellable); with a token, the search polls
/// it at entry and at every wave's formation, and unwinds by throwing
/// JobCancelled (with empty stats — the driver attaches the job's
/// partials) the first time it observes cancellation, after bumping
/// KvccStats::cuts_cancelled. Time to unwind is therefore bounded by one
/// wave — one probe without wavefronts — never by the remaining search
/// space.
///
/// With options.neighbor_sweep the call computes strong side-vertex
/// verdicts into `scratch->side.strong`, one byte per vertex of g, valid
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
                          const GlobalCutPool* pool = nullptr,
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
