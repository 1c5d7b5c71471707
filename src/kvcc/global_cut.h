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
// Every probe is DirectedFlowGraph::LocCut (Dinic on the vertex-split
// flow graph, flow_graph.h).
//
// Intra-cut parallelism: when a multi-worker TaskScheduler is passed in,
// both phases run as *deterministic probe wavefronts* — the next batch of
// flow probes executes concurrently on the pool (each participant on its
// own flow graph, incrementally rebound to the invocation's shared
// topology owner), then the batch is committed serially in the exact order
// the serial loop would have used. The phase-2 common-neighbor test (Lemma 13,
// a pure function) also runs inside the wavefront instead of the serial
// formation loop, so hub-heavy pair formation no longer serializes on it.
// Sweeps, all pre-existing stats, and the returned cut are byte-identical
// to the serial loop for every thread count and batch size; speculative
// probes a serial run would have skipped are bounded by an adaptive batch
// size and surfaced in KvccStats::probes_wasted_*.
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

/// One wavefront probe oracle: a flow graph owned by one executor slot,
/// lazily rebound ("epoch rebind") to the GLOBAL-CUT invocation's topology
/// owner the first time that slot participates in the invocation. The
/// rebind is incremental (DirectedFlowGraph::RebindShared): the slot
/// adopts the owner's already-built arc arrays and restamps its private
/// capacity state by epoch, so steady-state entry into a wavefront costs
/// O(1) and allocates nothing instead of an O(m) per-slot rebuild.
struct ProbeOracle {
  /// The slot's flow graph, borrowing the owner's topology.
  DirectedFlowGraph flow;
  /// GlobalCutScratch::probe_epoch value this slot last bound to.
  std::uint64_t bound_epoch = 0;
};

/// One entry of a wavefront: a phase-1 vertex or phase-2 pair together with
/// the classification the serial loop's replay needs at commit time.
struct ProbeCandidate {
  enum class Kind : std::uint8_t {
    kSwept,           // phase 1: already swept at formation time
    kAdjacent,        // phase 1: adjacent to the source (Lemma 5)
    kPairGroupSkip,   // phase 2: same side-group (group sweep rule 3)
    kPairAdjacent,    // phase 2: adjacent pair (Lemma 5)
    kProbe,           // flow probe launched; result in wave_cuts[probe_index]
    kProbeDeferred,   // phase 2: launched with the common-neighbor test
                      // (Lemma 13) evaluated inside the wavefront; commit
                      // consults wave_common_skip[probe_index] first
  };
  VertexId a = 0;  // phase 1: the vertex; phase 2: first endpoint
  VertexId b = 0;  // phase 2: second endpoint
  Kind kind = Kind::kProbe;
  std::uint32_t probe_index = 0;  // valid iff kind == kProbe
};

/// Reusable per-caller state for GlobalCut. The enumeration engine keeps one
/// instance per worker thread so that the flow network, the sparse
/// certificate (storage and working buffers), the side-vertex detection
/// working set, the sweep context, and the hot-path BFS/mark buffers are all
/// recycled across the O(n) GLOBAL-CUT invocations of a run instead of being
/// reallocated in each — the steady-state cut search performs no per-call
/// heap allocation for any of them. A default-constructed scratch is always
/// valid; GlobalCut rebinds it to the working graph on entry, and its
/// contents are meaningless (but safely reusable) between calls — with one
/// documented exception: `side.strong` holds the last call's strong
/// side-vertex verdicts until the next call (see GlobalCutResult).
struct GlobalCutScratch {
  /// LOC-CUT flow graph, rebuilt (buffers recycled) per invocation.
  /// Serial probes run here; in wavefront mode this instance is the
  /// *topology owner* the pool below incrementally rebinds to, and is
  /// never probed while a wavefront is in flight.
  DirectedFlowGraph flow;

  /// Sparse-certificate output storage plus build buffers (mate/offset/
  /// used/builder); rebuilt in place per invocation when the certificate
  /// is enabled.
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

  // --- intra-cut wavefront state ---
  /// Bumped per GlobalCut invocation; pool oracles lazily rebind when their
  /// bound_epoch trails it.
  std::uint64_t probe_epoch = 0;
  /// One oracle per executor slot (scheduler workers + 1 external slot).
  /// Grown once per scratch lifetime; entries are created on first use.
  std::vector<std::unique_ptr<ProbeOracle>> probe_pool;
  /// Current wavefront: candidates in serial order, probe argument list
  /// (indexed by ProbeCandidate::probe_index), and per launched probe one
  /// deferred-common flag (input), one cut slot, one common-skip verdict,
  /// and one count of arcs the probe's flow inspected (outputs; disjoint
  /// writes across the wavefront).
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

  /// True when the call computed strong side-vertex verdicts (neighbor
  /// sweep enabled). The verdicts themselves live in the scratch —
  /// `scratch->side.strong`, one flag per vertex of g, valid until the
  /// scratch's next GlobalCut call — so the steady-state search does not
  /// copy an O(n) vector per invocation. Callers that want the verdicts
  /// (Lemma 15/16 maintenance) must pass their own scratch.
  bool strong_side_valid = false;
};

/// Preconditions: |V(g)| > k and (for the intended use) min degree >= k.
/// g must be connected: a disconnected input throws std::invalid_argument
/// (checked in every build mode, not assert-only). `hints` is either empty
/// or one entry per vertex of g. `scratch` may be nullptr (a transient
/// scratch is used); pass a live one to amortize allocations across
/// repeated calls. `scheduler` may be nullptr (fully serial search); with a
/// multi-worker scheduler and options.intra_cut_parallelism, flow probes
/// run as parallel wavefronts (see file comment) with identical output.
/// `cancel` may be nullptr (uncancellable); with a token, the search polls
/// it at entry, before every serial flow probe, and at every
/// wavefront-batch formation, and unwinds by throwing JobCancelled (with
/// empty stats — the driver attaches the job's partials) the first time it
/// observes cancellation, after bumping KvccStats::cuts_cancelled. Time to
/// unwind is therefore bounded by one probe (serial) or one batch
/// (wavefronts), never by the remaining search space.
GlobalCutResult GlobalCut(const Graph& g, std::uint32_t k,
                          const std::vector<SideVertexHint>& hints,
                          const KvccOptions& options, KvccStats* stats,
                          GlobalCutScratch* scratch = nullptr,
                          exec::TaskScheduler* scheduler = nullptr,
                          const CancelToken* cancel = nullptr);

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
