// Sweep bookkeeping for GLOBAL-CUT* (paper Algorithm 4).
//
// A vertex is "swept" once the algorithm knows it is locally k-connected to
// the current source without running a max-flow test. Sweeping v:
//   * increments deposit(w) of every unswept neighbor w (Def. 11); when a
//     deposit reaches k, w is swept too (neighbor sweep rule 2 / Thm 9);
//   * if v is a strong side-vertex, sweeps all of v's neighbors directly
//     (neighbor sweep rule 1 / Lemma 11);
//   * increments the group deposit of v's side-group (Def. 13); when it
//     reaches k — or v is a strong side-vertex — sweeps the whole group
//     (group sweep rules 1 and 2 / Thm 11).
// Cascades are processed iteratively with an explicit worklist.
//
// A SweepContext is reusable: Bind() rebinds it to a new working graph in
// O(1) amortized time by bumping an epoch instead of clearing (or
// reallocating) its six per-vertex/per-group arrays. State written under an
// older epoch reads as pristine (unswept, zero deposits), so one instance
// per enumeration worker serves every GLOBAL-CUT call of a run without
// per-call allocation.
//
// Concurrency contract (intra-cut wavefronts): the API splits into const
// snapshot queries (IsSwept, CauseOf, deposit, group_deposit) and the
// mutating commit call (Sweep). GLOBAL-CUT's wavefronts rely on that
// split — wavefront *formation* reads the snapshot and *commits* replay
// sweeps, both on the owning thread, while the concurrent probes read no
// sweep state at all (a probe's flow result does not depend on what is
// swept; sweeping only decides whether a probe's result is used). The
// context itself is therefore never accessed from more than one thread and
// needs no synchronization.
#ifndef KVCC_KVCC_SWEEP_CONTEXT_H_
#define KVCC_KVCC_SWEEP_CONTEXT_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "kvcc/sparse_certificate.h"

namespace kvcc {

/// Why a vertex was marked locally k-connected to the source.
enum class SweepCause : std::uint8_t {
  kTested,      // source itself, or an actual/trivial phase-1 test passed
  kNeighborSweepSide,     // rule NS1: neighbor of a swept strong side-vertex
  kNeighborSweepDeposit,  // rule NS2: vertex deposit reached k
  kGroupSweep,            // rules GS1/GS2: whole side-group swept
};

class SweepContext {
 public:
  /// Unbound context; call Bind() before use.
  SweepContext() = default;

  /// Convenience: construct and Bind in one step (see Bind for parameter
  /// semantics).
  SweepContext(const Graph& g, std::uint32_t k,
               const std::vector<std::uint8_t>& strong,
               const std::vector<std::vector<VertexId>>& groups,
               const std::vector<std::uint32_t>& group_of,
               bool neighbor_sweep_enabled, bool group_sweep_enabled) {
    Bind(g, k, strong, groups, group_of, neighbor_sweep_enabled,
         group_sweep_enabled);
  }

  /// (Re)binds the context to a working graph, resetting all sweep state.
  /// `g` is the working graph (sweep conditions use its full adjacency);
  /// `strong` flags strong side-vertices of g (one byte per vertex, 1 =
  /// strong); `groups`/`group_of` come from the sparse certificate. Either
  /// sweep family can be disabled. All arguments are borrowed and must
  /// outlive the binding (i.e. stay alive until the next Bind or
  /// destruction).
  void Bind(const Graph& g, std::uint32_t k,
            const std::vector<std::uint8_t>& strong,
            const std::vector<std::vector<VertexId>>& groups,
            const std::vector<std::uint32_t>& group_of,
            bool neighbor_sweep_enabled, bool group_sweep_enabled);

  /// Marks v locally k-connected to the source and runs all cascades.
  /// No-op if v is already swept.
  void Sweep(VertexId v, SweepCause cause);

  bool IsSwept(VertexId v) const {
    return vertex_epoch_[v] == epoch_ && swept_[v];
  }
  SweepCause CauseOf(VertexId v) const {
    return vertex_epoch_[v] == epoch_ ? cause_[v] : SweepCause::kTested;
  }

  std::uint32_t deposit(VertexId v) const {
    return vertex_epoch_[v] == epoch_ ? deposit_[v] : 0;
  }
  std::uint32_t group_deposit(std::uint32_t group) const {
    return group_epoch_[group] == epoch_ ? group_deposit_[group] : 0;
  }

 private:
  /// Lazily initializes v's slice of the per-vertex arrays for the current
  /// epoch. Every write path goes through here first.
  void TouchVertex(VertexId v) {
    if (vertex_epoch_[v] != epoch_) {
      vertex_epoch_[v] = epoch_;
      swept_[v] = false;
      cause_[v] = SweepCause::kTested;
      deposit_[v] = 0;
    }
  }
  void TouchGroup(std::uint32_t group) {
    if (group_epoch_[group] != epoch_) {
      group_epoch_[group] = epoch_;
      group_deposit_[group] = 0;
      group_processed_[group] = false;
    }
  }
  void Enqueue(VertexId v, SweepCause cause);

  const Graph* graph_ = nullptr;
  std::uint32_t k_ = 0;
  const std::vector<std::uint8_t>* strong_ = nullptr;
  const std::vector<std::vector<VertexId>>* groups_ = nullptr;
  const std::vector<std::uint32_t>* group_of_ = nullptr;
  bool neighbor_sweep_enabled_ = false;
  bool group_sweep_enabled_ = false;

  // Epoch 0 never matches: stamps start at 0, epochs at 1. 64-bit, so the
  // counter cannot wrap within any feasible run.
  std::uint64_t epoch_ = 0;
  std::vector<std::uint64_t> vertex_epoch_;
  std::vector<std::uint64_t> group_epoch_;

  // Payload arrays, valid for entries stamped with the current epoch. They
  // only ever grow (to the largest graph seen), never shrink or clear.
  std::vector<bool> swept_;
  std::vector<SweepCause> cause_;
  std::vector<std::uint32_t> deposit_;
  std::vector<std::uint32_t> group_deposit_;
  std::vector<bool> group_processed_;
  std::vector<VertexId> worklist_;
};

}  // namespace kvcc

#endif  // KVCC_KVCC_SWEEP_CONTEXT_H_
