#include "kvcc/sweep_context.h"

namespace kvcc {

// kvcc-lint: no-alloc — warm rebind; the epoch bump invalidates all
// per-vertex state in O(1), and the resizes below are grow-only (covered by
// the warm GLOBAL-CUT assertion in tests/memory_tracker_test.cc).
void SweepContext::Bind(const Graph& g, std::uint32_t k,
                        const std::vector<std::uint8_t>& strong,
                        const std::vector<std::vector<VertexId>>& groups,
                        const std::vector<std::uint32_t>& group_of,
                        bool neighbor_sweep_enabled,
                        bool group_sweep_enabled) {
  graph_ = &g;
  k_ = k;
  strong_ = &strong;
  groups_ = &groups;
  group_of_ = &group_of;
  neighbor_sweep_enabled_ = neighbor_sweep_enabled;
  group_sweep_enabled_ = group_sweep_enabled;

  ++epoch_;
  // Grow-only resizes; new entries carry stamp 0, which never equals a live
  // epoch. Steady state (graph no larger than any predecessor): no work.
  if (vertex_epoch_.size() < g.NumVertices()) {
    vertex_epoch_.resize(g.NumVertices(), 0);  // kvcc-lint: reserved
    swept_.resize(g.NumVertices());            // kvcc-lint: reserved
    cause_.resize(g.NumVertices());            // kvcc-lint: reserved
    deposit_.resize(g.NumVertices());          // kvcc-lint: reserved
  }
  if (group_epoch_.size() < groups.size()) {
    group_epoch_.resize(groups.size(), 0);   // kvcc-lint: reserved
    group_deposit_.resize(groups.size());    // kvcc-lint: reserved
    group_processed_.resize(groups.size());  // kvcc-lint: reserved
  }
  worklist_.clear();
}

// kvcc-lint: no-alloc — the worklist is bounded by NumVertices() (each
// vertex is enqueued at most once per Bind), so it stays within its
// high-water capacity in steady state.
void SweepContext::Enqueue(VertexId v, SweepCause cause) {
  TouchVertex(v);
  if (swept_[v]) return;
  swept_[v] = true;
  cause_[v] = cause;
  worklist_.push_back(v);  // kvcc-lint: reserved
}

// kvcc-lint: no-alloc — Algorithm 4's sweep loop is pure worklist pops and
// counter updates; all growth happens through Enqueue's reserved push.
void SweepContext::Sweep(VertexId v, SweepCause cause) {
  Enqueue(v, cause);
  // Algorithm 4, iteratively: each popped vertex deposits on its neighbors
  // and its side-group, possibly enqueuing more sweeps.
  while (!worklist_.empty()) {
    const VertexId u = worklist_.back();
    worklist_.pop_back();
    const bool u_strong = neighbor_sweep_enabled_ && (*strong_)[u] != 0;

    if (neighbor_sweep_enabled_) {
      for (VertexId w : graph_->Neighbors(u)) {
        TouchVertex(w);
        if (swept_[w]) continue;
        ++deposit_[w];
        if (u_strong) {
          Enqueue(w, SweepCause::kNeighborSweepSide);
        } else if (deposit_[w] >= k_) {
          Enqueue(w, SweepCause::kNeighborSweepDeposit);
        }
      }
    }

    if (group_sweep_enabled_ && !group_of_->empty()) {
      const std::uint32_t group = (*group_of_)[u];
      if (group != kNoGroup) {
        TouchGroup(group);
        if (!group_processed_[group]) {
          ++group_deposit_[group];
          // Group sweep rule 1 needs a strong side-vertex in the group;
          // rule 2 needs k known-connected members (only possible when
          // |group| > k).
          const bool group_strong =
              neighbor_sweep_enabled_ && (*strong_)[u] != 0;
          if (group_strong || group_deposit_[group] >= k_) {
            group_processed_[group] = true;
            for (VertexId w : (*groups_)[group]) {
              Enqueue(w, SweepCause::kGroupSweep);
            }
          }
        }
      }
    }
  }
}

}  // namespace kvcc
