#include "kvcc/side_vertex.h"

#include <algorithm>
#include <atomic>

namespace kvcc {
namespace {

/// Source of NewSideVertexPass's stamps. Stamps start at 1, so a fresh
/// scratch's pair_pass of 0 matches no pass.
std::atomic<std::uint64_t> next_side_vertex_pass{1};

/// SplitMix64 finalizer: spreads packed (min, max) vertex pairs across the
/// table (consecutive ids would otherwise cluster in one probe run).
std::uint64_t MixPairKey(std::uint64_t key) {
  key += 0x9e3779b97f4a7c15ull;
  key = (key ^ (key >> 30)) * 0xbf58476d1ce4e5b9ull;
  key = (key ^ (key >> 27)) * 0x94d049bb133111ebull;
  return key ^ (key >> 31);
}

/// First position in [at, end) whose entry is not below `target`, for a
/// sorted row. Up to four single steps settle the short gaps of dense
/// neighbourhoods; past them the cursor gallops 1, 2, 4, ... entries ahead
/// and binary-searches the last stride, so skipping s entries costs
/// O(log s) compares and a short N(u) crossing a hub's long row stays
/// cheap (a plain walk would be quadratic in the hub's degree).
const VertexId* AdvanceTo(const VertexId* at, const VertexId* end,
                          VertexId target) {
  for (int step = 0; step < 4; ++step, ++at) {
    if (at == end || *at >= target) return at;
  }
  std::ptrdiff_t stride = 1;
  while (stride < end - at && at[stride] < target) {
    at += stride;
    stride *= 2;
  }
  return std::lower_bound(at, at + std::min(stride, end - at), target);
}

/// Memoized Theorem-8 pair check over the flat epoch-stamped table in
/// SideVertexScratch, asked only about non-adjacent pairs (the caller's row
/// walk settles adjacent ones). In clique-rich graphs the same neighbor
/// pair (v, v') appears in N(u) for every common neighbor u, so caching the
/// verdict turns Theta(d^2 * common) repeated work into a probe-and-read —
/// without the per-node allocations an unordered_map would pay on every
/// insert. The table keeps the verdicts of one detection pass: the ranges
/// of that pass it serves share them, and the first range of any other
/// pass invalidates them in O(1).
class PairVerdictCache {
 public:
  PairVerdictCache(const Graph& g, std::uint32_t k, std::uint64_t pass,
                   SideVertexScratch& scratch)
      : graph_(g), k_(k), scratch_(scratch) {
    if (scratch_.pair_pass != pass) {
      ++scratch_.pair_epoch;  // O(1) invalidation of all cached verdicts.
      scratch_.pair_live = 0;
      scratch_.pair_pass = pass;
    }
    if (scratch_.pair_slots.empty()) scratch_.pair_slots.resize(kMinSlots);
  }

  /// True iff the non-adjacent v and w share at least k neighbors.
  bool PairIsGood(VertexId v, VertexId w) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(std::min(v, w)) << 32) | std::max(v, w);
    auto& slots = scratch_.pair_slots;
    const std::size_t mask = slots.size() - 1;
    std::size_t i = MixPairKey(key) & mask;
    while (true) {
      SideVertexScratch::PairSlot& slot = slots[i];
      if (slot.epoch != scratch_.pair_epoch) {
        // Empty slot for this epoch: compute, memoize, maybe grow.
        const bool good = CommonNeighborsAtLeast(graph_, v, w, k_);
        slot.key = key;
        slot.epoch = scratch_.pair_epoch;
        slot.good = good;
        if (++scratch_.pair_live * 2 > slots.size()) Grow();
        return good;
      }
      if (slot.key == key) return slot.good;
      i = (i + 1) & mask;
    }
  }

 private:
  /// Doubles the table. Cached verdicts are dropped (epoch bump) rather
  /// than rehashed: they are pure functions of (graph, k, pair), so losing
  /// them costs recomputation, never correctness — and steady state (table
  /// already at the high-water mark of the run) never grows again.
  void Grow() {
    auto& slots = scratch_.pair_slots;
    const std::size_t next = slots.size() * 2;
    slots.assign(next, SideVertexScratch::PairSlot{});
    ++scratch_.pair_epoch;
    scratch_.pair_live = 0;
  }

  static constexpr std::size_t kMinSlots = 64;  // power of two

  const Graph& graph_;
  const std::uint32_t k_;
  SideVertexScratch& scratch_;
};

}  // namespace

bool CommonNeighborsAtLeast(const Graph& g, VertexId a, VertexId b,
                            std::uint32_t k) {
  if (k == 0) return true;
  const auto na = g.Neighbors(a);
  const auto nb = g.Neighbors(b);
  std::uint32_t common = 0;
  std::size_t i = 0, j = 0;
  while (i < na.size() && j < nb.size()) {
    // Even if every remaining candidate matched, k would be unreachable.
    const std::size_t remaining = std::min(na.size() - i, nb.size() - j);
    if (common + remaining < k) return false;
    if (na[i] < nb[j]) {
      ++i;
    } else if (na[i] > nb[j]) {
      ++j;
    } else {
      if (++common >= k) return true;
      ++i;
      ++j;
    }
  }
  return false;
}

std::uint64_t NewSideVertexPass() {
  return next_side_vertex_pass.fetch_add(1, std::memory_order_relaxed);
}

// kvcc-lint: no-alloc — warm path under tests/memory_tracker_test.cc's
// WarmGlobalCutAllocatesNothing: the pair table is grow-only scratch and
// the memoized pair checks recycle slots by epoch.
SideVertexCounts CheckStrongSideVertexRange(
    const Graph& g, std::uint32_t k, const std::vector<SideVertexHint>& hints,
    std::uint32_t degree_cap, VertexId begin, VertexId end,
    std::uint64_t pass, SideVertexScratch& memo, std::uint8_t* strong) {
  SideVertexCounts out;
  PairVerdictCache pairs(g, k, pass, memo);
  for (VertexId u = begin; u < end; ++u) {
    strong[u] = 0;
    if (!hints.empty()) {
      if (hints[u] == SideVertexHint::kStrong) {
        strong[u] = 1;
        ++out.reused;
        ++out.strong_count;
        continue;
      }
      if (hints[u] == SideVertexHint::kNotStrong) {
        ++out.reused;
        continue;
      }
    }
    if (degree_cap != 0 && g.Degree(u) > degree_cap) continue;
    ++out.checks_run;
    const auto nbrs = g.Neighbors(u);
    bool is_strong = true;
    for (std::size_t i = 0; i + 1 < nbrs.size() && is_strong; ++i) {
      // One forward cursor over nbrs[i]'s row meets every later neighbor
      // nbrs[i] is adjacent to; only the pairs it misses go to the table.
      const auto row = g.Neighbors(nbrs[i]);
      const VertexId* const row_end = row.data() + row.size();
      const VertexId* at = row.data();
      for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
        at = AdvanceTo(at, row_end, nbrs[j]);
        if (at != row_end && *at == nbrs[j]) continue;
        if (!pairs.PairIsGood(nbrs[i], nbrs[j])) {
          is_strong = false;
          break;
        }
      }
    }
    if (is_strong) {
      strong[u] = 1;
      ++out.strong_count;
    }
  }
  return out;
}

// kvcc-lint: no-alloc — warm path under tests/memory_tracker_test.cc's
// WarmGlobalCutAllocatesNothing: the verdict bytes only grow.
SideVertexCounts ComputeStrongSideVerticesInto(
    const Graph& g, std::uint32_t k, const std::vector<SideVertexHint>& hints,
    std::uint32_t degree_cap, SideVertexScratch& scratch) {
  const VertexId n = g.NumVertices();
  scratch.strong.resize(n);  // kvcc-lint: reserved
  return CheckStrongSideVertexRange(g, k, hints, degree_cap, 0, n,
                                    NewSideVertexPass(), scratch,
                                    scratch.strong.data());
}

std::vector<bool> TwoHopBall(const Graph& g,
                             const std::vector<VertexId>& sources) {
  const VertexId n = g.NumVertices();
  std::vector<bool> ball(n, false);
  for (VertexId s : sources) ball[s] = true;
  // Two whole-graph dilation passes: O(n + m) independent of |sources|.
  for (int pass = 0; pass < 2; ++pass) {
    std::vector<bool> next = ball;
    for (VertexId v = 0; v < n; ++v) {
      if (next[v]) continue;
      for (VertexId w : g.Neighbors(v)) {
        if (ball[w]) {
          next[v] = true;
          break;
        }
      }
    }
    ball = std::move(next);
  }
  return ball;
}

}  // namespace kvcc
