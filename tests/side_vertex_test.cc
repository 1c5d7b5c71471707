#include "kvcc/side_vertex.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "exec/task_scheduler.h"
#include "gen/erdos_renyi.h"
#include "gen/fixtures.h"
#include "graph/graph.h"
#include "kvcc/global_cut.h"
#include "kvcc/options.h"
#include "kvcc/stats.h"
#include "support/brute_force.h"
#include "util/random.h"

namespace kvcc {
namespace {

/// Vertex 0 adjacent to every other vertex, G(random_n, p) on 1..random_n,
/// and two gadgets after them: x adjacent to a and b (and 0), where the
/// non-adjacent a and b share x, 0 and shared - 2 vertices of their own.
/// `short_of_k` is the x whose a and b share k - 1 neighbours (not strong),
/// `at_k` the one whose a and b share exactly k (strong). Needs k >= 3.
struct HubGraph {
  Graph g;
  VertexId short_of_k = 0;
  VertexId at_k = 0;
};

HubGraph MakeHubGraph(VertexId random_n, double p, std::uint32_t k,
                      std::uint64_t seed) {
  const Graph base = ErdosRenyiGnp(random_n, p, seed);
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (const auto& [v, w] : base.Edges()) edges.emplace_back(v + 1, w + 1);
  HubGraph out;
  VertexId next = random_n + 1;
  for (const std::uint32_t shared : {k - 1, k}) {
    const VertexId x = next++;
    const VertexId a = next++;
    const VertexId b = next++;
    (shared == k ? out.at_k : out.short_of_k) = x;
    edges.insert(edges.end(), {{x, a}, {x, b}});
    for (std::uint32_t i = 2; i < shared; ++i) {
      const VertexId c = next++;
      edges.insert(edges.end(), {{a, c}, {b, c}});
    }
  }
  for (VertexId v = 1; v < next; ++v) edges.emplace_back(0, v);
  out.g = Graph::FromEdges(next, edges);
  return out;
}

TEST(CommonNeighborsTest, CountsExactly) {
  // K4 minus an edge: 0 and 1 not adjacent, share {2, 3}.
  const Graph g = Graph::FromEdges(
      4, std::vector<std::pair<VertexId, VertexId>>{
             {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}});
  EXPECT_TRUE(CommonNeighborsAtLeast(g, 0, 1, 2));
  EXPECT_FALSE(CommonNeighborsAtLeast(g, 0, 1, 3));
  EXPECT_TRUE(CommonNeighborsAtLeast(g, 0, 1, 0));  // Vacuous.
}

/// The detection pass's verdict for u: one pass over g, no degree cap.
bool PassSaysStrong(const Graph& g, VertexId u, std::uint32_t k) {
  SideVertexScratch scratch;
  ComputeStrongSideVerticesInto(g, k, {}, /*degree_cap=*/0, scratch);
  return scratch.strong[u] != 0;
}

TEST(StrongSideVertexTest, CliqueVerticesAreStrong) {
  const Graph g = CompleteGraph(6);
  for (VertexId v = 0; v < 6; ++v) {
    EXPECT_TRUE(PassSaysStrong(g, v, 4));
  }
}

TEST(StrongSideVertexTest, CutVertexIsNotStrong) {
  // Bowtie: vertex 2 is the cut vertex between two triangles.
  const Graph g = Graph::FromEdges(
      5, std::vector<std::pair<VertexId, VertexId>>{
             {0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4}});
  EXPECT_FALSE(PassSaysStrong(g, 2, 2));
  // Leaf-side vertices have all neighbor pairs adjacent: strong.
  EXPECT_TRUE(PassSaysStrong(g, 0, 2));
}

TEST(StrongSideVertexTest, LowDegreeVacuouslyStrong) {
  const Graph g = PathGraph(3);
  // Degree-1 endpoints have no neighbor pair to violate Theorem 8.
  EXPECT_TRUE(PassSaysStrong(g, 0, 2));
  // The middle vertex has a non-adjacent neighbor pair with no common
  // neighbors.
  EXPECT_FALSE(PassSaysStrong(g, 1, 2));
}

// Soundness: a strong side-vertex never appears in any *minimum* vertex cut
// between any non-adjacent pair. (This is how sweeps use the property.)
TEST(StrongSideVertexTest, NeverInMinimumCutsOnRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Graph g = kvcc::testing::RandomConnectedGraph(9, 12, seed);
    const std::uint32_t k = 3;
    for (VertexId u = 0; u < g.NumVertices(); ++u) {
      if (!PassSaysStrong(g, u, k)) continue;
      // For every non-adjacent pair (a, c) avoiding u with kappa < k,
      // removing any minimum cut without u must still be possible — we
      // verify the transitive consequence instead: kappa(a,c) computed in
      // g equals kappa(a,c) computed in g - u whenever kappa(a,c) < k and
      // a,c != u. If u were in every minimum a-c cut, deleting u would
      // lower the connectivity below kappa - 1 < the original, a
      // contradiction detectable here.
      for (VertexId a = 0; a < g.NumVertices(); ++a) {
        for (VertexId c = a + 1; c < g.NumVertices(); ++c) {
          if (a == u || c == u || g.HasEdge(a, c)) continue;
          const std::uint32_t kappa =
              kvcc::testing::BruteLocalVertexConnectivity(g, a, c);
          if (kappa >= k) continue;
          // Remove u, recompute: must not *drop* (a minimum cut without u
          // exists, and removing u removes at most u's own paths).
          std::vector<VertexId> keep;
          for (VertexId w = 0; w < g.NumVertices(); ++w) {
            if (w != u) keep.push_back(w);
          }
          const Graph without = g.InducedSubgraph(keep);
          const VertexId la = a > u ? a - 1 : a;
          const VertexId lc = c > u ? c - 1 : c;
          const std::uint32_t kappa_without =
              kvcc::testing::BruteLocalVertexConnectivity(without, la, lc);
          EXPECT_GE(kappa_without + 0u, kappa) << "seed=" << seed;
        }
      }
    }
  }
}

TEST(ComputeStrongSideVerticesTest, HintsShortCircuit) {
  const Graph g = CompleteGraph(5);
  std::vector<SideVertexHint> hints(5, SideVertexHint::kNotStrong);
  hints[2] = SideVertexHint::kStrong;
  hints[3] = SideVertexHint::kRecheck;
  SideVertexScratch scratch;
  const SideVertexCounts counts =
      ComputeStrongSideVerticesInto(g, 3, hints, 0, scratch);
  EXPECT_FALSE(scratch.strong[0]);  // Trusted hint (even if conservative).
  EXPECT_TRUE(scratch.strong[2]);   // Trusted hint.
  EXPECT_TRUE(scratch.strong[3]);   // Rechecked: clique vertex is strong.
  EXPECT_EQ(counts.checks_run, 1u);
  EXPECT_EQ(counts.reused, 4u);
}

TEST(ComputeStrongSideVerticesTest, DegreeCapSkipsChecks) {
  const Graph g = CompleteGraph(6);  // all degrees 5
  SideVertexScratch scratch;
  const SideVertexCounts counts =
      ComputeStrongSideVerticesInto(g, 3, {}, /*degree_cap=*/4, scratch);
  EXPECT_EQ(counts.strong_count, 0u);
  EXPECT_EQ(counts.checks_run, 0u);
}

// The memoized batch check gives every vertex the reference verdict, with
// one scratch reused over graphs that grow and shrink (stale table epochs,
// table growth). The hub's row is ten or more times longer than many of
// the rows the row walk starts from, and the gadgets put the verdict on a
// pair with exactly k - 1 and one with exactly k common neighbours. At a
// degree cap of 128 the hub of the larger graphs goes unchecked.
TEST(ComputeStrongSideVerticesTest, MatchesReferenceOnRandomGraphs) {
  SideVertexScratch scratch;
  std::uint64_t seed = 0;
  std::uint64_t strong_total = 0;
  std::uint64_t weak_total = 0;
  std::uint64_t long_rows = 0;
  std::uint64_t capped = 0;
  for (const VertexId random_n : {20u, 150u, 40u, 220u, 12u}) {
    for (const std::uint32_t k : {3u, 4u, 6u}) {
      ++seed;
      const double p = std::min(0.5, 10.0 / random_n);
      const HubGraph hub = MakeHubGraph(random_n, p, k, seed);
      const Graph& g = hub.g;
      for (const std::uint32_t cap : {0u, 128u}) {
        const std::string where =
            "seed=" + std::to_string(seed) + " cap=" + std::to_string(cap);
        SCOPED_TRACE(where);
        const SideVertexCounts counts =
            ComputeStrongSideVerticesInto(g, k, {}, cap, scratch);
        std::uint64_t checked = 0;
        std::uint64_t strong = 0;
        for (VertexId v = 0; v < g.NumVertices(); ++v) {
          const bool in_cap = cap == 0 || g.Degree(v) <= cap;
          const bool expected =
              in_cap && kvcc::testing::BruteIsStrongSideVertex(g, v, k);
          EXPECT_EQ(scratch.strong[v], expected) << "v=" << v;
          (in_cap ? checked : capped) += 1;
          strong += expected ? 1 : 0;
          if (in_cap && g.Degree(0) >= 10 * g.Degree(v)) ++long_rows;
        }
        EXPECT_EQ(counts.checks_run, checked);
        EXPECT_EQ(counts.strong_count, strong);
        EXPECT_EQ(counts.reused, 0u);
        EXPECT_FALSE(scratch.strong[hub.short_of_k]);
        EXPECT_TRUE(scratch.strong[hub.at_k]);
        strong_total += strong;
        weak_total += g.NumVertices() - strong;
      }
    }
  }
  EXPECT_GT(strong_total, 0u);
  EXPECT_GT(weak_total, 0u);
  EXPECT_GT(long_rows, 0u);
  EXPECT_GT(capped, 0u);
}

// On a multi-worker pool, GLOBAL-CUT checks the side-vertex pass of a
// working graph of 512 or more vertices in 32-vertex ranges, beside the
// certificate build, each range on the pair table of the worker it runs
// on. Its verdict bytes and counts must equal the serial pass's: with and
// without carried hints, with the hub (vertex 0) above the degree cap, and
// whether the call comes from a worker task or from outside the pool.
TEST(ComputeStrongSideVerticesTest, PoolRangesMatchSerialPass) {
  exec::TaskScheduler scheduler(4);
  std::vector<GlobalCutScratch> worker_scratch(scheduler.num_workers());
  GlobalCutPool pool{&scheduler, {}};
  for (GlobalCutScratch& scratch : worker_scratch) {
    pool.worker_scratch.push_back(&scratch);
  }
  scheduler.Start();
  const std::uint32_t cap = KvccOptions::side_vertex_degree_cap;
  std::uint64_t seed = 100;
  std::uint64_t strong_total = 0;
  for (const VertexId random_n : {520u, 700u}) {
    for (const std::uint32_t k : {3u, 4u}) {
      ++seed;
      const HubGraph hub = MakeHubGraph(random_n, 12.0 / random_n, k, seed);
      const Graph& g = hub.g;
      ASSERT_GE(g.NumVertices(), 512u);
      ASSERT_GT(g.Degree(0), cap);

      // Carried verdicts as a partition hands them down: the true verdict
      // for about two vertices in three, a recheck for the rest.
      SideVertexScratch serial;
      ComputeStrongSideVerticesInto(g, k, {}, cap, serial);
      std::vector<SideVertexHint> hints(g.NumVertices());
      Rng rng(seed);
      for (VertexId v = 0; v < g.NumVertices(); ++v) {
        if (rng.NextBounded(3) == 0) {
          hints[v] = SideVertexHint::kRecheck;
        } else {
          hints[v] = serial.strong[v] != 0 ? SideVertexHint::kStrong
                                           : SideVertexHint::kNotStrong;
        }
      }

      for (const bool hinted : {false, true}) {
        const std::vector<SideVertexHint> carried =
            hinted ? hints : std::vector<SideVertexHint>{};
        const SideVertexCounts expected =
            ComputeStrongSideVerticesInto(g, k, carried, cap, serial);
        strong_total += expected.strong_count;
        for (const bool in_task : {false, true}) {
          SCOPED_TRACE("seed=" + std::to_string(seed) +
                       " hinted=" + std::to_string(hinted) +
                       " in_task=" + std::to_string(in_task));
          GlobalCutScratch scratch;
          KvccStats stats;
          const auto run = [&] {
            GlobalCut(g, k, carried, KvccOptions::VcceStar(), &stats,
                      &scratch, &pool);
          };
          if (in_task) {
            std::promise<void> done;
            scheduler.Submit([&](unsigned) {
              try {
                run();
                done.set_value();
              } catch (...) {
                done.set_exception(std::current_exception());
              }
            });
            done.get_future().get();
          } else {
            run();
          }
          EXPECT_EQ(scratch.side.strong, serial.strong);
          EXPECT_EQ(stats.strong_side_checks_run, expected.checks_run);
          EXPECT_EQ(stats.strong_side_verdicts_reused, expected.reused);
          EXPECT_EQ(stats.strong_side_vertices_found, expected.strong_count);
        }
      }
    }
  }
  scheduler.Stop();
  EXPECT_GT(strong_total, 0u);
}

TEST(TwoHopBallTest, CoversExactlyTwoHops) {
  const Graph g = PathGraph(7);
  const auto ball = TwoHopBall(g, {0});
  EXPECT_TRUE(ball[0]);
  EXPECT_TRUE(ball[1]);
  EXPECT_TRUE(ball[2]);
  EXPECT_FALSE(ball[3]);
  EXPECT_FALSE(ball[6]);
}

TEST(TwoHopBallTest, MultipleSourcesUnion) {
  const Graph g = PathGraph(10);
  const auto ball = TwoHopBall(g, {0, 9});
  EXPECT_TRUE(ball[2]);
  EXPECT_TRUE(ball[7]);
  EXPECT_FALSE(ball[4]);
  EXPECT_FALSE(ball[5]);
}

}  // namespace
}  // namespace kvcc
