#include "kvcc/connectivity.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "gen/fixtures.h"
#include "gen/harary.h"
#include "graph/bfs.h"
#include "graph/graph.h"
#include "kvcc/flow_graph.h"
#include "support/brute_force.h"

namespace kvcc {
namespace {

TEST(VertexConnectivityTest, ClassicGraphs) {
  EXPECT_EQ(VertexConnectivity(CompleteGraph(2)), 1u);
  EXPECT_EQ(VertexConnectivity(CompleteGraph(5)), 4u);
  EXPECT_EQ(VertexConnectivity(CycleGraph(7)), 2u);
  EXPECT_EQ(VertexConnectivity(PathGraph(5)), 1u);
  EXPECT_EQ(VertexConnectivity(PetersenGraph()), 3u);
  EXPECT_EQ(VertexConnectivity(GridGraph(4, 5)), 2u);
  EXPECT_EQ(VertexConnectivity(CompleteBipartite(3, 6)), 3u);
}

TEST(VertexConnectivityTest, DegenerateCases) {
  EXPECT_EQ(VertexConnectivity(Graph()), 0u);
  EXPECT_EQ(VertexConnectivity(CompleteGraph(1)), 0u);
  const Graph disconnected = Graph::FromEdges(
      4, std::vector<std::pair<VertexId, VertexId>>{{0, 1}, {2, 3}});
  EXPECT_EQ(VertexConnectivity(disconnected), 0u);
}

TEST(VertexConnectivityTest, HararyGraphsHaveExactConnectivity) {
  for (std::uint32_t k = 1; k <= 6; ++k) {
    for (VertexId n = k + 1; n <= k + 6; ++n) {
      SCOPED_TRACE("k=" + std::to_string(k) + " n=" + std::to_string(n));
      EXPECT_EQ(VertexConnectivity(HararyGraph(k, n)), k);
    }
  }
}

TEST(VertexConnectivityTest, MatchesBruteForceOnRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const Graph g = kvcc::testing::RandomConnectedGraph(9, seed % 18, seed);
    EXPECT_EQ(VertexConnectivity(g),
              kvcc::testing::BruteVertexConnectivity(g))
        << "seed=" << seed;
  }
}

TEST(IsKVertexConnectedTest, DefinitionBoundaries) {
  // K_5 is k-connected for k <= 4 and not for k >= 5 (|V| > k fails).
  const Graph k5 = CompleteGraph(5);
  for (std::uint32_t k = 0; k <= 4; ++k) EXPECT_TRUE(IsKVertexConnected(k5, k));
  EXPECT_FALSE(IsKVertexConnected(k5, 5));
  EXPECT_FALSE(IsKVertexConnected(k5, 6));
}

TEST(IsKVertexConnectedTest, MatchesBruteForceOnRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    const Graph g = kvcc::testing::RandomConnectedGraph(9, 12, seed);
    for (std::uint32_t k = 1; k <= 4; ++k) {
      EXPECT_EQ(IsKVertexConnected(g, k),
                kvcc::testing::BruteIsKVertexConnected(g, k))
          << "seed=" << seed << " k=" << k;
    }
  }
}

TEST(LocalConnectivityTest, AdjacentPairsAreInfinite) {
  const Graph g = PathGraph(3);
  EXPECT_EQ(LocalVertexConnectivity(g, 0, 1), kInfiniteConnectivity);
}

TEST(LocalConnectivityTest, PathHasSingleWitness) {
  const Graph g = PathGraph(5);
  EXPECT_EQ(LocalVertexConnectivity(g, 0, 4), 1u);
}

TEST(LocalConnectivityTest, MatchesBruteForceOnRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Graph g = kvcc::testing::RandomConnectedGraph(8, 10, seed);
    for (VertexId u = 0; u < g.NumVertices(); ++u) {
      for (VertexId v = u + 1; v < g.NumVertices(); ++v) {
        EXPECT_EQ(LocalVertexConnectivity(g, u, v),
                  kvcc::testing::BruteLocalVertexConnectivity(g, u, v))
            << "seed=" << seed << " pair=(" << u << "," << v << ")";
      }
    }
  }
}

TEST(LocalConnectivityTest, LimitTruncates) {
  const Graph g = CompleteBipartite(4, 4);
  // kappa between two same-side vertices is 4; a limit of 2 truncates.
  EXPECT_EQ(LocalVertexConnectivity(g, 0, 1, 2), 2u);
  EXPECT_EQ(LocalVertexConnectivity(g, 0, 1), 4u);
  // Limits past INT32_MAX are limits too, not negative ones.
  const Graph harary = HararyGraph(4, 12);
  for (const std::uint32_t limit : {0u, 10u, 1u << 31, UINT32_MAX}) {
    EXPECT_EQ(LocalVertexConnectivity(harary, 0, 6, limit), 4u)
        << "limit=" << limit;
  }
}

TEST(FlowProbeTest, LocCutProducesValidVertexCut) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    const Graph g = kvcc::testing::RandomConnectedGraph(12, 10, seed);
    FlowProbe probe;
    for (VertexId u = 0; u < g.NumVertices(); ++u) {
      for (VertexId v = u + 1; v < g.NumVertices(); ++v) {
        const std::uint32_t k = 3;
        const auto cut = probe.LocCut(g, u, v, k);
        if (g.HasEdge(u, v)) {
          EXPECT_TRUE(cut.empty());
          continue;
        }
        const std::uint32_t kappa =
            kvcc::testing::BruteLocalVertexConnectivity(g, u, v);
        if (kappa >= k) {
          EXPECT_TRUE(cut.empty()) << "seed=" << seed;
          continue;
        }
        // The cut must be small, avoid u/v, and actually separate them.
        ASSERT_FALSE(cut.empty()) << "seed=" << seed;
        EXPECT_LT(cut.size(), k);
        EXPECT_EQ(cut.size(), kappa);  // LocCut yields a *minimum* u-v cut.
        std::vector<VertexId> keep;
        for (VertexId w = 0; w < g.NumVertices(); ++w) {
          if (std::find(cut.begin(), cut.end(), w) == cut.end()) {
            keep.push_back(w);
          }
        }
        EXPECT_TRUE(std::find(cut.begin(), cut.end(), u) == cut.end());
        EXPECT_TRUE(std::find(cut.begin(), cut.end(), v) == cut.end());
        const Graph remainder = g.InducedSubgraph(keep);
        // Locate u, v in the remainder via labels.
        VertexId lu = kInvalidVertex, lv = kInvalidVertex;
        for (VertexId w = 0; w < remainder.NumVertices(); ++w) {
          if (remainder.LabelOf(w) == u) lu = w;
          if (remainder.LabelOf(w) == v) lv = w;
        }
        ASSERT_NE(lu, kInvalidVertex);
        ASSERT_NE(lv, kInvalidVertex);
        std::vector<std::uint32_t> dist;
        BfsDistances(remainder, lu, dist);
        EXPECT_EQ(dist[lv], kUnreachable)
            << "seed=" << seed << " cut failed to separate " << u << " and "
            << v;
      }
    }
  }
}

}  // namespace
}  // namespace kvcc
