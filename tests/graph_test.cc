#include "graph/graph.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "gen/erdos_renyi.h"
#include "graph/graph_builder.h"
#include "util/random.h"

namespace kvcc {
namespace {

using Edge = std::pair<VertexId, VertexId>;

const std::vector<VertexId> kNone;

TEST(GraphTest, EmptyGraph) {
  const Graph g;
  EXPECT_EQ(g.NumVertices(), 0u);
  EXPECT_EQ(g.NumEdges(), 0u);
  EXPECT_EQ(g.AverageDegree(), 0.0);
  EXPECT_EQ(g.MinDegreeVertex(), kInvalidVertex);
}

TEST(GraphTest, FromEdgesBasic) {
  const std::vector<Edge> edges = {{0, 1}, {1, 2}, {0, 2}};
  const Graph g = Graph::FromEdges(3, edges);
  EXPECT_EQ(g.NumVertices(), 3u);
  EXPECT_EQ(g.NumEdges(), 3u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_TRUE(g.HasEdge(2, 0));
  EXPECT_EQ(g.Degree(0), 2u);
}

TEST(GraphTest, BuilderDropsSelfLoopsAndDuplicates) {
  GraphBuilder builder(4);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 0);  // duplicate (reversed)
  builder.AddEdge(0, 1);  // duplicate
  builder.AddEdge(2, 2);  // self-loop
  builder.AddEdge(2, 3);
  const Graph g = builder.Build();
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_EQ(g.Degree(2), 1u);
  EXPECT_FALSE(g.HasEdge(2, 2));
}

// Every row comes out strictly ascending whatever order the edges arrive
// in, reversed, duplicated and self-looped ones included.
TEST(GraphTest, NeighborsAreSorted) {
  GraphBuilder builder(6);
  builder.AddEdge(3, 5);
  builder.AddEdge(3, 0);
  builder.AddEdge(3, 4);
  builder.AddEdge(3, 1);
  builder.AddEdge(5, 1);  // reversed
  builder.AddEdge(4, 0);  // reversed
  builder.AddEdge(0, 3);  // duplicate
  builder.AddEdge(5, 3);  // duplicate, reversed
  builder.AddEdge(2, 2);  // self-loop
  builder.AddEdge(2, 0);  // reversed
  const Graph g = builder.Build();
  const std::vector<std::vector<VertexId>> rows = {
      {2, 3, 4}, {3, 5}, {0}, {0, 1, 4, 5}, {0, 3}, {1, 3}};
  ASSERT_EQ(g.NumVertices(), rows.size());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    const auto nbrs = g.Neighbors(v);
    for (std::size_t i = 1; i < nbrs.size(); ++i) {
      EXPECT_LT(nbrs[i - 1], nbrs[i]) << "v=" << v;
    }
    const std::vector<VertexId> row(nbrs.begin(), nbrs.end());
    EXPECT_EQ(row, rows[v]) << "v=" << v;
  }
}

TEST(GraphTest, BuilderGrowsVertexCountAutomatically) {
  GraphBuilder builder;
  builder.AddEdge(2, 9);
  const Graph g = builder.Build();
  EXPECT_EQ(g.NumVertices(), 10u);
  EXPECT_EQ(g.Degree(5), 0u);
}

TEST(GraphTest, EdgesReturnsSortedPairs) {
  const std::vector<Edge> edges = {{2, 1}, {0, 2}, {0, 1}};
  const Graph g = Graph::FromEdges(3, edges);
  const auto out = g.Edges();
  const std::vector<Edge> expected = {{0, 1}, {0, 2}, {1, 2}};
  EXPECT_EQ(out, expected);
}

TEST(GraphTest, InducedSubgraphKeepsInternalEdgesOnly) {
  // Square 0-1-2-3 with a diagonal 0-2.
  const std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}};
  const Graph g = Graph::FromEdges(4, edges);
  const std::vector<VertexId> keep = {0, 1, 2};
  const Graph sub = g.InducedSubgraph(keep);
  EXPECT_EQ(sub.NumVertices(), 3u);
  EXPECT_EQ(sub.NumEdges(), 3u);  // 0-1, 1-2, 0-2
  EXPECT_EQ(sub.LabelOf(0), 0u);
  EXPECT_EQ(sub.LabelOf(2), 2u);
}

TEST(GraphTest, InducedSubgraphComposesLabels) {
  // 5-path; take {1,2,3,4}, then {1,2,3} of that -> labels {2,3,4}.
  const std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 3}, {3, 4}};
  const Graph g = Graph::FromEdges(5, edges);
  const std::vector<VertexId> first = {1, 2, 3, 4};
  const Graph sub1 = g.InducedSubgraph(first);
  const std::vector<VertexId> second = {1, 2, 3};
  const Graph sub2 = sub1.InducedSubgraph(second);
  EXPECT_EQ(sub2.NumVertices(), 3u);
  EXPECT_EQ(sub2.LabelOf(0), 2u);
  EXPECT_EQ(sub2.LabelOf(1), 3u);
  EXPECT_EQ(sub2.LabelOf(2), 4u);
}

TEST(GraphTest, InducedSubgraphIgnoresDuplicateInput) {
  const std::vector<Edge> edges = {{0, 1}, {1, 2}};
  const Graph g = Graph::FromEdges(3, edges);
  const std::vector<VertexId> keep = {1, 1, 0, 0};
  const Graph sub = g.InducedSubgraph(keep);
  EXPECT_EQ(sub.NumVertices(), 2u);
  EXPECT_EQ(sub.NumEdges(), 1u);
}

// The in-place induce gives InducedSubgraph's graph, structure and labels,
// on random graphs with and without labels, for empty, single-vertex, half
// and full sorted subsets. One id map serves every call, so it often
// arrives sized by an earlier, larger graph.
TEST(GraphTest, InduceInPlaceMatchesInducedSubgraph) {
  std::vector<VertexId> local;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto n = static_cast<VertexId>(10 + 13 * seed % 47);
    const Graph plain = ErdosRenyiGnm(n, 3 * n, seed);
    // The odd vertices of a graph twice the size carry labels 1, 3, 5, ...
    const Graph wide = ErdosRenyiGnm(2 * n, 12 * n, seed + 100);
    std::vector<VertexId> odd;
    for (VertexId v = 1; v < 2 * n; v += 2) odd.push_back(v);
    const Graph labeled = wide.InducedSubgraph(odd);
    ASSERT_FALSE(plain.HasLabels());
    ASSERT_TRUE(labeled.HasLabels());

    Rng rng(seed);
    std::vector<VertexId> half;
    std::vector<VertexId> full;
    for (VertexId v = 0; v < n; ++v) {
      if (rng.NextBounded(2) == 0) half.push_back(v);
      full.push_back(v);
    }
    const std::vector<std::vector<VertexId>> subsets = {
        kNone, {static_cast<VertexId>(seed % n)}, half, full};
    for (const Graph* g : {&plain, &labeled}) {
      for (const std::vector<VertexId>& subset : subsets) {
        SCOPED_TRACE("seed=" + std::to_string(seed) +
                     " labeled=" + std::to_string(g->HasLabels()) +
                     " size=" + std::to_string(subset.size()));
        const Graph expected = g->InducedSubgraph(subset);
        Graph shrunk = *g;
        shrunk.InduceInPlace(subset, local);
        EXPECT_TRUE(shrunk.SameStructure(expected));
        EXPECT_EQ(shrunk.NumEdges(), expected.NumEdges());
        for (VertexId v = 0; v < expected.NumVertices(); ++v) {
          EXPECT_EQ(shrunk.LabelOf(v), expected.LabelOf(v)) << "v=" << v;
        }
      }
    }
  }
  // The empty graph shrinks to itself.
  Graph empty;
  empty.InduceInPlace(kNone, local);
  EXPECT_TRUE(empty.SameStructure(Graph().InducedSubgraph(kNone)));
}

TEST(GraphTest, WithIdentityLabelsResetsLabeling) {
  const std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 3}};
  const Graph g = Graph::FromEdges(4, edges);
  const std::vector<VertexId> keep = {1, 2, 3};
  const Graph sub = g.InducedSubgraph(keep);
  EXPECT_EQ(sub.LabelOf(0), 1u);
  const Graph reset = sub.WithIdentityLabels();
  EXPECT_EQ(reset.LabelOf(0), 0u);
  EXPECT_TRUE(reset.SameStructure(sub));
}

TEST(GraphTest, DegreeStatistics) {
  // Star with center 0 and 4 leaves.
  const std::vector<Edge> edges = {{0, 1}, {0, 2}, {0, 3}, {0, 4}};
  const Graph g = Graph::FromEdges(5, edges);
  EXPECT_EQ(g.MaxDegree(), 4u);
  EXPECT_EQ(g.MinDegreeVertex(), 1u);  // Smallest id among the leaves.
  EXPECT_DOUBLE_EQ(g.AverageDegree(), 8.0 / 5.0);
}

TEST(GraphTest, LabelsOfMapsIds) {
  const std::vector<Edge> edges = {{0, 1}, {1, 2}};
  const Graph g = Graph::FromEdges(3, edges);
  const std::vector<VertexId> keep = {1, 2};
  const Graph sub = g.InducedSubgraph(keep);
  const std::vector<VertexId> locals = {0, 1};
  EXPECT_EQ(sub.LabelsOf(locals), (std::vector<VertexId>{1, 2}));
}

TEST(GraphTest, MemoryBytesIsPositive) {
  const Graph g = Graph::FromEdges(2, std::vector<Edge>{{0, 1}});
  EXPECT_GT(g.MemoryBytes(), 0u);
}

TEST(GraphTest, BuilderRejectsBadLabelCount) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 1);
  builder.SetLabels({7});
  EXPECT_THROW(builder.Build(), std::invalid_argument);
}

}  // namespace
}  // namespace kvcc
