#include "graph/graph_io.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "graph/graph.h"

namespace kvcc {
namespace {

TEST(GraphIoTest, ParsesEdgeListWithComments) {
  const Graph g = ReadEdgeList(
      "# a SNAP-style header\n"
      "% another comment style\n"
      "0 1\n"
      "1 2\n"
      "\n"
      "2 0\n",
      1);
  EXPECT_EQ(g.NumVertices(), 3u);
  EXPECT_EQ(g.NumEdges(), 3u);
}

TEST(GraphIoTest, CompactsSparseIdsAndKeepsLabels) {
  const Graph g = ReadEdgeList("4000000 205\n205 100\n", 1);
  EXPECT_EQ(g.NumVertices(), 3u);
  EXPECT_EQ(g.NumEdges(), 2u);
  // Labels preserve the original ids, numbered in ascending order.
  EXPECT_EQ(g.LabelOf(0), 100u);
  EXPECT_EQ(g.LabelOf(1), 205u);
  EXPECT_EQ(g.LabelOf(2), 4000000u);
}

TEST(GraphIoTest, ThrowsOnMalformedLine) {
  EXPECT_THROW(ReadEdgeList("0 1\nbogus line\n", 1), std::runtime_error);
}

TEST(GraphIoTest, ThrowsOnMissingFile) {
  EXPECT_THROW(ReadEdgeListFile("/nonexistent/path/graph.txt"),
               std::runtime_error);
}

TEST(GraphIoTest, RoundTripPreservesStructure) {
  const Graph g = ReadEdgeList("5 7\n7 9\n9 5\n9 11\n", 1);
  std::ostringstream out;
  WriteEdgeList(g, out);
  const Graph g2 = ReadEdgeList(out.str(), 1);
  EXPECT_EQ(g2.NumVertices(), g.NumVertices());
  EXPECT_EQ(g2.NumEdges(), g.NumEdges());
  // Same label universe.
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    SCOPED_TRACE(v);
    // Find g.LabelOf(v) among g2's labels.
    bool found = false;
    for (VertexId w = 0; w < g2.NumVertices(); ++w) {
      if (g2.LabelOf(w) == g.LabelOf(v)) found = true;
    }
    EXPECT_TRUE(found);
  }
}

TEST(GraphIoTest, FileRoundTrip) {
  const Graph g = ReadEdgeList("0 1\n1 2\n2 3\n3 0\n", 1);
  const std::string path = ::testing::TempDir() + "/kvcc_io_test.txt";
  WriteEdgeListFile(g, path);
  const Graph g2 = ReadEdgeListFile(path);
  EXPECT_EQ(g2.NumVertices(), 4u);
  EXPECT_EQ(g2.NumEdges(), 4u);
}

}  // namespace
}  // namespace kvcc
