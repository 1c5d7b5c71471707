#include "graph/graph_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "gen/barabasi_albert.h"
#include "gen/fixtures.h"
#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "support/brute_force.h"

namespace kvcc {
namespace {

using kvcc::testing::RandomConnectedGraph;

TEST(GraphIoTest, ParsesEdgeListWithComments) {
  const Graph g = ReadEdgeList(
      "# a SNAP-style header\n"
      "% another comment style\n"
      "0 1\n"
      "1 2\n"
      "\n"
      "2 0\n");
  EXPECT_EQ(g.NumVertices(), 3u);
  EXPECT_EQ(g.NumEdges(), 3u);
}

TEST(GraphIoTest, CompactsSparseIdsAndKeepsLabels) {
  const Graph g = ReadEdgeList("4000000 205\n205 100\n");
  EXPECT_EQ(g.NumVertices(), 3u);
  EXPECT_EQ(g.NumEdges(), 2u);
  // Labels preserve the original ids, numbered in ascending order.
  EXPECT_EQ(g.LabelOf(0), 100u);
  EXPECT_EQ(g.LabelOf(1), 205u);
  EXPECT_EQ(g.LabelOf(2), 4000000u);
}

TEST(GraphIoTest, ThrowsOnMalformedLine) {
  EXPECT_THROW(ReadEdgeList("0 1\nbogus line\n"), std::runtime_error);
}

TEST(GraphIoTest, ThrowsOnMissingFile) {
  EXPECT_THROW(ReadEdgeListFile("/nonexistent/path/graph.txt"),
               std::runtime_error);
}

TEST(GraphIoTest, RoundTripPreservesStructure) {
  const Graph g = ReadEdgeList("5 7\n7 9\n9 5\n9 11\n");
  std::ostringstream out;
  WriteEdgeList(g, out);
  const Graph g2 = ReadEdgeList(out.str());
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
  const Graph g = ReadEdgeList("0 1\n1 2\n2 3\n3 0\n");
  const std::string path = ::testing::TempDir() + "/kvcc_io_test.txt";
  WriteEdgeListFile(g, path);
  const Graph g2 = ReadEdgeListFile(path);
  EXPECT_EQ(g2.NumVertices(), 4u);
  EXPECT_EQ(g2.NumEdges(), 4u);
}

// ---- the loader's normalization --------------------------------------------

/// Full structural fingerprint: vertex numbering, labels, and adjacency
/// order all included. Equal fingerprints mean byte-identical graphs.
std::string GraphFingerprint(const Graph& g) {
  std::ostringstream out;
  out << g.NumVertices() << "/" << g.NumEdges() << ";";
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    out << g.LabelOf(v) << ":";
    for (const VertexId w : g.Neighbors(v)) out << g.LabelOf(w) << ",";
    out << ";";
  }
  return out.str();
}

/// Numbering-independent fingerprint: rows keyed and sorted by label,
/// neighbor labels sorted, so a loaded graph compares equal to the graph
/// that was written however either numbers its vertices.
std::string CanonicalFingerprint(const Graph& g) {
  std::vector<std::pair<VertexId, std::vector<VertexId>>> rows;
  rows.reserve(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    std::vector<VertexId> nbrs;
    nbrs.reserve(g.Neighbors(v).size());
    for (const VertexId w : g.Neighbors(v)) nbrs.push_back(g.LabelOf(w));
    std::sort(nbrs.begin(), nbrs.end());
    rows.emplace_back(g.LabelOf(v), std::move(nbrs));
  }
  std::sort(rows.begin(), rows.end());
  std::ostringstream out;
  out << g.NumVertices() << "/" << g.NumEdges() << ";";
  for (const auto& [label, nbrs] : rows) {
    out << label << ":";
    for (const VertexId w : nbrs) out << w << ",";
    out << ";";
  }
  return out.str();
}

/// `g` with vertex v labelled `stride * v + 11`: ascending labels, so
/// the loader numbers the vertices as `g` does.
Graph RelabelledCopy(const Graph& g, VertexId stride) {
  GraphBuilder builder(g.NumVertices());
  std::vector<VertexId> labels;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (const VertexId w : g.Neighbors(v)) builder.AddEdge(v, w);
    labels.push_back(stride * v + 11);
  }
  builder.SetLabels(std::move(labels));
  return builder.Build();
}

TEST(EdgeListLoaderTest, RoundTripMatchesWrittenGraph) {
  for (const Graph& g :
       {RandomConnectedGraph(50, 80, 1), BarabasiAlbert(3000, 3, 4),
        GridGraph(20, 20)}) {
    std::ostringstream text;
    WriteEdgeList(g, text);
    EXPECT_EQ(CanonicalFingerprint(ReadEdgeList(text.str())),
              CanonicalFingerprint(g));
  }
}

// Shuffled lines put the edge pairs out of order, and reversed, repeated
// and self-loop lines add duplicates, so the build's sort and dedup both
// run. The loaded graph must equal the original byte for byte, on the
// dense id table and (with labels far apart) on the sparse.
TEST(EdgeListLoaderTest, ShuffledRepeatedAndReversedLinesLoadTheOriginal) {
  const Graph base = BarabasiAlbert(2000, 4, 17);
  for (const Graph& g : {base, RelabelledCopy(base, 1000003)}) {
    std::ostringstream written;
    WriteEdgeList(g, written);
    std::istringstream lines(written.str());
    std::vector<std::string> shuffled;
    std::mt19937 rng(5);
    for (std::string line; std::getline(lines, line);) {
      if (line.empty() || line[0] == '#') continue;
      const std::size_t space = line.find(' ');
      const std::string u = line.substr(0, space);
      const std::string v = line.substr(space + 1);
      shuffled.push_back(rng() % 2 == 0 ? line : v + " " + u);
      if (rng() % 4 == 0) shuffled.push_back(v + " " + u);
      if (rng() % 4 == 0) shuffled.push_back(line);
      if (rng() % 16 == 0) shuffled.push_back(u + " " + u);
    }
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    std::string text;
    for (const std::string& line : shuffled) text += line + "\n";
    EXPECT_EQ(GraphFingerprint(ReadEdgeList(text)), GraphFingerprint(g));
  }
}

// Repeating every line leaves the graph unchanged but multiplies the
// parsed pairs, which moves the input from the sparse id table (sort +
// unique) to the dense one (present bitmap). Both must number alike.
TEST(EdgeListLoaderTest, DenseAndSparseIdTablesAgree) {
  const std::string lines = "4999 3\n70 1000\n3 70\n2500 4999\n1000 2500\n";
  std::string repeated;
  for (int copy = 0; copy < 63; ++copy) repeated += lines;  // 16*315 >= 5000
  const Graph sparse = ReadEdgeList(lines);
  const Graph dense = ReadEdgeList(repeated);
  ASSERT_EQ(sparse.NumVertices(), 5u);
  EXPECT_EQ(sparse.LabelsOf(std::vector<VertexId>{0, 1, 2, 3, 4}),
            (std::vector<VertexId>{3, 70, 1000, 2500, 4999}));
  EXPECT_EQ(GraphFingerprint(dense), GraphFingerprint(sparse));
}

TEST(EdgeListLoaderTest, CommentsBlanksAndTrailingTokens) {
  const std::string text =
      "# header comment\n"
      "% percent comment\n"
      "\n"
      "   \t \n"
      "1 2 weight=7 extra tokens\n"
      "\t2  3\n"
      "3 1\r\n";
  const Graph g = ReadEdgeList(text);
  EXPECT_EQ(g.NumVertices(), 3u);
  EXPECT_EQ(g.NumEdges(), 3u);
}

TEST(EdgeListLoaderTest, LabelsSortedByRawId) {
  const Graph g = ReadEdgeList("100 7\n7 3\n");
  ASSERT_EQ(g.NumVertices(), 3u);
  EXPECT_EQ(g.LabelOf(0), 3u);
  EXPECT_EQ(g.LabelOf(1), 7u);
  EXPECT_EQ(g.LabelOf(2), 100u);
  // Vertex 1 (raw 7) neighbors raw 3 and raw 100.
  EXPECT_EQ(g.Neighbors(1).size(), 2u);
  EXPECT_EQ(g.Neighbors(0).size(), 1u);
}

TEST(EdgeListLoaderTest, DuplicatesAndSelfLoops) {
  // Duplicate edges collapse (in either direction); a self-loop keeps the
  // vertex but contributes no edge.
  const Graph g = ReadEdgeList("1 2\n2 1\n1 2\n5 5\n");
  ASSERT_EQ(g.NumVertices(), 3u);
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_EQ(g.LabelOf(2), 5u);
  EXPECT_TRUE(g.Neighbors(2).empty());
}

TEST(EdgeListLoaderTest, MalformedInputNamesFirstBadLine) {
  const auto expect_throws_line = [](const std::string& text,
                                     const std::string& needle) {
    try {
      ReadEdgeList(text);
      FAIL() << "expected malformed-input throw for: " << text;
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
          << "what=" << error.what();
    }
  };
  expect_throws_line("1 2\nbad line\n3 4\n", "line 2");
  expect_throws_line("1 2\n3\n", "line 2");            // missing endpoint
  expect_throws_line("1 -2\n", "line 1");              // negative id
  expect_throws_line("99999999999 1\n", "line 1");     // > 32-bit id
  expect_throws_line("1 2\n# note\n\n2 x", "line 4");  // no final newline
  // Of two bad lines far apart, the first is named.
  std::string text;
  text += "nope\n";
  for (int i = 0; i < 5000; ++i) text += "1 2\n";
  text += "also bad\n";
  expect_throws_line(text, "line 1");
}

TEST(EdgeListLoaderTest, EmptyInputYieldsEmptyGraph) {
  const Graph g = ReadEdgeList("");
  EXPECT_EQ(g.NumVertices(), 0u);
  EXPECT_EQ(g.NumEdges(), 0u);
  const Graph comments_only = ReadEdgeList("# nothing\n\n");
  EXPECT_EQ(comments_only.NumVertices(), 0u);
}

TEST(EdgeListLoaderTest, EmptyFileYieldsEmptyGraph) {
  const std::string path = ::testing::TempDir() + "/kvcc_empty.el";
  std::ofstream(path).close();
  const Graph g = ReadEdgeListFile(path);
  EXPECT_EQ(g.NumVertices(), 0u);
  EXPECT_EQ(g.NumEdges(), 0u);
  std::remove(path.c_str());
}

TEST(EdgeListLoaderTest, FileWithoutFinalNewlineKeepsLastLine) {
  const std::string path = ::testing::TempDir() + "/kvcc_no_newline.el";
  std::ofstream(path) << "0 1\n1 2\n2 30";
  const Graph g = ReadEdgeListFile(path);
  ASSERT_EQ(g.NumVertices(), 4u);
  EXPECT_EQ(g.NumEdges(), 3u);
  EXPECT_EQ(g.LabelOf(3), 30u);
  EXPECT_EQ(g.Neighbors(3).size(), 1u);
  std::remove(path.c_str());
}

TEST(EdgeListLoaderTest, MissingFileThrows) {
  EXPECT_THROW(ReadEdgeListFile("/nonexistent/kvcc.el"), std::runtime_error);
}

TEST(EdgeListLoaderTest, DirectoryThrowsNamingThePath) {
  // A directory opens as a stream that reads nothing; it must not load as
  // the empty graph.
  const std::string path = ::testing::TempDir() + "/kvcc_dir_input";
  std::filesystem::create_directories(path);
  try {
    ReadEdgeListFile(path);
    ADD_FAILURE() << "a directory loaded as a graph";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace kvcc
