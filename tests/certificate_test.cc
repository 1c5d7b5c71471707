#include "kvcc/sparse_certificate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "gen/barabasi_albert.h"
#include "gen/erdos_renyi.h"
#include "gen/fixtures.h"
#include "gen/planted_vcc.h"
#include "graph/graph.h"
#include "kvcc/connectivity.h"
#include "support/brute_force.h"
#include "support/referee.h"
#include "util/random.h"

namespace kvcc {
namespace {

// Random connected graphs of 8-14 vertices, from near-trees to dense: small
// enough to try every removal set of fewer than 5 vertices.
std::vector<Graph> SmallGraphs() {
  std::vector<Graph> graphs;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    const auto n = static_cast<VertexId>(8 + seed % 7);
    graphs.push_back(
        kvcc::testing::RandomConnectedGraph(n, seed * 7 % (3 * n), seed));
  }
  return graphs;
}

// The inputs with no edges to keep or group: no vertex, one vertex.
std::vector<Graph> EdgelessGraphs() {
  return {Graph(), Graph::FromEdges(1, {})};
}

// One bit mask of neighbours per vertex of a graph of at most 32 vertices.
std::vector<std::uint32_t> AdjacencyMasks(const Graph& g) {
  std::vector<std::uint32_t> masks(g.NumVertices(), 0);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (const VertexId w : g.Neighbors(v)) masks[v] |= 1u << w;
  }
  return masks;
}

// The component of every vertex outside `removed`, as a bit mask.
std::vector<std::uint32_t> ComponentsAvoiding(
    const std::vector<std::uint32_t>& adjacency, std::uint32_t removed) {
  std::vector<std::uint32_t> component(adjacency.size(), 0);
  for (VertexId v = 0; v < adjacency.size(); ++v) {
    if ((removed >> v & 1u) != 0 || component[v] != 0) continue;
    std::uint32_t reached = 1u << v;
    for (std::uint32_t frontier = reached; frontier != 0;) {
      std::uint32_t next = 0;
      for (std::uint32_t f = frontier; f != 0; f &= f - 1) {
        next |= adjacency[std::countr_zero(f)];
      }
      frontier = next & ~removed & ~reached;
      reached |= frontier;
    }
    for (std::uint32_t r = reached; r != 0; r &= r - 1) {
      component[std::countr_zero(r)] = reached;
    }
  }
  return component;
}

bool StrictlyAscending(std::span<const VertexId> values) {
  return std::adjacent_find(values.begin(), values.end(),
                            std::greater_equal<>()) == values.end();
}

// Calls visit(removed) for every vertex set of fewer than k vertices.
template <typename Visit>
void ForEachRemovalSet(VertexId n, std::uint32_t k, Visit visit) {
  for (std::uint32_t removed = 0; removed < (1u << n); ++removed) {
    if (static_cast<std::uint32_t>(std::popcount(removed)) < k) {
      visit(removed);
    }
  }
}

TEST(SparseCertificateTest, EdgeBoundKTimesNMinusOne) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Graph g = kvcc::testing::RandomConnectedGraph(40, 200, seed);
    for (std::uint32_t k = 1; k <= 5; ++k) {
      const auto sc = BuildSparseCertificate(g, k);
      EXPECT_LE(sc.certificate.NumEdges(),
                static_cast<std::uint64_t>(k) * (g.NumVertices() - 1))
          << "seed=" << seed << " k=" << k;
      EXPECT_EQ(sc.certificate.NumVertices(), g.NumVertices());
    }
  }
}

// The certificate is a spanning subgraph of g with g's labels, and its rows,
// written in place, are sorted and symmetric.
// SC's row buffer is sized by the edges SC keeps, which the scan counts,
// not by the input's 2m entries: a fresh certificate holds 2 * kept entries
// plus the one slot the row filter writes past its last kept entry.
TEST(SparseCertificateTest, FreshRowBufferHoldsKeptEdgesPlusSlack) {
  std::vector<Graph> graphs = EdgelessGraphs();
  graphs.push_back(CompleteGraph(12));
  graphs.push_back(CycleGraph(9));
  graphs.push_back(BarabasiAlbert(300, 6, 5));
  graphs.push_back(ErdosRenyiGnp(120, 0.2, 6));
  std::uint64_t trimmed = 0;
  for (const Graph& g : graphs) {
    ASSERT_FALSE(g.HasLabels());  // an unlabeled certificate copies none
    for (const std::uint32_t k : {1u, 2u, 4u, 7u}) {
      const SparseCertificate sc = BuildSparseCertificate(g, k);
      const Graph& cert = sc.certificate;
      const std::uint64_t offsets =
          (static_cast<std::uint64_t>(g.NumVertices()) + 1) *
          sizeof(std::uint64_t);
      const std::uint64_t rows = (2 * cert.NumEdges() + 1) * sizeof(VertexId);
      EXPECT_EQ(cert.MemoryBytes(), offsets + rows + sizeof(Graph))
          << "n=" << g.NumVertices() << " k=" << k;
      if (cert.NumEdges() < g.NumEdges()) ++trimmed;
    }
  }
  EXPECT_GT(trimmed, 0u);  // some certificates kept fewer edges than g
}

TEST(SparseCertificateTest, CertificateIsSubgraph) {
  std::vector<Graph> inputs = SmallGraphs();
  for (const Graph& g : EdgelessGraphs()) inputs.push_back(g);
  const Graph host = kvcc::testing::RandomConnectedGraph(30, 120, 3);
  std::vector<VertexId> odd;
  for (VertexId v = 1; v < host.NumVertices(); v += 2) odd.push_back(v);
  const Graph labelled = host.InducedSubgraph(odd);
  ASSERT_TRUE(labelled.HasLabels());
  inputs.push_back(labelled);
  inputs.push_back(host);
  CertificateScratch scratch;
  SparseCertificate sc;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Graph& g = inputs[i];
    for (std::uint32_t k = 1; k <= 5; ++k) {
      // One scratch and one output for every build, as GLOBAL-CUT reuses
      // them across graphs of different sizes.
      BuildSparseCertificate(g, k, sc, scratch);
      const Graph& c = sc.certificate;
      ASSERT_EQ(c.NumVertices(), g.NumVertices()) << "input=" << i;
      EXPECT_EQ(c.HasLabels(), g.HasLabels()) << "input=" << i;
      std::uint64_t entries = 0;
      for (VertexId v = 0; v < c.NumVertices(); ++v) {
        EXPECT_EQ(c.LabelOf(v), g.LabelOf(v)) << "input=" << i;
        const auto row = c.Neighbors(v);
        entries += row.size();
        EXPECT_TRUE(StrictlyAscending(row))
            << "input=" << i << " k=" << k << " v=" << v;
        for (const VertexId w : row) {
          EXPECT_TRUE(g.HasEdge(v, w)) << "input=" << i << " k=" << k;
          EXPECT_TRUE(c.HasEdge(w, v)) << "input=" << i << " k=" << k;
        }
      }
      EXPECT_EQ(entries, 2 * c.NumEdges()) << "input=" << i << " k=" << k;
    }
  }
}

TEST(SparseCertificateTest, SparseGraphIsItsOwnCertificate) {
  // A tree has n-1 edges; the k=3 certificate must keep all of them.
  const Graph g = kvcc::testing::RandomConnectedGraph(20, 0, 5);
  const auto sc = BuildSparseCertificate(g, 3);
  EXPECT_EQ(sc.certificate.NumEdges(), g.NumEdges());
  // With k above the maximum degree no vertex has k scanned neighbours:
  // fewer than k forests, so the certificate is all of g and F_k, the
  // side-group forest, is empty.
  for (const Graph& dense : SmallGraphs()) {
    const auto all = BuildSparseCertificate(dense, dense.MaxDegree() + 1);
    EXPECT_TRUE(all.certificate.SameStructure(dense));
    EXPECT_TRUE(all.groups.empty());
    EXPECT_EQ(std::count(all.group_of.begin(), all.group_of.end(), kNoGroup),
              static_cast<std::ptrdiff_t>(dense.NumVertices()));
  }
}

// The defining property (paper Thm 5): SC is k-connected iff G is.
TEST(SparseCertificateTest, PreservesKConnectivity) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Graph g = kvcc::testing::RandomConnectedGraph(12, 30, seed);
    for (std::uint32_t k = 1; k <= 4; ++k) {
      const auto sc = BuildSparseCertificate(g, k);
      EXPECT_EQ(IsKVertexConnected(sc.certificate, k),
                IsKVertexConnected(g, k))
          << "seed=" << seed << " k=" << k;
    }
  }
}

// The stronger property the algorithm relies on: for every vertex set S
// with |S| < k, G - S and SC - S have identical connected components.
// Every such S, at k = 1..5.
TEST(SparseCertificateTest, SameComponentsUnderSmallRemovals) {
  const std::vector<Graph> graphs = SmallGraphs();
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const Graph& g = graphs[i];
    const auto g_adjacency = AdjacencyMasks(g);
    for (std::uint32_t k = 1; k <= 5; ++k) {
      const auto sc_adjacency =
          AdjacencyMasks(BuildSparseCertificate(g, k).certificate);
      ForEachRemovalSet(g.NumVertices(), k, [&](std::uint32_t removed) {
        EXPECT_EQ(ComponentsAvoiding(g_adjacency, removed),
                  ComponentsAvoiding(sc_adjacency, removed))
            << "graph=" << i << " k=" << k << " removed=" << removed;
      });
    }
  }
}

// Paper Thm 10: every pair inside a side-group is locally k-connected *in
// the original graph*, so no set S of fewer than k vertices separates two
// members outside S. Every such S, at k = 1..5.
TEST(SparseCertificateTest, SideGroupsAreLocallyKConnected) {
  const std::vector<Graph> graphs = SmallGraphs();
  std::size_t grouped_cases = 0;
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const Graph& g = graphs[i];
    const auto adjacency = AdjacencyMasks(g);
    for (std::uint32_t k = 1; k <= 5; ++k) {
      const auto sc = BuildSparseCertificate(g, k);
      if (sc.groups.empty()) continue;
      ++grouped_cases;
      ForEachRemovalSet(g.NumVertices(), k, [&](std::uint32_t removed) {
        const auto component = ComponentsAvoiding(adjacency, removed);
        for (const auto& group : sc.groups) {
          std::uint32_t members = 0;
          for (const VertexId v : group) members |= 1u << v;
          members &= ~removed;
          if (members == 0) continue;
          EXPECT_EQ(component[std::countr_zero(members)] & members, members)
              << "graph=" << i << " k=" << k << " removed=" << removed;
        }
      });
    }
  }
  EXPECT_GT(grouped_cases, 1000u);  // most of the 2,000 cases have groups
}

// group_of and groups agree, each group is ascending with at least two
// members, and groups are ordered by smallest member.
TEST(SparseCertificateTest, GroupOfIsConsistent) {
  std::vector<Graph> inputs = SmallGraphs();
  for (const Graph& g : EdgelessGraphs()) inputs.push_back(g);
  inputs.push_back(kvcc::testing::RandomConnectedGraph(20, 80, 7));
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Graph& g = inputs[i];
    for (std::uint32_t k = 1; k <= 5; ++k) {
      const auto sc = BuildSparseCertificate(g, k);
      ASSERT_EQ(sc.group_of.size(), g.NumVertices());
      for (std::uint32_t gi = 0; gi < sc.groups.size(); ++gi) {
        const auto& group = sc.groups[gi];
        EXPECT_GE(group.size(), 2u) << "input=" << i << " k=" << k;
        EXPECT_TRUE(StrictlyAscending(group)) << "input=" << i << " k=" << k;
        if (gi > 0) {
          EXPECT_LT(sc.groups[gi - 1].front(), group.front())
              << "input=" << i << " k=" << k;
        }
        for (const VertexId v : group) {
          EXPECT_EQ(sc.group_of[v], gi) << "input=" << i << " k=" << k;
        }
      }
      for (VertexId v = 0; v < g.NumVertices(); ++v) {
        if (sc.group_of[v] != kNoGroup) {
          ASSERT_LT(sc.group_of[v], sc.groups.size());
          const auto& group = sc.groups[sc.group_of[v]];
          EXPECT_TRUE(std::binary_search(group.begin(), group.end(), v));
        }
      }
    }
  }
}

TEST(SparseCertificateTest, CompleteGraphCertificateStaysKConnected) {
  const Graph g = CompleteGraph(8);
  const auto sc = BuildSparseCertificate(g, 4);
  EXPECT_TRUE(IsKVertexConnected(sc.certificate, 4));
  EXPECT_LE(sc.certificate.NumEdges(), 4u * 7u);
}

// Both certificate theorems at bench scale, checked by the referee, whose
// flow shares no code with the engine (tests/support/referee.h):
//   * every non-adjacent pair inside a side-group has kappa_G >= k;
//   * sampled non-adjacent pairs have min(kappa_SC, k) = min(kappa_G, k);
//   * every edge the certificate drops has kappa_SC >= k between its ends.
TEST(SparseCertificateTest, RefereeChecksAtBenchScale) {
  struct Case {
    std::string name;
    Graph g;
    std::uint32_t k;
  };
  // Each k leaves F_k trees small enough to test every pair in them, and
  // each certificate drops edges.
  const std::vector<Case> cases = {
      {"planted", GeneratePlantedVcc(PlantedVccConfig{}).graph, 6},
      {"barabasi_albert", BarabasiAlbert(250, 6, 2), 7},
      {"gnm", ErdosRenyiGnm(150, 1200, 2), 10},
      {"gnm_sparse", ErdosRenyiGnm(120, 600, 1), 6},
  };
  for (const Case& c : cases) {
    const Graph& g = c.g;
    ASSERT_GE(g.NumVertices(), 120u) << c.name;
    ASSERT_LE(g.NumVertices(), 300u) << c.name;
    const auto sc = BuildSparseCertificate(g, c.k);
    ASSERT_LT(sc.certificate.NumEdges(), g.NumEdges()) << c.name;
    ASSERT_FALSE(sc.groups.empty()) << c.name;
    const kvcc::testing::Referee in_g(g);
    const kvcc::testing::Referee in_sc(sc.certificate);

    for (const auto& group : sc.groups) {
      for (std::size_t i = 0; i < group.size(); ++i) {
        for (std::size_t j = i + 1; j < group.size(); ++j) {
          if (g.HasEdge(group[i], group[j])) continue;
          EXPECT_GE(in_g.LocalConnectivity(group[i], group[j]), c.k)
              << c.name << " group pair " << group[i] << "," << group[j];
        }
      }
    }

    Rng rng(17);
    for (int sampled = 0; sampled < 100;) {
      const auto u = static_cast<VertexId>(rng.NextBounded(g.NumVertices()));
      const auto v = static_cast<VertexId>(rng.NextBounded(g.NumVertices()));
      if (u == v || g.HasEdge(u, v)) continue;
      ++sampled;
      EXPECT_EQ(std::min(in_sc.LocalConnectivity(u, v), c.k),
                std::min(in_g.LocalConnectivity(u, v), c.k))
          << c.name << " pair " << u << "," << v;
    }

    for (const auto& [u, v] : g.Edges()) {
      if (sc.certificate.HasEdge(u, v)) continue;
      EXPECT_GE(in_sc.LocalConnectivity(u, v), c.k)
          << c.name << " dropped edge " << u << "," << v;
    }
  }
}

}  // namespace
}  // namespace kvcc
