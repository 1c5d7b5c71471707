// ResultCache invariants: fingerprinting and collision honesty, LRU
// eviction under the byte budget, hierarchy-backed smaller-k and
// membership answers byte-identical to fresh enumeration, and concurrent
// access at 1/2/8 threads.
#include "server/result_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gen/fixtures.h"
#include "graph/graph.h"
#include "kvcc/hierarchy.h"
#include "kvcc/kvcc_enum.h"
#include "server/protocol.h"

namespace kvcc {
namespace {

using server::ComponentList;
using server::GraphFingerprint;
using server::GraphIdentical;
using server::ResultCache;

std::shared_ptr<const ComponentList> ComponentsOf(const Graph& g,
                                                  std::uint32_t k) {
  return std::make_shared<const ComponentList>(
      EnumerateKVccs(g, k).components);
}

TEST(GraphFingerprintTest, DistinguishesStructureAndLabels) {
  const Graph complete = CompleteGraph(6);
  const Graph cycle = CycleGraph(6);
  EXPECT_NE(GraphFingerprint(complete), GraphFingerprint(cycle));
  EXPECT_EQ(GraphFingerprint(complete), GraphFingerprint(CompleteGraph(6)));

  // Same structure, different labels: the sub-triangles {0,1,2} and
  // {1,2,3} of K4 are both K3, but live on different root vertices.
  const Graph k4 = CompleteGraph(4);
  const std::vector<VertexId> low = {0, 1, 2};
  const std::vector<VertexId> high = {1, 2, 3};
  const Graph tri_low = k4.InducedSubgraph(low);
  const Graph tri_high = k4.InducedSubgraph(high);
  ASSERT_TRUE(tri_low.SameStructure(tri_high));
  EXPECT_FALSE(GraphIdentical(tri_low, tri_high));
  EXPECT_NE(GraphFingerprint(tri_low), GraphFingerprint(tri_high));
}

TEST(GraphIdenticalTest, RequiresStructureAndLabels) {
  EXPECT_TRUE(GraphIdentical(PetersenGraph(), PetersenGraph()));
  EXPECT_FALSE(GraphIdentical(CompleteGraph(5), CycleGraph(5)));
  const Graph k4 = CompleteGraph(4);
  const std::vector<VertexId> low = {0, 1, 2};
  EXPECT_TRUE(GraphIdentical(k4.InducedSubgraph(low),
                             k4.InducedSubgraph(low)));
}

TEST(ResultCacheTest, HitMissBasics) {
  ResultCache cache(1u << 20);
  const Graph g = CompleteGraph(5);
  EXPECT_EQ(cache.LookupComponents(g, 3), nullptr);
  EXPECT_EQ(cache.Misses(), 1u);

  cache.InsertComponents(g, 3, ComponentsOf(g, 3));
  const auto hit = cache.LookupComponents(g, 3);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, EnumerateKVccs(g, 3).components);
  EXPECT_EQ(cache.Hits(), 1u);

  // Same graph, different k: miss until inserted.
  EXPECT_EQ(cache.LookupComponents(g, 2), nullptr);
  EXPECT_EQ(cache.Misses(), 2u);
  // Different graph entirely: miss, even at the cached k.
  EXPECT_EQ(cache.LookupComponents(CycleGraph(5), 3), nullptr);
  EXPECT_EQ(cache.Entries(), 1u);
}

TEST(ResultCacheTest, SameFingerprintSlotServesDistinctGraphsHonestly) {
  // Engineering a true 64-bit fingerprint collision is infeasible, so
  // honesty is exercised where it lives: the lookup path compares full
  // graphs, and same-structure-different-label graphs (which *would*
  // alias if fingerprints ignored labels) get distinct entries and never
  // share results.
  ResultCache cache(1u << 20);
  const Graph k4 = CompleteGraph(4);
  const std::vector<VertexId> low = {0, 1, 2};
  const std::vector<VertexId> high = {1, 2, 3};
  const Graph tri_low = k4.InducedSubgraph(low);
  const Graph tri_high = k4.InducedSubgraph(high);

  cache.InsertComponents(tri_low, 2, ComponentsOf(tri_low, 2));
  EXPECT_EQ(cache.LookupComponents(tri_high, 2), nullptr);

  cache.InsertComponents(tri_high, 2, ComponentsOf(tri_high, 2));
  const auto low_hit = cache.LookupComponents(tri_low, 2);
  const auto high_hit = cache.LookupComponents(tri_high, 2);
  ASSERT_NE(low_hit, nullptr);
  ASSERT_NE(high_hit, nullptr);
  // The two graphs hold distinct entries — neither lookup aliased into
  // the other's results. (Component ids are local to each subgraph, so
  // the payloads themselves coincide here; the entry count is what
  // proves no sharing happened.)
  EXPECT_EQ(cache.Entries(), 2u);
  EXPECT_EQ((*low_hit)[0], (std::vector<VertexId>{0, 1, 2}));
  EXPECT_EQ((*high_hit)[0], (std::vector<VertexId>{0, 1, 2}));
}

TEST(ResultCacheTest, LruEvictionUnderByteBudget) {
  // Budget sized for two of the three entries: inserting the third must
  // evict the least recently used one.
  const Graph a = CompleteGraph(8);
  const Graph b = CycleGraph(12);
  const Graph c = PetersenGraph();

  // Measure each entry's charge with an unbounded probe cache, then set
  // the budget to fit any two entries but not all three.
  ResultCache probe((std::uint64_t{1}) << 40);
  probe.InsertComponents(a, 2, ComponentsOf(a, 2));
  const std::uint64_t bytes_a = probe.BytesUsed();
  probe.InsertComponents(b, 2, ComponentsOf(b, 2));
  const std::uint64_t bytes_b = probe.BytesUsed() - bytes_a;
  probe.InsertComponents(c, 2, ComponentsOf(c, 2));
  const std::uint64_t bytes_c = probe.BytesUsed() - bytes_a - bytes_b;
  const std::uint64_t budget = bytes_a + bytes_b + bytes_c - 1;

  ResultCache cache(budget);
  cache.InsertComponents(a, 2, ComponentsOf(a, 2));
  cache.InsertComponents(b, 2, ComponentsOf(b, 2));
  EXPECT_EQ(cache.Entries(), 2u);
  EXPECT_EQ(cache.Evictions(), 0u);

  // Touch `a` so `b` becomes the LRU victim.
  EXPECT_NE(cache.LookupComponents(a, 2), nullptr);
  cache.InsertComponents(c, 2, ComponentsOf(c, 2));
  EXPECT_EQ(cache.Evictions(), 1u);
  EXPECT_LE(cache.BytesUsed(), budget);
  EXPECT_NE(cache.LookupComponents(a, 2), nullptr);  // survivor
  EXPECT_NE(cache.LookupComponents(c, 2), nullptr);  // fresh insert
  EXPECT_EQ(cache.LookupComponents(b, 2), nullptr);  // evicted
}

TEST(ResultCacheTest, ZeroBudgetDisablesCaching) {
  ResultCache cache(0);
  const Graph g = CompleteGraph(5);
  cache.InsertComponents(g, 2, ComponentsOf(g, 2));
  EXPECT_EQ(cache.LookupComponents(g, 2), nullptr);
  EXPECT_EQ(cache.Entries(), 0u);
  EXPECT_EQ(cache.BytesUsed(), 0u);
}

TEST(ResultCacheTest, HierarchyAnswersEverySmallerK) {
  const Graph g = TwoCliquesSharing(6, 3);
  KvccHierarchy built = BuildKvccHierarchy(g);
  const std::uint32_t max_level = built.MaxLevel();
  ASSERT_GE(max_level, 3u);

  ResultCache cache(1u << 22);
  cache.InsertHierarchy(
      g, std::make_shared<const KvccHierarchy>(std::move(built)),
      /*built_k=*/0, /*exhausted=*/true);

  for (std::uint32_t k = 1; k <= max_level + 1; ++k) {
    const auto cached = cache.LookupComponents(g, k);
    ASSERT_NE(cached, nullptr) << "k=" << k;
    const ComponentList fresh = EnumerateKVccs(g, k).components;
    EXPECT_EQ(*cached, fresh) << "k=" << k;
    // Byte-identity of what kvccd would actually send.
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      EXPECT_EQ(server::ComponentLine(i, (*cached)[i]),
                server::ComponentLine(i, fresh[i]));
    }
  }
}

TEST(ResultCacheTest, BoundedHierarchyOnlyCoversItsDepth) {
  const Graph g = CompleteGraph(8);  // hierarchy exhausts at level 7
  KvccHierarchy shallow = BuildKvccHierarchy(g, /*max_level=*/2);
  ResultCache cache(1u << 22);
  cache.InsertHierarchy(
      g, std::make_shared<const KvccHierarchy>(std::move(shallow)),
      /*built_k=*/2, /*exhausted=*/false);

  EXPECT_NE(cache.LookupComponents(g, 2), nullptr);
  EXPECT_EQ(cache.LookupComponents(g, 3), nullptr);  // deeper than built
  EXPECT_EQ(cache.LookupHierarchy(g, 0, /*need_exhausted=*/true), nullptr);
  EXPECT_NE(cache.LookupHierarchy(g, 2, /*need_exhausted=*/false),
            nullptr);

  // Deepening: an exhausted build replaces the bounded one...
  KvccHierarchy full = BuildKvccHierarchy(g);
  cache.InsertHierarchy(
      g, std::make_shared<const KvccHierarchy>(std::move(full)),
      /*built_k=*/0, /*exhausted=*/true);
  EXPECT_NE(cache.LookupHierarchy(g, 0, /*need_exhausted=*/true), nullptr);
  EXPECT_NE(cache.LookupComponents(g, 5), nullptr);

  // ...and a shallower one never clobbers it.
  KvccHierarchy again = BuildKvccHierarchy(g, /*max_level=*/1);
  cache.InsertHierarchy(
      g, std::make_shared<const KvccHierarchy>(std::move(again)),
      /*built_k=*/1, /*exhausted=*/false);
  EXPECT_NE(cache.LookupHierarchy(g, 0, /*need_exhausted=*/true), nullptr);
}

TEST(ResultCacheTest, MembershipFromCachedHierarchy) {
  const Graph g = TwoCliquesSharing(5, 2);
  const KvccHierarchy fresh = BuildKvccHierarchy(g);
  ResultCache cache(1u << 22);
  cache.InsertHierarchy(g, std::make_shared<const KvccHierarchy>(fresh),
                        /*built_k=*/0, /*exhausted=*/true);
  const auto cached = cache.LookupHierarchy(g, 0, /*need_exhausted=*/true);
  ASSERT_NE(cached, nullptr);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ(cached->CohesionOf(v), fresh.CohesionOf(v)) << "v=" << v;
    EXPECT_EQ(cached->PathOf(v), fresh.PathOf(v)) << "v=" << v;
  }
}

// Concurrent lookups and inserts across distinct graphs: no crashes, no
// torn results, counters add up. Parameterized over thread counts.
class ResultCacheThreadsTest
    : public ::testing::TestWithParam<unsigned> {};

TEST_P(ResultCacheThreadsTest, ConcurrentAccessKeepsInvariants) {
  const unsigned num_threads = GetParam();
  const std::vector<Graph> graphs = {CompleteGraph(6), CycleGraph(9),
                                     PetersenGraph(),
                                     TwoCliquesSharing(4, 2)};
  std::vector<std::shared_ptr<const ComponentList>> expected;
  expected.reserve(graphs.size());
  for (const Graph& g : graphs) expected.push_back(ComponentsOf(g, 2));

  ResultCache cache(1u << 22);
  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  for (unsigned t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 200; ++round) {
        const std::size_t i = (t + round) % graphs.size();
        const auto hit = cache.LookupComponents(graphs[i], 2);
        if (hit != nullptr) {
          // A hit is always the exact canonical result, never a torn or
          // foreign one.
          ASSERT_EQ(*hit, *expected[i]);
        } else {
          cache.InsertComponents(graphs[i], 2, expected[i]);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_LE(cache.Entries(), graphs.size());
  EXPECT_EQ(cache.Hits() + cache.Misses(),
            std::uint64_t{num_threads} * 200u);
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const auto hit = cache.LookupComponents(graphs[i], 2);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(*hit, *expected[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ResultCacheThreadsTest,
                         ::testing::Values(1u, 2u, 8u));

}  // namespace
}  // namespace kvcc
