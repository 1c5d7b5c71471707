// Snapshot isolation for the dynamic-graph substrate (graph/delta_store):
// VersionedGraph batch normalization and version arithmetic, the
// EffectiveSince catch-up contract across Compact(), and the serving-side
// guarantee the whole design exists for — an in-flight streaming job
// pinned mid-delivery keeps producing byte-identical output from its
// submission-time snapshot while writers land batches behind it. The
// writer/streamer storm at the bottom is TSan bait: the sanitizer matrix
// runs this suite and is the real judge of the locking.
#include "graph/delta_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "kvcc/engine.h"
#include "kvcc/kvcc_enum.h"
#include "kvcc/options.h"
#include "kvcc/stream.h"
#include "util/random.h"

namespace kvcc {
namespace {

using EdgeList = std::vector<std::pair<VertexId, VertexId>>;

/// `count` disjoint triangles — many small 2-VCCs, so a capacity-1
/// stream reliably parks its producer in the delivery section.
Graph DisjointTriangles(VertexId count) {
  EdgeList edges;
  for (VertexId t = 0; t < count; ++t) {
    const VertexId base = 3 * t;
    edges.emplace_back(base, base + 1);
    edges.emplace_back(base + 1, base + 2);
    edges.emplace_back(base, base + 2);
  }
  return Graph::FromEdges(3 * count, edges);
}

TEST(SnapshotTest, BatchesAreNormalizedToTheirEffectiveSubset) {
  VersionedGraph vg(Graph::FromEdges(4, EdgeList{{0, 1}, {1, 2}}));
  EXPECT_EQ(vg.Version(), 0u);

  // Self-loop, duplicate (in both orders), and an already-present edge
  // all drop out; only (2, 3) is effective.
  const EdgeList inserts{{2, 2}, {3, 2}, {2, 3}, {0, 1}, {2, 3}};
  EXPECT_EQ(vg.InsertEdges(inserts), 1u);
  EXPECT_EQ(vg.Version(), 1u);
  EXPECT_EQ(vg.DeltaEdges(), 1u);
  EXPECT_TRUE(vg.Snapshot().graph->HasEdge(2, 3));

  // A fully ineffective batch applies nothing and does not bump the
  // version.
  EXPECT_EQ(vg.InsertEdges(EdgeList{{0, 1}, {1, 1}}), 0u);
  EXPECT_EQ(vg.DeleteEdges(EdgeList{{0, 3}}), 0u);
  EXPECT_EQ(vg.Version(), 1u);

  // Deletes tombstone present edges only.
  EXPECT_EQ(vg.DeleteEdges(EdgeList{{1, 0}, {0, 3}, {0, 1}}), 1u);
  EXPECT_EQ(vg.Version(), 2u);
  EXPECT_FALSE(vg.Snapshot().graph->HasEdge(0, 1));
  EXPECT_EQ(vg.AppliedTotal(), 2u);
}

TEST(SnapshotTest, InsertsMayGrowTheVertexSet) {
  VersionedGraph vg(Graph::FromEdges(3, EdgeList{{0, 1}, {1, 2}}));
  EXPECT_EQ(vg.InsertEdges(EdgeList{{2, 6}}), 1u);
  const GraphSnapshot snap = vg.Snapshot();
  EXPECT_EQ(snap.graph->NumVertices(), 7u);
  EXPECT_TRUE(snap.graph->HasEdge(2, 6));
  EXPECT_EQ(snap.graph->Degree(5), 0u);
}

TEST(SnapshotTest, SnapshotsAreImmutableAcrossMutationAndCompaction) {
  VersionedGraph vg(DisjointTriangles(4));
  const GraphSnapshot before = vg.Snapshot();
  const std::uint64_t before_edges = before.graph->NumEdges();

  EXPECT_EQ(vg.InsertEdges(EdgeList{{2, 3}, {5, 6}}), 2u);
  EXPECT_EQ(vg.DeleteEdges(EdgeList{{0, 1}}), 1u);
  EXPECT_GT(vg.Compact(), 0u);
  EXPECT_EQ(vg.DeltaEdges(), 0u);
  EXPECT_EQ(vg.InsertEdges(EdgeList{{8, 9}}), 1u);

  // The old snapshot still reads its submission-time bytes.
  EXPECT_EQ(before.version, 0u);
  EXPECT_EQ(before.graph->NumEdges(), before_edges);
  EXPECT_TRUE(before.graph->HasEdge(0, 1));
  EXPECT_FALSE(before.graph->HasEdge(2, 3));

  const GraphSnapshot after = vg.Snapshot();
  EXPECT_EQ(after.version, 3u);
  EXPECT_FALSE(after.graph->HasEdge(0, 1));
  EXPECT_TRUE(after.graph->HasEdge(2, 3));
  EXPECT_FALSE(before.graph->SameStructure(*after.graph));
}

TEST(SnapshotTest, EffectiveSinceReplaysExactlyTheMissingDeltas) {
  VersionedGraph vg(Graph::FromEdges(4, EdgeList{{0, 1}, {1, 2}, {2, 3}}));
  ASSERT_EQ(vg.InsertEdges(EdgeList{{0, 2}}), 1u);  // -> version 1
  ASSERT_EQ(vg.DeleteEdges(EdgeList{{1, 2}}), 1u);  // -> version 2
  ASSERT_EQ(vg.InsertEdges(EdgeList{{1, 3}, {0, 3}}), 2u);  // -> version 3

  std::vector<EdgeDelta> replay;
  ASSERT_TRUE(vg.EffectiveSince(1, replay));
  ASSERT_EQ(replay.size(), 3u);
  EXPECT_EQ(replay[0].u, 1u);
  EXPECT_EQ(replay[0].v, 2u);
  EXPECT_FALSE(replay[0].insert);
  EXPECT_TRUE(replay[1].insert);
  EXPECT_TRUE(replay[2].insert);

  // Replaying from the current version is an empty (but valid) catch-up.
  replay.clear();
  EXPECT_TRUE(vg.EffectiveSince(3, replay));
  EXPECT_TRUE(replay.empty());

  // A version from the future is not replayable.
  EXPECT_FALSE(vg.EffectiveSince(4, replay));

  // Compact() folds history: version 1 is now behind the base horizon.
  EXPECT_EQ(vg.Compact(), 4u);
  EXPECT_EQ(vg.BaseVersion(), 3u);
  EXPECT_FALSE(vg.EffectiveSince(1, replay));
  EXPECT_TRUE(vg.EffectiveSince(3, replay));
  EXPECT_TRUE(replay.empty());
}

TEST(SnapshotTest, RejectsLabeledBaseGraphs) {
  const Graph g = Graph::FromEdges(3, EdgeList{{0, 1}, {1, 2}});
  const std::vector<VertexId> keep{0, 1};
  const Graph labeled = g.InducedSubgraph(keep);
  ASSERT_TRUE(labeled.HasLabels());
  EXPECT_THROW(VersionedGraph{labeled}, std::invalid_argument);
}

// The serving guarantee: a streaming job parked on a full capacity-1
// channel keeps its submission-time snapshot while writers land batch
// after batch, and finishes byte-identical to a cold serial run on that
// snapshot.
TEST(SnapshotTest, PinnedStreamingJobIsIsolatedFromWriters) {
  VersionedGraph vg(DisjointTriangles(32));
  const GraphSnapshot snap = vg.Snapshot();

  // The expected bytes, fixed before any mutation lands.
  const std::vector<std::vector<VertexId>> expected =
      EnumerateKVccs(*snap.graph, 2).components;
  ASSERT_EQ(expected.size(), 32u);

  KvccEngine engine(2);
  KvccOptions gated;
  gated.stream_buffer_limit = 1;
  ResultStream stream = engine.SubmitStream(*snap.graph, 2, gated);

  // Pin the producer mid-flight: a component is sitting in the full
  // channel or a delivery has already blocked on it.
  for (int spin = 0; spin < 100000; ++spin) {
    if (stream.BufferedComponents() >= 1 || stream.BackpressureBlocks() > 0) {
      break;
    }
    std::this_thread::yield();
  }

  // Writers land while the job is parked: rewire triangles into bigger
  // blocks, delete edges the job has not delivered yet, compact, and
  // keep going. None of it may reach the pinned job.
  for (VertexId t = 0; t + 1 < 32; t += 2) {
    ASSERT_EQ(vg.InsertEdges(EdgeList{{3 * t, 3 * t + 3},
                                      {3 * t + 1, 3 * t + 4}}),
              2u);
  }
  ASSERT_GT(vg.DeleteEdges(EdgeList{{93, 94}, {90, 91}}), 0u);
  ASSERT_GT(vg.Compact(), 0u);
  ASSERT_EQ(vg.InsertEdges(EdgeList{{0, 95}}), 1u);

  std::vector<std::vector<VertexId>> streamed;
  while (std::optional<StreamedComponent> component = stream.Next()) {
    streamed.push_back(std::move(component->vertices));
  }
  // Delivery is in completion order; isolation is about content.
  std::sort(streamed.begin(), streamed.end());
  EXPECT_EQ(streamed, expected);
}

// TSan-targeted storm: four writer threads mutate one VersionedGraph
// while four streamer threads snapshot + decompose + verify in a loop on
// a shared engine. Every streamed result must match a cold serial run on
// the exact snapshot it was submitted from.
TEST(SnapshotTest, WriterStreamerStorm) {
  VersionedGraph vg(DisjointTriangles(12));
  const VertexId n = 36;
  KvccEngine engine(2);

  std::vector<std::thread> writers;
  writers.reserve(4);
  for (unsigned w = 0; w < 4; ++w) {
    writers.emplace_back([&vg, w] {
      Rng rng(1000 + w);
      for (int round = 0; round < 40; ++round) {
        EdgeList batch;
        for (int i = 0; i < 3; ++i) {
          const auto u = static_cast<VertexId>(rng.NextBounded(n));
          const auto v = static_cast<VertexId>(rng.NextBounded(n));
          if (u != v) batch.emplace_back(u, v);
        }
        if (rng.NextBernoulli(0.5)) {
          vg.InsertEdges(batch);
        } else {
          vg.DeleteEdges(batch);
        }
        if (round % 16 == 15) vg.Compact();
      }
    });
  }

  std::vector<std::thread> streamers;
  streamers.reserve(4);
  for (unsigned s = 0; s < 4; ++s) {
    streamers.emplace_back([&vg, &engine] {
      KvccOptions gated;
      gated.stream_buffer_limit = 1;
      for (int round = 0; round < 10; ++round) {
        const GraphSnapshot snap = vg.Snapshot();
        ResultStream stream = engine.SubmitStream(*snap.graph, 2, gated);
        std::vector<std::vector<VertexId>> streamed;
        while (std::optional<StreamedComponent> component = stream.Next()) {
          streamed.push_back(std::move(component->vertices));
        }
        // Delivery is in completion order; isolation is about content,
        // so compare canonically.
        std::sort(streamed.begin(), streamed.end());
        EXPECT_EQ(streamed, EnumerateKVccs(*snap.graph, 2).components)
            << "round " << round;
      }
    });
  }

  for (std::thread& t : writers) t.join();
  for (std::thread& t : streamers) t.join();

  // The store is still coherent after the storm.
  const GraphSnapshot final_snap = vg.Snapshot();
  EXPECT_EQ(final_snap.version, vg.Version());
  EXPECT_LE(final_snap.graph->NumVertices(), n);
}

}  // namespace
}  // namespace kvcc
