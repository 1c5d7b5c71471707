// Differential mutation harness for the dynamic-graph stack: after every
// mutation batch, the incrementally maintained decomposition must be
// byte-identical to a cold re-run on the materialized graph — across k
// and thread counts. This is the correctness centerpiece of the delta
// store + incremental layer (docs/DYNAMIC.md).
#include "kvcc/incremental.h"

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gen/planted_vcc.h"
#include "graph/delta_store.h"
#include "graph/graph.h"
#include "kvcc/engine.h"
#include "kvcc/hierarchy.h"
#include "kvcc/kvcc_enum.h"
#include "kvcc/options.h"
#include "kvcc/stream.h"
#include "support/brute_force.h"
#include "support/mutation_gen.h"

namespace kvcc {
namespace {

void ApplyStep(VersionedGraph& vg, const testing::MutationStep& step) {
  const std::size_t applied = step.insert ? vg.InsertEdges(step.edges)
                                          : vg.DeleteEdges(step.edges);
  // MutationScript emits only effective edges, so nothing may be dropped.
  ASSERT_EQ(applied, step.edges.size());
}

/// Canonical byte string of a hierarchy's structure (nodes in
/// construction order with nesting links, plus per-vertex cohesion).
std::string HierarchyDigest(const KvccHierarchy& h, VertexId num_vertices) {
  std::ostringstream out;
  for (const HierarchyNode& node : h.nodes) {
    out << node.level << '@' << static_cast<std::int64_t>(node.parent) << '[';
    for (VertexId v : node.vertices) out << v << ' ';
    out << "](";
    for (std::size_t child : node.children) out << child << ' ';
    out << ')';
  }
  out << '|';
  for (VertexId v = 0; v < num_vertices; ++v) out << h.CohesionOf(v) << ' ';
  return out.str();
}

/// Structural equality against a cold build: nodes, links, level
/// grouping, cohesion (stats intentionally excluded — the incremental
/// hierarchy accumulates maintenance counters instead of a cold build's).
void ExpectMatchesColdBuild(const KvccHierarchy& got, const Graph& reference,
                            const std::string& context) {
  const KvccHierarchy cold = BuildKvccHierarchy(reference);
  ASSERT_EQ(got.nodes.size(), cold.nodes.size()) << context;
  for (std::size_t i = 0; i < cold.nodes.size(); ++i) {
    EXPECT_EQ(got.nodes[i].level, cold.nodes[i].level) << context << " #" << i;
    EXPECT_EQ(got.nodes[i].vertices, cold.nodes[i].vertices)
        << context << " #" << i;
    EXPECT_EQ(got.nodes[i].parent, cold.nodes[i].parent) << context << " #"
                                                         << i;
    EXPECT_EQ(got.nodes[i].children, cold.nodes[i].children)
        << context << " #" << i;
  }
  EXPECT_EQ(got.levels, cold.levels) << context;
  for (VertexId v = 0; v < reference.NumVertices(); ++v) {
    EXPECT_EQ(got.CohesionOf(v), cold.CohesionOf(v)) << context << " v=" << v;
  }
}

// The tentpole property: 200 seeded mutation steps, and after every one
// the incremental state matches a cold EnumerateKVccs on the
// materialized graph at k in {2, 3, 4} (plus full-hierarchy checkpoints).
TEST(IncrementalTest, DifferentialMutationHarness) {
  const Graph base = testing::RandomConnectedGraph(28, 45, 7);
  testing::MutationScript script(base, 7);
  VersionedGraph vg(base);
  IncrementalKvcc state;
  const IncrementalOutcome init = state.Update(vg);
  EXPECT_TRUE(init.full_rebuild);
  EXPECT_EQ(init.version, 0u);
  ExpectMatchesColdBuild(*state.Hierarchy(), base, "init");

  for (int step_index = 0; step_index < 200; ++step_index) {
    const testing::MutationStep step = script.Next();
    ApplyStep(vg, step);
    const IncrementalOutcome outcome = state.Update(vg);
    const std::string context =
        "step " + std::to_string(step_index) + (step.insert ? " ins" : " del");

    EXPECT_FALSE(outcome.full_rebuild) << context;
    EXPECT_EQ(outcome.version, vg.Version()) << context;
    EXPECT_EQ(outcome.delta_edges_applied, step.edges.size()) << context;

    const Graph reference = script.Materialize();
    ASSERT_TRUE(state.CurrentGraph()->SameStructure(reference)) << context;
    for (std::uint32_t k = 2; k <= 4; ++k) {
      EXPECT_EQ(state.Hierarchy()->ComponentsAtLevel(k),
                EnumerateKVccs(reference, k).components)
          << context << " k=" << k;
    }
    if (step_index % 40 == 19) {
      ExpectMatchesColdBuild(*state.Hierarchy(), reference, context);
    }
  }
  // The maintenance counters accumulated and are exposed via Stats().
  EXPECT_GT(state.Stats().delta_edges_applied, 0u);
  EXPECT_GT(state.Stats().incremental_reruns, 0u);
}

// One scripted run: returns the per-step digest sequence (hierarchy
// structure + outcome counters), so different execution configurations
// can be compared byte-for-byte.
std::vector<std::string> RunScripted(std::optional<unsigned> workers,
                                     const KvccOptions& options, int steps,
                                     std::uint64_t seed) {
  const Graph base = testing::RandomConnectedGraph(26, 40, seed);
  testing::MutationScript script(base, seed);
  VersionedGraph vg(base);
  IncrementalKvcc state(options);
  std::optional<KvccEngine> engine;
  if (workers.has_value()) engine.emplace(*workers);

  std::vector<std::string> digests;
  if (engine.has_value()) {
    engine->SubmitIncremental(state, vg);
  } else {
    state.Update(vg);
  }
  for (int i = 0; i < steps; ++i) {
    const testing::MutationStep step = script.Next();
    ApplyStep(vg, step);
    const IncrementalOutcome outcome = engine.has_value()
                                           ? engine->SubmitIncremental(state, vg)
                                           : state.Update(vg);
    std::ostringstream digest;
    digest << HierarchyDigest(*state.Hierarchy(),
                              state.CurrentGraph()->NumVertices())
           << "|applied=" << outcome.delta_edges_applied
           << "|dirty=" << outcome.dirty_components
           << "|reruns=" << outcome.incremental_reruns << "|levels=";
    for (std::uint32_t k : outcome.dirty_levels) digest << k << ' ';
    digests.push_back(digest.str());
  }
  return digests;
}

// Same script, four execution configurations: no engine, and engines
// with 1 / 2 / 8 workers. Every per-step digest — hierarchy bytes AND
// the replay-identical counters — must agree.
TEST(IncrementalTest, ThreadSweepIsByteIdentical) {
  const KvccOptions options;
  const std::vector<std::string> serial =
      RunScripted(std::nullopt, options, 60, 11);
  for (unsigned workers : {1u, 2u, 8u}) {
    const std::vector<std::string> threaded =
        RunScripted(workers, options, 60, 11);
    ASSERT_EQ(serial.size(), threaded.size()) << "workers=" << workers;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i], threaded[i])
          << "workers=" << workers << " step=" << i;
    }
  }
}

// Locality: on a planted chain of dense blocks joined by thin bridges, a
// single edit inside one block must invalidate strictly fewer components
// than the hierarchy holds (and far fewer than n vertices) — the
// dirty-region analysis keeps the untouched blocks carried verbatim.
TEST(IncrementalTest, LocalizedEditStaysLocal) {
  PlantedVccConfig config;
  config.num_blocks = 5;
  config.block_size_min = 12;
  config.block_size_max = 16;
  config.connectivity = 6;
  config.overlap = 0;  // blocks disjoint, joined by single bridge edges
  config.bridge_edges = 1;
  config.seed = 5;
  const PlantedVccGraph planted = GeneratePlantedVcc(config);
  const Graph& base = planted.graph;

  VersionedGraph vg(base);
  IncrementalKvcc state;
  state.Update(vg);
  std::uint64_t total_components = 0;
  for (std::uint32_t k = 1; k <= state.Hierarchy()->MaxLevel(); ++k) {
    total_components += state.Hierarchy()->NodesAtLevel(k).size();
  }
  ASSERT_GT(total_components, config.num_blocks);

  // Delete one interior edge of block 0 (endpoints in no other block).
  const std::vector<VertexId>& block = planted.blocks[0];
  std::pair<VertexId, VertexId> victim{kInvalidVertex, kInvalidVertex};
  for (const auto& edge : base.Edges()) {
    if (std::binary_search(block.begin(), block.end(), edge.first) &&
        std::binary_search(block.begin(), block.end(), edge.second)) {
      victim = edge;
      break;
    }
  }
  ASSERT_NE(victim.first, kInvalidVertex);

  const std::vector<std::pair<VertexId, VertexId>> batch{victim};
  ASSERT_EQ(vg.DeleteEdges(batch), 1u);
  const IncrementalOutcome deleted = state.Update(vg);
  EXPECT_GT(deleted.dirty_components, 0u);
  EXPECT_LT(deleted.dirty_components, total_components);
  EXPECT_LT(deleted.dirty_components, base.NumVertices());
  ExpectMatchesColdBuild(*state.Hierarchy(), *state.CurrentGraph(), "delete");

  ASSERT_EQ(vg.InsertEdges(batch), 1u);
  const IncrementalOutcome inserted = state.Update(vg);
  EXPECT_GT(inserted.dirty_components, 0u);
  EXPECT_LT(inserted.dirty_components, total_components);
  EXPECT_LT(inserted.dirty_components, base.NumVertices());
  ExpectMatchesColdBuild(*state.Hierarchy(), base, "reinsert");
}

// A stable-order stream over the dynamic snapshot replays the exact
// serial emission order of a cold run on the materialized graph.
TEST(IncrementalTest, StableOrderStreamReplayMatchesCold) {
  const Graph base = testing::RandomConnectedGraph(24, 40, 31);
  testing::MutationScript script(base, 31);
  VersionedGraph vg(base);
  IncrementalKvcc state;
  state.Update(vg);
  for (int i = 0; i < 12; ++i) ApplyStep(vg, script.Next());
  state.Update(vg);
  const Graph reference = script.Materialize();

  KvccOptions stream_options;
  stream_options.stable_order = true;
  KvccEngine engine(4);
  for (std::uint32_t k = 2; k <= 3; ++k) {
    // Cold serial streaming on the reference graph defines the order.
    struct Collector : ComponentSink {
      std::vector<std::vector<VertexId>> delivered;
      void OnComponent(StreamedComponent component) override {
        delivered.push_back(std::move(component.vertices));
      }
      void OnComplete(const KvccStats&) override {}
      void OnError(std::exception_ptr) override {}
    };
    Collector cold;
    KvccOptions serial;
    serial.num_threads = 1;
    EnumerateKVccsStreaming(reference, k, cold, serial);

    ResultStream stream =
        engine.SubmitStream(*state.CurrentGraph(), k, stream_options);
    std::vector<std::vector<VertexId>> streamed;
    while (auto component = stream.Next()) {
      streamed.push_back(std::move(component->vertices));
    }
    EXPECT_EQ(streamed, cold.delivered) << "k=" << k;
  }
}

// Compact() folds history: an update that can no longer replay the delta
// falls back to a full rebuild, and a caught-up state keeps going
// incrementally across a compaction.
TEST(IncrementalTest, CompactionForcesRebuildOnlyWhenHistoryIsGone) {
  const Graph base = testing::RandomConnectedGraph(20, 30, 13);
  testing::MutationScript script(base, 13);
  VersionedGraph vg(base);
  IncrementalKvcc stale;
  IncrementalKvcc fresh;
  stale.Update(vg);
  fresh.Update(vg);

  for (int i = 0; i < 5; ++i) ApplyStep(vg, script.Next());
  fresh.Update(vg);  // fresh is at the compaction horizon
  EXPECT_GT(vg.Compact(), 0u);
  EXPECT_EQ(vg.DeltaEdges(), 0u);

  ApplyStep(vg, script.Next());
  const IncrementalOutcome fresh_outcome = fresh.Update(vg);
  EXPECT_FALSE(fresh_outcome.full_rebuild);  // history still covers it
  const IncrementalOutcome stale_outcome = stale.Update(vg);
  EXPECT_TRUE(stale_outcome.full_rebuild);  // its deltas were folded away
  EXPECT_GT(stale_outcome.delta_edges_applied, 0u);

  const Graph reference = script.Materialize();
  ExpectMatchesColdBuild(*fresh.Hierarchy(), reference, "fresh");
  ExpectMatchesColdBuild(*stale.Hierarchy(), reference, "stale");
  EXPECT_EQ(HierarchyDigest(*fresh.Hierarchy(), reference.NumVertices()),
            HierarchyDigest(*stale.Hierarchy(), reference.NumVertices()));
}

// No-op updates (same version) do nothing and report nothing dirty.
TEST(IncrementalTest, NoOpUpdateIsQuiet) {
  const Graph base = testing::RandomConnectedGraph(16, 20, 3);
  VersionedGraph vg(base);
  IncrementalKvcc state;
  state.Update(vg);
  const IncrementalOutcome outcome = state.Update(vg);
  EXPECT_FALSE(outcome.full_rebuild);
  EXPECT_EQ(outcome.delta_edges_applied, 0u);
  EXPECT_EQ(outcome.dirty_components, 0u);
  EXPECT_EQ(outcome.incremental_reruns, 0u);
  EXPECT_TRUE(outcome.dirty_levels.empty());
}

}  // namespace
}  // namespace kvcc
