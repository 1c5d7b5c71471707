// GLOBAL-CUT's phase 2, held to the independent referee at bench scale.
//
// Phase 1 tests the source against every other vertex, so it finds every
// vertex cut below k that leaves the source out. Phase 2 tests pairs of
// the source's neighbours, and only it finds a cut that holds the source.
// None of the dataset stand-ins needs phase 2: an engine that skips it
// returns their components unchanged. The graph here has no cut below k
// without its source, so it does.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "gen/harary.h"
#include "graph/graph_builder.h"
#include "kvcc/kvcc_enum.h"
#include "kvcc/options.h"
#include "support/referee.h"

namespace kvcc {
namespace {

constexpr std::uint32_t kBlocks = 2;
// The source takes two edges into each block, so its degree is k.
constexpr std::uint32_t kK = 2 * kBlocks;

/// kBlocks Harary H(k + 2, block_size) blocks joined through one set C of
/// k - 1 connectors, ids 0..k-2. Vertex 0 has two neighbours in each block,
/// so its degree is exactly k. The other connectors have three in each
/// block, and block vertices have degree k + 2 or more. With no strong
/// side-vertex (a Harary vertex's farthest neighbours on either side share
/// only it), vertex 0 is GLOBAL-CUT's source. C separates the blocks. A
/// cut that leaves vertex 0 out must cut its two edges into one block as
/// well as the other k - 2 connectors, so it has at least k vertices. The
/// k-VCCs are the blocks.
Graph SourceHeldCutGraph(VertexId block_size) {
  const VertexId connectors = kK - 1;
  GraphBuilder builder(connectors + kBlocks * block_size);
  for (std::uint32_t b = 0; b < kBlocks; ++b) {
    const VertexId base = connectors + b * block_size;
    for (const auto& [u, v] : HararyEdges(kK + 2, block_size)) {
      builder.AddEdge(base + u, base + v);
    }
    for (VertexId c = 0; c < connectors; ++c) {
      const std::uint32_t attachments = c == 0 ? 2 : 3;
      for (std::uint32_t t = 0; t < attachments; ++t) {
        // Spread over the block: no two attachments share a vertex.
        builder.AddEdge(c, base + (c * 3 + t) * 37 % block_size);
      }
    }
  }
  return builder.Build();
}

TEST(Phase2RefereeTest, CutsHoldingTheSourceMatchReferee) {
  const Graph g = SourceHeldCutGraph(1000);
  const auto expected = kvcc::testing::RefereeKVccs(g, kK);
  ASSERT_EQ(expected.size(), kBlocks);
  for (const char* variant : {"VCCE", "VCCE*"}) {
    const KvccResult result =
        EnumerateKVccs(g, kK, KvccOptions::FromVariantName(variant));
    EXPECT_EQ(result.components, expected) << variant;
    // The graph keeps guarding phase 2 only while phase 2 runs on it.
    EXPECT_GT(result.stats.phase2_pairs_tested, 0u) << variant;
  }
}

}  // namespace
}  // namespace kvcc
