// Linked against kvcc_memhook: the global operator new/delete overrides
// must feed the MemoryTracker counters.

#include "util/memory_tracker.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "gen/fixtures.h"
#include "gen/harary.h"
#include "graph/delta_store.h"
#include "graph/graph_io.h"
#include "graph/k_core.h"
#include "kvcc/flow_graph.h"
#include "kvcc/global_cut.h"
#include "util/process_memory.h"

namespace kvcc {
namespace {

TEST(MemoryTrackerTest, HooksAreLinkedIn) {
  EXPECT_TRUE(MemoryTracker::Enabled());
}

TEST(MemoryTrackerTest, AllocationRaisesCurrentAndPeak) {
  MemoryTracker::ResetPeak();
  const std::uint64_t before = MemoryTracker::CurrentBytes();
  {
    std::vector<char> block(1 << 20);  // 1 MiB
    EXPECT_GE(MemoryTracker::CurrentBytes(), before + (1 << 20));
    EXPECT_GE(MemoryTracker::PeakBytes(), before + (1 << 20));
  }
  // Freed: current returns to (roughly) the starting level...
  EXPECT_LT(MemoryTracker::CurrentBytes(), before + (1 << 18));
  // ...but the peak remembers the high-water mark.
  EXPECT_GE(MemoryTracker::PeakBytes(), before + (1 << 20));
}

TEST(MemoryTrackerTest, ResetPeakDropsToCurrent) {
  {
    std::vector<char> block(1 << 20);
  }
  MemoryTracker::ResetPeak();
  EXPECT_LT(MemoryTracker::PeakBytes(),
            MemoryTracker::CurrentBytes() + (1 << 16));
}

TEST(MemoryTrackerTest, ArrayAndScalarFormsBalance) {
  MemoryTracker::ResetPeak();
  const std::uint64_t before = MemoryTracker::CurrentBytes();
  // Touch the memory through a volatile pointer so the compiler cannot
  // elide the allocation.
  int* volatile p = new int[100000];
  p[0] = 1;
  p[99999] = 2;
  EXPECT_GE(MemoryTracker::CurrentBytes(), before + 400000);
  delete[] p;
  double* volatile q = new double(3.5);
  *q = 4.5;
  delete q;
  // Back near the starting level (gtest itself may allocate a little).
  EXPECT_LE(MemoryTracker::CurrentBytes(), before + 4096);
}

// The warm-path functions these tests exercise are also annotated
// `no-alloc` for kvcc-lint (tools/kvcc_lint.h, rule R3), which rejects the
// allocating code *shapes* statically; the tests below reject the runtime
// *behavior*. Keep both in sync when the warm surface grows.
//
// The scratch-reuse pattern, sharpened into an allocation regression test:
// with a warm GlobalCutScratch, a full serial GLOBAL-CUT on a k-connected
// graph — sparse certificate, strong side-vertex detection (including its
// memoized pair cache), sweeps, distance ordering, and every flow probe of
// both phases — must perform ZERO heap allocation. Peak staying at the
// pre-call level proves even transient allocations are gone.
TEST(MemoryTrackerTest, WarmGlobalCutAllocatesNothing) {
  ASSERT_TRUE(MemoryTracker::Enabled());
  const Graph g = HararyGraph(5, 40);
  const KvccOptions options = KvccOptions::VcceStar();
  GlobalCutScratch scratch;
  KvccStats stats;
  // Two warm-up calls: grow every buffer (certificate, side-vertex cache,
  // sweep arrays, flow network, marks) to this graph's high-water mark.
  for (int warm = 0; warm < 2; ++warm) {
    ASSERT_TRUE(GlobalCut(g, 5, {}, options, &stats, &scratch).cut.empty());
  }
  MemoryTracker::ResetPeak();
  const std::uint64_t baseline = MemoryTracker::CurrentBytes();
  const GlobalCutResult result = GlobalCut(g, 5, {}, options, &stats, &scratch);
  EXPECT_EQ(MemoryTracker::PeakBytes(), baseline)
      << "steady-state GLOBAL-CUT touched the allocator";
  EXPECT_TRUE(result.cut.empty());
}

// The LOC-CUT probe in isolation: once a probe has grown to the largest
// graph it will see, full-flow probes must perform ZERO heap allocation,
// even when they alternate between differently-sized graphs. This is what
// lets every wavefront pool slot probe any working graph with no per-graph
// setup.
TEST(MemoryTrackerTest, WarmProbeAllocatesNothing) {
  ASSERT_TRUE(MemoryTracker::Enabled());
  const Graph big = HararyGraph(5, 40);
  const Graph small = HararyGraph(5, 16);
  FlowProbe probe;
  // Warm-up: probe both sizes twice so every buffer reaches its high-water
  // mark. Vertices 0 and 5 are non-adjacent in both circulants, and both
  // graphs are 5-connected, so the probe runs a full flow and answers
  // empty (no cut vector to allocate).
  for (int warm = 0; warm < 2; ++warm) {
    for (const Graph* g : {&big, &small}) {
      ASSERT_TRUE(probe.LocCut(*g, 0, 5, 5).empty());
    }
  }
  MemoryTracker::ResetPeak();
  const std::uint64_t baseline = MemoryTracker::CurrentBytes();
  for (int round = 0; round < 5; ++round) {
    for (const Graph* g : {&big, &small}) {
      EXPECT_TRUE(probe.LocCut(*g, 0, 5, 5).empty());
    }
  }
  EXPECT_EQ(MemoryTracker::PeakBytes(), baseline)
      << "steady-state flow probe touched the allocator";
}

// Same property for the cut-verification path in isolation: CutDisconnects
// with warm epoch-stamped marks must not allocate (it used to re-assign
// three O(n) arrays per candidate cut).
TEST(MemoryTrackerTest, WarmCutDisconnectsAllocatesNothing) {
  ASSERT_TRUE(MemoryTracker::Enabled());
  const Graph g = TwoCliquesSharing(8, 3);
  // The three shared vertices form a cut; vertices 0 and 1 do not.
  const std::vector<VertexId> separating = {5, 6, 7};
  const std::vector<VertexId> non_separating = {0, 1};
  GlobalCutScratch scratch;
  ASSERT_TRUE(detail::CutDisconnects(g, separating, scratch));   // warm-up
  ASSERT_FALSE(detail::CutDisconnects(g, non_separating, scratch));
  MemoryTracker::ResetPeak();
  const std::uint64_t baseline = MemoryTracker::CurrentBytes();
  for (int round = 0; round < 10; ++round) {
    EXPECT_TRUE(detail::CutDisconnects(g, separating, scratch));
    EXPECT_FALSE(detail::CutDisconnects(g, non_separating, scratch));
  }
  EXPECT_EQ(MemoryTracker::PeakBytes(), baseline)
      << "steady-state cut verification touched the allocator";
}

// Warm-path preprocessing kernel: once the pooled scratch has grown to a
// graph's high-water mark, repeat calls on that graph must not touch the
// allocator. The enumeration peels once per work item, so a single
// decompose run calls KCoreVerticesInto thousands of times.
TEST(MemoryTrackerTest, WarmKCoreVerticesIntoAllocatesNothing) {
  ASSERT_TRUE(MemoryTracker::Enabled());
  const Graph g = TwoCliquesSharing(10, 2);
  KCoreScratch scratch;
  std::vector<VertexId> survivors;
  for (int warm = 0; warm < 2; ++warm) {
    KCoreVerticesInto(g, 4, scratch, survivors);
  }
  ASSERT_FALSE(survivors.empty());
  MemoryTracker::ResetPeak();
  const std::uint64_t baseline = MemoryTracker::CurrentBytes();
  for (int round = 0; round < 10; ++round) {
    KCoreVerticesInto(g, 4, scratch, survivors);
  }
  EXPECT_EQ(MemoryTracker::PeakBytes(), baseline)
      << "steady-state k-core peel touched the allocator";
}

// The dynamic-graph merge kernel (docs/DYNAMIC.md): once DeltaApplier's
// counting-sort scratch and the output graph's CSR arrays have grown to a
// batch shape's high-water mark, re-applying a batch of that shape must
// not touch the allocator. This is what bounds per-mutation cost in kvccd
// to the merge itself.
TEST(MemoryTrackerTest, WarmDeltaApplyAllocatesNothing) {
  ASSERT_TRUE(MemoryTracker::Enabled());
  const Graph base = TwoCliquesSharing(6, 2);  // vertices 0..9
  // A mixed batch: delete two present edges, insert two absent ones
  // (u < v, absent/present as DeltaApplier requires).
  const std::vector<EdgeDelta> batch = {
      {0, 1, /*insert=*/false},
      {0, 7, /*insert=*/true},
      {1, 8, /*insert=*/true},
      {2, 3, /*insert=*/false},
  };
  DeltaApplier applier;
  Graph out;
  for (int warm = 0; warm < 2; ++warm) {
    applier.Apply(base, batch, out);
  }
  ASSERT_EQ(out.NumEdges(), base.NumEdges());  // two in, two out
  MemoryTracker::ResetPeak();
  const std::uint64_t baseline = MemoryTracker::CurrentBytes();
  for (int round = 0; round < 10; ++round) {
    applier.Apply(base, batch, out);
  }
  EXPECT_EQ(MemoryTracker::PeakBytes(), baseline)
      << "steady-state delta application touched the allocator";
  EXPECT_TRUE(out.HasEdge(0, 7));
  EXPECT_FALSE(out.HasEdge(0, 1));
}

// The same property one layer up: a VersionedGraph's whole warm mutation
// cycle — batch normalization, memtable append, buffer-recycled
// materialization, compaction — runs allocation-free once the insert /
// delete ping-pong has grown every buffer. Holding no snapshot across the
// cycle is what lets the retired buffer be recycled.
TEST(MemoryTrackerTest, WarmVersionedGraphMutationAllocatesNothing) {
  ASSERT_TRUE(MemoryTracker::Enabled());
  VersionedGraph vg(TwoCliquesSharing(6, 2));
  const std::vector<std::pair<VertexId, VertexId>> extra = {
      {0, 7}, {1, 8}, {2, 9}};
  for (int warm = 0; warm < 3; ++warm) {
    ASSERT_EQ(vg.InsertEdges(extra), extra.size());
    ASSERT_EQ(vg.DeleteEdges(extra), extra.size());
    vg.Compact();
  }
  MemoryTracker::ResetPeak();
  const std::uint64_t baseline = MemoryTracker::CurrentBytes();
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(vg.InsertEdges(extra), extra.size());
    EXPECT_EQ(vg.DeleteEdges(extra), extra.size());
    vg.Compact();
  }
  EXPECT_EQ(MemoryTracker::PeakBytes(), baseline)
      << "steady-state VersionedGraph mutation touched the allocator";
}

// The edge-list loader sizes its dense raw-id table by the input, not by
// the largest raw id: an 11-byte file naming id 2^26 - 1 must not allocate
// a 2^26-entry table. kvccd loads files like this one on request.
TEST(MemoryTrackerTest, LoaderIdTableIsBoundedByInput) {
  ASSERT_TRUE(MemoryTracker::Enabled());
  const std::string path = ::testing::TempDir() + "/kvcc_wide_id.el";
  std::ofstream(path) << "0 67108863\n";
  MemoryTracker::ResetPeak();
  const std::uint64_t baseline = MemoryTracker::CurrentBytes();
  const Graph g = ReadEdgeListFile(path);
  EXPECT_LT(MemoryTracker::PeakBytes() - baseline, std::uint64_t{1} << 20)
      << "loading two vertices allocated an id table sized by the raw id";
  ASSERT_EQ(g.NumVertices(), 2u);
  EXPECT_EQ(g.LabelOf(1), 67108863u);
  std::remove(path.c_str());
}

TEST(ProcessMemoryTest, RssReadable) {
  EXPECT_GT(CurrentRssBytes(), 0u);
  if (PeakRssBytes() == 0) {
    GTEST_SKIP() << "kernel does not expose VmHWM (e.g. sandboxed /proc)";
  }
  EXPECT_GE(PeakRssBytes(), CurrentRssBytes());
}

}  // namespace
}  // namespace kvcc
