#include "kvcc/sweep_context.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "gen/fixtures.h"
#include "graph/graph.h"
#include "kvcc/sparse_certificate.h"

namespace kvcc {
namespace {

class SweepTest : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kNoGroups = 0;
  std::vector<std::vector<VertexId>> no_groups_;
  std::vector<std::uint32_t> no_group_of_;

  void SetupNoGroups(const Graph& g) {
    no_group_of_.assign(g.NumVertices(), kNoGroup);
  }
};

TEST_F(SweepTest, SweepMarksVertex) {
  const Graph g = CompleteGraph(4);
  SetupNoGroups(g);
  std::vector<std::uint8_t> strong(4, 0);
  SweepContext ctx(g, 2, strong, no_groups_, no_group_of_,
                   /*neighbor_sweep=*/true, /*group_sweep=*/false);
  EXPECT_FALSE(ctx.IsSwept(1));
  ctx.Sweep(1, SweepCause::kTested);
  EXPECT_TRUE(ctx.IsSwept(1));
  EXPECT_EQ(ctx.CauseOf(1), SweepCause::kTested);
}

TEST_F(SweepTest, DepositsAccumulateOnNeighbors) {
  // Star: center 0, leaves 1..4; k = 3.
  const Graph g = Graph::FromEdges(
      5, std::vector<std::pair<VertexId, VertexId>>{
             {0, 1}, {0, 2}, {0, 3}, {0, 4}});
  SetupNoGroups(g);
  std::vector<std::uint8_t> strong(5, 0);
  SweepContext ctx(g, 3, strong, no_groups_, no_group_of_, true, false);
  ctx.Sweep(1, SweepCause::kTested);
  ctx.Sweep(2, SweepCause::kTested);
  EXPECT_EQ(ctx.deposit(0), 2u);
  EXPECT_FALSE(ctx.IsSwept(0));
  ctx.Sweep(3, SweepCause::kTested);
  // Third deposit reaches k = 3: center swept by NS rule 2.
  EXPECT_TRUE(ctx.IsSwept(0));
  EXPECT_EQ(ctx.CauseOf(0), SweepCause::kNeighborSweepDeposit);
}

TEST_F(SweepTest, StrongSideVertexSweepsAllNeighbors) {
  const Graph g = CompleteGraph(5);
  SetupNoGroups(g);
  std::vector<std::uint8_t> strong(5, 0);
  strong[0] = 1;
  SweepContext ctx(g, 4, strong, no_groups_, no_group_of_, true, false);
  ctx.Sweep(0, SweepCause::kTested);  // Source is the strong vertex.
  for (VertexId v = 1; v < 5; ++v) {
    EXPECT_TRUE(ctx.IsSwept(v));
    EXPECT_EQ(ctx.CauseOf(v), SweepCause::kNeighborSweepSide);
  }
}

TEST_F(SweepTest, CascadeThroughDeposits) {
  // Two hubs: sweeping k neighbors of hub A sweeps A, whose sweep then
  // deposits on hub B's neighborhood.
  // Vertices: 0,1 = hubs; 2,3 = shared neighbors; k = 2.
  const Graph g = Graph::FromEdges(
      4, std::vector<std::pair<VertexId, VertexId>>{
             {0, 2}, {0, 3}, {1, 2}, {1, 3}});
  SetupNoGroups(g);
  std::vector<std::uint8_t> strong(4, 0);
  SweepContext ctx(g, 2, strong, no_groups_, no_group_of_, true, false);
  ctx.Sweep(2, SweepCause::kTested);
  ctx.Sweep(3, SweepCause::kTested);
  // Both hubs reached deposit 2 == k via the cascade.
  EXPECT_TRUE(ctx.IsSwept(0));
  EXPECT_TRUE(ctx.IsSwept(1));
}

TEST_F(SweepTest, NeighborSweepDisabledMeansNoDeposits) {
  const Graph g = CompleteGraph(4);
  SetupNoGroups(g);
  std::vector<std::uint8_t> strong(4, 1);  // Even with strong flags set.
  SweepContext ctx(g, 2, strong, no_groups_, no_group_of_,
                   /*neighbor_sweep=*/false, /*group_sweep=*/false);
  ctx.Sweep(0, SweepCause::kTested);
  EXPECT_TRUE(ctx.IsSwept(0));
  for (VertexId v = 1; v < 4; ++v) {
    EXPECT_FALSE(ctx.IsSwept(v));
    EXPECT_EQ(ctx.deposit(v), 0u);
  }
}

TEST_F(SweepTest, GroupDepositSweepsWholeGroup) {
  // One group of 5 vertices in a clique; k = 3.
  const Graph g = CompleteGraph(6);
  std::vector<std::uint8_t> strong(6, 0);
  std::vector<std::vector<VertexId>> groups = {{0, 1, 2, 3, 4}};
  std::vector<std::uint32_t> group_of = {0, 0, 0, 0, 0, kNoGroup};
  SweepContext ctx(g, 3, strong, groups, group_of,
                   /*neighbor_sweep=*/false, /*group_sweep=*/true);
  ctx.Sweep(0, SweepCause::kTested);
  ctx.Sweep(1, SweepCause::kTested);
  EXPECT_EQ(ctx.group_deposit(0), 2u);
  EXPECT_FALSE(ctx.IsSwept(4));
  ctx.Sweep(2, SweepCause::kTested);
  // Third member reaches group deposit k = 3: whole group swept.
  EXPECT_TRUE(ctx.IsSwept(3));
  EXPECT_TRUE(ctx.IsSwept(4));
  EXPECT_EQ(ctx.CauseOf(4), SweepCause::kGroupSweep);
  EXPECT_FALSE(ctx.IsSwept(5));  // Not in the group.
}

TEST_F(SweepTest, StrongMemberSweepsGroupImmediately) {
  const Graph g = CompleteGraph(5);
  std::vector<std::uint8_t> strong(5, 0);
  strong[1] = 1;
  std::vector<std::vector<VertexId>> groups = {{0, 1, 2, 3, 4}};
  std::vector<std::uint32_t> group_of = {0, 0, 0, 0, 0};
  SweepContext ctx(g, 4, strong, groups, group_of,
                   /*neighbor_sweep=*/true, /*group_sweep=*/true);
  ctx.Sweep(1, SweepCause::kTested);  // Strong member: group rule 1.
  for (VertexId v = 0; v < 5; ++v) EXPECT_TRUE(ctx.IsSwept(v));
}

TEST_F(SweepTest, GroupAndNeighborSweepsCompose) {
  // Group {0,1,2} clique + an outside vertex 3 adjacent to all of them.
  // k = 3: sweeping the group deposits 3 onto vertex 3, sweeping it too
  // ("a group sweep can trigger a neighbor sweep", Section 5.2).
  const Graph g = Graph::FromEdges(
      4, std::vector<std::pair<VertexId, VertexId>>{
             {0, 1}, {0, 2}, {1, 2}, {0, 3}, {1, 3}, {2, 3}});
  std::vector<std::uint8_t> strong(4, 0);
  std::vector<std::vector<VertexId>> groups = {{0, 1, 2}};
  std::vector<std::uint32_t> group_of = {0, 0, 0, kNoGroup};
  SweepContext ctx(g, 3, strong, groups, group_of, true, true);
  ctx.Sweep(0, SweepCause::kTested);
  ctx.Sweep(1, SweepCause::kTested);
  ctx.Sweep(2, SweepCause::kTested);  // Group deposit hits 3 -> group done.
  EXPECT_TRUE(ctx.IsSwept(3));
  EXPECT_EQ(ctx.CauseOf(3), SweepCause::kNeighborSweepDeposit);
}

}  // namespace
}  // namespace kvcc
