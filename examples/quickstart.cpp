// Quickstart: build a graph, enumerate its k-VCCs, inspect the result.
//
// Reconstructs the paper's Fig. 1 graph — four dense blocks loosely tied
// together — and shows how the three cohesive-subgraph models differ:
// the 4-core merges everything (free-rider effect), the 4-ECCs split once,
// and the 4-VCCs recover all four blocks.
//
// Run: ./quickstart

#include <iostream>

#include "ecc/kecc.h"
#include "gen/fixtures.h"
#include "graph/graph_builder.h"
#include "graph/k_core.h"
#include "kvcc/connectivity.h"
#include "kvcc/kvcc_enum.h"

int main() {
  using namespace kvcc;

  // 1. Build a graph. GraphBuilder tolerates duplicates and self-loops;
  //    here we just take the ready-made Fig. 1 fixture.
  const Figure1Fixture fig1 = MakeFigure1Graph();
  const Graph& g = fig1.graph;
  std::cout << "graph: " << g.NumVertices() << " vertices, " << g.NumEdges()
            << " edges\n\n";

  // 2. Enumerate all 4-VCCs. The default options run VCCE* (both sweeps
  //    on); see KvccOptions for the paper's other three variants.
  const std::uint32_t k = 4;
  const KvccResult result = EnumerateKVccs(g, k);
  std::cout << result.components.size() << " " << k << "-VCCs:\n";
  for (const auto& component : result.components) {
    std::cout << "  {";
    for (std::size_t i = 0; i < component.size(); ++i) {
      std::cout << (i ? "," : "") << component[i];
    }
    // Each k-VCC really is k-vertex-connected:
    const Graph sub = g.InducedSubgraph(component);
    std::cout << "}  kappa=" << VertexConnectivity(sub) << "\n";
  }

  // 3. Contrast with the other models.
  std::cout << "\n4-core: " << KCoreVertices(g, k).size()
            << " vertices in one blob (free-rider effect)\n";
  const auto eccs = KEdgeConnectedComponents(g, k);
  std::cout << "4-ECCs: " << eccs.size() << " components of sizes";
  for (const auto& ecc : eccs) std::cout << " " << ecc.size();
  std::cout << "\n";

  // 4. The execution counters tell you what the optimizations did.
  std::cout << "\nstats:\n" << result.stats.ToString();
  return 0;
}
