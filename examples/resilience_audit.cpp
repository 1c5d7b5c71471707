// Network-resilience audit of an infrastructure topology.
//
// Vertex connectivity is the number of simultaneous node failures a
// network segment can survive. This example builds a synthetic backbone
// (rings of sites + a dense core) and audits it by sweeping k: the k-VCC
// hierarchy reveals which cells stay connected under k-1 arbitrary node
// failures, and where the fragile articulation points are.
//
// Run: ./resilience_audit

#include <iomanip>
#include <iostream>

#include "gen/planted_vcc.h"
#include "gen/watts_strogatz.h"
#include "graph/biconnected.h"
#include "graph/graph_builder.h"
#include "kvcc/connectivity.h"
#include "kvcc/kvcc_enum.h"
#include "metrics/diameter.h"
#include "util/random.h"

int main() {
  using namespace kvcc;

  // Topology: a ring of 6 datacenter "cells" (each a dense 8-connected
  // block, adjacent cells sharing 2 gateway nodes) plus a regional access
  // ring (Watts-Strogatz) hanging off the backbone.
  PlantedVccConfig backbone_config;
  backbone_config.num_blocks = 6;
  backbone_config.block_size_min = 20;
  backbone_config.block_size_max = 28;
  backbone_config.connectivity = 8;
  backbone_config.overlap = 2;
  backbone_config.bridge_edges = 1;
  backbone_config.ring = true;
  backbone_config.seed = 7;
  const PlantedVccGraph backbone = GeneratePlantedVcc(backbone_config);

  const Graph access = WattsStrogatz(120, 2, 0.1, 11);
  GraphBuilder builder(backbone.graph.NumVertices() + access.NumVertices());
  for (const auto& [u, v] : backbone.graph.Edges()) builder.AddEdge(u, v);
  const VertexId offset = backbone.graph.NumVertices();
  for (const auto& [u, v] : access.Edges()) {
    builder.AddEdge(offset + u, offset + v);
  }
  Rng rng(3);
  for (int e = 0; e < 4; ++e) {  // Uplinks from the access ring.
    builder.AddEdge(offset + static_cast<VertexId>(rng.NextBounded(120)),
                    static_cast<VertexId>(
                        rng.NextBounded(backbone.graph.NumVertices())));
  }
  const Graph net = builder.Build();
  std::cout << "topology: " << net.NumVertices() << " nodes, "
            << net.NumEdges() << " links\n\n";

  // Fragility first: articulation points = single points of failure.
  const auto blocks = BiconnectedComponents(net);
  std::cout << "single points of failure (articulation nodes): "
            << blocks.cut_vertices.size() << "\n\n";

  // Sweep k and report the surviving cells.
  std::cout << std::left << std::setw(4) << "k" << std::setw(10) << "cells"
            << std::setw(12) << "largest" << std::setw(12) << "avg diam"
            << "meaning\n";
  for (std::uint32_t k = 2; k <= 9; ++k) {
    const KvccResult result = EnumerateKVccs(net, k);
    std::size_t largest = 0;
    double diam = 0;
    for (const auto& cell : result.components) {
      largest = std::max(largest, cell.size());
      diam += ExactDiameter(net.InducedSubgraph(cell));
    }
    if (!result.components.empty()) {
      diam /= static_cast<double>(result.components.size());
    }
    std::cout << std::setw(4) << k << std::setw(10)
              << result.components.size() << std::setw(12) << largest
              << std::setw(12) << diam << "survives any " << (k - 1)
              << " node failures\n";
  }

  // The audit conclusion for the backbone cells.
  const KvccResult cells = EnumerateKVccs(net, 8);
  std::cout << "\n8-resilient cells found: " << cells.components.size()
            << " (designed: " << backbone.blocks.size() << ")\n";
  return 0;
}
