#include "kvcc/validation.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "graph/connected_components.h"
#include "graph/k_core.h"
#include "kvcc/connectivity.h"

namespace kvcc {
namespace {

std::string Describe(std::size_t index,
                     const std::vector<VertexId>& component) {
  std::ostringstream out;
  out << "component #" << index << " (size " << component.size() << ")";
  return out.str();
}

}  // namespace

ValidationReport ValidateKvccResult(
    const Graph& g, std::uint32_t k,
    const std::vector<std::vector<VertexId>>& components) {
  ValidationReport report;

  // 5. count bound.
  if (2 * components.size() > g.NumVertices()) {
    report.Fail("more than n/2 components (Theorem 6 violated)");
  }

  const auto core = KCoreVertices(g, k);
  const std::set<VertexId> core_set(core.begin(), core.end());
  std::vector<bool> covered(g.NumVertices(), false);
  // Maximality scratch: membership of the current component, and each
  // outside vertex's neighbour count in it (reset through `touched`).
  std::vector<bool> member(g.NumVertices(), false);
  std::vector<std::uint32_t> neighbors_in(g.NumVertices(), 0);
  std::vector<VertexId> touched;

  for (std::size_t i = 0; i < components.size(); ++i) {
    const auto& component = components[i];
    if (!std::is_sorted(component.begin(), component.end())) {
      report.Fail(Describe(i, component) + ": vertex list not sorted");
      continue;
    }
    // 1. size.
    if (component.size() <= k) {
      report.Fail(Describe(i, component) + ": needs more than k vertices");
    }
    // 6. k-core nesting.
    bool out_of_range = false;
    for (VertexId v : component) {
      if (v >= g.NumVertices()) {
        report.Fail(Describe(i, component) + ": vertex out of range");
        out_of_range = true;
        break;
      }
      if (!core_set.count(v)) {
        report.Fail(Describe(i, component) + ": vertex " +
                    std::to_string(v) + " outside the k-core");
        break;
      }
      covered[v] = true;
    }
    if (out_of_range) continue;  // InducedSubgraph would index out of bounds.
    // 2. k-vertex-connectivity.
    const Graph sub = g.InducedSubgraph(component);
    if (!IsKVertexConnected(sub, k)) {
      report.Fail(Describe(i, component) + ": not k-vertex-connected");
    }
    // 8. maximality: by the expansion lemma, an outside vertex with >= k
    // neighbours in the component extends it to a larger k-connected
    // subgraph.
    for (VertexId v : component) member[v] = true;
    for (VertexId v : component) {
      for (VertexId w : g.Neighbors(v)) {
        if (member[w]) continue;
        if (neighbors_in[w]++ == 0) touched.push_back(w);
      }
    }
    for (VertexId w : touched) {
      if (neighbors_in[w] >= k) {
        report.Fail(Describe(i, component) + ": not maximal, vertex " +
                    std::to_string(w) + " has >= k neighbours in it");
        break;
      }
    }
    for (VertexId w : touched) neighbors_in[w] = 0;
    for (VertexId v : component) member[v] = false;
    touched.clear();
  }

  // 3 + 4. pairwise overlap / containment.
  for (std::size_t i = 0; i < components.size(); ++i) {
    for (std::size_t j = i + 1; j < components.size(); ++j) {
      std::vector<VertexId> overlap;
      std::set_intersection(components[i].begin(), components[i].end(),
                            components[j].begin(), components[j].end(),
                            std::back_inserter(overlap));
      if (overlap.size() >= k) {
        report.Fail("components #" + std::to_string(i) + " and #" +
                    std::to_string(j) + " overlap in >= k vertices");
      }
      if (overlap.size() == components[i].size() ||
          overlap.size() == components[j].size()) {
        report.Fail("components #" + std::to_string(i) + " and #" +
                    std::to_string(j) + " nest (redundancy)");
      }
    }
  }

  // 7. completeness spot check: an uncovered part of the k-core that is
  // itself k-connected would be a missed k-VCC (or part of one).
  std::vector<VertexId> uncovered;
  for (VertexId v : core) {
    if (!covered[v]) uncovered.push_back(v);
  }
  if (!uncovered.empty()) {
    const Graph leftover = g.InducedSubgraph(uncovered);
    // Re-peel: only parts with min degree >= k could host a k-VCC.
    const Graph repeel = KCoreSubgraph(leftover, k);
    for (const auto& comp : ConnectedComponents(repeel)) {
      if (comp.size() <= k) continue;
      if (IsKVertexConnected(repeel.InducedSubgraph(comp), k)) {
        report.Fail("uncovered k-connected region of " +
                    std::to_string(comp.size()) +
                    " vertices (missed k-VCC)");
      }
    }
  }
  return report;
}

}  // namespace kvcc
