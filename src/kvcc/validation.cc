#include "kvcc/validation.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <utility>

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
  // Components that are sorted and in range, which the pair checks read.
  std::vector<bool> checkable(components.size(), false);

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
    // The list is sorted, so its last vertex is its largest; the checks
    // below index by vertex.
    if (!component.empty() && component.back() >= g.NumVertices()) {
      report.Fail(Describe(i, component) + ": vertex out of range");
      continue;
    }
    checkable[i] = true;
    // 6. k-core nesting.
    for (VertexId v : component) {
      if (!core_set.count(v)) {
        report.Fail(Describe(i, component) + ": vertex " +
                    std::to_string(v) + " outside the k-core");
        break;
      }
      covered[v] = true;
    }
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

  // 3, 4 and 9: pairs of components. Only a pair that shares a vertex or
  // is joined by an edge can overlap, nest, or have a k-connected union, so
  // a vertex -> components index finds every pair worth checking, and
  // counts each pair's shared vertices on the way.
  std::vector<std::vector<std::size_t>> containing(g.NumVertices());
  for (std::size_t i = 0; i < components.size(); ++i) {
    if (!checkable[i]) continue;
    for (VertexId v : components[i]) containing[v].push_back(i);
  }
  std::map<std::pair<std::size_t, std::size_t>, std::size_t> shared;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    const auto& here = containing[v];
    for (std::size_t a = 0; a < here.size(); ++a) {
      for (std::size_t b = a + 1; b < here.size(); ++b) {
        ++shared[{here[a], here[b]}];
      }
    }
    for (VertexId w : g.Neighbors(v)) {
      for (std::size_t i : here) {
        for (std::size_t j : containing[w]) {
          if (i < j) shared.try_emplace({i, j}, 0);
        }
      }
    }
  }
  auto in = [&](VertexId v, std::size_t c) {
    return std::binary_search(containing[v].begin(), containing[v].end(), c);
  };
  std::vector<bool> matched(g.NumVertices(), false);
  for (const auto& [pair, overlap] : shared) {
    const auto [i, j] = pair;
    const std::string names =
        "components #" + std::to_string(i) + " and #" + std::to_string(j);
    if (overlap >= k) report.Fail(names + " overlap in >= k vertices");
    if (overlap == components[i].size() || overlap == components[j].size()) {
      report.Fail(names + " nest (redundancy)");
      continue;
    }
    // 9. Each shared vertex and each edge of a matching between the two
    // private parts links the components; removing one vertex breaks at
    // most one link. So with k links, the union stays connected after
    // removing any k - 1 vertices: it is k-connected, and neither
    // component is maximal. A greedy matching is enough for a sufficient
    // test.
    std::size_t links = overlap;
    touched.clear();
    for (VertexId a : components[i]) {
      if (links >= k) break;
      if (in(a, j)) continue;
      for (VertexId b : g.Neighbors(a)) {
        if (!matched[b] && in(b, j) && !in(b, i)) {
          matched[b] = true;
          touched.push_back(b);
          ++links;
          break;
        }
      }
    }
    for (VertexId b : touched) matched[b] = false;
    if (overlap < k && links >= k) {
      report.Fail(names + " have a k-connected union (shared vertices plus "
                          "a matching between their private parts number "
                          ">= k): neither is maximal");
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
