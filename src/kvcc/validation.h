// Independent result validation: checks that a claimed k-VCC decomposition
// satisfies every property the paper proves. Downstream users can run this
// after an enumeration (it is how our own tests and benches self-check);
// it relies only on the flow-based connectivity oracle, not on the
// enumeration machinery.
#ifndef KVCC_KVCC_VALIDATION_H_
#define KVCC_KVCC_VALIDATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace kvcc {

struct ValidationReport {
  bool ok = true;
  /// Human-readable description of every violated property.
  std::vector<std::string> violations;

  void Fail(std::string what) {
    ok = false;
    violations.push_back(std::move(what));
  }
};

/// Validates `components` as the k-VCC set of g. Checks 1-6 are necessary
/// conditions: every correct set passes them, but passing them does not
/// make a set correct.
///   1. each component has more than k vertices (Definition 2),
///   2. each induced subgraph is k-vertex-connected (Lemma 1),
///   3. pairwise overlaps have fewer than k vertices (Property 1),
///   4. no component contains another (Lemma 3),
///   5. there are at most n/2 components (Theorem 6),
///   6. every component lies inside the k-core (Theorem 3).
/// Checks 7-9 are sufficient tests for a wrong set: each one that fires
/// exhibits a k-connected vertex set the claimed set misses, but a set
/// that passes them is not thereby proved complete or maximal.
///   7. completeness: the k-core vertices missing from all components,
///      re-peeled, hold no k-connected component (a missed k-VCC),
///   8. maximality: no outside vertex has k or more neighbours in a
///      component (by the expansion lemma such a vertex would extend it
///      to a larger k-connected subgraph),
///   9. maximality: no two components have a k-connected union. Two
///      k-connected components have one when their shared vertices plus a
///      matching between their private parts number at least k, since
///      fewer than k removed vertices cannot cut every such link. This is
///      the test that rejects the two triangles of a triangular prism as
///      its 2-VCCs.
/// Checks 3, 4 and 9 visit only the pairs of components that share a
/// vertex or an edge, found through a vertex -> components index.
ValidationReport ValidateKvccResult(
    const Graph& g, std::uint32_t k,
    const std::vector<std::vector<VertexId>>& components);

}  // namespace kvcc

#endif  // KVCC_KVCC_VALIDATION_H_
