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

/// Validates `components` as the k-VCC set of g:
///   1. each component has more than k vertices (Definition 2),
///   2. each induced subgraph is k-vertex-connected (Lemma 1),
///   3. pairwise overlaps have fewer than k vertices (Property 1),
///   4. no component contains another (Lemma 3),
///   5. there are at most n/2 components (Theorem 6),
///   6. every component lies inside the k-core (Theorem 3),
///   7. every vertex of the k-core whose component is k-connected is
///      covered — spot-checked via: no k-connected "leftover" among the
///      k-core vertices missing from all components (completeness is spot
///      checked by re-running the cut search on uncovered regions),
///   8. each component is maximal: no outside vertex has k or more
///      neighbours in it (by the expansion lemma such a vertex would
///      extend the component to a larger k-connected subgraph).
ValidationReport ValidateKvccResult(
    const Graph& g, std::uint32_t k,
    const std::vector<std::vector<VertexId>>& components);

}  // namespace kvcc

#endif  // KVCC_KVCC_VALIDATION_H_
