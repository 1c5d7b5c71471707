// An independent referee for local vertex connectivity and for the k-VCC
// set itself.
//
// The referee shares no code with the engine past reading the input's edge
// list: it keeps its own adjacency lists, builds its own explicit
// vertex-split network (paper Section 4.1, Fig. 3) and computes kappa(u, v)
// by Edmonds–Karp, one unit of flow per BFS augmenting path, with no reuse
// between queries. Its enumeration follows the definition with its own
// k-core peel, BFS components and cut search, and uses no certificate and
// no sweeps. It is slow and plain on purpose, so a bug in the engine cannot
// also hide in its oracle.
#ifndef KVCC_TESTS_SUPPORT_REFEREE_H_
#define KVCC_TESTS_SUPPORT_REFEREE_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace kvcc::testing {

class Referee {
 public:
  /// Copies g's edge list; later queries never read g again.
  explicit Referee(const Graph& g);

  bool Adjacent(std::uint32_t u, std::uint32_t v) const;

  /// kappa(u, v): the largest number of internally vertex-disjoint u-v
  /// paths, which equals the smallest u-v vertex cut (Menger). Requires
  /// u != v and u, v non-adjacent. Runs the flow to the end, with no early
  /// stop.
  std::uint32_t LocalConnectivity(std::uint32_t u, std::uint32_t v) const;

  /// True iff `cut` avoids u and v and removing it leaves no u-v path.
  bool Separates(const std::vector<std::uint32_t>& cut, std::uint32_t u,
                 std::uint32_t v) const;

 private:
  std::vector<std::vector<std::uint32_t>> adjacency_;
};

/// The k-VCCs of g by the definition: peel to the k-core, split into
/// connected components, and search each component of more than k vertices
/// for a vertex cut of fewer than k vertices — from a minimum-degree vertex
/// u to each of its non-neighbours, then between each two non-adjacent
/// neighbours of u (Esfahanian–Hakimi). A component with no such cut is a
/// k-VCC; otherwise each piece of it minus the cut, plus the cut, recurses.
/// Each component is an ascending vertex list and the list is sorted, as in
/// KvccResult::components.
std::vector<std::vector<std::uint32_t>> RefereeKVccs(const Graph& g,
                                                     std::uint32_t k);

}  // namespace kvcc::testing

#endif  // KVCC_TESTS_SUPPORT_REFEREE_H_
