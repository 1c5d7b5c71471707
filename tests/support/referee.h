// An independent referee for local vertex connectivity.
//
// The referee shares no code with the engine past reading the input's edge
// list: it keeps its own adjacency lists, builds its own explicit
// vertex-split network (paper Section 4.1, Fig. 3) and computes kappa(u, v)
// by Edmonds–Karp, one unit of flow per BFS augmenting path, with no early
// stop and no reuse between queries. It is slow and plain on purpose, so a
// bug in the engine's flow probe cannot also hide in its oracle.
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
  /// u != v and u, v non-adjacent.
  std::uint32_t LocalConnectivity(std::uint32_t u, std::uint32_t v) const;

  /// True iff `cut` avoids u and v and removing it leaves no u-v path.
  bool Separates(const std::vector<std::uint32_t>& cut, std::uint32_t u,
                 std::uint32_t v) const;

 private:
  std::vector<std::vector<std::uint32_t>> adjacency_;
};

}  // namespace kvcc::testing

#endif  // KVCC_TESTS_SUPPORT_REFEREE_H_
