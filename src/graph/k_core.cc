#include "graph/k_core.h"

#include <algorithm>

namespace kvcc {
namespace {

// Serial peel rounds over pooled scratch. frontier/next were reserved to n
// by the driver and the peel removes each vertex at most once, so every
// growth call below stays within capacity.
// kvcc-lint: no-alloc
std::uint64_t PeelSerial(const Graph& g, std::uint32_t k, KCoreScratch& s) {
  const VertexId n = g.NumVertices();
  const std::uint64_t epoch = s.epoch;
  s.frontier.clear();
  for (VertexId v = 0; v < n; ++v) {
    const std::uint32_t d = g.Degree(v);
    s.degree[v] = d;
    if (d < k) {
      s.removed_stamp[v] = epoch;
      s.frontier.push_back(v);  // kvcc-lint: reserved
    }
  }
  std::uint64_t rounds = 0;
  while (!s.frontier.empty()) {
    ++rounds;
    s.next.clear();
    for (const VertexId u : s.frontier) {
      for (const VertexId w : g.Neighbors(u)) {
        // Unconditional decrement, claim exactly at the k crossing: a
        // vertex that started below k (claimed at init) never sees old
        // == k again, and total decrements on w never exceed deg(w), so
        // the counter cannot wrap.
        const std::uint32_t old = s.degree[w]--;
        if (old == k) {
          s.removed_stamp[w] = epoch;
          s.next.push_back(w);  // kvcc-lint: reserved
        }
      }
    }
    s.frontier.swap(s.next);
  }
  return rounds;
}

}  // namespace

std::uint64_t KCoreVerticesInto(const Graph& g, std::uint32_t k,
                                KCoreScratch& scratch,
                                std::vector<VertexId>& survivors) {
  const VertexId n = g.NumVertices();
  if (scratch.removed_stamp.size() < n) scratch.removed_stamp.resize(n, 0);
  if (scratch.degree.size() < n) scratch.degree.resize(n);
  if (scratch.frontier.capacity() < n) scratch.frontier.reserve(n);
  if (scratch.next.capacity() < n) scratch.next.reserve(n);
  if (survivors.capacity() < n) survivors.reserve(n);
  ++scratch.epoch;
  const std::uint64_t rounds = PeelSerial(g, k, scratch);
  survivors.clear();
  const std::uint64_t epoch = scratch.epoch;
  for (VertexId v = 0; v < n; ++v) {
    if (scratch.removed_stamp[v] != epoch) survivors.push_back(v);
  }
  return rounds;
}

std::vector<VertexId> KCoreVertices(const Graph& g, std::uint32_t k) {
  KCoreScratch scratch;
  std::vector<VertexId> survivors;
  KCoreVerticesInto(g, k, scratch, survivors);
  return survivors;
}

Graph KCoreSubgraph(const Graph& g, std::uint32_t k) {
  const std::vector<VertexId> survivors = KCoreVertices(g, k);
  return g.InducedSubgraph(survivors);
}

std::vector<std::uint32_t> CoreNumbers(const Graph& g) {
  const VertexId n = g.NumVertices();
  std::vector<std::uint32_t> degree(n), core(n, 0);
  std::uint32_t max_degree = 0;
  for (VertexId v = 0; v < n; ++v) {
    degree[v] = g.Degree(v);
    max_degree = std::max(max_degree, degree[v]);
  }
  // Bucket sort vertices by degree.
  std::vector<std::uint32_t> bin(max_degree + 2, 0);
  for (VertexId v = 0; v < n; ++v) ++bin[degree[v]];
  std::uint32_t start = 0;
  for (std::uint32_t d = 0; d <= max_degree; ++d) {
    const std::uint32_t count = bin[d];
    bin[d] = start;
    start += count;
  }
  std::vector<VertexId> order(n);
  std::vector<std::uint32_t> position(n);
  {
    std::vector<std::uint32_t> cursor(bin.begin(), bin.end() - 1);
    for (VertexId v = 0; v < n; ++v) {
      position[v] = cursor[degree[v]]++;
      order[position[v]] = v;
    }
  }
  // Peel in nondecreasing degree order, lowering neighbor degrees in place.
  for (std::uint32_t i = 0; i < n; ++i) {
    const VertexId v = order[i];
    core[v] = degree[v];
    for (VertexId w : g.Neighbors(v)) {
      if (degree[w] > degree[v]) {
        // Swap w to the front of its degree bucket, then shrink its degree.
        const std::uint32_t dw = degree[w];
        const std::uint32_t pw = position[w];
        const std::uint32_t pfront = bin[dw];
        const VertexId front = order[pfront];
        if (front != w) {
          std::swap(order[pw], order[pfront]);
          position[w] = pfront;
          position[front] = pw;
        }
        ++bin[dw];
        --degree[w];
      }
    }
  }
  return core;
}

std::uint32_t Degeneracy(const Graph& g) {
  std::uint32_t best = 0;
  for (std::uint32_t c : CoreNumbers(g)) best = std::max(best, c);
  return best;
}

}  // namespace kvcc
