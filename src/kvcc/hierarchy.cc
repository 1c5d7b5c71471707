#include "kvcc/hierarchy.h"

#include <algorithm>
#include <utility>

#include "graph/k_core.h"
#include "kvcc/engine.h"
#include "kvcc/kvcc_enum.h"

namespace kvcc {
namespace {

/// Shared level-by-level construction. `engine` may be null (serial
/// per-parent EnumerateKVccs calls). With an engine, all parent components
/// of a level are submitted as independent jobs up front and collected in
/// parent order, so the node/level/cohesion arrays come out identical to
/// the serial build's for every worker count (each job's result already
/// matches the serial enumeration exactly). `cohesion` aliases the
/// hierarchy's private per-vertex array (passed in by the friended public
/// entry points).
void BuildHierarchyInto(KvccEngine* engine, const Graph& g,
                        std::uint32_t max_level, const KvccOptions& options,
                        KvccHierarchy& hierarchy,
                        std::vector<std::uint32_t>& cohesion) {
  cohesion.assign(g.NumVertices(), 0);
  if (max_level == 0) {
    max_level = Degeneracy(g) + 1;  // kappa <= delta <= degeneracy... + slack
  }

  // Level 1 over the whole graph; level k inside each level-(k-1) node.
  std::vector<std::size_t> frontier;
  for (std::uint32_t k = 1; k <= max_level; ++k) {
    std::vector<std::size_t> next;
    const std::vector<std::size_t> parents =
        k == 1 ? std::vector<std::size_t>{HierarchyNode::kNoParent}
               : frontier;

    // The subgraphs to decompose: the whole graph at level 1 (read in
    // place), otherwise each parent component. The engine path
    // materializes the whole level up front — jobs borrow stable Graph
    // pointers while they run concurrently — and collects in parent
    // order; the serial path streams one parent at a time so its peak
    // memory stays one subgraph, as before the engine existed.
    std::vector<Graph> subgraphs;
    std::vector<KvccResult> engine_results;
    if (engine != nullptr) {
      subgraphs.resize(parents.size());
      std::vector<EngineJobSpec> specs(parents.size(), {&g, k, options});
      for (std::size_t p = 0; p < parents.size(); ++p) {
        if (parents[p] != HierarchyNode::kNoParent) {
          subgraphs[p] =
              g.InducedSubgraph(hierarchy.nodes[parents[p]].vertices);
          specs[p].graph = &subgraphs[p];
        }
      }
      // RunBatch waits out EVERY job before it rethrows the first error:
      // the jobs borrow `subgraphs`, so an exception escaping while
      // siblings still run would free graphs under live worker threads.
      engine_results = engine->RunBatch(specs);
    }

    for (std::size_t p = 0; p < parents.size(); ++p) {
      const std::size_t parent_index = parents[p];
      const bool root = parent_index == HierarchyNode::kNoParent;
      KvccResult result;
      if (engine != nullptr) {
        result = std::move(engine_results[p]);
      } else if (root) {
        result = EnumerateKVccs(g, k, options);
      } else {
        const Graph sub =
            g.InducedSubgraph(hierarchy.nodes[parent_index].vertices);
        result = EnumerateKVccs(sub, k, options);
      }
      hierarchy.stats.Add(result.stats);
      for (const auto& component : result.components) {
        HierarchyNode node;
        node.level = k;
        node.parent = parent_index;
        if (root) {
          node.vertices = component;
        } else {
          // Map back from the parent-subgraph ids to input ids.
          node.vertices.reserve(component.size());
          for (VertexId v : component) {
            node.vertices.push_back(
                hierarchy.nodes[parent_index].vertices[v]);
          }
          std::sort(node.vertices.begin(), node.vertices.end());
        }
        for (VertexId v : node.vertices) {
          cohesion[v] = std::max(cohesion[v], k);
        }
        const std::size_t index = hierarchy.nodes.size();
        if (!root) hierarchy.nodes[parent_index].children.push_back(index);
        next.push_back(index);
        hierarchy.nodes.push_back(std::move(node));
      }
    }
    if (next.empty()) break;
    hierarchy.levels.push_back(next);
    frontier = std::move(next);
  }
}

}  // namespace

const std::vector<std::size_t>& KvccHierarchy::NodesAtLevel(
    std::uint32_t k) const {
  static const std::vector<std::size_t> kEmpty;
  if (k == 0 || k > levels.size()) return kEmpty;
  return levels[k - 1];
}

std::vector<std::vector<VertexId>> KvccHierarchy::ComponentsAtLevel(
    std::uint32_t k) const {
  std::vector<std::vector<VertexId>> out;
  for (std::size_t index : NodesAtLevel(k)) {
    out.push_back(nodes[index].vertices);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::uint32_t KvccHierarchy::CohesionOf(VertexId v) const {
  return v < cohesion_.size() ? cohesion_[v] : 0;
}

std::vector<std::uint64_t> KvccHierarchy::PathOf(VertexId v) const {
  std::vector<std::uint64_t> sizes;
  const auto contains = [&](std::size_t index) {
    const std::vector<VertexId>& vs = nodes[index].vertices;
    return std::binary_search(vs.begin(), vs.end(), v);
  };
  std::size_t current = HierarchyNode::kNoParent;
  if (!levels.empty()) {
    for (std::size_t index : levels[0]) {
      if (contains(index)) {
        current = index;
        break;
      }
    }
  }
  while (current != HierarchyNode::kNoParent) {
    sizes.push_back(nodes[current].vertices.size());
    std::size_t next = HierarchyNode::kNoParent;
    for (std::size_t child : nodes[current].children) {
      if (contains(child)) {
        next = child;
        break;
      }
    }
    current = next;
  }
  return sizes;
}

std::uint64_t KvccHierarchy::MemoryBytes() const {
  std::uint64_t bytes = sizeof(KvccHierarchy);
  for (const HierarchyNode& node : nodes) {
    bytes += sizeof(HierarchyNode);
    bytes += node.vertices.size() * sizeof(VertexId);
    bytes += node.children.size() * sizeof(std::size_t);
  }
  for (const std::vector<std::size_t>& level : levels) {
    bytes += level.size() * sizeof(std::size_t);
  }
  bytes += cohesion_.size() * sizeof(std::uint32_t);
  return bytes;
}

KvccHierarchy BuildKvccHierarchy(const Graph& g, std::uint32_t max_level,
                                 const KvccOptions& options) {
  KvccHierarchy hierarchy;
  BuildHierarchyInto(nullptr, g, max_level, options, hierarchy,
                     hierarchy.cohesion_);
  return hierarchy;
}

KvccHierarchy BuildKvccHierarchy(KvccEngine& engine, const Graph& g,
                                 std::uint32_t max_level,
                                 const KvccOptions& options) {
  KvccHierarchy hierarchy;
  BuildHierarchyInto(&engine, g, max_level, options, hierarchy,
                     hierarchy.cohesion_);
  return hierarchy;
}

}  // namespace kvcc
