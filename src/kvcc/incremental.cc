#include "kvcc/incremental.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

#include "ecc/kecc.h"
#include "kvcc/engine.h"
#include "kvcc/kvcc_enum.h"

namespace kvcc {
namespace {

constexpr std::uint32_t kNoRegion = std::numeric_limits<std::uint32_t>::max();

// One dirty region gathered by the per-level analysis: the induced
// subgraph to re-enumerate plus the root ids its local ids map back to.
struct RegionJob {
  Graph graph;
  std::vector<VertexId> vertices;
  std::uint32_t k = 0;
};

// Per-level output of the analysis: components carried over verbatim and
// the [begin, end) slice of the gathered job list to re-enumerate.
struct LevelPlan {
  std::vector<std::vector<VertexId>> carried;
  std::size_t job_begin = 0;
  std::size_t job_end = 0;
};

bool ContainsEdge(const std::vector<VertexId>& sorted, VertexId u,
                  VertexId v) {
  return std::binary_search(sorted.begin(), sorted.end(), u) &&
         std::binary_search(sorted.begin(), sorted.end(), v);
}

}  // namespace

IncrementalKvcc::IncrementalKvcc(KvccOptions options)
    : options_(std::move(options)) {}

IncrementalOutcome IncrementalKvcc::Update(const VersionedGraph& vg,
                                           KvccEngine* engine) {
  GraphSnapshot snap = vg.Snapshot();
  const std::uint64_t applied_now = vg.AppliedTotal();

  if (!Initialized()) {
    applied_seen_ = applied_now;
    return Rebuild(std::move(snap), engine, 0);
  }
  if (snap.version == version_) {
    IncrementalOutcome outcome;
    outcome.version = version_;
    return outcome;
  }
  batch_.clear();
  if (!vg.EffectiveSince(version_, batch_)) {
    // A Compact() folded away the deltas between our version and now.
    const std::uint64_t applied = applied_now - applied_seen_;
    applied_seen_ = applied_now;
    return Rebuild(std::move(snap), engine, applied);
  }
  assert(!batch_.empty());  // the version advanced, so deltas exist

  const Graph& g = *snap.graph;
  const VertexId n = g.NumVertices();
  std::vector<std::vector<std::vector<VertexId>>> old_levels =
      std::move(levels_);
  levels_.clear();
  std::vector<std::vector<Region>> old_regions = std::move(regions_);
  regions_.clear();

  // --- analysis: one pass per level, cheap (O(n + m) each), independent
  // of every other level's re-enumeration results, so all dirty-region
  // jobs can be gathered first and run as one engine batch.
  std::vector<RegionJob> jobs;
  std::vector<LevelPlan> plans;
  std::uint64_t invalidated = 0;
  std::vector<std::uint32_t> region_of(n, kNoRegion);
  for (std::uint32_t k = 1;; ++k) {
    // Regions: the k-ECCs of the new graph. Every k-VCC is k-edge-
    // connected (Whitney), so it lies inside exactly one region — and
    // k-ECCs are much finer than k-core components (a chain of dense
    // blocks joined by thin bridges is one k-core component but one
    // region per block), which is what keeps localized edits local.
    //
    // k-ECCs nest — every k-ECC lies inside exactly one (k-1)-ECC, and
    // the k-ECCs of g are exactly the k-ECCs of each (k-1)-region's
    // induced subgraph — so deeper levels run on the shrinking regions
    // of the level before instead of the whole graph. Level 1 and 2 are
    // the linear fast paths (connected components / bridge
    // decomposition); from level 3 up, the Stoer-Wagner recursion only
    // ever sees one region at a time. A (k-1)-region whose edge
    // connectivity is known to be at least k is its own k-ECC: the k-core
    // peel removes nothing from it and no cut falls below k. Regions of
    // the previous update are cached (old_regions): a (k-1)-region with no
    // batch edge inside it that was also a (k-1)-ECC of the old graph has
    // an unchanged induced subgraph, so its k-ECCs are carried from the
    // cache instead of re-derived — the per-batch region cost is
    // proportional to the edit's footprint, not the graph.
    static const std::vector<Region> kNoRegions;
    std::vector<Region> regions;
    if (k == 1) {
      for (std::vector<VertexId>& comp : KEdgeConnectedComponents(g, 1)) {
        regions.push_back({std::move(comp), 1});
      }
    } else {
      const std::vector<Region>& prev = regions_[k - 2];
      const bool old_known = k <= old_regions.size();
      const std::vector<Region>& old_prev =
          old_known ? old_regions[k - 2] : kNoRegions;
      const std::vector<Region>& old_here =
          old_known ? old_regions[k - 1] : kNoRegions;
      std::vector<std::uint32_t> bounds;
      for (const Region& region : prev) {
        if (region.vertices.size() <= k) continue;
        if (region.connectivity >= k) {
          regions.push_back(region);
          continue;
        }
        bool clean = true;
        for (const EdgeDelta& d : batch_) {
          if (ContainsEdge(region.vertices, d.u, d.v)) {
            clean = false;
            break;
          }
        }
        if (clean && old_known &&
            std::binary_search(old_prev.begin(), old_prev.end(), region)) {
          // Unchanged induced subgraph of an old (k-1)-ECC: its k-ECCs
          // are exactly the cached old level-k regions inside it (every
          // old region is inside or disjoint, so one member decides).
          for (const Region& old_region : old_here) {
            if (std::binary_search(region.vertices.begin(),
                                   region.vertices.end(),
                                   old_region.vertices.front())) {
              regions.push_back(old_region);
            }
          }
          continue;
        }
        // g is a VersionedGraph materialization, so it is unlabeled and
        // the subgraph's labels are g's vertex ids.
        const Graph sub = g.InducedSubgraph(region.vertices);
        const std::vector<std::vector<VertexId>> locals =
            KEdgeConnectedComponents(sub, k, &bounds);
        for (std::size_t c = 0; c < locals.size(); ++c) {
          Region found;
          found.vertices.reserve(locals[c].size());
          for (VertexId v : locals[c]) found.vertices.push_back(sub.LabelOf(v));
          std::sort(found.vertices.begin(), found.vertices.end());
          found.connectivity = bounds[c];
          regions.push_back(std::move(found));
        }
      }
      std::sort(regions.begin(), regions.end());
    }
    std::uint32_t invalidate_from = 0;
    if (regions.empty()) {
      invalidate_from = k;  // level k was never analyzed
    } else {
      region_of.assign(n, kNoRegion);
      for (std::size_t r = 0; r < regions.size(); ++r) {
        for (VertexId v : regions[r].vertices) {
          region_of[v] = static_cast<std::uint32_t>(r);
        }
      }

      // Rule (a): a region holding both endpoints of a batch edge has a
      // changed induced subgraph (insert adds the edge, delete drops it).
      std::vector<char> dirty(regions.size(), 0);
      for (const EdgeDelta& d : batch_) {
        if (d.v < n && region_of[d.u] != kNoRegion &&
            region_of[d.u] == region_of[d.v]) {
          dirty[region_of[d.u]] = 1;
        }
      }

      // Rule (b): an old k-VCC with both endpoints of a batch edge inside
      // it ("touched") may grow, shrink, split, or die; every region it
      // still reaches must be re-derived so carried and re-found
      // components never overlap incorrectly.
      static const std::vector<std::vector<VertexId>> kEmptyLevel;
      const std::vector<std::vector<VertexId>>& old_k =
          k <= old_levels.size() ? old_levels[k - 1] : kEmptyLevel;
      std::vector<char> touched(old_k.size(), 0);
      for (std::size_t s = 0; s < old_k.size(); ++s) {
        for (const EdgeDelta& d : batch_) {
          if (ContainsEdge(old_k[s], d.u, d.v)) {
            touched[s] = 1;
            break;
          }
        }
        if (touched[s]) {
          for (VertexId w : old_k[s]) {
            if (region_of[w] != kNoRegion) dirty[region_of[w]] = 1;
          }
        }
      }

      // Carry every untouched old component whose region is clean: its
      // induced subgraph is unchanged, so it is still a maximal k-VCC.
      LevelPlan plan;
      for (std::size_t s = 0; s < old_k.size(); ++s) {
        const std::vector<VertexId>& old_comp = old_k[s];
        const std::uint32_t r = touched[s] ? kNoRegion : region_of[old_comp[0]];
        if (r == kNoRegion || dirty[r]) {
          ++invalidated;
          continue;
        }
        assert(std::all_of(old_comp.begin(), old_comp.end(),
                           [&](VertexId w) { return region_of[w] == r; }));
        plan.carried.push_back(old_comp);
      }
      plan.job_begin = jobs.size();
      for (std::size_t r = 0; r < regions.size(); ++r) {
        if (!dirty[r]) continue;
        RegionJob job;
        job.k = k;
        job.vertices = regions[r].vertices;
        job.graph = g.InducedSubgraph(job.vertices);
        jobs.push_back(std::move(job));
      }
      plan.job_end = jobs.size();

      if (plan.job_end > plan.job_begin || !plan.carried.empty()) {
        plans.push_back(std::move(plan));
        regions_.push_back(std::move(regions));
        continue;  // level k may be non-empty; analyze k + 1
      }
      // No region to re-run and nothing carried: level k is provably
      // empty, and by nesting every deeper level is too. Old level k was
      // already booked as invalidated above.
      invalidate_from = k + 1;
    }
    for (std::uint32_t j = invalidate_from;
         j <= static_cast<std::uint32_t>(old_levels.size()); ++j) {
      invalidated += old_levels[j - 1].size();
    }
    break;
  }

  // --- re-enumeration: every dirty region across every level, as one
  // batch on the caller's engine (or serially without one). Results are
  // byte-identical either way.
  std::vector<KvccResult> results;
  if (!jobs.empty()) {
    if (engine != nullptr) {
      std::vector<EngineJobSpec> specs;
      specs.reserve(jobs.size());
      for (const RegionJob& job : jobs) {
        specs.push_back(EngineJobSpec{&job.graph, job.k, options_});
      }
      results = engine->RunBatch(specs);
    } else {
      results.reserve(jobs.size());
      for (const RegionJob& job : jobs) {
        results.push_back(EnumerateKVccs(job.graph, job.k, options_));
      }
    }
  }
  for (const KvccResult& result : results) {
    stats_.Add(result.stats);
  }

  // --- assembly: per level, carried ∪ re-derived (mapped back to root
  // ids through each region's vertex list — a monotone map, so sorted
  // stays sorted), in the canonical lexicographic output order.
  for (std::size_t lvl = 0; lvl < plans.size(); ++lvl) {
    LevelPlan& plan = plans[lvl];
    std::vector<std::vector<VertexId>> comps = std::move(plan.carried);
    for (std::size_t j = plan.job_begin; j < plan.job_end; ++j) {
      for (const std::vector<VertexId>& local : results[j].components) {
        std::vector<VertexId> mapped;
        mapped.reserve(local.size());
        for (VertexId v : local) mapped.push_back(jobs[j].vertices[v]);
        comps.push_back(std::move(mapped));
      }
    }
    std::sort(comps.begin(), comps.end());
    if (comps.empty()) break;  // nesting: all deeper levels are empty too
    levels_.push_back(std::move(comps));
  }

  graph_ = snap.graph;
  version_ = snap.version;
  applied_seen_ += batch_.size();
  PublishHierarchy();

  IncrementalOutcome outcome;
  outcome.version = version_;
  outcome.delta_edges_applied = batch_.size();
  outcome.dirty_components = invalidated;
  outcome.incremental_reruns = jobs.size();
  outcome.dirty_levels = DiffLevels(old_levels);
  stats_.delta_edges_applied += outcome.delta_edges_applied;
  stats_.dirty_components += outcome.dirty_components;
  stats_.incremental_reruns += outcome.incremental_reruns;
  return outcome;
}

IncrementalOutcome IncrementalKvcc::Rebuild(GraphSnapshot snapshot,
                                            KvccEngine* engine,
                                            std::uint64_t applied) {
  const bool first = !Initialized();
  std::uint64_t old_total = 0;
  for (const auto& level : levels_) old_total += level.size();
  std::vector<std::vector<std::vector<VertexId>>> old_levels =
      std::move(levels_);
  levels_.clear();
  regions_.clear();  // stale against the rebuilt graph; re-primed lazily

  KvccHierarchy built =
      engine != nullptr
          ? BuildKvccHierarchy(*engine, *snapshot.graph, 0, options_)
          : BuildKvccHierarchy(*snapshot.graph, 0, options_);
  stats_.Add(built.stats);
  for (std::uint32_t k = 1; k <= built.MaxLevel(); ++k) {
    levels_.push_back(built.ComponentsAtLevel(k));
  }

  graph_ = snapshot.graph;
  version_ = snapshot.version;

  IncrementalOutcome outcome;
  outcome.version = version_;
  outcome.full_rebuild = true;
  outcome.delta_edges_applied = applied;
  outcome.dirty_components = old_total;
  outcome.incremental_reruns = first ? 0 : 1;
  outcome.dirty_levels = DiffLevels(old_levels);
  stats_.delta_edges_applied += outcome.delta_edges_applied;
  stats_.dirty_components += outcome.dirty_components;
  stats_.incremental_reruns += outcome.incremental_reruns;

  auto published = std::make_shared<KvccHierarchy>(std::move(built));
  published->stats = stats_;
  hierarchy_ = std::move(published);
  return outcome;
}

void IncrementalKvcc::PublishHierarchy() {
  // Reassemble the dendrogram from the flat per-level lists in exactly
  // the order BuildHierarchyInto constructs it: level 1 in canonical
  // (lexicographic) order, every deeper level grouped under its parent
  // in parent construction order. Within one parent the canonical order
  // of the root-id components equals the enumeration's local-id order —
  // parent vertex lists are sorted, so the id map is monotone — which
  // makes the reassembled nodes, levels, children, and cohesion arrays
  // byte-identical to a cold build's.
  auto h = std::make_shared<KvccHierarchy>();
  h->stats = stats_;
  h->cohesion_.assign(graph_->NumVertices(), 0);
  for (std::size_t lvl = 0; lvl < levels_.size(); ++lvl) {
    const std::uint32_t k = static_cast<std::uint32_t>(lvl) + 1;
    std::vector<std::size_t> level_nodes;
    // Bucket this level's components by parent node. Level 1 has a
    // single implicit parent (the root), keeping one shared code path.
    const std::vector<std::size_t> parents =
        k == 1 ? std::vector<std::size_t>{HierarchyNode::kNoParent}
               : h->levels[lvl - 1];
    std::vector<std::vector<const std::vector<VertexId>*>> buckets(
        parents.size());
    for (const std::vector<VertexId>& comp : levels_[lvl]) {
      std::size_t slot = 0;
      if (k > 1) {
        // The parent is unique: two level-(k-1) components overlap in
        // fewer than k-1 vertices, and comp has more than k of them.
        while (slot < parents.size()) {
          const std::vector<VertexId>& pv = h->nodes[parents[slot]].vertices;
          if (std::includes(pv.begin(), pv.end(), comp.begin(), comp.end())) {
            break;
          }
          ++slot;
        }
        assert(slot < parents.size());
      }
      buckets[slot].push_back(&comp);
    }
    for (std::size_t p = 0; p < parents.size(); ++p) {
      for (const std::vector<VertexId>* comp : buckets[p]) {
        HierarchyNode node;
        node.level = k;
        node.vertices = *comp;
        node.parent = parents[p];
        for (VertexId v : node.vertices) {
          h->cohesion_[v] = std::max(h->cohesion_[v], k);
        }
        const std::size_t index = h->nodes.size();
        if (node.parent != HierarchyNode::kNoParent) {
          h->nodes[node.parent].children.push_back(index);
        }
        level_nodes.push_back(index);
        h->nodes.push_back(std::move(node));
      }
    }
    h->levels.push_back(std::move(level_nodes));
  }
  hierarchy_ = std::move(h);
}

std::vector<std::uint32_t> IncrementalKvcc::DiffLevels(
    const std::vector<std::vector<std::vector<VertexId>>>& before) const {
  std::vector<std::uint32_t> dirty;
  const std::size_t depth = std::max(before.size(), levels_.size());
  static const std::vector<std::vector<VertexId>> kEmptyLevel;
  for (std::size_t lvl = 0; lvl < depth; ++lvl) {
    const auto& old_level = lvl < before.size() ? before[lvl] : kEmptyLevel;
    const auto& new_level = lvl < levels_.size() ? levels_[lvl] : kEmptyLevel;
    if (old_level != new_level) {
      dirty.push_back(static_cast<std::uint32_t>(lvl) + 1);
    }
  }
  return dirty;
}

IncrementalOutcome KvccEngine::SubmitIncremental(IncrementalKvcc& state,
                                                 const VersionedGraph& graph) {
  return state.Update(graph, this);
}

}  // namespace kvcc
