// The kvccd result cache: decomposition results and k-VCC hierarchies,
// LRU-evicted under one byte budget.
//
// Each entry is one graph. It accumulates what the server has computed
// for that graph: flat component lists per k (from decompose requests)
// and, once any hierarchy or membership request ran, the full k-VCC
// hierarchy — after which every smaller-k decomposition and per-vertex
// membership query is an index lookup, because ComponentsAtLevel(k) of a
// hierarchy equals EnumerateKVccs(g, k).components exactly (same
// components, same canonical order; pinned by tests/hierarchy_test.cc).
// kvccd renders hits and cold runs from the same data, so a cache replay
// is byte-identical NDJSON to the run that populated it
// (docs/SERVING.md).
//
// Keys are a 64-bit structural fingerprint. Fingerprints can collide, so
// a hit is honest: every entry keeps a copy of its graph and the lookup
// confirms full equality (structure + labels) before serving it — a
// collision is a miss, never a wrong answer.
#ifndef KVCC_SERVER_RESULT_CACHE_H_
#define KVCC_SERVER_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "graph/graph.h"
#include "kvcc/hierarchy.h"

/// \file
/// \brief ResultCache: LRU-with-byte-budget cache of decomposition
/// results and hierarchies, keyed by graph fingerprint with
/// collision-honest equality on hit.

namespace kvcc {
namespace server {

/// \brief One decomposition's component lists, canonically sorted.
using ComponentList = std::vector<std::vector<VertexId>>;

/// \brief 64-bit fingerprint of a graph (vertex count, edge count,
/// adjacency, and per-vertex labels), one multiply-xorshift step per value.
///
/// Labels are included because decomposition results are reported in
/// label space: two structurally equal graphs with different labels must
/// not share cache entries.
/// \param g The graph.
/// \return The fingerprint.
std::uint64_t GraphFingerprint(const Graph& g);

/// \brief Full equality: same structure and same per-vertex labels.
/// \param a First graph.
/// \param b Second graph.
/// \return Whether every query kvccd serves would answer identically on
///   the two graphs.
bool GraphIdentical(const Graph& a, const Graph& b);

/// \brief LRU cache of per-graph decomposition state under a byte
/// budget.
///
/// Thread-safe. Lookups return shared_ptrs, so an entry evicted while a
/// connection still renders from it stays alive until that connection
/// finishes. All counters are deterministic functions of the call
/// sequence.
class ResultCache {
 public:
  /// \brief Creates a cache.
  /// \param byte_budget Total budget for cached entries (graph copy +
  ///   stored results, per entry); 0 disables caching (every lookup
  ///   misses, every insert is dropped immediately by eviction).
  explicit ResultCache(std::uint64_t byte_budget);

  /// \brief Looks up the k-VCCs of `g` for one k.
  ///
  /// Served from the entry's flat list for that k if present, else
  /// derived from its hierarchy when that is deep enough (built to at
  /// least level k, or exhausted).
  /// \param g The query graph.
  /// \param k The connectivity parameter.
  /// \return The canonically sorted components, or null on miss.
  std::shared_ptr<const ComponentList> LookupComponents(const Graph& g,
                                                        std::uint32_t k);

  /// \brief Stores the k-VCCs of `g` for one k (a finished cold
  /// decompose).
  /// \param g The decomposed graph (copied into the entry).
  /// \param k The connectivity parameter.
  /// \param components The canonically sorted components.
  void InsertComponents(const Graph& g, std::uint32_t k,
                        std::shared_ptr<const ComponentList> components);

  /// \brief Looks up a hierarchy for `g` deep enough for the query.
  /// \param g The query graph.
  /// \param min_depth Deepest level the query needs. Ignored when
  ///   `need_exhausted`.
  /// \param need_exhausted The query needs the full hierarchy (built
  ///   until no components remain) — membership and unbounded hierarchy
  ///   requests.
  /// \return The cached hierarchy, or null on miss.
  std::shared_ptr<const KvccHierarchy> LookupHierarchy(const Graph& g,
                                                       std::uint32_t min_depth,
                                                       bool need_exhausted);

  /// \brief Stores (or deepens) the hierarchy for `g`.
  ///
  /// An existing hierarchy is replaced only if the new one is deeper
  /// (exhausted beats any bounded depth).
  /// \param g The decomposed graph (copied into the entry).
  /// \param hierarchy The built hierarchy.
  /// \param built_k The max_level the build was asked for.
  /// \param exhausted True if the build ran until no components remained.
  void InsertHierarchy(const Graph& g,
                       std::shared_ptr<const KvccHierarchy> hierarchy,
                       std::uint32_t built_k, bool exhausted);

  /// \brief Migrates the still-valid results of `from`'s entry to `to`
  /// after a dynamic-graph mutation.
  ///
  /// `dirty_levels` is IncrementalOutcome::dirty_levels: the exact set of
  /// levels whose component list changed. Flat per-k results for every
  /// other k are moved to (and merged into, never clobbering) the entry
  /// for `to`, so untouched (fingerprint, k) pairs keep hitting without
  /// recomputation; dirty ks are dropped — their next lookup misses. The
  /// hierarchy migrates only when no level changed at all. The old
  /// entry is removed (the superseded graph version is no longer served).
  /// Counters: no hits/misses/evictions are charged for the rekey itself;
  /// the byte budget is re-checked afterwards.
  /// \param from The pre-mutation materialized graph.
  /// \param to The post-mutation materialized graph.
  /// \param dirty_levels Levels invalidated by the mutation, ascending.
  void RekeyAfterMutation(const Graph& from, const Graph& to,
                          const std::vector<std::uint32_t>& dirty_levels);

  /// \brief Lookups that returned a result.
  /// \return The hit count (monotone).
  std::uint64_t Hits() const;
  /// \brief Lookups that returned null.
  /// \return The miss count (monotone).
  std::uint64_t Misses() const;
  /// \brief Entries evicted to hold the byte budget (in-place updates do
  /// not count).
  /// \return The eviction count (monotone).
  std::uint64_t Evictions() const;
  /// \brief Bytes currently charged against the budget.
  /// \return The total.
  std::uint64_t BytesUsed() const;
  /// \brief Graphs currently cached.
  /// \return The entry count.
  std::size_t Entries() const;

 private:
  struct Entry {
    std::uint64_t fingerprint = 0;
    Graph graph;  // collision honesty: full equality checked on hit
    // Flat per-k results from decompose requests. std::map (not
    // unordered): deterministic iteration, kvcc-lint R1.
    std::map<std::uint32_t, std::shared_ptr<const ComponentList>> flat;
    std::shared_ptr<const KvccHierarchy> hierarchy;
    std::uint32_t built_k = 0;
    bool exhausted = false;
    std::uint64_t bytes = 0;
  };
  using LruList = std::list<Entry>;

  // Finds (and front-splices) the entry for `g`, whose GraphFingerprint
  // is `fingerprint`, creating it if asked.
  // Returns lru_.end() when absent and !create. Caller holds mutex_.
  LruList::iterator TouchEntryLocked(const Graph& g,
                                     std::uint64_t fingerprint, bool create);
  static std::uint64_t EntryBytes(const Entry& entry);
  void RechargeLocked(LruList::iterator it);
  void EvictToBudgetLocked();

  const std::uint64_t byte_budget_;
  mutable std::mutex mutex_;
  LruList lru_;  // front = most recently used
  std::map<std::uint64_t, std::vector<LruList::iterator>> index_;
  std::uint64_t bytes_used_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace server
}  // namespace kvcc

#endif  // KVCC_SERVER_RESULT_CACHE_H_
