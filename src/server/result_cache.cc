#include "server/result_cache.h"

#include <algorithm>
#include <utility>

namespace kvcc {
namespace server {
namespace {

constexpr std::uint64_t kSeed = 14695981039346656037ull;
constexpr std::uint64_t kMultiplier = 0x9E3779B97F4A7C15ull;  // odd

// One multiply per value; the xor-shift folds the product's high bits
// back down, so every bit of a value reaches the low bits of later words.
void Mix(std::uint64_t& hash, std::uint64_t value) {
  hash = (hash ^ value) * kMultiplier;
  hash ^= hash >> 32;
}

std::uint64_t ComponentListBytes(const ComponentList& components) {
  std::uint64_t bytes = sizeof(ComponentList);
  for (const std::vector<VertexId>& component : components) {
    bytes += sizeof(component) + component.size() * sizeof(VertexId);
  }
  return bytes;
}

}  // namespace

std::uint64_t GraphFingerprint(const Graph& g) {
  std::uint64_t hash = kSeed;
  const VertexId n = g.NumVertices();
  Mix(hash, n);
  Mix(hash, g.NumEdges());
  for (VertexId v = 0; v < n; ++v) {
    Mix(hash, g.Degree(v));
    for (const VertexId u : g.Neighbors(v)) Mix(hash, u);
    Mix(hash, g.LabelOf(v));
  }
  return hash;
}

bool GraphIdentical(const Graph& a, const Graph& b) {
  if (!a.SameStructure(b)) return false;
  const VertexId n = a.NumVertices();
  for (VertexId v = 0; v < n; ++v) {
    if (a.LabelOf(v) != b.LabelOf(v)) return false;
  }
  return true;
}

ResultCache::ResultCache(std::uint64_t byte_budget)
    : byte_budget_(byte_budget) {}

ResultCache::LruList::iterator ResultCache::TouchEntryLocked(
    const Graph& g, std::uint64_t fingerprint, bool create) {
  auto bucket = index_.find(fingerprint);
  if (bucket != index_.end()) {
    for (const LruList::iterator it : bucket->second) {
      if (!GraphIdentical(it->graph, g)) continue;  // collision
      lru_.splice(lru_.begin(), lru_, it);
      return it;
    }
  }
  if (!create) return lru_.end();
  Entry entry;
  entry.fingerprint = fingerprint;
  entry.graph = g;
  entry.bytes = EntryBytes(entry);
  lru_.push_front(std::move(entry));
  bytes_used_ += lru_.front().bytes;
  index_[fingerprint].push_back(lru_.begin());
  return lru_.begin();
}

std::uint64_t ResultCache::EntryBytes(const Entry& entry) {
  std::uint64_t bytes = sizeof(Entry) + entry.graph.MemoryBytes();
  for (const auto& [k, components] : entry.flat) {
    (void)k;
    bytes += ComponentListBytes(*components);
  }
  if (entry.hierarchy != nullptr) bytes += entry.hierarchy->MemoryBytes();
  return bytes;
}

void ResultCache::RechargeLocked(LruList::iterator it) {
  bytes_used_ -= it->bytes;
  it->bytes = EntryBytes(*it);
  bytes_used_ += it->bytes;
}

std::shared_ptr<const ComponentList> ResultCache::LookupComponents(
    const Graph& g, std::uint32_t k) {
  const std::uint64_t fingerprint = GraphFingerprint(g);
  std::lock_guard<std::mutex> lock(mutex_);
  const LruList::iterator it =
      TouchEntryLocked(g, fingerprint, /*create=*/false);
  if (it != lru_.end()) {
    const auto flat = it->flat.find(k);
    if (flat != it->flat.end()) {
      ++hits_;
      return flat->second;
    }
    if (it->hierarchy != nullptr && (it->exhausted || it->built_k >= k)) {
      ++hits_;
      return std::make_shared<const ComponentList>(
          it->hierarchy->ComponentsAtLevel(k));
    }
  }
  ++misses_;
  return nullptr;
}

void ResultCache::InsertComponents(
    const Graph& g, std::uint32_t k,
    std::shared_ptr<const ComponentList> components) {
  if (components == nullptr) return;
  const std::uint64_t fingerprint = GraphFingerprint(g);
  std::lock_guard<std::mutex> lock(mutex_);
  const LruList::iterator it =
      TouchEntryLocked(g, fingerprint, /*create=*/true);
  it->flat.insert_or_assign(k, std::move(components));
  RechargeLocked(it);
  EvictToBudgetLocked();
}

std::shared_ptr<const KvccHierarchy> ResultCache::LookupHierarchy(
    const Graph& g, std::uint32_t min_depth, bool need_exhausted) {
  const std::uint64_t fingerprint = GraphFingerprint(g);
  std::lock_guard<std::mutex> lock(mutex_);
  const LruList::iterator it =
      TouchEntryLocked(g, fingerprint, /*create=*/false);
  if (it != lru_.end() && it->hierarchy != nullptr &&
      (it->exhausted || (!need_exhausted && it->built_k >= min_depth))) {
    ++hits_;
    return it->hierarchy;
  }
  ++misses_;
  return nullptr;
}

void ResultCache::InsertHierarchy(
    const Graph& g, std::shared_ptr<const KvccHierarchy> hierarchy,
    std::uint32_t built_k, bool exhausted) {
  if (hierarchy == nullptr) return;
  const std::uint64_t fingerprint = GraphFingerprint(g);
  std::lock_guard<std::mutex> lock(mutex_);
  const LruList::iterator it =
      TouchEntryLocked(g, fingerprint, /*create=*/true);
  // Keep the deeper of the two hierarchies; a fresh shallow build never
  // clobbers a cached exhausted one.
  const bool new_deeper =
      it->hierarchy == nullptr || (exhausted && !it->exhausted) ||
      (!it->exhausted && built_k > it->built_k);
  if (new_deeper) {
    it->hierarchy = std::move(hierarchy);
    it->built_k = built_k;
    it->exhausted = exhausted;
    RechargeLocked(it);
  }
  EvictToBudgetLocked();
}

void ResultCache::RekeyAfterMutation(
    const Graph& from, const Graph& to,
    const std::vector<std::uint32_t>& dirty_levels) {
  const std::uint64_t from_fingerprint = GraphFingerprint(from);
  std::lock_guard<std::mutex> lock(mutex_);
  const LruList::iterator old_it =
      TouchEntryLocked(from, from_fingerprint, /*create=*/false);
  if (old_it == lru_.end()) return;

  // Survivors: every flat result whose level did not change, and the
  // hierarchy when no level changed at all (identical levels => the
  // rebuilt hierarchy is byte-identical).
  std::map<std::uint32_t, std::shared_ptr<const ComponentList>> surviving;
  for (const auto& [k, components] : old_it->flat) {
    if (!std::binary_search(dirty_levels.begin(), dirty_levels.end(), k)) {
      surviving.emplace(k, components);
    }
  }
  std::shared_ptr<const KvccHierarchy> hierarchy;
  std::uint32_t built_k = 0;
  bool exhausted = false;
  if (dirty_levels.empty()) {
    hierarchy = old_it->hierarchy;
    built_k = old_it->built_k;
    exhausted = old_it->exhausted;
  }

  // Drop the old entry: the superseded graph version is no longer
  // served. A rekey is not an eviction — counters stay untouched.
  const auto bucket = index_.find(old_it->fingerprint);
  std::vector<LruList::iterator>& slots = bucket->second;
  slots.erase(std::find(slots.begin(), slots.end(), old_it));
  if (slots.empty()) index_.erase(bucket);
  bytes_used_ -= old_it->bytes;
  lru_.erase(old_it);

  if (surviving.empty() && hierarchy == nullptr) return;
  // `to` is hashed here, under the lock, so a write whose old graph is
  // not cached, or keeps no result, never hashes the new graph.
  const LruList::iterator it =
      TouchEntryLocked(to, GraphFingerprint(to), /*create=*/true);
  for (auto& [k, components] : surviving) {
    // Merge, never clobber: a result already computed against `to` is at
    // least as fresh as the migrated one.
    it->flat.emplace(k, std::move(components));
  }
  if (hierarchy != nullptr && it->hierarchy == nullptr) {
    it->hierarchy = std::move(hierarchy);
    it->built_k = built_k;
    it->exhausted = exhausted;
  }
  RechargeLocked(it);
  EvictToBudgetLocked();
}

void ResultCache::EvictToBudgetLocked() {
  while (!lru_.empty() && bytes_used_ > byte_budget_) {
    const Entry& victim = lru_.back();
    const auto bucket = index_.find(victim.fingerprint);
    const auto last = std::prev(lru_.end());
    std::vector<LruList::iterator>& slots = bucket->second;
    slots.erase(std::find(slots.begin(), slots.end(), last));
    if (slots.empty()) index_.erase(bucket);
    bytes_used_ -= victim.bytes;
    lru_.pop_back();
    ++evictions_;
  }
}

std::uint64_t ResultCache::Hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::uint64_t ResultCache::Misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

std::uint64_t ResultCache::Evictions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return evictions_;
}

std::uint64_t ResultCache::BytesUsed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_used_;
}

std::size_t ResultCache::Entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

}  // namespace server
}  // namespace kvcc
