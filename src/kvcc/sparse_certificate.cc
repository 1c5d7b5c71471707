#include "kvcc/sparse_certificate.h"

#include <algorithm>
#include <limits>

namespace kvcc {

namespace {

constexpr std::uint32_t kScanned = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint32_t kNotReached = std::numeric_limits<std::uint32_t>::max();
// Marks a tree root whose tree has an edge but no group id yet.
constexpr std::uint32_t kPendingGroup = kNoGroup - 1;

void Unlink(CertificateScratch& s, VertexId v, std::uint32_t r) {
  const VertexId next = s.bucket_next[v];
  const VertexId prev = s.bucket_prev[v];
  if (prev == kInvalidVertex) {
    s.bucket_head[r] = next;
  } else {
    s.bucket_next[prev] = next;
  }
  if (next != kInvalidVertex) s.bucket_prev[next] = prev;
}

void PushFront(CertificateScratch& s, VertexId v, std::uint32_t r) {
  const VertexId head = s.bucket_head[r];
  s.bucket_next[v] = head;
  s.bucket_prev[v] = kInvalidVertex;
  if (head != kInvalidVertex) s.bucket_prev[head] = v;
  s.bucket_head[r] = v;
}

// The maximum-adjacency scan (sparse_certificate.h): fills order, position
// and limit.
void ScanMaximumAdjacency(const Graph& g, std::uint32_t k,
                          CertificateScratch& s) {
  const VertexId n = g.NumVertices();
  // A rank never exceeds n - 1, so capping at min(k, n) changes nothing
  // and bounds the bucket array.
  const auto cap = static_cast<std::uint32_t>(std::min<std::uint64_t>(k, n));
  s.rank.assign(n, 0);
  s.limit.assign(n, k == 0 ? 0 : kNotReached);
  s.order.resize(n);
  s.position.resize(n);
  s.bucket_head.assign(static_cast<std::size_t>(cap) + 1, kInvalidVertex);
  s.bucket_next.resize(n);
  s.bucket_prev.resize(n);
  for (VertexId v = 0; v < n; ++v) {
    s.bucket_next[v] = v + 1 < n ? v + 1 : kInvalidVertex;
    s.bucket_prev[v] = v > 0 ? v - 1 : kInvalidVertex;
  }
  if (n > 0) s.bucket_head[0] = 0;

  std::uint32_t top = 0;
  for (std::uint32_t p = 0; p < n; ++p) {
    while (s.bucket_head[top] == kInvalidVertex) --top;
    const VertexId x = s.bucket_head[top];
    Unlink(s, x, top);
    s.rank[x] = kScanned;
    s.order[p] = x;
    s.position[x] = p;
    for (const VertexId y : g.Neighbors(x)) {
      const std::uint32_t r = s.rank[y];
      if (r >= cap) continue;  // scanned, or its rank is already capped
      Unlink(s, y, r);
      PushFront(s, y, r + 1);
      s.rank[y] = r + 1;
      if (r + 1 == k) s.limit[y] = p + 1;
      top = std::max(top, r + 1);
    }
  }
}

// Trees of F_k, numbered by smallest member with ascending member lists.
void CollectSideGroups(VertexId n, std::uint32_t k, CertificateScratch& s,
                       SparseCertificate& out) {
  out.group_of.assign(n, kNoGroup);
  std::size_t num_groups = 0;
  auto& groups = out.groups;
  if (k > 0) {
    // A vertex whose rank reached k hangs below the vertex whose scan
    // raised it there, which was scanned earlier, so one pass in scan
    // order finds every tree's root. A root that gains a child is marked
    // pending: its tree is a group.
    auto& root = s.tree_root;
    root.resize(n);
    for (VertexId p = 0; p < n; ++p) {
      const VertexId y = s.order[p];
      if (s.limit[y] == kNotReached) {
        root[y] = y;
        continue;
      }
      root[y] = root[s.order[s.limit[y] - 1]];
      out.group_of[root[y]] = kPendingGroup;
    }
    // The ascending walk meets each tree first at its smallest member.
    for (VertexId v = 0; v < n; ++v) {
      std::uint32_t& root_group = out.group_of[root[v]];
      if (root_group == kNoGroup) continue;  // a single-vertex tree
      if (root_group == kPendingGroup) {
        root_group = static_cast<std::uint32_t>(num_groups++);
        // Recycle the inner vectors of previous builds instead of
        // reallocating one per group.
        if (root_group == groups.size()) groups.emplace_back();
        groups[root_group].clear();
      }
      out.group_of[v] = root_group;
      groups[root_group].push_back(v);
    }
  }
  groups.resize(num_groups);
}

}  // namespace

// Writes SC's rows into a reused Graph in place: the seam Graph grants
// this file, as it grants DeltaApplier (graph/delta_store.h).
class CertificateRowWriter {
 public:
  static void Write(const Graph& g, const CertificateScratch& s, Graph& out) {
    const VertexId n = g.NumVertices();
    out.num_vertices_ = n;
    out.offsets_.resize(static_cast<std::size_t>(n) + 1);
    out.adjacency_.resize(g.adjacency_.size());  // an upper bound
    const std::uint64_t kept = FilterRows(g, s, out);
    out.adjacency_.resize(kept);
    out.num_edges_ = kept / 2;
    out.labels_ = g.labels_;  // same vertex ids, so the same labels
  }

 private:
  // Every write lands in storage sized by Write above.
  // kvcc-lint: no-alloc
  static std::uint64_t FilterRows(const Graph& g, const CertificateScratch& s,
                                  Graph& out) {
    const std::uint32_t* position = s.position.data();
    const std::uint32_t* limit = s.limit.data();
    VertexId* row = out.adjacency_.data();
    std::uint64_t write = 0;
    out.offsets_[0] = 0;
    for (VertexId u = 0; u < g.NumVertices(); ++u) {
      const std::uint32_t pu = position[u];
      const std::uint32_t lu = limit[u];
      for (const VertexId w : g.Neighbors(u)) {
        const std::uint32_t pw = position[w];
        // The edge is kept iff the earlier scanned end is among the later
        // one's first k scanned neighbours. Rows stay sorted.
        row[write] = w;
        write += pw < pu ? pw < lu : pu < limit[w];
      }
      out.offsets_[static_cast<std::size_t>(u) + 1] = write;
    }
    return write;
  }
};

SparseCertificate BuildSparseCertificate(const Graph& g, std::uint32_t k) {
  SparseCertificate out;
  CertificateScratch scratch;
  BuildSparseCertificate(g, k, out, scratch);
  return out;
}

void BuildSparseCertificate(const Graph& g, std::uint32_t k,
                            SparseCertificate& out,
                            CertificateScratch& scratch) {
  ScanMaximumAdjacency(g, k, scratch);
  CertificateRowWriter::Write(g, scratch, out.certificate);
  CollectSideGroups(g.NumVertices(), k, scratch, out);
}

}  // namespace kvcc
