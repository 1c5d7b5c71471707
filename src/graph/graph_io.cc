#include "graph/graph_io.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstring>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "exec/task_scheduler.h"

namespace kvcc {

namespace {

// One newline-aligned slice of the input, parsed independently.
struct ChunkParse {
  std::vector<std::pair<VertexId, VertexId>> edges;  // raw ids, loops kept
  std::size_t lines = 0;       // lines scanned (including a bad one)
  std::size_t error_line = 0;  // chunk-relative 1-based; 0 = clean
  std::string error_text;
  VertexId max_id = 0;
};

const char* SkipSpace(const char* p, const char* end) {
  while (p < end && (*p == ' ' || *p == '\t' || *p == '\r')) ++p;
  return p;
}

// Parses [begin, end) of `text` (which starts at a line boundary) into
// `out`, stopping at the first malformed line.
void ParseChunk(std::string_view text, std::size_t begin, std::size_t end,
                ChunkParse& out) {
  const char* p = text.data() + begin;
  const char* const stop = text.data() + end;
  while (p < stop) {
    const char* nl = static_cast<const char*>(
        std::memchr(p, '\n', static_cast<std::size_t>(stop - p)));
    const char* const line_end = nl != nullptr ? nl : stop;
    ++out.lines;
    const char* const line_begin = p;
    p = SkipSpace(p, line_end);
    if (p == line_end || *p == '#' || *p == '%') {
      p = line_end + 1;
      continue;
    }
    VertexId u = 0, v = 0;
    auto [pu, eu] = std::from_chars(p, line_end, u);
    const char* q = SkipSpace(pu, line_end);
    auto [pv, ev] = std::from_chars(q, line_end, v);
    if (eu != std::errc() || ev != std::errc() || q == pu) {
      out.error_line = out.lines;
      out.error_text.assign(line_begin,
                            static_cast<std::size_t>(line_end - line_begin));
      return;
    }
    out.max_id = std::max(out.max_id, std::max(u, v));
    out.edges.emplace_back(u, v);
    p = line_end + 1;
  }
}

}  // namespace

Graph ReadEdgeList(std::string_view text, unsigned num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  // Newline-aligned chunk ranges, ~4 per thread so the dynamic ParallelFor
  // claim evens out skewed line lengths.
  const std::size_t target_chunks =
      num_threads > 1 ? static_cast<std::size_t>(num_threads) * 4 : 1;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  std::size_t pos = 0;
  for (std::size_t i = 1; i <= target_chunks && pos < text.size(); ++i) {
    std::size_t end =
        i == target_chunks
            ? text.size()
            : std::max(pos + 1, i * text.size() / target_chunks);
    if (end < text.size()) {
      const void* nl =
          std::memchr(text.data() + end, '\n', text.size() - end);
      end = nl != nullptr ? static_cast<std::size_t>(
                                static_cast<const char*>(nl) - text.data()) +
                                1
                          : text.size();
    }
    ranges.emplace_back(pos, end);
    pos = end;
  }

  std::vector<ChunkParse> chunks(ranges.size());
  exec::TaskScheduler* scheduler = nullptr;
  exec::TaskScheduler pool(num_threads);
  if (num_threads > 1) {
    pool.Start();
    scheduler = &pool;
  }
  const auto for_indexed = [&](std::size_t count, const auto& body) {
    if (scheduler != nullptr && count > 1) {
      scheduler->ParallelFor(count,
                             [&](std::size_t i, unsigned) { body(i); });
    } else {
      for (std::size_t i = 0; i < count; ++i) body(i);
    }
  };
  for_indexed(ranges.size(), [&](std::size_t i) {
    ParseChunk(text, ranges[i].first, ranges[i].second, chunks[i]);
  });

  // First malformed line in *file* order: chunks are in file order and a
  // clean chunk's line count is exact, so prefix-summing locates it.
  std::size_t line_prefix = 0;
  for (const ChunkParse& chunk : chunks) {
    if (chunk.error_line != 0) {
      throw std::runtime_error(
          "ReadEdgeList: malformed line " +
          std::to_string(line_prefix + chunk.error_line) + ": '" +
          chunk.error_text + "'");
    }
    line_prefix += chunk.lines;
  }

  std::size_t total_pairs = 0;
  VertexId max_id = 0;
  for (const ChunkParse& chunk : chunks) {
    total_pairs += chunk.edges.size();
    max_id = std::max(max_id, chunk.max_id);
  }
  if (total_pairs == 0) return Graph();

  // Compact raw ids to [0, n) in sorted order. Dense id spaces (at most 16
  // ids per parsed pair) take a present-bitmap + prefix scan, whose tables
  // stay within a constant factor of the edge buffers; sparser ones (raw
  // ids far beyond the edge count) fall back to sort + unique over the
  // endpoints, so a tiny file naming a huge id stays tiny. Both yield the
  // same ascending label list.
  const std::uint64_t id_space = static_cast<std::uint64_t>(max_id) + 1;
  const bool dense = id_space <= 16 * total_pairs;
  std::vector<VertexId> labels;
  std::vector<VertexId> rank;  // dense path: raw id -> compact id
  if (dense) {
    std::vector<std::uint8_t> present(id_space, 0);
    for_indexed(chunks.size(), [&](std::size_t i) {
      for (const auto& [u, v] : chunks[i].edges) {
        std::atomic_ref<std::uint8_t>(present[u])
            .store(1, std::memory_order_relaxed);
        std::atomic_ref<std::uint8_t>(present[v])
            .store(1, std::memory_order_relaxed);
      }
    });
    rank.resize(id_space);
    for (std::uint64_t raw = 0; raw < id_space; ++raw) {
      if (present[raw] != 0) {
        rank[raw] = static_cast<VertexId>(labels.size());
        labels.push_back(static_cast<VertexId>(raw));
      }
    }
  } else {
    labels.reserve(2 * total_pairs);
    for (const ChunkParse& chunk : chunks) {
      for (const auto& [u, v] : chunk.edges) {
        labels.push_back(u);
        labels.push_back(v);
      }
    }
    std::sort(labels.begin(), labels.end());
    labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
  }
  const VertexId n = static_cast<VertexId>(labels.size());
  const auto compact = [&](VertexId raw) -> VertexId {
    if (dense) return rank[raw];
    return static_cast<VertexId>(
        std::lower_bound(labels.begin(), labels.end(), raw) -
        labels.begin());
  };

  // Counting-sort CSR build: atomic degree count (duplicates included),
  // prefix sum, atomic-cursor scatter of both directions, per-row sort +
  // dedup, then one compaction pass down to the final offsets.
  std::vector<std::uint64_t> offsets(static_cast<std::size_t>(n) + 1, 0);
  for_indexed(chunks.size(), [&](std::size_t i) {
    for (const auto& [u, v] : chunks[i].edges) {
      if (u == v) continue;
      std::atomic_ref<std::uint64_t>(offsets[compact(u) + 1])
          .fetch_add(1, std::memory_order_relaxed);
      std::atomic_ref<std::uint64_t>(offsets[compact(v) + 1])
          .fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (VertexId v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  std::vector<std::uint64_t> cursor(offsets.begin(), offsets.end() - 1);
  std::vector<VertexId> adjacency(offsets[n]);
  for_indexed(chunks.size(), [&](std::size_t i) {
    for (const auto& [u, v] : chunks[i].edges) {
      if (u == v) continue;
      const VertexId cu = compact(u), cv = compact(v);
      adjacency[std::atomic_ref<std::uint64_t>(cursor[cu]).fetch_add(
          1, std::memory_order_relaxed)] = cv;
      adjacency[std::atomic_ref<std::uint64_t>(cursor[cv]).fetch_add(
          1, std::memory_order_relaxed)] = cu;
    }
  });
  // Normalize each row; record deduped lengths in `cursor` (reused).
  for_indexed(n, [&](std::size_t v) {
    const auto row_begin =
        adjacency.begin() + static_cast<std::ptrdiff_t>(offsets[v]);
    const auto row_end =
        adjacency.begin() + static_cast<std::ptrdiff_t>(offsets[v + 1]);
    std::sort(row_begin, row_end);
    cursor[v] =
        static_cast<std::uint64_t>(std::unique(row_begin, row_end) -
                                   row_begin);
  });
  // Compact duplicate slack out of the rows (serial: rows move down in
  // order, so this cannot run ahead of itself).
  std::uint64_t write = 0;
  for (VertexId v = 0; v < n; ++v) {
    const std::uint64_t row_start = offsets[v];
    const std::uint64_t row_len = cursor[v];
    if (write != row_start) {
      std::memmove(adjacency.data() + write, adjacency.data() + row_start,
                   row_len * sizeof(VertexId));
    }
    offsets[v] = write;
    write += row_len;
  }
  offsets[n] = write;
  adjacency.resize(write);

  // Identity labels stay implicit when the raw ids were already compact.
  const bool identity = [&] {
    for (VertexId v = 0; v < n; ++v) {
      if (labels[v] != v) return false;
    }
    return true;
  }();
  return Graph::FromCsr(n, std::move(offsets), std::move(adjacency),
                        identity ? std::vector<VertexId>()
                                 : std::move(labels));
}

Graph ReadEdgeListFile(const std::string& path, unsigned num_threads) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("ReadEdgeListFile: cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = std::move(buffer).str();
  return ReadEdgeList(text, num_threads);
}

void WriteEdgeList(const Graph& g, std::ostream& out) {
  out << "# nodes " << g.NumVertices() << " edges " << g.NumEdges() << "\n";
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    for (VertexId v : g.Neighbors(u)) {
      if (u < v) out << g.LabelOf(u) << ' ' << g.LabelOf(v) << "\n";
    }
  }
}

void WriteEdgeListFile(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("WriteEdgeListFile: cannot create " + path);
  }
  WriteEdgeList(g, out);
}

}  // namespace kvcc
