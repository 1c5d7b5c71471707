#include "graph/graph_io.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <utility>
#include <vector>

#include "graph/graph_builder.h"

namespace kvcc {

namespace {

const char* SkipSpace(const char* p, const char* end) {
  while (p < end && (*p == ' ' || *p == '\t' || *p == '\r')) ++p;
  return p;
}

}  // namespace

Graph ReadEdgeList(std::string_view text) {
  // One parse pass: raw-id pairs in file order, self-loops kept so their
  // endpoint still exists.
  std::vector<std::pair<VertexId, VertexId>> edges;
  VertexId max_id = 0;
  std::size_t line = 0;
  const char* p = text.data();
  const char* const stop = text.data() + text.size();
  while (p < stop) {
    const char* nl = static_cast<const char*>(
        std::memchr(p, '\n', static_cast<std::size_t>(stop - p)));
    const char* const line_end = nl != nullptr ? nl : stop;
    const char* const line_begin = p;
    ++line;
    p = SkipSpace(p, line_end);
    if (p != line_end && *p != '#' && *p != '%') {
      VertexId u = 0, v = 0;
      auto [pu, eu] = std::from_chars(p, line_end, u);
      const char* q = SkipSpace(pu, line_end);
      auto [pv, ev] = std::from_chars(q, line_end, v);
      if (eu != std::errc() || ev != std::errc() || q == pu) {
        throw std::runtime_error(
            "ReadEdgeList: malformed line " + std::to_string(line) + ": '" +
            std::string(line_begin, line_end) + "'");
      }
      max_id = std::max(max_id, std::max(u, v));
      edges.emplace_back(u, v);
    }
    p = line_end == stop ? stop : line_end + 1;
  }
  if (edges.empty()) return Graph();

  // Compact raw ids to [0, n) in sorted order. Dense id spaces (at most 16
  // ids per parsed pair) take a present-bitmap + prefix scan, whose tables
  // stay within a constant factor of the edge buffer; sparser ones (raw
  // ids far beyond the edge count) fall back to sort + unique over the
  // endpoints, so a tiny file naming a huge id stays tiny. Both yield the
  // same ascending label list.
  const std::uint64_t id_space = static_cast<std::uint64_t>(max_id) + 1;
  const bool dense = id_space <= 16 * edges.size();
  std::vector<VertexId> labels;
  std::vector<VertexId> rank;  // dense path: raw id -> compact id
  if (dense) {
    std::vector<std::uint8_t> present(id_space, 0);
    for (const auto& [u, v] : edges) {
      present[u] = 1;
      present[v] = 1;
    }
    rank.resize(id_space);
    for (std::uint64_t raw = 0; raw < id_space; ++raw) {
      if (present[raw] != 0) {
        rank[raw] = static_cast<VertexId>(labels.size());
        labels.push_back(static_cast<VertexId>(raw));
      }
    }
  } else {
    labels.reserve(2 * edges.size());
    for (const auto& [u, v] : edges) {
      labels.push_back(u);
      labels.push_back(v);
    }
    std::sort(labels.begin(), labels.end());
    labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
  }
  const VertexId n = static_cast<VertexId>(labels.size());
  // Every id in [0, max_id] present: the raw ids are already compact, and
  // the labels stay implicit.
  const bool identity = labels.size() == id_space;
  if (!identity) {
    for (auto& [u, v] : edges) {
      if (dense) {
        u = rank[u];
        v = rank[v];
      } else {
        u = static_cast<VertexId>(
            std::lower_bound(labels.begin(), labels.end(), u) -
            labels.begin());
        v = static_cast<VertexId>(
            std::lower_bound(labels.begin(), labels.end(), v) -
            labels.begin());
      }
    }
  }
  std::vector<VertexId>().swap(rank);  // before the CSR arrays exist

  GraphBuilder builder(n, std::move(edges));
  if (!identity) builder.SetLabels(std::move(labels));
  return builder.Build();
}

Graph ReadEdgeListFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("ReadEdgeListFile: cannot open " + path);
  }
  // A directory opens as a stream that reads nothing, which would parse as
  // the empty graph; only a regular file (or a link to one) holds edges.
  std::error_code status_error;
  if (!std::filesystem::is_regular_file(path, status_error)) {
    throw std::runtime_error("ReadEdgeListFile: not a regular file: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = std::move(buffer).str();
  return ReadEdgeList(text);
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
