// Plain-text edge-list IO in the SNAP dataset format.
//
// Input lines: `u v` (whitespace separated); lines starting with '#' or '%'
// are comments. Vertex ids may be arbitrary non-negative 32-bit integers;
// they are compacted to [0, n) in ascending order and the original id is
// preserved as the vertex label.
#ifndef KVCC_GRAPH_GRAPH_IO_H_
#define KVCC_GRAPH_GRAPH_IO_H_

#include <iosfwd>
#include <string>
#include <string_view>

#include "graph/graph.h"

namespace kvcc {

/// Parses a SNAP/GAP whitespace edge list held in memory.
///
/// The buffer is split at newline boundaries into ~4 chunks per thread,
/// each parsed with std::from_chars into a thread-partitioned edge buffer;
/// the CSR is then assembled by counting sort (atomic degree count, prefix
/// sum, cursor scatter, per-row sort + dedup) instead of a global edge
/// sort. The resulting Graph is byte-identical for every `num_threads`
/// (0 = one per hardware thread):
///   - vertex ids are compacted by *ascending* raw id, so labels ascend;
///   - duplicate edges collapse and self-loops contribute only their
///     endpoint's existence;
///   - a malformed line, or a raw id that does not fit in 32 bits, throws
///     std::runtime_error naming the first bad line in file order,
///     regardless of which chunk hit it first.
/// An empty input yields the empty graph. Lines of only whitespace are
/// skipped, and tokens after the second id on a line are ignored.
Graph ReadEdgeList(std::string_view text, unsigned num_threads);

/// ReadEdgeList over a file's bytes. Throws std::runtime_error if the file
/// cannot be opened or is malformed.
Graph ReadEdgeListFile(const std::string& path, unsigned num_threads = 1);

/// Writes `g` as an edge list (one `u v` pair per line, labels used as ids),
/// preceded by a `# nodes edges` comment header.
void WriteEdgeList(const Graph& g, std::ostream& out);

/// Writes `g` to a file. Throws std::runtime_error if the file cannot be
/// created.
void WriteEdgeListFile(const Graph& g, const std::string& path);

}  // namespace kvcc

#endif  // KVCC_GRAPH_GRAPH_IO_H_
