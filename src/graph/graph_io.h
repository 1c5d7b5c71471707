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
/// One serial pass parses every line with std::from_chars into a raw-id
/// pair buffer, which is compacted in place and handed whole to
/// GraphBuilder. The builder's edge sort is skipped when the pairs
/// arrive in order, as in a file that lists each edge once as `u v`
/// with u < v, sorted by u then v (what WriteEdgeList writes).
///   - vertex ids are compacted by *ascending* raw id, so labels ascend;
///   - duplicate edges collapse and self-loops contribute only their
///     endpoint's existence;
///   - a malformed line, or a raw id that does not fit in 32 bits, throws
///     std::runtime_error naming the first bad line.
/// An empty input yields the empty graph. Lines of only whitespace are
/// skipped, and tokens after the second id on a line are ignored.
Graph ReadEdgeList(std::string_view text);

/// ReadEdgeList over a file's bytes. Throws std::runtime_error naming the
/// path if it cannot be opened or is not a regular file (a directory, for
/// one), or if the file is malformed.
Graph ReadEdgeListFile(const std::string& path);

/// Writes `g` as an edge list (one `u v` pair per line, labels used as ids),
/// preceded by a `# nodes edges` comment header.
void WriteEdgeList(const Graph& g, std::ostream& out);

/// Writes `g` to a file. Throws std::runtime_error if the file cannot be
/// created.
void WriteEdgeListFile(const Graph& g, const std::string& path);

}  // namespace kvcc

#endif  // KVCC_GRAPH_GRAPH_IO_H_
