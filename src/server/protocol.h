// The kvccd wire protocol: newline-delimited JSON (NDJSON) requests and
// responses.
//
// One request per line, one or more response lines per request, ending in
// exactly one terminal line ("complete", "error", "cancelled", "pong",
// "stats", "membership"). Malformed input of any shape — truncated JSON,
// overlong lines, invalid UTF-8, wrong field types — yields one "error"
// line and leaves the connection alive (tests/kvccd_corpus_test.cc drives
// a checked-in corpus through exactly that contract). Response rendering
// is a pure function of the decomposition data and the request, never of
// timing, so a cache replay is byte-identical to the cold run that
// populated it (docs/SERVING.md).
//
// The JSON parser is deliberately minimal (objects/arrays/strings/numbers/
// bool/null, depth-capped, whole-line consumption) — requests are small
// and the server must never trust a network peer with an allocation it
// did not bound.
#ifndef KVCC_SERVER_PROTOCOL_H_
#define KVCC_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "kvcc/options.h"

/// \file
/// \brief kvccd NDJSON protocol: request parsing (bounded JSON parser)
/// and deterministic response-line rendering.

namespace kvcc {
namespace server {

/// \brief Requests larger than this are rejected with an "overlong"
/// error before parsing (1 MiB).
inline constexpr std::size_t kMaxRequestBytes = 1u << 20;

/// \brief Maximum JSON nesting depth a request may use.
inline constexpr std::size_t kMaxJsonDepth = 32;

/// \brief One parsed JSON value (objects keep declaration order, so
/// nothing here depends on hash-map iteration).
struct JsonValue {
  /// \brief JSON type tag.
  enum class Type : std::uint8_t {
    kNull,    ///< null
    kBool,    ///< true / false
    kNumber,  ///< double (integral range validated at use sites)
    kString,  ///< UTF-8 string
    kArray,   ///< [...]
    kObject,  ///< {...}
  };

  /// \brief The value's type; selects which member below is meaningful.
  Type type = Type::kNull;
  /// \brief Boolean payload (type == kBool).
  bool boolean = false;
  /// \brief Numeric payload (type == kNumber).
  double number = 0.0;
  /// \brief String payload (type == kString).
  std::string string;
  /// \brief Element payload (type == kArray).
  std::vector<JsonValue> array;
  /// \brief Element payload of an array whose elements are all two-number
  /// arrays, such as inline "edges" (type == kArray, `array` empty): one
  /// pair per element, in order, so a large edge list costs no JsonValue
  /// per endpoint.
  std::vector<std::pair<double, double>> number_pairs;
  /// \brief Member payload in declaration order (type == kObject).
  std::vector<std::pair<std::string, JsonValue>> object;

  /// \brief Looks up an object member.
  /// \param key Member name.
  /// \return The member value, or null if absent (or not an object).
  const JsonValue* Find(std::string_view key) const;
};

/// \brief Parses one complete JSON document from `text`.
///
/// The whole input must be consumed (trailing junk is an error); depth is
/// capped at kMaxJsonDepth.
/// \param text The document.
/// \param out Receives the parsed value on success.
/// \param error Receives a one-line description on failure.
/// \return Whether parsing succeeded.
bool ParseJson(std::string_view text, JsonValue& out, std::string& error);

/// \brief Validates that `text` is well-formed UTF-8.
/// \param text The bytes to check.
/// \return True iff every sequence is valid (overlong encodings and
///   surrogate code points rejected).
bool IsValidUtf8(std::string_view text);

/// \brief Escapes a string for embedding in a JSON string literal.
/// \param text Raw text.
/// \return The escaped body (no surrounding quotes).
std::string JsonEscape(std::string_view text);

/// \brief A validated kvccd request.
struct Request {
  /// \brief Request verb ("op" field).
  enum class Op : std::uint8_t {
    kPing,         ///< liveness probe -> "pong"
    kStats,        ///< server counters -> "stats"
    kDecompose,    ///< k-VCC decomposition -> components + "complete"
    kHierarchy,    ///< full dendrogram -> level lines + "complete"
    kMembership,   ///< per-vertex cohesion path -> "membership"
    kInsertEdges,  ///< mutate the dynamic graph -> "updated"
    kDeleteEdges,  ///< mutate the dynamic graph -> "updated"
    kCompact,      ///< fold the dynamic graph's delta -> "compacted"
  };

  /// \brief The request verb.
  Op op = Op::kPing;
  /// \brief True when a decompose / hierarchy / membership request
  /// targets the server's dynamic graph ("dynamic": true) instead of
  /// carrying its own graph source.
  bool dynamic = false;
  /// \brief Connectivity parameter (decompose; >= 1).
  std::uint32_t k = 0;
  /// \brief Deepest hierarchy level (hierarchy; 0 = until exhausted).
  std::uint32_t max_k = 0;
  /// \brief Queried vertex, in original-label space (membership).
  VertexId vertex = 0;
  /// \brief Server-side edge-list path ("graph"); empty if inline edges.
  std::string graph_path;
  /// \brief True if the request carried inline "edges".
  bool has_edges = false;
  /// \brief Inline edge list (valid when has_edges).
  std::vector<std::pair<VertexId, VertexId>> edges;
  /// \brief Algorithm options: variant preset plus the request's
  /// deadline_ms and priority already applied.
  KvccOptions options;
  /// \brief Emit one "progress" line per this many delivered components
  /// while a cold decomposition runs (0 = none). Replayed from cache
  /// byte-identically.
  std::uint32_t progress_every = 0;
};

/// \brief Validates a parsed JSON document as a Request.
///
/// Strict: unknown "op" values, wrong field types, missing graph sources,
/// out-of-range numbers, and unknown variant names all fail with a
/// description instead of guessing.
/// \param json The parsed request line.
/// \param out Receives the request on success.
/// \param error Receives a one-line description on failure.
/// \return Whether validation succeeded.
bool ParseRequest(const JsonValue& json, Request& out, std::string& error);

// ---- response lines --------------------------------------------------
// Every renderer is a pure function of its arguments; kvccd's byte-
// identical cache replay depends on that.

/// \brief One decomposed component.
/// \param sequence 0-based canonical index of the component.
/// \param labels The component's vertices in original-label space,
///   ordered by internal id (the canonical component order).
/// \return The NDJSON line.
std::string ComponentLine(std::uint64_t sequence,
                          const std::vector<VertexId>& labels);

/// \brief Cold-run progress heartbeat (also replayed from cache).
/// \param delivered Components delivered so far.
/// \return The NDJSON line.
std::string ProgressLine(std::uint64_t delivered);

/// \brief Terminal line of a successful decompose.
/// \param k The request's connectivity parameter.
/// \param components Number of components emitted.
/// \return The NDJSON line.
std::string DecomposeCompleteLine(std::uint32_t k, std::uint64_t components);

/// \brief One hierarchy level summary.
/// \param k The level.
/// \param components Components at that level.
/// \param largest Vertex count of the level's largest component.
/// \return The NDJSON line.
std::string LevelLine(std::uint32_t k, std::uint64_t components,
                      std::uint64_t largest);

/// \brief Terminal line of a successful hierarchy request.
/// \param levels Deepest level with components.
/// \return The NDJSON line.
std::string HierarchyCompleteLine(std::uint32_t levels);

/// \brief Terminal line of a membership query.
/// \param vertex_label The queried vertex (original-label space).
/// \param cohesion Largest k with a k-VCC containing the vertex.
/// \param path_sizes Component sizes along the containment path, level 1
///   first.
/// \return The NDJSON line.
std::string MembershipLine(VertexId vertex_label, std::uint32_t cohesion,
                           const std::vector<std::uint64_t>& path_sizes);

/// \brief Terminal error line. The connection stays alive after it.
/// \param code Stable machine-readable code ("malformed", "overlong",
///   "invalid-utf8", "bad-request", "overloaded", "graph", "internal").
/// \param message Human-readable detail (JSON-escaped here).
/// \return The NDJSON line.
std::string ErrorLine(std::string_view code, std::string_view message);

/// \brief Terminal line of a job stopped by its deadline.
/// \param op Name of the cancelled op ("decompose" / "hierarchy" /
///   "membership").
/// \param delivered Components delivered before the deadline fired.
/// \return The NDJSON line.
std::string CancelledLine(std::string_view op, std::uint64_t delivered);

/// \brief Response to "ping".
/// \return The NDJSON line.
std::string PongLine();

/// \brief Terminal line of a dynamic-graph mutation.
/// \param op The mutation verb ("insert_edges" / "delete_edges").
/// \param version Dynamic-graph version after the batch.
/// \param applied Effective deltas applied (0 = the batch was a no-op).
/// \param dirty_components Old hierarchy components invalidated by the
///   incremental re-decomposition.
/// \param reruns Dirty regions re-enumerated.
/// \return The NDJSON line.
std::string UpdatedLine(std::string_view op, std::uint64_t version,
                        std::uint64_t applied,
                        std::uint64_t dirty_components, std::uint64_t reruns);

/// \brief Terminal line of a dynamic-graph compaction.
/// \param version Dynamic-graph version (unchanged by compaction).
/// \param folded Memtable deltas folded into the base.
/// \return The NDJSON line.
std::string CompactedLine(std::uint64_t version, std::uint64_t folded);

}  // namespace server
}  // namespace kvcc

#endif  // KVCC_SERVER_PROTOCOL_H_
