#include "server/protocol.h"

#include <cmath>
#include <cstdlib>
#include <limits>
#include <optional>
#include <stdexcept>

namespace kvcc {
namespace server {

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [name, value] : object) {
    if (name == key) return &value;
  }
  return nullptr;
}

namespace {

// Recursive-descent JSON parser over a string_view cursor. Every Parse*
// helper leaves `pos` just past what it consumed and reports failure by
// filling `error` and returning false.
struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  std::string* error = nullptr;

  bool Fail(const char* what) {
    *error = std::string(what) + " at byte " + std::to_string(pos);
    return false;
  }

  void SkipSpace() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\r' ||
            text[pos] == '\n')) {
      ++pos;
    }
  }

  bool Literal(std::string_view word) {
    if (text.substr(pos, word.size()) != word) return false;
    pos += word.size();
    return true;
  }

  bool ParseHex4(std::uint32_t& out) {
    if (pos + 4 > text.size()) return Fail("truncated \\u escape");
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text[pos + static_cast<std::size_t>(i)];
      out <<= 4;
      if (c >= '0' && c <= '9') {
        out |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        out |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        out |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        return Fail("bad \\u escape");
      }
    }
    pos += 4;
    return true;
  }

  static void AppendUtf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool ParseString(std::string& out) {
    if (pos >= text.size() || text[pos] != '"') {
      return Fail("expected string");
    }
    ++pos;
    out.clear();
    while (pos < text.size()) {
      const unsigned char c = static_cast<unsigned char>(text[pos]);
      if (c == '"') {
        ++pos;
        return true;
      }
      if (c < 0x20) return Fail("unescaped control character");
      if (c != '\\') {
        out.push_back(static_cast<char>(c));
        ++pos;
        continue;
      }
      ++pos;
      if (pos >= text.size()) return Fail("truncated escape");
      const char esc = text[pos++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          std::uint32_t cp = 0;
          if (!ParseHex4(cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a low surrogate must follow.
            if (!Literal("\\u")) return Fail("lone high surrogate");
            std::uint32_t low = 0;
            if (!ParseHex4(low)) return false;
            if (low < 0xDC00 || low > 0xDFFF) {
              return Fail("bad low surrogate");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Fail("lone low surrogate");
          }
          AppendUtf8(out, cp);
          break;
        }
        default:
          return Fail("unknown escape");
      }
    }
    return Fail("unterminated string");
  }

  bool IsDigit() const {
    return pos < text.size() && text[pos] >= '0' && text[pos] <= '9';
  }

  // Scans one number. Returns null on success, or what is wrong, with pos
  // at the offending byte, without touching `error`.
  const char* ScanNumber(double& out) {
    const std::size_t start = pos;
    const bool negative = pos < text.size() && text[pos] == '-';
    if (negative) ++pos;
    if (!IsDigit()) {
      pos = start;
      return "expected number";
    }
    if (text[pos] == '0') {
      ++pos;  // no leading zeros
    } else {
      while (IsDigit()) ++pos;
    }
    bool integral = true;
    if (pos < text.size() && text[pos] == '.') {
      integral = false;
      ++pos;
      if (!IsDigit()) return "digits required after decimal point";
      while (IsDigit()) ++pos;
    }
    if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
      integral = false;
      ++pos;
      if (pos < text.size() && (text[pos] == '+' || text[pos] == '-')) ++pos;
      if (!IsDigit()) return "digits required in exponent";
      while (IsDigit()) ++pos;
    }
    const std::size_t digits_start = start + (negative ? 1 : 0);
    if (integral && pos - digits_start <= 15) {
      // Below 10^15 < 2^53 every integer is a double, so this is exactly
      // what strtod returns for the token (-0 included).
      std::uint64_t value = 0;
      for (std::size_t i = digits_start; i < pos; ++i) {
        value = value * 10 + static_cast<std::uint64_t>(text[i] - '0');
      }
      out = static_cast<double>(value);
      if (negative) out = -out;
      return nullptr;
    }
    const std::string token(text.substr(start, pos - start));
    out = std::strtod(token.c_str(), nullptr);
    if (!std::isfinite(out)) return "number out of range";
    return nullptr;
  }

  bool ParseNumber(double& out) {
    const char* what = ScanNumber(out);
    return what == nullptr || Fail(what);
  }

  // Reads an array of two-number arrays, such as inline edges, from the
  // '[' at pos straight into `pairs`. On any other shape it restores pos,
  // clears `pairs` and returns false; the general path then parses (and
  // reports any error in) the same bytes, so both accept the same text.
  bool ParseNumberPairs(std::vector<std::pair<double, double>>& pairs) {
    const std::size_t start = pos;
    ++pos;
    for (;;) {
      SkipSpace();
      if (pos >= text.size() || text[pos] != '[') break;
      ++pos;
      SkipSpace();
      double first = 0;
      if (ScanNumber(first) != nullptr) break;
      SkipSpace();
      if (pos >= text.size() || text[pos] != ',') break;
      ++pos;
      SkipSpace();
      double second = 0;
      if (ScanNumber(second) != nullptr) break;
      SkipSpace();
      if (pos >= text.size() || text[pos] != ']') break;
      ++pos;
      pairs.emplace_back(first, second);
      SkipSpace();
      if (pos < text.size() && text[pos] == ',') {
        ++pos;
        continue;
      }
      if (pos < text.size() && text[pos] == ']') {
        ++pos;
        return true;
      }
      break;
    }
    pos = start;
    pairs.clear();
    return false;
  }

  bool ParseValue(JsonValue& out, std::size_t depth) {
    if (depth > kMaxJsonDepth) return Fail("nesting too deep");
    SkipSpace();
    if (pos >= text.size()) return Fail("unexpected end of input");
    const char c = text[pos];
    if (c == '{') {
      ++pos;
      out.type = JsonValue::Type::kObject;
      SkipSpace();
      if (pos < text.size() && text[pos] == '}') {
        ++pos;
        return true;
      }
      for (;;) {
        SkipSpace();
        std::string key;
        if (!ParseString(key)) return false;
        for (const auto& [existing, unused] : out.object) {
          (void)unused;
          if (existing == key) return Fail("duplicate object key");
        }
        SkipSpace();
        if (pos >= text.size() || text[pos] != ':') {
          return Fail("expected ':'");
        }
        ++pos;
        JsonValue value;
        if (!ParseValue(value, depth + 1)) return false;
        out.object.emplace_back(std::move(key), std::move(value));
        SkipSpace();
        if (pos < text.size() && text[pos] == ',') {
          ++pos;
          continue;
        }
        if (pos < text.size() && text[pos] == '}') {
          ++pos;
          return true;
        }
        return Fail("expected ',' or '}'");
      }
    }
    if (c == '[') {
      out.type = JsonValue::Type::kArray;
      // The pairs' numbers sit two levels down; where that is too deep,
      // the general path reports it.
      if (depth + 2 <= kMaxJsonDepth && ParseNumberPairs(out.number_pairs)) {
        return true;
      }
      ++pos;
      SkipSpace();
      if (pos < text.size() && text[pos] == ']') {
        ++pos;
        return true;
      }
      for (;;) {
        JsonValue element;
        if (!ParseValue(element, depth + 1)) return false;
        out.array.push_back(std::move(element));
        SkipSpace();
        if (pos < text.size() && text[pos] == ',') {
          ++pos;
          continue;
        }
        if (pos < text.size() && text[pos] == ']') {
          ++pos;
          return true;
        }
        return Fail("expected ',' or ']'");
      }
    }
    if (c == '"') {
      out.type = JsonValue::Type::kString;
      return ParseString(out.string);
    }
    if (c == 't') {
      if (!Literal("true")) return Fail("bad literal");
      out.type = JsonValue::Type::kBool;
      out.boolean = true;
      return true;
    }
    if (c == 'f') {
      if (!Literal("false")) return Fail("bad literal");
      out.type = JsonValue::Type::kBool;
      out.boolean = false;
      return true;
    }
    if (c == 'n') {
      if (!Literal("null")) return Fail("bad literal");
      out.type = JsonValue::Type::kNull;
      return true;
    }
    out.type = JsonValue::Type::kNumber;
    return ParseNumber(out.number);
  }
};

}  // namespace

bool ParseJson(std::string_view text, JsonValue& out, std::string& error) {
  Parser parser{text, 0, &error};
  out = JsonValue();
  if (!parser.ParseValue(out, 0)) return false;
  parser.SkipSpace();
  if (parser.pos != text.size()) {
    return parser.Fail("trailing characters after document");
  }
  return true;
}

bool IsValidUtf8(std::string_view text) {
  std::size_t i = 0;
  while (i < text.size()) {
    const unsigned char b0 = static_cast<unsigned char>(text[i]);
    std::size_t len = 0;
    std::uint32_t cp = 0;
    if (b0 < 0x80) {
      ++i;
      continue;
    } else if ((b0 & 0xE0) == 0xC0) {
      len = 2;
      cp = b0 & 0x1Fu;
    } else if ((b0 & 0xF0) == 0xE0) {
      len = 3;
      cp = b0 & 0x0Fu;
    } else if ((b0 & 0xF8) == 0xF0) {
      len = 4;
      cp = b0 & 0x07u;
    } else {
      return false;
    }
    if (i + len > text.size()) return false;
    for (std::size_t j = 1; j < len; ++j) {
      const unsigned char bj = static_cast<unsigned char>(text[i + j]);
      if ((bj & 0xC0) != 0x80) return false;
      cp = (cp << 6) | (bj & 0x3Fu);
    }
    // Reject overlong encodings, surrogates, and out-of-range points.
    if (len == 2 && cp < 0x80) return false;
    if (len == 3 && cp < 0x800) return false;
    if (len == 4 && cp < 0x10000) return false;
    if (cp >= 0xD800 && cp <= 0xDFFF) return false;
    if (cp > 0x10FFFF) return false;
    i += len;
  }
  return true;
}

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  static const char kHex[] = "0123456789abcdef";
  for (const char c : text) {
    const unsigned char u = static_cast<unsigned char>(c);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (u < 0x20) {
          out += "\\u00";
          out.push_back(kHex[u >> 4]);
          out.push_back(kHex[u & 0xF]);
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

namespace {

// Reads an unsigned integer field: must be a non-negative integral JSON
// number fitting `max`.
bool ReadUint(const JsonValue& json, std::string_view field,
              std::uint64_t max, std::uint64_t& out, bool& present,
              std::string& error) {
  const JsonValue* value = json.Find(field);
  present = value != nullptr;
  if (value == nullptr) return true;
  if (value->type != JsonValue::Type::kNumber) {
    error = "field '" + std::string(field) + "' must be a number";
    return false;
  }
  const double d = value->number;
  if (d < 0 || d != std::floor(d) || d > static_cast<double>(max)) {
    error = "field '" + std::string(field) + "' out of range";
    return false;
  }
  out = static_cast<std::uint64_t>(d);
  return true;
}

bool ReadString(const JsonValue& json, std::string_view field,
                std::string& out, bool& present, std::string& error) {
  const JsonValue* value = json.Find(field);
  present = value != nullptr;
  if (value == nullptr) return true;
  if (value->type != JsonValue::Type::kString) {
    error = "field '" + std::string(field) + "' must be a string";
    return false;
  }
  out = value->string;
  return true;
}

bool ReadBool(const JsonValue& json, std::string_view field, bool& out,
              bool& present, std::string& error) {
  const JsonValue* value = json.Find(field);
  present = value != nullptr;
  if (value == nullptr) return true;
  if (value->type != JsonValue::Type::kBool) {
    error = "field '" + std::string(field) + "' must be a boolean";
    return false;
  }
  out = value->boolean;
  return true;
}

bool FieldAllowed(std::string_view key, const char* const* allowed,
                  std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    if (key == allowed[i]) return true;
  }
  return false;
}

}  // namespace

bool ParseRequest(const JsonValue& json, Request& out, std::string& error) {
  out = Request();
  if (json.type != JsonValue::Type::kObject) {
    error = "request must be a JSON object";
    return false;
  }
  std::string op;
  bool present = false;
  if (!ReadString(json, "op", op, present, error)) return false;
  if (!present) {
    error = "missing field 'op'";
    return false;
  }
  static const char* const kPingFields[] = {"op"};
  static const char* const kDecomposeFields[] = {
      "op",       "k",        "graph",          "edges",
      "variant",  "priority", "deadline_ms",    "progress_every",
      "dynamic"};
  static const char* const kHierarchyFields[] = {
      "op",    "max_k",    "graph",       "edges",
      "variant", "priority", "deadline_ms", "dynamic"};
  static const char* const kMembershipFields[] = {
      "op",     "vertex",   "graph",       "edges",
      "variant", "priority", "deadline_ms", "dynamic"};
  static const char* const kMutationFields[] = {"op", "edges"};
  const char* const* allowed = kPingFields;
  std::size_t allowed_count = 1;
  bool needs_graph = true;
  bool is_mutation = false;
  if (op == "ping") {
    out.op = Request::Op::kPing;
    needs_graph = false;
  } else if (op == "stats") {
    out.op = Request::Op::kStats;
    needs_graph = false;
  } else if (op == "decompose") {
    out.op = Request::Op::kDecompose;
    allowed = kDecomposeFields;
    allowed_count = sizeof(kDecomposeFields) / sizeof(kDecomposeFields[0]);
  } else if (op == "hierarchy") {
    out.op = Request::Op::kHierarchy;
    allowed = kHierarchyFields;
    allowed_count = sizeof(kHierarchyFields) / sizeof(kHierarchyFields[0]);
  } else if (op == "membership") {
    out.op = Request::Op::kMembership;
    allowed = kMembershipFields;
    allowed_count = sizeof(kMembershipFields) / sizeof(kMembershipFields[0]);
  } else if (op == "insert_edges" || op == "delete_edges") {
    out.op = op == "insert_edges" ? Request::Op::kInsertEdges
                                  : Request::Op::kDeleteEdges;
    allowed = kMutationFields;
    allowed_count = sizeof(kMutationFields) / sizeof(kMutationFields[0]);
    needs_graph = false;
    is_mutation = true;
  } else if (op == "compact") {
    out.op = Request::Op::kCompact;
    needs_graph = false;
  } else {
    error = "unknown op '" + op + "'";
    return false;
  }
  for (const auto& [key, unused] : json.object) {
    (void)unused;
    if (!FieldAllowed(key, allowed, allowed_count)) {
      error = "unknown field '" + key + "' for op '" + op + "'";
      return false;
    }
  }

  std::uint64_t number = 0;
  if (!ReadUint(json, "k", std::numeric_limits<std::uint32_t>::max(),
                number, present, error)) {
    return false;
  }
  if (present) out.k = static_cast<std::uint32_t>(number);
  if (out.op == Request::Op::kDecompose) {
    if (!present) {
      error = "missing field 'k'";
      return false;
    }
    if (out.k < 1) {
      error = "field 'k' must be >= 1";
      return false;
    }
  }

  if (!ReadUint(json, "max_k", std::numeric_limits<std::uint32_t>::max(),
                number, present, error)) {
    return false;
  }
  if (present) out.max_k = static_cast<std::uint32_t>(number);

  if (!ReadUint(json, "vertex", kInvalidVertex - 1, number, present,
                error)) {
    return false;
  }
  if (present) out.vertex = static_cast<VertexId>(number);
  if (out.op == Request::Op::kMembership && !present) {
    error = "missing field 'vertex'";
    return false;
  }

  if (!ReadString(json, "graph", out.graph_path, present, error)) {
    return false;
  }
  const bool has_path = present && !out.graph_path.empty();
  if (present && out.graph_path.empty()) {
    error = "field 'graph' must be a non-empty path";
    return false;
  }

  const JsonValue* edges = json.Find("edges");
  if (edges != nullptr) {
    if (edges->type != JsonValue::Type::kArray) {
      error = "field 'edges' must be an array";
      return false;
    }
    out.has_edges = true;
    const auto add_edge = [&out, &error](double du, double dv) {
      const double max_id = static_cast<double>(kInvalidVertex - 1);
      if (du < 0 || dv < 0 || du != std::floor(du) ||
          dv != std::floor(dv) || du > max_id || dv > max_id) {
        error = "edge endpoint out of range";
        return false;
      }
      out.edges.emplace_back(static_cast<VertexId>(du),
                             static_cast<VertexId>(dv));
      return true;
    };
    out.edges.reserve(edges->array.size() + edges->number_pairs.size());
    for (const auto& [du, dv] : edges->number_pairs) {
      if (!add_edge(du, dv)) return false;
    }
    for (const JsonValue& edge : edges->array) {
      if (edge.type != JsonValue::Type::kArray || edge.array.size() != 2 ||
          edge.array[0].type != JsonValue::Type::kNumber ||
          edge.array[1].type != JsonValue::Type::kNumber) {
        error = "each edge must be a [u, v] number pair";
        return false;
      }
      if (!add_edge(edge.array[0].number, edge.array[1].number)) {
        return false;
      }
    }
  }
  if (is_mutation && !out.has_edges) {
    error = "missing field 'edges'";
    return false;
  }

  if (!ReadBool(json, "dynamic", out.dynamic, present, error)) return false;
  if (out.dynamic) {
    // The server's dynamic graph is the source; a request must not also
    // carry its own.
    if (has_path || out.has_edges) {
      error = "dynamic requests take no 'graph' or 'edges' source";
      return false;
    }
  } else if (needs_graph && has_path == out.has_edges) {
    error = has_path ? "give either 'graph' or 'edges', not both"
                     : "missing graph source ('graph' or 'edges')";
    return false;
  }

  std::string variant = "VCCE*";
  if (!ReadString(json, "variant", variant, present, error)) return false;
  try {
    out.options = KvccOptions::FromVariantName(variant);
  } catch (const std::invalid_argument&) {
    error = "unknown variant '" + variant + "'";
    return false;
  }

  std::string priority;
  if (!ReadString(json, "priority", priority, present, error)) return false;
  if (present) {
    const std::optional<JobPriority> parsed = JobPriorityFromName(priority);
    if (!parsed) {
      error = "unknown priority '" + priority + "'";
      return false;
    }
    out.options.priority = *parsed;
  }

  if (!ReadUint(json, "deadline_ms",
                std::numeric_limits<std::uint32_t>::max(), number, present,
                error)) {
    return false;
  }
  if (present) out.options.deadline_ms = static_cast<std::uint32_t>(number);

  if (!ReadUint(json, "progress_every",
                std::numeric_limits<std::uint32_t>::max(), number, present,
                error)) {
    return false;
  }
  if (present) out.progress_every = static_cast<std::uint32_t>(number);
  return true;
}

namespace {

void AppendUintArray(std::string& line,
                     const std::vector<std::uint64_t>& values) {
  line.push_back('[');
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) line.push_back(',');
    line += std::to_string(values[i]);
  }
  line.push_back(']');
}

}  // namespace

std::string ComponentLine(std::uint64_t sequence,
                          const std::vector<VertexId>& labels) {
  std::string line = "{\"type\":\"component\",\"seq\":";
  line += std::to_string(sequence);
  line += ",\"size\":";
  line += std::to_string(labels.size());
  line += ",\"vertices\":[";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i != 0) line.push_back(',');
    line += std::to_string(labels[i]);
  }
  line += "]}";
  return line;
}

std::string ProgressLine(std::uint64_t delivered) {
  return "{\"type\":\"progress\",\"delivered\":" +
         std::to_string(delivered) + "}";
}

std::string DecomposeCompleteLine(std::uint32_t k,
                                  std::uint64_t components) {
  return "{\"type\":\"complete\",\"op\":\"decompose\",\"k\":" +
         std::to_string(k) +
         ",\"components\":" + std::to_string(components) + "}";
}

std::string LevelLine(std::uint32_t k, std::uint64_t components,
                      std::uint64_t largest) {
  return "{\"type\":\"level\",\"k\":" + std::to_string(k) +
         ",\"components\":" + std::to_string(components) +
         ",\"largest\":" + std::to_string(largest) + "}";
}

std::string HierarchyCompleteLine(std::uint32_t levels) {
  return "{\"type\":\"complete\",\"op\":\"hierarchy\",\"levels\":" +
         std::to_string(levels) + "}";
}

std::string MembershipLine(VertexId vertex_label, std::uint32_t cohesion,
                           const std::vector<std::uint64_t>& path_sizes) {
  std::string line = "{\"type\":\"membership\",\"vertex\":";
  line += std::to_string(vertex_label);
  line += ",\"cohesion\":";
  line += std::to_string(cohesion);
  line += ",\"path_sizes\":";
  AppendUintArray(line, path_sizes);
  line.push_back('}');
  return line;
}

std::string ErrorLine(std::string_view code, std::string_view message) {
  return "{\"type\":\"error\",\"code\":\"" + JsonEscape(code) +
         "\",\"message\":\"" + JsonEscape(message) + "\"}";
}

std::string CancelledLine(std::string_view op, std::uint64_t delivered) {
  return "{\"type\":\"cancelled\",\"op\":\"" + JsonEscape(op) +
         "\",\"delivered\":" + std::to_string(delivered) + "}";
}

std::string PongLine() { return "{\"type\":\"pong\"}"; }

std::string UpdatedLine(std::string_view op, std::uint64_t version,
                        std::uint64_t applied,
                        std::uint64_t dirty_components,
                        std::uint64_t reruns) {
  return "{\"type\":\"updated\",\"op\":\"" + JsonEscape(op) +
         "\",\"version\":" + std::to_string(version) +
         ",\"applied\":" + std::to_string(applied) +
         ",\"dirty_components\":" + std::to_string(dirty_components) +
         ",\"reruns\":" + std::to_string(reruns) + "}";
}

std::string CompactedLine(std::uint64_t version, std::uint64_t folded) {
  return "{\"type\":\"compacted\",\"version\":" + std::to_string(version) +
         ",\"delta_folded\":" + std::to_string(folded) + "}";
}

}  // namespace server
}  // namespace kvcc
