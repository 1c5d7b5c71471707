// Deterministic in-process protocol tests for kvccd: the full request ->
// admission -> cache -> engine -> stream path over LoopbackEndpoint
// transports. No real sockets and no sleeps anywhere — every "wait until
// the server is stuck" step is the loopback's condition-variable hook
// (WaitUntilPeerBlockedWriting), so the scenarios are reproducible under
// any scheduler and any sanitizer.
#include "server/kvccd.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gen/fixtures.h"
#include "graph/graph.h"
#include "graph/graph_io.h"
#include "kvcc/hierarchy.h"
#include "kvcc/kvcc_enum.h"
#include "server/protocol.h"
#include "server/transport.h"

namespace kvcc {
namespace {

using server::KvccdConfig;
using server::KvccdServer;
using server::LoopbackPair;
using server::MakeLoopbackPair;

/// One server plus one loopback connection being served on its own
/// thread. Destroying the harness closes the connection and joins.
class Connection {
 public:
  Connection(KvccdServer& daemon, std::size_t client_to_server_capacity = 0,
             std::size_t server_to_client_capacity = 0)
      : pair_(MakeLoopbackPair(client_to_server_capacity,
                               server_to_client_capacity)),
        thread_([this, &daemon] { daemon.ServeConnection(*pair_.server); }) {}

  ~Connection() { Disconnect(); }

  server::LoopbackEndpoint& client() { return *pair_.client; }

  /// Sends one request line.
  bool Send(const std::string& line) {
    return pair_.client->WriteLine(line);
  }

  /// Reads response lines through the request's terminal line.
  std::vector<std::string> ReadResponse() {
    std::vector<std::string> lines;
    std::string line;
    while (pair_.client->ReadLine(line)) {
      lines.push_back(line);
      if (line.rfind("{\"type\":\"component\"", 0) == 0) continue;
      if (line.rfind("{\"type\":\"progress\"", 0) == 0) continue;
      if (line.rfind("{\"type\":\"level\"", 0) == 0) continue;
      break;
    }
    return lines;
  }

  std::vector<std::string> Roundtrip(const std::string& request) {
    EXPECT_TRUE(Send(request));
    return ReadResponse();
  }

  /// Closes the client end and joins the serving thread.
  void Disconnect() {
    pair_.client->Close();
    if (thread_.joinable()) thread_.join();
  }

 private:
  LoopbackPair pair_;
  std::thread thread_;
};

/// The graph's edges as the request's inline "edges" JSON array.
std::string EdgesJson(const Graph& g) {
  std::string json = "[";
  bool first = true;
  for (const auto& [u, v] : g.Edges()) {
    if (!first) json.push_back(',');
    first = false;
    json += "[" + std::to_string(u) + "," + std::to_string(v) + "]";
  }
  json.push_back(']');
  return json;
}

/// `count` disjoint triangles: count 2-VCCs at k=2, one per triangle.
Graph DisjointTriangles(VertexId count) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId t = 0; t < count; ++t) {
    const VertexId base = 3 * t;
    edges.emplace_back(base, base + 1);
    edges.emplace_back(base + 1, base + 2);
    edges.emplace_back(base, base + 2);
  }
  return Graph::FromEdges(3 * count, edges);
}

/// The exact NDJSON lines a decompose response must contain (no
/// progress requested).
std::vector<std::string> ExpectedDecomposeLines(const Graph& g,
                                                std::uint32_t k) {
  const KvccResult result = EnumerateKVccs(g, k);
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < result.components.size(); ++i) {
    lines.push_back(server::ComponentLine(i, result.components[i]));
  }
  lines.push_back(
      server::DecomposeCompleteLine(k, result.components.size()));
  return lines;
}

/// Writes `text` to `name` under the test temp dir; returns the path.
std::string WriteTempFile(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream(path) << text;
  return path;
}

/// A decompose request naming a server-side edge-list file.
std::string PathDecompose(const std::string& path, std::uint32_t k) {
  return "{\"op\":\"decompose\",\"k\":" + std::to_string(k) +
         ",\"graph\":\"" + path + "\"}";
}

TEST(KvccdProtocolTest, PingPongAndStats) {
  KvccdServer daemon;
  Connection conn(daemon);
  EXPECT_EQ(conn.Roundtrip("{\"op\":\"ping\"}"),
            std::vector<std::string>{"{\"type\":\"pong\"}"});
  const std::vector<std::string> stats =
      conn.Roundtrip("{\"op\":\"stats\"}");
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].rfind("{\"type\":\"stats\"", 0), 0u);
}

TEST(KvccdProtocolTest, ParseErrorsKeepConnectionAlive) {
  KvccdServer daemon;
  Connection conn(daemon);
  const std::vector<std::pair<std::string, std::string>> probes = {
      {"{\"op\":\"ping\"", "malformed"},          // truncated JSON
      {"not json at all", "malformed"},            // not JSON
      {"{\"op\":\"warp\"}", "bad-request"},       // unknown op
      {"{\"op\":\"decompose\",\"k\":2}", "bad-request"},  // no graph
  };
  for (const auto& [request, code] : probes) {
    const std::vector<std::string> response = conn.Roundtrip(request);
    ASSERT_EQ(response.size(), 1u) << request;
    EXPECT_EQ(response[0].rfind("{\"type\":\"error\",\"code\":\"" + code +
                                    "\"",
                                0),
              0u)
        << request << " -> " << response[0];
  }
  // Still alive after every error.
  EXPECT_EQ(conn.Roundtrip("{\"op\":\"ping\"}"),
            std::vector<std::string>{"{\"type\":\"pong\"}"});
}

// Inline edge lists take the parser's pair path; anything else falls back
// to the general path. Either way a request must parse to the same edges,
// or fail with the same message, as any other JSON array would.
TEST(KvccdProtocolTest, InlineEdgesParseLikeAnyArray) {
  using Edges = std::vector<std::pair<VertexId, VertexId>>;
  const auto parse = [](const std::string& line, Edges& edges) {
    server::JsonValue json;
    server::Request request;
    std::string error;
    if (!server::ParseJson(line, json, error)) return "malformed: " + error;
    if (!server::ParseRequest(json, request, error)) return "bad: " + error;
    edges = request.edges;
    return std::string("ok");
  };
  const std::string head = "{\"op\":\"decompose\",\"k\":2,\"edges\":";
  const std::vector<std::pair<std::string, Edges>> accepted = {
      {"[ [0 , 1] ,[1,2],[ 2,0 ] ]}", {{0, 1}, {1, 2}, {2, 0}}},
      {"[[0,1.0],[1e0,2],[-0,2]]}", {{0, 1}, {1, 2}, {0, 2}}},
      {"[[0,1],[1,1e-400]]}", {{0, 1}, {1, 0}}},
      {"[]}", {}},
  };
  for (const auto& [tail, expected] : accepted) {
    Edges edges = {{7, 7}};
    EXPECT_EQ(parse(head + tail, edges), "ok") << tail;
    EXPECT_EQ(edges, expected) << tail;
  }
  const std::vector<std::pair<std::string, std::string>> rejected = {
      {"[[0,1],[1,2],[2]]}", "bad: each edge must be a [u, v] number pair"},
      {"[[0,1],[1,2],[2,0.5]]}", "bad: edge endpoint out of range"},
      {"[[0,1],[1,2],[2,0],]}", "malformed: expected number at byte 51"},
      {"[[0,1],[1,2]", "malformed: expected ',' or ']' at byte 44"},
      {"[[0,1],[1,1e400]]}", "malformed: number out of range at byte 47"},
  };
  for (const auto& [tail, message] : rejected) {
    Edges edges;
    EXPECT_EQ(parse(head + tail, edges), message) << tail;
  }
  // A pair list's numbers sit two levels below it, so the depth cap falls
  // on the same byte as for any other nesting.
  const auto nest = [](std::size_t depth) {
    return std::string(depth, '[') + "[0,1]" + std::string(depth, ']');
  };
  Edges edges;
  EXPECT_EQ(parse(nest(31), edges), "bad: request must be a JSON object");
  EXPECT_EQ(parse(nest(32), edges), "malformed: nesting too deep at byte 33");
}

TEST(KvccdProtocolTest, DecomposeMatchesDirectEnumeration) {
  KvccdServer daemon;
  Connection conn(daemon);
  const Graph g = TwoCliquesSharing(5, 2);
  const std::string request =
      "{\"op\":\"decompose\",\"k\":3,\"edges\":" + EdgesJson(g) + "}";
  EXPECT_EQ(conn.Roundtrip(request), ExpectedDecomposeLines(g, 3));
}

TEST(KvccdProtocolTest, PathReadMatchesLibraryAndReplaysFromCache) {
  // Two K4s sharing raw id 500, with sparse raw ids listed out of order.
  const std::string path = WriteTempFile(
      "kvccd_path_read.el",
      "# two K4s sharing one vertex\n"
      "900000 12\n500 77\n12 500\n77 900000\n900000 500\n12 77\n"
      "500 31\n4100000000 500\n31 65\n65 4100000000\n31 4100000000\n"
      "65 500\n");
  const std::vector<std::string> expected =
      ExpectedDecomposeLines(ReadEdgeListFile(path), 3);
  ASSERT_EQ(expected.size(), 3u);
  // Vertices are numbered by ascending raw id: 12 31 65 77 500 900000
  // 4100000000 become 0..6.
  EXPECT_EQ(expected[0], server::ComponentLine(0, {0, 3, 4, 5}));
  EXPECT_EQ(expected[1], server::ComponentLine(1, {1, 2, 4, 6}));

  KvccdServer daemon;
  Connection conn(daemon);
  const std::string request = PathDecompose(path, 3);
  EXPECT_EQ(conn.Roundtrip(request), expected);
  const std::uint64_t hits = daemon.Cache().Hits();
  EXPECT_EQ(conn.Roundtrip(request), expected);
  EXPECT_EQ(daemon.Cache().Hits(), hits + 1);
  std::remove(path.c_str());
}

TEST(KvccdProtocolTest, PathRewrittenInPlaceIsReadAfresh) {
  // Same path, same byte length, different edges: two K4s sharing vertex
  // 3, then a K5 with a tail. The file is re-read on every request, so
  // the second answer is the new graph's, booked as a cache miss.
  const std::string before =
      "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n3 4\n3 5\n3 6\n4 5\n4 6\n5 6\n";
  const std::string after =
      "0 1\n0 2\n0 3\n0 4\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n4 5\n5 6\n";
  ASSERT_EQ(before.size(), after.size());
  const std::string path = WriteTempFile("kvccd_rewritten.el", before);
  const std::vector<std::string> expected_before =
      ExpectedDecomposeLines(ReadEdgeList(before), 3);
  const std::vector<std::string> expected_after =
      ExpectedDecomposeLines(ReadEdgeList(after), 3);
  ASSERT_EQ(expected_before.size(), 3u);
  ASSERT_EQ(expected_after.size(), 2u);

  KvccdServer daemon;
  Connection conn(daemon);
  const std::string request = PathDecompose(path, 3);
  EXPECT_EQ(conn.Roundtrip(request), expected_before);
  WriteTempFile("kvccd_rewritten.el", after);
  const std::uint64_t hits = daemon.Cache().Hits();
  const std::uint64_t misses = daemon.Cache().Misses();
  EXPECT_EQ(conn.Roundtrip(request), expected_after);
  EXPECT_EQ(daemon.Cache().Hits(), hits);
  EXPECT_EQ(daemon.Cache().Misses(), misses + 1);
  std::remove(path.c_str());
}

TEST(KvccdProtocolTest, PathReadErrorsKeepConnectionAlive) {
  const std::string missing = ::testing::TempDir() + "/kvccd_missing.el";
  std::remove(missing.c_str());
  const std::vector<std::string> paths = {
      WriteTempFile("kvccd_malformed.el", "1 2\nnot an edge\n"),
      WriteTempFile("kvccd_wide_id.el", "1 2\n1 4294967296\n"),  // > 32 bits
      missing,
  };
  KvccdServer daemon;
  Connection conn(daemon);
  for (const std::string& path : paths) {
    const std::vector<std::string> response =
        conn.Roundtrip(PathDecompose(path, 2));
    ASSERT_EQ(response.size(), 1u) << path;
    EXPECT_EQ(response[0].rfind("{\"type\":\"error\",\"code\":\"graph\"", 0),
              0u)
        << path << " -> " << response[0];
    EXPECT_EQ(conn.Roundtrip("{\"op\":\"ping\"}"),
              std::vector<std::string>{"{\"type\":\"pong\"}"});
  }
  for (const std::string& path : paths) std::remove(path.c_str());
}

TEST(KvccdProtocolTest, PathNamingADirectoryIsAGraphError) {
  // A directory must not load as the empty graph (zero components); the
  // request gets a graph error naming it, and the connection serves the
  // next request.
  const std::string dir = ::testing::TempDir() + "/kvccd_dir_input";
  std::filesystem::create_directories(dir);
  const std::string file =
      WriteTempFile("kvccd_after_dir.el",
                    "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n3 4\n3 5\n3 6\n"
                    "4 5\n4 6\n5 6\n");
  KvccdServer daemon;
  Connection conn(daemon);
  const std::vector<std::string> response =
      conn.Roundtrip(PathDecompose(dir, 3));
  ASSERT_EQ(response.size(), 1u);
  EXPECT_EQ(response[0].rfind("{\"type\":\"error\",\"code\":\"graph\"", 0), 0u)
      << response[0];
  EXPECT_NE(response[0].find(dir), std::string::npos) << response[0];
  EXPECT_EQ(conn.Roundtrip(PathDecompose(file, 3)),
            ExpectedDecomposeLines(ReadEdgeListFile(file), 3));
  std::remove(file.c_str());
  std::filesystem::remove(dir);
}

TEST(KvccdProtocolTest, CachedReplayIsByteIdentical) {
  KvccdServer daemon;
  Connection conn(daemon);
  const Graph g = DisjointTriangles(5);
  const std::string request =
      "{\"op\":\"decompose\",\"k\":2,\"progress_every\":2,\"edges\":" +
      EdgesJson(g) + "}";
  const std::vector<std::string> cold = conn.Roundtrip(request);
  EXPECT_EQ(daemon.Cache().Hits(), 0u);
  const std::vector<std::string> cached = conn.Roundtrip(request);
  EXPECT_EQ(daemon.Cache().Hits(), 1u);
  EXPECT_EQ(cold, cached);
  // The cold run interleaved progress lines; sanity-check they exist and
  // replay regenerated them.
  EXPECT_EQ(cold[0], server::ProgressLine(2));
}

TEST(KvccdProtocolTest, HierarchyAnswersSmallerKFromCache) {
  KvccdServer daemon;
  Connection conn(daemon);
  const Graph g = TwoCliquesSharing(6, 3);
  const std::string edges = EdgesJson(g);
  // Build the full hierarchy once...
  const std::vector<std::string> levels =
      conn.Roundtrip("{\"op\":\"hierarchy\",\"edges\":" + edges + "}");
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.back().rfind("{\"type\":\"complete\",\"op\":"
                                "\"hierarchy\"",
                                0),
            0u);
  const std::uint64_t misses_after_build = daemon.Cache().Misses();
  // ...then every smaller-k decompose is a cache hit, byte-identical to
  // a fresh server's cold enumeration.
  for (std::uint32_t k = 1; k <= 4; ++k) {
    const std::string request = "{\"op\":\"decompose\",\"k\":" +
                                std::to_string(k) + ",\"edges\":" + edges +
                                "}";
    EXPECT_EQ(conn.Roundtrip(request), ExpectedDecomposeLines(g, k))
        << "k=" << k;
  }
  EXPECT_EQ(daemon.Cache().Misses(), misses_after_build);
  EXPECT_GE(daemon.Cache().Hits(), 4u);
}

TEST(KvccdProtocolTest, MembershipServedFromCachedHierarchy) {
  KvccdServer daemon;
  Connection conn(daemon);
  const Graph g = TwoCliquesSharing(5, 2);  // 8 vertices, cliques of 5
  const std::string edges = EdgesJson(g);
  const std::vector<std::string> first = conn.Roundtrip(
      "{\"op\":\"membership\",\"vertex\":0,\"edges\":" + edges + "}");
  ASSERT_EQ(first.size(), 1u);
  // Consistency with the library's own hierarchy.
  const KvccHierarchy h = BuildKvccHierarchy(g);
  EXPECT_EQ(first[0],
            server::MembershipLine(0, h.CohesionOf(0), h.PathOf(0)));
  // The second vertex's query reuses the cached hierarchy: no new miss.
  const std::uint64_t misses = daemon.Cache().Misses();
  const std::vector<std::string> second = conn.Roundtrip(
      "{\"op\":\"membership\",\"vertex\":7,\"edges\":" + edges + "}");
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0],
            server::MembershipLine(7, h.CohesionOf(7), h.PathOf(7)));
  EXPECT_EQ(daemon.Cache().Misses(), misses);
}

TEST(KvccdProtocolTest, DisconnectMidStreamFiresCancel) {
  KvccdServer daemon;
  // Response queue of one line: the server's second progress write
  // blocks until the client reads or disconnects.
  Connection conn(daemon, /*client_to_server_capacity=*/0,
                  /*server_to_client_capacity=*/1);
  const Graph g = DisjointTriangles(8);
  ASSERT_TRUE(conn.Send(
      "{\"op\":\"decompose\",\"k\":2,\"progress_every\":1,\"edges\":" +
      EdgesJson(g) + "}"));
  // Provably parked: the server thread is inside WriteLine on our full
  // receive queue. (The deterministic stand-in for a stalled TCP window.)
  ASSERT_TRUE(conn.client().WaitUntilPeerBlockedWriting());
  EXPECT_EQ(daemon.DisconnectCancels(), 0u);
  // Disconnect exactly at that point. The blocked write fails, the
  // handler returns, and the abandoned ResultStream fires the job's
  // cancel token.
  conn.Disconnect();
  EXPECT_EQ(daemon.DisconnectCancels(), 1u);
  // The engine survives the cancelled job and the server keeps serving.
  Connection conn2(daemon);
  EXPECT_EQ(conn2.Roundtrip("{\"op\":\"ping\"}"),
            std::vector<std::string>{"{\"type\":\"pong\"}"});
}

TEST(KvccdProtocolTest, ReaderThatStopsDoesNotStallOtherConnections) {
  // One engine worker, the default. Connection A asks for 200 components
  // with a progress line each over a one-line response queue and stops
  // reading, so its connection thread parks in WriteLine. A decompose job
  // streams unbounded, so the worker is not parked with it: it finishes
  // A's job and serves connection B.
  KvccdServer daemon;
  Connection a(daemon, /*client_to_server_capacity=*/0,
               /*server_to_client_capacity=*/1);
  ASSERT_TRUE(a.Send(
      "{\"op\":\"decompose\",\"k\":2,\"progress_every\":1,\"edges\":" +
      EdgesJson(DisjointTriangles(200)) + "}"));
  ASSERT_TRUE(a.client().WaitUntilPeerBlockedWriting());

  const Graph g = DisjointTriangles(4);
  Connection b(daemon);
  std::future<std::vector<std::string>> answer =
      std::async(std::launch::async, [&b, &g] {
        return b.Roundtrip("{\"op\":\"decompose\",\"k\":2,\"edges\":" +
                           EdgesJson(g) + "}");
      });
  // A stall fails here instead of hanging the test: A's disconnect below
  // would release a parked worker, and B would then finish late.
  EXPECT_EQ(answer.wait_for(std::chrono::seconds(10)),
            std::future_status::ready)
      << "B's decompose waited on A's unread stream";
  a.Disconnect();
  EXPECT_EQ(answer.get(), ExpectedDecomposeLines(g, 2));
}

TEST(KvccdProtocolTest, DeadlineExpiryEmitsCancelledLine) {
  KvccdServer daemon;
  Connection conn(daemon);
  // Large enough that a 1 ms budget reliably expires mid-enumeration on
  // any hardware (one 2-connected grid: thousands of flow probes).
  const Graph g = GridGraph(120, 120);
  const std::vector<std::string> response = conn.Roundtrip(
      "{\"op\":\"decompose\",\"k\":2,\"deadline_ms\":1,\"edges\":" +
      EdgesJson(g) + "}");
  ASSERT_EQ(response.size(), 1u);
  EXPECT_EQ(response[0], server::CancelledLine("decompose", 0));
  EXPECT_EQ(daemon.DeadlineCancels(), 1u);
  // The connection survives a cancelled job.
  EXPECT_EQ(conn.Roundtrip("{\"op\":\"ping\"}"),
            std::vector<std::string>{"{\"type\":\"pong\"}"});
}

TEST(KvccdProtocolTest, BulkShedsFirstUnderAdmissionPressure) {
  KvccdConfig config;
  config.admission.max_total = 2;
  config.admission.bulk_reserve = 1;
  KvccdServer daemon(config);
  const Graph g = DisjointTriangles(4);
  const std::string edges = EdgesJson(g);

  // Connection A parks mid-decompose holding one admission slot: its
  // second progress write blocks on the one-line response queue.
  Connection a(daemon, 0, /*server_to_client_capacity=*/1);
  ASSERT_TRUE(a.Send(
      "{\"op\":\"decompose\",\"k\":2,\"progress_every\":1,\"edges\":" +
      edges + "}"));
  ASSERT_TRUE(a.client().WaitUntilPeerBlockedWriting());
  EXPECT_EQ(daemon.Admission().Running(), 1u);

  // With 1 of 2 total slots used and 1 reserved away from bulk, a bulk
  // request is shed...
  Connection b(daemon);
  const std::vector<std::string> shed = b.Roundtrip(
      "{\"op\":\"decompose\",\"k\":2,\"priority\":\"bulk\",\"edges\":" +
      edges + "}");
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0].rfind("{\"type\":\"error\",\"code\":\"overloaded\"", 0),
            0u);
  EXPECT_EQ(daemon.Admission().BulkShed(), 1u);

  // ...while a normal request in the same state is admitted and served.
  EXPECT_EQ(b.Roundtrip("{\"op\":\"decompose\",\"k\":2,\"edges\":" + edges +
                        "}"),
            ExpectedDecomposeLines(g, 2));
  EXPECT_EQ(daemon.Admission().JobsShed(), 1u);

  // Release A; with the slot free, bulk is admitted again.
  a.Disconnect();
  EXPECT_EQ(b.Roundtrip(
                "{\"op\":\"decompose\",\"k\":2,\"priority\":\"bulk\","
                "\"edges\":" +
                edges + "}"),
            ExpectedDecomposeLines(g, 2));
}

TEST(KvccdProtocolTest, StatsCountersReplayIdentically) {
  // The same request sequence against two fresh servers must produce the
  // same stats line — counters are functions of the sequence, not of
  // timing.
  const Graph g = DisjointTriangles(3);
  const std::vector<std::string> script = {
      "{\"op\":\"ping\"}",
      "{\"op\":\"decompose\",\"k\":2,\"edges\":" + EdgesJson(g) + "}",
      "{\"op\":\"decompose\",\"k\":2,\"edges\":" + EdgesJson(g) + "}",
      "{\"op\":\"oops\"}",
      "{\"op\":\"membership\",\"vertex\":1,\"edges\":" + EdgesJson(g) + "}",
  };
  std::vector<std::string> stats_lines;
  for (int run = 0; run < 2; ++run) {
    KvccdServer daemon;
    Connection conn(daemon);
    for (const std::string& request : script) {
      conn.Roundtrip(request);
    }
    // Sample over the connection, as a client would, without joining the
    // serving thread: every request releases its admission slot before
    // its terminal line is written, so once the client has read that line
    // the "running" gauge is settled.
    const std::vector<std::string> stats =
        conn.Roundtrip("{\"op\":\"stats\"}");
    ASSERT_EQ(stats.size(), 1u);
    stats_lines.push_back(stats[0]);
  }
  EXPECT_EQ(stats_lines[0], stats_lines[1]);
  EXPECT_NE(stats_lines[0].find("\"cache_hits\":1"), std::string::npos)
      << stats_lines[0];
  EXPECT_NE(stats_lines[0].find("\"running\":0"), std::string::npos)
      << stats_lines[0];
}

/// A scripted connection served on the calling thread: ReadLine hands out
/// the given request lines, then EOF; WriteLine records each response
/// line with the daemon's admission gauge at the moment it is written.
class GaugeRecordingTransport : public server::Transport {
 public:
  GaugeRecordingTransport(const KvccdServer& daemon,
                          std::vector<std::string> requests)
      : daemon_(daemon), requests_(std::move(requests)) {}

  bool ReadLine(std::string& line) override {
    if (next_ == requests_.size()) return false;
    line = requests_[next_++];
    return true;
  }
  bool WriteLine(const std::string& line) override {
    written.emplace_back(line, daemon_.Admission().Running());
    return true;
  }
  void Close() override {}

  std::vector<std::pair<std::string, std::uint32_t>> written;

 private:
  const KvccdServer& daemon_;
  std::vector<std::string> requests_;
  std::size_t next_ = 0;
};

TEST(KvccdProtocolTest, AdmissionSlotIsFreeWhenTerminalLineIsWritten) {
  // A client that has read a response's terminal line must not see the
  // request still running: every admitted request holds its slot while
  // it streams, and releases it before its last line goes out.
  KvccdServer daemon;
  const std::string edges = EdgesJson(DisjointTriangles(3));
  GaugeRecordingTransport transport(
      daemon,
      {"{\"op\":\"decompose\",\"k\":2,\"edges\":" + edges + "}",
       "{\"op\":\"decompose\",\"k\":2,\"edges\":" + edges + "}",
       "{\"op\":\"hierarchy\",\"edges\":" + edges + "}",
       "{\"op\":\"membership\",\"vertex\":1,\"edges\":" + edges + "}",
       "{\"op\":\"insert_edges\",\"edges\":" + edges + "}",
       "{\"op\":\"decompose\",\"k\":2,\"dynamic\":true}",
       "{\"op\":\"compact\"}"});
  daemon.ServeConnection(transport);

  std::size_t streamed = 0;
  std::size_t terminal = 0;
  for (const auto& [line, running] : transport.written) {
    if (line.rfind("{\"type\":\"component\"", 0) == 0 ||
        line.rfind("{\"type\":\"level\"", 0) == 0) {
      EXPECT_EQ(running, 1u) << line;
      ++streamed;
    } else {
      EXPECT_EQ(running, 0u) << line;
      ++terminal;
    }
  }
  EXPECT_GT(streamed, 0u);
  EXPECT_EQ(terminal, 7u);
}

TEST(KvccdProtocolTest, MalformedMutationLinesKeepConnectionAlive) {
  KvccdServer daemon;
  Connection conn(daemon);
  const std::vector<std::pair<std::string, std::string>> probes = {
      {"{\"op\":\"insert_edges\",\"edges\":[[0,1", "malformed"},
      {"{\"op\":\"insert_edges\"}", "bad-request"},
      {"{\"op\":\"delete_edges\",\"edges\":\"all\"}", "bad-request"},
      {"{\"op\":\"compact\",\"k\":2}", "bad-request"},
      {"{\"op\":\"decompose\",\"k\":2,\"dynamic\":true,"
       "\"edges\":[[0,1]]}",
       "bad-request"},
  };
  for (const auto& [request, code] : probes) {
    const std::vector<std::string> response = conn.Roundtrip(request);
    ASSERT_EQ(response.size(), 1u) << request;
    EXPECT_EQ(response[0].rfind(
                  "{\"type\":\"error\",\"code\":\"" + code + "\"", 0),
              0u)
        << request << " -> " << response[0];
  }
  // The connection survives every rejected mutation, and a well-formed
  // one still lands.
  const std::vector<std::string> updated = conn.Roundtrip(
      "{\"op\":\"insert_edges\",\"edges\":[[0,1],[1,2],[0,2]]}");
  ASSERT_EQ(updated.size(), 1u);
  EXPECT_EQ(updated[0].rfind("{\"type\":\"updated\",\"op\":\"insert_edges\","
                             "\"version\":1,\"applied\":3",
                             0),
            0u)
      << updated[0];
}

TEST(KvccdProtocolTest, MutationInvalidatesExactlyTheDirtyCacheEntries) {
  KvccdServer daemon;
  Connection conn(daemon);
  const Graph g = DisjointTriangles(3);  // vertices 0..8

  // Load the dynamic graph and decompose it at k=1 and k=2.
  const std::vector<std::string> loaded = conn.Roundtrip(
      "{\"op\":\"insert_edges\",\"edges\":" + EdgesJson(g) + "}");
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].rfind("{\"type\":\"updated\",\"op\":\"insert_edges\","
                            "\"version\":1,\"applied\":9",
                            0),
            0u)
      << loaded[0];

  const std::string decompose1 =
      "{\"op\":\"decompose\",\"k\":1,\"dynamic\":true}";
  const std::string decompose2 =
      "{\"op\":\"decompose\",\"k\":2,\"dynamic\":true}";
  const std::vector<std::string> cold2 = conn.Roundtrip(decompose2);
  EXPECT_EQ(cold2, ExpectedDecomposeLines(g, 2));
  const std::vector<std::string> cold1 = conn.Roundtrip(decompose1);
  EXPECT_EQ(cold1, ExpectedDecomposeLines(g, 1));
  const std::uint64_t hits_before = daemon.Cache().Hits();
  EXPECT_EQ(conn.Roundtrip(decompose2), cold2);
  EXPECT_EQ(daemon.Cache().Hits(), hits_before + 1);

  // Hang a pendant vertex off triangle 0: level 1 changes (one connected
  // component grows), level 2 does not (a degree-1 vertex joins no
  // 2-VCC). The k=2 entry must migrate and keep hitting byte-identically;
  // the k=1 entry must be dropped and re-derived.
  const std::vector<std::string> pendant =
      conn.Roundtrip("{\"op\":\"insert_edges\",\"edges\":[[0,9]]}");
  ASSERT_EQ(pendant.size(), 1u);
  EXPECT_EQ(pendant[0],
            server::UpdatedLine("insert_edges", 2, 1,
                                /*dirty_components=*/1, /*reruns=*/1));

  const std::uint64_t hits_after_mutation = daemon.Cache().Hits();
  const std::uint64_t misses_after_mutation = daemon.Cache().Misses();
  EXPECT_EQ(conn.Roundtrip(decompose2), cold2);  // migrated entry
  EXPECT_EQ(daemon.Cache().Hits(), hits_after_mutation + 1);
  EXPECT_EQ(daemon.Cache().Misses(), misses_after_mutation);

  // k=1 was dirty: its lookup misses and the fresh render reflects the
  // pendant vertex.
  const std::vector<std::string> fresh1 = conn.Roundtrip(decompose1);
  EXPECT_EQ(daemon.Cache().Misses(), misses_after_mutation + 1);
  EXPECT_NE(fresh1, cold1);
  std::vector<std::pair<VertexId, VertexId>> mutated_edges = g.Edges();
  mutated_edges.emplace_back(0, 9);
  const Graph mutated = Graph::FromEdges(10, mutated_edges);
  EXPECT_EQ(fresh1, ExpectedDecomposeLines(mutated, 1));

  // Dynamic hierarchy and membership answer from the maintained state.
  const KvccHierarchy h = BuildKvccHierarchy(mutated);
  const std::vector<std::string> membership = conn.Roundtrip(
      "{\"op\":\"membership\",\"vertex\":9,\"dynamic\":true}");
  ASSERT_EQ(membership.size(), 1u);
  EXPECT_EQ(membership[0],
            server::MembershipLine(9, h.CohesionOf(9), h.PathOf(9)));
}

TEST(KvccdProtocolTest, CompactionPreservesDynamicServing) {
  KvccdServer daemon;
  Connection conn(daemon);
  const Graph g = DisjointTriangles(2);
  conn.Roundtrip("{\"op\":\"insert_edges\",\"edges\":" + EdgesJson(g) + "}");
  const std::string decompose =
      "{\"op\":\"decompose\",\"k\":2,\"dynamic\":true}";
  const std::vector<std::string> before = conn.Roundtrip(decompose);
  EXPECT_EQ(before, ExpectedDecomposeLines(g, 2));

  const std::vector<std::string> compacted =
      conn.Roundtrip("{\"op\":\"compact\"}");
  ASSERT_EQ(compacted.size(), 1u);
  EXPECT_EQ(compacted[0], server::CompactedLine(/*version=*/1,
                                                /*folded=*/6));

  // Serving is untouched by the fold, and the next mutation is still
  // applied incrementally on top of the compacted base.
  EXPECT_EQ(conn.Roundtrip(decompose), before);
  const std::vector<std::string> updated =
      conn.Roundtrip("{\"op\":\"delete_edges\",\"edges\":[[0,1]]}");
  ASSERT_EQ(updated.size(), 1u);
  EXPECT_EQ(updated[0].rfind("{\"type\":\"updated\",\"op\":\"delete_edges\","
                             "\"version\":2,\"applied\":1",
                             0),
            0u)
      << updated[0];
  std::vector<std::pair<VertexId, VertexId>> remaining;
  for (const auto& edge : g.Edges()) {
    if (edge != std::make_pair<VertexId, VertexId>(0, 1)) {
      remaining.push_back(edge);
    }
  }
  const Graph mutated = Graph::FromEdges(6, remaining);
  EXPECT_EQ(conn.Roundtrip(decompose), ExpectedDecomposeLines(mutated, 2));
}

}  // namespace
}  // namespace kvcc
