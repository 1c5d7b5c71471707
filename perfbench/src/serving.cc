// kvccd_mixed: the shipped `kvccd serve --threads=2` daemon, driven over
// real 127.0.0.1 TCP by two client connections running a seeded script.
//
// Each connection owns disjoint planted graphs (so cache hits and misses
// repeat exactly); only connection A mutates the dynamic graph. Clients use
// server::TcpTransport exactly as `kvccd client` does and set no socket
// options, so the ~40 ms stall between the first and last line of every
// multi-line response (Nagle on the daemon's socket against the client's
// delayed ACK) is measured as users see it.
//
// Every response is compared, line for line, with the library's cold
// answer rendered through the protocol's own line renderers.
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "gen/dataset_suite.h"
#include "gen/planted_vcc.h"
#include "graph/delta_store.h"
#include "graph/graph_io.h"
#include "kvcc/engine.h"
#include "kvcc/hierarchy.h"
#include "kvcc/incremental.h"
#include "kvcc/kvcc_enum.h"
#include "replay.h"
#include "server/protocol.h"
#include "server/result_cache.h"
#include "server/tcp_transport.h"
#include "trace.h"
#include "util/random.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

using kvcc::Graph;
using kvcc::VertexId;
using Edge = std::pair<VertexId, VertexId>;

constexpr unsigned kDaemonThreads = 2;
constexpr std::uint64_t kDaemonCacheBytes = 64u << 20;  // kvccd's default
constexpr int kSetupRepeats = 3;
constexpr std::uint32_t kInlineK = 8;
constexpr std::uint32_t kPathK = 40;
constexpr std::uint32_t kDynamicK = 8;

// The traffic mix is an assumption, not observed traffic. Its basis is
// equal time per request class: at the class medians measured when this
// benchmark was defined (cold inline 48 ms, warm inline 44 ms, path 84 ms,
// a write and its dynamic read 48 ms, on a 4-vCPU guest), a round gives
// each of cold, warm, path and write + read 0.44-0.50 s -- one path read
// of each of the six stand-ins, 10 cold, 10 warm and 10 writes -- so a
// gain in any one class moves wall_s by about the same share. Connection
// A's writes balance connection B's path reads; each connection takes
// about 1 s a round.
constexpr int kColdPerRound = 5;     // on each connection
constexpr int kWarmPerRound = 5;     // on each connection
constexpr int kWritesPerRound = 10;  // connection A, each with its read
// The script's size depends only on --seconds, so every count repeats for
// a given seed. 1.1 rounds per second keeps a 10 s script above the warm
// p90's floor of 101 samples.
constexpr double kRoundsPerSecond = 1.1;

enum class Kind : std::uint8_t { kSetup, kCold, kWarm, kPath, kWrite, kRead };

struct ScriptedRequest {
  std::string line;
  Kind kind = Kind::kSetup;
  std::size_t expected = 0;  // index into Workload::expected
};

/// What one client saw for one request.
struct Exchange {
  std::vector<std::string> lines;
  Clock::time_point sent;
  Clock::time_point first;
  Clock::time_point last;
  bool lost = false;
};

bool IsNonTerminalLine(const std::string& line) {
  return line.rfind("{\"type\":\"component\"", 0) == 0 ||
         line.rfind("{\"type\":\"progress\"", 0) == 0 ||
         line.rfind("{\"type\":\"level\"", 0) == 0;
}

std::string EdgesJson(const std::vector<Edge>& edges) {
  std::string json = "[";
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (i != 0) json.push_back(',');
    json.push_back('[');
    json += std::to_string(edges[i].first);
    json.push_back(',');
    json += std::to_string(edges[i].second);
    json.push_back(']');
  }
  json.push_back(']');
  return json;
}

std::vector<std::string> RenderDecompose(std::uint32_t k,
                                         const ComponentList& components) {
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < components.size(); ++i) {
    lines.push_back(kvcc::server::ComponentLine(i, components[i]));
  }
  lines.push_back(kvcc::server::DecomposeCompleteLine(k, components.size()));
  return lines;
}

/// kvccd's own sizing of an inline graph (largest id + 1).
Graph InlineGraph(const std::vector<Edge>& edges) {
  VertexId n = 0;
  for (const auto& [u, v] : edges) n = std::max({n, u + 1, v + 1});
  return Graph::FromEdges(n, edges);
}

std::uint64_t StatField(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) {
    throw std::runtime_error("stats line lacks " + key + ": " + line);
  }
  return std::stoull(line.substr(at + needle.size()));
}

// ---- the daemon process --------------------------------------------------

class Daemon {
 public:
  Daemon(const std::string& binary, unsigned threads) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    const std::string threads_arg = "--threads=" + std::to_string(threads);
    std::vector<char*> argv = {const_cast<char*>(binary.c_str()),
                               const_cast<char*>("serve"),
                               const_cast<char*>("--port=0"),
                               const_cast<char*>(threads_arg.c_str()),
                               nullptr};
    const int spawned = ::posix_spawn(&pid_, binary.c_str(), &actions,
                                      nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    stdout_fd_ = fds[0];
    if (spawned != 0) {
      pid_ = -1;
      ::close(stdout_fd_);
      throw std::runtime_error("cannot start " + binary);
    }
    std::string banner;
    char c = 0;
    while (banner.size() < 64 && ::read(stdout_fd_, &c, 1) == 1 && c != '\n') {
      banner.push_back(c);
    }
    if (banner.rfind("listening ", 0) != 0) {
      Stop();
      throw std::runtime_error("kvccd did not report a port: " + banner);
    }
    port_ = static_cast<std::uint16_t>(std::stoul(banner.substr(10)));
  }
  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  std::uint16_t port() const { return port_; }

  void Stop() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      int status = 0;
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
    }
    if (stdout_fd_ >= 0) {
      ::close(stdout_fd_);
      stdout_fd_ = -1;
    }
  }

  std::uint64_t PeakRssBytes() const {
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::stoull(line.substr(6)) * 1024;
      }
    }
    throw std::runtime_error("cannot read the daemon's VmHWM");
  }

  double CpuSeconds() const {
    std::ifstream stat("/proc/" + std::to_string(pid_) + "/stat");
    std::string text((std::istreambuf_iterator<char>(stat)),
                     std::istreambuf_iterator<char>());
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    std::istringstream fields(text.substr(text.rfind(')') + 2));
    std::string field;
    double ticks = 0;
    for (int i = 3; i <= 15 && fields >> field; ++i) {
      if (i >= 14) ticks += std::stod(field);
    }
    return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
  }

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::uint16_t port_ = 0;
};

// ---- one client connection, used exactly as `kvccd client` uses it ------

class Client {
 public:
  explicit Client(std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      throw std::runtime_error("cannot connect to kvccd");
    }
    transport_ = std::make_unique<kvcc::server::TcpTransport>(fd);
  }

  Exchange Send(const std::string& request) {
    Exchange out;
    out.sent = Clock::now();
    if (!transport_->WriteLine(request)) {
      out.lost = true;
      return out;
    }
    std::string line;
    for (;;) {
      if (!transport_->ReadLine(line)) {
        out.lost = true;
        return out;
      }
      if (out.lines.empty()) out.first = Clock::now();
      out.lines.push_back(line);
      if (!IsNonTerminalLine(line)) break;
    }
    out.last = Clock::now();
    return out;
  }

 private:
  std::unique_ptr<kvcc::server::TcpTransport> transport_;
};

// ---- the workload: inputs, script, expected answers ----------------------

class Workload {
 public:
  explicit Workload(const RunConfig& config)
      : config_(config),
        rounds_(std::max(1, static_cast<int>(std::lround(
                                config.seconds * kRoundsPerSecond)))) {}

  /// Writes the stand-in files and builds every request line. Part of the
  /// timed set-up.
  void BuildInputs() {
    paths_.clear();
    for (const std::string& name : StandInNames()) {
      const std::string path = config_.work_dir + "/" + name + ".txt";
      kvcc::WriteEdgeListFile(kvcc::GenerateDataset(name, kStandInScale),
                              path);
      paths_.push_back(path);
    }
    expected_.clear();
    inline_graphs_.clear();
    cold_graphs_.clear();
    setup_a_.clear();
    setup_b_.clear();
    timed_a_.clear();
    timed_b_.clear();
    kvcc::Rng rng(config_.seed * 0x2545f4914f6cdd1dULL + 17);

    path_expected_.clear();
    for (std::size_t p = 0; p < paths_.size(); ++p) {
      path_expected_.push_back(Expect());
      setup_a_.push_back(PathRequest(p));
    }

    // The dynamic graph: seeded with one planted graph of equal-sized
    // blocks that hang together by single bridge edges, so an edit dirties
    // its own block's regions (the locality incremental updates rely on)
    // and every block costs the same to re-run.
    kvcc::PlantedVccConfig base_config = InlineConfig(NextGraphSeed(2, 0));
    base_config.num_blocks = 8;
    base_config.block_size_min = 32;
    base_config.block_size_max = 32;
    base_config.overlap = 0;
    const std::vector<Edge> dynamic_base =
        kvcc::GeneratePlantedVcc(base_config).graph.Edges();
    mutations_.clear();
    mutations_.push_back({true, dynamic_base, Expect(), 0});
    setup_a_.push_back({"{\"op\":\"insert_edges\",\"edges\":" +
                            EdgesJson(dynamic_base) + "}",
                        Kind::kSetup, mutations_.back().updated_expected});
    victims_ = dynamic_base;
    Shuffle(victims_, rng);
    writes_ = 0;

    // Warm-up: one cold and one warm inline decompose per connection and a
    // dynamic read, so lazily grown state exists before timing.
    const std::size_t warm_a = AddInlineGraph(NextGraphSeed(0, 999999));
    const std::size_t warm_b = AddInlineGraph(NextGraphSeed(1, 999999));
    setup_a_.push_back(InlineRequest(warm_a, Kind::kSetup));
    setup_a_.push_back(InlineRequest(warm_a, Kind::kSetup));
    setup_a_.push_back(DynamicRead(Kind::kSetup));
    setup_b_.push_back(InlineRequest(warm_b, Kind::kSetup));
    setup_b_.push_back(InlineRequest(warm_b, Kind::kSetup));

    // The warm-up graphs are cached, so warm requests may draw them too.
    std::vector<std::size_t> owned_a = {warm_a};
    std::vector<std::size_t> owned_b = {warm_b};
    std::vector<std::size_t> stand_ins(paths_.size());
    std::iota(stand_ins.begin(), stand_ins.end(), std::size_t{0});
    for (int r = 0; r < rounds_; ++r) {
      // Connection A: cold, warm, and writes each followed by a dynamic
      // read.
      std::vector<Kind> kinds(kColdPerRound, Kind::kCold);
      kinds.insert(kinds.end(), kWarmPerRound, Kind::kWarm);
      kinds.insert(kinds.end(), kWritesPerRound, Kind::kWrite);
      Shuffle(kinds, rng);
      for (const Kind kind : kinds) {
        if (kind == Kind::kWrite) {
          AddWrite();
        } else {
          AddInline(kind, 0, owned_a, timed_a_, rng);
        }
      }
      // Connection B: cold, warm, and one path read of every stand-in.
      // Path reads stay on one connection, so no two edge-list loads ever
      // overlap in the daemon and its peak RSS does not depend on timing.
      kinds.assign(kColdPerRound, Kind::kCold);
      kinds.insert(kinds.end(), kWarmPerRound, Kind::kWarm);
      kinds.insert(kinds.end(), paths_.size(), Kind::kPath);
      Shuffle(kinds, rng);
      Shuffle(stand_ins, rng);
      std::size_t next_path = 0;
      for (const Kind kind : kinds) {
        if (kind == Kind::kPath) {
          timed_b_.push_back(PathRequest(stand_ins[next_path++], Kind::kPath));
        } else {
          AddInline(kind, 1, owned_b, timed_b_, rng);
        }
      }
    }
  }

  /// Computes every expected response from the library, cold. Runs after
  /// the timed phase.
  void ComputeExpected() {
    kvcc::KvccEngine engine(OnlineCpus());
    for (std::size_t p = 0; p < paths_.size(); ++p) {
      const Graph g = kvcc::ReadEdgeListFile(paths_[p]);
      expected_[path_expected_[p]] =
          RenderDecompose(kPathK, engine.Wait(engine.Submit(g, kPathK))
                                      .components);
    }
    for (const InlineEntry& entry : inline_graphs_) {
      expected_[entry.expected] = RenderDecompose(
          kInlineK, kvcc::EnumerateKVccs(InlineGraph(entry.edges), kInlineK)
                        .components);
    }
    // The dynamic graph, mutation by mutation: `updated` lines from a
    // replica of the daemon's delta store and incremental state, reads
    // from a cold enumeration of the graph as it stands.
    kvcc::VersionedGraph replica;
    kvcc::IncrementalKvcc state(kvcc::KvccOptions::VcceStar());
    state.Update(replica);
    std::set<Edge> edges;
    for (const Mutation& mutation : mutations_) {
      const std::size_t applied = mutation.insert
                                      ? replica.InsertEdges(mutation.edges)
                                      : replica.DeleteEdges(mutation.edges);
      kvcc::IncrementalOutcome outcome;
      if (applied > 0) outcome = state.Update(replica);
      for (const Edge& e : mutation.edges) {
        if (mutation.insert) {
          edges.insert(e);
        } else {
          edges.erase(e);
        }
      }
      expected_[mutation.updated_expected] = {kvcc::server::UpdatedLine(
          mutation.insert ? "insert_edges" : "delete_edges",
          replica.Version(), applied, outcome.dirty_components,
          outcome.incremental_reruns)};
      const std::vector<Edge> list(edges.begin(), edges.end());
      expected_[mutation.read_expected] = RenderDecompose(
          kDynamicK,
          kvcc::EnumerateKVccs(InlineGraph(list), kDynamicK).components);
    }
  }

  const std::vector<ScriptedRequest>& setup_a() const { return setup_a_; }
  const std::vector<ScriptedRequest>& setup_b() const { return setup_b_; }
  const std::vector<ScriptedRequest>& timed_a() const { return timed_a_; }
  const std::vector<ScriptedRequest>& timed_b() const { return timed_b_; }
  const std::vector<std::string>& Expected(std::size_t i) const {
    return expected_[i];
  }
  /// The timed script's cold inline graphs.
  std::vector<Graph> ColdGraphs() const {
    std::vector<Graph> graphs;
    for (const std::size_t i : cold_graphs_) {
      graphs.push_back(InlineGraph(inline_graphs_[i].edges));
    }
    return graphs;
  }

 private:
  struct InlineEntry {
    std::vector<Edge> edges;
    std::string request;
    std::size_t expected = 0;
  };
  // One write to the dynamic graph; the script reads the graph right
  // after every write.
  struct Mutation {
    bool insert = true;
    std::vector<Edge> edges;
    std::size_t updated_expected = 0;
    std::size_t read_expected = 0;
  };

  static kvcc::PlantedVccConfig InlineConfig(std::uint64_t seed) {
    kvcc::PlantedVccConfig config;
    config.num_blocks = 6;
    config.block_size_min = 24;
    config.block_size_max = 40;
    config.connectivity = kInlineK;
    config.overlap = 2;
    config.bridge_edges = 1;
    config.seed = seed;
    return config;
  }

  // Distinct per (run seed, connection, index), so the connections' graph
  // sets are disjoint and every run draws fresh ones.
  std::uint64_t NextGraphSeed(int connection, std::uint64_t index) const {
    return config_.seed * 0x100000001b3ULL +
           static_cast<std::uint64_t>(connection) * 1000003ULL + index + 1;
  }

  std::size_t Expect() {
    expected_.emplace_back();
    return expected_.size() - 1;
  }

  std::size_t AddInlineGraph(std::uint64_t seed) {
    InlineEntry entry;
    entry.edges = kvcc::GeneratePlantedVcc(InlineConfig(seed)).graph.Edges();
    entry.request = "{\"op\":\"decompose\",\"k\":" + std::to_string(kInlineK) +
                    ",\"edges\":" + EdgesJson(entry.edges) + "}";
    entry.expected = Expect();
    inline_graphs_.push_back(std::move(entry));
    return inline_graphs_.size() - 1;
  }

  /// Appends a cold request for a new graph `connection` owns, or a warm
  /// request for one it has already sent.
  void AddInline(Kind kind, int connection, std::vector<std::size_t>& owned,
                 std::vector<ScriptedRequest>& script, kvcc::Rng& rng) {
    if (kind == Kind::kCold) {
      owned.push_back(AddInlineGraph(NextGraphSeed(connection, owned.size())));
      cold_graphs_.push_back(owned.back());
      script.push_back(InlineRequest(owned.back(), kind));
    } else {
      script.push_back(
          InlineRequest(owned[rng.NextBounded(owned.size())], kind));
    }
  }

  /// Appends to connection A a single-edge write and the dynamic read
  /// after it. A write deletes a base edge and the next write re-inserts
  /// it, so the graph stays near its base and every write costs about the
  /// same.
  void AddWrite() {
    const Edge victim = victims_[(writes_ / 2) % victims_.size()];
    const bool insert = writes_ % 2 == 1;
    ++writes_;
    mutations_.push_back({insert, {victim}, Expect(), 0});
    timed_a_.push_back({std::string("{\"op\":\"") +
                            (insert ? "insert_edges" : "delete_edges") +
                            "\",\"edges\":" + EdgesJson({victim}) + "}",
                        Kind::kWrite, mutations_.back().updated_expected});
    timed_a_.push_back(DynamicRead(Kind::kRead));
  }

  ScriptedRequest InlineRequest(std::size_t graph, Kind kind) const {
    return {inline_graphs_[graph].request, kind,
            inline_graphs_[graph].expected};
  }

  ScriptedRequest PathRequest(std::size_t p, Kind kind = Kind::kSetup) {
    return {"{\"op\":\"decompose\",\"k\":" + std::to_string(kPathK) +
                ",\"graph\":\"" + kvcc::server::JsonEscape(paths_[p]) + "\"}",
            kind, path_expected_[p]};
  }

  ScriptedRequest DynamicRead(Kind kind) {
    mutations_.back().read_expected = Expect();
    return {"{\"op\":\"decompose\",\"k\":" + std::to_string(kDynamicK) +
                ",\"dynamic\":true}",
            kind, mutations_.back().read_expected};
  }

  const RunConfig& config_;
  const int rounds_;
  std::vector<std::string> paths_;
  std::vector<std::size_t> path_expected_;
  std::vector<InlineEntry> inline_graphs_;
  std::vector<std::size_t> cold_graphs_;  // inline_graphs_ indices
  std::vector<Mutation> mutations_;
  std::vector<Edge> victims_;  // base edges, in the order writes take them
  std::size_t writes_ = 0;
  std::vector<std::vector<std::string>> expected_;
  std::vector<ScriptedRequest> setup_a_;
  std::vector<ScriptedRequest> setup_b_;
  std::vector<ScriptedRequest> timed_a_;
  std::vector<ScriptedRequest> timed_b_;
};

// ---- the daemon's request path, replayed in process -----------------------

/// Mirrors KvccdServer's handling of the ops the script sends, calling each
/// layer's public function under its own span, with the daemon's engine
/// size and cache budget. Its rendered lines and its cache and incremental
/// counters must equal the daemon's.
class ServerReplay {
 public:
  ServerReplay()
      : engine_(kDaemonThreads),
        cache_(kDaemonCacheBytes),
        state_(kvcc::KvccOptions::VcceStar()) {
    state_.Update(dynamic_graph_);
  }

  /// Serves one request line. Spans and the script-only counters are
  /// recorded when `spans` is non-null.
  std::vector<std::string> Serve(const std::string& line, SpanRecorder* spans,
                                 std::uint32_t op) {
    namespace server = kvcc::server;
    server::Request request;
    {
      ScopedSpan span(spans, "server.parse", op);
      server::JsonValue json;
      std::string error;
      if (!server::IsValidUtf8(line) ||
          !server::ParseJson(line, json, error) ||
          !server::ParseRequest(json, request, error)) {
        throw std::runtime_error("replay cannot parse a request: " + error);
      }
    }
    using Op = server::Request::Op;
    if (request.op == Op::kInsertEdges || request.op == Op::kDeleteEdges) {
      return Mutate(request, spans, op);
    }
    if (request.op != Op::kDecompose) {
      throw std::runtime_error("replay: the script sends no such op");
    }
    std::shared_ptr<const ComponentList> components;
    if (request.dynamic) {
      const std::shared_ptr<const Graph> g = state_.CurrentGraph();
      {
        ScopedSpan span(spans, "server.cache.lookup", op);
        components = cache_.LookupComponents(*g, request.k);
      }
      if (components == nullptr) {
        {
          ScopedSpan span(spans, "kvcc.hierarchy.extract", op);
          components = std::make_shared<const ComponentList>(
              state_.Hierarchy()->ComponentsAtLevel(request.k));
        }
        cache_.InsertComponents(*g, request.k, components);
      }
    } else {
      Graph g;
      if (request.has_edges) {
        ScopedSpan span(spans, "server.resolve", op);
        g = InlineGraph(request.edges);
      } else {
        ScopedSpan span(spans, "graph.load", op);
        g = kvcc::ReadEdgeListFile(request.graph_path);
        if (spans != nullptr) {
          struct stat info {};
          if (::stat(request.graph_path.c_str(), &info) == 0) {
            loaded_bytes_ += static_cast<std::uint64_t>(info.st_size);
          }
        }
      }
      {
        ScopedSpan span(spans, "server.cache.lookup", op);
        components = cache_.LookupComponents(g, request.k);
      }
      if (components == nullptr) {
        kvcc::KvccResult result;
        {
          ScopedSpan span(spans, "server.engine", op);
          result = engine_.Wait(engine_.Submit(g, request.k, request.options));
        }
        if (spans != nullptr) engine_stats_.Add(result.stats);
        components =
            std::make_shared<const ComponentList>(std::move(result.components));
        cache_.InsertComponents(g, request.k, components);
      }
    }
    ScopedSpan span(spans, "server.render", op);
    return RenderDecompose(request.k, *components);
  }

  const kvcc::server::ResultCache& cache() const { return cache_; }
  const kvcc::KvccStats& engine_stats() const { return engine_stats_; }
  std::uint64_t loaded_bytes() const { return loaded_bytes_; }
  std::uint64_t delta_applied() const { return delta_applied_; }
  std::uint64_t dirty() const { return dirty_; }
  std::uint64_t reruns() const { return reruns_; }
  std::uint64_t script_dirty() const { return script_dirty_; }
  std::uint64_t script_old_components() const {
    return script_old_components_;
  }
  std::uint64_t script_reruns() const { return script_reruns_; }

 private:
  std::vector<std::string> Mutate(const kvcc::server::Request& request,
                                  SpanRecorder* spans, std::uint32_t op) {
    const bool insert =
        request.op == kvcc::server::Request::Op::kInsertEdges;
    const std::shared_ptr<const Graph> before = state_.CurrentGraph();
    const std::size_t old_components = state_.Hierarchy()->nodes.size();
    std::size_t applied = 0;
    {
      ScopedSpan span(spans, "graph.delta", op);
      applied = insert ? dynamic_graph_.InsertEdges(request.edges)
                       : dynamic_graph_.DeleteEdges(request.edges);
    }
    kvcc::IncrementalOutcome outcome;
    if (applied > 0) {
      {
        ScopedSpan span(spans, "kvcc.incremental", op);
        outcome = engine_.SubmitIncremental(state_, dynamic_graph_);
      }
      {
        ScopedSpan span(spans, "server.cache.rekey", op);
        cache_.RekeyAfterMutation(*before, *state_.CurrentGraph(),
                                  outcome.dirty_levels);
      }
      delta_applied_ += outcome.delta_edges_applied;
      dirty_ += outcome.dirty_components;
      reruns_ += outcome.incremental_reruns;
      if (spans != nullptr) {
        script_dirty_ += outcome.dirty_components;
        script_old_components_ += old_components;
        script_reruns_ += outcome.incremental_reruns;
      }
    }
    return {kvcc::server::UpdatedLine(
        insert ? "insert_edges" : "delete_edges", dynamic_graph_.Version(),
        applied, outcome.dirty_components, outcome.incremental_reruns)};
  }

  kvcc::KvccEngine engine_;
  kvcc::server::ResultCache cache_;
  kvcc::VersionedGraph dynamic_graph_;
  kvcc::IncrementalKvcc state_;
  kvcc::KvccStats engine_stats_;
  std::uint64_t loaded_bytes_ = 0;
  std::uint64_t delta_applied_ = 0;
  std::uint64_t dirty_ = 0;
  std::uint64_t reruns_ = 0;
  std::uint64_t script_dirty_ = 0;
  std::uint64_t script_old_components_ = 0;
  std::uint64_t script_reruns_ = 0;
};

// ---- one daemon lifetime ---------------------------------------------------

struct ScriptRun {
  std::vector<Exchange> setup_a;
  std::vector<Exchange> setup_b;
  std::vector<Exchange> timed_a;
  std::vector<Exchange> timed_b;
  double setup_s = 0;
  double wall_s = 0;
  double daemon_cpu_s = 0;  // during the timed script
  std::uint64_t peak_rss_bytes = 0;
  std::string stats_line;
};

/// Sends a script on one connection; never throws, so the other
/// connection's thread is always joined. A lost connection marks the rest
/// of the script lost.
std::vector<Exchange> Play(Client& client,
                           const std::vector<ScriptedRequest>& script) {
  std::vector<Exchange> out;
  out.reserve(script.size());
  try {
    for (const ScriptedRequest& request : script) {
      out.push_back(client.Send(request.line));
      if (out.back().lost) break;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: client failed: %s\n", e.what());
  }
  while (out.size() < script.size()) {
    out.emplace_back();
    out.back().lost = true;
  }
  return out;
}

class Serving {
 public:
  Serving(const RunConfig& config, Report& report)
      : config_(config), report_(report), workload_(config) {}

  /// Untraced run: kSetupRepeats set-ups (each with a fresh daemon), then
  /// the timed script on the last one.
  void Measure() {
    std::vector<double> setup_samples;
    ScriptRun run;
    {
      std::unique_ptr<Daemon> daemon;
      std::unique_ptr<Client> a;
      std::unique_ptr<Client> b;
      for (int r = 0; r < kSetupRepeats; ++r) {
        a.reset();
        b.reset();
        daemon.reset();
        daemon = SetUp(run, a, b);
        setup_samples.push_back(run.setup_s);
      }
      RunScript(*daemon, *a, *b, run);
    }
    Check(run);
    report_.Stamp("setup_s samples", JoinSeconds(setup_samples));
    report_.Add("setup_s", SmallMedian(setup_samples), "s", kSetupRepeats);
    report_.Add("wall_s", run.wall_s, "s");
    std::map<Kind, std::vector<double>> latency = Latencies(run);
    // A write answers with one line, so the multi-line stall, which sets
    // every other class's latency, does not set this one.
    report_.AddPercentile("op_p50_ms", latency[Kind::kWrite], 0.5, "ms");
    report_.Add("peak_rss_mb", static_cast<double>(run.peak_rss_bytes) / 1e6,
                "MB");
    report_.AddPercentile("cold_p50_ms", latency[Kind::kCold], 0.5, "ms");
    report_.AddPercentile("warm_p50_ms", latency[Kind::kWarm], 0.5, "ms");
    report_.AddPercentile("warm_p90_ms", latency[Kind::kWarm], 0.9, "ms");
    report_.AddPercentile("path_p50_ms", latency[Kind::kPath], 0.5, "ms");
    report_.AddPercentile("write_p50_ms", latency[Kind::kWrite], 0.5, "ms");
    report_.AddPercentile("read_p50_ms", latency[Kind::kRead], 0.5, "ms");
    report_.Stamp("daemon cpu_s (timed script)",
                  std::to_string(run.daemon_cpu_s));
  }

  /// Traced run: the script once over real TCP on a fresh daemon, then
  /// replayed in process twice, untraced and traced. The TCP run records
  /// no spans; its transport times come from the timestamps every exchange
  /// carries.
  void Trace() {
    ScriptRun run;
    {
      std::unique_ptr<Client> a;
      std::unique_ptr<Client> b;
      const std::unique_ptr<Daemon> daemon = SetUp(run, a, b);
      RunScript(*daemon, *a, *b, run);
    }
    Check(run);
    AddTransportMetrics(run);
    report_.Add("exec.busy_share",
                run.daemon_cpu_s / (run.wall_s * OnlineCpus()), "ratio");

    double untraced_ms = 0;
    {
      ServerReplay untraced;
      untraced_ms = Replay(untraced, nullptr);
    }
    ServerReplay replay;
    SpanRecorder layers;
    const double traced_ms = Replay(replay, &layers);
    report_.Add("trace.overhead", traced_ms / untraced_ms, "ratio");
    CompareCounters(replay, run.stats_line);
    AddServerLayerMetrics(replay, layers, run);

    // The engine layers, split on the same cold graphs.
    Algorithm1Replay algorithm(/*traced=*/true);
    std::uint64_t serial_edges = 0;
    const std::vector<Graph> cold = workload_.ColdGraphs();
    for (std::uint32_t i = 0; i < cold.size(); ++i) {
      const kvcc::KvccResult serial = kvcc::EnumerateKVccs(cold[i], kInlineK);
      serial_edges += serial.stats.probe_edges_touched;
      if (algorithm.Run(cold[i], kInlineK, i) != serial.components) {
        std::fprintf(stderr, "perfbench: replay of cold graph %u differs\n",
                     i);
        report_.check_failed = true;
      }
    }
    algorithm.AddLayerMetrics(report_);
    AddKvccStatsMetrics(replay.engine_stats(), serial_edges, report_);
    layers.WriteTsv(config_.work_dir + "/spans.tsv");
  }

 private:
  std::unique_ptr<Daemon> SetUp(ScriptRun& run, std::unique_ptr<Client>& a,
                                std::unique_ptr<Client>& b) {
    const Clock::time_point start = Clock::now();
    workload_.BuildInputs();
    auto daemon = std::make_unique<Daemon>(config_.kvccd_path, kDaemonThreads);
    a = std::make_unique<Client>(daemon->port());
    b = std::make_unique<Client>(daemon->port());
    run.setup_a.clear();
    run.setup_b.clear();
    for (const ScriptedRequest& request : workload_.setup_a()) {
      run.setup_a.push_back(a->Send(request.line));
    }
    for (const ScriptedRequest& request : workload_.setup_b()) {
      run.setup_b.push_back(b->Send(request.line));
    }
    run.setup_s = MillisBetween(start, Clock::now()) / 1e3;
    return daemon;
  }

  void RunScript(const Daemon& daemon, Client& a, Client& b, ScriptRun& run) {
    const double cpu_start = daemon.CpuSeconds();
    const Clock::time_point start = Clock::now();
    std::thread other([&] { run.timed_b = Play(b, workload_.timed_b()); });
    run.timed_a = Play(a, workload_.timed_a());
    other.join();
    run.wall_s = MillisBetween(start, Clock::now()) / 1e3;
    run.daemon_cpu_s = daemon.CpuSeconds() - cpu_start;
    const Exchange stats = a.Send("{\"op\":\"stats\"}");
    if (stats.lost || stats.lines.empty()) {
      throw std::runtime_error("kvccd did not answer the stats request");
    }
    run.stats_line = stats.lines.back();
    run.peak_rss_bytes = daemon.PeakRssBytes();
    report_.Stamp("daemon stats", run.stats_line);
  }

  /// Serves the set-up script, then the timed script, through `replay`,
  /// checking every rendered response. Returns the timed script's
  /// milliseconds.
  double Replay(ServerReplay& replay, SpanRecorder* spans) {
    for (const auto* script : {&workload_.setup_a(), &workload_.setup_b()}) {
      for (const ScriptedRequest& request : *script) {
        replay.Serve(request.line, nullptr, 0);
      }
    }
    std::uint32_t op = 0;
    const Clock::time_point start = Clock::now();
    for (const auto* script : {&workload_.timed_a(), &workload_.timed_b()}) {
      for (const ScriptedRequest& request : *script) {
        if (replay.Serve(request.line, spans, op) !=
            workload_.Expected(request.expected)) {
          std::fprintf(stderr, "perfbench: in-process replay rendered a "
                       "different response for request %u\n", op);
          report_.check_failed = true;
        }
        ++op;
      }
    }
    return MillisBetween(start, Clock::now());
  }

  void Check(ScriptRun& run) {
    if (!expected_ready_) {
      workload_.ComputeExpected();
      expected_ready_ = true;
    }
    if (config_.corrupt_response >= 0) Corrupt(run);
    CheckList(run.setup_a, workload_.setup_a());
    CheckList(run.setup_b, workload_.setup_b());
    CheckList(run.timed_a, workload_.timed_a());
    CheckList(run.timed_b, workload_.timed_b());
    if (StatField(run.stats_line, "jobs_shed") != 0 ||
        StatField(run.stats_line, "errors") != 0 ||
        StatField(run.stats_line, "cache_evictions") != 0) {
      std::fprintf(stderr, "perfbench: kvccd shed, failed or evicted: %s\n",
                   run.stats_line.c_str());
      report_.check_failed = true;
    }
  }

  void CheckList(const std::vector<Exchange>& got,
                 const std::vector<ScriptedRequest>& script) {
    for (std::size_t i = 0; i < script.size(); ++i) {
      ++report_.attempted;
      const std::vector<std::string>& expected =
          workload_.Expected(script[i].expected);
      if (!got[i].lost && got[i].lines == expected) continue;
      ++report_.failed;
      if (report_.failed <= 3) {
        std::fprintf(stderr, "perfbench: response %zu differs: %s\n  got:  "
                     "%s\n  want: %s\n", i, script[i].line.substr(0, 80).c_str(),
                     got[i].lines.empty()
                         ? "(connection lost)"
                         : got[i].lines.front().substr(0, 120).c_str(),
                     expected.front().substr(0, 120).c_str());
      }
    }
  }

  /// Self-test hook: alters one component line of the timed response at
  /// or after index corrupt_response.
  void Corrupt(ScriptRun& run) {
    std::size_t index = 0;
    for (std::vector<Exchange>* list : {&run.timed_a, &run.timed_b}) {
      for (Exchange& e : *list) {
        if (index++ < static_cast<std::size_t>(config_.corrupt_response)) {
          continue;
        }
        for (std::string& line : e.lines) {
          if (line.rfind("{\"type\":\"component\"", 0) == 0) {
            line.insert(line.rfind(']'), ",4000000000");
            return;
          }
        }
      }
    }
  }

  std::map<Kind, std::vector<double>> Latencies(const ScriptRun& run) const {
    std::map<Kind, std::vector<double>> latency;
    const auto collect = [&](const std::vector<Exchange>& got,
                             const std::vector<ScriptedRequest>& script) {
      for (std::size_t i = 0; i < script.size(); ++i) {
        if (got[i].lost) continue;
        latency[script[i].kind].push_back(
            MillisBetween(got[i].sent, got[i].last));
      }
    };
    collect(run.timed_a, workload_.timed_a());
    collect(run.timed_b, workload_.timed_b());
    return latency;
  }

  /// Send -> first line and first line -> terminal line, over the warm
  /// requests only: one request shape, whose first line is the server's
  /// own work and whose tail is where the stall lives.
  void AddTransportMetrics(const ScriptRun& run) {
    std::vector<double> first_line;
    std::vector<double> tail;
    const auto collect = [&](const std::vector<Exchange>& got,
                             const std::vector<ScriptedRequest>& script) {
      for (std::size_t i = 0; i < script.size(); ++i) {
        if (got[i].lost || script[i].kind != Kind::kWarm) continue;
        first_line.push_back(MillisBetween(got[i].sent, got[i].first));
        tail.push_back(MillisBetween(got[i].first, got[i].last));
      }
    };
    collect(run.timed_a, workload_.timed_a());
    collect(run.timed_b, workload_.timed_b());
    report_.AddPercentile("server.transport.first_line_ms", first_line, 0.5,
                          "ms");
    report_.AddPercentile("server.transport.tail_gap_ms", tail, 0.5, "ms");
  }

  void CompareCounters(const ServerReplay& replay,
                       const std::string& stats_line) {
    const std::pair<const char*, std::uint64_t> pairs[] = {
        {"cache_hits", replay.cache().Hits()},
        {"cache_misses", replay.cache().Misses()},
        {"cache_evictions", replay.cache().Evictions()},
        {"delta_edges_applied", replay.delta_applied()},
        {"dirty_components", replay.dirty()},
        {"incremental_reruns", replay.reruns()},
    };
    for (const auto& [key, replayed] : pairs) {
      if (StatField(stats_line, key) != replayed) {
        std::fprintf(stderr, "perfbench: replay %s=%llu but kvccd says %s\n",
                     key, static_cast<unsigned long long>(replayed),
                     stats_line.c_str());
        report_.check_failed = true;
      }
    }
  }

  void AddServerLayerMetrics(const ServerReplay& replay,
                             const SpanRecorder& layers,
                             const ScriptRun& run) {
    const std::pair<const char*, const char*> layer_spans[] = {
        {"server.parse", "server.parse.ms"},
        {"server.resolve", "server.resolve.ms"},
        {"graph.load", "graph.load.ms"},
        {"server.cache.lookup", "server.cache.lookup_ms"},
        {"server.render", "server.render.ms"},
        {"server.engine", "server.engine.ms"},
        {"graph.delta", "graph.delta.ms"},
        {"kvcc.incremental", "kvcc.incremental.ms"},
        {"server.cache.rekey", "server.cache.rekey_ms"},
        {"kvcc.hierarchy.extract", "kvcc.hierarchy.extract_ms"},
    };
    for (const auto& [span, metric] : layer_spans) {
      AddSelfMillis(layers, span, metric, report_);
    }
    const std::map<std::string, double> self = layers.SelfMillisByName();
    const auto load = self.find("graph.load");
    const double load_s = load == self.end() ? 0.0 : load->second / 1e3;
    report_.Add("graph.load.mb_per_s",
                load_s == 0 ? 0.0
                            : static_cast<double>(replay.loaded_bytes()) /
                                  1e6 / load_s,
                "MB/s");
    const double hits =
        static_cast<double>(StatField(run.stats_line, "cache_hits"));
    const double misses =
        static_cast<double>(StatField(run.stats_line, "cache_misses"));
    report_.Add("server.cache.hit_ratio",
                hits + misses == 0 ? 0.0 : hits / (hits + misses), "ratio");
    report_.Add("server.cache.evictions",
                static_cast<double>(
                    StatField(run.stats_line, "cache_evictions")),
                "count");
    report_.Add("server.admission.shed",
                static_cast<double>(StatField(run.stats_line, "jobs_shed")),
                "count");
    report_.Add("kvcc.incremental.dirty_share",
                replay.script_old_components() == 0
                    ? 0.0
                    : static_cast<double>(replay.script_dirty()) /
                          static_cast<double>(replay.script_old_components()),
                "ratio");
    report_.Add("kvcc.incremental.reruns",
                static_cast<double>(replay.script_reruns()), "count");
  }

  const RunConfig& config_;
  Report& report_;
  Workload workload_;
  bool expected_ready_ = false;
};

}  // namespace

void RunServingWorkload(const RunConfig& config, Report& report) {
  Serving serving(config, report);
  if (config.trace) {
    serving.Trace();
  } else {
    serving.Measure();
  }
}

}  // namespace perfbench
