// Cold vs cached kvccd serving latency, end to end through the protocol
// loop.
//
// Drives in-process KvccdServers over deterministic loopback transports.
// Each round starts a fresh server, so its first decompose request is a
// real miss (engine run + cache fill), and then replays the identical
// request, which the result cache serves. Reports the median cold and
// cached latencies and their ratio, and verifies on every run that each
// response is byte-identical to the first cold one — the serving layer's
// core guarantee (docs/SERVING.md). Outside --quick the bench fails if the
// median cached request is not at least 10x faster than the median cold
// one; medians keep one scheduler stall in one request from deciding it.
//
// Flags:
//   --blocks=<N>         planted k-VCC blocks per workload (default 16)
//   --scale=<double>     block size multiplier (default 1.0)
//   --repeats=<N>        rounds, each one cold and one cached request
//                        (default 5)
//   --quick              shrink the workload and skip the 10x gate
//   --json=<path>        append a machine-readable perf snapshot to <path>
//   --build-type=<s>     stamp the snapshot with the CMake build type
//   --commit=<s>         stamp the snapshot with the git commit

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "gen/planted_vcc.h"
#include "server/kvccd.h"
#include "server/transport.h"
#include "util/timer.h"

namespace {

using namespace kvcc;
using namespace kvcc::bench;

struct ServingBenchArgs {
  std::size_t blocks = 16;
  double scale = 1.0;
  int repeats = 5;
  bool quick = false;
  std::string json_path;
  std::string build_type = "unknown";
  std::string commit = "unknown";
};

ServingBenchArgs ParseServingBenchArgs(int argc, char** argv) {
  ServingBenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--blocks=", 0) == 0) {
      args.blocks = static_cast<std::size_t>(std::atol(arg.substr(9).c_str()));
    } else if (arg.rfind("--scale=", 0) == 0) {
      args.scale = std::atof(arg.substr(8).c_str());
    } else if (arg.rfind("--repeats=", 0) == 0) {
      args.repeats = std::atoi(arg.substr(10).c_str());
    } else if (arg.rfind("--json=", 0) == 0) {
      args.json_path = arg.substr(7);
    } else if (arg.rfind("--build-type=", 0) == 0) {
      args.build_type = arg.substr(13);
    } else if (arg.rfind("--commit=", 0) == 0) {
      args.commit = arg.substr(9);
    } else if (arg == "--quick") {
      args.quick = true;
    } else {
      std::cerr << "unknown flag: " << arg << "\n"
                << "usage: bench_serving [--blocks=N] [--scale=S]"
                   " [--repeats=N] [--quick] [--json=path]"
                   " [--build-type=s] [--commit=s]\n";
      std::exit(2);
    }
  }
  if (args.blocks < 2) args.blocks = 2;
  if (args.repeats < 1) args.repeats = 1;
  return args;
}

/// One persistent loopback connection to the daemon, reused across
/// requests the way a real client reuses a TCP connection — so the
/// cached-path measurement is parse + lookup + render, not thread spawn.
class Connection {
 public:
  explicit Connection(server::KvccdServer& daemon)
      : pair_(server::MakeLoopbackPair()),
        serving_([this, &daemon] { daemon.ServeConnection(*pair_.server); }) {
  }

  ~Connection() {
    pair_.client->Close();
    serving_.join();
  }

  /// Sends one request and returns the full response line sequence.
  std::vector<std::string> Serve(const std::string& request) {
    std::vector<std::string> lines;
    if (pair_.client->WriteLine(request)) {
      std::string line;
      while (pair_.client->ReadLine(line)) {
        lines.push_back(line);
        if (line.rfind("{\"type\":\"component\"", 0) == 0) continue;
        if (line.rfind("{\"type\":\"progress\"", 0) == 0) continue;
        break;
      }
    }
    return lines;
  }

 private:
  server::LoopbackPair pair_;
  std::thread serving_;
};

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : (samples[mid - 1] + samples[mid]) / 2;
}

std::string FormatSamples(const std::vector<double>& samples) {
  std::string out;
  for (const double ms : samples) {
    if (!out.empty()) out += ' ';
    out += FormatDouble(ms, 2);
  }
  return out;
}

std::string DecomposeRequest(const Graph& g, std::uint32_t k) {
  std::string request = "{\"op\":\"decompose\",\"k\":" + std::to_string(k) +
                        ",\"edges\":[";
  bool first = true;
  for (const auto& [u, v] : g.Edges()) {
    if (!first) request.push_back(',');
    first = false;
    request.push_back('[');
    request += std::to_string(u);
    request.push_back(',');
    request += std::to_string(v);
    request.push_back(']');
  }
  request += "]}";
  return request;
}

}  // namespace

int main(int argc, char** argv) {
  const ServingBenchArgs args = ParseServingBenchArgs(argc, argv);

  PrintBanner("kvccd serving",
              "cold decompose vs cache-served repeat, end to end");

  const double s = args.quick ? args.scale * 0.5 : args.scale;
  PlantedVccConfig config;
  config.num_blocks = static_cast<int>(args.blocks);
  config.block_size_min = std::max<VertexId>(14, static_cast<VertexId>(26 * s));
  config.block_size_max = std::max<VertexId>(18, static_cast<VertexId>(40 * s));
  // Higher k than the latency bench: the cold path's flow work grows
  // with k while the cached path (parse + lookup + render) does not, so
  // this keeps the 10x gate honest about the cache and not the workload.
  config.connectivity = std::min<std::uint32_t>(12, config.block_size_min - 2);
  config.overlap = 2;
  config.bridge_edges = 1;
  config.seed = 211;
  const PlantedVccGraph planted = GeneratePlantedVcc(config);
  const Graph& g = planted.graph;
  const std::uint32_t k = config.connectivity;
  std::cout << "workload: |V|=" << g.NumVertices() << " |E|=" << g.NumEdges()
            << " k=" << k << " (" << args.blocks << " planted blocks)\n\n";

  const std::string request = DecomposeRequest(g, k);

  server::KvccdConfig daemon_config;
  daemon_config.engine_threads = 1;
  std::vector<std::string> first_cold;
  std::vector<double> cold_samples;
  std::vector<double> cached_samples;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  bool identical = true;
  for (int round = 0; round < args.repeats; ++round) {
    server::KvccdServer daemon(daemon_config);
    Connection connection(daemon);

    Timer cold_timer;
    const std::vector<std::string> cold = connection.Serve(request);
    cold_samples.push_back(cold_timer.ElapsedMillis());

    Timer cached_timer;
    const std::vector<std::string> cached = connection.Serve(request);
    cached_samples.push_back(cached_timer.ElapsedMillis());

    if (round == 0) first_cold = cold;
    identical = identical && !cold.empty() && cold == first_cold &&
                cached == first_cold;
    hits += daemon.Cache().Hits();
    misses += daemon.Cache().Misses();
  }
  const double cold_ms = Median(cold_samples);
  const double cached_ms = Median(cached_samples);
  const double speedup = cached_ms > 0 ? cold_ms / cached_ms : 0;
  const std::size_t components = first_cold.empty() ? 0 : first_cold.size() - 1;

  const std::vector<int> widths = {14, 12, 12, 10, 10};
  PrintRow({"path", "latency", "components", "speedup", "bytes=="}, widths);
  PrintRow({"cold", FormatDouble(cold_ms, 2) + "ms",
            std::to_string(components), "1.0x", "-"},
           widths);
  PrintRow({"cached", FormatDouble(cached_ms, 2) + "ms",
            std::to_string(components), FormatDouble(speedup, 1) + "x",
            identical ? "yes" : "NO"},
           widths);

  std::cout << "\nmedians of " << args.repeats << " rounds, each on a fresh "
            << "server; cold ms: " << FormatSamples(cold_samples)
            << "; cached ms: " << FormatSamples(cached_samples) << "\n"
            << "cache over all rounds: hits=" << hits << " misses=" << misses
            << "\n";

  if (!args.json_path.empty()) {
    std::ostringstream json;
    json << "{\"bench\": \"serving\", \"build_type\": \"" << args.build_type
         << "\", \"git_commit\": \"" << args.commit
         << "\", \"workload\": {\"n\": " << g.NumVertices()
         << ", \"m\": " << g.NumEdges() << ", \"k\": " << k
         << ", \"blocks\": " << args.blocks
         << "}, \"results\": [{\"cold_ms\": " << cold_ms
         << ", \"cached_ms\": " << cached_ms << ", \"speedup\": " << speedup
         << ", \"repeats\": " << args.repeats
         << ", \"byte_identical\": " << (identical ? "true" : "false")
         << "}]}";
    std::ofstream out(args.json_path, std::ios::app);
    out << json.str() << "\n";
    std::cout << "wrote perf snapshot to " << args.json_path << "\n";
  }

  std::cout << "\nExpected shape: the cached repeat skips the engine "
               "entirely (one cache lookup plus rendering), so it lands "
               "orders of magnitude under the cold run, and every response "
               "is byte-identical to the first cold one.\n";
  if (!identical) {
    std::cerr << "ERROR: a response differed from the first cold run\n";
    return 1;
  }
  if (!args.quick && speedup < 10.0) {
    std::cerr << "ERROR: median cached speedup " << speedup << "x below the "
              << "10x serving gate\n";
    return 1;
  }
  return 0;
}
