// kvccd — the k-VCC decomposition daemon and its line client.
//
// Subcommands:
//   serve    bind 127.0.0.1:<port> and serve the NDJSON protocol
//            (docs/SERVING.md) until killed; one thread per connection,
//            all connections share one engine, cache, and admission
//            controller
//   client   connect to a running daemon, send one request line per
//            stdin line, and print every response line through each
//            request's terminal line
//
// The daemon prints "listening <port>" on stdout once the socket is
// bound (resolving --port=0 to the ephemeral port), so scripts can start
// it on a free port and scrape the real one — the CI server smoke stage
// does exactly that.

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "server/kvccd.h"
#include "server/tcp_transport.h"

namespace {

using namespace kvcc;

// The most engine workers `serve --threads` starts, as for `kvcc`.
constexpr std::uint32_t kMaxThreads = 1024;

int Usage() {
  std::cerr <<
      "usage: kvccd <command> [args]\n"
      "  serve [--port=P] [--threads=N] [--cache-bytes=B]\n"
      "        [--max-interactive=N] [--max-normal=N] [--max-bulk=N]\n"
      "        [--max-total=N] [--bulk-reserve=N]\n"
      "        (--port=0 picks a free port; the bound port is printed as\n"
      "         \"listening <port>\" once ready. --threads: engine\n"
      "         workers, at most 1024, 0 = all hardware threads.\n"
      "         --cache-bytes: result cache budget, 0 disables. Admission\n"
      "         caps are 0 = unlimited; --bulk-reserve keeps the last N\n"
      "         total slots away from bulk jobs, shedding bulk first.)\n"
      "  client --port=P\n"
      "        (sends each stdin line as one request; prints response\n"
      "         lines through the request's terminal line, then reads\n"
      "         the next stdin line. Exit 1 on connect failure.)\n";
  return 2;
}

bool ParseUint64(const std::string& value, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
  if (value.empty() || *end != '\0' || value[0] == '-' || errno == ERANGE) {
    return false;
  }
  out = parsed;
  return true;
}

bool ParseUint32(const std::string& value, std::uint32_t& out) {
  std::uint64_t wide = 0;
  if (!ParseUint64(value, wide) || wide > 0xFFFFFFFFull) return false;
  out = static_cast<std::uint32_t>(wide);
  return true;
}

/// Splits "--name=value" option syntax; returns false if `arg` is not
/// that option.
bool OptionValue(const std::string& arg, const std::string& name,
                 std::string& value) {
  const std::string prefix = name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  value = arg.substr(prefix.size());
  return true;
}

int Serve(const std::vector<std::string>& args) {
  std::uint32_t port = 0;
  std::uint32_t threads = 1;
  server::KvccdConfig config;
  for (const std::string& arg : args) {
    std::string value;
    bool ok = true;
    if (OptionValue(arg, "--port", value)) {
      ok = ParseUint32(value, port) && port <= 65535;
    } else if (OptionValue(arg, "--threads", value)) {
      ok = ParseUint32(value, threads) && threads <= kMaxThreads;
    } else if (OptionValue(arg, "--cache-bytes", value)) {
      ok = ParseUint64(value, config.cache_bytes);
    } else if (OptionValue(arg, "--max-interactive", value)) {
      ok = ParseUint32(value, config.admission.max_interactive);
    } else if (OptionValue(arg, "--max-normal", value)) {
      ok = ParseUint32(value, config.admission.max_normal);
    } else if (OptionValue(arg, "--max-bulk", value)) {
      ok = ParseUint32(value, config.admission.max_bulk);
    } else if (OptionValue(arg, "--max-total", value)) {
      ok = ParseUint32(value, config.admission.max_total);
    } else if (OptionValue(arg, "--bulk-reserve", value)) {
      ok = ParseUint32(value, config.admission.bulk_reserve);
    } else {
      std::cerr << "kvccd serve: unknown option " << arg << "\n";
      return Usage();
    }
    if (!ok) {
      std::cerr << "kvccd serve: bad value in " << arg << "\n";
      return Usage();
    }
  }
  config.engine_threads = threads;

  server::KvccdServer daemon(config);
  server::TcpListener listener(static_cast<std::uint16_t>(port));
  std::cout << "listening " << listener.BoundPort() << "\n" << std::flush;
  for (;;) {
    std::unique_ptr<server::Transport> connection = listener.Accept();
    if (connection == nullptr) break;
    std::thread([&daemon, conn = std::move(connection)]() mutable {
      daemon.ServeConnection(*conn);
      conn->Close();
    }).detach();
  }
  return 0;
}

/// True for response lines that are followed by more lines of the same
/// request; everything else ends the request's response.
bool IsNonTerminalLine(const std::string& line) {
  return line.rfind("{\"type\":\"component\"", 0) == 0 ||
         line.rfind("{\"type\":\"progress\"", 0) == 0 ||
         line.rfind("{\"type\":\"level\"", 0) == 0;
}

int Client(const std::vector<std::string>& args) {
  std::uint32_t port = 0;
  for (const std::string& arg : args) {
    std::string value;
    if (!OptionValue(arg, "--port", value) || !ParseUint32(value, port) ||
        port == 0 || port > 65535) {
      std::cerr << "kvccd client: expected --port=P, got " << arg << "\n";
      return Usage();
    }
  }
  if (port == 0) {
    std::cerr << "kvccd client: --port=P is required\n";
    return Usage();
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    std::cerr << "kvccd client: socket() failed\n";
    return 1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    std::cerr << "kvccd client: cannot connect to 127.0.0.1:" << port
              << "\n";
    ::close(fd);
    return 1;
  }
  server::TcpTransport transport(fd);
  std::string request;
  while (std::getline(std::cin, request)) {
    if (request.find_first_not_of(" \t\r") == std::string::npos) continue;
    if (!transport.WriteLine(request)) {
      std::cerr << "kvccd client: server closed the connection\n";
      return 1;
    }
    std::string response;
    for (;;) {
      if (!transport.ReadLine(response)) {
        std::cerr << "kvccd client: server closed mid-response\n";
        return 1;
      }
      std::cout << response << "\n";
      if (!IsNonTerminalLine(response)) break;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (command == "serve") return Serve(args);
    if (command == "client") return Client(args);
  } catch (const std::exception& e) {
    std::cerr << "kvccd: " << e.what() << "\n";
    return 1;
  }
  return Usage();
}
