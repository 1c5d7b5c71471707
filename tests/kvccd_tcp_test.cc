// kvccd over a real loopback TCP socket. Accepted sockets must send each
// response line as it is written: with Nagle's algorithm on, the tail of
// every multi-line response waits for the client's delayed ACK (~40 ms).
// The suite pins that with a latency budget over cache hits, and checks
// that the lines TCP delivers equal the loopback transport's byte for byte.
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "server/kvccd.h"
#include "server/tcp_transport.h"
#include "server/transport.h"

namespace kvcc {
namespace {

using server::KvccdServer;

/// Two disjoint triangles at k = 2: two component lines plus the terminal
/// line.
constexpr char kThreeLineRequest[] =
    "{\"op\":\"decompose\",\"k\":2,"
    "\"edges\":[[0,1],[1,2],[0,2],[3,4],[4,5],[3,5]]}";

/// A client TcpTransport on 127.0.0.1:port, connected as `kvccd client`
/// connects (no socket options).
std::unique_ptr<server::TcpTransport> Connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return nullptr;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return nullptr;
  }
  return std::make_unique<server::TcpTransport>(fd);
}

/// Sends one request and reads its response through the terminal line.
std::vector<std::string> Roundtrip(server::Transport& client,
                                   const std::string& request) {
  std::vector<std::string> lines;
  if (!client.WriteLine(request)) return lines;
  std::string line;
  while (client.ReadLine(line)) {
    lines.push_back(line);
    if (line.rfind("{\"type\":\"component\"", 0) != 0) break;
  }
  return lines;
}

/// One daemon connection over a real loopback socket, served on its own
/// thread. The client connects before the server end is accepted (the
/// kernel completes the handshake from the listen backlog), so no thread
/// ever waits in Accept. Destruction closes the client and joins.
class TcpConnection {
 public:
  explicit TcpConnection(KvccdServer& daemon)
      : client_(Connect(listener_.BoundPort())),
        server_(client_ != nullptr ? listener_.Accept() : nullptr),
        thread_([this, &daemon] {
          if (server_ != nullptr) daemon.ServeConnection(*server_);
        }) {}

  ~TcpConnection() {
    if (client_ != nullptr) client_->Close();
    thread_.join();
  }

  /// The client end, or null if the connection could not be made.
  server::Transport* client() { return client_.get(); }

 private:
  server::TcpListener listener_{0};
  std::unique_ptr<server::TcpTransport> client_;
  std::unique_ptr<server::Transport> server_;
  std::thread thread_;
};

TEST(KvccdTcpTest, MultiLineCacheHitsAreNotHeldBack) {
  // The reference: the same request over the in-process loopback.
  std::vector<std::string> expected;
  {
    KvccdServer daemon;
    server::LoopbackPair pair = server::MakeLoopbackPair();
    std::thread serving([&] { daemon.ServeConnection(*pair.server); });
    expected = Roundtrip(*pair.client, kThreeLineRequest);
    pair.client->Close();
    serving.join();
  }
  ASSERT_EQ(expected.size(), 3u);

  KvccdServer daemon;
  TcpConnection conn(daemon);
  ASSERT_NE(conn.client(), nullptr);
  // Warm-up: one cold decompose, then cache hits.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(Roundtrip(*conn.client(), kThreeLineRequest), expected);
  }
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(Roundtrip(*conn.client(), kThreeLineRequest), expected);
  }
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  EXPECT_EQ(daemon.Cache().Hits(), 24u);
  // A delayed-ACK stall costs ~40 ms per response, 800 ms over 20.
  EXPECT_LT(elapsed_ms, 400.0)
      << "20 three-line cache hits over TCP took " << elapsed_ms << " ms";
}

}  // namespace
}  // namespace kvcc
