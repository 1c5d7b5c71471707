#include "server/tcp_transport.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace kvcc {
namespace server {
namespace {

// Hard wire-level cap on one request line. The protocol's own request
// limit (protocol.h kMaxRequestBytes) is far smaller; this bound only
// keeps a newline-free byte flood from growing buffer_ without limit.
constexpr std::size_t kWireLineCap = 8u << 20;

}  // namespace

TcpTransport::TcpTransport(int fd) : fd_(fd) {}

TcpTransport::~TcpTransport() { Close(); }

bool TcpTransport::ReadLine(std::string& line) {
  bool discarding = false;  // past the cap: drop bytes until newline
  for (;;) {
    const std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      line.assign(buffer_, 0, newline);
      buffer_.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return true;
    }
    if (buffer_.size() > kWireLineCap && !discarding) {
      // Keep the truncated prefix as the line the protocol layer will
      // reject as overlong; drop the remainder of the wire line.
      line = std::move(buffer_);
      buffer_.clear();
      discarding = true;
    }
    char chunk[4096];
    const ssize_t got = ::recv(fd_ < 0 ? -1 : fd_, chunk, sizeof(chunk), 0);
    if (got <= 0) {
      if (got < 0 && (errno == EINTR)) continue;
      // EOF (or error, or Close() from another thread): any partial
      // trailing line without a newline is delivered as a final line.
      if (!discarding && !buffer_.empty()) {
        line = std::move(buffer_);
        buffer_.clear();
        return true;
      }
      return discarding && !line.empty();
    }
    if (discarding) {
      const char* nl = static_cast<const char*>(
          std::memchr(chunk, '\n', static_cast<std::size_t>(got)));
      if (nl != nullptr) {
        buffer_.assign(nl + 1, static_cast<const char*>(chunk) + got);
        return true;  // the truncated overlong line
      }
      continue;
    }
    buffer_.append(chunk, static_cast<std::size_t>(got));
  }
}

bool TcpTransport::WriteLine(const std::string& line) {
  std::string wire = line;
  wire.push_back('\n');
  std::size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n = ::send(fd_ < 0 ? -1 : fd_, wire.data() + sent,
                             wire.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;  // peer gone (EPIPE/ECONNRESET) or socket closed
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

void TcpTransport::Close() {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    fd_ = -1;
  }
}

TcpListener::TcpListener(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("kvccd: socket() failed");
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("kvccd: cannot bind 127.0.0.1:" +
                             std::to_string(port));
  }
  if (::listen(fd_, 64) != 0) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("kvccd: listen() failed");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_ = ntohs(bound.sin_port);
  } else {
    port_ = port;
  }
}

TcpListener::~TcpListener() { Close(); }

std::unique_ptr<Transport> TcpListener::Accept() {
  for (;;) {
    const int fd = ::accept(fd_ < 0 ? -1 : fd_, nullptr, nullptr);
    if (fd >= 0) {
      // Every WriteLine leaves at once. With Nagle on, the tail of a
      // multi-line response waits for the client's delayed ACK (~40 ms).
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return std::make_unique<TcpTransport>(fd);
    }
    if (errno == EINTR) continue;
    return nullptr;  // Close()d or unrecoverable
  }
}

void TcpListener::Close() {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace server
}  // namespace kvcc
