// Real-socket Transport implementation for kvccd: a loopback-bound TCP
// listener handing out connected TcpTransport channels.
//
// This is deliberately the thin end of the seam — framing, limits, and all
// protocol behavior live transport-agnostically in kvccd.cc, proven by the
// LoopbackTransport tests; this file only turns POSIX sockets into the
// blocking line channel Transport specifies.
#ifndef KVCC_SERVER_TCP_TRANSPORT_H_
#define KVCC_SERVER_TCP_TRANSPORT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "server/transport.h"

/// \file
/// \brief TcpListener / TcpTransport: the production socket
/// implementation of the kvccd Transport seam.

namespace kvcc {
namespace server {

/// \brief Transport over one connected TCP socket.
///
/// ReadLine recv()s into an internal buffer and splits at '\n'; a line
/// longer than the wire cap (8 MiB) is truncated to the cap and the rest
/// discarded up to the next newline, so one hostile client line cannot
/// grow server memory without bound — the protocol layer's (smaller)
/// request-size limit then rejects the truncated line as overlong.
/// WriteLine send()s with SIGPIPE suppressed and reports a gone peer by
/// returning false, exactly as the seam requires.
class TcpTransport : public Transport {
 public:
  /// \brief Adopts a connected socket fd (takes ownership).
  /// \param fd The accepted socket.
  explicit TcpTransport(int fd);
  /// \brief Closes the socket if still open.
  ~TcpTransport() override;

  bool ReadLine(std::string& line) override;
  bool WriteLine(const std::string& line) override;
  void Close() override;

 private:
  int fd_ = -1;
  std::string buffer_;  // bytes received but not yet returned as lines
};

/// \brief Listening socket producing TcpTransport connections.
///
/// Binds 127.0.0.1 only: kvccd has no authentication story yet, so the
/// default posture is local-only serving (docs/SERVING.md).
class TcpListener {
 public:
  /// \brief Binds and listens on 127.0.0.1:port.
  /// \param port Port to bind; 0 picks an ephemeral port (see
  ///   BoundPort()).
  /// \throws std::runtime_error if socket/bind/listen fails.
  explicit TcpListener(std::uint16_t port);
  /// \brief Closes the listening socket if still open.
  ~TcpListener();

  /// \brief The actual bound port (resolves port 0).
  /// \return The port number.
  std::uint16_t BoundPort() const { return port_; }

  /// \brief Blocks for the next connection. The accepted socket has
  /// TCP_NODELAY set, so each response line is sent as it is written.
  /// \return A connected transport, or null once Close() was called (or
  ///   on an unrecoverable accept error).
  std::unique_ptr<Transport> Accept();

  /// \brief Unblocks Accept() and stops listening. Idempotent.
  void Close();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace server
}  // namespace kvcc

#endif  // KVCC_SERVER_TCP_TRANSPORT_H_
