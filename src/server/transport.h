// The kvccd transport seam: one accepted connection as a blocking
// line-oriented byte channel.
//
// The whole request → admission → cache → engine → stream path in
// kvccd.{h,cc} is written against this interface, so the protocol loop is
// testable without real sockets or wall-clock sleeps: production traffic
// runs over TcpTransport (tcp_transport.h), and the deterministic
// in-process tests run over the LoopbackTransport pair below, whose
// bounded write queues and condition-variable hooks let a test *prove* the
// server is parked on a slow reader before it acts, instead of sleeping
// and hoping (tests/kvccd_protocol_test.cc).
#ifndef KVCC_SERVER_TRANSPORT_H_
#define KVCC_SERVER_TRANSPORT_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <string>

/// \file
/// \brief Transport: the kvccd connection seam (blocking line channel),
/// with the deterministic in-process LoopbackTransport implementation.

namespace kvcc {
namespace server {

/// \brief One accepted kvccd connection as a blocking line channel.
///
/// The server side reads request lines and writes response lines; both
/// calls block (ReadLine until a line or EOF arrives, WriteLine while the
/// peer's receive queue is full) and both report peer departure by
/// returning false — the server maps a false WriteLine mid-stream to
/// abandoning the job's ResultStream, which fires the engine's cancel
/// token (see docs/SERVING.md). Implementations must support one reader
/// thread plus one writer thread concurrently with Close() from any
/// thread.
class Transport {
 public:
  /// \brief Closing is the owner's job; the destructor must not block.
  virtual ~Transport();

  /// \brief Blocks until the next newline-terminated line arrives and
  /// stores it (newline stripped).
  /// \param line Receives the line content on success.
  /// \return False once the peer has closed and every buffered line was
  ///   consumed (EOF); true otherwise.
  virtual bool ReadLine(std::string& line) = 0;

  /// \brief Sends one line (a trailing newline is appended on the wire).
  ///
  /// Blocks while the peer's receive buffer is full — this is the slow
  /// reader backpressure the server relies on — and fails once the peer
  /// is gone.
  /// \param line Line content without trailing newline.
  /// \return False if the peer closed (the line may be dropped); true
  ///   once the line was accepted.
  virtual bool WriteLine(const std::string& line) = 0;

  /// \brief Closes both directions; concurrent blocked ReadLine/WriteLine
  /// calls on either endpoint unblock and return false. Idempotent.
  virtual void Close() = 0;
};

namespace internal {

/// One direction of a loopback connection: a bounded (or unbounded) line
/// queue plus the bookkeeping the test hooks observe. Guarded by the
/// owning LoopbackState's mutex.
struct LoopbackDirection {
  std::deque<std::string> lines;
  std::size_t capacity = 0;  // 0 = unbounded
  bool closed = false;       // either endpoint closed; latching
  std::size_t writers_blocked = 0;   // writers parked on a full queue now
};

/// State shared by the two endpoints of one loopback connection.
struct LoopbackState {
  std::mutex mutex;
  std::condition_variable cv;
  LoopbackDirection client_to_server;
  LoopbackDirection server_to_client;
};

}  // namespace internal

struct LoopbackPair;

/// \brief Deterministic in-process Transport endpoint (one end of a
/// MakeLoopbackPair connection).
///
/// Beyond the Transport contract it exposes the synchronization hooks the
/// protocol tests are built on: a test can block until the peer is
/// provably parked in WriteLine on this endpoint's full receive queue
/// (WaitUntilPeerBlockedWriting) — no sleeps, no polling — and can close
/// its end mid-stream to reproduce a client disconnect exactly at that
/// point.
class LoopbackEndpoint : public Transport {
 public:
  bool ReadLine(std::string& line) override;
  bool WriteLine(const std::string& line) override;
  void Close() override;

  /// \brief Blocks until at least one writer on the *peer* endpoint is
  /// parked inside WriteLine because this endpoint's receive queue is
  /// full, or the connection is closed.
  /// \return True if a blocked peer writer was observed; false if the
  ///   connection closed first.
  bool WaitUntilPeerBlockedWriting();

 private:
  friend LoopbackPair MakeLoopbackPair(std::size_t, std::size_t);
  LoopbackEndpoint(std::shared_ptr<internal::LoopbackState> state,
                   bool is_client);

  internal::LoopbackDirection& inbound() const;
  internal::LoopbackDirection& outbound() const;

  std::shared_ptr<internal::LoopbackState> state_;
  bool is_client_ = false;
};

/// \brief The two endpoints of one in-process connection
/// (MakeLoopbackPair).
struct LoopbackPair {
  /// \brief The client's end: writes requests, reads responses.
  std::unique_ptr<LoopbackEndpoint> client;
  /// \brief The server's end: passed to KvccdServer::ServeConnection.
  std::unique_ptr<LoopbackEndpoint> server;
};

/// \brief Creates a connected in-process transport pair.
///
/// \param client_to_server_capacity Request-queue bound in lines
///   (0 = unbounded): a client writing past it blocks like a full socket
///   send buffer.
/// \param server_to_client_capacity Response-queue bound in lines
///   (0 = unbounded): the server writing past it blocks until the client
///   reads — the deterministic stand-in for a slow reader's TCP window.
/// \return The connected pair.
LoopbackPair MakeLoopbackPair(std::size_t client_to_server_capacity = 0,
                              std::size_t server_to_client_capacity = 0);

}  // namespace server
}  // namespace kvcc

#endif  // KVCC_SERVER_TRANSPORT_H_
