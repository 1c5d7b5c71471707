#include "server/transport.h"

#include <utility>

namespace kvcc {
namespace server {

Transport::~Transport() = default;

namespace {

using internal::LoopbackDirection;
using internal::LoopbackState;

}  // namespace

LoopbackEndpoint::LoopbackEndpoint(std::shared_ptr<LoopbackState> state,
                                   bool is_client)
    : state_(std::move(state)), is_client_(is_client) {}

LoopbackDirection& LoopbackEndpoint::inbound() const {
  return is_client_ ? state_->server_to_client : state_->client_to_server;
}

LoopbackDirection& LoopbackEndpoint::outbound() const {
  return is_client_ ? state_->client_to_server : state_->server_to_client;
}

bool LoopbackEndpoint::ReadLine(std::string& line) {
  std::unique_lock<std::mutex> lock(state_->mutex);
  LoopbackDirection& dir = inbound();
  state_->cv.wait(lock,
                  [&] { return !dir.lines.empty() || dir.closed; });
  // Drain buffered lines even after a close, mirroring TCP: data sent
  // before the peer's close is still delivered, then EOF.
  if (dir.lines.empty()) return false;
  line = std::move(dir.lines.front());
  dir.lines.pop_front();
  state_->cv.notify_all();
  return true;
}

bool LoopbackEndpoint::WriteLine(const std::string& line) {
  std::unique_lock<std::mutex> lock(state_->mutex);
  LoopbackDirection& dir = outbound();
  if (dir.capacity != 0 && dir.lines.size() >= dir.capacity &&
      !dir.closed) {
    ++dir.writers_blocked;
    state_->cv.notify_all();  // wake WaitUntilPeerBlockedWriting observers
    state_->cv.wait(lock, [&] {
      return dir.closed ||
             (dir.capacity != 0 && dir.lines.size() < dir.capacity);
    });
    --dir.writers_blocked;
  }
  if (dir.closed) return false;
  dir.lines.push_back(line);
  state_->cv.notify_all();
  return true;
}

void LoopbackEndpoint::Close() {
  std::lock_guard<std::mutex> lock(state_->mutex);
  state_->client_to_server.closed = true;
  state_->server_to_client.closed = true;
  state_->cv.notify_all();
}

bool LoopbackEndpoint::WaitUntilPeerBlockedWriting() {
  std::unique_lock<std::mutex> lock(state_->mutex);
  LoopbackDirection& dir = inbound();  // the peer writes toward us
  state_->cv.wait(lock,
                  [&] { return dir.writers_blocked > 0 || dir.closed; });
  return dir.writers_blocked > 0;
}

LoopbackPair MakeLoopbackPair(std::size_t client_to_server_capacity,
                              std::size_t server_to_client_capacity) {
  auto state = std::make_shared<LoopbackState>();
  state->client_to_server.capacity = client_to_server_capacity;
  state->server_to_client.capacity = server_to_client_capacity;
  LoopbackPair pair;
  pair.client.reset(new LoopbackEndpoint(state, /*is_client=*/true));
  pair.server.reset(new LoopbackEndpoint(state, /*is_client=*/false));
  return pair;
}

}  // namespace server
}  // namespace kvcc
