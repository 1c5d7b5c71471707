// kvccd: a long-lived k-VCC decomposition service.
//
// One KvccdServer owns one KvccEngine (persistent work-stealing pool),
// one ResultCache, and one AdmissionController; any number of connection
// threads call ServeConnection concurrently. The connection loop maps:
//
//   * request lines        -> KvccEngine::SubmitStream jobs (decompose)
//                             or BuildKvccHierarchy jobs (hierarchy /
//                             membership);
//   * client disconnect    -> stream abandonment, which fires the job's
//                             CancelToken (Engine::Cancel semantics);
//   * slow readers         -> Transport::WriteLine backpressure on the
//                             connection thread alone: a decompose job
//                             streams unbounded, so a reader that stops
//                             never parks an engine worker;
//   * admission caps       -> one "overloaded" error line, bulk shed
//                             first (AdmissionController);
//   * deadline expiry      -> one "cancelled" close line, connection
//                             stays alive.
//
// The server also owns one dynamic graph (VersionedGraph +
// IncrementalKvcc): insert_edges / delete_edges / compact requests mutate
// it, decompose / hierarchy / membership requests with "dynamic": true
// read it. Mutations run the incremental re-decomposition and rekey the
// result cache by the outcome's dirty-level set, so untouched
// (fingerprint, k) entries keep hitting byte-identically across
// mutations (docs/DYNAMIC.md).
//
// The server is transport-agnostic (the Transport seam): production runs
// TcpTransport connections (tools/kvccd_cli.cc), the protocol tests run
// deterministic in-process loopback pairs. Protocol and byte-identity
// guarantees are documented in docs/SERVING.md.
#ifndef KVCC_SERVER_KVCCD_H_
#define KVCC_SERVER_KVCCD_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>

#include "graph/delta_store.h"
#include "kvcc/engine.h"
#include "kvcc/incremental.h"
#include "server/admission.h"
#include "server/protocol.h"
#include "server/result_cache.h"
#include "server/transport.h"

/// \file
/// \brief KvccdServer: the kvccd request loop — admission, cache,
/// engine, NDJSON rendering — behind the Transport seam.

namespace kvcc {
namespace server {

/// \brief Configuration of one KvccdServer.
struct KvccdConfig {
  /// \brief Engine worker threads; 0 = one per hardware thread.
  unsigned engine_threads = 1;
  /// \brief Result-cache byte budget; 0 disables caching.
  std::uint64_t cache_bytes = 64u << 20;
  /// \brief Admission caps; zeros mean unlimited.
  AdmissionLimits admission;
};

/// \brief The kvccd request loop. Thread-safe: one instance serves any
/// number of concurrent connections.
class KvccdServer {
 public:
  /// \brief Creates the server; the engine's worker pool starts
  /// immediately.
  /// \param config Engine, cache, and admission configuration.
  explicit KvccdServer(const KvccdConfig& config = {});

  /// \brief Serves one connection until the client disconnects.
  ///
  /// Reads request lines, writes response lines; returns when ReadLine
  /// reports EOF or a response write fails (peer gone). Safe to call
  /// from many threads concurrently.
  /// \param transport The connection (borrowed for the call).
  void ServeConnection(Transport& transport);

  /// \brief The decomposition cache (for tests and monitoring).
  /// \return The cache.
  const ResultCache& Cache() const { return cache_; }

  /// \brief The admission controller (for tests and monitoring).
  /// \return The controller.
  const AdmissionController& Admission() const { return admission_; }

  /// \brief Streams abandoned because a mid-job response write failed —
  /// each one fired the job's cancel token.
  /// \return The count (monotone).
  std::uint64_t DisconnectCancels() const {
    return disconnect_cancels_.load(std::memory_order_relaxed);
  }

  /// \brief Jobs that ended with a "cancelled" close line because their
  /// deadline elapsed.
  /// \return The count (monotone).
  std::uint64_t DeadlineCancels() const {
    return deadline_cancels_.load(std::memory_order_relaxed);
  }

  /// \brief Renders the "stats" response line. Every field is a
  /// deterministic function of the served request sequence (no
  /// timestamps), so stats replay identically across identical runs.
  /// \return The NDJSON line.
  std::string StatsLine() const;

 private:
  // Dispatch and the handlers write only the lines before a response's
  // terminal line and return that line, which ServeConnection writes once
  // Dispatch's admission slot is released; std::nullopt means a write
  // failed (the connection is gone, stop serving).
  std::optional<std::string> Dispatch(Transport& transport,
                                      const Request& request);
  std::string HandleMutation(const Request& request);
  std::string HandleCompact();
  std::optional<std::string> HandleDynamicDecompose(Transport& transport,
                                                    const Request& request);
  std::optional<std::string> HandleDecompose(Transport& transport,
                                             const Request& request,
                                             const Graph& g);
  std::optional<std::string> HandleHierarchy(Transport& transport,
                                             const Request& request,
                                             const Graph& g);
  std::string HandleMembership(const Request& request, const Graph& g);
  std::optional<std::string> EmitDecompose(Transport& transport,
                                           const Request& request,
                                           const ComponentList& components);
  // Answers a decompose from a finished component list: the progress
  // lines a cold run of it would have written, then EmitDecompose.
  std::optional<std::string> ReplayDecompose(Transport& transport,
                                             const Request& request,
                                             const ComponentList& components);
  bool ResolveGraph(const Request& request, Graph& g, std::string& error);
  // Obtains the (cached or freshly built) hierarchy for a hierarchy /
  // membership request. On null, `failure` holds the response's terminal
  // line (cancelled / internal error).
  std::shared_ptr<const KvccHierarchy> ObtainHierarchy(
      const Request& request, const Graph& g, std::uint32_t max_level,
      bool need_exhausted, const char* op, std::string& failure);
  // The rendering halves of hierarchy / membership, shared between the
  // static (cache-or-build) and dynamic (incrementally maintained) paths.
  std::optional<std::string> RenderHierarchy(Transport& transport,
                                             const Request& request,
                                             const KvccHierarchy& hierarchy);
  std::string RenderMembership(const Request& request, const Graph& g,
                               const KvccHierarchy& hierarchy);

  const KvccdConfig config_;
  KvccEngine engine_;
  ResultCache cache_;
  AdmissionController admission_;
  // The dynamic graph and its incrementally maintained hierarchy.
  // dynamic_mutex_ serializes mutations and snapshots of the pair; the
  // shared_ptrs handed out stay valid (and frozen) across later updates.
  std::mutex dynamic_mutex_;
  VersionedGraph dynamic_graph_;
  IncrementalKvcc dynamic_state_;
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> disconnect_cancels_{0};
  std::atomic<std::uint64_t> deadline_cancels_{0};
  // Dynamic-graph counters surfaced in StatsLine (replay-identical).
  std::atomic<std::uint64_t> delta_edges_applied_{0};
  std::atomic<std::uint64_t> dirty_components_{0};
  std::atomic<std::uint64_t> incremental_reruns_{0};
  std::atomic<std::uint64_t> compactions_{0};
};

}  // namespace server
}  // namespace kvcc

#endif  // KVCC_SERVER_KVCCD_H_
