// Algorithm 1 replayed from outside the library, one layer call at a time,
// so each layer's time can be read off spans recorded in the benchmark's
// own code: KCoreVertices -> Graph::InducedSubgraph -> ConnectedComponents
// -> GlobalCut -> OverlapPartition, with BuildSparseCertificate and
// ComputeStrongSideVertices re-run on every GlobalCut input.
//
// The replay takes the staged prune path and carries no side-vertex hints,
// so its timings approximate the engine's rather than equal them; its
// components must still equal the end-to-end op's output exactly.
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "kvcc/global_cut.h"
#include "kvcc/side_vertex.h"
#include "kvcc/sparse_certificate.h"
#include "kvcc/stats.h"
#include "metrics.h"
#include "trace.h"

namespace perfbench {

using ComponentList = std::vector<std::vector<kvcc::VertexId>>;

class Algorithm1Replay {
 public:
  /// An untraced replay records no spans and skips the out-of-line
  /// certificate and side-vertex runs: it is the baseline trace.overhead
  /// divides by.
  explicit Algorithm1Replay(bool traced) : traced_(traced) {}

  /// Decomposes `root` (which carries no labels) at `k`; returns the
  /// canonically sorted k-VCCs. `op` tags the spans.
  ComponentList Run(const kvcc::Graph& root, std::uint32_t k, std::uint32_t op);

  /// Adds graph.kcore/subgraph/components.ms, kvcc.global_cut.self_ms,
  /// kvcc.certificate.ms, kvcc.side_vertex.ms and kvcc.partition.ms.
  void AddLayerMetrics(Report& report) const;

  const SpanRecorder& spans() const { return spans_; }

 private:
  void Process(const kvcc::Graph& g, std::uint32_t k, std::uint32_t op,
               std::vector<kvcc::Graph>& pending, ComponentList& found);

  const bool traced_;
  SpanRecorder spans_;
  kvcc::GlobalCutScratch cut_scratch_;
  kvcc::SparseCertificate certificate_;
  kvcc::CertificateScratch certificate_scratch_;
  kvcc::SideVertexScratch side_scratch_;
};

/// Adds `metric` as the summed self time of the spans named `span`, with
/// the span count as its sample count.
void AddSelfMillis(const SpanRecorder& spans, const char* span,
                   const char* metric, Report& report);

/// Adds the work counts of the end-to-end ops (flow calls, edges touched,
/// the certificate's keep ratio, sweep and skip shares, probes launched
/// and wasted) and the edge inflation against `serial_edges`, the serial
/// run's edges touched.
void AddKvccStatsMetrics(const kvcc::KvccStats& stats,
                         std::uint64_t serial_edges, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
