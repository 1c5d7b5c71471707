#include "replay.h"

#include <algorithm>
#include <utility>

#include "graph/connected_components.h"
#include "graph/k_core.h"
#include "kvcc/kvcc_enum.h"
#include "kvcc/options.h"
#include "kvcc/stats.h"

namespace perfbench {

using kvcc::Graph;
using kvcc::VertexId;

ComponentList Algorithm1Replay::Run(const Graph& root, std::uint32_t k,
                                    std::uint32_t op) {
  ComponentList found;
  std::vector<Graph> pending;  // LIFO, like the serial enumeration
  Process(root, k, op, pending, found);
  while (!pending.empty()) {
    const Graph g = std::move(pending.back());
    pending.pop_back();
    Process(g, k, op, pending, found);
  }
  std::sort(found.begin(), found.end());
  return found;
}

void Algorithm1Replay::Process(const Graph& g, std::uint32_t k,
                               std::uint32_t op, std::vector<Graph>& pending,
                               ComponentList& found) {
  static const std::vector<kvcc::SideVertexHint> kNoHints;
  const kvcc::KvccOptions options;  // VCCE*, as the timed ops run
  kvcc::KvccStats unused_stats;
  SpanRecorder* const spans = traced_ ? &spans_ : nullptr;

  std::vector<VertexId> survivors;
  {
    ScopedSpan span(spans, "graph.kcore", op);
    survivors = kvcc::KCoreVertices(g, k);
  }
  if (survivors.size() <= k) return;
  Graph core_owned;
  const Graph* core = &g;
  if (survivors.size() != g.NumVertices()) {
    ScopedSpan span(spans, "graph.subgraph", op);
    core_owned = g.InducedSubgraph(survivors);
    core = &core_owned;
  }
  ComponentList components;
  {
    ScopedSpan span(spans, "graph.components", op);
    components = kvcc::ConnectedComponents(*core);
  }
  for (const std::vector<VertexId>& component : components) {
    if (component.size() <= k) continue;
    Graph sub_owned;
    const Graph* sub = core;
    if (component.size() != core->NumVertices()) {
      ScopedSpan span(spans, "graph.subgraph", op);
      sub_owned = core->InducedSubgraph(component);
      sub = &sub_owned;
    }

    // Both steps also run inside GlobalCut. The traced replay re-runs them
    // out of line on the same input and attributes them to the call, which
    // leaves the call's self time to probes and sweeps.
    Clock::time_point certificate_start;
    Clock::time_point side_start;
    Clock::time_point side_end;
    if (traced_) {
      certificate_start = Clock::now();
      kvcc::BuildSparseCertificate(*sub, k, certificate_,
                                   certificate_scratch_);
      side_start = Clock::now();
      kvcc::ComputeStrongSideVerticesInto(*sub, k, kNoHints,
                                          options.side_vertex_degree_cap,
                                          side_scratch_);
      side_end = Clock::now();
    }
    kvcc::GlobalCutResult cut;
    int cut_span = -1;
    {
      ScopedSpan span(spans, "kvcc.global_cut", op);
      cut_span = span.id();
      cut = kvcc::GlobalCut(*sub, k, kNoHints, options, &unused_stats,
                            &cut_scratch_);
    }
    if (traced_) {
      spans_.Record("kvcc.certificate", op, cut_span, certificate_start,
                    side_start);
      spans_.Record("kvcc.side_vertex", op, cut_span, side_start, side_end);
    }

    if (cut.cut.empty()) {
      std::vector<VertexId> ids;
      ids.reserve(sub->NumVertices());
      for (VertexId v = 0; v < sub->NumVertices(); ++v) {
        ids.push_back(sub->LabelOf(v));
      }
      std::sort(ids.begin(), ids.end());
      found.push_back(std::move(ids));
      continue;
    }
    std::vector<kvcc::PartitionPiece> pieces;
    {
      ScopedSpan span(spans, "kvcc.partition", op);
      pieces = kvcc::OverlapPartition(*sub, cut.cut);
    }
    for (kvcc::PartitionPiece& piece : pieces) {
      pending.push_back(std::move(piece.graph));
    }
  }
}

void AddSelfMillis(const SpanRecorder& spans, const char* span,
                   const char* metric, Report& report) {
  const std::map<std::string, double> self = spans.SelfMillisByName();
  const std::map<std::string, std::size_t> counts = spans.CountByName();
  const auto ms = self.find(span);
  const auto n = counts.find(span);
  report.Add(metric, ms == self.end() ? 0.0 : ms->second, "ms",
             n == counts.end() ? 0 : n->second);
}

void Algorithm1Replay::AddLayerMetrics(Report& report) const {
  AddSelfMillis(spans_, "graph.kcore", "graph.kcore.ms", report);
  AddSelfMillis(spans_, "graph.subgraph", "graph.subgraph.ms", report);
  AddSelfMillis(spans_, "graph.components", "graph.components.ms", report);
  AddSelfMillis(spans_, "kvcc.global_cut", "kvcc.global_cut.self_ms", report);
  AddSelfMillis(spans_, "kvcc.certificate", "kvcc.certificate.ms", report);
  AddSelfMillis(spans_, "kvcc.side_vertex", "kvcc.side_vertex.ms", report);
  AddSelfMillis(spans_, "kvcc.partition", "kvcc.partition.ms", report);
}

void AddKvccStatsMetrics(const kvcc::KvccStats& t, std::uint64_t serial_edges,
                         Report& report) {
  const auto count = [](std::uint64_t value) {
    return static_cast<double>(value);
  };
  const auto share = [](std::uint64_t part, std::uint64_t whole) {
    return whole == 0 ? 0.0
                      : static_cast<double>(part) / static_cast<double>(whole);
  };
  const std::uint64_t pruned =
      t.phase1_pruned_ns1 + t.phase1_pruned_ns2 + t.phase1_pruned_gs;
  const std::uint64_t skipped = t.phase2_pairs_skipped_group +
                                t.phase2_pairs_skipped_adjacent +
                                t.phase2_pairs_skipped_common;
  const std::uint64_t side_verdicts =
      t.strong_side_checks_run + t.strong_side_verdicts_reused;
  const std::uint64_t wasted =
      t.probes_wasted_swept + t.probes_wasted_after_cut;
  report.Add("kvcc.probe.flow_calls", count(t.loc_cut_flow_calls), "count");
  report.Add("kvcc.probe.edges_touched", count(t.probe_edges_touched),
             "count");
  report.Add("kvcc.probe.localvc_share",
             share(t.probes_localvc, t.loc_cut_flow_calls), "ratio");
  report.Add("kvcc.certificate.keep_ratio",
             share(t.certificate_edges_kept, t.certificate_edges_input),
             "ratio");
  report.Add("kvcc.side_vertex.checks", count(t.strong_side_checks_run),
             "count");
  report.Add("kvcc.side_vertex.reuse_share",
             share(t.strong_side_verdicts_reused, side_verdicts), "ratio");
  report.Add("kvcc.sweep.prune_share", share(pruned, t.Phase1Total()),
             "ratio");
  report.Add("kvcc.phase2.skip_share",
             share(skipped, skipped + t.phase2_pairs_tested), "ratio");
  report.Add("kvcc.global_cut.calls", count(t.global_cut_calls), "count");
  report.Add("kvcc.partition.count", count(t.overlap_partitions), "count");
  report.Add("exec.probes_launched", count(t.probes_launched), "count");
  report.Add("exec.probe_waste_share", share(wasted, t.probes_launched),
             "ratio");
  report.Add("exec.edge_inflation",
             share(t.probe_edges_touched, serial_edges), "ratio");
}

}  // namespace perfbench
