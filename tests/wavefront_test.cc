// Determinism of the intra-GLOBAL-CUT probe wavefronts: with a multi-worker
// scheduler and a working graph of at least 128 vertices, both phases run
// their flow probes as concurrent waves that are committed serially, so
// the returned cut, the strong-side verdicts, and every replay-identical
// stats counter must be byte-identical to a serial search for every thread
// count — across the whole options matrix. Only the probe-waste
// diagnostics may differ from a serial run (which launches no speculative
// probes).

#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "exec/task_scheduler.h"
#include "gen/barabasi_albert.h"
#include "gen/fixtures.h"
#include "gen/harary.h"
#include "gen/planted_vcc.h"
#include "graph/connected_components.h"
#include "graph/graph_builder.h"
#include "graph/k_core.h"
#include "kvcc/engine.h"
#include "kvcc/global_cut.h"
#include "kvcc/kvcc_enum.h"
#include "support/brute_force.h"
#include "support/referee.h"
#include "support/replay_stats.h"
#include "support/workers.h"

namespace kvcc {
namespace {

const std::vector<std::uint32_t> kThreadCounts = {1, 2, 8};

std::vector<KvccOptions> AllVariants() {
  return {KvccOptions::Vcce(), KvccOptions::VcceN(), KvccOptions::VcceG(),
          KvccOptions::VcceStar()};
}

/// Runs body(pool) inside a worker task of a live scheduler of `workers`
/// workers — the configuration under which wavefronts engage. The pool
/// lends GLOBAL-CUT one scratch per worker, as KvccEngine does.
template <typename Body>
void RunInWorkerTask(unsigned workers, Body&& body) {
  exec::TaskScheduler scheduler(workers);
  std::vector<GlobalCutScratch> worker_scratch(workers);
  GlobalCutPool pool{&scheduler, {}};
  for (GlobalCutScratch& scratch : worker_scratch) {
    pool.worker_scratch.push_back(&scratch);
  }
  scheduler.Start();
  std::mutex mutex;
  std::condition_variable done_cv;
  bool done = false;
  scheduler.Submit([&](unsigned) {
    body(pool);
    std::lock_guard<std::mutex> lock(mutex);
    done = true;
    done_cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(mutex);
  done_cv.wait(lock, [&] { return done; });
  lock.unlock();
  scheduler.Stop();
}

/// Runs GlobalCut inside a worker task of a live multi-worker scheduler.
GlobalCutResult RunGlobalCutOnScheduler(const Graph& g, std::uint32_t k,
                                        const KvccOptions& options,
                                        KvccStats* stats, unsigned workers) {
  GlobalCutResult result;
  GlobalCutScratch scratch;
  RunInWorkerTask(workers, [&](const GlobalCutPool& pool) {
    result = GlobalCut(g, k, {}, options, stats, &scratch, &pool);
  });
  return result;
}

/// Algorithm 1 (k-core, components, GLOBAL-CUT, overlap partition) on a
/// serial stack, with every GLOBAL-CUT running its certificate-off search,
/// which no enumeration driver runs. With a pool, each search on 128 or
/// more vertices runs its probes as wavefronts on it. Returns the sorted
/// k-VCCs in g's ids; the searches' counters accumulate into `stats`.
std::vector<std::vector<VertexId>> EnumerateWithoutCertificate(
    const Graph& g, std::uint32_t k, const KvccOptions& options,
    const GlobalCutPool* pool, KvccStats* stats) {
  std::vector<std::vector<VertexId>> found;
  std::vector<Graph> pending = {g};
  GlobalCutScratch scratch;
  while (!pending.empty()) {
    const Graph cur = std::move(pending.back());
    pending.pop_back();
    const Graph core = cur.InducedSubgraph(KCoreVertices(cur, k));
    for (const std::vector<VertexId>& component : ConnectedComponents(core)) {
      if (component.size() <= k) continue;
      const Graph sub = core.InducedSubgraph(component);
      const GlobalCutResult result =
          GlobalCut(sub, k, {}, options, stats, &scratch, pool,
                    /*cancel=*/nullptr, /*use_certificate=*/false);
      if (result.cut.empty()) {
        std::vector<VertexId> all(sub.NumVertices());
        for (VertexId v = 0; v < sub.NumVertices(); ++v) all[v] = v;
        std::vector<VertexId> ids = sub.LabelsOf(all);
        std::sort(ids.begin(), ids.end());
        found.push_back(std::move(ids));
        continue;
      }
      for (PartitionPiece& piece : OverlapPartition(sub, result.cut)) {
        pending.push_back(std::move(piece.graph));
      }
    }
  }
  std::sort(found.begin(), found.end());
  return found;
}

/// Serial-path stats fields (everything except the probe-waste
/// diagnostics, which are by definition zero on serial runs).
void ExpectReplayIdenticalStats(const KvccStats& a, const KvccStats& b,
                                const std::string& context) {
  EXPECT_EQ(a.phase1_pruned_ns1, b.phase1_pruned_ns1) << context;
  EXPECT_EQ(a.phase1_pruned_ns2, b.phase1_pruned_ns2) << context;
  EXPECT_EQ(a.phase1_pruned_gs, b.phase1_pruned_gs) << context;
  EXPECT_EQ(a.phase1_tested_flow, b.phase1_tested_flow) << context;
  EXPECT_EQ(a.phase1_tested_trivial, b.phase1_tested_trivial) << context;
  EXPECT_EQ(a.phase2_pairs_tested, b.phase2_pairs_tested) << context;
  EXPECT_EQ(a.phase2_pairs_skipped_group, b.phase2_pairs_skipped_group)
      << context;
  EXPECT_EQ(a.phase2_pairs_skipped_adjacent, b.phase2_pairs_skipped_adjacent)
      << context;
  EXPECT_EQ(a.phase2_pairs_skipped_common, b.phase2_pairs_skipped_common)
      << context;
  EXPECT_EQ(a.loc_cut_flow_calls, b.loc_cut_flow_calls) << context;
  EXPECT_EQ(a.global_cut_calls, b.global_cut_calls) << context;
  EXPECT_EQ(a.strong_side_vertices_found, b.strong_side_vertices_found)
      << context;
  EXPECT_EQ(a.strong_side_checks_run, b.strong_side_checks_run) << context;
  EXPECT_EQ(a.certificate_cut_fallbacks, b.certificate_cut_fallbacks)
      << context;
}

/// Probe waste booked by the wavefront runs of one matrix.
struct Waste {
  std::uint64_t swept = 0;
  std::uint64_t after_cut = 0;
};

/// Serial GlobalCut vs GlobalCut inside a scheduler of each thread count,
/// across the options presets, on one graph of at least 128 vertices.
Waste ExpectWavefrontByteIdentity(const Graph& g, std::uint32_t k,
                                  const std::string& graph_name) {
  EXPECT_GE(g.NumVertices(), 128u) << graph_name;
  Waste waste;
  for (const KvccOptions& preset : AllVariants()) {
    KvccStats serial_stats;
    const GlobalCutResult serial =
        GlobalCut(g, k, {}, preset, &serial_stats);
    EXPECT_EQ(serial_stats.probe_wavefronts, 0u) << graph_name;
    for (const std::uint32_t threads : kThreadCounts) {
      KvccStats stats;
      const GlobalCutResult run =
          RunGlobalCutOnScheduler(g, k, preset, &stats, threads);
      const std::string context = graph_name + " k=" + std::to_string(k) +
                                  " threads=" + std::to_string(threads);
      EXPECT_EQ(run.cut, serial.cut) << context;
      ExpectReplayIdenticalStats(stats, serial_stats, context);
      if (threads > 1) {
        // Every committed flow test needed a launched probe, so serial
        // flow activity implies wavefront activity. (The converse is not
        // asserted: formation may speculate probes that commits discard.)
        if (serial_stats.loc_cut_flow_calls > 0) {
          EXPECT_GT(stats.probes_launched, 0u) << context;
        }
        waste.swept += stats.probes_wasted_swept;
        waste.after_cut += stats.probes_wasted_after_cut;
      } else {
        // One worker: every wave holds one probe, run inline.
        EXPECT_EQ(stats.probe_wavefronts, 0u) << context;
        EXPECT_EQ(stats.probes_launched, 0u) << context;
        EXPECT_EQ(stats.probes_wasted_swept, 0u) << context;
        EXPECT_EQ(stats.probes_wasted_after_cut, 0u) << context;
      }
    }
  }
  return waste;
}

TEST(WavefrontTest, KConnectedGraphByteIdentity) {
  // No cut exists: phase 1 sweeps everything, phase 2 runs to exhaustion —
  // the shallow-recursion shape intra-cut parallelism is for.
  ExpectWavefrontByteIdentity(HararyGraph(5, 130), 5, "harary_5_130");
}

/// H(4, 130) with an 8-clique on ids 130-137, every clique vertex joined to
/// vertices 60-62 of the Harary ring. {60, 61, 62} is the only vertex cut
/// of fewer than 4 vertices, and it does not cut off the search's source.
Graph HararyWithPendantClique() {
  const VertexId ring = 130;
  const VertexId clique = 8;
  GraphBuilder builder(ring + clique);
  for (const auto& [u, v] : HararyEdges(4, ring)) builder.AddEdge(u, v);
  for (VertexId a = ring; a < ring + clique; ++a) {
    for (VertexId b = a + 1; b < ring + clique; ++b) builder.AddEdge(a, b);
    for (VertexId r = 60; r <= 62; ++r) builder.AddEdge(a, r);
  }
  return builder.Build();
}

/// Two H(8, 66) blocks joined through 3 connectors, ids 0-2, each adjacent
/// to two vertices 9 apart in either block. The connectors are the only
/// vertex cut of fewer than 4 vertices, and connector 0 is the search's
/// source, so phase 1 finds no cut. Phase 2's first pair lies inside one
/// block and passes; the pair after it crosses the cut.
Graph BlocksJoinedThroughLowConnectors() {
  const VertexId connectors = 3;
  const VertexId block = 66;
  GraphBuilder builder(connectors + 2 * block);
  for (const auto& [u, v] : HararyEdges(8, block)) {
    builder.AddEdge(connectors + u, connectors + v);
    builder.AddEdge(connectors + block + u, connectors + block + v);
  }
  for (VertexId c = 0; c < connectors; ++c) {
    for (const VertexId offset : {c, c + 9}) {
      builder.AddEdge(c, connectors + offset);
      builder.AddEdge(c, connectors + block + offset);
    }
  }
  return builder.Build();
}

TEST(WavefrontTest, CutFoundByteIdentity) {
  // A cut exists; the wavefront must return the exact cut the serial
  // search finds (earliest in order), not just *a* cut. On both graphs a
  // cut-free wave comes before the cut, so the wave that finds it has
  // probes after it to discard: in phase 1 under basic VCCE and VCCE-G on
  // the pendant clique, and in phase 2 under every variant on the
  // connectors.
  const Waste pendant =
      ExpectWavefrontByteIdentity(HararyWithPendantClique(), 4, "pendant");
  EXPECT_GT(pendant.after_cut, 0u);

  const Graph connectors = BlocksJoinedThroughLowConnectors();
  for (const KvccOptions& preset : AllVariants()) {
    KvccStats stats;
    EXPECT_FALSE(GlobalCut(connectors, 4, {}, preset, &stats).cut.empty());
    EXPECT_GE(stats.phase2_pairs_tested, 2u);  // The cut is phase 2's.
  }
  const Waste phase_two =
      ExpectWavefrontByteIdentity(connectors, 4, "connectors");
  EXPECT_GT(phase_two.after_cut, 0u);
}

TEST(WavefrontTest, PlantedBlocksCutAfterSeveralWavesByteIdentity) {
  // The block boundaries are the cuts. On this seed basic VCCE, which
  // walks ascending ids, commits several cut-free waves before a probe
  // reaches another block.
  PlantedVccConfig config;
  config.seed = 43;
  const PlantedVccGraph planted = GeneratePlantedVcc(config);
  const Waste waste = ExpectWavefrontByteIdentity(
      planted.graph, planted.max_connected_k, "planted");
  EXPECT_GT(waste.after_cut, 0u);
}

TEST(WavefrontTest, RandomGraphsByteIdentityAcrossMatrix) {
  // k-connected random graphs: sweeps from earlier commits of a wave
  // discard some of its probes.
  int graphs = 0;
  std::uint64_t wasted_swept = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Graph g = kvcc::testing::RandomConnectedGraph(130, 900, seed);
    for (std::uint32_t k = 2; k <= 4; ++k) {
      bool degree_ok = true;
      for (VertexId v = 0; v < g.NumVertices(); ++v) {
        if (g.Degree(v) < k) degree_ok = false;
      }
      if (!degree_ok) continue;
      const std::string name = "random_seed" + std::to_string(seed);
      wasted_swept += ExpectWavefrontByteIdentity(g, k, name).swept;
      ++graphs;
    }
  }
  EXPECT_GE(graphs, 6);
  EXPECT_GT(wasted_swept, 0u);
}

TEST(WavefrontTest, AdaptiveBatchMatchesSerialToo) {
  const Graph g = HararyGraph(6, 130);
  KvccStats serial_stats;
  const GlobalCutResult serial =
      GlobalCut(g, 6, {}, KvccOptions::VcceStar(), &serial_stats);
  KvccStats ref_parallel_stats;
  bool have_ref = false;
  for (const std::uint32_t threads : kThreadCounts) {
    KvccStats stats;
    const GlobalCutResult run = RunGlobalCutOnScheduler(
        g, 6, KvccOptions::VcceStar(), &stats, threads);
    EXPECT_EQ(run.cut, serial.cut) << "threads=" << threads;
    ExpectReplayIdenticalStats(stats, serial_stats,
                               "threads=" + std::to_string(threads));
    if (threads > 1) {
      // The adaptive batch trajectory is a pure function of the input, so
      // even the waste diagnostics agree between multi-worker runs.
      if (!have_ref) {
        ref_parallel_stats = stats;
        have_ref = true;
      } else {
        EXPECT_EQ(stats.probe_wavefronts, ref_parallel_stats.probe_wavefronts)
            << "threads=" << threads;
        EXPECT_EQ(stats.probes_launched, ref_parallel_stats.probes_launched)
            << "threads=" << threads;
        EXPECT_EQ(stats.probes_wasted_swept,
                  ref_parallel_stats.probes_wasted_swept)
            << "threads=" << threads;
        EXPECT_EQ(stats.probes_wasted_after_cut,
                  ref_parallel_stats.probes_wasted_after_cut)
            << "threads=" << threads;
      }
    }
  }
}

TEST(WavefrontTest, EnumerationByteIdenticalAcrossThreads) {
  // End to end: EnumerateKVccs over the engine with wavefronts engaged must
  // emit byte-identical components for every thread count — including
  // against the fully serial run.
  PlantedVccConfig config;
  config.num_blocks = 5;
  config.connectivity = 8;
  config.overlap = 2;
  config.bridge_edges = 1;
  config.seed = 77;
  const PlantedVccGraph planted = GeneratePlantedVcc(config);
  ASSERT_GE(planted.graph.NumVertices(), 128u);

  const KvccOptions options = KvccOptions::VcceStar();
  const KvccResult reference =
      EnumerateKVccs(planted.graph, planted.max_connected_k, options);
  EXPECT_EQ(reference.components, planted.blocks);

  for (const std::uint32_t threads : kThreadCounts) {
    const KvccResult run = kvcc::testing::EnumerateOnWorkers(
        planted.graph, planted.max_connected_k, options, threads);
    EXPECT_EQ(run.components, reference.components) << "threads=" << threads;
    EXPECT_EQ(run.stats.loc_cut_flow_calls,
              reference.stats.loc_cut_flow_calls)
        << "threads=" << threads;
    EXPECT_EQ(run.stats.kvccs_found, reference.stats.kvccs_found)
        << "threads=" << threads;
    if (threads > 1) EXPECT_GT(run.stats.probes_launched, 0u);
  }
}

TEST(WavefrontTest, FirstProbeCutsLaunchNothingSpeculative) {
  // Every GLOBAL-CUT on this graph that finds a cut finds it with its
  // phase's first probe, and every phase starts with a one-probe wave, so
  // the engine's multi-worker runs discard no probe after a cut and do
  // exactly the serial run's probe work.
  const PlantedVccGraph planted = GeneratePlantedVcc(PlantedVccConfig{});
  const std::uint32_t k = 8;
  ASSERT_EQ(planted.max_connected_k, k);
  const KvccResult serial = EnumerateKVccs(planted.graph, k);
  EXPECT_EQ(serial.components, planted.blocks);
  for (const unsigned workers : {2u, 4u}) {
    KvccEngine engine(workers);
    const KvccResult run = engine.Wait(engine.Submit(planted.graph, k));
    const std::string context = "workers=" + std::to_string(workers);
    EXPECT_EQ(run.components, serial.components) << context;
    EXPECT_EQ(kvcc::testing::ReplayIdenticalStats(run.stats),
              kvcc::testing::ReplayIdenticalStats(serial.stats))
        << context;
    EXPECT_GT(run.stats.probes_launched, 0u) << context;
    EXPECT_EQ(run.stats.probes_wasted_after_cut, 0u) << context;
    EXPECT_EQ(run.stats.probe_edges_touched,
              serial.stats.probe_edges_touched)
        << context;
  }
}

TEST(WavefrontTest, SingleGiantComponentEngagesWavefronts) {
  // Recursion tree of depth 1: one k-connected graph. The serial pool
  // would leave every other worker idle; the wavefronts must actually
  // launch probes here (this is the ROADMAP gap this feature closes).
  for (const std::uint32_t k : {6u, 12u}) {
    const Graph g = HararyGraph(k, 150);
    const KvccOptions serial = KvccOptions::VcceStar();
    const KvccResult serial_run = EnumerateKVccs(g, k, serial);
    EXPECT_EQ(serial_run.stats.probes_launched, 0u) << "k=" << k;

    for (const std::uint32_t threads : {2u, 4u}) {
      const KvccResult run =
          kvcc::testing::EnumerateOnWorkers(g, k, serial, threads);
      const std::string context =
          "k=" + std::to_string(k) + " threads=" + std::to_string(threads);
      ASSERT_EQ(run.components.size(), 1u) << context;
      EXPECT_EQ(run.components[0].size(), 150u) << context;
      EXPECT_GT(run.stats.probe_wavefronts, 0u) << context;
      EXPECT_GT(run.stats.probes_launched, 0u) << context;
      EXPECT_EQ(run.components, serial_run.components) << context;
      EXPECT_EQ(run.stats.loc_cut_flow_calls,
                serial_run.stats.loc_cut_flow_calls)
          << context;
    }
  }
}

TEST(WavefrontTest, MinVertexFloorKeepsSmallGraphsSerial) {
  // Wavefronts engage from 128 vertices up, even on a wide pool.
  const KvccOptions options = KvccOptions::VcceStar();
  const KvccResult below =
      kvcc::testing::EnumerateOnWorkers(HararyGraph(5, 127), 5, options, 4);
  EXPECT_EQ(below.stats.probes_launched, 0u);
  EXPECT_EQ(below.components.size(), 1u);
  const KvccResult at =
      kvcc::testing::EnumerateOnWorkers(HararyGraph(5, 128), 5, options, 4);
  EXPECT_GT(at.stats.probes_launched, 0u);
  EXPECT_EQ(at.components.size(), 1u);
}

TEST(WavefrontTest, CancelledTokenAbortsGlobalCutAtBatchBoundary) {
  // A pre-cancelled token must unwind the search before any probe work,
  // serially and under wavefronts (entry and per-wave formation checks).
  // The throw carries empty stats by contract — the drivers attach
  // partials — but the cuts_cancelled diagnostic lands in the caller's
  // counters.
  const Graph g = HararyGraph(5, 130);
  CancelToken cancelled;
  cancelled.RequestCancel();

  KvccStats serial_stats;
  EXPECT_THROW(GlobalCut(g, 5, {}, KvccOptions::VcceStar(), &serial_stats,
                         nullptr, nullptr, &cancelled),
               JobCancelled);
  EXPECT_EQ(serial_stats.cuts_cancelled, 1u);
  EXPECT_EQ(serial_stats.loc_cut_flow_calls, 0u);

  // Wavefront configuration: run inside a live multi-worker scheduler.
  GlobalCutScratch scratch;
  bool threw_cancelled = false;
  KvccStats wave_stats;
  RunInWorkerTask(4, [&](const GlobalCutPool& pool) {
    try {
      GlobalCut(g, 5, {}, KvccOptions::VcceStar(), &wave_stats, &scratch,
                &pool, &cancelled);
    } catch (const JobCancelled&) {
      threw_cancelled = true;
    }
  });
  EXPECT_TRUE(threw_cancelled);
  EXPECT_EQ(wave_stats.cuts_cancelled, 1u);
  EXPECT_EQ(wave_stats.probes_launched, 0u);
}

TEST(WavefrontTest, LiveTokenLeavesGlobalCutByteIdentical) {
  // Passing a token that never fires must not perturb anything: cut and
  // replay-identical stats equal the no-token run's, for serial and
  // wavefront configurations alike.
  const Graph g = TwoCliquesSharing(6, 2);
  KvccStats reference_stats;
  const GlobalCutResult reference =
      GlobalCut(g, 4, {}, KvccOptions::VcceStar(), &reference_stats);

  CancelToken live;
  KvccStats token_stats;
  const GlobalCutResult with_token =
      GlobalCut(g, 4, {}, KvccOptions::VcceStar(), &token_stats, nullptr,
                nullptr, &live);
  EXPECT_EQ(with_token.cut, reference.cut);
  ExpectReplayIdenticalStats(token_stats, reference_stats, "live token");
  EXPECT_EQ(token_stats.cuts_cancelled, 0u);
}

/// Two disjoint K66s joined through k - 1 connectors, each adjacent to
/// ceil(k / 2) vertices of either clique. The connectors are the graph's
/// only vertex cut of fewer than k vertices, and the lowest-numbered one is
/// its minimum-degree vertex, so a search from that vertex finds the cut
/// only among pairs of its neighbours (phase 2).
Graph CliquesJoinedThroughConnectors(std::uint32_t k) {
  const VertexId clique = 66;
  const VertexId half = (k + 1) / 2;
  GraphBuilder builder(2 * clique + k - 1);
  for (VertexId a = 0; a < clique; ++a) {
    for (VertexId b = a + 1; b < clique; ++b) {
      builder.AddEdge(a, b);
      builder.AddEdge(clique + a, clique + b);
    }
  }
  for (VertexId c = 0; c + 1 < k; ++c) {
    for (VertexId i = 0; i < half; ++i) {
      builder.AddEdge(2 * clique + c, (c * half + i) % clique);
      builder.AddEdge(2 * clique + c, clique + (c * half + i) % clique);
    }
  }
  return builder.Build();
}

TEST(WavefrontTest, RefereeAgreementUnderWavefronts) {
  // Graphs past the wavefront floor, so engine runs on 2 and 4 workers
  // launch speculative probes; the referee enumerates by the definition
  // with none of the engine's code.
  struct Case {
    std::string name;
    Graph g;
    std::uint32_t k;
  };
  const PlantedVccGraph planted = GeneratePlantedVcc(PlantedVccConfig{});
  std::vector<Case> cases = {
      {"harary_5_130", HararyGraph(5, 130), 5},
      {"two_cliques_66_2", TwoCliquesSharing(66, 2), 4},
      {"planted", planted.graph, planted.max_connected_k},
      {"barabasi_albert", BarabasiAlbert(300, 4, 7), 4},
      {"joined_cliques_k4", CliquesJoinedThroughConnectors(4), 4},
      {"joined_cliques_k7", CliquesJoinedThroughConnectors(7), 7},
  };
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    cases.push_back({"random_seed" + std::to_string(seed),
                     kvcc::testing::RandomConnectedGraph(
                         130 + 40 * seed, 500 + 150 * seed, seed),
                     3 + static_cast<std::uint32_t>(seed % 3)});
  }
  const std::vector<KvccOptions> variants = AllVariants();
  for (const Case& c : cases) {
    ASSERT_GE(c.g.NumVertices(), 128u) << c.name;
    ASSERT_LE(c.g.NumVertices(), 300u) << c.name;
    const auto expected = kvcc::testing::RefereeKVccs(c.g, c.k);
    for (const std::uint32_t threads : {1u, 2u, 4u}) {
      std::uint64_t launched = 0;
      for (std::size_t i = 0; i < variants.size(); ++i) {
        const KvccResult run = kvcc::testing::EnumerateOnWorkers(
            c.g, c.k, variants[i], threads);
        EXPECT_EQ(run.components, expected)
            << c.name << " k=" << c.k << " variant=" << i
            << " threads=" << threads;
        launched += run.stats.probes_launched;

        // The same variant with every flow test on the full working graph.
        KvccStats stats;
        std::vector<std::vector<VertexId>> without_certificate;
        if (threads == 1) {
          without_certificate = EnumerateWithoutCertificate(
              c.g, c.k, variants[i], /*pool=*/nullptr, &stats);
        } else {
          RunInWorkerTask(threads, [&](const GlobalCutPool& pool) {
            without_certificate = EnumerateWithoutCertificate(
                c.g, c.k, variants[i], &pool, &stats);
          });
        }
        EXPECT_EQ(without_certificate, expected)
            << c.name << " k=" << c.k << " variant=" << i
            << " threads=" << threads << " without certificate";
        EXPECT_EQ(stats.certificate_edges_kept, 0u) << c.name;
        launched += stats.probes_launched;
      }
      if (threads > 1) {
        EXPECT_GT(launched, 0u) << c.name << " threads=" << threads;
      } else {
        EXPECT_EQ(launched, 0u) << c.name;
      }
    }
  }
}

}  // namespace
}  // namespace kvcc
