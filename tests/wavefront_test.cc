// Determinism of the intra-GLOBAL-CUT probe wavefronts: with a multi-worker
// scheduler, both phases run their flow probes as concurrent batches that
// are committed serially, so the returned cut, the strong-side verdicts,
// and every pre-existing stats counter must be byte-identical to the serial
// loop for every thread count and batch size — across the whole options
// matrix. Only the probe-waste diagnostics may differ from a serial run
// (which launches no speculative probes).

#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "exec/task_scheduler.h"
#include "gen/fixtures.h"
#include "gen/harary.h"
#include "gen/planted_vcc.h"
#include "kvcc/engine.h"
#include "kvcc/global_cut.h"
#include "kvcc/kvcc_enum.h"
#include "support/brute_force.h"

namespace kvcc {
namespace {

const std::vector<std::uint32_t> kThreadCounts = {1, 2, 8};
const std::vector<std::uint32_t> kBatchSizes = {1, 4, 64};

std::vector<KvccOptions> AllVariants() {
  return {KvccOptions::Vcce(), KvccOptions::VcceN(), KvccOptions::VcceG(),
          KvccOptions::VcceStar()};
}

/// Runs GlobalCut inside a worker task of a live multi-worker scheduler —
/// the configuration under which wavefronts engage.
GlobalCutResult RunGlobalCutOnScheduler(const Graph& g, std::uint32_t k,
                                        const KvccOptions& options,
                                        KvccStats* stats, unsigned workers) {
  exec::TaskScheduler scheduler(workers);
  scheduler.Start();
  GlobalCutResult result;
  GlobalCutScratch scratch;
  std::mutex mutex;
  std::condition_variable done_cv;
  bool done = false;
  scheduler.Submit([&](unsigned) {
    result = GlobalCut(g, k, {}, options, stats, &scratch, &scheduler);
    std::lock_guard<std::mutex> lock(mutex);
    done = true;
    done_cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(mutex);
  done_cv.wait(lock, [&] { return done; });
  lock.unlock();
  scheduler.Stop();
  return result;
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

/// The satellite matrix: serial GlobalCut vs wavefront GlobalCut across
/// threads x batch sizes x options variants on one graph.
void ExpectWavefrontByteIdentity(const Graph& g, std::uint32_t k,
                                 const std::string& graph_name) {
  for (const KvccOptions& preset : AllVariants()) {
    KvccStats serial_stats;
    const GlobalCutResult serial =
        GlobalCut(g, k, {}, preset, &serial_stats);
    for (const std::uint32_t threads : kThreadCounts) {
      for (const std::uint32_t batch : kBatchSizes) {
        KvccOptions options = preset;
        options.probe_batch_size = batch;
        options.intra_cut_min_vertices = 0;  // test graphs are small
        KvccStats stats;
        const GlobalCutResult run =
            RunGlobalCutOnScheduler(g, k, options, &stats, threads);
        const std::string context = graph_name + " k=" + std::to_string(k) +
                                    " threads=" + std::to_string(threads) +
                                    " batch=" + std::to_string(batch);
        EXPECT_EQ(run.cut, serial.cut) << context;
        ExpectReplayIdenticalStats(stats, serial_stats, context);
        if (threads > 1) {
          // Every committed flow test needed a launched probe, so serial
          // flow activity implies wavefront activity. (The converse is not
          // asserted: formation may speculate probes that commits discard.)
          if (serial_stats.loc_cut_flow_calls > 0) {
            EXPECT_GT(stats.probes_launched, 0u) << context;
          }
        } else {
          EXPECT_EQ(stats.probes_launched, 0u) << context;  // serial loop
        }
      }
    }
  }
}

TEST(WavefrontTest, KConnectedGraphByteIdentity) {
  // No cut exists: phase 1 sweeps everything, phase 2 runs to exhaustion —
  // the shallow-recursion shape intra-cut parallelism is for.
  ExpectWavefrontByteIdentity(HararyGraph(5, 24), 5, "harary_5_24");
}

TEST(WavefrontTest, CutFoundByteIdentity) {
  // A 2-cut exists; the wavefront must return the exact cut the serial
  // loop finds (earliest in order), not just *a* cut.
  ExpectWavefrontByteIdentity(TwoCliquesSharing(6, 2), 4, "two_cliques");
}

TEST(WavefrontTest, PetersenCutByteIdentity) {
  ExpectWavefrontByteIdentity(PetersenGraph(), 4, "petersen");
}

TEST(WavefrontTest, RandomGraphsByteIdentityAcrossMatrix) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Graph g = kvcc::testing::RandomConnectedGraph(12, 30, seed);
    for (std::uint32_t k = 2; k <= 4; ++k) {
      bool degree_ok = true;
      for (VertexId v = 0; v < g.NumVertices(); ++v) {
        if (g.Degree(v) < k) degree_ok = false;
      }
      if (!degree_ok) continue;
      ExpectWavefrontByteIdentity(g, k, "random_seed" + std::to_string(seed));
    }
  }
}

TEST(WavefrontTest, AdaptiveBatchMatchesSerialToo) {
  // probe_batch_size = 0 (adaptive) across thread counts.
  const Graph g = HararyGraph(6, 30);
  KvccStats serial_stats;
  const GlobalCutResult serial =
      GlobalCut(g, 6, {}, KvccOptions::VcceStar(), &serial_stats);
  KvccStats ref_parallel_stats;
  bool have_ref = false;
  for (const std::uint32_t threads : kThreadCounts) {
    KvccOptions options = KvccOptions::VcceStar();
    ASSERT_EQ(options.probe_batch_size, 0u);
    options.intra_cut_min_vertices = 0;
    KvccStats stats;
    const GlobalCutResult run =
        RunGlobalCutOnScheduler(g, 6, options, &stats, threads);
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

TEST(WavefrontTest, EnumerationByteIdenticalAcrossThreadsAndBatches) {
  // End to end: EnumerateKVccs over the engine with wavefronts engaged must
  // emit byte-identical components for every (threads, batch) combination —
  // including against the fully serial run.
  PlantedVccConfig config;
  config.num_blocks = 5;
  config.block_size_min = 16;
  config.block_size_max = 24;
  config.connectivity = 8;
  config.overlap = 2;
  config.bridge_edges = 1;
  config.seed = 77;
  const PlantedVccGraph planted = GeneratePlantedVcc(config);

  KvccOptions serial = KvccOptions::VcceStar();
  serial.num_threads = 1;
  const KvccResult reference =
      EnumerateKVccs(planted.graph, planted.max_connected_k, serial);
  EXPECT_EQ(reference.components, planted.blocks);

  for (const std::uint32_t threads : kThreadCounts) {
    for (const std::uint32_t batch : kBatchSizes) {
      KvccOptions options = KvccOptions::VcceStar();
      options.num_threads = threads;
      options.probe_batch_size = batch;
      options.intra_cut_min_vertices = 0;  // engage on the small pieces too
      const KvccResult run =
          EnumerateKVccs(planted.graph, planted.max_connected_k, options);
      EXPECT_EQ(run.components, reference.components)
          << "threads=" << threads << " batch=" << batch;
      EXPECT_EQ(run.stats.loc_cut_flow_calls,
                reference.stats.loc_cut_flow_calls)
          << "threads=" << threads << " batch=" << batch;
      EXPECT_EQ(run.stats.kvccs_found, reference.stats.kvccs_found)
          << "threads=" << threads << " batch=" << batch;
    }
  }
}

TEST(WavefrontTest, SingleGiantComponentEngagesWavefronts) {
  // Recursion tree of depth 1: one k-connected graph. The serial pool
  // would leave every other worker idle; the wavefronts must actually
  // launch probes here (this is the ROADMAP gap this feature closes).
  // Default options: the graph clears the intra_cut_min_vertices floor.
  for (const std::uint32_t k : {6u, 12u}) {
    const Graph g = HararyGraph(k, 150);
    const KvccOptions serial = KvccOptions::VcceStar();
    ASSERT_GE(150u, serial.intra_cut_min_vertices);
    const KvccResult serial_run = EnumerateKVccs(g, k, serial);
    EXPECT_EQ(serial_run.stats.probes_launched, 0u) << "k=" << k;

    for (const std::uint32_t threads : {2u, 4u}) {
      KvccOptions options = serial;
      options.num_threads = threads;
      const KvccResult run = EnumerateKVccs(g, k, options);
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

TEST(WavefrontTest, IntraCutParallelismCanBeDisabled) {
  const Graph g = HararyGraph(5, 24);
  KvccOptions options = KvccOptions::VcceStar();
  options.num_threads = 4;
  options.intra_cut_min_vertices = 0;  // the flag alone must disable
  options.intra_cut_parallelism = false;
  const KvccResult run = EnumerateKVccs(g, 5, options);
  EXPECT_EQ(run.stats.probes_launched, 0u);
  EXPECT_EQ(run.components.size(), 1u);
}

TEST(WavefrontTest, MinVertexFloorKeepsSmallGraphsSerial) {
  // Below the floor the exact serial loop runs even on a wide pool.
  const Graph g = HararyGraph(5, 24);
  KvccOptions options = KvccOptions::VcceStar();
  options.num_threads = 4;
  options.intra_cut_min_vertices = 128;
  const KvccResult run = EnumerateKVccs(g, 5, options);
  EXPECT_EQ(run.stats.probes_launched, 0u);
  EXPECT_EQ(run.components.size(), 1u);
}

TEST(WavefrontTest, CancelledTokenAbortsGlobalCutAtBatchBoundary) {
  // A pre-cancelled token must unwind the search before any probe work:
  // serially (entry / per-probe checks) and under wavefronts (per-batch
  // formation checks). The throw carries empty stats by contract — the
  // drivers attach partials — but the cuts_cancelled diagnostic lands in
  // the caller's counters.
  const Graph g = HararyGraph(5, 24);
  CancelToken cancelled;
  cancelled.RequestCancel();

  KvccStats serial_stats;
  EXPECT_THROW(GlobalCut(g, 5, {}, KvccOptions::VcceStar(), &serial_stats,
                         nullptr, nullptr, &cancelled),
               JobCancelled);
  EXPECT_EQ(serial_stats.cuts_cancelled, 1u);
  EXPECT_EQ(serial_stats.loc_cut_flow_calls, 0u);

  // Wavefront configuration: run inside a live multi-worker scheduler.
  exec::TaskScheduler scheduler(4);
  scheduler.Start();
  GlobalCutScratch scratch;
  std::mutex mutex;
  std::condition_variable done_cv;
  bool done = false;
  bool threw_cancelled = false;
  KvccStats wave_stats;
  scheduler.Submit([&](unsigned) {
    KvccOptions options = KvccOptions::VcceStar();
    options.intra_cut_min_vertices = 0;
    try {
      GlobalCut(g, 5, {}, options, &wave_stats, &scratch, &scheduler,
                &cancelled);
    } catch (const JobCancelled&) {
      threw_cancelled = true;
    }
    std::lock_guard<std::mutex> lock(mutex);
    done = true;
    done_cv.notify_all();
  });
  {
    std::unique_lock<std::mutex> lock(mutex);
    done_cv.wait(lock, [&] { return done; });
  }
  scheduler.Stop();
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

TEST(WavefrontTest, BruteForceAgreementUnderWavefronts) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Graph g = kvcc::testing::RandomConnectedGraph(13, 30, seed);
    for (std::uint32_t k = 2; k <= 4; ++k) {
      const auto expected = kvcc::testing::BruteKVccs(g, k);
      for (const std::uint32_t batch : kBatchSizes) {
        KvccOptions options;
        options.num_threads = 4;
        options.probe_batch_size = batch;
        options.intra_cut_min_vertices = 0;
        const KvccResult run = EnumerateKVccs(g, k, options);
        EXPECT_EQ(run.components, expected)
            << "seed=" << seed << " k=" << k << " batch=" << batch;
      }
    }
  }
}

}  // namespace
}  // namespace kvcc
