// Synthetic stand-ins for the paper's seven SNAP datasets (Table 1).
//
// This environment is offline, so the suite deterministically generates
// graphs with the same qualitative structure at laptop scale:
//   * web graphs (stanford, cnr, nd, google)  -> R-MAT background,
//   * social / collaboration (dblp, youtube)  -> BA / community background,
//   * citation (cit)                          -> BA background,
// each overlaid with planted Harary-core blocks whose connectivities span
// the paper's k sweeps, so k-VCCs exist at every evaluated k and the
// efficiency experiments exercise the same code paths as the real data.
#ifndef KVCC_GEN_DATASET_SUITE_H_
#define KVCC_GEN_DATASET_SUITE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace kvcc {

struct DatasetInfo {
  std::string name;               // e.g. "stanford"
  std::string paper_counterpart;  // e.g. "web-Stanford (SNAP)"
  std::string family;             // "web", "collaboration", ...
};

/// The seven dataset names, in the paper's Table 1 order (plus youtube).
std::vector<std::string> DatasetNames();

/// Metadata for one dataset. Throws std::invalid_argument for unknown names.
DatasetInfo GetDatasetInfo(const std::string& name);

/// Generates the stand-in graph. `scale` multiplies the vertex budget
/// (1.0 ~ tens of thousands of vertices; the paper's graphs are 10-100x
/// larger). Deterministic per (name, scale).
Graph GenerateDataset(const std::string& name, double scale = 1.0);

/// The k values the paper's effectiveness figures (7-9) use per dataset.
std::vector<std::uint32_t> EffectivenessKs(const std::string& name);

/// The k sweep of the efficiency experiments (Figs. 10-12, Table 2).
std::vector<std::uint32_t> EfficiencyKs();

}  // namespace kvcc

#endif  // KVCC_GEN_DATASET_SUITE_H_
