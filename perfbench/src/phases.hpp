// Layer-by-layer replays of the snapshot build and the image load, timed
// from outside through the same public calls serving::Oracle makes:
//
//   rebuild_snapshot = Solver ctor (exact diameter) → TD hierarchy (and the
//                      filter partition cut from it) → distance labeling →
//                      snapshot copy of the frozen store → postings
//                      transpose → label filter → publish
//   load_image       = mmap → parse_frozen_image (verify) → from_parts
//                      assembly → publish
//
// The traced runs print each phase beside the whole call so the parts can
// be checked to add back up to it.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "labeling/inverted_index.hpp"
#include "labeling/label_filter.hpp"
#include "persist/frozen_image.hpp"
#include "serving/oracle.hpp"

namespace perfbench {

struct BuildPhases {
  double solver_ctor_ms = 0;
  double td_ms = 0;  ///< hierarchy + the filter partition derived from it
  double dl_ms = 0;
  double freeze_ms = 0;
  double transpose_ms = 0;
  double filter_ms = 0;
  int td_width = 0;
  std::size_t entries = 0;
  double total_ms() const {
    return solver_ctor_ms + td_ms + dl_ms + freeze_ms + transpose_ms +
           filter_ms;
  }
};

/// Replays rebuild_snapshot's phases for `g` under `opts`. The traced runs
/// replay right after each timed rebuild, so a part and its whole see the
/// same host conditions.
BuildPhases replay_build(const lowtw::graph::WeightedDigraph& g,
                         const lowtw::serving::OracleOptions& opts,
                         Tracer& tracer);
/// Per-phase medians of several replays.
BuildPhases median_phases(const std::vector<BuildPhases>& runs);

struct LoadPhases {
  double map_ms = 0;
  double verify_ms = 0;
  double assemble_ms = 0;
  double load_image_ms = 0;  ///< Oracle::load_image on a fresh oracle
  double bytes = 0;
  int failed_loads = 0;  ///< load_image calls that rejected the image
};

/// Medians over `repeats` replays of the image load phases, each beside a
/// whole Oracle::load_image of the same file.
LoadPhases replay_load(const lowtw::graph::WeightedDigraph& g,
                       const lowtw::serving::OracleOptions& opts,
                       const std::string& image_path, int repeats,
                       Tracer& tracer, std::uint64_t parent);

/// Reports the traced build and load layers: build_s and its phases, the
/// persist phases, the image size and both stage-sum residuals. `build_ms`
/// is the whole timed build (from the DIMACS read when `dimacs_ms` > 0).
void report_build_load(Report& report, const BuildPhases& build,
                       double build_ms, double dimacs_ms,
                       const LoadPhases& load, double write_ms);

/// The query structures of a kind-5 image, assembled from its borrowed
/// views the way Oracle::load_image does. Heap-held: the index and the
/// filter point at `flat`, so it must not move.
struct AssembledView {
  lowtw::labeling::FlatLabeling flat;
  std::optional<lowtw::labeling::InvertedHubIndex> index;
  std::optional<lowtw::labeling::LabelFilter> filter;  ///< if the image has one
};
std::unique_ptr<AssembledView> assemble_view(
    const lowtw::persist::FrozenImageView& view);

/// The serving configuration of every serve and restart workload:
/// oracle_daemon's cache defaults and oracle seed (kInstanceSeed, so the
/// snapshot is the same on every run), two workers, pruning filter on.
lowtw::serving::OracleOptions serving_options();

/// Size of a file in bytes (0 if absent).
double file_bytes(const std::string& path);

}  // namespace perfbench
