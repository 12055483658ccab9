#include "phases.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <vector>

#include "core/solver.hpp"
#include "td/partition.hpp"
#include "util/mmap_file.hpp"

namespace perfbench {

namespace lt = lowtw;

lt::serving::OracleOptions serving_options() {
  lt::serving::OracleOptions opts;
  opts.seed = kInstanceSeed;
  opts.pool.workers = 2;
  opts.cache.enabled = true;
  opts.cache.capacity = 1 << 16;
  opts.cache.shards = 8;
  opts.row_cache_slots = 4;
  opts.filter.enabled = true;
  return opts;
}

double file_bytes(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<double>(st.st_size) : 0;
}

BuildPhases replay_build(const lt::graph::WeightedDigraph& g,
                         const lt::serving::OracleOptions& opts,
                         Tracer& tracer) {
  BuildPhases b;
  const auto root_t0 = Clock::now();
  std::vector<std::pair<const char*, std::pair<Clock::time_point,
                                               Clock::time_point>>> spans;
  auto span = [&](const char* name, Clock::time_point t0) {
    const auto t1 = Clock::now();
    spans.push_back({name, {t0, t1}});
    return us_between(t0, t1) / 1e3;
  };
  lt::SolverOptions sopts;
  sopts.seed = opts.seed;
  sopts.engine = opts.engine;
  sopts.threads = opts.build_threads;
  sopts.known_diameter = opts.known_diameter;

  auto t0 = Clock::now();
  lt::Solver solver(g, sopts);
  b.solver_ctor_ms = span("core.solver_ctor", t0);

  const int n = g.num_vertices();
  const int parts = std::max(
      1, std::min(opts.filter.num_parts > 0 ? opts.filter.num_parts : 16, n));
  t0 = Clock::now();
  const lt::td::TdBuildResult& td = solver.tree_decomposition();
  std::vector<std::int32_t> part_of =
      lt::td::partition_from_hierarchy(td.hierarchy, n, parts);
  b.td_ms = span("td.hierarchy", t0);
  b.td_width = td.td.width();

  t0 = Clock::now();
  const lt::labeling::DlResult& dl = solver.distance_labeling();
  b.dl_ms = span("labeling.dl", t0);

  t0 = Clock::now();
  const lt::labeling::FlatLabeling flat = dl.flat;  // the snapshot's copy
  b.freeze_ms = span("labeling.freeze", t0);
  b.entries = flat.num_entries();

  t0 = Clock::now();
  const lt::labeling::InvertedHubIndex index(flat);
  b.transpose_ms = span("labeling.transpose", t0);

  t0 = Clock::now();
  const lt::labeling::LabelFilter filter =
      lt::labeling::LabelFilter::build(flat, index, std::move(part_of), parts);
  b.filter_ms = span("labeling.filter", t0);
  const std::uint64_t root = tracer.record("replay.build", root_t0, Clock::now());
  for (const auto& [name, t] : spans) tracer.record(name, t.first, t.second, root);
  return b;
}

BuildPhases median_phases(const std::vector<BuildPhases>& runs) {
  auto med = [&](double BuildPhases::*field) {
    std::vector<double> v;
    for (const BuildPhases& b : runs) v.push_back(b.*field);
    return median(v);
  };
  BuildPhases b = runs.front();
  b.solver_ctor_ms = med(&BuildPhases::solver_ctor_ms);
  b.td_ms = med(&BuildPhases::td_ms);
  b.dl_ms = med(&BuildPhases::dl_ms);
  b.freeze_ms = med(&BuildPhases::freeze_ms);
  b.transpose_ms = med(&BuildPhases::transpose_ms);
  b.filter_ms = med(&BuildPhases::filter_ms);
  return b;
}

std::unique_ptr<AssembledView> assemble_view(
    const lt::persist::FrozenImageView& view) {
  auto a = std::make_unique<AssembledView>();
  a->flat = lt::labeling::FlatLabeling::from_parts(
      view.label_offsets, view.label_hub_ids, view.label_to_hub,
      view.label_from_hub);
  a->index.emplace(lt::labeling::InvertedHubIndex::from_parts(
      a->flat, view.idx_offsets, view.idx_vertices, view.idx_to_hub,
      view.idx_from_hub));
  if (view.has_filter) {
    a->filter.emplace(lt::labeling::LabelFilter::from_image_parts(
        a->flat, view.num_parts, view.part_of, view.fwd_flags, view.bwd_flags,
        view.fwd_bound, view.bwd_bound, view.seg_offsets, view.seg_vertices,
        view.seg_to_hub, view.seg_from_hub));
  }
  return a;
}

LoadPhases replay_load(const lt::graph::WeightedDigraph& g,
                       const lt::serving::OracleOptions& opts,
                       const std::string& image_path, int repeats,
                       Tracer& tracer, std::uint64_t parent) {
  std::vector<double> map_ms, verify_ms, assemble_ms, load_ms;
  for (int r = 0; r < repeats; ++r) {
    auto t0 = Clock::now();
    const lt::util::MmapFile mapping(image_path);
    auto t1 = Clock::now();
    tracer.record("persist.map", t0, t1, parent);
    map_ms.push_back(us_between(t0, t1) / 1e3);

    t0 = Clock::now();
    const lt::persist::FrozenImageView view =
        lt::persist::parse_frozen_image(mapping.data(), mapping.size());
    t1 = Clock::now();
    tracer.record("persist.verify", t0, t1, parent);
    verify_ms.push_back(us_between(t0, t1) / 1e3);

    t0 = Clock::now();
    const std::unique_ptr<AssembledView> assembled = assemble_view(view);
    t1 = Clock::now();
    tracer.record("persist.assemble", t0, t1, parent);
    assemble_ms.push_back(us_between(t0, t1) / 1e3);

    lt::serving::Oracle oracle(g, opts);
    t0 = Clock::now();
    const bool loaded = oracle.load_image(image_path);
    t1 = Clock::now();
    tracer.record("oracle.load_image", t0, t1, parent);
    if (loaded) load_ms.push_back(us_between(t0, t1) / 1e3);
  }
  LoadPhases l;
  l.failed_loads = repeats - static_cast<int>(load_ms.size());
  l.map_ms = median(map_ms);
  l.verify_ms = median(verify_ms);
  l.assemble_ms = median(assemble_ms);
  l.load_image_ms = median(load_ms);
  l.bytes = file_bytes(image_path);
  return l;
}

void report_build_load(Report& report, const BuildPhases& build,
                       double build_ms, double dimacs_ms,
                       const LoadPhases& load, double write_ms) {
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  report.metric("build_s", build_ms / 1e3, "s");
  report.metric("graph.dimacs_read_ms", dimacs_ms, "ms");
  report.metric("core.solver_ctor_ms", build.solver_ctor_ms, "ms");
  report.metric("td.hierarchy_ms", build.td_ms, "ms");
  report.metric("td.width", build.td_width, "count");
  report.metric("labeling.dl_ms", build.dl_ms, "ms");
  report.metric("labeling.freeze_ms", build.freeze_ms, "ms");
  report.metric("labeling.transpose_ms", build.transpose_ms, "ms");
  report.metric("labeling.filter_ms", build.filter_ms, "ms");
  report.metric("labeling.entries", static_cast<double>(build.entries),
                "count");
  report.metric("stagesum.build_residual_frac",
                ratio(build_ms - (dimacs_ms + build.total_ms()), build_ms),
                "ratio");

  report.metric("persist.write_ms", write_ms, "ms");
  report.metric("image_bytes", load.bytes, "bytes");
  report.metric("persist.map_ms", load.map_ms, "ms");
  report.metric("persist.verify_ms", load.verify_ms, "ms");
  report.metric("persist.verify_mb_s",
                ratio(load.bytes / 1e6, load.verify_ms / 1e3), "MB/s");
  report.metric("persist.assemble_ms", load.assemble_ms, "ms");
  report.metric("oracle.load_image_ms", load.load_image_ms, "ms");
  report.metric("oracle.assemble_publish_ms",
                load.load_image_ms - load.map_ms - load.verify_ms, "ms");
  report.metric("stagesum.load_residual_frac",
                ratio(load.load_image_ms -
                          (load.map_ms + load.verify_ms + load.assemble_ms),
                      load.load_image_ms),
                "ratio");
}

}  // namespace perfbench
