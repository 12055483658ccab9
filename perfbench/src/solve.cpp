// solve: the paper's non-serving results through the Solver facade at
// threads = nproc — undirected weighted girth (Theorem 5) on a cycle with
// chords, maximum matching (Theorem 4) on an apexed bipartite path, and a
// batch of exact SSSP rows from the distance labels (Theorem 2).
//
// The three instances are pinned (fixed generator seed), so the Solver's
// CONGEST round counts can be compared with the values in
// perfbench/pinned_rounds.txt; the workload seed picks the SSSP sources.
// Every answer is checked against a centralized reference: exact girth,
// Hopcroft–Karp, Dijkstra rows.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/solver.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "matching/hopcroft_karp.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace lt = lowtw;
using lt::graph::Weight;

namespace {

constexpr std::uint64_t kSolveInstanceSeed = 20220711;
constexpr std::uint64_t kSolverSeed = 0x5eed;

struct SolveShape {
  const char* name;  ///< key of the pinned round counts
  int girth_n;
  int girth_chords;
  int matching_n;
  int sssp_n;
  int sssp_sources;
};

SolveShape solve_shape(const Config& cfg) {
  if (cfg.tiny) return {"tiny", 96, 3, 96, 200, 8};
  return {"full", 192, 3, 1024, 2000, 128};
}

struct Instances {
  lt::graph::WeightedDigraph girth;
  lt::graph::Graph matching;
  lt::graph::WeightedDigraph sssp;
  std::vector<lt::graph::VertexId> sources;
};

Instances make_instances(const SolveShape& sh, std::uint64_t seed) {
  Instances in;
  lt::util::Rng rng(kSolveInstanceSeed);
  const lt::graph::Graph ring =
      lt::graph::gen::cycle_with_chords(sh.girth_n, sh.girth_chords, rng);
  in.girth = lt::graph::gen::random_symmetric_weights(ring, 1, 100, rng);
  in.matching = lt::graph::gen::apexed_bipartite_path(sh.matching_n);
  in.sssp = serving_instance(sh.sssp_n, kSolveInstanceSeed);
  lt::util::Rng pick(seed * 0x2545f4914f6cdd1dULL + 17);
  for (int i = 0; i < sh.sssp_sources; ++i) {
    in.sources.push_back(
        static_cast<lt::graph::VertexId>(pick.next_below(sh.sssp_n)));
  }
  return in;
}

struct Reference {
  Weight girth = 0;
  int matching = 0;
  std::vector<std::vector<Weight>> from;  ///< d(source_i → v)
  std::vector<std::vector<Weight>> to;    ///< d(v → source_i)
};

Reference make_reference(const Instances& in) {
  Reference ref;
  ref.girth = lt::graph::exact_girth_undirected(in.girth);
  ref.matching = lt::matching::hopcroft_karp(in.matching).size;
  for (const lt::graph::VertexId s : in.sources) {
    ref.from.push_back(lt::graph::dijkstra(in.sssp, s).dist);
    ref.to.push_back(lt::graph::dijkstra(in.sssp, s, /*reversed=*/true).dist);
  }
  return ref;
}

/// Pinned "<shape> <quantity> <rounds>" lines; '#' starts a comment.
std::map<std::string, double> read_pins(const std::string& path,
                                        const std::string& shape) {
  std::map<std::string, double> pins;
  std::ifstream is(path);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string s, quantity;
    double rounds = 0;
    if (ls >> s >> quantity >> rounds && s == shape) pins[quantity] = rounds;
  }
  return pins;
}

struct Solvers {
  lt::Solver girth;
  lt::Solver matching;
  lt::Solver sssp;
};

}  // namespace

void run_solve(const Config& cfg, Report& report, Tracer& tracer) {
  const SolveShape sh = solve_shape(cfg);
  const Instances in = make_instances(sh, cfg.seed);
  const Reference ref = make_reference(in);
  const std::map<std::string, double> pins = read_pins(cfg.rounds_file, sh.name);

  lt::SolverOptions so;
  so.seed = kSolverSeed;
  // threads = nproc; at least 2 so the pinned counts (which differ between
  // the sequential arm and the pool arms) hold on a one-core host too.
  so.threads = std::max(2, static_cast<int>(std::thread::hardware_concurrency()));

  auto check_rows = [&](const lt::labeling::SsspBatchResult& b) {
    std::size_t wrong = 0;
    for (std::size_t i = 0; i < in.sources.size(); ++i) {
      const auto from = b.dist_row(i);
      const auto to = b.dist_to_row(i);
      wrong += !std::equal(from.begin(), from.end(), ref.from[i].begin());
      wrong += !std::equal(to.begin(), to.end(), ref.to[i].begin());
    }
    report.attempt(2 * in.sources.size());
    if (wrong > 0) report.fail(wrong, "sssp_batch row differs from Dijkstra");
  };
  auto check_rounds = [&](const char* quantity, double rounds) {
    const auto it = pins.find(quantity);
    std::printf("# rounds %s %s = %.17g (pinned %.17g)\n", sh.name, quantity,
                rounds, it == pins.end() ? -1.0 : it->second);
    report.check(it != pins.end() && it->second == rounds,
                 std::string("rounds ") + quantity);
  };

  // Pass 0 warms the process up (allocator arenas, page faults) and checks
  // the pinned round counts; it is not timed. A traced run instruments
  // pass 1 call by call and keeps half its time for the untimed replays.
  std::vector<double> setup_s, pass_us;
  double girth_ms = 0, matching_ms = 0, sssp_ms = 0;
  Clock::time_point loop_t0 = Clock::now();
  const double loop_s = cfg.trace ? 0.5 * cfg.seconds : cfg.seconds;
  for (int pass = 0; pass < 2 || s_since(loop_t0) < loop_s; ++pass) {
    if (pass == 1) loop_t0 = Clock::now();
    // Set-up: the Solvers, ready to solve (each runs the exact diameter).
    auto t0 = Clock::now();
    Solvers s{lt::Solver(in.girth, so), lt::Solver(in.matching, so),
              lt::Solver(in.sssp, so)};
    setup_s.push_back(s_since(t0));

    t0 = Clock::now();
    const bool traced = tracer.enabled() && pass == 1;
    if (traced) {
      // Traced: the SSSP solver's build layers one call at a time first.
      auto t = Clock::now();
      const lt::td::TdBuildResult& td = s.sssp.tree_decomposition();
      report.metric("td.hierarchy_ms", ms_since(t), "ms");
      report.metric("td.width", td.td.width(), "count");
      tracer.record("td.hierarchy", t, Clock::now());
      t = Clock::now();
      const lt::labeling::DlResult& dl = s.sssp.distance_labeling();
      report.metric("labeling.dl_ms", ms_since(t), "ms");
      report.metric("labeling.entries",
                    static_cast<double>(dl.flat.num_entries()), "count");
      tracer.record("labeling.dl", t, Clock::now());
    }
    auto t = Clock::now();
    const lt::girth::GirthResult gr = s.girth.girth_undirected();
    girth_ms = ms_since(t);
    tracer.record("girth.girth_undirected", t, Clock::now());
    t = Clock::now();
    const lt::matching::DistributedMatchingResult mr = s.matching.max_matching();
    matching_ms = ms_since(t);
    tracer.record("matching.max_matching", t, Clock::now());
    t = Clock::now();
    const lt::labeling::SsspBatchResult batch = s.sssp.sssp_batch(in.sources);
    sssp_ms = ms_since(t);
    tracer.record("core.sssp_batch", t, Clock::now());
    tracer.record("solve.pass", t0, Clock::now());
    if (pass > 0) pass_us.push_back(us_between(t0, Clock::now()));
    if (traced) {
      report.metric("girth.ms", girth_ms, "ms");
      report.metric("matching.ms", matching_ms, "ms");
      report.metric("sssp.batch_ms", sssp_ms, "ms");
    }

    report.check(gr.girth == ref.girth, "girth vs exact_girth_undirected");
    report.check(mr.matching.size == ref.matching,
                 "matching size vs Hopcroft-Karp");
    check_rows(batch);
    if (pass == 0) {
      check_rounds("td", s.sssp.tree_decomposition().rounds);
      check_rounds("labeling", s.sssp.distance_labeling().rounds);
      check_rounds("girth", gr.rounds);
      check_rounds("matching", mr.rounds);
      if (cfg.trace) report.metric("girth.cdl_builds", gr.cdl_builds, "count");
    }
    std::printf("# pass %d: girth %.1f ms, matching %.1f ms, sssp %.1f ms\n",
                pass, girth_ms, matching_ms, sssp_ms);
  }

  if (!cfg.trace) {
    report.metric("setup_s", median(setup_s), "s");
    report.metric("p50_us", median(pass_us), "us");
    report.metric("ops_per_s", pass_us.size() / s_since(loop_t0), "1/s");
    return;
  }
  report.metric("core.solver_ctor_ms", median(setup_s) * 1e3, "ms");
  report.metric("trace.p50_us", median(pass_us), "us");
  report.metric("p99_us", quantile(pass_us, 0.99), "us");
}

}  // namespace perfbench
