// restart: the operator's path from a graph file to a serving daemon.
// Set-up reads a DIMACS .gr file (written from the seed's instance), runs
// Oracle::rebuild_snapshot with the filter on and writes the kind-5 image;
// the timed loop then restarts from that image again and again: a fresh
// Oracle, load_image, start, Daemon::start and the first socket answer.
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string_view>

#include "graph/graph_io.hpp"
#include "loadgen.hpp"
#include "phases.hpp"
#include "serving/daemon.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace lt = lowtw;

namespace {

struct RestartShape {
  int n;
  int setups;        ///< builds per run (median reported)
  int load_repeats;  ///< traced: image-load replays (medians)
  std::size_t probes;
};

RestartShape restart_shape(const Config& cfg) {
  if (cfg.tiny) return {300, 2, 2, 256};
  return {4000, 5, 7, 4096};
}

/// True when `line` is "A <id> ok <level> <expected> <generation>".
bool answer_matches(const std::string& line, lt::graph::Weight expected) {
  char dist[32] = {0};
  char status[16] = {0};
  if (std::sscanf(line.c_str(), "A %*s %15s %*s %31s", status, dist) != 2) {
    return false;
  }
  if (std::string_view(status) != "ok") return false;
  if (std::string_view(dist) == "inf") return expected == lt::graph::kInfinity;
  return std::to_string(expected) == dist;
}

}  // namespace

void run_restart(const Config& cfg, Report& report, Tracer& tracer) {
  const RestartShape sh = restart_shape(cfg);
  const std::string gr = cfg.work_dir + "/restart.gr";
  const std::string image = cfg.work_dir + "/restart.img";
  const std::string sock = cfg.work_dir + "/restart.sock";

  // The input file and the probe answers, from the seed, before timing.
  const lt::graph::WeightedDigraph source = serving_instance(sh.n, kInstanceSeed);
  write_dimacs_gr(source, gr);
  std::vector<Pair> probes(sh.probes);
  lt::util::Rng rng(cfg.seed ^ 0x7e57a27ULL);
  for (Pair& p : probes) {
    p.u = static_cast<lt::graph::VertexId>(rng.next_below(sh.n));
    p.v = static_cast<lt::graph::VertexId>(rng.next_below(sh.n));
  }
  const std::vector<lt::graph::Weight> expected =
      reference_distances(source, probes, 4);
  const lt::serving::OracleOptions opts = serving_options();

  // Set-up: DIMACS file → published snapshot (build_s) → image written.
  lt::graph::WeightedDigraph g;
  std::vector<double> setup_s, build_s, read_ms, ctor_ms, write_ms;
  std::vector<BuildPhases> replays;  // traced: one per set-up
  for (int i = 0; i < sh.setups; ++i) {
    const auto t0 = Clock::now();
    g = lt::graph::io::read_dimacs_gr_file(gr);
    read_ms.push_back(ms_since(t0));
    tracer.record("graph.dimacs_read", t0, Clock::now());
    const auto tc = Clock::now();
    lt::serving::Oracle oracle(g, opts);
    ctor_ms.push_back(ms_since(tc));
    oracle.rebuild_snapshot();
    build_s.push_back(s_since(t0));
    const auto tw = Clock::now();
    report.check(oracle.write_image(image), "write_image");
    write_ms.push_back(ms_since(tw));
    setup_s.push_back(s_since(t0));
    tracer.record("setup", t0, Clock::now());
    if (cfg.trace) replays.push_back(replay_build(g, opts, tracer));
  }
  std::printf("# setup: %zu x, median %.3f s (build %.3f s: read %.1f ms, "
              "oracle ctor %.1f ms; image %.0f bytes)\n",
              setup_s.size(), median(setup_s), median(build_s),
              median(read_ms), median(ctor_ms), file_bytes(image));

  // Restarts until the run's time is spent (a traced run keeps half of it
  // for the replays).
  std::vector<double> restart_us;
  std::size_t k = 0;
  const auto loop_t0 = Clock::now();
  const double loop_s = cfg.trace ? 0.5 * cfg.seconds : cfg.seconds;
  while (s_since(loop_t0) < loop_s || restart_us.size() < 3) {
    const Pair p = probes[k % probes.size()];
    const lt::graph::Weight want = expected[k % probes.size()];
    ++k;
    const auto t0 = Clock::now();
    auto oracle = std::make_unique<lt::serving::Oracle>(g, opts);
    const auto t1 = Clock::now();
    const bool loaded = oracle->load_image(image);
    const auto t2 = Clock::now();
    oracle->start();
    const auto t3 = Clock::now();
    lt::serving::DaemonParams dp;
    dp.socket_path = sock;
    lt::serving::Daemon daemon(*oracle, dp);
    const bool listening = daemon.start();
    const auto t4 = Clock::now();
    const std::string line = single_query(sock, p);
    const auto t5 = Clock::now();
    report.check(loaded && listening && answer_matches(line, want),
                 "restart first answer: " + line);
    restart_us.push_back(us_between(t0, t5));
    if (tracer.enabled()) {
      const std::uint64_t root = tracer.record("restart", t0, t5, 0, k);
      tracer.record("restart.oracle_ctor", t0, t1, root, k);
      tracer.record("oracle.load_image", t1, t2, root, k);
      tracer.record("restart.start", t2, t3, root, k);
      tracer.record("restart.daemon_start", t3, t4, root, k);
      tracer.record("restart.first_answer", t4, t5, root, k);
    }
    daemon.stop();
    oracle->stop();
  }
  const double loop_elapsed = s_since(loop_t0);
  std::printf("# %zu restarts: p50 %.0f us  p99 %.0f us\n", restart_us.size(),
              median(restart_us), quantile(restart_us, 0.99));

  if (!cfg.trace) {
    report.metric("setup_s", median(setup_s), "s");
    report.metric("p50_us", median(restart_us), "us");
    report.metric("ops_per_s", restart_us.size() / loop_elapsed, "1/s");
    return;
  }

  // --- traced run: the build and load layers, phase by phase ----------------
  const BuildPhases build = median_phases(replays);
  const LoadPhases load =
      replay_load(g, opts, image, sh.load_repeats, tracer, 0);
  if (load.failed_loads > 0) report.fail(load.failed_loads, "load_image");
  report.attempt(sh.load_repeats);
  report_build_load(report, build, median(build_s) * 1e3, median(read_ms),
                    load, median(write_ms));
  report.metric("trace.p50_us", median(restart_us), "us");
  report.metric("p99_us", quantile(restart_us, 0.99), "us");
  report.metric("loadgen.sent", static_cast<double>(restart_us.size()),
                "count");
}

}  // namespace perfbench
