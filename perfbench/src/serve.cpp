// serve-uniform and serve-zipf: one oracle (n = 4000 partial 3-tree, two
// workers, filter on, oracle_daemon's cache defaults) behind the unix-socket
// daemon, driven open-loop at a fixed low rate (every request alone), a
// fixed high rate and a rate ladder for capacity.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "labeling/query_plane.hpp"
#include "loadgen.hpp"
#include "persist/frozen_image.hpp"
#include "phases.hpp"
#include "serving/daemon.hpp"
#include "util/mmap_file.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace lt = lowtw;
using lt::graph::Weight;

namespace {

struct ServeShape {
  int n;
  double low_rate;    ///< qps; requests arrive alone
  double high_rate;   ///< qps; about half the capacity of a 4-core host
  std::size_t pool;   ///< distinct requests generated (reused cyclically)
  int ladder_steps;
  double latency_limit_us;  ///< windowed-p50 limit of a passing ladder step
  double republish_s;       ///< zipf: interval between republishes
  int setups;               ///< set-ups per run (median reported)
  int load_repeats;         ///< traced: image-load replays (medians)
  std::size_t micro_pairs;  ///< traced: pairs of each direct-call replay
};

ServeShape serve_shape(const Config& cfg) {
  if (cfg.tiny) return {300, 500, 2000, 1 << 14, 3, 1000, 0.25, 2, 2, 2000};
  return {4000, 2000, 90000, 1 << 19, 7, 2000, 0.5, 5, 5, 20000};
}

constexpr double kZipfExponent = 1.2;
/// Window of the windowed latency estimates (see PhaseResult::windowed).
constexpr double kWindowS = 0.1;

/// The high-rate p50 reported from the windows' medians: their lower
/// quartile (see run_serve).
double high_p50_estimate(const std::vector<double>& window_p50s) {
  return quantile(window_p50s, 0.25);
}

std::vector<Pair> make_pairs(int n, std::size_t count, bool zipf,
                             std::uint64_t seed) {
  lt::util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x51ed);
  std::vector<Pair> pairs(count);
  if (!zipf) {
    for (Pair& p : pairs) {
      p.u = static_cast<lt::graph::VertexId>(rng.next_below(n));
      p.v = static_cast<lt::graph::VertexId>(rng.next_below(n));
    }
    return pairs;
  }
  // Zipf over ranks, ranks mapped to vertices by a seeded permutation so
  // the hot vertices are spread over the graph.
  std::vector<double> cdf(n);
  double total = 0;
  for (int r = 0; r < n; ++r) {
    total += 1.0 / std::pow(r + 1.0, kZipfExponent);
    cdf[r] = total;
  }
  std::vector<lt::graph::VertexId> perm(n);
  for (int v = 0; v < n; ++v) perm[v] = v;
  rng.shuffle(perm);
  auto draw = [&] {
    const double x = rng.next_double() * total;
    const auto r = std::lower_bound(cdf.begin(), cdf.end(), x) - cdf.begin();
    return perm[std::min<std::ptrdiff_t>(r, n - 1)];
  };
  for (Pair& p : pairs) {
    p.u = draw();
    p.v = draw();
  }
  return pairs;
}

void print_phase(const char* name, const PhaseResult& r) {
  std::printf(
      "# %-10s rate %6.0f qps  sent %6zu  p50 %7.1f us  p99 %7.1f us  "
      "windowed p50 %7.1f p99 %7.1f us  lag p99 %7.1f us  backlog@end %4zu  "
      "failed %zu  peak rss %.1f MB\n",
      name, r.rate, r.sent, r.p50(), r.p99(), r.windowed(0.5, kWindowS),
      r.windowed(0.99, kWindowS), r.lag_p99(), r.backlog_end, r.failed,
      peak_rss_mb());
}

/// Records one span per answered request of a phase under `parent`.
void record_requests(Tracer& tracer, const char* name, const PhaseResult& r,
                     std::uint64_t parent) {
  if (!tracer.enabled()) return;
  for (std::size_t i = 0; i < r.latency_us.size(); ++i) {
    const auto due = r.start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(r.due_s[i]));
    const auto end = due + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::micro>(
                                   r.latency_us[i]));
    tracer.record(name, due, end, parent, i + 1);
  }
}

/// The capacity ladder: from twice the high rate up by 1.5× while steps
/// pass, then bisects (geometrically) between the highest pass and the
/// lowest failure. A step passes when its
/// windowed median latency meets the limit and no backlog grows: answers
/// kept pace with the offered rate and what was outstanding when the
/// schedule ended could be answered within the limit. The limit is on the
/// median rather than the p99 because on a shared 4-vCPU host the p99 of
/// every rate is set by host preemption (milliseconds), not by the oracle;
/// the median stays flat until the daemon saturates, then jumps.
double capacity_ladder(const std::string& sock, RequestPool& pool,
                       const ServeShape& sh, double budget_s, Report& report,
                       const std::function<void()>& idle,
                       const std::function<void()>& on_step) {
  // Each step may run twice; the budget allows for two retries.
  const double step_s = 0.8 * budget_s / (sh.ladder_steps + 2);
  double lo = 0;
  double hi = 0;  // 0 = no failure yet
  double rate = 2 * sh.high_rate;
  double capacity = 0;
  double floor_goodput = 0;
  for (int k = 0; k < sh.ladder_steps; ++k) {
    PhaseResult r;
    bool pass = false;
    // A failed step is run once more before it counts: a host hiccup in
    // one step must not end the climb.
    for (int attempt = 0; attempt < 2 && !pass; ++attempt) {
      on_step();
      r = socket_phase(sock, pool, rate, step_s, Verb::kQuery, report, idle);
      const double backlog_limit =
          std::max(64.0, rate * sh.latency_limit_us / 1e6);
      pass = r.failed == 0 &&
             r.windowed(0.5, kWindowS) <= sh.latency_limit_us &&
             r.goodput() >= 0.95 * rate &&
             static_cast<double>(r.backlog_end) <= backlog_limit;
      print_phase(pass ? "ladder ok" : "ladder over", r);
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    if (pass) {
      lo = rate;
      capacity = r.goodput();
    } else {
      hi = rate;
      floor_goodput = r.goodput();
    }
    rate = hi == 0 ? rate * 1.5 : lo == 0 ? rate / 1.5 : std::sqrt(lo * hi);
  }
  return capacity > 0 ? capacity : floor_goodput;
}

}  // namespace

void run_serve(const Config& cfg, Report& report, Tracer& tracer, bool zipf) {
  const ServeShape sh = serve_shape(cfg);
  const double S = cfg.seconds;
  const std::string sock = cfg.work_dir + "/serve.sock";
  const std::string image = cfg.work_dir + "/serve.img";

  // Inputs and reference answers, all from the seed, all before timing.
  const lt::graph::WeightedDigraph g = serving_instance(sh.n, kInstanceSeed);
  RequestPool pool;
  pool.pairs = make_pairs(sh.n, sh.pool, zipf, cfg.seed);
  pool.expected = reference_distances(g, pool.pairs, 4);
  const lt::serving::OracleOptions opts = serving_options();

  // Set-up: instance → rebuilt snapshot → started workers → daemon
  // listening. Repeated; the last one serves.
  std::unique_ptr<lt::serving::Oracle> oracle;
  std::unique_ptr<lt::serving::Daemon> daemon;
  std::vector<double> setup_s, rebuild_ms;
  std::vector<BuildPhases> replays;  // traced: one per set-up
  for (int i = 0; i < sh.setups; ++i) {
    daemon.reset();
    oracle.reset();
    const auto t0 = Clock::now();
    oracle = std::make_unique<lt::serving::Oracle>(g, opts);
    rebuild_ms.push_back(time_ms([&] { oracle->rebuild_snapshot(); }));
    oracle->start();
    lt::serving::DaemonParams dp;
    dp.socket_path = sock;
    daemon = std::make_unique<lt::serving::Daemon>(*oracle, dp);
    if (!daemon->start()) throw std::runtime_error("daemon start failed");
    setup_s.push_back(s_since(t0));
    tracer.record("setup", t0, Clock::now());
    if (cfg.trace) replays.push_back(replay_build(g, opts, tracer));
  }
  std::printf("# setup: %zu x, median %.3f s (rebuild %.1f ms), peak rss %.1f MB;",
              setup_s.size(), median(setup_s), median(rebuild_ms), peak_rss_mb());
  for (const double s : setup_s) std::printf(" %.3f", s);
  std::printf(" s\n");

  // The image zipf republishes from and the traced run's load replays read.
  double write_ms = 0;
  if (zipf || cfg.trace) {
    write_ms = time_ms([&] {
      report.check(oracle->write_image(image), "write_image");
    });
  }

  // Zipf republishes at a fixed interval, phased from the start of every
  // phase and ladder step (the first one half an interval in), so each
  // measurement window sees the same cache-invalidation pattern.
  std::vector<double> republish_ms;
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(sh.republish_s));
  Clock::time_point next_republish;
  const std::function<void()> phase_start = [&] {
    next_republish = Clock::now() + interval / 2;
  };
  const std::function<void()> idle = [&] {
    if (!zipf || Clock::now() < next_republish) return;
    const auto t0 = Clock::now();
    const bool ok = oracle->load_image(image);
    const auto t1 = Clock::now();
    tracer.record("oracle.republish", t0, t1);
    report.check(ok, "republish load_image");
    republish_ms.push_back(us_between(t0, t1) / 1e3);
    next_republish += interval;
  };
  auto socket = [&](double rate, double seconds, Verb verb) {
    phase_start();
    return socket_phase(sock, pool, rate, seconds, verb, report, idle);
  };
  auto submit = [&](double rate, double seconds) {
    phase_start();
    return submit_phase(*oracle, pool, rate, seconds, report, idle);
  };

  // Warm-up: fills the caches and wakes the workers; checked, not timed.
  socket(sh.high_rate, 0.05 * S, Verb::kQuery);

  if (!cfg.trace) {
    // The untraced run measures what it reports: the high rate and three
    // capacity ladders (the highest counts — host interference can only
    // lower a ladder), interleaved, so that the high-rate windows are
    // spread over the whole run and a stretch of host interference
    // reaches only some of them. The low rate is measured by the traced
    // run.
    //
    // p50_us is the lower quartile of the windows' medians: interference
    // only adds latency, and on a shared host it can cover more than half
    // of a run's windows, while a slower program raises every window.
    std::vector<double> high_p50s;  // each 0.1-s window's p50, all segments
    double capacity = 0;
    for (int ladder = 0; ladder < 3; ++ladder) {
      const PhaseResult high = socket(sh.high_rate, 0.1 * S, Verb::kQuery);
      print_phase("high", high);
      const std::vector<double> w = high.window_quantiles(0.5, kWindowS);
      high_p50s.insert(high_p50s.end(), w.begin(), w.end());
      // The footprint of set-up plus steady serving; the ladder's overload
      // steps grow buffers with their backlog and are left out.
      if (ladder == 0) report.metric("peak_rss_mb", peak_rss_mb(), "MB");
      capacity = std::max(capacity, capacity_ladder(sock, pool, sh, 0.2 * S,
                                                    report, idle, phase_start));
    }
    std::printf("# high-rate window p50s: %zu windows, q10 %.1f q25 %.1f "
                "q50 %.1f q75 %.1f us\n",
                high_p50s.size(), quantile(high_p50s, 0.1),
                quantile(high_p50s, 0.25), quantile(high_p50s, 0.5),
                quantile(high_p50s, 0.75));
    std::printf("# capacity %.0f qps (p50 limit %.0f us), %zu republishes\n",
                capacity, sh.latency_limit_us, republish_ms.size());
    report.metric("setup_s", median(setup_s), "s");
    report.metric("p50_us", high_p50_estimate(high_p50s), "us");
    report.metric("ops_per_s", capacity, "1/s");
    daemon->stop();
    oracle->stop();
    return;
  }

  // --- traced run ------------------------------------------------------------
  const BuildPhases build = median_phases(replays);
  const LoadPhases load = replay_load(g, opts, image, sh.load_repeats, tracer, 0);
  if (load.failed_loads > 0) report.fail(load.failed_loads, "load_image");
  report.attempt(sh.load_repeats);

  auto phase_span = [&](const char* name, const PhaseResult& r) {
    return tracer.record(name, r.start, Clock::now());
  };
  const PhaseResult low = socket(sh.low_rate, 0.2 * S, Verb::kQuery);
  record_requests(tracer, "socket.request", low, phase_span("phase.low", low));
  print_phase("low", low);

  const lt::serving::OracleStats os0 = oracle->stats();
  const lt::serving::DaemonStats ds0 = daemon->stats();
  // Every 16th frame of the traced high phase is a PING: it is answered
  // with its read chunk's queries, which gives the chunk's wait.
  const PhaseResult high = socket(sh.high_rate, 0.25 * S, Verb::kMixed);
  const lt::serving::OracleStats os1 = oracle->stats();
  const lt::serving::DaemonStats ds1 = daemon->stats();
  record_requests(tracer, "socket.request", high,
                  phase_span("phase.high", high));
  print_phase("high", high);

  const PhaseResult ping = socket(sh.high_rate, 0.1 * S, Verb::kPing);
  record_requests(tracer, "daemon.ping", ping, phase_span("phase.ping", ping));
  print_phase("ping", ping);

  const PhaseResult sub_low = submit(sh.low_rate, 0.15 * S);
  record_requests(tracer, "oracle.submit", sub_low,
                  phase_span("phase.submit_low", sub_low));
  print_phase("submit-low", sub_low);
  const PhaseResult sub_high = submit(sh.high_rate, 0.2 * S);
  record_requests(tracer, "oracle.submit", sub_high,
                  phase_span("phase.submit_high", sub_high));
  print_phase("submit-hi", sub_high);

  // Direct calls on the workload's pairs: serve_now, ResultCache::lookup
  // and a QueryEngine pairwise batch at the measured batch fill.
  const std::size_t m = std::min(sh.micro_pairs, pool.pairs.size());
  {
    const auto t0 = Clock::now();
    std::size_t wrong = 0;
    for (std::size_t i = 0; i < m; ++i) {
      const lt::serving::QueryResponse r =
          oracle->serve_now(pool.pairs[i].u, pool.pairs[i].v);
      wrong += r.distance != pool.expected[i];
    }
    const auto t1 = Clock::now();
    tracer.record("oracle.serve_now", t0, t1);
    report.attempt(m);
    if (wrong > 0) report.fail(wrong, "serve_now distance");
    report.metric("oracle.serve_now_ns", us_between(t0, t1) * 1e3 / m, "ns");
  }
  {
    lt::serving::ResultCache cache(opts.cache);
    constexpr std::size_t kBlock = 256;
    double lookup_us = 0;
    std::vector<char> hit(kBlock);
    for (std::size_t b = 0; b < m; b += kBlock) {
      const std::size_t e = std::min(m, b + kBlock);
      const auto t0 = Clock::now();
      for (std::size_t i = b; i < e; ++i) {
        hit[i - b] = cache.lookup(pool.pairs[i].u, pool.pairs[i].v, 1)
                         .has_value();
      }
      const auto t1 = Clock::now();
      tracer.record("result_cache.lookup", t0, t1);
      lookup_us += us_between(t0, t1);
      for (std::size_t i = b; i < e; ++i) {
        if (!hit[i - b]) {
          cache.insert(pool.pairs[i].u, pool.pairs[i].v, 1, pool.expected[i],
                       lt::serving::ServeLevel::kBatchedIndex);
        }
      }
    }
    report.metric("cache.lookup_ns", lookup_us * 1e3 / m, "ns");
  }
  const double batches =
      static_cast<double>(os1.batches - os0.batches);
  const double batch_fill =
      batches > 0 ? static_cast<double>(os1.admitted - os0.admitted) / batches
                  : 0;
  {
    const lt::util::MmapFile mapping(image);
    const lt::persist::FrozenImageView view =
        lt::persist::parse_frozen_image(mapping.data(), mapping.size());
    const std::unique_ptr<AssembledView> assembled = assemble_view(view);
    lt::labeling::QueryEngine engine;
    engine.bind(assembled->flat, *assembled->index);
    engine.set_filter(assembled->filter ? &*assembled->filter : nullptr);
    engine.set_row_cache(opts.row_cache_slots);
    const auto chunk = static_cast<std::size_t>(
        std::max(1.0, std::round(batch_fill)));
    std::vector<lt::labeling::QueryPair> qp(m);
    for (std::size_t i = 0; i < m; ++i) qp[i] = {pool.pairs[i].u, pool.pairs[i].v};
    std::vector<Weight> out(m);
    const auto t0 = Clock::now();
    for (std::size_t b = 0; b < m; b += chunk) {
      const std::size_t e = std::min(m, b + chunk);
      engine.pairwise(std::span(qp).subspan(b, e - b),
                      std::span(out).subspan(b, e - b));
    }
    const auto t1 = Clock::now();
    tracer.record("query_engine.pairwise", t0, t1);
    std::size_t wrong = 0;
    for (std::size_t i = 0; i < m; ++i) wrong += out[i] != pool.expected[i];
    report.attempt(m);
    if (wrong > 0) report.fail(wrong, "QueryEngine::pairwise distance");
    report.metric("query_plane.ns_per_pair", us_between(t0, t1) * 1e3 / m,
                  "ns");
  }

  daemon->stop();
  oracle->stop();
  const lt::serving::OracleStats fin = oracle->stats();

  // Layer metrics from the public stats structs over the high-rate phase.
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double served =
      static_cast<double>(os1.served_batched_index - os0.served_batched_index);
  const double lookups = static_cast<double>(
      (os1.cache_hits + os1.cache_misses) - (os0.cache_hits + os0.cache_misses));
  report.metric("daemon.overhead_p50_us", high.p50() - sub_high.p50(), "us");
  report.metric("daemon.wire_p50_us", ping.p50(), "us");
  report.metric("daemon.chunk_wait_p50_us", high.ping_p50() - ping.p50(), "us");
  report.metric("daemon.cache_fast_frac",
                ratio(ds1.cache_fast - ds0.cache_fast,
                      ds1.requests - ds0.requests),
                "ratio");
  report.metric("oracle.submit_p50_us.low", sub_low.p50(), "us");
  report.metric("oracle.submit_p50_us.high", sub_high.p50(), "us");
  report.metric("admission.batch_fill", batch_fill, "count");
  report.metric("admission.shed_frac",
                ratio(os1.sheds - os0.sheds, ds1.requests - ds0.requests),
                "ratio");
  report.metric("admission.timeout_frac",
                ratio(os1.timeouts - os0.timeouts, os1.admitted - os0.admitted),
                "ratio");
  report.metric("pool.crashes", static_cast<double>(fin.pool.crashes), "count");
  report.metric("pool.respawns", static_cast<double>(fin.pool.respawns),
                "count");
  report.metric("cache.hit_rate", ratio(os1.cache_hits - os0.cache_hits, lookups),
                "ratio");
  report.metric("cache.evictions_per_s",
                (os1.cache_evictions - os0.cache_evictions) / high.seconds,
                "1/s");
  report.metric("query_plane.entries_per_query",
                ratio(os1.entries_touched - os0.entries_touched, served),
                "count");
  report.metric("query_plane.row_cache_hit_rate",
                ratio(os1.row_cache_hits - os0.row_cache_hits, served),
                "ratio");
  report.metric("filter.runs_skipped_per_query",
                ratio(os1.postings_runs_skipped - os0.postings_runs_skipped,
                      served),
                "count");
  report.metric("oracle.republish_ms", median(republish_ms), "ms");

  report_build_load(report, build, median(rebuild_ms), 0, load, write_ms);

  report.metric("p50_us.low", low.windowed(0.5, kWindowS), "us");
  report.metric("p99_us.low", low.p99(), "us");
  report.metric("p99_us", high.windowed(0.99, kWindowS), "us");
  report.metric("trace.p50_us",
                high_p50_estimate(high.window_quantiles(0.5, kWindowS)), "us");
  // socket p50 = wire + the read chunk's wait (both PING-timed) + residual.
  report.metric("stagesum.socket_residual_frac",
                ratio(high.p50() - high.ping_p50(), high.p50()), "ratio");
  report.metric("loadgen.lag_p99_us", high.lag_p99(), "us");
  report.metric("loadgen.sent",
                static_cast<double>(low.sent + high.sent + ping.sent +
                                    sub_low.sent + sub_high.sent),
                "count");
  report.metric("loadgen.backlog_end",
                static_cast<double>(std::max({low.backlog_end, high.backlog_end,
                                              sub_low.backlog_end,
                                              sub_high.backlog_end})),
                "count");
}

}  // namespace perfbench
