// Shared plumbing of the end-to-end benchmark: run configuration, the
// metric report (the one JSON line the harness reads), order statistics,
// the in-memory span recorder of the traced run, and the reference
// computations the correctness gate compares against.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/graph.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline double ms_since(Clock::time_point t0) {
  return us_between(t0, Clock::now()) / 1e3;
}
inline double s_since(Clock::time_point t0) {
  return us_between(t0, Clock::now()) / 1e6;
}

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Smoke-size instances and phases: every code path, in seconds.
  bool tiny = false;
  /// Working directory (relative to the current directory) for the socket,
  /// the DIMACS file, the images and the span dump.
  std::string work_dir = ".bench_build/perfbench-run";
  /// Pinned Solver round counts of the solve workload's instances.
  std::string rounds_file = "perfbench/pinned_rounds.txt";
};

/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample; the
/// same estimator as numpy's default. 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

/// Collects the run's metrics and the correctness ledger. Every operation
/// the benchmark checks is attempted once; a wrong, missing, refused or
/// timed-out answer is a failed operation and makes the run exit non-zero.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  bool has(const std::string& name) const;
  bool all_finite() const;

  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// Records `n` failed operations, keeping the first few reasons.
  void fail(std::uint64_t n, const std::string& why);
  /// One checked operation: attempted, and failed unless `ok`.
  void check(bool ok, const std::string& what) {
    attempt();
    if (!ok) fail(1, what);
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return reasons_; }

  /// The result line: {"correct", "attempted", "failed", "metrics"} with
  /// every recorded metric, in name order.
  std::string json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> reasons_;
};

/// In-memory spans for the traced run: name, start, end, the span that
/// caused it, and a request id shared by the spans of one request. Written
/// out as JSON lines when the run ends, never during it.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::uint64_t id;
    std::uint64_t parent;  ///< 0 = root
    std::uint64_t request;
    Clock::time_point start;
    Clock::time_point end;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }
  bool enabled() const { return enabled_; }

  /// Records a finished span; returns its id (0 when tracing is off).
  std::uint64_t record(const char* name, Clock::time_point start,
                       Clock::time_point end, std::uint64_t parent = 0,
                       std::uint64_t request = 0);
  /// Writes one JSON object per span; returns false on an I/O error.
  bool dump(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::uint64_t next_id_ = 1;
  std::vector<Span> spans_;
};

/// Times one call in milliseconds.
template <typename F>
double time_ms(F&& f) {
  const auto t0 = Clock::now();
  f();
  return ms_since(t0);
}

// --- reference answers (computed outside every timed window) ---------------

struct Pair {
  lowtw::graph::VertexId u = 0;
  lowtw::graph::VertexId v = 0;
};

/// Exact d(u, v) for every pair by Dijkstra, one run per distinct source,
/// fanned over `threads` threads.
std::vector<lowtw::graph::Weight> reference_distances(
    const lowtw::graph::WeightedDigraph& g, const std::vector<Pair>& pairs,
    int threads);

/// The serving family of oracle_daemon: a partial 3-tree with random
/// orientations (90% of edges both ways) and weights in [1, 100].
lowtw::graph::WeightedDigraph serving_instance(int n, std::uint64_t seed);
/// The generator seed of the serve and restart workloads' graph:
/// oracle_daemon's default. The graph is pinned so that set-up time, memory
/// and capacity compare one instance across runs; the workload seed drives
/// the traffic (pairs, the Zipf hot set, restart probes).
inline constexpr std::uint64_t kInstanceSeed = 7;

/// Writes `g` as a DIMACS .gr file (1-based ids, one `a` line per arc).
void write_dimacs_gr(const lowtw::graph::WeightedDigraph& g,
                     const std::string& path);

/// Provenance of a result: hardware, toolchain, code version and seed.
std::string provenance_json(const Config& cfg);

}  // namespace perfbench
