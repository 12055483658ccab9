#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

// Set by perfbench/CMakeLists.txt.
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

using lowtw::graph::Weight;

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// --- Report -----------------------------------------------------------------

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = {value, unit};
}

bool Report::has(const std::string& name) const {
  return metrics_.count(name) != 0;
}

bool Report::all_finite() const {
  return std::all_of(metrics_.begin(), metrics_.end(), [](const auto& m) {
    return std::isfinite(m.second.first);
  });
}

void Report::fail(std::uint64_t n, const std::string& why) {
  failed_ += n;
  if (reasons_.size() < 8) reasons_.push_back(why);
}

std::string Report::json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    const auto& [v, unit] = metric;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << buf
       << ", \"unit\": \"" << unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

// --- Tracer -----------------------------------------------------------------

std::uint64_t Tracer::record(const char* name, Clock::time_point start,
                             Clock::time_point end, std::uint64_t parent,
                             std::uint64_t request) {
  if (!enabled_) return 0;
  const std::uint64_t id = next_id_++;
  spans_.push_back(Span{name, id, parent, request, start, end});
  return id;
}

bool Tracer::dump(const std::string& path) const {
  std::ofstream os(path);
  for (const Span& s : spans_) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                  "\"request\": %llu, \"start_us\": %.3f, \"end_us\": %.3f}\n",
                  s.name, static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request),
                  us_between(origin_, s.start), us_between(origin_, s.end));
    os << buf;
  }
  return static_cast<bool>(os);
}

// --- references -------------------------------------------------------------

std::vector<Weight> reference_distances(
    const lowtw::graph::WeightedDigraph& g, const std::vector<Pair>& pairs,
    int threads) {
  const int n = g.num_vertices();
  // Bucket pair indices by source so each source runs Dijkstra once.
  std::vector<std::size_t> start(static_cast<std::size_t>(n) + 1, 0);
  for (const Pair& p : pairs) ++start[static_cast<std::size_t>(p.u) + 1];
  for (int v = 0; v < n; ++v) start[v + 1] += start[v];
  std::vector<std::size_t> order(pairs.size());
  {
    std::vector<std::size_t> fill(start.begin(), start.end() - 1);
    for (std::size_t i = 0; i < pairs.size(); ++i) order[fill[pairs[i].u]++] = i;
  }
  std::vector<Weight> out(pairs.size(), lowtw::graph::kInfinity);
  std::atomic<int> next{0};
  auto worker = [&] {
    for (int s; (s = next.fetch_add(1)) < n;) {
      if (start[s] == start[s + 1]) continue;
      const lowtw::graph::SpResult sp = lowtw::graph::dijkstra(g, s);
      for (std::size_t k = start[s]; k < start[s + 1]; ++k) {
        out[order[k]] = sp.dist[pairs[order[k]].v];
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
  return out;
}

lowtw::graph::WeightedDigraph serving_instance(int n, std::uint64_t seed) {
  lowtw::util::Rng rng(seed);
  const lowtw::graph::Graph topo =
      lowtw::graph::gen::partial_ktree(n, 3, 0.7, rng);
  return lowtw::graph::gen::random_orientation(topo, /*both_prob=*/0.9,
                                               /*lo=*/1, /*hi=*/100, rng);
}

void write_dimacs_gr(const lowtw::graph::WeightedDigraph& g,
                     const std::string& path) {
  std::ofstream os(path);
  os << "c perfbench serving instance\n";
  os << "p sp " << g.num_vertices() << ' ' << g.num_arcs() << '\n';
  for (const lowtw::graph::Arc& a : g.arcs()) {
    os << "a " << a.tail + 1 << ' ' << a.head + 1 << ' ' << a.weight << '\n';
  }
}

namespace {

std::string read_first_line(const char* path) {
  std::ifstream is(path);
  std::string line;
  if (!is || !std::getline(is, line)) return "unavailable";
  return line;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

std::string provenance_json(const Config& cfg) {
  const char* commit = std::getenv("PERFBENCH_GIT_COMMIT");
  std::ostringstream os;
  os << "{\"provenance\": {\"workload\": \"" << json_escape(cfg.workload)
     << "\", \"seed\": " << cfg.seed << ", \"seconds\": " << cfg.seconds
     << ", \"trace\": " << (cfg.trace ? 1 : 0)
     << ", \"tiny\": " << (cfg.tiny ? 1 : 0)
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"cpu_governor\": \""
     << json_escape(read_first_line(
            "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"))
     << "\", \"compiler\": \"" << json_escape(PERFBENCH_COMPILER)
     << "\", \"build_type\": \"" << json_escape(PERFBENCH_BUILD_TYPE)
     << "\", \"git_commit\": \""
     << json_escape(commit != nullptr && *commit != '\0' ? commit : "unknown")
     << "\"}}";
  return os.str();
}

}  // namespace perfbench
