// perfbench: the repository's end-to-end benchmark binary.
//
//   perfbench --workload <serve-uniform|serve-zipf|restart|solve>
//             --seed <n> --seconds <s> --trace <0|1> [--tiny 1]
//             [--work-dir <dir>] [--rounds-file <file>]
//
// Builds the workload's inputs from the seed, measures for --seconds and
// checks every answer. Human-readable progress lines start with '#'; the
// provenance line precedes the result, and the last line of stdout is the
// result JSON with every metric the run measured: the end-to-end ones when
// --trace 0, the per-layer ones when --trace 1 (then the spans go to
// <work-dir>/trace-<workload>.jsonl). perfbench/run.py checks them against
// the names and units BENCHMARK.json declares. Exits non-zero when any
// operation failed its check.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <serve-uniform|serve-zipf|"
               "restart|solve> --seed <n> --seconds <s> --trace <0|1> "
               "[--tiny 1] [--work-dir dir] [--rounds-file file]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Config cfg;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      cfg.workload = val;
    } else if (key == "--seed") {
      cfg.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      cfg.seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      cfg.trace = val == "1";
    } else if (key == "--tiny") {
      cfg.tiny = val == "1";
    } else if (key == "--work-dir") {
      cfg.work_dir = val;
    } else if (key == "--rounds-file") {
      cfg.rounds_file = val;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || cfg.seconds <= 0) return usage();
  std::error_code ec;
  std::filesystem::create_directories(cfg.work_dir, ec);

  Report report;
  Tracer tracer(cfg.trace);
  try {
    if (cfg.workload == "serve-uniform") {
      run_serve(cfg, report, tracer, /*zipf=*/false);
    } else if (cfg.workload == "serve-zipf") {
      run_serve(cfg, report, tracer, /*zipf=*/true);
    } else if (cfg.workload == "restart") {
      run_restart(cfg, report, tracer);
    } else if (cfg.workload == "solve") {
      run_solve(cfg, report, tracer);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    report.attempt();
    report.fail(1, std::string("exception: ") + e.what());
  }

  // Measured by every workload: peak memory (end to end) and the share of
  // failed operations (a layer metric; the result line carries the counts).
  if (!cfg.trace && !report.has("peak_rss_mb")) {
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  }
  if (cfg.trace) {
    report.metric("failed_frac",
                  report.attempted() > 0 ? static_cast<double>(report.failed()) /
                                               report.attempted()
                                         : 0,
                  "ratio");
  }
  report.check(report.all_finite(), "a metric is not a finite number");
  if (report.attempted() == 0) report.check(false, "nothing was checked");
  if (tracer.enabled()) {
    const std::string path = cfg.work_dir + "/trace-" + cfg.workload + ".jsonl";
    if (!tracer.dump(path)) report.fail(0, "cannot write " + path);
  }
  for (const std::string& why : report.failures()) {
    std::printf("# FAILED: %s\n", why.c_str());
  }
  std::printf("%s\n", provenance_json(cfg).c_str());
  std::printf("%s\n", report.json().c_str());
  std::fflush(stdout);
  return report.failed() == 0 ? 0 : 1;
}
