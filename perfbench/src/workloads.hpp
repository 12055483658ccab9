// The benchmark's workloads. Each one fills the Report with the metrics
// of its mode: the end-to-end metrics when untraced, the per-layer metrics
// (recorded through the Tracer) when traced.
//
//   serve-uniform  socket traffic of fresh uniform pairs: the miss path
//                  (admission, worker pool, QueryEngine decode, filter).
//   serve-zipf     Zipf(1.2) pairs with kind-5 republishes at a fixed
//                  interval: the result cache, its fast path, the swap path.
//   restart        DIMACS file → rebuild → kind-5 image, then repeated
//                  restarts to the first socket answer: build and load layers.
//   solve          girth, matching and batched SSSP through Solver: the
//                  non-serving results of the paper.
#pragma once

#include "common.hpp"

namespace perfbench {

void run_serve(const Config& cfg, Report& report, Tracer& tracer, bool zipf);
void run_restart(const Config& cfg, Report& report, Tracer& tracer);
void run_solve(const Config& cfg, Report& report, Tracer& tracer);

}  // namespace perfbench
