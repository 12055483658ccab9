// Open-loop load generation: request i of a phase is due at
// start + i / rate whatever the system does, and its latency is timed from
// that due time, so a stall is charged to every request queued behind it.
// The generator's own lateness (send time minus due time) is recorded next
// to every latency, as is the backlog left when the schedule ends.
//
// Two client threads per phase at most: a sender and a receiver. Socket
// phases use one fresh unix-socket connection and the daemon's line
// protocol; in-process phases call serving::Oracle::submit directly on the
// same schedule (the daemon's own entry point), which is what the traced
// run subtracts from the socket numbers to get the daemon's overhead.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common.hpp"
#include "serving/oracle.hpp"

namespace perfbench {

/// Requests drawn from a cyclic pool with their reference answers.
struct RequestPool {
  std::vector<Pair> pairs;
  std::vector<lowtw::graph::Weight> expected;
  std::size_t cursor = 0;  ///< next pair handed out (wraps)
};

struct PhaseResult {
  Clock::time_point start;  ///< due time of request 0
  double rate = 0;
  double seconds = 0;
  std::size_t sent = 0;
  std::size_t answered = 0;  ///< answered ok with the right distance
  std::size_t failed = 0;    ///< wrong, refused, timed out or missing
  std::vector<double> latency_us;   ///< per answered request, due → answer
  std::vector<double> due_s;        ///< due offset of each latency sample
  /// Verb::kMixed: the PING frames' latencies (kept out of latency_us).
  std::vector<double> ping_latency_us;
  std::vector<double> lag_us;       ///< per sent request, due → send
  std::size_t backlog_end = 0;      ///< sent but unanswered at schedule end
  double last_answer_s = 0;         ///< offset of the last answer

  double p50() const { return quantile(latency_us, 0.5); }
  double p99() const { return quantile(latency_us, 0.99); }
  double ping_p50() const { return quantile(ping_latency_us, 0.5); }
  /// Each fixed window's q-quantile, in window order (empty windows left
  /// out).
  std::vector<double> window_quantiles(double q, double window_s) const;
  /// Median over fixed windows of each window's q-quantile: an estimate
  /// that a minority of disturbed windows (a stalled host CPU, a snapshot
  /// swap) cannot move on its own.
  double windowed(double q, double window_s) const {
    return median(window_quantiles(q, window_s));
  }
  double lag_p99() const { return quantile(lag_us, 0.99); }
  /// Answers per second over the phase (due start → last answer).
  double goodput() const {
    return last_answer_s > 0 ? static_cast<double>(answered) / last_answer_s
                             : 0;
  }
};

/// kMixed sends a PING in place of every kMixedPingEvery-th Q frame. The
/// daemon answers a read chunk's frames together once its last query
/// resolves, so an interleaved PING measures the wire plus the chunk's
/// wait, and a lone-PING phase the wire alone.
enum class Verb { kQuery, kPing, kMixed };
inline constexpr std::size_t kMixedPingEvery = 16;

/// Runs one open-loop phase over a fresh connection to `socket_path`.
/// `idle` is called on the calling thread until the phase ends (the zipf
/// workload republishes snapshots from it). Every answer is checked against
/// the pool's reference and charged to `report`.
PhaseResult socket_phase(const std::string& socket_path, RequestPool& pool,
                         double rate, double seconds, Verb verb,
                         Report& report, const std::function<void()>& idle);

/// The same schedule through Oracle::submit on the calling process.
PhaseResult submit_phase(lowtw::serving::Oracle& oracle, RequestPool& pool,
                         double rate, double seconds, Report& report,
                         const std::function<void()>& idle);

/// Connects, sends one Q frame and waits for its answer: the restart
/// workload's first frame. Returns the answer line ("" on failure).
std::string single_query(const std::string& socket_path, Pair p);

}  // namespace perfbench
