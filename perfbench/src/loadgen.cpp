#include "loadgen.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <charconv>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <future>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>

namespace perfbench {

using lowtw::graph::Weight;

std::vector<double> PhaseResult::window_quantiles(double q,
                                                  double window_s) const {
  if (latency_us.empty()) return {};
  const auto windows =
      static_cast<std::size_t>(std::max(1.0, std::floor(seconds / window_s)));
  std::vector<std::vector<double>> by_window(windows);
  for (std::size_t i = 0; i < latency_us.size(); ++i) {
    const auto w = std::min(windows - 1,
                            static_cast<std::size_t>(due_s[i] / window_s));
    by_window[w].push_back(latency_us[i]);
  }
  std::vector<double> per_window;
  for (const auto& w : by_window) {
    if (!w.empty()) per_window.push_back(quantile(w, q));
  }
  return per_window;
}

namespace {

constexpr double kGraceSeconds = 10;  ///< answers later than this are missing

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

/// Blocks until `due`. Long gaps sleep; the last stretch spins, so the
/// sender keeps its CPU: a sleeping thread on an oversubscribed virtual
/// CPU can wake milliseconds late, and every late send would be charged to
/// the system under test. Lateness that remains is measured as the
/// generator lag.
void wait_until(Clock::time_point due) {
  const auto now = Clock::now();
  if (due - now > std::chrono::milliseconds(2)) {
    std::this_thread::sleep_for(due - now - std::chrono::milliseconds(1));
  }
  while (Clock::now() < due) {
  }
}

/// Client-side deadline of every request: far above any latency the
/// benchmark accepts, so a request only times out if the server wedged.
constexpr std::chrono::microseconds kDeadline{1000000};

/// Parses "<dist>" of an answer: an integer or "inf".
bool parse_distance(std::string_view tok, Weight& out) {
  if (tok == "inf") {
    out = lowtw::graph::kInfinity;
    return true;
  }
  const auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), out);
  return ec == std::errc() && p == tok.data() + tok.size();
}

std::vector<std::string_view> split(std::string_view line) {
  std::vector<std::string_view> toks;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && line[i] == ' ') ++i;
    const std::size_t j = line.find(' ', i);
    const std::size_t end = j == std::string_view::npos ? line.size() : j;
    if (end > i) toks.push_back(line.substr(i, end - i));
    i = end;
  }
  return toks;
}

/// Shared per-phase bookkeeping of the client threads.
struct Phase {
  Phase(RequestPool& pool, double rate, double seconds,
        Verb verb = Verb::kQuery)
      : rate(rate),
        verb(verb),
        count(std::max<std::size_t>(
            1, static_cast<std::size_t>(std::llround(rate * seconds)))),
        first(pool.cursor) {
    pool.cursor = (pool.cursor + count) % pool.pairs.size();
    lag_us.assign(count, 0);
    answer_us.assign(count, -1);
  }
  const Pair& pair(const RequestPool& pool, std::size_t i) const {
    return pool.pairs[(first + i) % pool.pairs.size()];
  }
  bool is_ping(std::size_t i) const {
    return verb == Verb::kPing ||
           (verb == Verb::kMixed && i % kMixedPingEvery == kMixedPingEvery - 1);
  }
  Weight expected(const RequestPool& pool, std::size_t i) const {
    return pool.expected[(first + i) % pool.pairs.size()];
  }
  Clock::time_point due(std::size_t i) const {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(
                           static_cast<double>(i) / rate));
  }
  /// Answers still missing this long after the last due time count failed.
  Clock::time_point hard_end() const {
    return due(count) + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(kGraceSeconds));
  }

  double rate;
  Verb verb;
  std::size_t count;
  std::size_t first;
  Clock::time_point start;
  std::vector<double> lag_us;
  std::vector<double> answer_us;  ///< due → answer; -1 = no correct answer
  std::atomic<std::size_t> sent{0};
  std::atomic<std::size_t> resolved{0};
  std::atomic<std::size_t> backlog_end{0};
  std::atomic<bool> sender_done{false};
};

PhaseResult summarize(Phase& ph, double seconds, Report& report) {
  PhaseResult r;
  r.start = ph.start;
  r.rate = ph.rate;
  r.seconds = seconds;
  r.sent = ph.sent.load();
  r.backlog_end = ph.backlog_end.load();
  r.lag_us.assign(ph.lag_us.begin(), ph.lag_us.begin() + r.sent);
  for (std::size_t i = 0; i < ph.count; ++i) {
    if (ph.answer_us[i] < 0) continue;
    const double due = static_cast<double>(i) / ph.rate;
    r.last_answer_s = std::max(r.last_answer_s, due + ph.answer_us[i] / 1e6);
    ++r.answered;
    if (ph.verb == Verb::kMixed && ph.is_ping(i)) {
      r.ping_latency_us.push_back(ph.answer_us[i]);
      continue;
    }
    r.latency_us.push_back(ph.answer_us[i]);
    r.due_s.push_back(due);
  }
  r.failed = ph.count - r.answered;
  report.attempt(ph.count);
  if (r.failed > 0) report.fail(r.failed, "requests unanswered or wrong");
  return r;
}

void run_idle(Phase& ph, const std::function<void()>& idle) {
  const auto hard_end = ph.hard_end();
  while (ph.resolved.load(std::memory_order_acquire) < ph.count &&
         Clock::now() < hard_end) {
    if (idle) idle();
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

}  // namespace

PhaseResult socket_phase(const std::string& socket_path, RequestPool& pool,
                         double rate, double seconds, Verb verb,
                         Report& report, const std::function<void()>& idle) {
  Phase ph(pool, rate, seconds, verb);
  const int fd = connect_unix(socket_path);
  if (fd < 0) {
    report.attempt(ph.count);
    report.fail(ph.count, "cannot connect to " + socket_path);
    return PhaseResult{};
  }
  ph.start = Clock::now() + std::chrono::milliseconds(2);

  // One client thread sends and receives, with non-blocking socket calls:
  // a second busy thread would compete with the daemon for the host's
  // cores, and a blocking send could deadlock against the daemon's
  // blocking reply write.
  std::thread client([&] {
    const auto hard_end = ph.hard_end();
    std::string out;  // frames due but not yet accepted by the socket
    std::size_t out_off = 0;
    std::string in;
    char chunk[1 << 16];
    std::size_t next = 0;  // next request to enqueue
    std::vector<std::size_t> ping_ids;  // PING requests in send order
    std::size_t pongs = 0;  // PONGs come back in the same order
    std::size_t resolved = 0;
    bool broken = false;
    while (resolved < ph.count && !broken) {
      auto now = Clock::now();
      if (now > hard_end) break;
      bool progressed = false;
      for (; next < ph.count && ph.due(next) <= now; ++next) {
        ph.lag_us[next] = us_between(ph.due(next), now);
        progressed = true;
        if (ph.is_ping(next)) {
          out += "PING\n";
          ping_ids.push_back(next);
          continue;
        }
        const Pair& p = ph.pair(pool, next);
        out += "Q ";
        out += std::to_string(next);
        out += ' ';
        out += std::to_string(p.u);
        out += ' ';
        out += std::to_string(p.v);
        out += ' ';
        out += std::to_string(kDeadline.count());
        out += '\n';
      }
      ph.sent.store(next, std::memory_order_relaxed);
      if (next == ph.count && !ph.sender_done.load(std::memory_order_relaxed)) {
        ph.backlog_end.store(next - resolved);
        ph.sender_done.store(true, std::memory_order_relaxed);
      }
      if (out_off < out.size()) {
        const ssize_t n = ::send(fd, out.data() + out_off, out.size() - out_off,
                                 MSG_DONTWAIT | MSG_NOSIGNAL);
        if (n > 0) {
          out_off += static_cast<std::size_t>(n);
          progressed = true;
          if (out_off == out.size()) {
            out.clear();
            out_off = 0;
          }
        } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                   errno != EINTR) {
          broken = true;
        }
      }
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), MSG_DONTWAIT);
      if (n == 0) break;  // the daemon closed the connection
      if (n > 0) {
        progressed = true;
        now = Clock::now();
        in.append(chunk, static_cast<std::size_t>(n));
        std::size_t pos = 0;
        for (std::size_t nl; (nl = in.find('\n', pos)) != std::string::npos;
             pos = nl + 1) {
          const std::string_view line(in.data() + pos, nl - pos);
          std::size_t id = ph.count;
          bool ok = false;
          if (line == "PONG") {
            if (pongs < ping_ids.size()) id = ping_ids[pongs++];
            ok = true;
          } else {
            // A <id> ok <level> <dist> <generation>
            const std::vector<std::string_view> t = split(line);
            if (t.size() >= 3 && t[0] == "A") {
              std::from_chars(t[1].data(), t[1].data() + t[1].size(), id);
              Weight d = 0;
              ok = id < ph.count && t.size() == 6 && t[2] == "ok" &&
                   parse_distance(t[4], d) && d == ph.expected(pool, id);
            }
          }
          if (id >= ph.count) continue;
          if (ok) ph.answer_us[id] = us_between(ph.due(id), now);
          ++resolved;
        }
        in.erase(0, pos);
      } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        break;
      }
      if (!progressed && out.empty()) {
        // Idle: block on the socket through long gaps, spin through short
        // ones (an answer ends the wait either way; a sleeping thread on
        // an oversubscribed virtual CPU can wake milliseconds late).
        const auto gap = next < ph.count
                             ? ph.due(next) - Clock::now()
                             : std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::milliseconds(10));
        if (gap > std::chrono::milliseconds(2)) {
          pollfd pfd{fd, POLLIN, 0};
          ::poll(&pfd, 1, 1);
        }
      }
    }
    if (!ph.sender_done.load()) ph.backlog_end.store(next - resolved);
    ph.resolved.store(ph.count, std::memory_order_release);  // end the wait
  });

  run_idle(ph, idle);
  client.join();
  ::close(fd);
  return summarize(ph, seconds, report);
}

PhaseResult submit_phase(lowtw::serving::Oracle& oracle, RequestPool& pool,
                         double rate, double seconds, Report& report,
                         const std::function<void()>& idle) {
  using lowtw::serving::AdmissionQueue;
  using lowtw::serving::QueryResponse;
  using lowtw::serving::ServeStatus;
  Phase ph(pool, rate, seconds);
  ph.start = Clock::now() + std::chrono::milliseconds(2);

  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::pair<std::size_t, std::future<QueryResponse>>> parked;
  auto resolve = [&](std::size_t i, const QueryResponse& r,
                     Clock::time_point at) {
    if (r.status == ServeStatus::kOk && r.distance == ph.expected(pool, i)) {
      ph.answer_us[i] = us_between(ph.due(i), at);
    }
    ph.resolved.fetch_add(1, std::memory_order_acq_rel);
  };

  // At most kMaxInFlight requests are admitted and unanswered, below the
  // admission queue's capacity: the socket path is bounded the same way
  // (the daemon reads one chunk of frames at a time), so both paths see
  // the same schedule without the in-process one shedding on a host stall.
  constexpr std::size_t kMaxInFlight = 512;
  std::thread sender([&] {
    for (std::size_t i = 0; i < ph.count; ++i) {
      wait_until(ph.due(i));
      while (i - ph.resolved.load(std::memory_order_acquire) >= kMaxInFlight) {
        std::this_thread::yield();
      }
      ph.lag_us[i] = us_between(ph.due(i), Clock::now());
      const Pair& p = ph.pair(pool, i);
      AdmissionQueue::SubmitOutcome out = oracle.submit(p.u, p.v, kDeadline);
      if (out.immediate.has_value()) {
        resolve(i, *out.immediate, Clock::now());
      } else if (out.reply.has_value()) {
        std::lock_guard<std::mutex> lock(mu);
        parked.emplace_back(i, std::move(*out.reply));
        cv.notify_one();
      } else {
        resolve(i, QueryResponse{}, Clock::now());  // shed / shutdown
      }
      ph.sent.store(i + 1, std::memory_order_release);
    }
    ph.backlog_end.store(ph.sent.load() - ph.resolved.load());
    std::lock_guard<std::mutex> lock(mu);
    ph.sender_done.store(true, std::memory_order_release);
    cv.notify_one();
  });

  // Futures resolve in admission order up to worker interleaving; waiting
  // on them in that order charges a request at most the lag of the batch
  // ahead of it on the other worker.
  std::thread receiver([&] {
    for (;;) {
      std::pair<std::size_t, std::future<QueryResponse>> next;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !parked.empty() || ph.sender_done.load(); });
        if (parked.empty()) return;
        next = std::move(parked.front());
        parked.pop_front();
      }
      const QueryResponse r = next.second.get();
      resolve(next.first, r, Clock::now());
    }
  });

  run_idle(ph, idle);
  sender.join();
  receiver.join();
  return summarize(ph, seconds, report);
}

std::string single_query(const std::string& socket_path, Pair p) {
  const int fd = connect_unix(socket_path);
  if (fd < 0) return "";
  const std::string frame =
      "Q 1 " + std::to_string(p.u) + " " + std::to_string(p.v) + " " +
      std::to_string(kDeadline.count()) + "\n";
  std::string got;
  if (send_all(fd, frame)) {
    char chunk[256];
    while (got.find('\n') == std::string::npos) {
      const ssize_t n = ::read(fd, chunk, sizeof(chunk));
      if (n <= 0) break;
      got.append(chunk, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  const std::size_t nl = got.find('\n');
  return nl == std::string::npos ? "" : got.substr(0, nl);
}

}  // namespace perfbench
