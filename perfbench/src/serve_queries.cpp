// serve-queries: an in-process `rovista serve` with one worker, warm-
// started from a paper-length RVLA archive, answering a closed-loop
// client over loopback while new rounds are published into its feed.
//
// One client connection keeps kWindow requests outstanding; 90% are
// SCORE, the rest TRAJECTORY, for ASes drawn uniformly from the matrix.
// A publisher thread folds one new round into the feed every
// kPublishEvery, as the round loop of `rovista serve` does after each
// round. Every answer is checked against the matrix.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <random>
#include <thread>

#include "analytics/rvla_io.h"
#include "bench.h"
#include "matrix.h"
#include "serve/server.h"

namespace perfbench {

using namespace rovista;

namespace {

constexpr std::size_t kArchiveRows = 600;  // ~20 months of daily rounds
constexpr std::size_t kAses = 2000;
// `rovista serve` publishes each round as its incremental runner
// completes it; a warm round of the round world takes ~0.6 s
// (monthly-series op_p50_ms on the reference host, README).
constexpr double kPublishEvery = 0.6;  // seconds between live rounds
// The request mix of bench_serve: 16 requests pipelined per
// connection, one in ten a TRAJECTORY.
constexpr std::size_t kWindow = 16;  // outstanding requests
constexpr double kTrajectoryShare = 0.1;
constexpr int kSetups = 5;
constexpr std::size_t kHandlerBatch = 16;

/// Latency histogram: 10 ns bins to 200 us, then 1 us bins to 50 ms.
class Histogram {
 public:
  Histogram() : bins_(kFine + kCoarse, 0) {}

  void add(std::int64_t ns) {
    std::size_t bin;
    if (ns < 0) ns = 0;
    if (ns < static_cast<std::int64_t>(kFine) * 10) {
      bin = static_cast<std::size_t>(ns / 10);
    } else {
      bin = std::min(kFine + static_cast<std::size_t>(ns / 1000 - kFine / 100),
                     bins_.size() - 1);
    }
    ++bins_[bin];
    ++count_;
  }

  /// Quantile in nanoseconds, linearly interpolated within the bin.
  double quantile_ns(double q) const {
    if (count_ == 0) return 0.0;
    const double target = q * static_cast<double>(count_);
    double seen = 0.0;
    for (std::size_t b = 0; b < bins_.size(); ++b) {
      const double n = static_cast<double>(bins_[b]);
      if (n > 0.0 && seen + n >= target) {
        const double lo = b < kFine ? static_cast<double>(b) * 10.0
                                    : static_cast<double>(b - kFine) * 1000.0 +
                                          static_cast<double>(kFine) * 10.0;
        const double width = b < kFine ? 10.0 : 1000.0;
        return lo + width * (target - seen) / n;
      }
      seen += n;
    }
    return static_cast<double>(kFine) * 10.0 + static_cast<double>(kCoarse) * 1000.0;
  }

 private:
  static constexpr std::size_t kFine = 20000;
  static constexpr std::size_t kCoarse = 49800;
  std::vector<std::uint64_t> bins_;
  std::uint64_t count_ = 0;
};

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

bool send_all(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  return true;
}

/// Publishes matrix rows kArchiveRows, kArchiveRows + 1, ... into the
/// feed every kPublishEvery until stopped; times each publish.
class Publisher {
 public:
  Publisher(const ScoreMatrix& matrix, serve::ScoreFeed& feed)
      : matrix_(matrix), feed_(feed), thread_([this] { loop(); }) {}
  ~Publisher() { stop(); }
  Publisher(const Publisher&) = delete;
  Publisher& operator=(const Publisher&) = delete;

  void stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    wake_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  /// The newest matrix row published so far.
  std::size_t newest_row() const {
    return newest_.load(std::memory_order_acquire);
  }
  /// (start, end) of every publish; read after stop().
  const std::vector<std::pair<Clock::time_point, Clock::time_point>>& spans()
      const {
    return spans_;
  }

 private:
  void loop() {
    const auto start = Clock::now();
    for (std::size_t k = 1;; ++k) {
      const std::size_t row = kArchiveRows - 1 + k;
      const auto due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(kPublishEvery * k));
      {
        std::unique_lock<std::mutex> lock(mutex_);
        if (wake_.wait_until(lock, due, [this] { return stopping_; })) return;
      }
      if (row >= matrix_.dates.size()) return;
      std::vector<core::AsScore> scores;
      scores.reserve(matrix_.asns.size());
      for (std::size_t c = 0; c < matrix_.asns.size(); ++c) {
        core::AsScore s;
        s.asn = matrix_.asns[c];
        s.score = matrix_.scores[row][c];
        scores.push_back(s);
      }
      const auto t0 = Clock::now();
      feed_.publish(matrix_.dates[row], scores, snapshot::EpochRef{});
      spans_.emplace_back(t0, Clock::now());
      newest_.store(row, std::memory_order_release);
    }
  }

  const ScoreMatrix& matrix_;
  serve::ScoreFeed& feed_;
  std::atomic<std::size_t> newest_{kArchiveRows - 1};
  std::vector<std::pair<Clock::time_point, Clock::time_point>> spans_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;  // guarded by mutex_
  std::thread thread_;     // last: started after everything it uses
};

/// The request stream: deterministic in the run's seed.
class RequestMix {
 public:
  RequestMix(std::uint64_t seed, std::size_t ases) : rng_(seed ^ 0x5eedULL), col_(0, ases - 1) {}
  serve::Request next(std::uint32_t id, const ScoreMatrix& m, std::size_t& col) {
    serve::Request r;
    r.request_id = id;
    col = col_(rng_);
    r.asn = m.asns[col];
    r.opcode = unit_(rng_) < kTrajectoryShare ? serve::Opcode::kTrajectory
                                              : serve::Opcode::kScore;
    return r;
  }

 private:
  std::mt19937_64 rng_;
  std::uniform_int_distribution<std::size_t> col_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
};

/// Is `resp` the right answer to (`opcode`, column `col`)? `newest`
/// bounds the row it may come from: the publisher marks a row newest
/// only after publishing it, so one row past the mark may be visible.
bool answer_ok(const ScoreMatrix& m, const serve::Response& resp,
               serve::Opcode opcode, std::uint32_t id, std::size_t col,
               std::size_t newest) {
  if (resp.status != serve::Status::kOk || resp.opcode != opcode ||
      resp.request_id != id) {
    return false;
  }
  const std::int64_t row64 =
      resp.round_date_days - m.dates.front().days_since_epoch();
  if (row64 < static_cast<std::int64_t>(kArchiveRows) - 1 ||
      row64 > static_cast<std::int64_t>(newest)) {
    return false;
  }
  const auto row = static_cast<std::size_t>(row64);
  if (opcode == serve::Opcode::kScore) {
    return resp.asn == m.asns[col] && resp.score == m.scores[row][col] &&
           resp.score_str == score_text(m.scores[row][col]);
  }
  if (resp.trajectory.size() != row + 1) return false;
  for (std::size_t r = 0; r <= row; ++r) {
    const auto& p = resp.trajectory[r];
    if (p.date_days != m.dates[r].days_since_epoch() ||
        p.score != m.scores[r][col]) {
      return false;
    }
  }
  return true;
}

struct Outstanding {
  std::uint32_t id;
  serve::Opcode opcode;
  std::size_t col;
  Clock::time_point sent;
};

/// Checks the warm-start snapshot against the archive's last row.
bool seeded_ok(const ScoreMatrix& m, const serve::ScoreFeed& feed) {
  const auto snap = feed.current();
  if (!snap || snap->rounds_completed != kArchiveRows ||
      snap->date != m.dates[kArchiveRows - 1] ||
      snap->scores.size() != m.asns.size()) {
    return false;
  }
  for (std::size_t c = 0; c < m.asns.size(); ++c) {
    if (snap->scores[c].asn != m.asns[c] ||
        snap->scores[c].score != m.scores[kArchiveRows - 1][c]) {
      return false;
    }
  }
  return true;
}

}  // namespace

void run_serve_queries(const Options& options, Report& report) {
  const bool traced = options.trace;
  const std::size_t live_rows =
      static_cast<std::size_t>(std::ceil(options.seconds / kPublishEvery)) + 16;
  const ScoreMatrix matrix =
      make_matrix(options.seed, kArchiveRows + live_rows, kAses, 1.0);
  const std::string archive = options.work_dir + "/archive";
  {
    std::vector<analytics::RvlaFrame> frames;
    for (std::size_t r = 0; r < kArchiveRows; ++r) frames.push_back(matrix.frame(r));
    std::string error;
    if (!analytics::RvlaWriter::create(archive, frames, &error).has_value()) {
      report.check(false, "archive create failed: " + error);
      report.attempt();
      return;
    }
  }

  // Set-up, several times: seed a fresh feed from the archive and start
  // the server. The last one serves the load.
  if (traced) Tracer::instance().enable();
  std::vector<double> setup_s, seed_s;
  std::shared_ptr<serve::ScoreFeed> feed;
  std::unique_ptr<serve::Server> server;
  Calibration calibration;
  for (int k = 0; k < kSetups; ++k) {
    calibration.sample();
    server.reset();
    feed = std::make_shared<serve::ScoreFeed>();
    const auto t0 = Clock::now();
    bool seeded;
    {
      Span s("serve", "serve.seed");
      seeded = feed->seed_from_archive(archive);
    }
    seed_s.push_back(seconds_since(t0));
    serve::ServerOptions server_options;
    server_options.workers = 1;
    server = std::make_unique<serve::Server>(server_options, feed);
    bool started;
    {
      Span s("serve", "serve.start");
      started = server->start();
    }
    setup_s.push_back(seconds_since(t0));
    report.check(seeded && seeded_ok(matrix, *feed), "seed_from_archive");
    if (!report.check(started, "server start failed")) {
      report.attempt();
      return;
    }
  }

  LayerValues values;
  if (traced) {
    // A bare cursor walk: the decode share of seeding.
    {
      Span s("analytics", "analytics.decode");
      std::string error;
      auto cursor = analytics::RvlaCursor::open(archive, &error);
      std::size_t frames = 0;
      while (cursor.has_value() && cursor->next().has_value()) ++frames;
      report.check(frames == kArchiveRows, "cursor walk frame count");
    }
    // The request handler alone, called without sockets.
    serve::Server handler(serve::ServerOptions{}, feed);
    RequestMix mix(options.seed + 1, matrix.asns.size());
    std::vector<double> per_frame_ns;
    std::vector<std::uint8_t> out;
    const auto h0 = Clock::now();
    std::uint32_t id = 0;
    while (seconds_since(h0) < 0.5) {
      std::vector<std::vector<std::uint8_t>> payloads;
      for (std::size_t i = 0; i < kHandlerBatch; ++i) {
        std::size_t col = 0;
        payloads.push_back(serve::encode_request(mix.next(++id, matrix, col)));
      }
      out.clear();
      const auto b0 = Clock::now();
      handler.begin_batch(0);
      for (const auto& p : payloads) handler.on_frame(0, p, out);
      handler.end_batch(0);
      per_frame_ns.push_back(seconds_since(b0) * 1e9 / kHandlerBatch);
    }
    values["serve.handler_ns"] = median(per_frame_ns);
    Tracer::instance().disable();
  }

  // Load: closed loop over one connection while rounds are published.
  const int fd = connect_loopback(server->port());
  if (!report.check(fd >= 0, "connect failed")) {
    report.attempt();
    return;
  }
  Histogram latency, traced_latency, untraced_latency;
  RequestMix mix(options.seed, matrix.asns.size());
  std::deque<Outstanding> outstanding;
  serve::FrameDecoder decoder(1 << 24);
  std::vector<std::uint8_t> wbuf;
  std::uint8_t rbuf[1 << 16];
  std::uint32_t next_id = 0;
  std::uint64_t answered = 0, wrong = 0, sent = 0;
  bool transport_ok = true;
  double load_s = 0.0;
  {
    Publisher publisher(matrix, *feed);
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(options.seconds));
    std::uint64_t sampled = 0;
    bool sending = true;
    // Once a second the client drains its window and takes a
    // calibration sample; that pause is not load time.
    auto next_calibration = start + std::chrono::seconds(1);
    double paused_s = 0.0;
    while (transport_ok && (sending || !outstanding.empty())) {
      const auto now = Clock::now();
      if (now >= deadline) sending = false;
      if (!sending && outstanding.empty()) break;
      const bool pause = sending && now >= next_calibration;
      if (pause && outstanding.empty()) {
        calibration.sample();
        next_calibration += std::chrono::seconds(1);
        paused_s += seconds_since(now);
        continue;
      }
      if (sending && !pause && outstanding.size() < kWindow / 2) {
        wbuf.clear();
        while (outstanding.size() < kWindow) {
          std::size_t col = 0;
          const serve::Request req = mix.next(++next_id, matrix, col);
          serve::append_frame(wbuf, serve::encode_request(req));
          outstanding.push_back({req.request_id, req.opcode, col, now});
          ++sent;
        }
        transport_ok = send_all(fd, wbuf);
        if (!transport_ok) break;
      }
      const ssize_t n = ::recv(fd, rbuf, sizeof rbuf, 0);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        transport_ok = false;
        break;
      }
      decoder.append({rbuf, static_cast<std::size_t>(n)});
      const auto arrived = Clock::now();
      // Traced runs alternate one-second slices with per-request spans
      // (one in 64 sampled) and slices without, to measure the overhead.
      const bool slice_traced =
          traced && static_cast<long>(seconds_since(start)) % 2 == 1;
      while (auto payload = decoder.next()) {
        if (outstanding.empty()) {
          transport_ok = false;
          break;
        }
        const Outstanding o = outstanding.front();
        outstanding.pop_front();
        const auto resp = serve::parse_response(*payload);
        const bool ok = resp.has_value() &&
                        answer_ok(matrix, *resp, o.opcode, o.id, o.col,
                                  publisher.newest_row() + 1);
        ++answered;
        if (!ok) ++wrong;
        const auto ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(arrived - o.sent)
                .count();
        latency.add(ns);
        if (traced) {
          (slice_traced ? traced_latency : untraced_latency).add(ns);
          if (slice_traced && ++sampled % 64 == 0) {
            Tracer::instance().enable();
            Tracer::instance().add("serve", "serve.query", o.sent, arrived);
            Tracer::instance().disable();
          }
        }
      }
      if (decoder.corrupt()) transport_ok = false;
    }
    load_s = seconds_since(start) - paused_s;
    publisher.stop();
    report.check(publisher.newest_row() > kArchiveRows - 1,
                 "no round was published during the load");
    if (traced) {
      Tracer::instance().enable();
      std::vector<double> publish_ms;
      for (const auto& [b, e] : publisher.spans()) {
        Tracer::instance().add("serve", "serve.publish", b, e);
        publish_ms.push_back(std::chrono::duration<double>(e - b).count() * 1e3);
      }
      Tracer::instance().disable();
      values["serve.publish_ms"] = median(publish_ms);
    }
  }
  ::close(fd);
  const double frames = static_cast<double>(server->io().frames_served());
  const double batches = static_cast<double>(server->io().batches_served());
  server->stop();

  // A request fails when it gets no answer or a wrong one.
  report.attempt(sent);
  report.fail(sent - answered + wrong);
  report.check(transport_ok, "transport error during the load");
  report.check(wrong == 0, std::to_string(wrong) + " wrong answers");

  if (!traced) {
    report_end_to_end(report, calibration, median(setup_s),
                      latency.quantile_ns(0.5) * 1e-6,
                      static_cast<double>(answered) / load_s);
    return;
  }
  values["serve.seed_s"] = median(seed_s);
  values["serve.frames_per_batch"] = batches > 0.0 ? frames / batches : 0.0;
  values["serve.query_p99_us"] = latency.quantile_ns(0.99) * 1e-3;
  values["analytics.decode_s"] = span_median("analytics.decode");
  report_layers(report, values,
                traced_latency.quantile_ns(0.5) /
                    untraced_latency.quantile_ns(0.5),
                calibration);
}

}  // namespace perfbench
