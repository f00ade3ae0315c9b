#include "bench.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 1) return values[0];
  // Exclusive method: position q * (n + 1), 1-based, clamped to the data.
  double pos = q * static_cast<double>(n + 1);
  pos = std::clamp(pos, 1.0, static_cast<double>(n));
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const double frac = pos - static_cast<double>(lo);
  if (lo >= n) return values[n - 1];
  return values[lo - 1] + frac * (values[lo] - values[lo - 1]);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double peak_rss_mb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

int pin_process(int count) {
  cpu_set_t current;
  CPU_ZERO(&current);
  if (::sched_getaffinity(0, sizeof(current), &current) != 0) return 0;
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  int taken = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE && taken < count; ++cpu) {
    if (CPU_ISSET(cpu, &current)) {
      CPU_SET(cpu, &chosen);
      ++taken;
    }
  }
  // pid 0 applies to the calling thread only; threads started later
  // inherit it, which is what pins the server workers too.
  if (taken == 0 || ::sched_setaffinity(0, sizeof(chosen), &chosen) != 0) {
    return allowed_cpus();
  }
  return taken;
}

void Calibration::sample() {
  // A fixed random cyclic permutation of 2M slots (8 MB), built once.
  static const std::vector<std::uint32_t> next = [] {
    constexpr std::uint32_t kSlots = 1u << 21;
    std::vector<std::uint32_t> order(kSlots);
    for (std::uint32_t i = 0; i < kSlots; ++i) order[i] = i;
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (std::uint32_t i = kSlots - 1; i > 0; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(order[i], order[x % (i + 1)]);
    }
    std::vector<std::uint32_t> cycle(kSlots);
    for (std::uint32_t i = 0; i < kSlots; ++i) {
      cycle[order[i]] = order[(i + 1) % kSlots];
    }
    return cycle;
  }();
  const auto t0 = Clock::now();
  std::uint64_t x = 88172645463325252ULL;
  std::uint64_t acc = 0;
  for (int i = 0; i < 4000000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += x % 1000003;
  }
  std::uint32_t p = static_cast<std::uint32_t>(acc % next.size());
  for (int i = 0; i < 300000; ++i) p = next[p];
  volatile std::uint64_t sink = acc + p;
  (void)sink;
  samples_.push_back(seconds_since(t0));
}

double Calibration::median_s() const { return median(samples_); }

double Calibration::time_factor() const {
  return samples_.empty() ? 1.0 : kReferenceSeconds / median_s();
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  entries_.push_back({name, value, unit});
}

bool Report::check(bool ok, const std::string& what) {
  if (!ok) {
    correct_ = false;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  return ok;
}

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

void Report::print() const {
  std::printf("ops: attempted %llu, failed %llu, correct %s\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_),
              correct_ ? "yes" : "no");
  for (const Entry& e : entries_) {
    std::printf("metric %-34s %18.6f %s\n", e.name.c_str(), e.value,
                e.unit.c_str());
  }
  std::string line = "{\"correct\": ";
  line += correct_ ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted_);
  line += ", \"failed\": " + std::to_string(failed_);
  line += ", \"metrics\": {";
  bool first = true;
  for (const Entry& e : entries_) {
    if (!first) line += ", ";
    first = false;
    line += json_string(e.name) + ": {\"value\": " + json_number(e.value) +
            ", \"unit\": " + json_string(e.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

int Tracer::open(const char* layer, const char* name) {
  const auto now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - origin_)
                       .count();
  const int id = static_cast<int>(records_.size());
  records_.push_back(
      {layer, name, now, now, stack_.empty() ? -1 : stack_.back()});
  stack_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  records_[static_cast<std::size_t>(id)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

void Tracer::add(const char* layer, const char* name, Clock::time_point start,
                 Clock::time_point end) {
  const auto ns = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  };
  records_.push_back({layer, name, ns(start), ns(end), -1});
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Record& r : records_) {
    if (r.name == name) out.push_back(static_cast<double>(r.end_ns - r.start_ns) * 1e-9);
  }
  return out;
}

std::map<std::string, double> Tracer::self_seconds() const {
  // Children are strictly nested in their parent (one tracing thread),
  // so covered time is the sum of the direct children's durations.
  std::vector<std::int64_t> child_ns(records_.size(), 0);
  for (const Record& r : records_) {
    if (r.parent >= 0) {
      child_ns[static_cast<std::size_t>(r.parent)] += r.end_ns - r.start_ns;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    out[r.layer] += static_cast<double>(r.end_ns - r.start_ns - child_ns[i]) * 1e-9;
  }
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    char ts[64];
    std::snprintf(ts, sizeof(ts), "%.3f", static_cast<double>(r.start_ns) / 1e3);
    char dur[64];
    std::snprintf(dur, sizeof(dur), "%.3f",
                  static_cast<double>(r.end_ns - r.start_ns) / 1e3);
    f << "{\"name\": " << json_string(r.name) << ", \"cat\": "
      << json_string(r.layer) << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1"
      << ", \"ts\": " << ts << ", \"dur\": " << dur << ", \"args\": {"
      << "\"id\": " << i << ", \"parent\": " << r.parent << "}}"
      << (i + 1 < records_.size() ? ",\n" : "\n");
  }
  f << "], \"displayTimeUnit\": \"ms\"}\n";
  return static_cast<bool>(f);
}

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> metrics = {
      {"bgp.converge_s", "s"},
      {"bgp.cached_prefixes", "count"},
      {"snapshot.factory_s", "s"},
      {"snapshot.reader_ms", "ms"},
      {"snapshot.publish_s", "s"},
      {"snapshot.digest_ms", "ms"},
      {"scan.tnode_discovery_s", "s"},
      {"scan.vvp_discovery_s", "s"},
      {"scan.tnodes", "count"},
      {"scan.vvps", "count"},
      {"core.measure_s", "s"},
      {"core.experiments_per_s", "1/s"},
      {"core.inconclusive", "count"},
      {"core.publish_ms", "ms"},
      {"scenario.advance_ms", "ms"},
      {"incremental.executed_pairs", "count"},
      {"incremental.reused_pairs", "count"},
      {"incremental.total_pairs", "count"},
      {"incremental.reused_share", "ratio"},
      {"incremental.dirty_rows", "count"},
      {"incremental.dirty_prefixes", "count"},
      {"incremental.discovery_reused_rounds", "count"},
      {"persist.checkpoint_ms", "ms"},
      {"persist.checkpoint_kb", "KB"},
      {"serve.handler_ns", "ns"},
      {"serve.frames_per_batch", "count"},
      {"serve.query_p99_us", "us"},
      {"serve.publish_ms", "ms"},
      {"serve.seed_s", "s"},
      {"analytics.decode_s", "s"},
      {"analytics.latest_cdf_s", "s"},
      {"analytics.fraction_trend_s", "s"},
      {"analytics.series_s", "s"},
      {"analytics.jumps_s", "s"},
      {"analytics.churn_s", "s"},
      {"analytics.publish_s", "s"},
      {"analytics.append_ms", "ms"},
      {"analytics.frame_kb", "KB"},
  };
  return metrics;
}

namespace {

const std::vector<const char*>& traced_layers() {
  static const std::vector<const char*> layers = {
      "bgp",   "snapshot",  "scan",  "core",      "scenario", "incremental",
      "persist", "serve", "analytics", "bench"};
  return layers;
}

}  // namespace

double span_median(const std::string& name, double scale) {
  const auto d = Tracer::instance().durations(name);
  return d.empty() ? 0.0 : median(d) * scale;
}

void report_layers(Report& report, const LayerValues& values,
                   double overhead_ratio, const Calibration& calibration) {
  for (const LayerMetric& m : layer_metrics()) {
    const auto it = values.find(m.name);
    report.metric(m.name, it == values.end() ? 0.0 : it->second, m.unit);
  }
  const auto self = Tracer::instance().self_seconds();
  for (const char* layer : traced_layers()) {
    const auto it = self.find(layer);
    report.metric(std::string("self.") + layer + "_s",
                  it == self.end() ? 0.0 : it->second, "s");
  }
  report.metric("trace.overhead_ratio", overhead_ratio, "ratio");
  report.metric("bench.calibration_ms", calibration.median_s() * 1e3, "ms");
}

void report_end_to_end(Report& report, const Calibration& calibration,
                       double setup_s, double op_ms, double ops_per_s) {
  const double f = calibration.time_factor();
  std::printf(
      "unscaled: setup_s %.6f s, op_p50_ms %.6f ms, ops_per_s %.6f 1/s; "
      "calibration median %.6f s, time factor %.6f\n",
      setup_s, op_ms, ops_per_s, calibration.median_s(), f);
  report.metric("setup_s", setup_s * f, "s");
  report.metric("op_p50_ms", op_ms * f, "ms");
  report.metric("ops_per_s", ops_per_s / f, "1/s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

}  // namespace perfbench
