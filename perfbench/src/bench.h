// Shared machinery of the end-to-end benchmark: run options, timing,
// sample statistics, the metric report, and the span tracer.
//
// Every layer is timed from outside, around calls into its public API.
// The tracer keeps spans in memory and writes them once, at the end of
// a traced run, as Chrome trace-event JSON; an untraced run records no
// spans at all (Span's constructor and destructor test one flag).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  // scratch space inside the checkout
};

/// Median and quartiles with the same interpolation as Python's
/// statistics.quantiles(method="exclusive") for n >= 2.
double median(std::vector<double> values);
double quantile(std::vector<double> values, double q);

/// Process high-water mark of resident memory, in MB.
double peak_rss_mb();

/// The CPUs this process may run on.
int allowed_cpus();

/// Restrict the whole process to `count` CPUs of its own allowed set
/// (sched_setaffinity on itself; nothing outside the process changes).
/// Returns how many CPUs it is now allowed.
int pin_process(int count);

/// Host-speed calibration. The CPU this benchmark shares with other
/// tenants changes speed by tens of percent over minutes (README,
/// "Reference figures"), which would drown a program change in noise.
/// A workload samples a fixed piece of work — integer arithmetic plus
/// dependent loads through an 8 MB permutation — between its
/// operations, and the end-to-end times of the run are reported scaled
/// to the speed at which that work takes kReferenceSeconds. The work
/// lives in the benchmark, so no program change can move it.
class Calibration {
 public:
  static constexpr double kReferenceSeconds = 0.045;

  /// Time the fixed work once.
  void sample();
  double median_s() const;
  /// Multiply a time by this (divide a rate by it) to express it at the
  /// reference speed.
  double time_factor() const;

 private:
  std::vector<double> samples_;
};

/// Metrics of one run, in insertion order, plus the op counters and
/// the correctness verdict that the final JSON line carries.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(std::uint64_t n = 1) { failed_ += n; }
  /// A correctness check: on failure the run is marked incorrect and
  /// the reason printed to stderr.
  bool check(bool ok, const std::string& what);

  bool correct() const noexcept { return correct_; }
  std::uint64_t attempted() const noexcept { return attempted_; }

  /// Print every metric by name and unit, then the one-line JSON result
  /// (the last line of standard output).
  void print() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
};

/// In-memory span recorder. Layer names are the program's module names
/// (bgp, scan, snapshot, ...); "bench" marks the benchmark's own work.
class Tracer {
 public:
  static Tracer& instance();

  void enable() { enabled_ = true; }
  void disable() { enabled_ = false; }
  bool enabled() const noexcept { return enabled_; }

  struct Record {
    std::string layer;
    std::string name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;  // index into records, -1 for a root span
  };

  int open(const char* layer, const char* name);
  void close(int id);
  /// A root span the caller timed itself (e.g. on another thread).
  void add(const char* layer, const char* name, Clock::time_point start,
           Clock::time_point end);

  const std::vector<Record>& records() const noexcept { return records_; }

  /// Durations (seconds) of every span named `name`.
  std::vector<double> durations(const std::string& name) const;

  /// Self time per layer: each span's duration minus the part of its
  /// interval covered by its child spans, summed by layer (seconds).
  std::map<std::string, double> self_seconds() const;

  /// Write all spans as Chrome trace-event JSON ("X" complete events).
  bool write_chrome_json(const std::string& path) const;

 private:
  bool enabled_ = false;
  Clock::time_point origin_ = Clock::now();
  std::vector<Record> records_;
  std::vector<int> stack_;  // open spans on the (single) tracing thread
};

/// RAII span on the benchmark's main thread. A no-op unless tracing.
class Span {
 public:
  Span(const char* layer, const char* name)
      : id_(Tracer::instance().enabled() ? Tracer::instance().open(layer, name)
                                         : -1) {}
  ~Span() {
    if (id_ >= 0) Tracer::instance().close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int id_;
};

/// Every per-layer metric the traced run prints (BENCHMARK.json's
/// per_layer list). A workload that does not reach a layer reports 0
/// for that layer's metrics.
struct LayerMetric {
  const char* name;
  const char* unit;
};
const std::vector<LayerMetric>& layer_metrics();

/// Per-layer results of a traced run, keyed by metric name.
using LayerValues = std::map<std::string, double>;

/// Median duration of the spans named `name`, times `scale`, or 0 when
/// there are none.
double span_median(const std::string& name, double scale = 1.0);

/// Emit every per-layer metric (missing ones as 0) plus the per-layer
/// self times, the tracing overhead and the run's median calibration
/// time into `report`. Per-layer times are as measured, unscaled.
void report_layers(Report& report, const LayerValues& values,
                   double overhead_ratio, const Calibration& calibration);

/// Emit the end-to-end metrics: set-up, median operation time and
/// operations per second scaled by the calibration, and peak RSS. The
/// unscaled figures are printed alongside.
void report_end_to_end(Report& report, const Calibration& calibration,
                       double setup_s, double op_ms, double ops_per_s);

// The four workloads. Each fills `report` with the end-to-end metrics
// (untraced) or the per-layer metrics (traced).
void run_cold_measure(const Options& options, Report& report);
void run_monthly_series(const Options& options, Report& report);
void run_serve_queries(const Options& options, Report& report);
void run_archive_analytics(const Options& options, Report& report);

}  // namespace perfbench
