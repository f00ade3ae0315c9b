// perfbench — the end-to-end benchmark of the RoVista program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--trace-out FILE] [--revision REV]
//
// Runs one workload for S seconds of measurement, checks every output
// against answers computed apart from the program, and prints each
// metric by name and unit, a host block, and as the last line one JSON
// object {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones; with --trace 1 a separate traced
// run reports the per-layer metrics, each layer's self time and the
// tracing overhead, and writes the spans as Chrome trace-event JSON.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include <unistd.h>

#include "bench.h"
#include "util/logging.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload cold-measure|monthly-series|"
               "serve-queries|archive-analytics --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--trace-out FILE] "
               "[--revision REV]\n");
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return end != s && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  std::string trace_out;
  std::string revision = "unknown";
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    std::uint64_t n = 0;
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed" && parse_u64(value, n)) {
      options.seed = n;
      have_seed = true;
    } else if (key == "--seconds" && parse_u64(value, n) && n >= 1) {
      options.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (key == "--trace" && parse_u64(value, n) && n <= 1) {
      options.trace = n == 1;
      have_trace = true;
    } else if (key == "--work-dir") {
      options.work_dir = value;
    } else if (key == "--trace-out") {
      trace_out = value;
    } else if (key == "--revision") {
      revision = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !have_seed || !have_seconds || !have_trace) {
    return usage();
  }
  void (*workload)(const Options&, Report&) = nullptr;
  if (options.workload == "cold-measure") workload = run_cold_measure;
  if (options.workload == "monthly-series") workload = run_monthly_series;
  if (options.workload == "serve-queries") workload = run_serve_queries;
  if (options.workload == "archive-analytics") workload = run_archive_analytics;
  if (workload == nullptr) return usage();

  if (options.work_dir.empty()) {
    options.work_dir = "perfbench-work-" + std::to_string(::getpid());
  }
  std::filesystem::remove_all(options.work_dir);
  std::filesystem::create_directories(options.work_dir);
  rovista::util::set_log_level(rovista::util::LogLevel::kWarn);
  // Every workload runs on two CPUs of the process's own affinity set,
  // set before any thread starts so all threads inherit it: on a shared
  // host, unpinned runs of the same input drift far more from run to
  // run than pinned ones (README, "Reference figures").
  const int cpus = pin_process(2);

  std::printf(
      "host: {\"nproc\": %u, \"pinned_cpus\": %d, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"revision\": \"%s\"}\n",
      std::thread::hardware_concurrency(), cpus, __VERSION__,
      PERFBENCH_BUILD_TYPE, revision.c_str());
  std::printf("workload %s, seed %llu, %g s, trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::fflush(stdout);

  Report report;
  try {
    workload(options, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::filesystem::remove_all(options.work_dir);
    return 1;
  }
  std::filesystem::remove_all(options.work_dir);
  if (options.trace && !trace_out.empty()) {
    if (Tracer::instance().write_chrome_json(trace_out)) {
      std::printf("trace: %zu spans written to %s\n",
                  Tracer::instance().records().size(), trace_out.c_str());
    } else {
      std::fprintf(stderr, "error: could not write %s\n", trace_out.c_str());
      return 1;
    }
  }
  if (report.attempted() == 0) {
    std::fprintf(stderr, "error: no operation attempted\n");
    return 1;
  }
  report.print();
  return 0;
}
