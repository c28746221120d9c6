#include "machine.hpp"

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "common/simd.hpp"
#include "trace.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

TriadResult stream_triad(std::int64_t array_bytes, int passes) {
  const auto n = static_cast<std::size_t>(array_bytes) / sizeof(double);
  // new[] without value-initialization: the first pass below touches the
  // pages, so only the later passes are timed.
  std::unique_ptr<double[]> a(new double[n]), b(new double[n]), c(new double[n]);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = 1.0 + static_cast<double>(i & 7);
    c[i] = 2.0;
    a[i] = 0.0;
  }
  const double s = 3.0;
  double best = 1e300;
  for (int p = 0; p < passes; ++p) {
    const double t0 = now_s();
    for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + s * c[i];
    best = std::min(best, now_s() - t0);
  }
  // Keeps the stores observable.
  volatile double sink = a[n / 2];
  (void)sink;
  return {3.0 * static_cast<double>(n) * sizeof(double) / best / 1e9,
          static_cast<std::int64_t>(n * sizeof(double)), false};
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) * 1024.0 / 1e6; // kB
  return 0;
}

double cpu_steal_s() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double field[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return 0;
  for (double& f : field) in >> f; // user nice system idle iowait irq softirq steal
  return field[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::string machine_json(std::int64_t llc_bytes, const TriadResult& triad) {
  std::ostringstream os;
  os.precision(6);
  os << "{\"simd_isa\":\"" << ltswave::simd::isa_name() << "\",\"simd_width\":"
     << ltswave::simd::kWidth << ",\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"llc_bytes\":" << llc_bytes << ",\"compiler\":\"" << PERFBENCH_COMPILER
     << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE
     << "\",\"triad_gbytes_per_s\":" << triad.gbytes_per_s
     << ",\"triad_array_bytes\":" << triad.array_bytes << ",\"triad_threads\":1"
     << ",\"triad_cached\":" << (triad.cached ? "true" : "false") << "}";
  return os.str();
}

} // namespace perfbench
