#pragma once

/// \file machine.hpp
/// The machine record every result carries, the STREAM-triad bandwidth probe
/// and the process's peak resident set.

#include <cstdint>
#include <string>

namespace perfbench {

struct TriadResult {
  double gbytes_per_s = 0;     ///< best of the timed passes, 3 arrays x 8 B per element
  std::int64_t array_bytes = 0; ///< bytes of each of the three arrays
  bool cached = false;          ///< reused from an earlier run in this checkout
};

/// Single-threaded STREAM triad a = b + s * c over three arrays of
/// `array_bytes` each (the caller sizes them at >= 4x the last-level cache).
[[nodiscard]] TriadResult stream_triad(std::int64_t array_bytes, int passes);

/// VmHWM of this process in MB (1e6 bytes); 0 when /proc is unreadable.
[[nodiscard]] double peak_rss_mb();

/// Host-wide CPU time stolen by the hypervisor so far, in seconds (the
/// `steal` column of /proc/stat); 0 when unreadable. A run whose steal grows
/// shared its cores with other guests.
[[nodiscard]] double cpu_steal_s();

/// One-line JSON object: SIMD ISA and width, nproc, LLC bytes, compiler,
/// build type, triad bandwidth with its array size.
[[nodiscard]] std::string machine_json(std::int64_t llc_bytes, const TriadResult& triad);

} // namespace perfbench
