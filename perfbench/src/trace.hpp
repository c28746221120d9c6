#pragma once

/// \file trace.hpp
/// In-memory span recorder of the benchmark's traced mode. Spans are taken
/// only in the benchmark's own code, around its calls into the library's
/// public functions; the library itself carries no instrumentation. A span
/// is (name, start, end, parent, run id); its layer is the name up to the
/// first '.', so "sem.space_build" and "sem.kernel" both count towards
/// "sem". Spans are kept in memory and written once, as Chrome trace-event
/// JSON, when the benchmark ends.

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on one steady clock shared by every timestamp of a process.
double now_s();

class Tracer {
public:
  struct Span {
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1; ///< index of the parent span, -1 for a root span
    int run = 0;     ///< one id per workload run (main run, companion runs)
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Selects the run id the following spans carry.
  void set_run(int run) noexcept { run_ = run; }

  /// Opens a span under the innermost open one; returns its id (-1 when
  /// tracing is off).
  int open(std::string name);
  void close(int id);

  /// Records an already-timed span (per-cycle spans built from on_step
  /// timestamps) under the innermost open span.
  void add(std::string name, double start, double end);

  /// Span duration minus the time its children cover, summed per layer.
  [[nodiscard]] std::map<std::string, double> self_seconds_by_layer() const;

  /// Chrome trace-event JSON ("X" complete events, microseconds; the run id
  /// is the thread id so chrome://tracing and Perfetto draw one row per run).
  void write_chrome_json(const std::string& path) const;

private:
  bool enabled_;
  int run_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: opens on construction, closes on destruction.
class Scope {
public:
  Scope(Tracer& tracer, std::string name) : tracer_(tracer), id_(tracer.open(std::move(name))) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

private:
  Tracer& tracer_;
  int id_;
};

} // namespace perfbench
