#pragma once

/// \file workloads.hpp
/// The benchmark's named workloads. Each simulates a fixed *physical*
/// duration, so a change of the step-size rule shows up as a different
/// cycle count. The seed moves the point source inside a small box and
/// picks the phase of the in-run checkpoints; it changes no work count.

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "scenarios/scenario.hpp"

namespace perfbench {

/// The run protocol, the same for every workload.
inline constexpr int kWarmupCycles = 5;   ///< leading cycles of a solve left out of the samples
inline constexpr int kGateEvery = 20;     ///< cycles between correctness checks
inline constexpr int kSetups = 3;         ///< make_simulation calls at least; setup_s is their median
inline constexpr int kPostRoundTrips = 2; ///< round trips after each solve without in-run ones

struct Workload {
  std::string name;
  ltswave::scenarios::ScenarioSpec spec; ///< seed already applied
  double duration_s = 0;   ///< simulated seconds of one solve
  /// Wall seconds of one solve on the reference VM: an untraced run makes
  /// max(1, floor(--seconds / solve_s)) solves, so the solve count depends
  /// on the run length only, never on how fast this machine happens to be.
  double solve_s = 0;
  /// In-run checkpoint round trips: at cycles ckpt_phase + j * ckpt_every,
  /// j < ckpt_count. 0 = none (kPostRoundTrips then run after each
  /// solve).
  int ckpt_every = 0;
  int ckpt_phase = 0;
  int ckpt_count = 0;

  [[nodiscard]] int ranks() const { return std::max(1, static_cast<int>(spec.num_ranks)); }
};

/// Throws std::invalid_argument naming the known workloads.
[[nodiscard]] Workload make_workload(std::string_view name, std::uint64_t seed);

[[nodiscard]] std::vector<std::string> workload_names();

/// The same problem on another executor (companion runs of the traced
/// mode): `executor` replaces the workload's, ranks drop to 1 for the
/// serial backends.
[[nodiscard]] ltswave::scenarios::ScenarioSpec with_executor(const Workload& w,
                                                             const std::string& executor);

} // namespace perfbench
