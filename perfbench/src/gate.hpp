#pragma once

/// \file gate.hpp
/// The benchmark's correctness gate: a check that a diverging run fails.
///
/// Energy balance of the semi-discrete wave equation M u'' + K u = f(t):
///   E(t) = 1/2 v^T M v + 1/2 u^T K u,   dE/dt = f(t) . v(x_s, t),
/// so a stable run satisfies E(t) <= E(0) + W(t) with the injected source
/// work W(t) = int_0^t |f(s) . v(x_s, s)| ds. The gate accumulates W once
/// per coarse cycle (midpoint rule on the staggered velocity at the source
/// node, which the v^{n-1/2} companion of every backend provides) and fails
/// a check when
///   - u or v holds a NaN/Inf, or
///   - E > factor * (E(0) + W).
/// The factor absorbs the coarse-cycle quadrature of W and the O(dt)
/// difference between this energy and the scheme's conserved staggered
/// one; an unstable run grows by many orders of magnitude per cycle and
/// crosses it within a few cycles (see the self-test in main.cpp). Checks
/// are meant to run outside timed intervals: a check costs one full
/// stiffness apply.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/simulation.hpp"
#include "scenarios/scenario.hpp"

namespace perfbench {

class EnergyGate {
public:
  static constexpr double kFactor = 2.0;

  /// Records E(0) of `sim` and locates the spec's point sources.
  EnergyGate(const ltswave::scenarios::ScenarioSpec& spec, const ltswave::core::WaveSimulation& sim);

  /// Adds one coarse cycle's source work; call after every cycle.
  void observe_cycle(const ltswave::core::WaveSimulation& sim);

  /// One checked operation: finiteness and the energy bound. Returns false
  /// (and fills `why`) when the check fails.
  bool check(const ltswave::core::WaveSimulation& sim, std::string& why);

  [[nodiscard]] double max_ratio() const noexcept { return max_ratio_; }

private:
  struct Source {
    std::size_t dof0 = 0; ///< node * ncomp
    std::array<double, 3> direction{};
    double amplitude = 0;
    ltswave::sem::RickerWavelet wavelet{1.0};
  };
  std::vector<Source> sources_;
  int ncomp_ = 1;
  double e0_ = 0;
  double work_ = 0;
  double max_ratio_ = 0;
};

} // namespace perfbench
