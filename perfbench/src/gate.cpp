#include "gate.hpp"

#include <cmath>
#include <sstream>

#include "core/energy.hpp"
#include "core/executor.hpp"

namespace perfbench {

using namespace ltswave;

namespace {

/// E = 1/2 v^T M v + 1/2 u^T K u of the simulation's current state.
double total_energy(const core::WaveSimulation& sim) {
  const auto v = sim.executor().v_half();
  const auto& u = sim.u();
  return static_cast<double>(core::kinetic_energy(sim.space(), v, sim.ncomp())) +
         static_cast<double>(core::cross_potential_energy(sim.op(), u, u));
}

} // namespace

EnergyGate::EnergyGate(const scenarios::ScenarioSpec& spec, const core::WaveSimulation& sim)
    : ncomp_(sim.ncomp()), e0_(total_energy(sim)) {
  for (const auto& s : spec.sources) {
    const auto ps = sem::PointSource::at(sim.space(), s.location, s.peak_frequency, s.direction,
                                         s.amplitude);
    sources_.push_back({static_cast<std::size_t>(ps.node) * static_cast<std::size_t>(ncomp_),
                        {ps.direction[0], ps.direction[1], ps.direction[2]},
                        ps.amplitude,
                        ps.wavelet});
  }
}

void EnergyGate::observe_cycle(const core::WaveSimulation& sim) {
  if (sources_.empty()) return;
  const auto v = sim.executor().v_half();
  const double dt = sim.dt();
  const double t_mid = sim.time() - 0.5 * dt; // where the staggered v lives
  for (const auto& s : sources_) {
    double power = 0;
    for (int c = 0; c < ncomp_; ++c)
      power += s.direction[static_cast<std::size_t>(c)] * v[s.dof0 + static_cast<std::size_t>(c)];
    work_ += std::abs(s.amplitude * s.wavelet(t_mid) * power) * dt;
  }
}

bool EnergyGate::check(const core::WaveSimulation& sim, std::string& why) {
  for (const double x : sim.u())
    if (!std::isfinite(x)) {
      why = "non-finite displacement at cycle " + std::to_string(sim.cycles());
      return false;
    }
  for (const double x : sim.executor().v_half())
    if (!std::isfinite(x)) {
      why = "non-finite velocity at cycle " + std::to_string(sim.cycles());
      return false;
    }
  const double e = total_energy(sim);
  const double ref = e0_ + work_;
  const double ratio = ref > 0 ? e / ref : (e > 0 ? INFINITY : 0.0);
  if (ratio > max_ratio_) max_ratio_ = ratio;
  if (!(std::isfinite(e) && ratio <= kFactor)) {
    std::ostringstream os;
    os << "energy " << e << " exceeds " << kFactor << " x (E0 " << e0_ << " + source work "
       << work_ << ") at cycle " << sim.cycles();
    why = os.str();
    return false;
  }
  return true;
}

} // namespace perfbench
