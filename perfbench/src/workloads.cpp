#include "workloads.hpp"

#include <stdexcept>

#include "common/rng.hpp"

namespace perfbench {

using ltswave::scenarios::ScenarioSpec;

namespace {

/// Uniform in [-1, 1) from the top 53 bits.
double unit_symmetric(ltswave::Rng& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-52 - 1.0;
}

/// Moves every source by up to `half` along each axis.
void jitter_sources(ScenarioSpec& spec, ltswave::Rng& rng, double half) {
  for (auto& s : spec.sources)
    for (auto& x : s.location) x += half * unit_symmetric(rng);
}

ScenarioSpec trench_spec() {
  // 44,800 elastic order-3 elements, census 41,280/1,600/1,200/720.
  return ltswave::scenarios::get("trench-paper").with_mesh_resolution(40, 28);
}

} // namespace

std::vector<std::string> workload_names() { return {"trench-p4", "trench-p1", "crust-ckpt-p4"}; }

Workload make_workload(std::string_view name, std::uint64_t seed) {
  ltswave::Rng rng(seed);
  Workload w;
  w.name = std::string(name);
  if (name == "trench-p4" || name == "trench-p1") {
    w.spec = trench_spec();
    if (name == "trench-p4")
      w.spec.with_executor("threaded/level-aware").with_ranks(4);
    else
      w.spec.with_executor("serial-lts");
    // 112 coarse cycles of the census step dt = 1/700 s: 107 samples after
    // the 5 warm-up cycles, so a few may be set aside for host steal and
    // 100 remain.
    w.duration_s = 0.1593;
    w.solve_s = name == "trench-p4" ? 7.5 : 19.5;
  } else if (name == "crust-ckpt-p4") {
    // ~70k acoustic order-2 elements, census 64,896/5,408.
    w.spec = ltswave::scenarios::get("crust")
                 .with_mesh_resolution(52, 26)
                 .with_executor("threaded/level-aware+steal")
                 .with_ranks(4);
    // 200 coarse cycles of dt = 0.0028846 s (195 samples after warm-up),
    // with a checkpoint round trip every 6 cycles: 33 per solve, so the 3
    // solves of a 24 s run give 99 checkpoint samples.
    w.duration_s = 0.5769;
    w.solve_s = 7.0;
    w.ckpt_every = 6;
    w.ckpt_count = 33;
    w.ckpt_phase = 1 + static_cast<int>(rng.uniform(static_cast<std::uint64_t>(w.ckpt_every)));
  } else {
    std::string known;
    for (const auto& n : workload_names()) known += " " + n;
    throw std::invalid_argument("unknown workload '" + std::string(name) + "'; known:" + known);
  }
  jitter_sources(w.spec, rng, 0.02);
  return w;
}

ScenarioSpec with_executor(const Workload& w, const std::string& executor) {
  ScenarioSpec s = w.spec;
  s.with_executor(executor);
  if (executor.rfind("threaded/", 0) != 0) s.with_ranks(0);
  return s;
}

} // namespace perfbench
