/// \file main.cpp
/// The repository benchmark (see perfbench/BENCHMARK.md).
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             [--llc-bytes <B>] [--triad-gbs <G> --triad-array-bytes <A>
///              --triad-cached <0|1>] [--trace-out <path>]
///   perfbench --triad --array-bytes <A>
///   perfbench --selftest
///
/// A run sets the workload up several times (setup_s is the median) and
/// after each of the first few set-ups solves its fixed physical duration
/// with one WaveSimulation::run() call, timing every coarse cycle from
/// on_step timestamps. Correctness checks (energy gate, bitwise checkpoint
/// round trips, bitwise repeat of every solve) run inside on_step but
/// outside the timed intervals. The last stdout line is the result object.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iostream>
#include <iterator>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/executor.hpp"
#include "core/lts_levels.hpp"
#include "gate.hpp"
#include "machine.hpp"
#include "partition/partition.hpp"
#include "partition/partitioners.hpp"
#include "perf/roofline.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/error.hpp"
#include "resilience/health_guard.hpp"
#include "sem/batch_plan.hpp"
#include "sem/wave_operator.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace ltswave;

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

/// Linear-interpolation quantile (numpy's default), q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto i = static_cast<std::size_t>(pos);
  if (i + 1 >= v.size()) return v.back();
  return v[i] + (pos - static_cast<double>(i)) * (v[i + 1] - v[i]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// One timed interval, and the CPU time the hypervisor stole from this VM
/// (summed over its CPUs) while it ran: the growth of the steal counter of
/// /proc/stat, in steps of 1/USER_HZ.
struct Sample {
  double s = 0;
  double steal_s = 0;
};

/// Steal since `mark`, rounded to the microsecond so that equal counter
/// steps compare equal.
double steal_since(double mark) { return std::round((cpu_steal_s() - mark) * 1e6) * 1e-6; }

/// Steal is other guests' load, not a property of the code under test: on
/// the reference VM a run could lose 0.5 s or 55 s of CPU time to it, and
/// a cycle of trench-p4 grows by about 0.75 ms per ms of recorded steal
/// (4 ranks wait for the slowest at every barrier). Timings are therefore
/// taken at zero steal: each sample is reduced by slope x its steal, where
/// the slope of sample time over steal is measured on the same samples.
/// The counter moves in whole ticks, so the samples fall into a few steal
/// levels; the slope is the median, over samples, of (median time at the
/// sample's level - median time at the lowest level) / (level - lowest
/// level), clamped to [0, 1]: no more than the stolen time itself. 0 when
/// every sample saw the same steal. The tick also blurs each sample's own
/// steal (an 11 ms crust cycle reads 0 or 10 ms), so quantiles are taken
/// over the samples with at most the median steal, whose correction is
/// smallest: the steal-free ones whenever at least half are steal-free.
double steal_slope(const std::vector<Sample>& v) {
  std::map<double, std::vector<double>> by_level;
  for (const auto& x : v) by_level[x.steal_s].push_back(x.s);
  if (by_level.size() < 2) return 0;
  const double x0 = by_level.begin()->first;
  const double t0 = median(by_level.begin()->second);
  std::vector<double> slopes;
  for (auto it = std::next(by_level.begin()); it != by_level.end(); ++it)
    slopes.insert(slopes.end(), it->second.size(), (median(it->second) - t0) / (it->first - x0));
  return std::clamp(median(slopes), 0.0, 1.0);
}

/// The times at zero steal, for a given slope, of the samples with at most
/// the median steal.
std::vector<double> at_zero_steal(const std::vector<Sample>& v, double slope) {
  std::vector<double> steal;
  for (const auto& x : v) steal.push_back(x.steal_s);
  const double cut = median(steal);
  std::vector<double> out;
  for (const auto& x : v)
    if (x.steal_s <= cut) out.push_back(x.s - slope * x.steal_s);
  return out;
}

double total_steal(const std::vector<Sample>& v) {
  double sum = 0;
  for (const auto& x : v) sum += x.steal_s;
  return sum;
}

/// Checked operations: every gate check, checkpoint verification and
/// repeat-solve comparison counts once.
struct Checks {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;

  bool record(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 8) failures.push_back(what);
    }
    return ok;
  }
};

/// Thrown from on_step to stop a solve whose gate check failed.
struct GateTrip {
  std::string why;
};

template <class T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() && (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

bool same_bits(const core::ExecutorState& a, const core::ExecutorState& b) {
  if (!same_bits(a.u, b.u) || !same_bits(a.v_half, b.v_half) ||
      !same_bits(a.integrator_aux, b.integrator_aux) || !same_bits(a.cumulative, b.cumulative) ||
      a.frozen_forces.size() != b.frozen_forces.size())
    return false;
  for (std::size_t k = 0; k < a.frozen_forces.size(); ++k)
    if (!same_bits(a.frozen_forces[k], b.frozen_forces[k])) return false;
  return std::memcmp(&a.time, &b.time, sizeof a.time) == 0 && a.cycles == b.cycles;
}

std::uint64_t state_hash(const core::WaveSimulation& sim) {
  const auto& u = sim.u();
  const auto v = sim.executor().v_half();
  return resilience::fnv1a64(reinterpret_cast<const std::uint8_t*>(u.data()),
                             u.size() * sizeof(real_t)) ^
         (resilience::fnv1a64(reinterpret_cast<const std::uint8_t*>(v.data()),
                              v.size() * sizeof(real_t)) *
          0x9e3779b97f4a7c15ULL);
}

// ---------------------------------------------------------------------------
// Checkpoint round trip: checkpoint() -> serialize -> deserialize -> restore
// ---------------------------------------------------------------------------

struct RoundTrip {
  double export_s = 0, serialize_s = 0, deserialize_s = 0, restore_s = 0;
  std::size_t bytes = 0;
  [[nodiscard]] double total_s() const { return export_s + serialize_s + deserialize_s + restore_s; }
};

/// One timed round trip followed by its (untimed) verification: the
/// deserialized image and the restored state must equal the exported one
/// bit for bit. Adds the verification time to `check_s`.
RoundTrip round_trip(core::WaveSimulation& sim, Tracer& tr, Checks& checks, double& check_s) {
  RoundTrip r;
  const int root = tr.open("resilience.round_trip");
  double t = now_s();
  resilience::Checkpoint ck;
  {
    Scope s(tr, "resilience.export");
    ck = sim.checkpoint();
  }
  r.export_s = now_s() - t;
  t = now_s();
  std::vector<std::uint8_t> bytes;
  {
    Scope s(tr, "resilience.serialize");
    bytes = resilience::serialize(ck);
  }
  r.serialize_s = now_s() - t;
  r.bytes = bytes.size();
  t = now_s();
  std::optional<resilience::Checkpoint> back;
  std::string corrupt;
  {
    Scope s(tr, "resilience.deserialize");
    try {
      back = resilience::deserialize(bytes.data(), bytes.size());
    } catch (const resilience::CorruptInput& e) {
      corrupt = e.what();
    }
  }
  r.deserialize_s = now_s() - t;
  t = now_s();
  if (back) {
    Scope s(tr, "resilience.restore");
    sim.restore(*back);
  }
  r.restore_s = now_s() - t;
  tr.close(root);

  const double v0 = now_s();
  {
    Scope s(tr, "bench.verify_restore");
    if (checks.record(back.has_value(), "checkpoint checksum: " + corrupt)) {
      checks.record(same_bits(back->state, ck.state) && back->traces == ck.traces,
                    "deserialized checkpoint differs from the exported one");
      const auto again = sim.checkpoint();
      checks.record(same_bits(again.state, ck.state),
                    "restored state is not bitwise equal to the checkpoint");
    }
  }
  check_s += now_s() - v0;
  return r;
}

// ---------------------------------------------------------------------------
// One solve: a single run() call over the workload's physical duration
// ---------------------------------------------------------------------------

struct Solve {
  std::vector<Sample> cycles; ///< per coarse cycle after warm-up
  std::vector<Sample> traced; ///< the same, for cycles that recorded their span
  /// run() wall time minus check time (steal is removed by the caller).
  double wall_s = 0;
  std::int64_t num_cycles = 0;
  std::int64_t applies = 0;
  std::vector<RoundTrip> ckpts;
  std::uint64_t final_hash = 0;
  bool aborted = false;
};

/// With tracing on, odd cycles record their span inside their own timed
/// interval and even cycles record none, so traced and untraced samples
/// interleave in one solve and host noise cancels from their difference.
Solve solve(core::WaveSimulation& sim, const Workload& w, EnergyGate& gate, Tracer& tr,
            Checks& checks) {
  Solve r;
  double check_s = 0;
  const std::int64_t applies0 = sim.element_applies();
  const int run_span = tr.open("core.run");
  const double t_start = now_s();
  double t_last = t_start;
  double steal_mark = cpu_steal_s();
  std::string why;
  try {
    sim.run(w.duration_s, [&](real_t) {
      double t_in = now_s();
      const std::int64_t c = ++r.num_cycles;
      const bool traced = tr.enabled() && c % 2 == 1;
      if (traced) {
        tr.add("core.cycle", t_last, t_in);
        t_in = now_s();
      }
      const Sample sample{t_in - t_last, steal_since(steal_mark)};
      if (c > kWarmupCycles) (traced ? r.traced : r.cycles).push_back(sample);
      {
        Scope s(tr, "bench.gate");
        gate.observe_cycle(sim);
        if (c % kGateEvery == 0 && !checks.record(gate.check(sim, why), why)) throw GateTrip{why};
      }
      check_s += now_s() - t_in;
      const std::int64_t k = c - w.ckpt_phase;
      if (w.ckpt_every > 0 && k >= 0 && k % w.ckpt_every == 0 && k / w.ckpt_every < w.ckpt_count)
        r.ckpts.push_back(round_trip(sim, tr, checks, check_s));
      steal_mark = cpu_steal_s();
      t_last = now_s();
    });
  } catch (const GateTrip&) {
    r.aborted = true;
  } catch (const resilience::NumericalBlowup& e) {
    checks.record(false, std::string("health guard: ") + e.what());
    r.aborted = true;
  }
  const double t_end = now_s();
  tr.close(run_span);
  r.wall_s = (t_end - t_start) - check_s;
  r.applies = sim.element_applies() - applies0;
  if (!r.aborted) {
    Scope s(tr, "bench.gate");
    if (r.num_cycles % kGateEvery != 0) checks.record(gate.check(sim, why), why);
    r.final_hash = state_hash(sim);
  }
  return r;
}

// ---------------------------------------------------------------------------
// Result printing
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(const Checks& checks, const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (checks.failed == 0 && checks.attempted > 0 ? "true" : "false")
     << ", \"attempted\": " << std::max<std::int64_t>(1, checks.attempted)
     << ", \"failed\": " << (checks.attempted > 0 ? checks.failed : 1) << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    os << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
       << json_number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  os << "}}";
  std::cout << os.str() << std::endl;
}

// ---------------------------------------------------------------------------
// Traced mode: the setup decomposed into the layers make_simulation calls
// ---------------------------------------------------------------------------

struct LayerSetup {
  double mesh_s = 0, space_s = 0, levels_s = 0, structure_s = 0, plan_s = 0, partition_s = 0;
  double kernel_sweep_s = 0; ///< median seconds of one sweep over every plan block
  std::int64_t kernel_elems = 0;
  perf::RooflineStat roofline;
};

double timed(Tracer& tr, const char* name, const std::function<void()>& f) {
  const double t = now_s();
  {
    Scope s(tr, name);
    f();
  }
  return now_s() - t;
}

/// Replays the steps of WaveSimulation's constructor through the public
/// module functions, one span each, then times the block kernel on the
/// serial level plan of the same problem.
LayerSetup setup_layers(const Workload& w, Tracer& tr) {
  LayerSetup L;
  Scope root(tr, "bench.setup_layers");
  std::optional<mesh::HexMesh> m;
  L.mesh_s = timed(tr, "mesh.build", [&] { m.emplace(w.spec.build_mesh()); });
  std::optional<sem::SemSpace> space;
  L.space_s = timed(tr, "sem.space_build", [&] { space.emplace(*m, w.spec.order); });
  core::LevelAssignment levels;
  L.levels_s = timed(tr, "core.levels",
                     [&] { levels = core::assign_levels(*m, w.spec.courant, w.spec.max_levels); });
  core::LtsStructure st;
  L.structure_s = timed(tr, "core.structure", [&] { st = core::build_lts_structure(*space, levels); });
  std::unique_ptr<sem::WaveOperator> op;
  if (w.spec.physics == core::Physics::Acoustic)
    op = std::make_unique<sem::AcousticOperator>(*space);
  else
    op = std::make_unique<sem::ElasticOperator>(*space);
  std::optional<sem::BatchPlan> plan;
  L.plan_s = timed(tr, "sem.plan_build", [&] {
    std::vector<sem::BatchPlan::Group> groups;
    for (level_t k = 1; k <= st.num_levels; ++k) {
      sem::BatchPlan::Group g;
      g.elems = sem::order_homogeneous_first(*space, st.eval_elems[static_cast<std::size_t>(k - 1)],
                                             k, st.node_level);
      g.level = k;
      g.node_level = st.node_level;
      groups.push_back(std::move(g));
    }
    plan.emplace(*space, op->ncomp(), std::move(groups));
  });
  if (w.ranks() > 1)
    L.partition_s = timed(tr, "partition.build", [&] {
      partition::PartitionerConfig pc;
      pc.strategy = w.spec.partitioner;
      pc.num_parts = w.ranks();
      (void)partition::partition_mesh(*m, levels.elem_level, levels.num_levels, pc);
    });

  // Kernel layer: sweeps over every block until one second has passed.
  const std::size_t ndof = static_cast<std::size_t>(space->num_global_nodes()) *
                           static_cast<std::size_t>(op->ncomp());
  std::vector<real_t> u(ndof), out(ndof, 0.0);
  for (std::size_t i = 0; i < ndof; ++i) u[i] = 1e-3 * std::sin(0.001 * static_cast<double>(i));
  auto ws = op->make_workspace();
  std::vector<double> sweeps;
  {
    Scope s(tr, "sem.kernel");
    const double t_begin = now_s();
    while (sweeps.size() < 3 || (now_s() - t_begin < 1.0 && sweeps.size() < 200)) {
      const double t = now_s();
      op->apply_add_blocks(*plan, 0, plan->num_blocks(), u.data(), out.data(), ws);
      sweeps.push_back(now_s() - t);
    }
  }
  L.kernel_sweep_s = median(sweeps);
  L.kernel_elems = plan->elements_in(0, plan->num_blocks());
  L.roofline = perf::roofline_for_plan(*plan);
  return L;
}

/// p50 of one coarse cycle of `spec` over `cycles` cycles (warm-up
/// dropped), built and run under its own run id. Used for the 1-rank and
/// global-Newmark companions of the traced mode.
double companion_cycle_p50(const scenarios::ScenarioSpec& spec, double coarse_dt, int cycles,
                           Tracer& tr, const char* name) {
  Scope root(tr, name);
  std::unique_ptr<core::WaveSimulation> sim;
  {
    Scope s(tr, "core.make_simulation");
    sim = spec.make_simulation();
  }
  // A single-rate backend runs several steps per coarse cycle.
  const double steps_per_cycle = std::round(coarse_dt / sim->dt());
  std::vector<Sample> steps;
  const int drop = static_cast<int>(2 * steps_per_cycle);
  Scope run(tr, "core.run");
  double t_last = now_s();
  double steal_mark = cpu_steal_s();
  sim->run(coarse_dt * cycles, [&](real_t) {
    const double t = now_s();
    steps.push_back({t - t_last, steal_since(steal_mark)});
    tr.add("core.cycle", t_last, t);
    steal_mark = cpu_steal_s();
    t_last = now_s();
  });
  if (static_cast<int>(steps.size()) > drop) steps.erase(steps.begin(), steps.begin() + drop);
  return median(at_zero_steal(steps, steal_slope(steps))) * steps_per_cycle;
}

struct PhaseDelta {
  double eval = 0, reduce = 0, update = 0, barrier = 0, total = 0;
  std::int64_t barrier_count = 0;
  std::vector<double> busy, stall;
  std::int64_t steals = 0;
};

PhaseDelta phase_delta(const perf::RunReport& a, const perf::RunReport& b) {
  PhaseDelta d;
  for (const auto& p : b.phases) {
    const auto* q = a.find_phase(p.name);
    const double s = p.seconds - (q ? q->seconds : 0.0);
    const std::int64_t n = p.count - (q ? q->count : 0);
    d.total += s;
    if (p.name.rfind("eval.", 0) == 0) d.eval += s;
    else if (p.name == "reduce") d.reduce += s;
    else if (p.name == "update") d.update += s;
    else if (p.name == "barrier") {
      d.barrier += s;
      d.barrier_count += n;
    }
  }
  for (std::size_t r = 0; r < b.rank_busy_seconds.size(); ++r) {
    d.busy.push_back(b.rank_busy_seconds[r] -
                     (r < a.rank_busy_seconds.size() ? a.rank_busy_seconds[r] : 0.0));
    d.stall.push_back(b.rank_stall_seconds[r] -
                      (r < a.rank_stall_seconds.size() ? a.rank_stall_seconds[r] : 0.0));
  }
  for (std::size_t r = 0; r < b.rank_steal_counts.size(); ++r)
    d.steals += b.rank_steal_counts[r] -
                (r < a.rank_steal_counts.size() ? a.rank_steal_counts[r] : 0);
  return d;
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 24;
  bool trace = false;
  std::int64_t llc_bytes = 0;
  TriadResult triad;
  std::string trace_out;
};

int run_workload(const Options& opt) {
  const Workload w = make_workload(opt.workload, opt.seed);
  const double steal0 = cpu_steal_s();
  Tracer tr(opt.trace);
  Checks checks;

  std::optional<LayerSetup> layers;
  if (opt.trace) layers = setup_layers(w, tr);

  // Set-ups and solves, interleaved so the solves sample the machine at
  // different moments of the run. Every solve runs on a freshly set-up
  // simulation; setup_s is the median over all set-ups. Traced mode sets up
  // and solves once.
  const int n_solves = opt.trace ? 1 : std::max(1, static_cast<int>(opt.seconds / w.solve_s));
  const int n_setups = opt.trace ? 1 : std::max(kSetups, n_solves);
  std::vector<double> setup_times;
  std::vector<Solve> solves;
  std::vector<RoundTrip> ckpts;
  perf::RunReport rep_before, rep_after;
  std::unique_ptr<core::WaveSimulation> sim;
  std::optional<EnergyGate> gate;
  bool aborted = false;
  for (int i = 0; i < n_setups && !aborted; ++i) {
    sim.reset();
    const double t = now_s();
    {
      Scope s(tr, "core.make_simulation");
      sim = w.spec.make_simulation();
    }
    setup_times.push_back(now_s() - t);
    if (i >= n_solves) continue;

    gate.emplace(w.spec, *sim);
    if (opt.trace) rep_before = sim->run_report();
    solves.push_back(solve(*sim, w, *gate, tr, checks));
    if (opt.trace) rep_after = sim->run_report();
    const Solve& sv = solves.back();
    ckpts.insert(ckpts.end(), sv.ckpts.begin(), sv.ckpts.end());
    aborted = sv.aborted;
    if (!aborted && i > 0)
      checks.record(sv.final_hash == solves.front().final_hash,
                    "repeated solve did not reproduce the first one bit for bit");
    // Workloads without in-run checkpoints round-trip the state each solve
    // reached.
    if (!aborted) {
      double verify_s = 0;
      for (int k = 0; w.ckpt_count == 0 && k < kPostRoundTrips; ++k)
        ckpts.push_back(round_trip(*sim, tr, checks, verify_s));
    }
  }
  const double setup_s = median(setup_times);
  const double coarse_dt = sim->dt();

  // Every timed cycle of the run (traced ones too) fits one steal slope;
  // the cycle samples and the solve wall times are taken at zero steal.
  // p50 over the pooled cycles of all solves; p90 per solve, then the
  // median over solves, so a burst of host noise that fills one solve's
  // tail does not set the run's value.
  std::vector<Sample> cycle_samples, timed_samples;
  for (const auto& sv : solves) {
    cycle_samples.insert(cycle_samples.end(), sv.cycles.begin(), sv.cycles.end());
    timed_samples.insert(timed_samples.end(), sv.cycles.begin(), sv.cycles.end());
    timed_samples.insert(timed_samples.end(), sv.traced.begin(), sv.traced.end());
  }
  const double slope = steal_slope(timed_samples);
  std::vector<double> wall_s, solve_p50_ms, solve_p90_ms;
  std::int64_t applies = 0, cycles = 0;
  for (const auto& sv : solves) {
    const std::vector<double> own = at_zero_steal(sv.cycles, slope);
    solve_p50_ms.push_back(quantile(own, 0.5) * 1e3);
    solve_p90_ms.push_back(quantile(own, 0.9) * 1e3);
    wall_s.push_back(sv.wall_s - slope * (total_steal(sv.cycles) + total_steal(sv.traced)));
    applies = sv.applies;
    cycles = sv.num_cycles;
  }
  const std::vector<double> cycle_s = at_zero_steal(cycle_samples, slope);
  std::vector<double> ckpt_ms;
  for (const auto& c : ckpts) ckpt_ms.push_back(c.total_s() * 1e3);
  const double solve_wall = median(wall_s);
  const double failed_frac =
      checks.attempted ? static_cast<double>(checks.failed) / static_cast<double>(checks.attempted) : 1.0;

  const perf::RunReport final_report = sim->run_report();
  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics = {
        {"setup_s", setup_s, "s"},
        {"time_to_solution_s", setup_s + solve_wall, "s"},
        {"cycle_ms_p50", quantile(cycle_s, 0.5) * 1e3, "ms"},
        {"cycle_ms_p90", median(solve_p90_ms), "ms"},
        {"sim_s_per_wall_s", static_cast<double>(cycles) * coarse_dt / solve_wall, "s/s"},
        {"applies_per_s", static_cast<double>(applies) / solve_wall, "1/s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"ckpt_ms_p50", quantile(ckpt_ms, 0.5), "ms"},
        {"ckpt_ms_p90", quantile(ckpt_ms, 0.9), "ms"},
        {"checks_passed_frac", 1.0 - failed_frac, "ratio"},
    };
  }

  // Everything below is traced-mode only: per-layer metrics.
  if (opt.trace && !aborted) {
    const PhaseDelta d = phase_delta(rep_before, rep_after);
    const double n = static_cast<double>(cycles);
    const double untraced_p50 = median(at_zero_steal(solves[0].cycles, slope));
    const double traced_p50 = median(at_zero_steal(solves[0].traced, slope));

    // Partition quality and the health-guard scan on the live simulation.
    partition::PartitionMetrics pm;
    if (w.ranks() > 1) {
      Scope s(tr, "partition.metrics");
      pm = partition::compute_metrics(sim->mesh(), sim->levels().elem_level,
                                      sim->levels().num_levels, sim->part());
    }
    std::vector<double> guard_s;
    {
      resilience::HealthGuard guard(sim->space());
      for (int i = 0; i < 5; ++i) {
        const double t = now_s();
        Scope s(tr, "resilience.health_check");
        guard.check(sim->executor());
        guard_s.push_back(now_s() - t);
      }
    }
    const double theoretical = sim->theoretical_speedup();
    const auto num_levels = sim->levels().num_levels;
    sim.reset();

    // Companion runs: the same problem on one rank, and on global Newmark.
    double serial_p50 = untraced_p50;
    if (w.ranks() > 1) {
      tr.set_run(1);
      serial_p50 = companion_cycle_p50(with_executor(w, "serial-lts"), coarse_dt, 40, tr,
                                       "bench.companion_serial");
    }
    tr.set_run(2);
    const double newmark_cycle = companion_cycle_p50(with_executor(w, "newmark"), coarse_dt, 6, tr,
                                                     "bench.companion_newmark");
    tr.set_run(0);

    std::vector<double> ex, se, de, re;
    for (const auto& c : ckpts) {
      ex.push_back(c.export_s);
      se.push_back(c.serialize_s);
      de.push_back(c.deserialize_s);
      re.push_back(c.restore_s);
    }
    const double ckpt_bytes = ckpts.empty() ? 0.0 : static_cast<double>(ckpts.front().bytes);
    double stall_share_max = 0;
    for (std::size_t r = 0; r < d.busy.size(); ++r)
      if (d.busy[r] + d.stall[r] > 0)
        stall_share_max = std::max(stall_share_max, d.stall[r] / (d.busy[r] + d.stall[r]));
    const auto& L = *layers;
    const double kernel_rate = static_cast<double>(L.kernel_elems) / L.kernel_sweep_s;
    const double eval_rate = d.eval > 0 ? static_cast<double>(applies) / d.eval : 0.0;
    const double realized = newmark_cycle / serial_p50;
    const double work_phases = d.eval + d.reduce + d.update;
    const auto self = tr.self_seconds_by_layer();
    auto self_of = [&](const char* layer_name) {
      const auto it = self.find(layer_name);
      return it == self.end() ? 0.0 : it->second;
    };
    metrics = {
        {"mesh.build_s", L.mesh_s, "s"},
        {"sem.space_build_s", L.space_s, "s"},
        {"sem.plan_build_s", L.plan_s, "s"},
        {"sem.kernel_elems_per_s", kernel_rate, "1/s"},
        {"sem.kernel_gflops_per_s", L.roofline.flops_total / L.kernel_sweep_s / 1e9, "GFLOP/s"},
        {"sem.kernel_arith_intensity", L.roofline.arithmetic_intensity, "flop/B"},
        {"sem.kernel_bw_frac",
         L.roofline.bytes_total / L.kernel_sweep_s / (opt.triad.gbytes_per_s * 1e9), "ratio"},
        {"core.levels_s", L.levels_s, "s"},
        {"core.structure_s", L.structure_s, "s"},
        {"core.num_levels", static_cast<double>(num_levels), "count"},
        {"core.theoretical_speedup", theoretical, "ratio"},
        {"core.applies_per_cycle", static_cast<double>(applies) / n, "count"},
        {"core.eval_s_per_cycle", d.eval / n, "s"},
        {"core.reduce_s_per_cycle", d.reduce / n, "s"},
        {"core.update_s_per_cycle", d.update / n, "s"},
        {"core.non_eval_share", work_phases > 0 ? (d.reduce + d.update) / work_phases : 0.0, "ratio"},
        {"core.eval_elems_per_s", eval_rate, "1/s"},
        {"core.eval_to_kernel_ratio", eval_rate / kernel_rate, "ratio"},
        {"core.lts_realized_speedup", realized, "ratio"},
        {"core.lts_efficiency", realized / theoretical, "ratio"},
        {"partition.build_s", L.partition_s, "s"},
        {"partition.max_level_imbalance_pct", pm.max_level_imbalance_pct, "%"},
        {"partition.comm_volume", static_cast<double>(pm.comm_volume), "count"},
        {"runtime.barrier_s_per_cycle", d.barrier / n, "s"},
        {"runtime.barrier_share", d.total > 0 ? d.barrier / d.total : 0.0, "ratio"},
        {"runtime.barriers_per_cycle",
         static_cast<double>(d.barrier_count) / n / static_cast<double>(w.ranks()), "count"},
        {"runtime.stall_share_max", stall_share_max, "ratio"},
        {"runtime.steals_per_cycle", static_cast<double>(d.steals) / n, "count"},
        {"runtime.parallel_efficiency",
         w.ranks() > 1 ? serial_p50 / (static_cast<double>(w.ranks()) * untraced_p50) : 0.0, "ratio"},
        {"resilience.export_ms", median(ex) * 1e3, "ms"},
        {"resilience.serialize_ms", median(se) * 1e3, "ms"},
        {"resilience.deserialize_ms", median(de) * 1e3, "ms"},
        {"resilience.restore_ms", median(re) * 1e3, "ms"},
        {"resilience.ckpt_bytes", ckpt_bytes, "B"},
        {"resilience.serialize_gbytes_per_s", ckpt_bytes / median(se) / 1e9, "GB/s"},
        {"resilience.health_check_ms", median(guard_s) * 1e3, "ms"},
        {"mem.triad_gbytes_per_s", opt.triad.gbytes_per_s, "GB/s"},
        {"trace.cycle_ms_p50_untraced", untraced_p50 * 1e3, "ms"},
        {"trace.cycle_ms_p50_traced", traced_p50 * 1e3, "ms"},
        {"trace.overhead_pct", (traced_p50 / untraced_p50 - 1.0) * 100.0, "%"},
        {"mesh.self_s", self_of("mesh"), "s"},
        {"sem.self_s", self_of("sem"), "s"},
        {"core.self_s", self_of("core"), "s"},
        {"partition.self_s", self_of("partition"), "s"},
        {"resilience.self_s", self_of("resilience"), "s"},
        {"bench.self_s", self_of("bench"), "s"},
    };
    if (!opt.trace_out.empty()) tr.write_chrome_json(opt.trace_out);
  }

  // Context lines before the result: machine record and run summary.
  const double working_set = final_report.roofline ? final_report.roofline->bytes_total : 0.0;
  auto json_list = [](const std::vector<double>& v) {
    std::string out;
    for (const double x : v) out += (out.empty() ? "" : ", ") + json_number(x);
    return "[" + out + "]";
  };
  std::cout << "{\"machine\": " << machine_json(opt.llc_bytes, opt.triad) << "}\n";
  std::cout << "{\"workload\": \"" << w.name << "\", \"seed\": " << opt.seed
            << ", \"trace\": " << (opt.trace ? 1 : 0) << ", \"setups\": " << setup_times.size()
            << ", \"solves\": " << solves.size()
            << ", \"solve_cycle_ms_p50\": " << json_list(solve_p50_ms)
            << ", \"solve_cycle_ms_p90\": " << json_list(solve_p90_ms)
            << ", \"cycles_per_solve\": " << cycles << ", \"cycle_samples\": " << cycle_s.size()
            << ", \"cycle_samples_with_steal\": "
            << std::count_if(cycle_samples.begin(), cycle_samples.end(),
                             [](const Sample& x) { return x.steal_s > 0; })
            << ", \"steal_slope\": " << json_number(slope)
            << ", \"ckpt_samples\": " << ckpt_ms.size()
            << ", \"failed_frac\": " << json_number(failed_frac)
            << ", \"cpu_steal_s\": " << json_number(cpu_steal_s() - steal0)
            << ", \"gate_max_energy_ratio\": " << json_number(gate->max_ratio())
            << ", \"kernel_bytes_per_sweep\": " << json_number(working_set)
            << ", \"kernel_bytes_over_llc\": "
            << json_number(opt.llc_bytes > 0 ? working_set / static_cast<double>(opt.llc_bytes) : 0.0)
            << "}\n";
  for (const auto& f : checks.failures) std::cerr << "perfbench: check failed: " << f << "\n";
  print_result(checks, metrics);
  return 0;
}

// ---------------------------------------------------------------------------
// Self-test: the gate trips on a diverging run and never on the workloads
// ---------------------------------------------------------------------------

int selftest() {
  bool ok = true;
  {
    // trench-big at its registry defaults diverges (courant 0.3 against a
    // geometric CFL estimate that ignores element shear).
    const auto spec = scenarios::get("trench-big");
    auto sim = spec.make_simulation();
    EnergyGate gate(spec, *sim);
    std::int64_t tripped_at = -1;
    std::string why;
    try {
      sim->run(20 * sim->dt(), [&](real_t) {
        gate.observe_cycle(*sim);
        if (!gate.check(*sim, why)) throw GateTrip{why};
      });
    } catch (const GateTrip& t) {
      tripped_at = sim->cycles();
      why = t.why;
    } catch (const resilience::NumericalBlowup& e) {
      why = std::string("health guard tripped first: ") + e.what();
    }
    const bool pass = tripped_at > 0 && tripped_at <= 20;
    std::cout << "trench-big (defaults): gate " << (pass ? "tripped" : "DID NOT trip")
              << " at cycle " << tripped_at << ": " << why << "\n";
    ok = ok && pass;
  }
  for (const auto& name : workload_names()) {
    const Workload w = make_workload(name, 1);
    Tracer tr(false);
    Checks checks;
    auto sim = w.spec.make_simulation();
    EnergyGate gate(w.spec, *sim);
    const Solve s = solve(*sim, w, gate, tr, checks);
    const bool pass = !s.aborted && checks.failed == 0;
    std::cout << name << ": " << checks.attempted << " checks, " << checks.failed
              << " failed, max E/(E0+W) = " << gate.max_ratio() << " (bound "
              << EnergyGate::kFactor << ")" << (pass ? "" : " FAIL") << "\n";
    for (const auto& f : checks.failures) std::cout << "  " << f << "\n";
    ok = ok && pass;
  }
  std::cout << (ok ? "selftest passed" : "selftest FAILED") << std::endl;
  return ok ? 0 : 1;
}

int usage(const std::string& msg) {
  std::cerr << "perfbench: " << msg
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
               " [--llc-bytes B] [--triad-gbs G --triad-array-bytes A --triad-cached 0|1]"
               " [--trace-out path]\n"
               "       perfbench --triad --array-bytes <A>\n"
               "       perfbench --selftest\n";
  return 2;
}

} // namespace
} // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::map<std::string, std::string> kv;
  bool triad_mode = false, selftest_mode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--triad") triad_mode = true;
    else if (a == "--selftest") selftest_mode = true;
    else if (a.rfind("--", 0) == 0 && i + 1 < argc) kv[a.substr(2)] = argv[++i];
    else return usage("bad argument '" + a + "'");
  }
  try {
    if (selftest_mode) return selftest();
    if (triad_mode) {
      const TriadResult t = stream_triad(std::stoll(kv.at("array-bytes")), 2);
      std::cout << "{\"triad_gbytes_per_s\": " << json_number(t.gbytes_per_s)
                << ", \"array_bytes\": " << t.array_bytes << "}" << std::endl;
      return 0;
    }
    Options opt;
    if (!kv.count("workload")) return usage("--workload is required");
    opt.workload = kv["workload"];
    if (kv.count("seed")) opt.seed = std::stoull(kv["seed"]);
    if (kv.count("seconds")) opt.seconds = std::stod(kv["seconds"]);
    if (kv.count("trace")) opt.trace = kv["trace"] == "1";
    if (kv.count("llc-bytes")) opt.llc_bytes = std::stoll(kv["llc-bytes"]);
    if (kv.count("triad-gbs")) opt.triad.gbytes_per_s = std::stod(kv["triad-gbs"]);
    if (kv.count("triad-array-bytes")) opt.triad.array_bytes = std::stoll(kv["triad-array-bytes"]);
    opt.triad.cached = kv.count("triad-cached") && kv["triad-cached"] == "1";
    if (kv.count("trace-out")) opt.trace_out = kv["trace-out"];
    return run_workload(opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
