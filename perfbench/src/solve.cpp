// The solve workload: the paper's 64-node NSC (a d=6 hypercube) solving the
// 3-D Poisson equation in-process, with no server.
//
// The global grid is kNx x kNx x (64 * kLocalNz + 2) points at spacing
// h = 1/(kNx-1).  Node n owns kLocalNz z-layers and holds them plus one
// ghost layer on each side as a cfd::JacobiProgram slab.  One phase runs
// the fixed-sweep program (kSweepsPerPhase sweeps) on every node, then a
// halo exchange through the hypercube router copies each node's edge layers
// into its neighbours' ghost layers.  After kPhases phases the iterate lies
// within kErrorBound of the manufactured solution.
//
// Every solve is checked bit-exactly against a host replay of the same
// decomposition and exchange schedule built from cfd::linearJacobiSweep;
// the check runs outside the timed solve.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <numbers>

#include "bench.h"
#include "cfd/jacobi_program.h"
#include "cfd/poisson.h"
#include "common/rng.h"
#include "microcode/generator.h"
#include "sim/hypercube.h"
#include "sim/program_cache.h"
#include "sim/verify.h"

namespace perfbench {

using namespace nsc;

namespace {

constexpr int kDimension = 6;  // 64 nodes
constexpr int kNodes = 1 << kDimension;
constexpr int kNx = 8;
constexpr int kLocalNz = 4;
constexpr int kSweepsPerPhase = 2;
constexpr int kPhases = 24;
constexpr double kErrorBound = 0.05;  // max-norm, against u*
constexpr int kSetups = 31;
constexpr double kWarmupS = 1.0;
constexpr int kMinSolves = 100;  // p90 then has ten solves beyond it

// Per-node local problems cut from one global manufactured problem.
struct Decomposition {
  cfd::Grid3 local{kNx, kNx, kLocalNz + 2};
  double h = 1.0 / (kNx - 1);
  std::vector<cfd::PoissonProblem> nodes;
  cfd::Grid3 global{kNx, kNx, kNodes * kLocalNz + 2};
  std::vector<double> exact;  // u* on the global grid
};

// u* = sin(pi x) sin(pi y) sin(pi z / L) on [0,1]^2 x [0,L], L = (nz-1) h,
// so laplace(u*) = -(2 pi^2 + pi^2 / L^2) u*.  The seed draws the initial
// guess's interior values; boundaries hold the exact (zero) Dirichlet data.
Decomposition decompose(std::uint64_t seed) {
  Decomposition d;
  constexpr double pi = std::numbers::pi;
  const double length = (d.global.nz - 1) * d.h;
  const double k2 = 2 * pi * pi + pi * pi / (length * length);
  const std::size_t n = static_cast<std::size_t>(d.global.N());
  std::vector<double> f(n), u0(n, 0.0);
  d.exact.resize(n);
  common::Rng rng(seed * 0x2545f4914f6cdd1dull + 3);
  for (int c = 0; c < d.global.N(); ++c) {
    const double x = d.global.iOf(c) * d.h;
    const double y = d.global.jOf(c) * d.h;
    const double z = d.global.kOf(c) * d.h;
    const double star =
        std::sin(pi * x) * std::sin(pi * y) * std::sin(pi * z / length);
    const auto i = static_cast<std::size_t>(c);
    d.exact[i] = star;
    f[i] = -k2 * star;
    if (d.global.isInterior(c)) u0[i] = rng.uniform(0.0, 1.0);
  }
  const std::size_t layer = static_cast<std::size_t>(d.local.W());
  for (int node = 0; node < kNodes; ++node) {
    cfd::PoissonProblem p;
    p.grid = d.local;
    p.h = d.h;
    // Local layer k is global layer node * kLocalNz + k.
    const std::size_t first = static_cast<std::size_t>(node * kLocalNz) * layer;
    const std::size_t count = static_cast<std::size_t>(d.local.N());
    p.f.assign(f.begin() + static_cast<std::ptrdiff_t>(first),
               f.begin() + static_cast<std::ptrdiff_t>(first + count));
    p.u0.assign(u0.begin() + static_cast<std::ptrdiff_t>(first),
                u0.begin() + static_cast<std::ptrdiff_t>(first + count));
    d.nodes.push_back(std::move(p));
  }
  return d;
}

// Word offsets of the layers an exchange moves, relative to the array.
std::uint64_t layerOffset(const cfd::Grid3& g, int k) {
  return static_cast<std::uint64_t>(k) * static_cast<std::uint64_t>(g.W());
}

// The host replay: kSweepsPerPhase linearJacobiSweep calls per node per
// phase, then the same exchange as the device.  Returns each node's final
// iterate; counts the sweeps it ran.
std::vector<std::vector<double>> hostReplay(const Decomposition& d,
                                            std::uint64_t& sweeps) {
  std::vector<std::vector<double>> u;
  for (const cfd::PoissonProblem& p : d.nodes) u.push_back(p.u0);
  std::vector<double> next;
  const std::size_t w = static_cast<std::size_t>(d.local.W());
  for (int phase = 0; phase < kPhases; ++phase) {
    for (int node = 0; node < kNodes; ++node) {
      std::vector<double>& un = u[static_cast<std::size_t>(node)];
      for (int s = 0; s < kSweepsPerPhase; ++s) {
        next = un;
        cfd::linearJacobiSweep(d.nodes[static_cast<std::size_t>(node)], un,
                               next);
        un.swap(next);
        ++sweeps;
      }
    }
    for (int node = 0; node < kNodes; ++node) {
      const std::vector<double>& src = u[static_cast<std::size_t>(node)];
      if (node + 1 < kNodes) {
        std::copy_n(src.begin() + static_cast<std::ptrdiff_t>(
                                      layerOffset(d.local, kLocalNz)),
                    w, u[static_cast<std::size_t>(node + 1)].begin());
      }
      if (node > 0) {
        std::copy_n(src.begin() + static_cast<std::ptrdiff_t>(
                                      layerOffset(d.local, 1)),
                    w,
                    u[static_cast<std::size_t>(node - 1)].begin() +
                        static_cast<std::ptrdiff_t>(
                            layerOffset(d.local, kLocalNz + 1)));
      }
    }
  }
  return u;
}

// Max-norm error of the assembled owned layers against u*.
double solutionError(const Decomposition& d,
                     const std::vector<std::vector<double>>& u) {
  double error = 0.0;
  const std::size_t w = static_cast<std::size_t>(d.local.W());
  for (int node = 0; node < kNodes; ++node) {
    for (int k = 1; k <= kLocalNz; ++k) {
      const auto local_k = static_cast<std::size_t>(k);
      const auto global_k = static_cast<std::size_t>(node * kLocalNz + k);
      const std::vector<double>& un = u[static_cast<std::size_t>(node)];
      for (std::size_t c = 0; c < w; ++c) {
        error = std::max(error, std::abs(un[local_k * w + c] -
                                         d.exact[global_k * w + c]));
      }
    }
  }
  return error;
}

// Everything set-up builds: the program, its microcode, a loaded system.
struct Machine64 {
  arch::Machine machine;
  sim::CompiledProgramCache cache;  // private, so each set-up compiles
  std::unique_ptr<cfd::JacobiProgram> jacobi;
  mc::GenerateResult generated;
  std::unique_ptr<sim::HypercubeSystem> system;
};

void deposit(Machine64& m, const Decomposition& d) {
  for (int node = 0; node < kNodes; ++node) {
    sim::HypercubeSystem::NodeStore store = m.system->nodeStore(node);
    m.jacobi->load(store, d.nodes[static_cast<std::size_t>(node)]);
  }
}

std::unique_ptr<Machine64> setUp(const Decomposition& d) {
  auto m = std::make_unique<Machine64>();
  cfd::JacobiBuildOptions options;
  options.grid = d.local;
  options.h = d.h;
  options.convergence_mode = false;
  options.fixed_sweeps = kSweepsPerPhase;
  m->jacobi = std::make_unique<cfd::JacobiProgram>(m->machine, options);
  m->generated = mc::Generator(m->machine).generate(m->jacobi->program());
  m->system = std::make_unique<sim::HypercubeSystem>(
      m->machine, kDimension, sim::SystemOptions{}, nullptr, &m->cache);
  m->system->loadAll(m->generated.exe);
  deposit(*m, d);
  return m;
}

// One solve: deposit the problem, then kPhases of sweeps + halo exchange.
sim::SystemStats solve(Machine64& m, const Decomposition& d, Tracer& tracer) {
  sim::HypercubeSystem& system = *m.system;
  const cfd::JacobiLayout& layout = m.jacobi->layout();
  const auto pad = static_cast<std::uint64_t>(layout.pad);
  const auto w = static_cast<std::uint64_t>(d.local.W());
  {
    ScopedSpan span(tracer, "solve.deposit");
    deposit(m, d);
    system.restartAll();
  }
  sim::SystemStats stats;
  for (int phase = 0; phase < kPhases; ++phase) {
    {
      ScopedSpan span(tracer, "sim.phase");
      system.runPhase(stats);
    }
    ScopedSpan span(tracer, "sim.exchange");
    system.beginExchange();
    for (int node = 0; node < kNodes; ++node) {
      // The freshest iterate after an even sweep count is the A set; every
      // copy of it receives the halo.
      for (const arch::PlaneId p : layout.u_a) {
        if (node + 1 < kNodes) {
          system.sendVector(node, layout.u_a[0],
                            pad + layerOffset(d.local, kLocalNz), w, node + 1,
                            p, pad);
        }
        if (node > 0) {
          system.sendVector(node, layout.u_a[0], pad + layerOffset(d.local, 1),
                            w, node - 1, p,
                            pad + layerOffset(d.local, kLocalNz + 1));
        }
      }
    }
    system.endExchange(stats);
    system.restartAll();
  }
  return stats;
}

// Bit-exact comparison of every node's iterate with the host replay.
bool hostCheck(Machine64& m, const std::vector<std::vector<double>>& host,
               std::vector<double>& scratch) {
  const auto pad = static_cast<std::uint64_t>(m.jacobi->layout().pad);
  for (int node = 0; node < kNodes; ++node) {
    const std::vector<double>& want = host[static_cast<std::size_t>(node)];
    scratch.resize(want.size());
    m.system->readPlaneInto(node, m.jacobi->layout().u_a[0], pad, scratch);
    if (std::memcmp(scratch.data(), want.data(),
                    want.size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

double cpuSecondsSelf() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

}  // namespace

int runSolve(const RunOptions& options, Report& report) {
  // ---- Inputs and the host reference (before any timing). ----
  const Decomposition d = decompose(options.seed);
  std::uint64_t host_sweeps = 0;
  std::vector<std::vector<double>> host = hostReplay(d, host_sweeps);
  const double error = solutionError(d, host);
  report.line("solve: %d nodes (d=%d), global grid %dx%dx%d, %d owned layers "
              "per node, %d phases x %d sweeps",
              kNodes, kDimension, d.global.nx, d.global.ny, d.global.nz,
              kLocalNz, kPhases, kSweepsPerPhase);
  report.line("host replay: max error vs manufactured solution %.6f (bound "
              "%.3f)",
              error, kErrorBound);
  std::uint64_t digest = fnv1a(nullptr, 0);
  for (const cfd::PoissonProblem& p : d.nodes) {
    digest = fnv1a(p.u0.data(), p.u0.size() * sizeof(double), digest);
  }
  report.line("inputs: seeded initial guess, digest %016llx",
              static_cast<unsigned long long>(digest));
  if (options.corrupt_reference) {
    host[0][static_cast<std::size_t>(d.local.idx(3, 3, 2))] += 1.0;
  }

  // ---- Set-up: program, microcode, system load, problem deposit. ----
  Samples setup_s;
  std::unique_ptr<Machine64> m;
  for (int i = 0; i < kSetups; ++i) {
    m.reset();
    const std::int64_t t0 = nowNs();
    m = setUp(d);
    setup_s.add(static_cast<double>(nowNs() - t0) / 1e9);
  }
  if (!m->generated.ok) {
    report.line("perfbench: Jacobi program failed to generate");
    return 1;
  }

  // ---- The measured loop. ----
  Tracer tracer(options.trace, 1);
  Tracer untraced(false, 1);
  std::vector<double> scratch;
  std::uint64_t attempted = 0, failed = 0;
  Samples solve_ms;
  std::uint64_t cycles = 0, flops = 0, comm = 0, makespan = 0;
  std::uint64_t batched_in_window = 0;
  const exec::ThreadPool::PoolStats pool_before =
      m->system->pool().stats();
  const std::int64_t launch = nowNs();
  const std::int64_t start = launch + static_cast<std::int64_t>(kWarmupS * 1e9);
  const std::int64_t end =
      start + static_cast<std::int64_t>(options.seconds * 1e9);
  std::int64_t first_ns = 0, last_ns = 0;
  double cpu_start = 0, cpu_end = 0;
  std::uint64_t counted = 0;
  while (nowNs() < end) {
    const bool in_window = nowNs() >= start;
    if (in_window && counted == 0) {
      cpu_start = cpuSecondsSelf();
      first_ns = nowNs();
    }
    Tracer& t = in_window ? tracer : untraced;
    t.setRequest(attempted + 1);
    const std::uint64_t batched0 = m->system->nodesBatched();
    const std::int64_t t0 = nowNs();
    sim::SystemStats stats;
    {
      ScopedSpan span(t, "solve");
      stats = solve(*m, d, t);
    }
    const std::int64_t t1 = nowNs();
    ++attempted;
    bool ok = !stats.error;
    {
      ScopedSpan span(t, "cfd.host_check");
      ok = ok && hostCheck(*m, host, scratch);
    }
    if (!ok) ++failed;
    if (!in_window) continue;
    ++counted;
    last_ns = nowNs();
    cpu_end = cpuSecondsSelf();
    solve_ms.add(static_cast<double>(t1 - t0) / 1e6);
    cycles = 0;
    for (const sim::RunStats& r : stats.node_stats) cycles += r.total_cycles;
    flops = stats.total_flops;
    comm = stats.comm_cycles;
    makespan = stats.makespanCycles();
    batched_in_window = m->system->nodesBatched() - batched0;
  }
  const exec::ThreadPool::PoolStats pool_after = m->system->pool().stats();

  const double span_s = static_cast<double>(last_ns - first_ns) / 1e9;
  const double throughput =
      span_s > 0 ? static_cast<double>(counted) / span_s : 0.0;
  const double cpu_ms_per_op =
      counted == 0 ? -1.0 : 1000.0 * (cpu_end - cpu_start) /
                                static_cast<double>(counted);
  const double tail_p = 0.9;
  report.line("solve_s: median %.6f over %zu solves; latency ms p10=%.3f "
              "p25=%.3f p50=%.3f p90=%.3f max=%.3f (%zu beyond p90)",
              solve_ms.median() / 1000.0, solve_ms.size(),
              solve_ms.percentile(0.1), solve_ms.percentile(0.25),
              solve_ms.median(),
              solve_ms.percentile(0.9), solve_ms.percentile(1.0),
              solve_ms.size() -
                  static_cast<std::size_t>(std::ceil(
                      tail_p * static_cast<double>(solve_ms.size()))));
  report.line("setup s (median of %d): %.4f  [min %.4f max %.4f]", kSetups,
              setup_s.median(), setup_s.percentile(0.0),
              setup_s.percentile(1.0));
  report.line("error_rate=%.6f (%llu failed of %llu attempted)",
              attempted == 0 ? 0.0
                             : static_cast<double>(failed) /
                                   static_cast<double>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  bool valid = error <= kErrorBound;
  if (!valid) report.line("INVALID: the host replay misses the error bound");
  if (solve_ms.size() < static_cast<std::size_t>(kMinSolves)) {
    valid = false;
    report.line("INVALID: %zu solves leave fewer than ten beyond p90",
                solve_ms.size());
  }
  const bool witnesses_ok = report.witnesses(
      {{"solve.cycles", cycles},
       {"solve.flops", flops},
       {"solve.makespan_cycles", makespan},
       {"solve.comm_cycles", comm},
       {"solve.nodes_batched", batched_in_window},
       {"cfd.sweeps", host_sweeps}},
      witnessPath(options));
  const bool correct = failed == 0 && witnesses_ok;

  EndToEnd e2e;
  e2e.setup_s = setup_s.median();
  e2e.throughput_rps = throughput;
  e2e.latency_p50_ms = solve_ms.median();
  e2e.latency_tail_ms = solve_ms.percentile(tail_p);
  e2e.cpu_ms_per_op = cpu_ms_per_op;
  e2e.peak_rss_mb = processPeakRssMb(0);
  reportEndToEnd(options, e2e, report);
  if (options.trace) {
    // The compile front half, timed on this workload's program.
    Tracer compile(true, 1ull << 50);
    for (int i = 0; i < 20; ++i) {
      mc::GenerateResult generated;
      {
        ScopedSpan span(compile, "microcode.generate");
        generated = mc::Generator(m->machine).generate(m->jacobi->program());
      }
      sim::CompiledProgramCache cold;
      std::shared_ptr<const sim::CompiledProgram> program;
      {
        ScopedSpan span(compile, "sim.compile_miss");
        program = cold.get(m->machine, generated.exe);
      }
      {
        ScopedSpan span(compile, "sim.cache_hit");
        cold.get(m->machine, generated.exe);
      }
      {
        ScopedSpan span(compile, "sim.verify");
        sim::ProgramVerifier(m->machine).verify(*program);
      }
    }
    tracer.merge(std::move(compile));
    const auto durations = tracer.durationsUs();
    auto p50 = [&durations](const char* name) {
      const auto it = durations.find(name);
      return it == durations.end() ? 0.0 : it->second.median();
    };
    const auto phases = durations.find("sim.phase");
    const double phase_ns_total =
        phases == durations.end() ? 0.0 : phases->second.sum() * 1000.0;
    const double node_cycles_total =
        static_cast<double>(cycles) * static_cast<double>(counted);
    const double solves = counted == 0 ? 1.0 : static_cast<double>(counted);

    LayerMetrics layers;
    layers.generate_us = p50("microcode.generate");
    layers.compile_miss_us = p50("sim.compile_miss");
    layers.cache_hit_us = p50("sim.cache_hit");
    layers.verify_us = p50("sim.verify");
    layers.engine_us = p50("sim.phase");
    layers.host_ns_per_cycle =
        node_cycles_total > 0 ? phase_ns_total / node_cycles_total : 0.0;
    layers.cycles = static_cast<double>(cycles);
    layers.flops = static_cast<double>(flops);
    layers.nodes_batched = static_cast<double>(batched_in_window);
    layers.comm_cycle_share =
        makespan == 0
            ? 0.0
            : static_cast<double>(comm) / static_cast<double>(makespan);
    layers.sweeps = static_cast<double>(host_sweeps);
    layers.tasks_submitted = static_cast<double>(pool_after.tasks_submitted -
                                                 pool_before.tasks_submitted) /
                             solves;
    layers.tasks_inline = static_cast<double>(pool_after.tasks_inline -
                                              pool_before.tasks_inline) /
                          solves;
    layers.peak_queue_depth = static_cast<double>(pool_after.peak_queue_depth);

    report.line("per-layer (p50 us unless noted), traced run:");
    report.line("  sim.phase_us=%.2f sim.exchange_us=%.2f "
                "solve.deposit_us=%.2f cfd.host_check_us=%.2f",
                p50("sim.phase"), p50("sim.exchange"), p50("solve.deposit"),
                p50("cfd.host_check"));
    report.line("  microcode.generate_us=%.2f sim.compile_miss_us=%.2f "
                "sim.cache_hit_us=%.2f sim.verify_us=%.2f",
                layers.generate_us, layers.compile_miss_us,
                layers.cache_hit_us, layers.verify_us);
    report.line("  sim.host_ns_per_cycle=%.3f sim.nodes_batched_share=%.4f "
                "sim.comm_cycle_share=%.4f",
                layers.host_ns_per_cycle,
                layers.nodes_batched / static_cast<double>(kNodes * kPhases),
                layers.comm_cycle_share);
    report.line("  exec.tasks_submitted=%.1f exec.tasks_inline=%.1f per solve, "
                "exec.peak_queue_depth=%.0f (shared pool)",
                layers.tasks_submitted, layers.tasks_inline,
                layers.peak_queue_depth);
    report.line("self time per span, p50 us (count):");
    for (const auto& [name, samples] : tracer.selfTimesUs()) {
      report.line("  %-22s %10.2f  (%zu)", name.c_str(), samples.median(),
                  samples.size());
    }
    const std::string trace_path = options.state_dir + "/trace-solve-" +
                                   std::to_string(options.seed) + ".json";
    report.line("spans written to %s: %s", trace_path.c_str(),
                tracer.write(trace_path) ? "ok" : "FAILED");
    reportLayers(layers, report);
  }
  report.finish(correct && valid, attempted, failed);
  return correct && valid ? 0 : 1;
}

}  // namespace perfbench
