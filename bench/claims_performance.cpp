// C1 — Section 2 claims: "Projected peak performance ... 640 MFLOPS per
// node.  A 64-node NSC would have a total memory of 128 Gbytes and maximum
// performance of 40 GFLOPS."
//
// Reproduces the scaling table with simulated multi-node Jacobi: each node
// owns a z-slab of the grid; after every program run (two sweeps) the
// hyperspace router exchanges ghost layers between hypercube neighbors.
#include "bench_common.h"

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "exec/thread_pool.h"

namespace {

using namespace nsc;

struct ScalingRow {
  int nodes = 1;
  double peak_gflops = 0;
  double achieved_mflops = 0;
  double comm_fraction = 0;
};

// One simulated multi-node run: 2^dimension nodes, each owning an
// nx * nx * local_nz z-slab of the global grid (8^3 is the seed workload;
// 16^3 and 32^3 are the production shapes from the ROADMAP).
ScalingRow runScale(int dimension, int nx = 8, int local_nz = 10,
                    int node_lanes = 0) {
  arch::Machine machine;
  cfd::JacobiBuildOptions options;
  options.grid = {nx, nx, local_nz + 2};  // owned layers + 2 ghost layers
  options.h = 1.0 / (nx - 1);
  options.convergence_mode = false;
  options.fixed_sweeps = 2;
  const cfd::JacobiProgram jacobi(machine, options);
  const cfd::PoissonProblem problem =
      cfd::PoissonProblem::manufactured(nx, nx, local_nz + 2);

  mc::Generator generator(machine);
  const mc::GenerateResult gen = generator.generate(jacobi.program());

  sim::HypercubeSystem system(machine, dimension, {.node_lanes = node_lanes});
  system.loadAll(gen.exe);
  for (int n = 0; n < system.numNodes(); ++n) {
    sim::HypercubeSystem::NodeStore store = system.nodeStore(n);
    jacobi.load(store, problem);
  }

  const int W = options.grid.W();
  const auto pad = static_cast<std::uint64_t>(jacobi.layout().pad);
  sim::SystemStats stats;
  for (int phase = 0; phase < 3; ++phase) {
    system.runPhase(stats);
    // Ghost exchange: top owned layer -> lower neighbor's high ghost,
    // bottom owned layer -> upper neighbor's low ghost (ring order over
    // hypercube node ids; e-cube routes the hops).
    system.beginExchange();
    for (int n = 0; n < system.numNodes(); ++n) {
      const int up = (n + 1) % system.numNodes();
      const int down = (n + system.numNodes() - 1) % system.numNodes();
      if (system.numNodes() == 1) break;
      const auto top_owned = pad + static_cast<std::uint64_t>(local_nz * W);
      const auto bottom_owned = pad + static_cast<std::uint64_t>(W);
      // The freshest iterate after an even sweep count is the A set; all
      // copies receive the halo.
      for (const arch::PlaneId p : jacobi.layout().u_a) {
        system.sendVector(n, jacobi.layout().u_a[0], top_owned, W, up, p,
                          pad + 0);
        system.sendVector(n, jacobi.layout().u_a[0], bottom_owned, W, down, p,
                          pad + static_cast<std::uint64_t>((local_nz + 1) * W));
      }
    }
    system.endExchange(stats);
    system.restartAll();
  }

  ScalingRow row;
  row.nodes = system.numNodes();
  row.peak_gflops =
      system.numNodes() * machine.config().peakMflopsPerNode() / 1000.0;
  row.achieved_mflops = stats.aggregateMflops(machine.config().clock_mhz);
  row.comm_fraction = stats.makespanCycles() == 0
                          ? 0.0
                          : static_cast<double>(stats.comm_cycles) /
                                static_cast<double>(stats.makespanCycles());
  return row;
}

void printClaims() {
  bench::banner("claims_performance",
                "Section 2 performance claims (640 MFLOPS/node, 40 GFLOPS, "
                "128 GB)");
  arch::Machine machine;
  std::printf("nodes  peak GFLOPS  memory      achieved MFLOPS  comm%%\n");
  for (int dim = 0; dim <= 6; ++dim) {
    const ScalingRow row = runScale(dim);
    std::printf("%5d  %11.2f  %-10s  %15.1f  %5.1f\n", row.nodes,
                row.peak_gflops,
                common::bytesHuman(static_cast<std::uint64_t>(row.nodes) *
                                   machine.config().totalMemoryBytes())
                    .c_str(),
                row.achieved_mflops, 100.0 * row.comm_fraction);
  }
  std::printf("\nshape check: peak scales linearly to ~40 GFLOPS and 128 GB "
              "at 64 nodes (paper's Section 2);\nachieved MFLOPS scales with "
              "node count until communication bites.\n\n");
}

// Seed shapes (8^3 slabs) keep their single-arg names so BENCH_*.json rows
// stay comparable against the committed BENCH_seed.json baseline.  d=6 is
// the paper's 64-node flagship; d=7 (128 nodes) and d=8 (256 nodes)
// exercise the beyond-paper shapes that tests/test_hypercube.cpp pins for
// stats consistency.  These run lane groups of the default width;
// BM_SystemPhaseScalar runs width-1 groups (value programs at W = 1) on
// the compute-heavy shapes for an in-snapshot A/B.
void BM_SystemPhase(benchmark::State& state) {
  const int dim = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(runScale(dim).achieved_mflops);
  }
}
BENCHMARK(BM_SystemPhase)->Arg(0)->Arg(2)->Arg(4)->Arg(6)->Arg(7)->Arg(8);

void BM_SystemPhaseScalar(benchmark::State& state) {
  const int dim = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        runScale(dim, 8, 10, /*node_lanes=*/1).achieved_mflops);
  }
}
BENCHMARK(BM_SystemPhaseScalar)->Arg(4)->Arg(6);

// Scaled production shapes from the ROADMAP: 16^3 and 32^3 slabs.
void BM_SystemPhaseScaled(benchmark::State& state) {
  const int dim = static_cast<int>(state.range(0));
  const int nx = static_cast<int>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(runScale(dim, nx).achieved_mflops);
  }
}
BENCHMARK(BM_SystemPhaseScaled)
    ->Args({2, 16})
    ->Args({4, 16})
    ->Args({2, 32})
    ->Unit(benchmark::kMillisecond);

// Host-side multigrid V-cycles on the shared pool: 17^3 is the seed-scale
// case (3 levels), 33^3 the deeper production case (5 levels).
void BM_MultigridVCycle(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const cfd::PoissonProblem problem =
      cfd::PoissonProblem::manufactured(n, n, n);
  cfd::MultigridOptions options;
  options.pool = &exec::ThreadPool::shared();
  std::vector<double> u = problem.u0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cfd::vcycle(problem, u, options));
  }
}
BENCHMARK(BM_MultigridVCycle)->Arg(17)->Arg(33)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Phase-throughput harness benchmarks (the tentpole measurement).
//
// 16 nodes each run a minimal one-instruction program per phase over a
// 16^3-footprint slab, so the timing isolates the per-phase parallel
// harness — exactly what nsc_exec amortizes.  The baseline reproduces the
// seed's runPhase: a fresh std::thread batch spawned and joined for every
// phase at the same parallel width as the pool.
// ---------------------------------------------------------------------------

constexpr int kThroughputThreads = 4;

mc::GenerateResult buildPhaseProgram(const arch::Machine& m,
                                     std::uint64_t words) {
  prog::Program p;
  prog::PipelineDiagram& d = p.append("phase");
  const arch::AlsId als = m.config().num_singlets;
  const arch::FuId mul = m.als(als).fus[0];
  d.setFuOp(m, mul, arch::OpCode::kMul);
  d.connect(m, arch::Endpoint::planeRead(0), arch::Endpoint::fuInput(mul, 0));
  d.setConstInput(m, mul, 1, 3.0);
  d.connect(m, arch::Endpoint::fuOutput(mul), arch::Endpoint::planeWrite(1));
  d.dmaAt(arch::Endpoint::planeRead(0)) = {"", 0, 1, words, 1, 0, 0, false};
  d.dmaAt(arch::Endpoint::planeWrite(1)) = {"", 0, 1, words, 1, 0, 0, false};
  d.seq.op = arch::SeqOp::kHalt;
  mc::Generator g(m);
  return g.generate(p);
}

void BM_PhaseThroughput_Pooled(benchmark::State& state) {
  arch::Machine machine;
  const mc::GenerateResult gen = buildPhaseProgram(machine, 8);
  exec::ThreadPool pool(exec::ExecOptions{kThroughputThreads});
  sim::HypercubeSystem system(machine, 4, {}, &pool);
  system.loadAll(gen.exe);
  sim::SystemStats stats;
  for (auto _ : state) {
    system.runPhase(stats);
    system.restartAll();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PhaseThroughput_Pooled);

void BM_PhaseThroughput_SpawnBaseline(benchmark::State& state) {
  arch::Machine machine;
  const mc::GenerateResult gen = buildPhaseProgram(machine, 8);
  // The seed-reproduction baseline drives its own 16 NodeSims (one shared
  // compiled image, like loadAll) from its own spawned threads.
  constexpr int n = 16;
  const auto program = sim::CompiledProgram::compile(machine, gen.exe);
  std::vector<std::unique_ptr<sim::NodeSim>> nodes;
  for (int i = 0; i < n; ++i) {
    nodes.push_back(std::make_unique<sim::NodeSim>(machine));
    nodes.back()->load(program);
  }
  std::vector<sim::RunStats> results(static_cast<std::size_t>(n));
  for (auto _ : state) {
    // Seed behavior: one thread batch per phase, created and joined inline.
    std::vector<std::thread> threads;
    const std::size_t chunk =
        (static_cast<std::size_t>(n) + kThroughputThreads - 1) /
        kThroughputThreads;
    for (std::size_t begin = 0; begin < static_cast<std::size_t>(n);
         begin += chunk) {
      const std::size_t end =
          std::min(begin + chunk, static_cast<std::size_t>(n));
      threads.emplace_back([&nodes, &results, begin, end] {
        for (std::size_t i = begin; i < end; ++i) {
          results[i] = nodes[i]->run();
        }
      });
    }
    for (auto& t : threads) t.join();
    for (auto& node : nodes) node->restart();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PhaseThroughput_SpawnBaseline);

}  // namespace

int main(int argc, char** argv) {
  printClaims();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
