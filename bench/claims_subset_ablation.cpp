// C4 — Section 6: "One approach to reducing the complexity is to use a
// simpler architectural model, perhaps a subset of the NSC.  The tradeoff
// here is between performance and programmability."
//
// Ablation: the full model vs the restricted subset (singlet-only ALSs, no
// caches, no shift/delay units) on the same Jacobi workload.
#include <set>

#include "bench_common.h"

namespace {

using namespace nsc;

struct ModelRow {
  const char* label;
  int user_items = 0;     // placements+ops+wires+DMA forms+taps to specify
  int planes_used = 0;
  int fus_used = 0;
  std::uint64_t cycles_per_sweep = 0;
  double mflops = 0;
};

int countUserItems(const prog::Program& program) {
  // Everything the programmer must specify interactively, program-wide:
  // icon placements, op selections, constants, wires, DMA subwindows,
  // shift/delay forms, condition latches, sequencer settings.
  int items = 0;
  for (const prog::PipelineDiagram& d : program.pipelines) {
    items += static_cast<int>(d.als_uses.size());
    for (const prog::AlsUse& use : d.als_uses) {
      for (const prog::FuUse& fu : use.fu) {
        if (!fu.enabled) continue;
        ++items;  // op menu
        items += fu.in_a == arch::InputSelect::kRegisterFile ||
                 fu.in_b == arch::InputSelect::kRegisterFile;
        items += fu.rf_mode == arch::RfMode::kAccum;
      }
    }
    items += static_cast<int>(d.connections.size());
    items += static_cast<int>(d.dma.size());
    items += static_cast<int>(d.sd_uses.size());
    items += d.cond.has_value();
    ++items;  // sequencer
  }
  return items;
}

ModelRow runModel(bool restricted, bool use_compiled = true) {
  const arch::Machine machine(restricted
                                  ? arch::MachineConfig::restrictedSubset()
                                  : arch::MachineConfig{});
  cfd::JacobiBuildOptions options;
  options.grid = {8, 8, 8};
  options.h = 1.0 / 7.0;
  options.convergence_mode = false;
  options.fixed_sweeps = 8;
  options.restricted = restricted;
  const cfd::JacobiProgram jacobi(machine, options);
  const cfd::PoissonProblem problem = cfd::PoissonProblem::manufactured(8, 8, 8);

  mc::Generator generator(machine);
  const mc::GenerateResult gen = generator.generate(jacobi.program());
  sim::NodeSim::Options node_options;
  node_options.use_compiled = use_compiled;
  sim::NodeSim node(machine, node_options);
  node.load(gen.exe);
  jacobi.load(node, problem);
  const sim::RunStats run = node.run();

  ModelRow row;
  row.label = restricted ? "restricted subset" : "full NSC model";
  row.user_items = countUserItems(jacobi.program());
  std::set<arch::PlaneId> planes;
  std::set<int> fus;
  const prog::PipelineDiagram& sweep = jacobi.program()[0];
  for (const auto& [e, dma] : sweep.dma) planes.insert(e.unit);
  for (const prog::AlsUse& use : sweep.als_uses) {
    for (std::size_t slot = 0; slot < use.fu.size(); ++slot) {
      if (use.fu[slot].enabled) {
        fus.insert(machine.als(use.als).fus[slot]);
      }
    }
  }
  row.planes_used = static_cast<int>(planes.size());
  row.fus_used = static_cast<int>(fus.size());
  row.cycles_per_sweep =
      run.total_cycles / cfd::JacobiProgram::sweepsDone(run);
  row.mflops = run.mflops(machine.config().clock_mhz);
  return row;
}

void printClaims() {
  bench::banner("claims_subset_ablation",
                "Section 6 subset-model tradeoff (programmability vs "
                "performance)");
  std::printf("%-18s %10s %7s %5s %14s %9s\n", "model", "user items",
              "planes", "FUs", "cycles/sweep", "MFLOPS");
  const ModelRow full = runModel(false);
  const ModelRow restricted = runModel(true);
  for (const ModelRow& row : {full, restricted}) {
    std::printf("%-18s %10d %7d %5d %14llu %9.1f\n", row.label,
                row.user_items, row.planes_used, row.fus_used,
                static_cast<unsigned long long>(row.cycles_per_sweep),
                row.mflops);
  }
  std::printf("\nshape check: the restricted model needs %d%% more memory "
              "planes per sweep (array\ncopies replace the shift/delay "
              "units), more user actions over the whole program,\nand has "
              "no plane budget left for the residual convergence check — it "
              "trades\nmachine features for a flatter mental model exactly "
              "as Section 6 anticipates\n(\"some abstraction is possible, "
              "but the performance ramifications are unclear\").\n\n",
              100 * (restricted.planes_used - full.planes_used) /
                  full.planes_used);
}

void BM_FullModelSweep(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(runModel(false).cycles_per_sweep);
  }
}
BENCHMARK(BM_FullModelSweep);

void BM_RestrictedModelSweep(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(runModel(true).cycles_per_sweep);
  }
}
BENCHMARK(BM_RestrictedModelSweep);

// Executor A/B: the same workload on the legacy per-cycle interpreter
// (NodeOptions::use_compiled = false).  The ratio against BM_FullModelSweep
// is the speedup of compiled execution, captured in every BENCH_*.json.
void BM_InterpreterModelSweep(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(runModel(false, false).cycles_per_sweep);
  }
}
BENCHMARK(BM_InterpreterModelSweep);

}  // namespace

int main(int argc, char** argv) {
  printClaims();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
