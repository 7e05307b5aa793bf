// Ensemble-execution claim: parameter ensembles (same microcode, per-replica
// data) are the natural vector axis of the simulated NSC — every replica's
// token timing is identical, so one SoA ReplicaBatch steps W replicas per
// compiled instruction with a single shape computation and W-wide value
// loops.  BM_EnsembleThroughput sweeps the replica count at the auto lane
// width; BM_EnsembleScalar is the one-replica-per-batch (W = 1) baseline
// the speedup is measured against.  Both share one compiled image, one
// exec pool, and one program cache, so the sweep isolates lane width, not
// compilation.
#include <memory>

#include "bench_common.h"

namespace {

using namespace nsc;

// The Figure-11 Jacobi sweep as the per-replica workload, compiled once.
struct EnsembleFixture {
  Workbench bench;
  prog::Program program;
  std::shared_ptr<const sim::CompiledProgram> compiled;

  EnsembleFixture() {
    if (!bench.runSession(figure11SessionScript()).clean()) return;
    program = bench.editor().program();
    compiled = bench.core().compileProgram(program).program;
  }
};

EnsembleFixture& fixture() {
  static EnsembleFixture f;
  return f;
}

void printArtifact() {
  bench::banner("ensemble_throughput",
                "SoA batched ensemble execution (W replicas per instruction)");
  EnsembleFixture& f = fixture();
  if (f.compiled == nullptr) {
    std::printf("figure-11 session failed to compile\n");
    return;
  }
  const int replicas = 16;
  EnsembleOptions batched;  // lanes = 0: auto width
  const WorkbenchCore::ReplicaRunOutcome outcome =
      f.bench.core().runReplicas(f.compiled, replicas, batched);
  std::printf("one ensemble: %d Figure-11 replicas, SoA lane width %d "
              "(NSC_ENSEMBLE_LANES overrides), %d batched / %d scalar,\n"
              "%llu cycles per replica, bit-identical to per-replica "
              "scalar execution (see BatchedGolden tests)\n\n",
              replicas, outcome.lanes_used, outcome.replicas_batched,
              outcome.replicas_scalar,
              static_cast<unsigned long long>(
                  outcome.runs.empty() ? 0 : outcome.runs[0].total_cycles));
}

void runEnsembleBench(benchmark::State& state, int lanes) {
  EnsembleFixture& f = fixture();
  if (f.compiled == nullptr) {
    state.SkipWithError("figure-11 session failed to compile");
    return;
  }
  const int replicas = static_cast<int>(state.range(0));
  EnsembleOptions options;
  options.lanes = lanes;
  for (auto _ : state) {
    const WorkbenchCore::ReplicaRunOutcome outcome =
        f.bench.core().runReplicas(f.compiled, replicas, options);
    benchmark::DoNotOptimize(outcome.runs.data());
  }
  state.SetItemsProcessed(state.iterations() * replicas);
}

// Batched SoA engine at the auto lane width (8, or NSC_ENSEMBLE_LANES).
void BM_EnsembleThroughput(benchmark::State& state) {
  runEnsembleBench(state, 0);
}
BENCHMARK(BM_EnsembleThroughput)->Arg(1)->Arg(8)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// One replica per batch (lanes = 1): the W = 1 baseline.
void BM_EnsembleScalar(benchmark::State& state) {
  runEnsembleBench(state, 1);
}
BENCHMARK(BM_EnsembleScalar)->Arg(1)->Arg(8)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  printArtifact();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
