// Static verification cost.
//
// The ProgramVerifier (src/sim/verify.h) runs once per compile, at the
// shared program cache's insert — so its cost is paid exactly once per
// distinct program per process, however many shards, nodes, or replicas run
// the image.  BM_VerifyProgram pins the cold cost of that one verification
// pass on the Figure-11 Jacobi program.
//
// The printed artifact is the verification report itself: the verdict for
// the Figure-11 program, and the typed diagnostic for a deliberately
// hazardous (out-of-bounds DMA) program that the service layer would refuse
// at admission.
#include "bench_common.h"

#include "cfd/jacobi_program.h"
#include "program/program.h"
#include "sim/compiled.h"
#include "sim/verify.h"

namespace {

using namespace nsc;

struct Workload {
  arch::Machine machine;
  cfd::JacobiProgram jacobi;
  std::shared_ptr<const sim::CompiledProgram> program;

  explicit Workload(cfd::JacobiBuildOptions options)
      : jacobi(machine, options) {
    mc::Generator generator(machine);
    program = sim::CompiledProgram::compile(
        machine, generator.generate(jacobi.program()).exe);
  }
};

cfd::JacobiBuildOptions figure11Options() {
  cfd::JacobiBuildOptions options;
  options.grid = {8, 8, 8};
  options.h = 1.0 / 7.0;
  options.convergence_mode = false;
  options.fixed_sweeps = 6;
  return options;
}

Workload& figure11() {
  static Workload workload(figure11Options());
  return workload;
}

// A program the generator accepts but no node may run: the DMA transfer
// provably walks one word past the simulated plane capacity.
std::shared_ptr<const sim::CompiledProgram> hazardousProgram(
    const arch::Machine& machine) {
  prog::Program p;
  prog::PipelineDiagram& d = p.append("oob");
  d.connect(machine, arch::Endpoint::planeRead(0),
            arch::Endpoint::planeWrite(1));
  prog::DmaSpec spec;
  spec.base = 0;
  spec.stride = 1;
  spec.count = machine.config().sim_plane_words + 1;
  d.dmaAt(arch::Endpoint::planeRead(0)) = spec;
  d.dmaAt(arch::Endpoint::planeWrite(1)) = spec;
  d.seq.op = arch::SeqOp::kHalt;
  mc::Generator generator(machine);
  return sim::CompiledProgram::compile(machine, generator.generate(p).exe);
}

void printReport() {
  bench::banner("verify_bench",
                "static verification of lowered programs (admission gate)");
  Workload& w = figure11();
  const sim::VerifyReport& report = *w.program->verify;
  std::printf("Figure-11 Jacobi program: %zu instructions, %s "
              "(%zu errors, %zu warnings)\n",
              w.program->instrs.size(),
              report.clean() ? "verifies clean" : "REFUSED",
              report.errorCount(), report.warningCount());

  const auto hazardous = hazardousProgram(w.machine);
  std::printf("\nhazardous program (DMA past the simulated plane):\n  %s\n",
              hazardous->verify->firstError().c_str());
  std::printf("\nshape check: the hazardous program is a typed error the "
              "service refuses at admission\n(Reject::kInvalidProgram) "
              "before any node sees it.\n\n");
}

// Cold verification cost: what the cache pays once per distinct program.
void BM_VerifyProgram(benchmark::State& state) {
  Workload& w = figure11();
  const sim::ProgramVerifier verifier(w.machine);
  for (auto _ : state) {
    benchmark::DoNotOptimize(verifier.verify(*w.program).diagnostics.size());
  }
}
BENCHMARK(BM_VerifyProgram);

}  // namespace

int main(int argc, char** argv) {
  printReport();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
