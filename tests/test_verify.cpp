// ProgramVerifier tests: the static-analysis pass over lowered compiled
// programs (sim/verify.h).
//
// The load-bearing contracts:
//   * every golden program verifies clean;
//   * each fault-proving error (kDmaBounds / kStarvedWrite / kUnderfedWrite
//     / kStarvedCond) predicts exactly the FaultKind both engines report at
//     runtime — no false alarms, no missed faults (test_property.cpp sweeps
//     the same contract over randomly mutated microcode);
//   * ring over-subscription is an error of the hardware-infeasible class:
//     rejected statically, yet simulated deterministically (predicted fault
//     kNone);
//   * the hypercube exchange-plan analysis flags link contention and
//     out-of-range nodes.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "arch/machine.h"
#include "cfd/jacobi_program.h"
#include "microcode/generator.h"
#include "program/program.h"
#include "sim/compiled.h"
#include "sim/node.h"
#include "sim/verify.h"
#include "test_helpers.h"

namespace nsc {
namespace {

using arch::Endpoint;
using arch::Machine;
using arch::OpCode;
using sim::FaultKind;
using sim::NodeSim;
using sim::VerifyCode;

std::shared_ptr<const sim::CompiledProgram> compileFor(
    const Machine& machine, const prog::Program& program,
    bool run_checker = true) {
  mc::Generator generator(machine);
  mc::GenerateOptions options;
  options.run_checker = run_checker;
  const mc::GenerateResult gen = generator.generate(program, options);
  EXPECT_TRUE(gen.ok) << gen.diagnostics.format();
  if (!gen.ok) return nullptr;
  return sim::CompiledProgram::compile(machine, gen.exe);
}

bool hasError(const sim::VerifyReport& report, VerifyCode code) {
  return std::any_of(report.diagnostics.begin(), report.diagnostics.end(),
                     [code](const sim::VerifyDiagnostic& d) {
                       return d.code == code &&
                              d.severity == check::Severity::kError;
                     });
}

// Every fault-proving error in the report must predict the same FaultKind;
// returns it (kNone when the report proves no fault).
FaultKind provenFault(const sim::VerifyReport& report) {
  FaultKind proven = FaultKind::kNone;
  for (const sim::VerifyDiagnostic& d : report.diagnostics) {
    if (d.severity != check::Severity::kError) continue;
    const FaultKind kind = sim::predictedFault(d.code);
    if (kind == FaultKind::kNone) continue;
    if (proven == FaultKind::kNone) proven = kind;
  }
  return proven;
}

// ---------------------------------------------------------------------------
// Golden programs verify clean.
// ---------------------------------------------------------------------------

TEST(ProgramVerifier, Figure11JacobiVerifiesClean) {
  const Machine machine;
  for (const bool convergence : {false, true}) {
    cfd::JacobiBuildOptions options;
    options.grid = {8, 8, 8};
    options.h = 1.0 / 7.0;
    options.convergence_mode = convergence;
    options.fixed_sweeps = 6;
    options.tol = 1e-3;
    const cfd::JacobiProgram jacobi(machine, options);
    const auto program = compileFor(machine, jacobi.program());
    ASSERT_NE(program, nullptr);
    ASSERT_NE(program->verify, nullptr);
    EXPECT_TRUE(program->verify->clean())
        << (convergence ? "convergence" : "fixed") << ":\n"
        << program->verify->format();
    ASSERT_EQ(program->verify->instrs.size(), program->instrs.size());
  }
}

// ---------------------------------------------------------------------------
// Fault-proving errors match the engines.
// ---------------------------------------------------------------------------

// A DMA pattern past the simulated plane capacity: proven kDmaBounds, and
// both engines fault with exactly that kind.
TEST(ProgramVerifier, OobDmaProvenAndMatchesEngineFault) {
  const Machine machine;
  prog::Program p;
  prog::PipelineDiagram& d = p.append("overrun");
  d.connect(machine, Endpoint::planeRead(0), Endpoint::planeWrite(1));
  prog::DmaSpec spec;
  spec.base = 0;
  spec.stride = 1;
  spec.count = machine.config().sim_plane_words + 1;
  d.dmaAt(Endpoint::planeRead(0)) = spec;
  d.dmaAt(Endpoint::planeWrite(1)) = spec;
  d.seq.op = arch::SeqOp::kHalt;

  const auto program = compileFor(machine, p);
  ASSERT_NE(program, nullptr);
  const sim::VerifyReport& report = *program->verify;
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(hasError(report, VerifyCode::kDmaBounds)) << report.format();
  EXPECT_FALSE(report.firstError().empty());
  EXPECT_NE(report.firstError().find("dma-bounds"), std::string::npos);
  ASSERT_FALSE(report.instrs.empty());
  EXPECT_FALSE(report.instrs[0].clean);
  EXPECT_EQ(provenFault(report), FaultKind::kDmaBounds);

  // The diagnostic bridge renders as an error in the checker's stream.
  const check::DiagnosticList diags = report.toDiagnostics();
  EXPECT_TRUE(diags.hasErrors());
  EXPECT_EQ(diags.errorCount(), report.errorCount());

  // Both engines report the proven kind.
  for (const bool use_compiled : {false, true}) {
    sim::NodeSim::Options options;
    options.use_compiled = use_compiled;
    NodeSim node(machine, options);
    node.load(program);
    const sim::RunStats run = node.run();
    EXPECT_TRUE(run.error);
    EXPECT_EQ(run.fault, FaultKind::kDmaBounds)
        << (use_compiled ? "compiled" : "legacy");
  }
}

// A write engine programmed for more elements than its stream delivers:
// proven kUnderfedWrite (predicting a timeout), and both engines time out.
TEST(ProgramVerifier, UnderfedWriteProvenAndTimesOut) {
  const Machine machine;
  prog::Program p;
  prog::PipelineDiagram& d = p.append("starved");
  d.connect(machine, Endpoint::planeRead(0), Endpoint::planeWrite(1));
  prog::DmaSpec read;
  read.base = 0;
  read.stride = 1;
  read.count = 4;
  prog::DmaSpec write = read;
  write.count = 8;  // four tokens will never arrive
  d.dmaAt(Endpoint::planeRead(0)) = read;
  d.dmaAt(Endpoint::planeWrite(1)) = write;
  d.seq.op = arch::SeqOp::kHalt;

  // The checker rejects the stream mismatch at diagram level; the verifier
  // must catch the same program when it arrives as bare microcode.
  const auto program = compileFor(machine, p, /*run_checker=*/false);
  ASSERT_NE(program, nullptr);
  const sim::VerifyReport& report = *program->verify;
  EXPECT_TRUE(hasError(report, VerifyCode::kUnderfedWrite)) << report.format();
  EXPECT_EQ(provenFault(report), FaultKind::kTimeout);
  // The offending window is exact: 4 tokens, one registered hop late.
  bool found = false;
  for (const sim::VerifyDiagnostic& diag : report.diagnostics) {
    if (diag.code != VerifyCode::kUnderfedWrite) continue;
    found = true;
    EXPECT_EQ(diag.endpoint, Endpoint::planeWrite(1));
    EXPECT_TRUE(diag.window.any);
    EXPECT_EQ(diag.window.first, 1u);
    EXPECT_EQ(diag.window.last, 4u);
    EXPECT_EQ(diag.window.length(), 4u);
    EXPECT_TRUE(diag.window.tagged);
  }
  EXPECT_TRUE(found);

  for (const bool use_compiled : {false, true}) {
    sim::NodeSim::Options options;
    options.use_compiled = use_compiled;
    options.max_cycles_per_instruction = 500;
    NodeSim node(machine, options);
    node.load(program);
    const sim::RunStats run = node.run();
    EXPECT_TRUE(run.error);
    EXPECT_EQ(run.fault, FaultKind::kTimeout)
        << (use_compiled ? "compiled" : "legacy");
  }
}

// A condition latch armed on a functional unit that never produces a value:
// proven kStarvedCond, and the latch never fires so both engines time out.
TEST(ProgramVerifier, StarvedCondProvenAndTimesOut) {
  const Machine machine;
  const int n = 16;
  prog::Program p;
  prog::PipelineDiagram& d = p.append("latched");
  const arch::AlsId als = machine.config().num_singlets;
  const arch::FuId mul = machine.als(als).fus[0];
  d.setFuOp(machine, mul, OpCode::kMul);
  d.connect(machine, Endpoint::planeRead(0), Endpoint::fuInput(mul, 0));
  d.setConstInput(machine, mul, 1, 2.0);
  d.connect(machine, Endpoint::fuOutput(mul), Endpoint::planeWrite(1));
  for (const Endpoint e : {Endpoint::planeRead(0), Endpoint::planeWrite(1)}) {
    prog::DmaSpec& dma = d.dmaAt(e);
    dma.base = 0;
    dma.stride = 1;
    dma.count = n;
  }
  // The latch watches a unit that is never programmed: its output stream
  // never carries a valid token, so the latch can never observe an end.
  const arch::FuId silent = machine.als(als).fus[1];
  d.cond = prog::CondLatch{silent, 1};
  d.seq.op = arch::SeqOp::kHalt;

  const auto program = compileFor(machine, p, /*run_checker=*/false);
  ASSERT_NE(program, nullptr);
  const sim::VerifyReport& report = *program->verify;
  EXPECT_TRUE(hasError(report, VerifyCode::kStarvedCond)) << report.format();
  EXPECT_EQ(provenFault(report), FaultKind::kTimeout);

  for (const bool use_compiled : {false, true}) {
    sim::NodeSim::Options options;
    options.use_compiled = use_compiled;
    options.max_cycles_per_instruction = 500;
    NodeSim node(machine, options);
    node.load(program);
    node.writePlane(0, 0, test::iota(n, 1.0, 1.0));
    const sim::RunStats run = node.run();
    EXPECT_TRUE(run.error);
    EXPECT_EQ(run.fault, FaultKind::kTimeout)
        << (use_compiled ? "compiled" : "legacy");
  }
}

// ---------------------------------------------------------------------------
// Hardware-infeasible errors: rejected statically, no runtime fault claim.
// ---------------------------------------------------------------------------

// Ring over-subscription cannot be encoded through the generator (microword
// field widths are derived from the same limits), so it is tested the way a
// hostile or corrupted lowering would present it: a hand-built compiled
// instruction whose delay queue exceeds the register-file ring.
TEST(ProgramVerifier, RingOverSubscriptionIsInfeasibilityError) {
  const Machine machine;
  sim::CompiledProgram program;
  sim::CompiledInstr ci;
  sim::CompiledFu fu;
  fu.fu = 4;
  fu.rfq_len =
      static_cast<std::uint32_t>(machine.config().rf_max_delay) + 1;
  ci.fus.push_back(fu);
  program.instrs.push_back(ci);
  program.plans.emplace_back();

  const sim::VerifyReport report =
      sim::ProgramVerifier(machine).verify(program);
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(hasError(report, VerifyCode::kRingOverSubscribed))
      << report.format();
  // Infeasibility, not a fault proof: the simulator sizes its arenas from
  // the program and would still run this deterministically.
  EXPECT_EQ(sim::predictedFault(VerifyCode::kRingOverSubscribed),
            FaultKind::kNone);
  EXPECT_EQ(provenFault(report), FaultKind::kNone);
  ASSERT_EQ(report.instrs.size(), 1u);
  EXPECT_FALSE(report.instrs[0].clean);
}

// ---------------------------------------------------------------------------
// Exchange-plan analysis.
// ---------------------------------------------------------------------------

TEST(ExchangePlan, DisjointMessagesAreClean) {
  const std::vector<sim::ExchangeMessage> plan = {{0, 1, 64}, {2, 3, 64}};
  EXPECT_TRUE(sim::verifyExchangePlan(2, plan).empty());
}

TEST(ExchangePlan, SharedLinkIsReportedAsContention) {
  // Two messages with the same source and destination claim every hop of
  // the same e-cube path.
  const std::vector<sim::ExchangeMessage> plan = {{0, 3, 64}, {0, 3, 32}};
  const auto diags = sim::verifyExchangePlan(2, plan);
  ASSERT_FALSE(diags.empty());
  for (const sim::VerifyDiagnostic& d : diags) {
    EXPECT_EQ(d.code, VerifyCode::kExchangeContention);
    EXPECT_EQ(d.severity, check::Severity::kWarning);
    EXPECT_NE(d.message.find("0->3"), std::string::npos);
  }
}

TEST(ExchangePlan, OutOfRangeNodeIsAnError) {
  const std::vector<sim::ExchangeMessage> plan = {{5, 0, 8}};
  const auto diags = sim::verifyExchangePlan(2, plan);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].severity, check::Severity::kError);
  EXPECT_NE(diags[0].message.find("outside"), std::string::npos);
}

TEST(ExchangeSchedule, ChainedForwardsAreClean) {
  // Phase 0 delivers 0 -> 1; phase 1 forwards from node 1 (fed) and phase 2
  // forwards the relay on from node 2 (fed by phase 1): a legal multi-hop
  // staging chain.
  const std::vector<std::vector<sim::ExchangeMessage>> phases = {
      {{0, 1, 64}},
      {{1, 2, 64, /*forward=*/true}},
      {{2, 3, 64, /*forward=*/true}},
  };
  EXPECT_TRUE(sim::verifyExchangeSchedule(2, phases).empty());
}

TEST(ExchangeSchedule, ForwardWithoutPriorDeliveryIsDangling) {
  // Node 2 never received anything before phase 1 asks it to forward.
  const std::vector<std::vector<sim::ExchangeMessage>> phases = {
      {{0, 1, 64}},
      {{2, 3, 64, /*forward=*/true}},
  };
  const auto diags = sim::verifyExchangeSchedule(2, phases);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].code, VerifyCode::kExchangeDangling);
  EXPECT_EQ(diags[0].severity, check::Severity::kError);
  EXPECT_EQ(diags[0].instruction, 1);  // the offending phase
  EXPECT_NE(diags[0].message.find("no earlier phase"), std::string::npos);
}

TEST(ExchangeSchedule, FirstPhaseForwardIsAlwaysDangling) {
  // A forward in phase 0 can never have been fed — deliveries only become
  // visible after the phase barrier, so even a same-phase 0 -> 1 delivery
  // does not feed the 1 -> 2 forward.
  const std::vector<std::vector<sim::ExchangeMessage>> phases = {
      {{0, 1, 64}, {1, 2, 64, /*forward=*/true}},
  };
  const auto diags = sim::verifyExchangeSchedule(2, phases);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].code, VerifyCode::kExchangeDangling);
  EXPECT_EQ(diags[0].instruction, 0);
}

TEST(ExchangeSchedule, PerPhaseFindingsCarryThePhaseIndex) {
  // Phase 1 has both a contention warning (duplicated route) and an
  // out-of-range error; both must be tagged with phase 1, and the schedule
  // must still track deliveries across the noisy phase.
  const std::vector<std::vector<sim::ExchangeMessage>> phases = {
      {{0, 1, 64}},
      {{0, 3, 64}, {0, 3, 32}, {5, 0, 8}},
      {{1, 2, 16, /*forward=*/true}},
  };
  const auto diags = sim::verifyExchangeSchedule(2, phases);
  ASSERT_FALSE(diags.empty());
  for (const sim::VerifyDiagnostic& d : diags) {
    EXPECT_EQ(d.code, VerifyCode::kExchangeContention);
    EXPECT_EQ(d.instruction, 1) << d.format();
  }
}

// ---------------------------------------------------------------------------
// Report plumbing.
// ---------------------------------------------------------------------------

TEST(VerifyReport, DiagnosticFormatNamesCodeInstructionAndEndpoint) {
  sim::VerifyDiagnostic d;
  d.code = VerifyCode::kDmaBounds;
  d.severity = check::Severity::kError;
  d.instruction = 3;
  d.endpoint = Endpoint::planeRead(0);
  d.message = "walks past the plane";
  const std::string text = d.format();
  EXPECT_NE(text.find("[error]"), std::string::npos);
  EXPECT_NE(text.find("dma-bounds"), std::string::npos);
  EXPECT_NE(text.find("instr 3"), std::string::npos);
  EXPECT_NE(text.find("plane0.read"), std::string::npos);
  EXPECT_NE(text.find("walks past the plane"), std::string::npos);
}

TEST(VerifyReport, CycleWindowLengthAndUnbounded) {
  sim::CycleWindow none;
  EXPECT_EQ(none.length(), 0u);
  EXPECT_FALSE(none.unbounded());
  const sim::CycleWindow finite{2, 9, true, true};
  EXPECT_EQ(finite.length(), 8u);
  EXPECT_FALSE(finite.unbounded());
  const sim::CycleWindow forever{0, sim::CycleWindow::kForever, true, false};
  EXPECT_TRUE(forever.unbounded());
  EXPECT_EQ(forever.length(), sim::CycleWindow::kForever);
}

}  // namespace
}  // namespace nsc
