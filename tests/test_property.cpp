// Property-based tests (seeded sweeps via parameterized suites):
//   1. random stencil programs: compiled pipeline == host evaluation;
//   2. random editor sessions: undoing everything restores the start;
//   3. microword fields: encode/decode identity for random values;
//   4. incremental/thorough checker consistency: whatever the editor
//      accepts connection-by-connection, the global pass accepts too;
//   5. verifier soundness: randomly mutated microcode either verifies clean
//      and executes fault-free on both engines, or the verifier's fault
//      prediction matches the runtime fault — no false-clean verdicts; the
//      value program's build-time stats match the interpreter's.
#include <gtest/gtest.h>

#include <set>

#include "common/strings.h"

#include "arch/microword_spec.h"
#include "common/rng.h"
#include "compiler/stencil_lang.h"
#include "editor/editor.h"
#include "microcode/generator.h"
#include "sim/batch.h"
#include "sim/compiled.h"
#include "sim/hypercube.h"
#include "sim/node.h"
#include "sim/value_program.h"
#include "sim/verify.h"
#include "test_helpers.h"

namespace nsc {
namespace {

using arch::Endpoint;
using arch::Machine;

// ---------------------------------------------------------------------------
// 1. Random stencil programs
// ---------------------------------------------------------------------------

class RandomStencilTest : public ::testing::TestWithParam<int> {};

std::string randomExpr(common::Rng& rng, int depth) {
  if (depth <= 0 || rng.chance(0.3)) {
    switch (rng.below(3)) {
      case 0: return common::strFormat("%.3f", rng.uniform(0.5, 2.0));
      case 1: {
        static const char* arrays[] = {"u", "v", "w"};
        const char* name = arrays[rng.below(3)];
        const int offset = static_cast<int>(rng.range(-3, 3));
        return common::strFormat("%s[%d]", name, offset);
      }
      default: return "u[0]";
    }
  }
  const std::string a = randomExpr(rng, depth - 1);
  const std::string b = randomExpr(rng, depth - 1);
  switch (rng.below(6)) {
    case 0: return "(" + a + " + " + b + ")";
    case 1: return "(" + a + " - " + b + ")";
    case 2: return "(" + a + " * " + b + ")";
    case 3: return "abs(" + a + ")";
    case 4: return "min(" + a + ", " + b + ")";
    default: return "max(" + a + ", " + b + ")";
  }
}

TEST_P(RandomStencilTest, CompiledPipelineMatchesHostExactly) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  const std::string source =
      "out = " + randomExpr(rng, 3) + ";\nreduce m = max(abs(out));\n";
  const auto parsed = xc::StencilProgram::parse(source);
  ASSERT_TRUE(parsed.isOk()) << source << "\n" << parsed.message();

  Machine machine;
  xc::CompileOptions options;
  options.vector_length = 24;
  options.center_base = 16;
  const auto compiled = parsed.value().compile(machine, options);
  if (!compiled.isOk()) {
    // Resource exhaustion and constant-stream reductions are legitimate
    // rejections; the property applies only to mappable programs.
    const bool expected =
        compiled.message().find("out of") != std::string::npos ||
        compiled.message().find("constant stream") != std::string::npos;
    EXPECT_TRUE(expected) << compiled.message();
    return;
  }

  std::map<std::string, std::vector<double>> inputs;
  for (const std::string& name : parsed.value().inputArrays()) {
    std::vector<double> data(options.center_base + options.vector_length + 8);
    for (auto& v : data) v = rng.uniform(-3.0, 3.0);
    inputs[name] = std::move(data);
  }
  const auto host = parsed.value().evaluate(inputs, options);
  ASSERT_TRUE(host.isOk()) << host.message();

  prog::Program program;
  program.pipelines.push_back(compiled.value().diagram);
  mc::Generator generator(machine);
  const auto gen = generator.generate(program);
  ASSERT_TRUE(gen.ok) << source << "\n" << gen.diagnostics.format();
  sim::NodeSim node(machine);
  node.load(gen.exe);
  for (const xc::StreamPlacement& s : compiled.value().streams) {
    if (!s.is_output) node.writePlane(s.plane, 0, inputs.at(s.array));
  }
  const sim::RunStats stats = node.run();
  ASSERT_FALSE(stats.error) << stats.error_message;

  for (const auto& [name, plane] : compiled.value().output_planes) {
    const auto got =
        node.readPlane(plane, options.center_base, options.vector_length);
    const auto& want = host.value().outputs.at(name);
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << source << "\nelement " << i;
    }
  }
  for (const auto& [name, where] : compiled.value().reductions) {
    ASSERT_EQ(node.readPlaneWord(where.first, where.second),
              host.value().reductions.at(name))
        << source;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomStencilTest, ::testing::Range(0, 25));

// ---------------------------------------------------------------------------
// 2. Random editor sessions undo to the start
// ---------------------------------------------------------------------------

class RandomEditorTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomEditorTest, UndoEverythingRestoresInitialState) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
  Machine machine;
  ed::Editor editor(machine);
  const prog::Program initial = editor.program();

  const ed::Rect draw = editor.layout().drawing;
  for (int step = 0; step < 40; ++step) {
    const ed::Point pos{draw.x + 10 + static_cast<int>(rng.below(static_cast<std::uint64_t>(draw.w - 120))),
                        draw.y + 10 + static_cast<int>(rng.below(static_cast<std::uint64_t>(draw.h - 200)))};
    switch (rng.below(7)) {
      case 0: {
        static const ed::IconKind kinds[] = {
            ed::IconKind::kSinglet, ed::IconKind::kDoublet,
            ed::IconKind::kDoubletBypass, ed::IconKind::kTriplet};
        editor.placeIcon(kinds[rng.below(4)], pos);
        break;
      }
      case 1: {
        const arch::FuId fu = static_cast<arch::FuId>(
            rng.below(static_cast<std::uint64_t>(machine.config().numFus())));
        const auto menu = editor.opMenu(fu);
        editor.setFuOp(fu, menu[rng.below(menu.size())]);
        break;
      }
      case 2: {
        const Endpoint from = Endpoint::planeRead(
            static_cast<int>(rng.below(16)));
        const auto targets = editor.connectionMenu(from);
        if (!targets.empty()) {
          editor.connect(from, targets[rng.below(targets.size())]);
        }
        break;
      }
      case 3: {
        prog::DmaSpec spec;
        spec.base = rng.below(1024);
        spec.stride = 1;
        spec.count = 1 + rng.below(128);
        editor.setDma(Endpoint::planeRead(static_cast<int>(rng.below(16))),
                      spec);
        break;
      }
      case 4:
        if (!editor.doc().scene.icons().empty()) {
          const auto& icons = editor.doc().scene.icons();
          editor.deleteIcon(icons[rng.below(icons.size())].id);
        }
        break;
      case 5:
        editor.insertPipeline(common::strFormat("p%d", step));
        break;
      default:
        if (!editor.doc().scene.icons().empty()) {
          const auto& icons = editor.doc().scene.icons();
          editor.moveIcon(icons[rng.below(icons.size())].id, pos);
        }
        break;
    }
  }

  while (editor.undo()) {
  }
  EXPECT_EQ(editor.program(), initial);
  EXPECT_TRUE(editor.doc().scene.icons().empty());
  EXPECT_TRUE(editor.doc().scene.wires().empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomEditorTest, ::testing::Range(0, 10));

// ---------------------------------------------------------------------------
// 3. Microword field round trips
// ---------------------------------------------------------------------------

class MicrowordFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(MicrowordFuzzTest, EncodeDecodeIdentityOnRandomFields) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 5);
  Machine machine;
  arch::MicrowordSpec spec(machine);
  common::BitVector word = spec.makeWord();
  // Write random values to a random subset, remember expectations, check
  // all fields afterwards (untouched fields must stay zero).
  std::map<std::string, std::uint64_t> expect;
  const auto& fields = spec.fields();
  for (int i = 0; i < 200; ++i) {
    const arch::MicroField& f = fields[rng.below(fields.size())];
    const std::uint64_t mask =
        f.width >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << f.width) - 1);
    const std::uint64_t value = rng.next() & mask;
    spec.set(word, f.name, value);
    expect[f.name] = value;
  }
  for (const arch::MicroField& f : fields) {
    const auto it = expect.find(f.name);
    EXPECT_EQ(spec.get(word, f.name), it == expect.end() ? 0u : it->second)
        << f.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MicrowordFuzzTest, ::testing::Range(0, 10));

// ---------------------------------------------------------------------------
// 4. Incremental acceptance implies no edit-time errors in the global pass
// ---------------------------------------------------------------------------

class CheckerConsistencyTest : public ::testing::TestWithParam<int> {};

TEST_P(CheckerConsistencyTest, EditorAcceptedDiagramHasNoWiringErrors) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 257 + 3);
  Machine machine;
  check::Checker checker(machine);
  prog::PipelineDiagram d;
  // Place a handful of ALSs.
  for (int als = 0; als < machine.config().numAls(); ++als) {
    if (rng.chance(0.5)) d.useAls(machine, als);
  }
  // Randomly attempt many connections, keeping only accepted ones.
  const auto& sources = machine.sources();
  for (int i = 0; i < 120; ++i) {
    const Endpoint from = sources[rng.below(sources.size())];
    const auto targets = checker.legalTargets(d, from);
    if (targets.empty()) continue;
    const Endpoint to = targets[rng.below(targets.size())];
    // Only wire FU inputs whose ALS is placed (editor behavior).
    if (to.kind == arch::EndpointKind::kFuInput &&
        d.findAls(machine.fu(to.unit).als) == nullptr) {
      continue;
    }
    if (from.kind == arch::EndpointKind::kFuOutput &&
        d.findAls(machine.fu(from.unit).als) == nullptr) {
      continue;
    }
    ASSERT_TRUE(checker.canConnect(d, from, to));
    d.connect(machine, from, to);
  }
  // The thorough pass may flag op-level problems (nothing is programmed),
  // but never the wiring rules the incremental pass enforced.
  const check::DiagnosticList diags = checker.checkDiagram(d);
  for (const check::Diagnostic& diag : diags.all()) {
    EXPECT_NE(diag.rule, check::Rule::kInputAlreadyDriven) << diag.format();
    EXPECT_NE(diag.rule, check::Rule::kPlaneContention) << diag.format();
    EXPECT_NE(diag.rule, check::Rule::kFanoutLimit) << diag.format();
    EXPECT_NE(diag.rule, check::Rule::kCycle) << diag.format();
    EXPECT_NE(diag.rule, check::Rule::kSelfLoop) << diag.format();
    EXPECT_NE(diag.rule, check::Rule::kEndpointRole) << diag.format();
    EXPECT_NE(diag.rule, check::Rule::kEndpointRange) << diag.format();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckerConsistencyTest, ::testing::Range(0, 10));

// ---------------------------------------------------------------------------
// 5. Verifier soundness on mutated microcode: no false-clean verdicts
// ---------------------------------------------------------------------------

class VerifierSoundnessTest : public ::testing::TestWithParam<int> {};

TEST_P(VerifierSoundnessTest, CleanRunsFaultFreeErrorsPredictTheRuntimeFault) {
  const int seed = GetParam();
  common::Rng rng(static_cast<std::uint64_t>(seed) * 6151 + 11);
  Machine machine;

  // A well-formed two-FU pipeline with a randomized stream length; every
  // mutation below corrupts its one microword the way bad lowering, a bad
  // cache entry, or a hostile client would.
  const int n = 8 + static_cast<int>(rng.below(120));
  prog::Program p;
  prog::PipelineDiagram& d = p.append("m");
  const arch::AlsId als = machine.config().num_singlets;
  const arch::FuId mul = machine.als(als).fus[0];
  const arch::FuId add = machine.als(als).fus[1];
  d.setFuOp(machine, mul, arch::OpCode::kMul);
  d.connect(machine, Endpoint::planeRead(0), Endpoint::fuInput(mul, 0));
  d.setConstInput(machine, mul, 1, rng.uniform(0.5, 2.0));
  d.setFuOp(machine, add, arch::OpCode::kAdd);
  d.connect(machine, Endpoint::fuOutput(mul), Endpoint::fuInput(add, 0));
  d.connect(machine, Endpoint::planeRead(1), Endpoint::fuInput(add, 1));
  d.connect(machine, Endpoint::fuOutput(add), Endpoint::planeWrite(2));
  for (const Endpoint e : {Endpoint::planeRead(0), Endpoint::planeRead(1),
                           Endpoint::planeWrite(2)}) {
    prog::DmaSpec& dma = d.dmaAt(e);
    dma.base = 0;
    dma.stride = 1;
    dma.count = n;
  }
  d.seq.op = arch::SeqOp::kHalt;

  mc::Generator generator(machine);
  const mc::GenerateResult gen = generator.generate(p);
  ASSERT_TRUE(gen.ok) << gen.diagnostics.format();
  mc::Executable exe = gen.exe;
  const auto spec = arch::MicrowordSpec::shared(machine);
  common::BitVector& word = exe.words[0];
  switch (seed % 5) {
    case 0:
      break;  // unmutated control: must verify clean and run clean
    case 1:   // read DMA walks past the simulated plane capacity
      spec->set(word, arch::MicrowordSpec::planeField(0, "base"),
                ~std::uint64_t{0});
      break;
    case 2:   // the route feeding the write engine is severed
      spec->set(word,
                arch::MicrowordSpec::switchField(
                    machine.destinationIndex(Endpoint::planeWrite(2))),
                0);
      break;
    case 3:   // write engine programmed for twice the delivered stream
      spec->set(word, arch::MicrowordSpec::planeField(2, "count"),
                static_cast<std::uint64_t>(2 * n));
      break;
    default:  // condition latch armed on a unit that never produces a value
      spec->set(word, "cond.enable", 1);
      spec->set(word, "cond.src_fu", 0);  // singlet 0 is unprogrammed
      spec->set(word, "cond.reg", 1);
      break;
  }

  const auto program = sim::CompiledProgram::compile(machine, exe);
  ASSERT_NE(program, nullptr);
  ASSERT_NE(program->verify, nullptr);
  const sim::VerifyReport& report = *program->verify;

  constexpr std::uint64_t kBudget = 2000;
  std::vector<double> legacy_out, compiled_out;
  const auto execute = [&](bool use_compiled, std::vector<double>& out) {
    sim::NodeSim::Options options;
    options.use_compiled = use_compiled;
    options.max_cycles_per_instruction = kBudget;
    sim::NodeSim node(machine, options);
    node.load(program);
    node.writePlane(0, 0, test::iota(n, 1.0, 0.5));
    node.writePlane(1, 0, test::iota(n, -2.0, 0.25));
    const sim::RunStats run = node.run();
    out = node.readPlane(2, 0, 2 * static_cast<std::uint64_t>(n));
    return run;
  };
  const sim::RunStats legacy = execute(false, legacy_out);
  const sim::RunStats compiled = execute(true, compiled_out);

  // The engines agree on the fault verdict no matter what the bits say,
  // and on every stat and every word written.
  EXPECT_EQ(legacy.error, compiled.error) << report.format();
  EXPECT_EQ(legacy.fault, compiled.fault) << report.format();
  EXPECT_EQ(legacy.total_cycles, compiled.total_cycles);
  EXPECT_EQ(legacy.total_flops, compiled.total_flops);
  EXPECT_EQ(legacy.total_hazards, compiled.total_hazards);
  EXPECT_EQ(legacy.fu_launches, compiled.fu_launches);
  EXPECT_EQ(legacy_out, compiled_out);

  // The value program's build-time facts predict the interpreter's stats:
  // a completing instruction's cycles, flops, hazards and launches, or the
  // same counts cut at the cycle budget when it never completes.  Only an
  // instruction that faults at issue has no value program.
  ASSERT_EQ(legacy.trace.size(), 1u);
  const sim::InstrStats& step = legacy.trace[0];
  const sim::ValueProgram* vp = program->instrs[0].value.get();
  EXPECT_EQ(vp == nullptr, step.fault == sim::FaultKind::kDmaBounds);
  if (vp != nullptr) {
    const bool completes = vp->last_cycle < kBudget;
    EXPECT_EQ(completes, !step.error) << report.format();
    const std::uint64_t last = completes ? vp->last_cycle : kBudget - 1;
    std::vector<std::uint64_t> launches(legacy.fu_launches.size(), 0);
    const auto [flops, hazards] = vp->count(last, launches);
    EXPECT_EQ(last + 1, step.cycles);
    EXPECT_EQ(flops, step.flops);
    EXPECT_EQ(hazards, step.hazards);
    EXPECT_EQ(launches, legacy.fu_launches);
    if (completes) {
      EXPECT_EQ(vp->flops, step.flops);
      EXPECT_EQ(vp->hazards, step.hazards);
    }
  }

  // The batched SoA engine reaches the same verdict in every lane: no
  // mutation may execute false-clean (or fault differently) just because
  // the replica rode a ReplicaBatch instead of a scalar NodeSim.
  sim::NodeSim::Options batch_options;
  batch_options.max_cycles_per_instruction = 2000;
  sim::ReplicaBatch batch(machine, 4, batch_options);
  batch.load(program);
  for (int w = 0; w < batch.lanes(); ++w) {
    batch.writePlane(w, 0, 0, test::iota(static_cast<std::size_t>(n), 1.0, 0.5));
    batch.writePlane(w, 1, 0, test::iota(static_cast<std::size_t>(n), -2.0, 0.25));
  }
  const sim::BatchRunResult batched = batch.run();
  for (const sim::RunStats& lane : batched.runs) {
    EXPECT_EQ(legacy.error, lane.error) << report.format();
    EXPECT_EQ(legacy.fault, lane.fault) << report.format();
    EXPECT_EQ(compiled.error_message, lane.error_message) << report.format();
  }

  // And the SPMD axis: the same mutation replayed through a W=4 lane group
  // (a d=2 hypercube whose four nodes ride one SoA group) and through
  // width-1 groups must agree with an interpreter system on the error
  // verdict and per-node stats — across a restartAll phase boundary.
  const auto runSystem = [&](int lanes, bool use_compiled) {
    sim::NodeSim::Options node_options = batch_options;
    node_options.use_compiled = use_compiled;
    sim::HypercubeSystem system(machine, 2,
                                {.node = node_options, .node_lanes = lanes});
    system.loadAll(program);
    for (int node = 0; node < system.numNodes(); ++node) {
      system.writePlane(node, 0, 0, test::iota(static_cast<std::size_t>(n), 1.0, 0.5));
      system.writePlane(node, 1, 0, test::iota(static_cast<std::size_t>(n), -2.0, 0.25));
    }
    sim::SystemStats stats;
    for (int phase = 0; phase < 2 && !stats.error; ++phase) {
      if (phase > 0) system.restartAll();
      system.runPhase(stats);
    }
    return stats;
  };
  const sim::SystemStats sys_legacy = runSystem(1, false);
  EXPECT_EQ(sys_legacy.error, legacy.error) << report.format();
  for (const int lanes : {1, 4}) {
    SCOPED_TRACE("node_lanes=" + std::to_string(lanes));
    const sim::SystemStats sys = runSystem(lanes, true);
    EXPECT_EQ(sys_legacy.error, sys.error) << report.format();
    EXPECT_EQ(sys_legacy.error_message, sys.error_message);
    ASSERT_EQ(sys_legacy.node_stats.size(), sys.node_stats.size());
    for (std::size_t i = 0; i < sys.node_stats.size(); ++i) {
      EXPECT_EQ(sys_legacy.node_stats[i].total_cycles,
                sys.node_stats[i].total_cycles) << "node " << i;
      EXPECT_EQ(sys_legacy.node_stats[i].total_flops,
                sys.node_stats[i].total_flops) << "node " << i;
      EXPECT_EQ(sys_legacy.node_stats[i].instructions_executed,
                sys.node_stats[i].instructions_executed)
          << "node " << i;
    }
  }

  std::set<sim::FaultKind> predicted;
  for (const sim::VerifyDiagnostic& diag : report.diagnostics) {
    if (diag.severity != check::Severity::kError) continue;
    const sim::FaultKind kind = sim::predictedFault(diag.code);
    if (kind != sim::FaultKind::kNone) predicted.insert(kind);
  }

  if (report.clean()) {
    // No false-clean verdicts: a clean report is a proof of fault-freedom.
    EXPECT_FALSE(legacy.error) << "mutation " << seed % 5 << ": "
                               << legacy.error_message;
    EXPECT_EQ(legacy.fault, sim::FaultKind::kNone);
  }
  if (!predicted.empty()) {
    // Fault-proving errors are proofs too: the run must fault, with one of
    // the predicted kinds.
    EXPECT_TRUE(legacy.error) << report.format();
    EXPECT_EQ(predicted.count(legacy.fault), 1u)
        << "fault " << sim::faultKindName(legacy.fault) << " not predicted:\n"
        << report.format();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VerifierSoundnessTest, ::testing::Range(0, 25));

}  // namespace
}  // namespace nsc
