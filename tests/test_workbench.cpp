// Workbench + visual debugger tests: the assembled Figure-3 system.
#include <gtest/gtest.h>

#include <algorithm>

#include "nsc/nsc.h"

namespace nsc {
namespace {

TEST(WorkbenchTest, SessionToExecutionEndToEnd) {
  Workbench bench;
  const std::string script = R"(
pipeline "triple"
place doublet at 300,200
setop fu4 mul
connect plane0.read fu4.a
const fu4 b 3.0
connect fu4.out plane1.write
dma plane0.read base=0 stride=1 count=8 var=x
dma plane1.write base=0 stride=1 count=8 var=y
seq halt
)";
  const ed::SessionResult session = bench.runSession(script);
  ASSERT_TRUE(session.clean()) << session.status.message();

  const std::vector<double> x{1, 2, 3, 4, 5, 6, 7, 8};
  bench.node().writePlane(0, 0, x);
  const RunOutcome outcome = bench.generateAndRun();
  ASSERT_TRUE(outcome.ok()) << outcome.generation.diagnostics.format()
                            << outcome.run.error_message;
  const auto y = bench.node().readPlane(1, 0, 8);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(y[static_cast<std::size_t>(i)], 3.0 * (i + 1));
  }
}

TEST(WorkbenchTest, GenerationFailureSurfacesDiagnostics) {
  Workbench bench;
  bench.runSession(R"(
pipeline "broken"
place doublet at 300,200
setop fu4 add
connect plane0.read fu4.a
)");
  const RunOutcome outcome = bench.generateAndRun();
  EXPECT_FALSE(outcome.ok());
  EXPECT_TRUE(outcome.generation.diagnostics.hasErrors());
}

TEST(WorkbenchTest, EnsembleRunsAreDeterministicPerReplica) {
  Workbench bench;
  const ed::SessionResult session = bench.runSession(R"(
pipeline "triple"
place doublet at 300,200
setop fu4 mul
connect plane0.read fu4.a
const fu4 b 3.0
connect fu4.out plane1.write
dma plane0.read base=0 stride=1 count=8 var=x
dma plane1.write base=0 stride=1 count=8 var=y
seq halt
)");
  ASSERT_TRUE(session.clean()) << session.status.message();

  const prog::Program program = bench.editor().program();
  const RunOutcome reference = bench.runProgram(program);
  ASSERT_TRUE(reference.ok());

  const EnsembleOutcome ensemble = bench.runEnsemble(program, 8);
  ASSERT_TRUE(ensemble.ok()) << ensemble.generation.diagnostics.format();
  ASSERT_EQ(ensemble.runs.size(), 8u);
  for (const sim::RunStats& run : ensemble.runs) {
    // Same program, fresh memory per replica: every replica's stats match
    // the single-node reference run bit for bit.
    EXPECT_EQ(run.total_cycles, reference.run.total_cycles);
    EXPECT_EQ(run.total_flops, reference.run.total_flops);
    EXPECT_EQ(run.instructions_executed, reference.run.instructions_executed);
    EXPECT_FALSE(run.error);
  }
  // Zero replicas and generation failures degrade gracefully.
  EXPECT_TRUE(bench.runEnsemble(program, 0).runs.empty());
}

// Batched SoA ensembles through the workbench: every replica's stats are
// bit-identical to an interpreter node at every lane width, including
// lanes = 1, an odd replica count (13) that leaves a width-1 remainder, and
// per-replica seeds that force some replicas down a divergent branch.
TEST(WorkbenchTest, EnsembleBatchedMatchesScalarAcrossLaneWidths) {
  Workbench bench;
  const arch::Machine& machine = bench.machine();
  const int n = 32;
  // gate: kMax-reduce plane0, latch the max into cond reg 1, branch to
  // "alt" when it exceeds 0.5; "clean" copies plane0 -> plane1; "alt"
  // doubles plane0 into plane2.  Replica seeds pick the path.
  prog::Program program;
  prog::PipelineDiagram& gate = program.append("gate");
  const arch::AlsId als = machine.config().num_singlets;
  const arch::FuId acc = machine.als(als).fus[1];
  gate.setFuOp(machine, acc, arch::OpCode::kMax);
  gate.connect(machine, arch::Endpoint::planeRead(0),
               arch::Endpoint::fuInput(acc, 0));
  gate.setAccumInput(machine, acc, 1, 0.0);
  gate.cond = prog::CondLatch{acc, 1};
  gate.dmaAt(arch::Endpoint::planeRead(0)) = {
      "", 0, 1, static_cast<std::uint64_t>(n), 1, 0, 0, false};
  gate.seq.op = arch::SeqOp::kBranchIf;
  gate.seq.cond_reg = 1;
  gate.seq.target = 2;
  prog::PipelineDiagram& clean = program.append("clean");
  clean.connect(machine, arch::Endpoint::planeRead(0),
                arch::Endpoint::planeWrite(1));
  for (const arch::Endpoint e :
       {arch::Endpoint::planeRead(0), arch::Endpoint::planeWrite(1)}) {
    prog::DmaSpec& dma = clean.dmaAt(e);
    dma.base = 0;
    dma.stride = 1;
    dma.count = static_cast<std::uint64_t>(n);
  }
  clean.seq.op = arch::SeqOp::kHalt;
  prog::PipelineDiagram& alt = program.append("alt");
  const arch::FuId mul = machine.als(als).fus[0];
  alt.setFuOp(machine, mul, arch::OpCode::kMul);
  alt.connect(machine, arch::Endpoint::planeRead(0),
              arch::Endpoint::fuInput(mul, 0));
  alt.setConstInput(machine, mul, 1, 2.0);
  alt.connect(machine, arch::Endpoint::fuOutput(mul),
              arch::Endpoint::planeWrite(2));
  for (const arch::Endpoint e :
       {arch::Endpoint::planeRead(0), arch::Endpoint::planeWrite(2)}) {
    prog::DmaSpec& dma = alt.dmaAt(e);
    dma.base = 0;
    dma.stride = 1;
    dma.count = static_cast<std::uint64_t>(n);
  }
  alt.seq.op = arch::SeqOp::kHalt;

  const int replicas = 13;
  const auto seed = [n](int replica, sim::ReplicaStore& store) {
    std::vector<double> x(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      x[static_cast<std::size_t>(i)] = 0.001 * (replica + 1) + 0.0001 * i;
    }
    if (replica % 4 == 1) x[0] = 0.75;  // over the latch threshold
    store.writePlane(0, 0, x);
  };

  // The reference: one interpreter node per replica, seeded the same way.
  const CompileOutcome compiled = bench.core().compileProgram(program);
  ASSERT_TRUE(compiled.ok()) << compiled.generation.diagnostics.format();
  std::vector<sim::RunStats> want;
  for (int replica = 0; replica < replicas; ++replica) {
    sim::NodeSim::Options legacy;
    legacy.use_compiled = false;
    sim::NodeSim node(machine, legacy);
    node.load(compiled.program);
    seed(replica, node);
    want.push_back(node.run());
    ASSERT_FALSE(want.back().error) << want.back().error_message;
  }

  for (const int lanes : {1, 4, 8, 16}) {
    SCOPED_TRACE("lanes=" + std::to_string(lanes));
    EnsembleOptions options;
    options.lanes = lanes;
    options.init = seed;
    const EnsembleOutcome got = bench.runEnsemble(program, replicas, options);
    ASSERT_TRUE(got.ok()) << got.generation.diagnostics.format();
    EXPECT_EQ(got.lanes_used, lanes);
    EXPECT_EQ(got.replicas_batched + got.replicas_scalar, replicas);
    if (lanes == 1) {
      EXPECT_EQ(got.replicas_scalar, replicas);
    } else {
      EXPECT_GT(got.replicas_batched, 0);
    }
    ASSERT_EQ(got.runs.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      const sim::RunStats& a = want[i];
      const sim::RunStats& b = got.runs[i];
      EXPECT_EQ(a.total_cycles, b.total_cycles) << "replica " << i;
      EXPECT_EQ(a.total_flops, b.total_flops) << "replica " << i;
      EXPECT_EQ(a.total_hazards, b.total_hazards) << "replica " << i;
      EXPECT_EQ(a.instructions_executed, b.instructions_executed)
          << "replica " << i;
      EXPECT_EQ(a.fu_launches, b.fu_launches) << "replica " << i;
      EXPECT_EQ(a.halted, b.halted) << "replica " << i;
      ASSERT_EQ(a.trace.size(), b.trace.size()) << "replica " << i;
      for (std::size_t t = 0; t < a.trace.size(); ++t) {
        EXPECT_EQ(a.trace[t].name, b.trace[t].name)
            << "replica " << i << " trace " << t;
        EXPECT_EQ(a.trace[t].cycles, b.trace[t].cycles)
            << "replica " << i << " trace " << t;
      }
      // The divergent replicas really took the other path.
      EXPECT_EQ(b.trace.back().name, i % 4 == 1 ? "alt" : "clean")
          << "replica " << i;
    }
  }

  // Lane-width resolution: explicit widths win and clamp to the SoA cap.
  EXPECT_EQ(sim::resolveEnsembleLanes(5), 5);
  EXPECT_EQ(sim::resolveEnsembleLanes(1), 1);
  EXPECT_EQ(sim::resolveEnsembleLanes(1000), sim::ReplicaBatch::kMaxLanes);
}

TEST(WorkbenchTest, MakeSystemSharesTheWorkbenchPool) {
  exec::ThreadPool pool(exec::ExecOptions{2});
  Workbench bench({}, &pool);
  EXPECT_EQ(&bench.pool(), &pool);
  sim::HypercubeSystem system = bench.makeSystem(2);
  EXPECT_EQ(system.numNodes(), 4);
  EXPECT_EQ(&system.pool(), &pool);
  // Phases on the workbench-built system reuse the injected pool's workers.
  ASSERT_TRUE(bench.runSession("pipeline \"noop\"\nseq halt\n").clean());
  mc::Generator generator(bench.machine());
  const mc::GenerateResult gen = generator.generate(bench.editor().program());
  ASSERT_TRUE(gen.ok) << gen.diagnostics.format();
  system.loadAll(gen.exe);
  const std::uint64_t created = pool.threadsCreated();
  sim::SystemStats stats;
  system.runPhase(stats);
  EXPECT_FALSE(stats.error) << stats.error_message;
  EXPECT_EQ(pool.threadsCreated(), created);
}

TEST(EditorForProgramTest, ImportsHandBuiltProgram) {
  arch::Machine machine;
  cfd::JacobiBuildOptions options;
  options.grid = {8, 8, 8};
  options.h = 1.0 / 7.0;
  const cfd::JacobiProgram jacobi(machine, options);
  ed::Editor editor = editorForProgram(machine, jacobi.program());
  EXPECT_EQ(editor.pipelineCount(),
            static_cast<int>(jacobi.program().size()));
  EXPECT_EQ(editor.program().pipelines, jacobi.program().pipelines);
  // The sweep diagram renders with its operations visible (Figure 11).
  editor.jumpTo(0);
  const std::string fig11 = renderDiagramAscii(editor);
  EXPECT_NE(fig11.find("add"), std::string::npos);
  EXPECT_NE(fig11.find("max"), std::string::npos);
  EXPECT_NE(fig11.find("cmplt"), std::string::npos);
}

TEST(DebuggerTest, CapturesAndDescribesFrames) {
  Workbench bench;
  bench.runSession(R"(
pipeline "inc"
place doublet at 300,200
setop fu4 add
connect plane0.read fu4.a
const fu4 b 1.0
connect fu4.out plane1.write
dma plane0.read base=0 stride=1 count=4 var=x
dma plane1.write base=0 stride=1 count=4 var=y
seq halt
)");
  const std::vector<double> x{10, 20, 30, 40};
  bench.node().writePlane(0, 0, x);

  VisualDebugger debugger(bench.machine(), bench.editor().program());
  debugger.attach(bench.node());
  const RunOutcome outcome = bench.generateAndRun();
  ASSERT_TRUE(outcome.ok());
  ASSERT_FALSE(debugger.frames().empty());

  // Frame 0: the plane read emits element 0 (value 10).
  const std::string desc = debugger.describeFrame(debugger.frames()[0]);
  EXPECT_NE(desc.find("plane0.read"), std::string::npos);
  EXPECT_NE(desc.find("10"), std::string::npos);
  EXPECT_NE(desc.find("[el 0]"), std::string::npos);

  // Annotated diagram shows the pipeline plus values.
  const std::string annotated =
      debugger.annotatedDiagram(debugger.frames()[2]);
  EXPECT_NE(annotated.find("add"), std::string::npos);
  EXPECT_NE(annotated.find("cycle 2 values"), std::string::npos);

  // Endpoint history shows the add unit's output going valid after its
  // pipeline latency, with incremented values.
  const arch::FuId fu = bench.machine().als(bench.machine().config().num_singlets).fus[0];
  const std::string history =
      debugger.endpointHistory(arch::Endpoint::fuOutput(fu));
  EXPECT_NE(history.find("11"), std::string::npos);
  EXPECT_NE(history.find("41"), std::string::npos);
}

TEST(DebuggerTest, DescribeAllFramesMatchesFrameOrder) {
  exec::ThreadPool pool(exec::ExecOptions{3});
  Workbench bench({}, &pool);
  bench.runSession(R"(
pipeline "inc"
place doublet at 300,200
setop fu4 add
connect plane0.read fu4.a
const fu4 b 1.0
connect fu4.out plane1.write
dma plane0.read base=0 stride=1 count=4 var=x
dma plane1.write base=0 stride=1 count=4 var=y
seq halt
)");
  bench.node().writePlane(0, 0, std::vector<double>{10, 20, 30, 40});
  VisualDebugger debugger(bench.machine(), bench.editor().program());
  debugger.attach(bench.node());
  ASSERT_TRUE(bench.generateAndRun().ok());
  ASSERT_FALSE(debugger.frames().empty());

  const std::vector<std::string> all = debugger.describeAllFrames(&pool);
  ASSERT_EQ(all.size(), debugger.frames().size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i], debugger.describeFrame(debugger.frames()[i]))
        << "frame " << i;
  }
}

TEST(DebuggerTest, SamplingAndBoundsRespected) {
  Workbench bench;
  bench.runSession(R"(
pipeline "copy"
connect plane0.read plane1.write
dma plane0.read base=0 stride=1 count=64 var=x
dma plane1.write base=0 stride=1 count=64 var=y
seq halt
)");
  bench.node().writePlane(0, 0, std::vector<double>(64, 1.0));
  DebuggerOptions options;
  options.sample_every = 4;
  options.max_frames = 8;
  VisualDebugger debugger(bench.machine(), bench.editor().program(), options);
  debugger.attach(bench.node());
  const RunOutcome outcome = bench.generateAndRun();
  ASSERT_TRUE(outcome.ok());
  EXPECT_LE(debugger.frames().size(), 8u);
  for (const sim::TraceFrame& f : debugger.frames()) {
    EXPECT_EQ(f.cycle % 4, 0u);
  }
}

TEST(DebuggerTest, PinpointsStreamGaps) {
  // The Section-6 promise: timing bugs visible as invalid stretches in an
  // endpoint history.  Use a shift/delay stream whose deep tap starts two
  // cycles late.
  Workbench bench;
  bench.runSession(R"(
pipeline "gap"
place doublet at 300,200
connect plane0.read sd0.in
sd 0 taps=0,2
setop fu4 sub
connect sd0.tap0 fu4.a
connect sd0.tap1 fu4.b
connect fu4.out plane1.write
dma plane0.read base=0 stride=1 count=8 var=x
dma plane1.write base=0 stride=1 count=6 var=d
seq halt
)");
  bench.node().writePlane(0, 0, std::vector<double>{1, 2, 3, 4, 5, 6, 7, 8});
  VisualDebugger debugger(bench.machine(), bench.editor().program());
  debugger.attach(bench.node());
  const RunOutcome outcome = bench.generateAndRun();
  ASSERT_TRUE(outcome.ok()) << outcome.generation.diagnostics.format();
  const std::string history =
      debugger.endpointHistory(arch::Endpoint::sdOutput(0, 1));
  // The deep tap shows '-' (invalid) in its first cycles.
  EXPECT_NE(history.find(" -"), std::string::npos);
}

// The shared session chunker: the batches concatenate back to the script,
// and their line counts differ by at most one.
TEST(ScriptsTest, Figure11SessionChunksAreLineBalanced) {
  const std::string script = figure11SessionScript();
  for (const int chunks : {1, 4, 8, 13}) {
    const std::vector<std::string> batches = figure11SessionChunks(chunks);
    ASSERT_EQ(batches.size(), static_cast<std::size_t>(chunks));
    std::string joined;
    std::vector<std::ptrdiff_t> lines;
    for (const std::string& batch : batches) {
      joined += batch;
      lines.push_back(std::count(batch.begin(), batch.end(), '\n'));
    }
    EXPECT_EQ(joined, script) << chunks << " chunks";
    const auto [fewest, most] = std::minmax_element(lines.begin(), lines.end());
    EXPECT_LE(*most - *fewest, 1) << chunks << " chunks";
    EXPECT_GE(*fewest, 1) << chunks << " chunks";
  }
}

}  // namespace
}  // namespace nsc
