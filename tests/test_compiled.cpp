// Golden cycle-exactness tests for compiled execution.
//
// Compiled execution (LaneState::executeCompiledBatch, sim/lane_state.cpp:
// the instruction's value program) must be indistinguishable from the
// legacy per-cycle interpreter (NodeSim::execute): identical
// per-instruction cycles/flops/hazards, identical fu_launches, identical
// memory-plane and cache contents, identical error behavior.  These tests
// run the same executables through both — NodeOptions::use_compiled selects
// the executor — and compare everything observable, on the paper's
// Figure-11 Jacobi workload and on targeted corner cases (condition latch,
// accumulator drain, timeout, DMA faults, truncated runs, values carried by
// invalid tokens), at one lane (a NodeSim) and at W lanes (a ReplicaBatch).
// A traced NodeSim runs the interpreter; the TracedRun tests pin its frames
// to the simulated cycles and its results to an untraced node's.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "arch/machine.h"
#include "arch/microword_spec.h"
#include "cfd/jacobi_program.h"
#include "cfd/poisson.h"
#include "microcode/generator.h"
#include "program/program.h"
#include "sim/batch.h"
#include "sim/compiled.h"
#include "sim/hypercube.h"
#include "sim/node.h"
#include "sim/program_cache.h"
#include "sim/value_program.h"
#include "sim/verify.h"
#include "test_helpers.h"

namespace nsc {
namespace {

using arch::Endpoint;
using arch::Machine;
using arch::OpCode;
using sim::NodeSim;

sim::NodeSim::Options legacyOptions() {
  sim::NodeSim::Options options;
  options.use_compiled = false;
  return options;
}

// Asserts that two runs match in every stat the simulator reports.
void expectIdenticalRuns(const sim::RunStats& legacy,
                         const sim::RunStats& compiled) {
  EXPECT_EQ(legacy.error, compiled.error);
  EXPECT_EQ(legacy.error_message, compiled.error_message);
  EXPECT_EQ(legacy.fault, compiled.fault);
  EXPECT_EQ(legacy.halted, compiled.halted);
  EXPECT_EQ(legacy.total_cycles, compiled.total_cycles);
  EXPECT_EQ(legacy.total_flops, compiled.total_flops);
  EXPECT_EQ(legacy.total_hazards, compiled.total_hazards);
  EXPECT_EQ(legacy.instructions_executed, compiled.instructions_executed);
  EXPECT_EQ(legacy.fu_launches, compiled.fu_launches);
  ASSERT_EQ(legacy.trace.size(), compiled.trace.size());
  for (std::size_t i = 0; i < legacy.trace.size(); ++i) {
    const sim::InstrStats& a = legacy.trace[i];
    const sim::InstrStats& b = compiled.trace[i];
    EXPECT_EQ(a.instruction, b.instruction) << "trace entry " << i;
    EXPECT_EQ(a.name, b.name) << "trace entry " << i;
    EXPECT_EQ(a.cycles, b.cycles) << "trace entry " << i << " (" << a.name << ")";
    EXPECT_EQ(a.flops, b.flops) << "trace entry " << i << " (" << a.name << ")";
    EXPECT_EQ(a.hazards, b.hazards)
        << "trace entry " << i << " (" << a.name << ")";
    EXPECT_EQ(a.error, b.error) << "trace entry " << i;
    EXPECT_EQ(a.error_message, b.error_message) << "trace entry " << i;
    EXPECT_EQ(a.fault, b.fault) << "trace entry " << i;
  }
}

void expectIdenticalMemory(const Machine& machine, const NodeSim& legacy,
                           const NodeSim& compiled, std::uint64_t plane_words) {
  const arch::MachineConfig& cfg = machine.config();
  for (arch::PlaneId p = 0; p < cfg.num_memory_planes; ++p) {
    EXPECT_EQ(legacy.readPlane(p, 0, plane_words),
              compiled.readPlane(p, 0, plane_words))
        << "plane " << p;
  }
  std::vector<double> legacy_cache(cfg.cacheWords());
  std::vector<double> compiled_cache(cfg.cacheWords());
  for (arch::CacheId c = 0; c < cfg.num_caches; ++c) {
    for (int buf = 0; buf < cfg.cache_buffers; ++buf) {
      legacy.readCacheInto(c, buf, 0, legacy_cache);
      compiled.readCacheInto(c, buf, 0, compiled_cache);
      EXPECT_EQ(legacy_cache, compiled_cache)
          << "cache " << c << " buffer " << buf;
    }
  }
}

// Runs the Figure-11 Jacobi workload through both engines and compares
// everything observable.  Parameterized over the build options so the
// convergence pipeline (condition latch + accumulator + branches) and the
// fixed-sweep pipeline (pure blocked steady state) are both covered.
void runJacobiGolden(cfd::JacobiBuildOptions options) {
  const Machine machine(options.restricted
                            ? arch::MachineConfig::restrictedSubset()
                            : arch::MachineConfig{});
  const cfd::JacobiProgram jacobi(machine, options);
  const cfd::PoissonProblem problem = cfd::PoissonProblem::manufactured(
      options.grid.nx, options.grid.ny, options.grid.nz);

  mc::Generator generator(machine);
  const mc::GenerateResult gen = generator.generate(jacobi.program());
  ASSERT_TRUE(gen.ok) << gen.diagnostics.format();

  NodeSim legacy(machine, legacyOptions());
  NodeSim compiled(machine);
  legacy.load(gen.exe);
  compiled.load(gen.exe);
  jacobi.load(legacy, problem);
  jacobi.load(compiled, problem);

  const sim::RunStats legacy_run = legacy.run();
  const sim::RunStats compiled_run = compiled.run();
  ASSERT_FALSE(legacy_run.error) << legacy_run.error_message;

  expectIdenticalRuns(legacy_run, compiled_run);
  const std::uint64_t words =
      static_cast<std::uint64_t>(options.grid.N()) +
      2 * static_cast<std::uint64_t>(jacobi.layout().pad);
  expectIdenticalMemory(machine, legacy, compiled, words);
  EXPECT_EQ(jacobi.residual(legacy), jacobi.residual(compiled));
  EXPECT_EQ(legacy.pc(), compiled.pc());
  EXPECT_EQ(legacy.halted(), compiled.halted());
  for (int reg = 0; reg < 4; ++reg) {
    EXPECT_EQ(legacy.cond(reg), compiled.cond(reg)) << "cond reg " << reg;
  }
}

TEST(CompiledGolden, Figure11JacobiConvergenceMode) {
  cfd::JacobiBuildOptions options;
  options.grid = {8, 8, 8};
  options.h = 1.0 / 7.0;
  options.convergence_mode = true;
  options.tol = 1e-3;
  runJacobiGolden(options);
}

TEST(CompiledGolden, Figure11JacobiFixedSweeps) {
  cfd::JacobiBuildOptions options;
  options.grid = {8, 8, 8};
  options.h = 1.0 / 7.0;
  options.convergence_mode = false;
  options.fixed_sweeps = 6;
  runJacobiGolden(options);
}

TEST(CompiledGolden, RestrictedSubsetModel) {
  cfd::JacobiBuildOptions options;
  options.grid = {6, 6, 6};
  options.h = 1.0 / 5.0;
  options.convergence_mode = false;
  options.fixed_sweeps = 4;
  options.restricted = true;
  runJacobiGolden(options);
}

// Read-only instruction (no write engines): completion goes through the
// drain counter, which the compiled engine advances analytically inside
// steady-state blocks — the accumulated residual, the cycle count, and the
// latched condition must all match the interpreter's per-cycle accounting.
TEST(CompiledGolden, ReadOnlyDrainWithAccumulatorAndLatch) {
  const Machine machine;
  const int n = 200;  // long enough that blocked stepping engages
  prog::Program p;
  prog::PipelineDiagram& d = p.append("reduce");
  const arch::AlsId als = machine.config().num_singlets;
  const arch::FuId acc = machine.als(als).fus[1];  // min/max capable slot
  d.setFuOp(machine, acc, OpCode::kMax);
  d.connect(machine, Endpoint::planeRead(0), Endpoint::fuInput(acc, 0));
  d.setAccumInput(machine, acc, 1, 0.0);
  d.cond = prog::CondLatch{acc, 2};
  d.dmaAt(Endpoint::planeRead(0)) = {"", 0, 1, n, 1, 0, 0, false};
  d.seq.op = arch::SeqOp::kHalt;

  mc::Generator generator(machine);
  const mc::GenerateResult gen = generator.generate(p);
  ASSERT_TRUE(gen.ok) << gen.diagnostics.format();

  NodeSim legacy(machine, legacyOptions());
  NodeSim compiled(machine);
  legacy.load(gen.exe);
  compiled.load(gen.exe);
  legacy.writePlane(0, 0, test::iota(n, 0.25, 0.25));
  compiled.writePlane(0, 0, test::iota(n, 0.25, 0.25));
  const sim::RunStats legacy_run = legacy.run();
  const sim::RunStats compiled_run = compiled.run();
  ASSERT_FALSE(legacy_run.error) << legacy_run.error_message;
  expectIdenticalRuns(legacy_run, compiled_run);
  EXPECT_EQ(legacy.cond(2), compiled.cond(2));
  EXPECT_TRUE(compiled.cond(2));  // max = 50 > 0.5
}

// A traced NodeSim runs the interpreter, which builds the visual debugger's
// frames.  Its run must hand the sink exactly one frame per simulated cycle,
// in (instruction, cycle) order, and end where an untraced node running
// value programs ends: the same RunStats, planes, caches, condition
// registers and sequencer state.  Returns the frames.
std::vector<sim::TraceFrame> runTracedAgainstUntraced(
    const Machine& machine, const mc::Executable& exe,
    const std::function<void(NodeSim&)>& seed, std::uint64_t plane_words) {
  NodeSim traced(machine);
  NodeSim untraced(machine);
  traced.load(exe);
  untraced.load(exe);
  seed(traced);
  seed(untraced);
  std::vector<sim::TraceFrame> frames;
  traced.setTraceSink(
      [&frames](const sim::TraceFrame& f) { frames.push_back(f); });
  const sim::RunStats traced_run = traced.run();
  const sim::RunStats untraced_run = untraced.run();
  EXPECT_FALSE(untraced_run.error) << untraced_run.error_message;

  expectIdenticalRuns(untraced_run, traced_run);
  expectIdenticalMemory(machine, untraced, traced, plane_words);
  EXPECT_EQ(untraced.pc(), traced.pc());
  EXPECT_EQ(untraced.halted(), traced.halted());
  for (int reg = 0; reg < 4; ++reg) {
    EXPECT_EQ(untraced.cond(reg), traced.cond(reg)) << "cond reg " << reg;
  }

  EXPECT_EQ(frames.size(), traced_run.total_cycles);
  std::size_t f = 0;
  for (const sim::InstrStats& instr : traced_run.trace) {
    for (std::uint64_t c = 0; c < instr.cycles && f < frames.size();
         ++c, ++f) {
      const sim::TraceFrame& frame = frames[f];
      if (frame.instruction != instr.instruction || frame.cycle != c ||
          frame.source_tokens.size() != machine.sources().size()) {
        ADD_FAILURE() << "frame " << f << " is (instruction "
                      << frame.instruction << ", cycle " << frame.cycle
                      << "), expected (" << instr.instruction << ", " << c
                      << ")";
        return frames;
      }
    }
  }
  return frames;
}

// A two-unit scale pipeline: the add unit's valid output tokens, frame by
// frame, are exactly the words its write engine stores.
TEST(TracedRun, ScalePipelineOneFramePerCycle) {
  const Machine machine;
  const int n = 24;
  prog::Program p;
  prog::PipelineDiagram& d = p.append("scale");
  const arch::AlsId als = machine.config().num_singlets;
  const arch::FuId mul = machine.als(als).fus[0];
  const arch::FuId add = machine.als(als).fus[1];
  d.setFuOp(machine, mul, OpCode::kMul);
  d.connect(machine, Endpoint::planeRead(0), Endpoint::fuInput(mul, 0));
  d.setConstInput(machine, mul, 1, 3.0);
  d.setFuOp(machine, add, OpCode::kAdd);
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

  const std::vector<double> a = test::iota(n, 1.0, 0.5);
  const std::vector<double> b = test::iota(n, -2.0, 0.125);
  const std::vector<sim::TraceFrame> frames = runTracedAgainstUntraced(
      machine, gen.exe,
      [&](NodeSim& node) {
        node.writePlane(0, 0, a);
        node.writePlane(1, 0, b);
      },
      n);

  const auto add_out =
      static_cast<std::size_t>(machine.sourceIndex(Endpoint::fuOutput(add)));
  std::vector<double> emitted;
  for (const sim::TraceFrame& frame : frames) {
    const sim::Token& tok = frame.source_tokens[add_out];
    if (tok.valid) emitted.push_back(tok.value);
  }
  std::vector<double> stored(n);
  for (int i = 0; i < n; ++i) stored[i] = 3.0 * a[i] + b[i];  // exact
  EXPECT_EQ(emitted, stored);
}

// The Figure-11 program in fixed-sweep mode: shift/delay taps, the
// residual accumulator and the condition latch, over every instruction.
TEST(TracedRun, Figure11FixedSweepsOneFramePerCycle) {
  cfd::JacobiBuildOptions options;
  options.grid = {8, 8, 8};
  options.h = 1.0 / 7.0;
  options.convergence_mode = false;
  options.fixed_sweeps = 2;
  const Machine machine;
  const cfd::JacobiProgram jacobi(machine, options);
  const cfd::PoissonProblem problem = cfd::PoissonProblem::manufactured(
      options.grid.nx, options.grid.ny, options.grid.nz);
  mc::Generator generator(machine);
  const mc::GenerateResult gen = generator.generate(jacobi.program());
  ASSERT_TRUE(gen.ok) << gen.diagnostics.format();
  const std::uint64_t words =
      static_cast<std::uint64_t>(options.grid.N()) +
      2 * static_cast<std::uint64_t>(jacobi.layout().pad);
  const std::vector<sim::TraceFrame> frames = runTracedAgainstUntraced(
      machine, gen.exe,
      [&](NodeSim& node) { jacobi.load(node, problem); }, words);
  EXPECT_EQ(frames.size(), 1675u);
}

// A DMA pattern that provably walks past the simulated plane capacity must
// fault identically: detected at compile time for the compiled engine, at
// engine setup for the interpreter, with the same message.
TEST(CompiledGolden, DmaCapacityFaultMatches) {
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

  mc::Generator generator(machine);
  const mc::GenerateResult gen = generator.generate(p);
  ASSERT_TRUE(gen.ok) << gen.diagnostics.format();

  NodeSim legacy(machine, legacyOptions());
  NodeSim compiled(machine);
  legacy.load(gen.exe);
  compiled.load(gen.exe);
  const sim::RunStats legacy_run = legacy.run();
  const sim::RunStats compiled_run = compiled.run();
  ASSERT_TRUE(legacy_run.error);
  expectIdenticalRuns(legacy_run, compiled_run);
}

// An instruction that cannot complete (write engine expecting more tokens
// than the pipeline delivers) must time out with identical stats.
TEST(CompiledGolden, TimeoutMatches) {
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

  mc::Generator generator(machine);
  // The checker (correctly) rejects the starved stream; bypass it — the
  // point is that both engines time out identically on bad microcode.
  mc::GenerateOptions gen_options;
  gen_options.run_checker = false;
  const mc::GenerateResult gen = generator.generate(p, gen_options);
  ASSERT_TRUE(gen.ok) << gen.diagnostics.format();

  sim::NodeSim::Options legacy_options = legacyOptions();
  legacy_options.max_cycles_per_instruction = 500;
  sim::NodeSim::Options compiled_options;
  compiled_options.max_cycles_per_instruction = 500;
  NodeSim legacy(machine, legacy_options);
  NodeSim compiled(machine, compiled_options);
  legacy.load(gen.exe);
  compiled.load(gen.exe);
  const sim::RunStats legacy_run = legacy.run();
  const sim::RunStats compiled_run = compiled.run();
  ASSERT_TRUE(legacy_run.error);
  EXPECT_EQ(legacy_run.trace.back().cycles, 500u);
  expectIdenticalRuns(legacy_run, compiled_run);
}

// SPMD sharing: loadAll compiles once and every node aliases the same
// immutable image; the executable fingerprint survives the handoff.
TEST(CompiledProgram, SharedAcrossHypercubeNodes) {
  const Machine machine;
  cfd::JacobiBuildOptions options;
  options.grid = {6, 6, 6};
  options.h = 0.2;
  options.convergence_mode = false;
  options.fixed_sweeps = 2;
  const cfd::JacobiProgram jacobi(machine, options);
  mc::Generator generator(machine);
  const mc::GenerateResult gen = generator.generate(jacobi.program());
  ASSERT_TRUE(gen.ok) << gen.diagnostics.format();

  // A private cache witnesses the sharing: loading all 8 nodes costs one
  // miss and nothing else — no node compiles its own image.
  sim::CompiledProgramCache cache;
  sim::HypercubeSystem system(machine, 3, {.node_lanes = 1}, nullptr, &cache);
  system.loadAll(gen.exe);
  const sim::CompiledProgramCache::Stats loaded = cache.stats();
  EXPECT_EQ(loaded.misses, 1u);
  EXPECT_EQ(loaded.hits, 0u);
  EXPECT_EQ(loaded.entries, 1u);
  bool hit = false;
  const auto image = cache.get(machine, gen.exe, &hit);
  EXPECT_TRUE(hit);
  ASSERT_NE(image, nullptr);
  EXPECT_EQ(image->fingerprint, gen.exe.fingerprint());
  sim::SystemStats stats;
  system.runPhase(stats);
  EXPECT_FALSE(stats.error) << stats.error_message;
  EXPECT_EQ(cache.stats().misses, 1u);

  // ... and a re-generated identical program fingerprints identically,
  // while a different program does not.
  EXPECT_EQ(generator.generate(jacobi.program()).exe.fingerprint(),
            gen.exe.fingerprint());
  cfd::JacobiBuildOptions other = options;
  other.fixed_sweeps = 4;
  const cfd::JacobiProgram jacobi2(machine, other);
  EXPECT_NE(generator.generate(jacobi2.program()).exe.fingerprint(),
            gen.exe.fingerprint());
}

// ---------------------------------------------------------------------------
// Batched SoA goldens (sim/batch.h): a ReplicaBatch must be
// indistinguishable, lane by lane, from the same replicas run one at a time
// on the legacy interpreter — every RunStats field, every trace entry,
// every plane word, every cache buffer.
// ---------------------------------------------------------------------------

// Runs `gen` through a ReplicaBatch of `lanes` lanes and through `lanes`
// interpreter NodeSims (an oracle independent of value programs), seeding
// lane w on both paths through the same ReplicaStore callback, then pins
// everything observable identical.
void runBatchGolden(const Machine& machine, const mc::GenerateResult& gen,
                    int lanes, std::uint64_t plane_words,
                    const std::function<void(int, sim::ReplicaStore&)>& seed,
                    sim::NodeSim::Options options = {},
                    sim::BatchRunResult* result_out = nullptr) {
  const auto program = sim::CompiledProgram::compile(machine, gen.exe);
  ASSERT_NE(program, nullptr);
  sim::ReplicaBatch batch(machine, lanes, options);
  batch.load(program);
  sim::NodeSim::Options oracle_options = options;
  oracle_options.use_compiled = false;
  std::vector<std::unique_ptr<NodeSim>> oracles;
  for (int w = 0; w < lanes; ++w) {
    auto node = std::make_unique<NodeSim>(machine, oracle_options);
    node->load(program);
    if (seed) {
      seed(w, *node);
      sim::ReplicaBatch::LaneStore lane_store(batch, w);
      seed(w, lane_store);
    }
    oracles.push_back(std::move(node));
  }
  sim::BatchRunResult result = batch.run();
  ASSERT_EQ(result.runs.size(), static_cast<std::size_t>(lanes));
  const arch::MachineConfig& cfg = machine.config();
  std::vector<double> cache_ref(cfg.cacheWords());
  for (int w = 0; w < lanes; ++w) {
    SCOPED_TRACE("lane " + std::to_string(w) + " of " + std::to_string(lanes));
    const sim::RunStats oracle_run = oracles[static_cast<std::size_t>(w)]->run();
    expectIdenticalRuns(oracle_run, result.runs[static_cast<std::size_t>(w)]);
    for (arch::PlaneId pl = 0; pl < cfg.num_memory_planes; ++pl) {
      EXPECT_EQ(oracles[static_cast<std::size_t>(w)]->readPlane(pl, 0,
                                                                plane_words),
                batch.readPlane(w, pl, 0, plane_words))
          << "plane " << pl;
    }
    for (arch::CacheId c = 0; c < cfg.num_caches; ++c) {
      for (int buf = 0; buf < cfg.cache_buffers; ++buf) {
        oracles[static_cast<std::size_t>(w)]->readCacheInto(c, buf, 0,
                                                            cache_ref);
        EXPECT_EQ(cache_ref, batch.readCache(w, c, buf, 0, cfg.cacheWords()))
            << "cache " << c << " buffer " << buf;
      }
    }
  }
  if (result_out != nullptr) *result_out = std::move(result);
}

// Mirrors JacobiProgram::load through the ReplicaStore interface, with the
// right-hand side scaled per lane so every lane computes different data.
std::function<void(int, sim::ReplicaStore&)> jacobiSeed(
    const cfd::JacobiProgram& jacobi, const cfd::PoissonProblem& problem,
    const cfd::JacobiBuildOptions& options) {
  return [&jacobi, &problem, options](int w, sim::ReplicaStore& store) {
    const cfd::JacobiLayout& layout = jacobi.layout();
    const auto pad = static_cast<std::uint64_t>(layout.pad);
    std::vector<double> f = problem.f;
    for (double& v : f) v *= 1.0 + 0.25 * w;
    for (const arch::PlaneId pl : layout.u_a) store.writePlane(pl, pad, problem.u0);
    for (const arch::PlaneId pl : layout.u_b) store.writePlane(pl, pad, problem.u0);
    store.writePlane(layout.f_plane, pad, f);
    if (layout.mask_plane >= 0) {
      store.writePlane(layout.mask_plane, pad, options.grid.interiorMask());
    }
    if (layout.res_plane >= 0) {
      const double zero[] = {0.0};
      store.writePlane(layout.res_plane, 0, zero);
    }
  };
}

// The two-FU scale pipeline over per-lane distinct vectors, at every lane
// width the ensemble engine uses in practice (1 = a NodeSim's width,
// 13 = odd width such as an ensemble remainder, 8/16 = the SIMD sweet
// spots).
TEST(BatchedGolden, ScaleAddLaneWidths) {
  const Machine machine;
  const int n = 96;
  prog::Program p;
  prog::PipelineDiagram& d = p.append("scale");
  const arch::AlsId als = machine.config().num_singlets;
  const arch::FuId mul = machine.als(als).fus[0];
  const arch::FuId add = machine.als(als).fus[1];
  d.setFuOp(machine, mul, OpCode::kMul);
  d.connect(machine, Endpoint::planeRead(0), Endpoint::fuInput(mul, 0));
  d.setConstInput(machine, mul, 1, 3.0);
  d.setFuOp(machine, add, OpCode::kAdd);
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

  const auto seed = [n](int w, sim::ReplicaStore& store) {
    store.writePlane(0, 0, test::iota(n, 1.0 + w, 0.5));
    store.writePlane(1, 0, test::iota(n, -2.0 - 0.5 * w, 0.125));
  };
  for (const int lanes : {1, 4, 8, 13, 16}) {
    runBatchGolden(machine, gen, lanes, n, seed);
  }
}

// Read-only drain + accumulator + condition latch: the accumulator value is
// the one piece of per-lane state that feeds back into launch staging, and
// the drain counter finishes the instruction with no write engine.
TEST(BatchedGolden, AccumulatorLatchLaneWidths) {
  const Machine machine;
  const int n = 200;
  prog::Program p;
  prog::PipelineDiagram& d = p.append("reduce");
  const arch::AlsId als = machine.config().num_singlets;
  const arch::FuId acc = machine.als(als).fus[1];
  d.setFuOp(machine, acc, OpCode::kMax);
  d.connect(machine, Endpoint::planeRead(0), Endpoint::fuInput(acc, 0));
  d.setAccumInput(machine, acc, 1, 0.0);
  d.cond = prog::CondLatch{acc, 2};
  d.dmaAt(Endpoint::planeRead(0)) = {"", 0, 1, n, 1, 0, 0, false};
  d.seq.op = arch::SeqOp::kHalt;

  mc::Generator generator(machine);
  const mc::GenerateResult gen = generator.generate(p);
  ASSERT_TRUE(gen.ok) << gen.diagnostics.format();

  const auto seed = [n](int w, sim::ReplicaStore& store) {
    store.writePlane(0, 0, test::iota(n, 0.25 * (w + 1), 0.25));
  };
  for (const int lanes : {4, 8}) {
    runBatchGolden(machine, gen, lanes, n, seed);
  }
}

// The Figure-11 Jacobi fixed-sweep workload (shift/delay taps, caches,
// kLoop sequencing, plane ping-pong) with a per-lane scaled problem: the
// full production pipeline stays bit-identical through the SoA path.
TEST(BatchedGolden, Figure11JacobiFixedSweepsLanes8) {
  const Machine machine;
  cfd::JacobiBuildOptions options;
  options.grid = {8, 8, 8};
  options.h = 1.0 / 7.0;
  options.convergence_mode = false;
  options.fixed_sweeps = 4;
  const cfd::JacobiProgram jacobi(machine, options);
  const cfd::PoissonProblem problem = cfd::PoissonProblem::manufactured(
      options.grid.nx, options.grid.ny, options.grid.nz);
  mc::Generator generator(machine);
  const mc::GenerateResult gen = generator.generate(jacobi.program());
  ASSERT_TRUE(gen.ok) << gen.diagnostics.format();

  const std::uint64_t words = static_cast<std::uint64_t>(options.grid.N()) +
                              2 * static_cast<std::uint64_t>(jacobi.layout().pad);
  runBatchGolden(machine, gen, 8, words, jacobiSeed(jacobi, problem, options));
}

// Builds the three-instruction divergence harness: instruction 0 reduces
// plane0 through a kMax accumulator, latches the max into cond reg 1, and
// branches to instruction 2 when it exceeds 0.5; instruction 1 (the
// fall-through) copies plane0 to plane1 and halts.  Instruction 2 is left
// to the caller.
prog::Program divergenceProgram(const Machine& machine, int n) {
  prog::Program p;
  prog::PipelineDiagram& gate = p.append("gate");
  const arch::AlsId als = machine.config().num_singlets;
  const arch::FuId acc = machine.als(als).fus[1];
  gate.setFuOp(machine, acc, OpCode::kMax);
  gate.connect(machine, Endpoint::planeRead(0), Endpoint::fuInput(acc, 0));
  gate.setAccumInput(machine, acc, 1, 0.0);
  gate.cond = prog::CondLatch{acc, 1};
  gate.dmaAt(Endpoint::planeRead(0)) = {"", 0, 1, static_cast<std::uint64_t>(n),
                                        1, 0, 0, false};
  gate.seq.op = arch::SeqOp::kBranchIf;
  gate.seq.cond_reg = 1;
  gate.seq.target = 2;

  prog::PipelineDiagram& clean = p.append("clean");
  clean.connect(machine, Endpoint::planeRead(0), Endpoint::planeWrite(1));
  for (const Endpoint e : {Endpoint::planeRead(0), Endpoint::planeWrite(1)}) {
    prog::DmaSpec& dma = clean.dmaAt(e);
    dma.base = 0;
    dma.stride = 1;
    dma.count = static_cast<std::uint64_t>(n);
  }
  clean.seq.op = arch::SeqOp::kHalt;
  return p;
}

// Divergence with a faulting branch target: one lane's latched condition
// sends it to an instruction whose write engine is starved, so that lane
// times out mid-run on its own NodeSim while the other lanes complete
// clean — exactly as the same replicas behave one at a time.
TEST(BatchedGolden, DivergenceOneLaneFaultsRestCompleteClean) {
  const Machine machine;
  const int n = 32;
  prog::Program p = divergenceProgram(machine, n);
  prog::PipelineDiagram& starved = p.append("starved");
  starved.connect(machine, Endpoint::planeRead(0), Endpoint::planeWrite(1));
  prog::DmaSpec read;
  read.base = 0;
  read.stride = 1;
  read.count = 4;
  prog::DmaSpec write = read;
  write.count = 8;  // four tokens never arrive: guaranteed timeout
  starved.dmaAt(Endpoint::planeRead(0)) = read;
  starved.dmaAt(Endpoint::planeWrite(1)) = write;
  starved.seq.op = arch::SeqOp::kHalt;

  mc::Generator generator(machine);
  mc::GenerateOptions gen_options;
  gen_options.run_checker = false;  // the starved stream is the point
  const mc::GenerateResult gen = generator.generate(p, gen_options);
  ASSERT_TRUE(gen.ok) << gen.diagnostics.format();

  // Lane 2 sees a value above the latch threshold and branches to the
  // faulting instruction; every other lane stays below and falls through.
  const auto seed = [n](int w, sim::ReplicaStore& store) {
    std::vector<double> x = test::iota(n, 0.001 * (w + 1), 0.0001);
    if (w == 2) x[static_cast<std::size_t>(n) / 2] = 1.0;
    store.writePlane(0, 0, x);
  };
  sim::NodeSim::Options options;
  options.max_cycles_per_instruction = 500;
  sim::BatchRunResult result;
  runBatchGolden(machine, gen, 8, n, seed, options, &result);
  // Exactly the diverged lane left the batch and faulted; the
  // lockstep majority completed clean inside the batch.
  EXPECT_EQ(result.drained_scalar, 1);
  for (int w = 0; w < 8; ++w) {
    const sim::RunStats& run = result.runs[static_cast<std::size_t>(w)];
    EXPECT_EQ(run.error, w == 2) << "lane " << w;
    if (w == 2) {
      EXPECT_EQ(run.fault, sim::FaultKind::kTimeout);
    } else {
      EXPECT_TRUE(run.halted) << "lane " << w;
      EXPECT_EQ(run.fault, sim::FaultKind::kNone) << "lane " << w;
    }
  }
}

// Clean divergence split: a minority of lanes branch to an alternate clean
// instruction.  The batch keeps the (larger) fall-through group, drains the
// branch takers on their own NodeSims, and both groups stay bit-identical —
// including the early completion of the group whose path halts first.
TEST(BatchedGolden, DivergenceCleanSplitBothPathsIdentical) {
  const Machine machine;
  const int n = 32;
  prog::Program p = divergenceProgram(machine, n);
  prog::PipelineDiagram& alt = p.append("alt");
  const arch::AlsId als = machine.config().num_singlets;
  const arch::FuId mul = machine.als(als).fus[0];
  alt.setFuOp(machine, mul, OpCode::kMul);
  alt.connect(machine, Endpoint::planeRead(0), Endpoint::fuInput(mul, 0));
  alt.setConstInput(machine, mul, 1, 2.0);
  alt.connect(machine, Endpoint::fuOutput(mul), Endpoint::planeWrite(2));
  for (const Endpoint e :
       {Endpoint::planeRead(0), Endpoint::planeWrite(2)}) {
    prog::DmaSpec& dma = alt.dmaAt(e);
    dma.base = 0;
    dma.stride = 1;
    dma.count = static_cast<std::uint64_t>(n);
  }
  alt.seq.op = arch::SeqOp::kHalt;

  mc::Generator generator(machine);
  const mc::GenerateResult gen = generator.generate(p);
  ASSERT_TRUE(gen.ok) << gen.diagnostics.format();

  // Lanes 1, 5, and 9 branch (13-lane batch, so the 10-lane fall-through
  // group is kept and three lanes retire to their own NodeSims).
  const auto seed = [n](int w, sim::ReplicaStore& store) {
    std::vector<double> x = test::iota(n, 0.001 * (w + 1), 0.0001);
    if (w % 4 == 1) x[0] = 0.75;
    store.writePlane(0, 0, x);
  };
  sim::BatchRunResult result;
  runBatchGolden(machine, gen, 13, n, seed, {}, &result);
  EXPECT_EQ(result.drained_scalar, 3);
  for (int w = 0; w < 13; ++w) {
    const sim::RunStats& run = result.runs[static_cast<std::size_t>(w)];
    EXPECT_FALSE(run.error) << "lane " << w;
    ASSERT_EQ(run.trace.size(), 2u) << "lane " << w;
    EXPECT_EQ(run.trace[1].name, w % 4 == 1 ? "alt" : "clean")
        << "lane " << w;
  }
}

// Shape-level faults hit every lockstep lane identically: a DMA pattern
// past the plane capacity faults all lanes of the batch exactly as it
// faults each replica run alone.
TEST(BatchedGolden, DmaCapacityFaultAllLanes) {
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

  mc::Generator generator(machine);
  const mc::GenerateResult gen = generator.generate(p);
  ASSERT_TRUE(gen.ok) << gen.diagnostics.format();
  sim::BatchRunResult result;
  runBatchGolden(machine, gen, 8, 16, nullptr, {}, &result);
  for (const sim::RunStats& run : result.runs) {
    EXPECT_TRUE(run.error);
    EXPECT_EQ(run.fault, sim::FaultKind::kDmaBounds);
  }
}

// ---------------------------------------------------------------------------
// Value-program edges (sim/value_program.h): the cases a windowed list of
// loads, evaluations and stores could get wrong that a completing golden
// run would not show.
// ---------------------------------------------------------------------------

cfd::JacobiBuildOptions figure11Options() {
  cfd::JacobiBuildOptions options;
  options.grid = {8, 8, 8};
  options.h = 1.0 / 7.0;
  options.convergence_mode = true;
  options.tol = 1e-3;
  return options;
}

// The Figure-11 sweep (JacobiProgram's first instruction, 447 cycles) cut
// short by the cycle budget: 1 cycle, inside the pipeline fill, mid-stream,
// and one cycle before completion.  Memory effects, stats and the timeout
// fault must match the interpreter cycle for cycle, at one lane and at
// eight.
TEST(ValueProgramGolden, TruncatedFigure11SweepMatchesInterpreter) {
  const Machine machine;
  const cfd::JacobiBuildOptions options = figure11Options();
  const cfd::JacobiProgram jacobi(machine, options);
  const cfd::PoissonProblem problem = cfd::PoissonProblem::manufactured(
      options.grid.nx, options.grid.ny, options.grid.nz);
  mc::Generator generator(machine);
  const mc::GenerateResult gen = generator.generate(jacobi.program());
  ASSERT_TRUE(gen.ok) << gen.diagnostics.format();
  const auto program = sim::CompiledProgram::compile(machine, gen.exe);
  ASSERT_NE(program->instrs[0].value, nullptr);
  ASSERT_EQ(program->instrs[0].value->last_cycle, 446u);
  const std::uint64_t words = static_cast<std::uint64_t>(options.grid.N()) +
                              2 * static_cast<std::uint64_t>(jacobi.layout().pad);

  for (const std::uint64_t budget : {1u, 20u, 200u, 446u, 447u}) {
    SCOPED_TRACE("max_cycles " + std::to_string(budget));
    sim::NodeSim::Options value_options;
    value_options.max_cycles_per_instruction = budget;
    sim::NodeSim::Options legacy_options = legacyOptions();
    legacy_options.max_cycles_per_instruction = budget;
    NodeSim legacy(machine, legacy_options);
    NodeSim value(machine, value_options);
    legacy.load(program);
    value.load(program);
    jacobi.load(legacy, problem);
    jacobi.load(value, problem);
    const sim::InstrStats legacy_step = legacy.stepInstruction();
    const sim::InstrStats value_step = value.stepInstruction();
    EXPECT_EQ(legacy_step.error, budget < 447u);
    EXPECT_EQ(legacy_step.fault, value_step.fault);
    EXPECT_EQ(legacy_step.error_message, value_step.error_message);
    EXPECT_EQ(legacy_step.cycles, value_step.cycles);
    EXPECT_EQ(legacy_step.flops, value_step.flops);
    EXPECT_EQ(legacy_step.hazards, value_step.hazards);
    expectIdenticalMemory(machine, legacy, value, words);
    for (int reg = 0; reg < 4; ++reg) {
      EXPECT_EQ(legacy.cond(reg), value.cond(reg)) << "cond reg " << reg;
    }
    // The whole run: the truncated sweep ends it with the timeout fault.
    runBatchGolden(machine, gen, 8, words,
                   jacobiSeed(jacobi, problem, options), value_options);
  }
}

// Pins the Figure-11 sweep's value program: its size does not depend on
// stream length, so a count guards the memory that 64 cached programs keep
// resident.
TEST(ValueProgramGolden, Figure11SweepProgramSize) {
  const Machine machine;
  const cfd::JacobiProgram jacobi(machine, figure11Options());
  mc::Generator generator(machine);
  const mc::GenerateResult gen = generator.generate(jacobi.program());
  ASSERT_TRUE(gen.ok) << gen.diagnostics.format();
  const auto program = sim::CompiledProgram::compile(machine, gen.exe);
  const sim::ValueProgram& vp = *program->instrs[0].value;
  // 6 loads, 15 evaluations (the accumulator included), 3 stores, 1 latch.
  EXPECT_EQ(vp.ops.size(), 25u);
  EXPECT_EQ(vp.segments.size(), 27u);
  EXPECT_EQ(vp.columns, 315u);
  EXPECT_EQ(vp.bytes(), 3586u);
  // Every instruction of the program has one.
  for (const sim::CompiledInstr& ci : program->instrs) {
    EXPECT_NE(ci.value, nullptr);
  }
}

// One cache buffer that the instruction both reads and fills, over the same
// words (a single-buffered machine shares the buffer between the two
// engines): loads must see memory exactly as the interpreter's phase order
// leaves it.
TEST(ValueProgramGolden, ReadAndFillOfOneBufferOverlap) {
  arch::MachineConfig cfg;
  cfg.cache_buffers = 1;
  const Machine machine(cfg);
  const int n = 40;
  prog::Program p;
  prog::PipelineDiagram& d = p.append("overlap");
  const arch::AlsId als = machine.config().num_singlets;
  const arch::FuId mul = machine.als(als).fus[0];
  d.setFuOp(machine, mul, OpCode::kMul);
  d.connect(machine, Endpoint::cacheRead(3), Endpoint::fuInput(mul, 0));
  d.setConstInput(machine, mul, 1, 1.5);
  d.connect(machine, Endpoint::fuOutput(mul), Endpoint::cacheWrite(3));
  for (const Endpoint e : {Endpoint::cacheRead(3), Endpoint::cacheWrite(3)}) {
    d.dmaAt(e) = {"", 2, 1, static_cast<std::uint64_t>(n), 1, 0, 0, false};
  }
  d.seq.op = arch::SeqOp::kHalt;
  mc::Generator generator(machine);
  mc::GenerateOptions gen_options;
  gen_options.run_checker = false;
  const mc::GenerateResult gen = generator.generate(p, gen_options);
  ASSERT_TRUE(gen.ok) << gen.diagnostics.format();
  const auto program = sim::CompiledProgram::compile(machine, gen.exe);
  ASSERT_EQ(program->instrs[0].reads.size(), 1u);
  ASSERT_EQ(program->instrs[0].writes.size(), 1u);
  ASSERT_EQ(program->instrs[0].reads[0].buffer,
            program->instrs[0].writes[0].buffer);
  ASSERT_NE(program->instrs[0].value, nullptr);

  const auto seed = [n](int w, sim::ReplicaStore& store) {
    store.writeCache(3, 0, 0, test::iota(n + 4, 1.0 + w, 0.5));
  };
  for (const int lanes : {1, 4}) runBatchGolden(machine, gen, lanes, 16, seed);
}

// Accumulator Y folds a stream while its other operand is accumulator X's
// output, valid only on X's last element; every other cycle that operand
// carries an invalid token whose value is X's running value, X's seed
// before X's stream arrives, or zero before X's pipeline fills.  Y's final
// value (stored through a one-element write) shows which one it saw.
void runAccumulatorChain(std::uint64_t x_count, int x_delay,
                         std::uint64_t y_count) {
  SCOPED_TRACE("x_count " + std::to_string(x_count) + " x_delay " +
               std::to_string(x_delay) + " y_count " + std::to_string(y_count));
  const Machine machine;
  prog::Program p;
  prog::PipelineDiagram& d = p.append("chain");
  const arch::AlsId als = machine.config().num_singlets;
  const arch::FuId x = machine.als(als).fus[1];       // min/max capable
  const arch::FuId y = machine.als(als + 1).fus[0];
  d.connect(machine, Endpoint::planeRead(0), Endpoint::sdInput(0));
  d.useSd(0, {x_delay});
  d.setFuOp(machine, x, OpCode::kMax);
  d.connect(machine, Endpoint::sdOutput(0, 0), Endpoint::fuInput(x, 0));
  d.setAccumInput(machine, x, 1, -5.0);
  d.setFuOp(machine, y, OpCode::kSub);
  d.connect(machine, Endpoint::planeRead(1), Endpoint::fuInput(y, 0));
  d.setAccumInput(machine, y, 1, 0.25);
  d.connect(machine, Endpoint::fuOutput(y), Endpoint::planeWrite(2));
  d.dmaAt(Endpoint::planeRead(0)) = {"", 0, 1, x_count, 1, 0, 0, false};
  d.dmaAt(Endpoint::planeRead(1)) = {"", 0, 1, y_count, 1, 0, 0, false};
  d.dmaAt(Endpoint::planeWrite(2)) = {"", 0, 1, 1, 1, 0, 0, false};
  d.seq.op = arch::SeqOp::kHalt;
  mc::Generator generator(machine);
  mc::GenerateOptions gen_options;
  gen_options.run_checker = false;
  mc::GenerateResult gen = generator.generate(p, gen_options);
  ASSERT_TRUE(gen.ok) << gen.diagnostics.format();
  // Rewire Y's B operand from its own feedback to X's output through the
  // switch: Y stays an accumulator, its non-stream operand now X's stream.
  const auto spec = arch::MicrowordSpec::shared(machine);
  common::BitVector& word = gen.exe.words[0];
  spec->set(word, arch::MicrowordSpec::fuField(y, "in_b_sel"),
            static_cast<std::uint64_t>(arch::InputSelect::kSwitch));
  spec->set(word,
            arch::MicrowordSpec::switchField(
                machine.destinationIndex(Endpoint::fuInput(y, 1))),
            static_cast<std::uint64_t>(
                machine.sourceIndex(Endpoint::fuOutput(x)) + 1));
  const auto program = sim::CompiledProgram::compile(machine, gen.exe);
  ASSERT_EQ(program->instrs[0].fus.size(), 2u);
  ASSERT_TRUE(program->instrs[0].fus[1].is_accum);
  ASSERT_EQ(program->instrs[0].fus[1].b.kind, sim::OperandKind::kSwitch);
  ASSERT_NE(program->instrs[0].value, nullptr);

  const auto seed = [](int w, sim::ReplicaStore& store) {
    store.writePlane(0, 0, test::iota(64, 0.5 + w, 0.75));
    store.writePlane(1, 0, test::iota(64, 10.0 - w, -0.5));
  };
  sim::NodeSim::Options options;
  options.max_cycles_per_instruction = 4000;
  for (const int lanes : {1, 8}) {
    runBatchGolden(machine, gen, lanes, 4, seed, options);
  }
}

TEST(ValueProgramGolden, AccumulatorReadsAnotherAccumulatorsRunningValue) {
  runAccumulatorChain(40, 0, 12);  // Y ends while X is mid-stream
}

TEST(ValueProgramGolden, AccumulatorReadsAnotherAccumulatorsFinalValue) {
  runAccumulatorChain(8, 0, 30);  // Y ends after X's stream ended
}

TEST(ValueProgramGolden, AccumulatorReadsAnotherAccumulatorsSeed) {
  runAccumulatorChain(8, 40, 20);  // Y ends before X's delayed stream
}

TEST(ValueProgramGolden, AccumulatorReadsAnUnfilledPipeline) {
  runAccumulatorChain(8, 0, 1);  // Y ends before X's pipeline fills
}

}  // namespace
}  // namespace nsc
