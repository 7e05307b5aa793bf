// Hypercube system and hyperspace router tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "arch/microword_spec.h"
#include "microcode/generator.h"
#include "sim/hypercube.h"
#include "test_helpers.h"

namespace nsc::sim {
namespace {

using arch::Endpoint;
using arch::Machine;

TEST(RouterTest, HopCountIsHammingDistance) {
  EXPECT_EQ(HypercubeSystem::hopCount(0, 0), 0);
  EXPECT_EQ(HypercubeSystem::hopCount(0, 1), 1);
  EXPECT_EQ(HypercubeSystem::hopCount(0b101, 0b010), 3);
  EXPECT_EQ(HypercubeSystem::hopCount(63, 0), 6);
}

TEST(RouterTest, EcubePathCorrectsDimensionsInOrder) {
  const auto path = HypercubeSystem::ecubePath(0b000, 0b110);
  // Lowest differing dimension first: 000 -> 010 -> 110.
  const std::vector<int> expected{0b000, 0b010, 0b110};
  EXPECT_EQ(path, expected);
  // Each consecutive pair differs in exactly one bit (valid hypercube
  // links) and the path has hopCount+1 entries.
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    EXPECT_EQ(HypercubeSystem::hopCount(path[i], path[i + 1]), 1);
  }
}

TEST(RouterTest, SelfPathIsTrivial) {
  const auto path = HypercubeSystem::ecubePath(5, 5);
  EXPECT_EQ(path, std::vector<int>{5});
}

TEST(RouterTest, TransferCostScalesWithHopsAndWords) {
  Machine m;
  RouterOptions router;
  router.message_startup_cycles = 10;
  router.hop_latency_cycles = 4;
  router.words_per_cycle = 2.0;
  HypercubeSystem sys(m, 3, {.router = router});
  EXPECT_EQ(sys.transferCycles(0, 0, 100), 0u);
  EXPECT_EQ(sys.transferCycles(0, 1, 100), 10u + 4u + 50u);
  EXPECT_EQ(sys.transferCycles(0, 7, 100), 10u + 12u + 50u);
}

TEST(HypercubeTest, SendVectorMovesData) {
  Machine m;
  HypercubeSystem sys(m, 2);
  const std::vector<double> data{1, 2, 3, 4, 5};
  sys.writePlane(0, 3, 100, data);
  const std::uint64_t cost = sys.sendVector(0, 3, 100, 5, 3, 7, 40);
  EXPECT_GT(cost, 0u);
  EXPECT_EQ(sys.readPlane(3, 7, 40, 5), data);
}

TEST(HypercubeTest, SpmdRunAggregatesStats) {
  // Each node runs the same tiny SAXPY program on its own data.
  Machine m;
  prog::Program p;
  prog::PipelineDiagram& d = p.append("scale");
  const arch::AlsId als = m.config().num_singlets;
  const arch::FuId mul = m.als(als).fus[0];
  d.setFuOp(m, mul, arch::OpCode::kMul);
  d.connect(m, Endpoint::planeRead(0), Endpoint::fuInput(mul, 0));
  d.setConstInput(m, mul, 1, 3.0);
  d.connect(m, Endpoint::fuOutput(mul), Endpoint::planeWrite(1));
  d.dmaAt(Endpoint::planeRead(0)) = {"", 0, 1, 32, 1, 0, 0, false};
  d.dmaAt(Endpoint::planeWrite(1)) = {"", 0, 1, 32, 1, 0, 0, false};
  d.seq.op = arch::SeqOp::kHalt;

  mc::Generator g(m);
  const mc::GenerateResult gen = g.generate(p);
  ASSERT_TRUE(gen.ok) << gen.diagnostics.format();

  HypercubeSystem sys(m, 3);
  sys.loadAll(gen.exe);
  for (int n = 0; n < sys.numNodes(); ++n) {
    sys.writePlane(n, 0, 0, test::iota(32, n));
  }
  SystemStats stats;
  sys.runPhase(stats);
  ASSERT_FALSE(stats.error) << stats.error_message;
  EXPECT_EQ(stats.node_stats.size(), 8u);
  // All nodes ran the same program: makespan equals each node's cycles.
  EXPECT_GT(stats.compute_makespan_cycles, 0u);
  EXPECT_EQ(stats.total_flops, 8u * 32u);
  for (int n = 0; n < sys.numNodes(); ++n) {
    const auto out = sys.readPlane(n, 1, 0, 32);
    for (int i = 0; i < 32; ++i) {
      EXPECT_EQ(out[static_cast<std::size_t>(i)], 3.0 * (n + i));
    }
  }
}

TEST(HypercubeTest, ExchangePhaseChargesMaxOverNodes) {
  Machine m;
  RouterOptions router;
  router.message_startup_cycles = 100;
  router.hop_latency_cycles = 1;
  router.words_per_cycle = 1.0;
  HypercubeSystem sys(m, 2, {.router = router});
  SystemStats stats;
  sys.beginExchange();
  sys.writePlane(0, 0, 0, test::iota(10));
  sys.sendVector(0, 0, 0, 10, 1, 0, 0);   // 1 hop:  100+1+10  = 111 into node 1
  sys.sendVector(0, 0, 0, 10, 2, 0, 0);   // 1 hop:  111 into node 2
  sys.sendVector(1, 0, 0, 10, 2, 0, 100); // 2 hops: 112 into node 2
  sys.endExchange(stats);
  // Node 2 received two messages serially: 223 cycles; node 1 only 111.
  EXPECT_EQ(stats.comm_cycles, 223u);
}

// Builds the tiny SPMD scale program used by the pool-centric tests.
mc::GenerateResult buildScaleProgram(const Machine& m) {
  prog::Program p;
  prog::PipelineDiagram& d = p.append("scale");
  const arch::AlsId als = m.config().num_singlets;
  const arch::FuId mul = m.als(als).fus[0];
  d.setFuOp(m, mul, arch::OpCode::kMul);
  d.connect(m, Endpoint::planeRead(0), Endpoint::fuInput(mul, 0));
  d.setConstInput(m, mul, 1, 3.0);
  d.connect(m, Endpoint::fuOutput(mul), Endpoint::planeWrite(1));
  d.dmaAt(Endpoint::planeRead(0)) = {"", 0, 1, 32, 1, 0, 0, false};
  d.dmaAt(Endpoint::planeWrite(1)) = {"", 0, 1, 32, 1, 0, 0, false};
  d.seq.op = arch::SeqOp::kHalt;
  mc::Generator g(m);
  return g.generate(p);
}

SystemStats runScaleOnPool(const Machine& m, const mc::GenerateResult& gen,
                           exec::ThreadPool& pool, int phases) {
  HypercubeSystem sys(m, 3, {}, &pool);
  sys.loadAll(gen.exe);
  for (int n = 0; n < sys.numNodes(); ++n) {
    sys.writePlane(n, 0, 0, test::iota(32, n));
  }
  SystemStats stats;
  for (int phase = 0; phase < phases; ++phase) {
    sys.runPhase(stats);
    sys.restartAll();
  }
  return stats;
}

TEST(HypercubeTest, RunPhaseIsBitIdenticalAcrossThreadCounts) {
  Machine m;
  const mc::GenerateResult gen = buildScaleProgram(m);
  ASSERT_TRUE(gen.ok) << gen.diagnostics.format();

  exec::ThreadPool serial(exec::ExecOptions{1});
  exec::ThreadPool pooled(exec::ExecOptions{4});
  const SystemStats a = runScaleOnPool(m, gen, serial, 3);
  const SystemStats b = runScaleOnPool(m, gen, pooled, 3);

  EXPECT_EQ(a.compute_makespan_cycles, b.compute_makespan_cycles);
  EXPECT_EQ(a.comm_cycles, b.comm_cycles);
  EXPECT_EQ(a.total_flops, b.total_flops);
  EXPECT_EQ(a.error, b.error);
  ASSERT_EQ(a.node_stats.size(), b.node_stats.size());
  for (std::size_t i = 0; i < a.node_stats.size(); ++i) {
    EXPECT_EQ(a.node_stats[i].total_cycles, b.node_stats[i].total_cycles);
    EXPECT_EQ(a.node_stats[i].total_flops, b.node_stats[i].total_flops);
    EXPECT_EQ(a.node_stats[i].total_hazards, b.node_stats[i].total_hazards);
    EXPECT_EQ(a.node_stats[i].instructions_executed,
              b.node_stats[i].instructions_executed);
  }
}

TEST(HypercubeTest, RunPhaseCreatesZeroThreadsAfterPoolConstruction) {
  Machine m;
  const mc::GenerateResult gen = buildScaleProgram(m);
  ASSERT_TRUE(gen.ok) << gen.diagnostics.format();

  exec::ThreadPool pool(exec::ExecOptions{4});
  const std::uint64_t created_at_construction = pool.threadsCreated();
  EXPECT_EQ(created_at_construction, 3u);  // workers only, made once

  HypercubeSystem sys(m, 3, {}, &pool);
  sys.loadAll(gen.exe);
  SystemStats stats;
  for (int phase = 0; phase < 10; ++phase) {
    sys.runPhase(stats);
    sys.restartAll();
  }
  ASSERT_FALSE(stats.error) << stats.error_message;
  // The counting hook: ten phases, not one OS thread created.
  EXPECT_EQ(pool.threadsCreated(), created_at_construction);
}

TEST(HypercubeTest, D7SystemPhaseStatsAreConsistentAt128Nodes) {
  // The paper's flagship is a 64-node (d=6) NSC; the system accepts any
  // dimension but nothing exercised d > 6.  A stats-consistency (not
  // golden) check at d=7: 128 SPMD nodes over the shared pool must
  // aggregate exactly like one node times 128, phase after phase.
  Machine m;
  const mc::GenerateResult gen = buildScaleProgram(m);
  ASSERT_TRUE(gen.ok) << gen.diagnostics.format();

  // Single-node reference for the per-node numbers.
  NodeSim reference(m);
  reference.load(gen.exe);
  const RunStats ref = reference.run();
  ASSERT_FALSE(ref.error);

  HypercubeSystem sys(m, 7);
  EXPECT_EQ(sys.numNodes(), 128);
  sys.loadAll(gen.exe);
  SystemStats stats;
  constexpr int kPhases = 2;
  for (int phase = 0; phase < kPhases; ++phase) {
    if (phase > 0) sys.restartAll();
    sys.runPhase(stats);
  }
  ASSERT_FALSE(stats.error) << stats.error_message;
  ASSERT_EQ(stats.node_stats.size(), 128u);
  // SPMD on identical data: every node's accumulated stats equal the
  // single-node run times the phase count.
  const auto phases = static_cast<std::uint64_t>(kPhases);
  for (int n = 0; n < sys.numNodes(); ++n) {
    const RunStats& node = stats.node_stats[static_cast<std::size_t>(n)];
    EXPECT_EQ(node.total_cycles, phases * ref.total_cycles) << "node " << n;
    EXPECT_EQ(node.total_flops, phases * ref.total_flops) << "node " << n;
    EXPECT_EQ(node.instructions_executed,
              phases * ref.instructions_executed)
        << "node " << n;
  }
  // Aggregates: makespan is max-over-nodes summed over phases; flops sum
  // over nodes and phases; no exchange phases ran.
  EXPECT_EQ(stats.compute_makespan_cycles,
            static_cast<std::uint64_t>(kPhases) * ref.total_cycles);
  EXPECT_EQ(stats.total_flops,
            static_cast<std::uint64_t>(kPhases) * 128u * ref.total_flops);
  EXPECT_EQ(stats.comm_cycles, 0u);
}

TEST(HypercubeTest, D8SystemPhaseStatsAreConsistentAt256Nodes) {
  // PR 9 raises the exercised scale again: 256 SPMD nodes (d=8), stepped
  // as SoA lane groups by default.  Same consistency contract as the d=7
  // test — every node's accumulated stats equal one scalar node times the
  // phase count — plus the engine counters: with the default lane width
  // every node-phase must have run batched.
  Machine m;
  const mc::GenerateResult gen = buildScaleProgram(m);
  ASSERT_TRUE(gen.ok) << gen.diagnostics.format();

  NodeSim reference(m);
  reference.load(gen.exe);
  const RunStats ref = reference.run();
  ASSERT_FALSE(ref.error);

  HypercubeSystem sys(m, 8);
  EXPECT_EQ(sys.numNodes(), 256);
  EXPECT_GT(sys.nodeLanes(), 1);
  sys.loadAll(gen.exe);
  SystemStats stats;
  constexpr int kPhases = 2;
  for (int phase = 0; phase < kPhases; ++phase) {
    if (phase > 0) sys.restartAll();
    sys.runPhase(stats);
  }
  ASSERT_FALSE(stats.error) << stats.error_message;
  ASSERT_EQ(stats.node_stats.size(), 256u);
  const auto phases = static_cast<std::uint64_t>(kPhases);
  for (int n = 0; n < sys.numNodes(); ++n) {
    const RunStats& node = stats.node_stats[static_cast<std::size_t>(n)];
    EXPECT_EQ(node.total_cycles, phases * ref.total_cycles) << "node " << n;
    EXPECT_EQ(node.total_flops, phases * ref.total_flops) << "node " << n;
    EXPECT_EQ(node.instructions_executed,
              phases * ref.instructions_executed)
        << "node " << n;
  }
  EXPECT_EQ(stats.compute_makespan_cycles, phases * ref.total_cycles);
  EXPECT_EQ(stats.total_flops, phases * 256u * ref.total_flops);
  EXPECT_EQ(stats.comm_cycles, 0u);
  // The SPMD program never branches on data, so no node left the batch.
  EXPECT_EQ(stats.node_stats.size(),
            static_cast<std::size_t>(sys.numNodes()));
  EXPECT_EQ(sys.nodesBatched(), phases * 256u);
  EXPECT_EQ(sys.nodesScalar(), 0u);
}

// Builds a three-instruction program whose control flow depends on node
// data: "gate" max-reduces plane 0 into condition register 1 and branches
// to "alt" when the max exceeds 0.5; "clean" copies plane 0 -> plane 1;
// "alt" doubles plane 0 into plane 2.  Per-node seeds pick the path, so a
// batched system is forced to retire minority lanes mid-phase.
mc::GenerateResult buildDivergentProgram(const Machine& m, int n) {
  prog::Program p;
  prog::PipelineDiagram& gate = p.append("gate");
  const arch::AlsId als = m.config().num_singlets;
  const arch::FuId acc = m.als(als).fus[1];
  gate.setFuOp(m, acc, arch::OpCode::kMax);
  gate.connect(m, Endpoint::planeRead(0), Endpoint::fuInput(acc, 0));
  gate.setAccumInput(m, acc, 1, 0.0);
  gate.cond = prog::CondLatch{acc, 1};
  gate.dmaAt(Endpoint::planeRead(0)) = {
      "", 0, 1, static_cast<std::uint64_t>(n), 1, 0, 0, false};
  gate.seq.op = arch::SeqOp::kBranchIf;
  gate.seq.cond_reg = 1;
  gate.seq.target = 2;
  prog::PipelineDiagram& clean = p.append("clean");
  clean.connect(m, Endpoint::planeRead(0), Endpoint::planeWrite(1));
  for (const Endpoint e : {Endpoint::planeRead(0), Endpoint::planeWrite(1)}) {
    prog::DmaSpec& dma = clean.dmaAt(e);
    dma.base = 0;
    dma.stride = 1;
    dma.count = static_cast<std::uint64_t>(n);
  }
  clean.seq.op = arch::SeqOp::kHalt;
  prog::PipelineDiagram& alt = p.append("alt");
  const arch::FuId mul = m.als(als).fus[0];
  alt.setFuOp(m, mul, arch::OpCode::kMul);
  alt.connect(m, Endpoint::planeRead(0), Endpoint::fuInput(mul, 0));
  alt.setConstInput(m, mul, 1, 2.0);
  alt.connect(m, Endpoint::fuOutput(mul), Endpoint::planeWrite(2));
  for (const Endpoint e : {Endpoint::planeRead(0), Endpoint::planeWrite(2)}) {
    prog::DmaSpec& dma = alt.dmaAt(e);
    dma.base = 0;
    dma.stride = 1;
    dma.count = static_cast<std::uint64_t>(n);
  }
  alt.seq.op = arch::SeqOp::kHalt;
  mc::Generator g(m);
  return g.generate(p);
}

void expectSystemStatsEqual(const SystemStats& want, const SystemStats& got) {
  EXPECT_EQ(want.compute_makespan_cycles, got.compute_makespan_cycles);
  EXPECT_EQ(want.comm_cycles, got.comm_cycles);
  EXPECT_EQ(want.total_flops, got.total_flops);
  EXPECT_EQ(want.error, got.error);
  EXPECT_EQ(want.error_message, got.error_message);
  ASSERT_EQ(want.node_stats.size(), got.node_stats.size());
  for (std::size_t i = 0; i < want.node_stats.size(); ++i) {
    SCOPED_TRACE("node " + std::to_string(i));
    EXPECT_EQ(want.node_stats[i].total_cycles, got.node_stats[i].total_cycles);
    EXPECT_EQ(want.node_stats[i].total_flops, got.node_stats[i].total_flops);
    EXPECT_EQ(want.node_stats[i].total_hazards,
              got.node_stats[i].total_hazards);
    EXPECT_EQ(want.node_stats[i].instructions_executed,
              got.node_stats[i].instructions_executed);
  }
}

// A lane-grouped system is observably the same machine as the legacy
// interpreter run node by node, at every lane width and dimension —
// SystemStats, per-node planes, and engine-visible memory bit-identical —
// including mid-phase divergence (minority nodes retire into NodeSim
// continuations) and per-lane exchange staging between phases.
TEST(HypercubeTest, BatchedPhasesMatchScalarAcrossLaneWidthsAndDimensions) {
  Machine m;
  const int n = 32;
  const mc::GenerateResult gen = buildDivergentProgram(m, n);
  ASSERT_TRUE(gen.ok) << gen.diagnostics.format();

  // Seeds: node id picks magnitude; every 4th node (id % 4 == 1) trips the
  // latch threshold and takes the "alt" branch.
  const auto seed = [n](HypercubeSystem& sys, int node) {
    std::vector<double> x(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      x[static_cast<std::size_t>(i)] = 0.001 * (node + 1) + 0.0001 * i;
    }
    if (node % 4 == 1) x[0] = 0.75;
    sys.writePlane(node, 0, 0, x);
  };
  constexpr int kPhases = 2;
  const auto runSystem = [&](int dimension, int lanes, bool use_compiled,
                             SystemStats& stats,
                             std::vector<std::vector<double>>& planes) {
    NodeSim::Options node_options;
    node_options.use_compiled = use_compiled;
    HypercubeSystem sys(m, dimension,
                        {.node = node_options, .node_lanes = lanes});
    EXPECT_EQ(sys.nodeLanes(), std::min(lanes, sys.numNodes()));
    sys.loadAll(gen.exe);
    for (int node = 0; node < sys.numNodes(); ++node) seed(sys, node);
    for (int phase = 0; phase < kPhases; ++phase) {
      if (phase > 0) {
        // Ring-shift exchange: each node ships its plane-1 copy window to
        // the next node's plane 0 tail — per-lane staging on the batched
        // engine (gather from SoA, route, scatter into SoA).
        sys.beginExchange();
        for (int node = 0; node < sys.numNodes(); ++node) {
          sys.sendVector(node, 1, 0, 8, (node + 1) % sys.numNodes(), 0,
                         static_cast<std::uint64_t>(n));
        }
        sys.endExchange(stats);
        sys.restartAll();
      }
      sys.runPhase(stats);
    }
    for (int node = 0; node < sys.numNodes(); ++node) {
      for (const arch::PlaneId plane : {0, 1, 2}) {
        planes.push_back(
            sys.readPlane(node, plane, 0, static_cast<std::uint64_t>(n) + 8));
      }
    }
    if (use_compiled && sys.nodeLanes() > 1) {
      EXPECT_EQ(sys.nodesBatched() + sys.nodesScalar(),
                static_cast<std::uint64_t>(kPhases) *
                    static_cast<std::uint64_t>(sys.numNodes()));
      // id % 4 == 1 nodes diverge from the rest of their group, so some
      // nodes must have drained scalar — and the majority stayed batched.
      EXPECT_GT(sys.nodesScalar(), 0u);
      EXPECT_GT(sys.nodesBatched(), sys.nodesScalar());
    }
  };

  for (const int dimension : {2, 4, 6, 8}) {
    SCOPED_TRACE("d=" + std::to_string(dimension));
    SystemStats want;
    std::vector<std::vector<double>> want_planes;
    runSystem(dimension, 1, /*use_compiled=*/false, want, want_planes);
    ASSERT_FALSE(want.error) << want.error_message;
    for (const int lanes : {1, 4, 8, 16}) {
      SCOPED_TRACE("lanes=" + std::to_string(lanes));
      SystemStats got;
      std::vector<std::vector<double>> got_planes;
      runSystem(dimension, lanes, /*use_compiled=*/true, got, got_planes);
      expectSystemStatsEqual(want, got);
      ASSERT_EQ(want_planes.size(), got_planes.size());
      for (std::size_t i = 0; i < want_planes.size(); ++i) {
        EXPECT_EQ(want_planes[i], got_planes[i]) << "plane image " << i;
      }
    }
  }
}

TEST(HypercubeTest, BatchedDmaFaultMatchesScalarGolden) {
  // Shape-level fault retirement: a read DMA programmed past the simulated
  // plane capacity faults every node identically.  Lane groups of every
  // width must report the same system error and per-node stats as the
  // legacy interpreter, and survive a restartAll + re-run exactly like it.
  Machine m;
  const mc::GenerateResult gen = buildScaleProgram(m);
  ASSERT_TRUE(gen.ok) << gen.diagnostics.format();
  mc::Executable exe = gen.exe;
  const auto spec = arch::MicrowordSpec::shared(m);
  spec->set(exe.words[0], arch::MicrowordSpec::planeField(0, "base"),
            ~std::uint64_t{0});

  const auto runFaulty = [&](int lanes, bool use_compiled) {
    NodeSim::Options node_options;
    node_options.use_compiled = use_compiled;
    HypercubeSystem sys(m, 2, {.node = node_options, .node_lanes = lanes});
    sys.loadAll(exe);
    SystemStats stats;
    for (int phase = 0; phase < 2 && !stats.error; ++phase) {
      if (phase > 0) sys.restartAll();
      sys.runPhase(stats);
    }
    return stats;
  };
  const SystemStats want = runFaulty(1, /*use_compiled=*/false);
  EXPECT_TRUE(want.error);
  for (const int lanes : {1, 4, 8, 16}) {
    SCOPED_TRACE("lanes=" + std::to_string(lanes));
    const SystemStats got = runFaulty(lanes, /*use_compiled=*/true);
    expectSystemStatsEqual(want, got);
  }
}

TEST(HypercubeTest, NodeIdsOutsideTheCubeThrow) {
  // A 3-wide grouping of 4 nodes leaves a width-1 tail group; an id past
  // the cube must be refused, not mapped onto a lane that group lacks.
  Machine m;
  HypercubeSystem sys(m, 2, {.node_lanes = 3});
  const std::vector<double> values(4, 1.0);
  EXPECT_THROW(sys.writePlane(5, 0, 0, values), std::out_of_range);
  EXPECT_THROW(sys.writePlane(-1, 0, 0, values), std::out_of_range);
  EXPECT_THROW(sys.readPlane(4, 0, 0, 4), std::out_of_range);
  sys.writePlane(3, 0, 0, values);
  EXPECT_EQ(sys.readPlane(3, 0, 0, 4), values);
}

TEST(HypercubeTest, SixtyFourNodePeakMatchesPaperClaim) {
  Machine m;
  HypercubeSystem sys(m, 6);
  EXPECT_EQ(sys.numNodes(), 64);
  const double peak_gflops =
      sys.numNodes() * m.config().peakMflopsPerNode() / 1000.0;
  EXPECT_NEAR(peak_gflops, 40.0, 1.0);  // "maximum performance of 40 GFLOPS"
}

}  // namespace
}  // namespace nsc::sim
