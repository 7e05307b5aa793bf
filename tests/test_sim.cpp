// Simulator integration tests: every datapath component exercised through
// the real toolchain (diagram -> checker -> microcode -> NodeSim).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "arch/machine.h"
#include "microcode/disasm.h"
#include "microcode/generator.h"
#include "program/program.h"
#include "common/rng.h"
#include "sim/node.h"
#include "test_helpers.h"

namespace nsc {
namespace {

using arch::Endpoint;
using arch::Machine;
using arch::OpCode;
using sim::NodeSim;
using test::generateAndLoad;
using test::iota;

class SimTest : public ::testing::Test {
 protected:
  Machine machine_;
};

// The first doublet ALS (slot 0 has integer caps, slot 1 min/max).
arch::AlsId firstDoublet(const Machine& m) { return m.config().num_singlets; }

TEST_F(SimTest, SaxpyThroughChainedDoublet) {
  const int n = 64;
  const double alpha = 2.5;
  prog::Program p;
  p.name = "saxpy";
  prog::PipelineDiagram& d = p.append("saxpy");
  const arch::AlsId als = firstDoublet(machine_);
  const arch::FuId mul = machine_.als(als).fus[0];
  const arch::FuId add = machine_.als(als).fus[1];

  d.setFuOp(machine_, mul, OpCode::kMul);
  d.connect(machine_, Endpoint::planeRead(0), Endpoint::fuInput(mul, 0));
  d.setConstInput(machine_, mul, 1, alpha);
  d.setFuOp(machine_, add, OpCode::kAdd);
  d.connect(machine_, Endpoint::fuOutput(mul), Endpoint::fuInput(add, 0));
  d.connect(machine_, Endpoint::planeRead(1), Endpoint::fuInput(add, 1));
  d.connect(machine_, Endpoint::fuOutput(add), Endpoint::planeWrite(2));
  for (const Endpoint e :
       {Endpoint::planeRead(0), Endpoint::planeRead(1), Endpoint::planeWrite(2)}) {
    prog::DmaSpec& dma = d.dmaAt(e);
    dma.base = 0;
    dma.stride = 1;
    dma.count = n;
  }
  d.seq.op = arch::SeqOp::kHalt;

  NodeSim node(machine_);
  std::string err;
  ASSERT_TRUE(generateAndLoad(machine_, p, node, &err)) << err;

  const std::vector<double> x = iota(n, 1.0, 0.5);
  const std::vector<double> y = iota(n, -3.0, 0.25);
  node.writePlane(0, 0, x);
  node.writePlane(1, 0, y);

  const sim::RunStats stats = node.run();
  ASSERT_FALSE(stats.error) << stats.error_message;
  EXPECT_TRUE(stats.halted);
  EXPECT_EQ(stats.total_hazards, 0u);

  const std::vector<double> out = node.readPlane(2, 0, n);
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)],
              alpha * x[static_cast<std::size_t>(i)] + y[static_cast<std::size_t>(i)])
        << "element " << i;
  }
  // 2 flops per element (mul + add).
  EXPECT_EQ(stats.total_flops, static_cast<std::uint64_t>(2 * n));
}

TEST_F(SimTest, SaxpyDelayBalancingIsAutomatic) {
  // The add unit's stream input arrives 8 cycles before the chained mul
  // result; the generator must have inserted a register-file delay.
  const int n = 16;
  prog::Program p;
  prog::PipelineDiagram& d = p.append("check-delay");
  const arch::AlsId als = firstDoublet(machine_);
  const arch::FuId mul = machine_.als(als).fus[0];
  const arch::FuId add = machine_.als(als).fus[1];
  d.setFuOp(machine_, mul, OpCode::kMul);
  d.connect(machine_, Endpoint::planeRead(0), Endpoint::fuInput(mul, 0));
  d.setConstInput(machine_, mul, 1, 1.0);
  d.setFuOp(machine_, add, OpCode::kAdd);
  d.connect(machine_, Endpoint::fuOutput(mul), Endpoint::fuInput(add, 0));
  d.connect(machine_, Endpoint::planeRead(1), Endpoint::fuInput(add, 1));
  d.connect(machine_, Endpoint::fuOutput(add), Endpoint::planeWrite(2));
  for (const Endpoint e :
       {Endpoint::planeRead(0), Endpoint::planeRead(1), Endpoint::planeWrite(2)}) {
    d.dmaAt(e) = {"", 0, 1, static_cast<std::uint64_t>(n), 1, 0, 0, false};
  }
  d.seq.op = arch::SeqOp::kHalt;

  mc::Generator generator(machine_);
  const mc::GenerateResult result = generator.generate(p);
  ASSERT_TRUE(result.ok) << result.diagnostics.format();
  const prog::FuUse* use = result.balanced[0].findFu(machine_, add);
  ASSERT_NE(use, nullptr);
  EXPECT_EQ(use->rf_mode, arch::RfMode::kDelay);
  EXPECT_EQ(use->rf_delay_port, 1);
  EXPECT_EQ(use->rf_delay, arch::opInfo(OpCode::kMul).latency);
}

TEST_F(SimTest, MaxReductionWithAccumulatorFeedback) {
  const int n = 100;
  prog::Program p;
  prog::PipelineDiagram& d = p.append("reduce-max");
  const arch::AlsId als = firstDoublet(machine_);
  const arch::FuId mx = machine_.als(als).fus[1];  // min/max capable slot
  d.setFuOp(machine_, mx, OpCode::kMax);
  d.connect(machine_, Endpoint::planeRead(0), Endpoint::fuInput(mx, 0));
  d.setAccumInput(machine_, mx, 1, -1e300);
  d.connect(machine_, Endpoint::fuOutput(mx), Endpoint::planeWrite(1));
  d.dmaAt(Endpoint::planeRead(0)) = {"", 0, 1, static_cast<std::uint64_t>(n),
                                     1, 0, 0, false};
  d.dmaAt(Endpoint::planeWrite(1)) = {"", 0, 1, 1, 1, 0, 0, false};
  d.seq.op = arch::SeqOp::kHalt;

  NodeSim node(machine_);
  std::string err;
  ASSERT_TRUE(generateAndLoad(machine_, p, node, &err)) << err;

  std::vector<double> x(n);
  double expected = -1e300;
  common::Rng rng(7);
  for (auto& v : x) {
    v = rng.uniform(-50.0, 50.0);
    expected = std::max(expected, v);
  }
  node.writePlane(0, 0, x);
  const sim::RunStats stats = node.run();
  ASSERT_FALSE(stats.error) << stats.error_message;
  EXPECT_EQ(node.readPlaneWord(1, 0), expected);
}

TEST_F(SimTest, SumReductionMatchesSequentialOrder) {
  const int n = 37;
  prog::Program p;
  prog::PipelineDiagram& d = p.append("reduce-sum");
  const arch::AlsId als = firstDoublet(machine_);
  const arch::FuId acc = machine_.als(als).fus[0];
  d.setFuOp(machine_, acc, OpCode::kAdd);
  d.connect(machine_, Endpoint::planeRead(0), Endpoint::fuInput(acc, 0));
  d.setAccumInput(machine_, acc, 1, 0.0);
  d.connect(machine_, Endpoint::fuOutput(acc), Endpoint::planeWrite(1));
  d.dmaAt(Endpoint::planeRead(0)) = {"", 0, 1, static_cast<std::uint64_t>(n),
                                     1, 0, 0, false};
  d.dmaAt(Endpoint::planeWrite(1)) = {"", 0, 1, 1, 1, 0, 0, false};
  d.seq.op = arch::SeqOp::kHalt;

  NodeSim node(machine_);
  std::string err;
  ASSERT_TRUE(generateAndLoad(machine_, p, node, &err)) << err;
  const std::vector<double> x = iota(n, 0.25, 0.5);
  double expected = 0.0;
  for (double v : x) expected += v;  // same left-to-right order
  node.writePlane(0, 0, x);
  const sim::RunStats stats = node.run();
  ASSERT_FALSE(stats.error) << stats.error_message;
  EXPECT_EQ(node.readPlaneWord(1, 0), expected);
}

TEST_F(SimTest, ShiftDelayFormsNeighborStream) {
  // d[i] = x[i+1] - x[i] via one stream and two taps with element shifts
  // 0 and 1; the valid window shrinks by one element.
  const int n = 32;
  prog::Program p;
  prog::PipelineDiagram& d = p.append("moving-diff");
  const arch::AlsId als = firstDoublet(machine_);
  const arch::FuId sub = machine_.als(als).fus[0];
  d.connect(machine_, Endpoint::planeRead(0), Endpoint::sdInput(0));
  d.useSd(0, {0, 1});
  d.setFuOp(machine_, sub, OpCode::kSub);
  d.connect(machine_, Endpoint::sdOutput(0, 0), Endpoint::fuInput(sub, 0));
  d.connect(machine_, Endpoint::sdOutput(0, 1), Endpoint::fuInput(sub, 1));
  d.connect(machine_, Endpoint::fuOutput(sub), Endpoint::planeWrite(1));
  d.dmaAt(Endpoint::planeRead(0)) = {"", 0, 1, static_cast<std::uint64_t>(n),
                                     1, 0, 0, false};
  d.dmaAt(Endpoint::planeWrite(1)) = {
      "", 0, 1, static_cast<std::uint64_t>(n - 1), 1, 0, 0, false};
  d.seq.op = arch::SeqOp::kHalt;

  NodeSim node(machine_);
  std::string err;
  ASSERT_TRUE(generateAndLoad(machine_, p, node, &err)) << err;
  std::vector<double> x(n);
  common::Rng rng(3);
  for (auto& v : x) v = rng.uniform(-1, 1);
  node.writePlane(0, 0, x);
  const sim::RunStats stats = node.run();
  ASSERT_FALSE(stats.error) << stats.error_message;
  const std::vector<double> out = node.readPlane(1, 0, n - 1);
  for (int i = 0; i < n - 1; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)],
              x[static_cast<std::size_t>(i + 1)] - x[static_cast<std::size_t>(i)])
        << "element " << i;
  }
  // One warmup bubble (deep tap cold) and one drain bubble (shallow tap
  // exhausted first).
  EXPECT_EQ(stats.total_hazards, 2u);
}

TEST_F(SimTest, CacheDoubleBufferFillSwapAndDrain) {
  const int n = 48;
  prog::Program p;
  // Instruction 0: stream plane 0 into cache 0 (fills the non-read buffer)
  // and swap at completion.
  prog::PipelineDiagram& fill = p.append("fill");
  fill.connect(machine_, Endpoint::planeRead(0), Endpoint::cacheWrite(0));
  fill.dmaAt(Endpoint::planeRead(0)) = {"", 0, 1, static_cast<std::uint64_t>(n),
                                        1, 0, 0, false};
  prog::DmaSpec& cw = fill.dmaAt(Endpoint::cacheWrite(0));
  cw = {"", 0, 1, static_cast<std::uint64_t>(n), 1, 0, 0, true};
  // Instruction 1: stream the cache through a doubling unit into plane 1.
  prog::PipelineDiagram& drain = p.append("drain");
  const arch::AlsId als = firstDoublet(machine_);
  const arch::FuId dbl = machine_.als(als).fus[0];
  drain.setFuOp(machine_, dbl, OpCode::kMul);
  drain.connect(machine_, Endpoint::cacheRead(0), Endpoint::fuInput(dbl, 0));
  drain.setConstInput(machine_, dbl, 1, 2.0);
  drain.connect(machine_, Endpoint::fuOutput(dbl), Endpoint::planeWrite(1));
  drain.dmaAt(Endpoint::cacheRead(0)) = {"", 0, 1, static_cast<std::uint64_t>(n),
                                         1, 0, 0, false};
  drain.dmaAt(Endpoint::planeWrite(1)) = {"", 0, 1, static_cast<std::uint64_t>(n),
                                          1, 0, 0, false};
  drain.seq.op = arch::SeqOp::kHalt;

  NodeSim node(machine_);
  std::string err;
  ASSERT_TRUE(generateAndLoad(machine_, p, node, &err)) << err;
  const std::vector<double> x = iota(n, 5.0, 1.0);
  node.writePlane(0, 0, x);
  const sim::RunStats stats = node.run();
  ASSERT_FALSE(stats.error) << stats.error_message;
  const std::vector<double> out = node.readPlane(1, 0, n);
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)], 2.0 * x[static_cast<std::size_t>(i)]);
  }
}

// A restored snapshot reproduces the source node's memory bit for bit:
// plane sizes, a cache buffer holding a signed zero, untouched buffers, and
// condition registers, so a run on the restored node matches the original.
TEST_F(SimTest, SnapshotRestoreIsBitIdentical) {
  const auto bits = [](const std::vector<double>& words) {
    std::vector<std::uint64_t> out;
    for (const double w : words) {
      out.push_back(std::bit_cast<std::uint64_t>(w));
    }
    return out;
  };
  prog::Program p;
  prog::PipelineDiagram& d = p.append("copy");
  d.connect(machine_, Endpoint::planeRead(0), Endpoint::planeWrite(1));
  d.dmaAt(Endpoint::planeRead(0)) = {"", 0, 1, 16, 1, 0, 0, false};
  d.dmaAt(Endpoint::planeWrite(1)) = {"", 0, 1, 16, 1, 0, 0, false};
  d.seq.op = arch::SeqOp::kHalt;

  NodeSim original(machine_);
  original.writePlane(0, 0, iota(16, 3.0, 0.5));
  original.writeCache(0, 0, 5, std::vector<double>{-0.0});
  original.writeCache(0, 1, 3, std::vector<double>{-0.0, 1.5});
  NodeSim::Snapshot snap = original.snapshot();
  snap.cond_regs[2] = true;
  const NodeSim::Snapshot want = snap;

  NodeSim restored(machine_);
  restored.restoreSnapshot(std::move(snap));
  const NodeSim::Snapshot got = restored.snapshot();
  ASSERT_EQ(got.planes.size(), want.planes.size());
  for (std::size_t i = 0; i < want.planes.size(); ++i) {
    EXPECT_EQ(bits(got.planes[i]), bits(want.planes[i])) << "plane " << i;
  }
  ASSERT_EQ(got.caches.size(), want.caches.size());
  for (std::size_t c = 0; c < want.caches.size(); ++c) {
    for (std::size_t b = 0; b < want.caches[c].size(); ++b) {
      EXPECT_EQ(bits(got.caches[c][b]), bits(want.caches[c][b]))
          << "cache " << c << " buffer " << b;
    }
  }
  EXPECT_EQ(got.cond_regs, want.cond_regs);
  EXPECT_TRUE(restored.cond(2));

  std::string err;
  ASSERT_TRUE(generateAndLoad(machine_, p, original, &err)) << err;
  ASSERT_TRUE(generateAndLoad(machine_, p, restored, &err)) << err;
  const sim::RunStats a = original.run();
  const sim::RunStats b = restored.run();
  ASSERT_FALSE(b.error) << b.error_message;
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(bits(original.readPlane(1, 0, 16)),
            bits(restored.readPlane(1, 0, 16)));
}

TEST_F(SimTest, SequencerLoopRepeatsInstruction) {
  // Instruction 0 computes plane1[0] = plane0[0] + 1; instruction 1 copies
  // plane1[0] back to plane0[0] and loops 5 times.
  prog::Program p;
  prog::PipelineDiagram& inc = p.append("increment");
  const arch::AlsId als = firstDoublet(machine_);
  const arch::FuId add = machine_.als(als).fus[0];
  inc.setFuOp(machine_, add, OpCode::kAdd);
  inc.connect(machine_, Endpoint::planeRead(0), Endpoint::fuInput(add, 0));
  inc.setConstInput(machine_, add, 1, 1.0);
  inc.connect(machine_, Endpoint::fuOutput(add), Endpoint::planeWrite(1));
  inc.dmaAt(Endpoint::planeRead(0)) = {"", 0, 1, 1, 1, 0, 0, false};
  inc.dmaAt(Endpoint::planeWrite(1)) = {"", 0, 1, 1, 1, 0, 0, false};

  prog::PipelineDiagram& copy = p.append("copy-back");
  copy.connect(machine_, Endpoint::planeRead(1), Endpoint::planeWrite(0));
  copy.dmaAt(Endpoint::planeRead(1)) = {"", 0, 1, 1, 1, 0, 0, false};
  copy.dmaAt(Endpoint::planeWrite(0)) = {"", 0, 1, 1, 1, 0, 0, false};
  copy.seq = {arch::SeqOp::kLoop, 0, 0, 5};

  prog::PipelineDiagram& halt = p.append("halt");
  halt.seq.op = arch::SeqOp::kHalt;

  NodeSim node(machine_);
  std::string err;
  ASSERT_TRUE(generateAndLoad(machine_, p, node, &err)) << err;
  const double zero[] = {0.0};
  node.writePlane(0, 0, zero);
  const sim::RunStats stats = node.run();
  ASSERT_FALSE(stats.error) << stats.error_message;
  EXPECT_EQ(node.readPlaneWord(0, 0), 5.0);
  // 5 loop rounds x 2 instructions + halt.
  EXPECT_EQ(stats.instructions_executed, 11u);
}

TEST_F(SimTest, ConditionalBranchOnLatchedComparison) {
  // Repeatedly double plane0[0] until it exceeds 100, using the condition
  // latch and a BranchIf, then halt.  Starts at 1 -> 7 doublings (128).
  prog::Program p;
  const arch::AlsId als = firstDoublet(machine_);
  const arch::FuId dbl = machine_.als(als).fus[0];
  const arch::FuId cmp = machine_.als(als).fus[1];

  prog::PipelineDiagram& step = p.append("double");
  step.setFuOp(machine_, dbl, OpCode::kMul);
  step.connect(machine_, Endpoint::planeRead(0), Endpoint::fuInput(dbl, 0));
  step.setConstInput(machine_, dbl, 1, 2.0);
  step.connect(machine_, Endpoint::fuOutput(dbl), Endpoint::planeWrite(1));
  step.setFuOp(machine_, cmp, OpCode::kCmpLt);
  step.connect(machine_, Endpoint::fuOutput(dbl), Endpoint::fuInput(cmp, 0));
  step.setConstInput(machine_, cmp, 1, 100.0);  // value < 100 ?
  step.cond = prog::CondLatch{cmp, 1};
  step.dmaAt(Endpoint::planeRead(0)) = {"", 0, 1, 1, 1, 0, 0, false};
  step.dmaAt(Endpoint::planeWrite(1)) = {"", 0, 1, 1, 1, 0, 0, false};

  prog::PipelineDiagram& copy = p.append("copy-back");
  copy.connect(machine_, Endpoint::planeRead(1), Endpoint::planeWrite(0));
  copy.dmaAt(Endpoint::planeRead(1)) = {"", 0, 1, 1, 1, 0, 0, false};
  copy.dmaAt(Endpoint::planeWrite(0)) = {"", 0, 1, 1, 1, 0, 0, false};
  copy.seq = {arch::SeqOp::kBranchIf, 0, 1, 0};

  prog::PipelineDiagram& halt = p.append("halt");
  halt.seq.op = arch::SeqOp::kHalt;

  NodeSim node(machine_);
  std::string err;
  ASSERT_TRUE(generateAndLoad(machine_, p, node, &err)) << err;
  const double one[] = {1.0};
  node.writePlane(0, 0, one);
  const sim::RunStats stats = node.run();
  ASSERT_FALSE(stats.error) << stats.error_message;
  EXPECT_EQ(node.readPlaneWord(0, 0), 128.0);
  EXPECT_TRUE(stats.halted);
}

TEST_F(SimTest, StridedAndTwoLevelDma) {
  // Gather every 3rd element, then a two-level (4 rows x 5 elements)
  // rectangle, through a pass unit.
  prog::Program p;
  const arch::AlsId als = firstDoublet(machine_);
  const arch::FuId pass = machine_.als(als).fus[0];

  prog::PipelineDiagram& d = p.append("strided");
  d.setFuOp(machine_, pass, OpCode::kPass);
  d.connect(machine_, Endpoint::planeRead(0), Endpoint::fuInput(pass, 0));
  d.connect(machine_, Endpoint::fuOutput(pass), Endpoint::planeWrite(1));
  d.dmaAt(Endpoint::planeRead(0)) = {"", 0, 3, 10, 1, 0, 0, false};
  d.dmaAt(Endpoint::planeWrite(1)) = {"", 0, 1, 10, 1, 0, 0, false};

  prog::PipelineDiagram& rect = p.append("rect");
  rect.setFuOp(machine_, pass, OpCode::kPass);
  rect.connect(machine_, Endpoint::planeRead(0), Endpoint::fuInput(pass, 0));
  rect.connect(machine_, Endpoint::fuOutput(pass), Endpoint::planeWrite(2));
  rect.dmaAt(Endpoint::planeRead(0)) = {"", 2, 1, 5, 4, 10, 0, false};
  rect.dmaAt(Endpoint::planeWrite(2)) = {"", 0, 1, 20, 1, 0, 0, false};
  rect.seq.op = arch::SeqOp::kHalt;

  NodeSim node(machine_);
  std::string err;
  ASSERT_TRUE(generateAndLoad(machine_, p, node, &err)) << err;
  const std::vector<double> x = iota(64, 0.0, 1.0);
  node.writePlane(0, 0, x);
  const sim::RunStats stats = node.run();
  ASSERT_FALSE(stats.error) << stats.error_message;

  const std::vector<double> strided = node.readPlane(1, 0, 10);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(strided[static_cast<std::size_t>(i)], 3.0 * i);
  }
  const std::vector<double> rect_out = node.readPlane(2, 0, 20);
  for (int r = 0; r < 4; ++r) {
    for (int e = 0; e < 5; ++e) {
      EXPECT_EQ(rect_out[static_cast<std::size_t>(r * 5 + e)],
                static_cast<double>(2 + 10 * r + e));
    }
  }
}

TEST_F(SimTest, PureDmaCopyWithoutFunctionUnits) {
  prog::Program p;
  prog::PipelineDiagram& d = p.append("memcpy");
  d.connect(machine_, Endpoint::planeRead(3), Endpoint::planeWrite(7));
  d.dmaAt(Endpoint::planeRead(3)) = {"", 4, 1, 16, 1, 0, 0, false};
  d.dmaAt(Endpoint::planeWrite(7)) = {"", 0, 1, 16, 1, 0, 0, false};
  d.seq.op = arch::SeqOp::kHalt;

  NodeSim node(machine_);
  std::string err;
  ASSERT_TRUE(generateAndLoad(machine_, p, node, &err)) << err;
  node.writePlane(3, 4, iota(16, 100.0));
  const sim::RunStats stats = node.run();
  ASSERT_FALSE(stats.error) << stats.error_message;
  EXPECT_EQ(node.readPlane(7, 0, 16), iota(16, 100.0));
}

TEST_F(SimTest, BroadcastFanoutWritesMultiplePlanes) {
  prog::Program p;
  prog::PipelineDiagram& d = p.append("broadcast");
  d.connect(machine_, Endpoint::planeRead(0), Endpoint::planeWrite(1));
  d.connect(machine_, Endpoint::planeRead(0), Endpoint::planeWrite(2));
  d.connect(machine_, Endpoint::planeRead(0), Endpoint::planeWrite(3));
  d.dmaAt(Endpoint::planeRead(0)) = {"", 0, 1, 8, 1, 0, 0, false};
  for (arch::PlaneId pl : {1, 2, 3}) {
    d.dmaAt(Endpoint::planeWrite(pl)) = {"", 0, 1, 8, 1, 0, 0, false};
  }
  d.seq.op = arch::SeqOp::kHalt;

  NodeSim node(machine_);
  std::string err;
  ASSERT_TRUE(generateAndLoad(machine_, p, node, &err)) << err;
  node.writePlane(0, 0, iota(8, 1.0));
  const sim::RunStats stats = node.run();
  ASSERT_FALSE(stats.error) << stats.error_message;
  for (arch::PlaneId pl : {1, 2, 3}) {
    EXPECT_EQ(node.readPlane(pl, 0, 8), iota(8, 1.0));
  }
}

TEST_F(SimTest, IntegerOpsOnCapableUnit) {
  prog::Program p;
  prog::PipelineDiagram& d = p.append("integer");
  const arch::AlsId als = firstDoublet(machine_);
  const arch::FuId iu = machine_.als(als).fus[0];  // integer-capable slot
  d.setFuOp(machine_, iu, OpCode::kAnd);
  d.connect(machine_, Endpoint::planeRead(0), Endpoint::fuInput(iu, 0));
  d.setConstInput(machine_, iu, 1, 12.0);
  d.connect(machine_, Endpoint::fuOutput(iu), Endpoint::planeWrite(1));
  d.dmaAt(Endpoint::planeRead(0)) = {"", 0, 1, 4, 1, 0, 0, false};
  d.dmaAt(Endpoint::planeWrite(1)) = {"", 0, 1, 4, 1, 0, 0, false};
  d.seq.op = arch::SeqOp::kHalt;

  NodeSim node(machine_);
  std::string err;
  ASSERT_TRUE(generateAndLoad(machine_, p, node, &err)) << err;
  const std::vector<double> x{7.0, 8.0, 13.0, 15.0};
  node.writePlane(0, 0, x);
  const sim::RunStats stats = node.run();
  ASSERT_FALSE(stats.error) << stats.error_message;
  const std::vector<double> expect{4.0, 8.0, 12.0, 12.0};
  EXPECT_EQ(node.readPlane(1, 0, 4), expect);
}

TEST_F(SimTest, InstructionTimeoutReportsError) {
  // A pipeline whose write can never complete: write expects data but the
  // routed source is a disabled FU (bypass the checker to build it).
  prog::Program p;
  prog::PipelineDiagram& d = p.append("stuck");
  d.connect(machine_, Endpoint::planeRead(0), Endpoint::planeWrite(1));
  d.dmaAt(Endpoint::planeRead(0)) = {"", 0, 1, 4, 1, 0, 0, false};
  d.dmaAt(Endpoint::planeWrite(1)) = {"", 0, 1, 4, 1, 0, 0, false};
  d.seq.op = arch::SeqOp::kHalt;

  mc::Generator generator(machine_);
  mc::GenerateResult result = generator.generate(p);
  ASSERT_TRUE(result.ok);
  // Corrupt the microcode: clear the switch route feeding the write port.
  arch::MicrowordSpec spec(machine_);
  const int dst = machine_.destinationIndex(Endpoint::planeWrite(1));
  spec.set(result.exe.words[0], arch::MicrowordSpec::switchField(dst), 0);

  NodeSim node(machine_, {.max_cycles_per_instruction = 2000});
  node.load(result.exe);
  const sim::RunStats stats = node.run();
  EXPECT_TRUE(stats.error);
  EXPECT_NE(stats.error_message.find("did not complete"), std::string::npos);
}

TEST_F(SimTest, TraceSinkObservesFlowingValues) {
  prog::Program p;
  prog::PipelineDiagram& d = p.append("traced");
  d.connect(machine_, Endpoint::planeRead(0), Endpoint::planeWrite(1));
  d.dmaAt(Endpoint::planeRead(0)) = {"", 0, 1, 4, 1, 0, 0, false};
  d.dmaAt(Endpoint::planeWrite(1)) = {"", 0, 1, 4, 1, 0, 0, false};
  d.seq.op = arch::SeqOp::kHalt;

  NodeSim node(machine_);
  std::string err;
  ASSERT_TRUE(generateAndLoad(machine_, p, node, &err)) << err;
  node.writePlane(0, 0, iota(4, 9.0));

  std::vector<sim::TraceFrame> frames;
  node.setTraceSink([&frames](const sim::TraceFrame& f) { frames.push_back(f); });
  const sim::RunStats stats = node.run();
  ASSERT_FALSE(stats.error);
  ASSERT_FALSE(frames.empty());
  // Cycle 0: the plane-read source emits element 0 (value 9).
  const int src = machine_.sourceIndex(Endpoint::planeRead(0));
  EXPECT_TRUE(frames[0].source_tokens[static_cast<std::size_t>(src)].valid);
  EXPECT_EQ(frames[0].source_tokens[static_cast<std::size_t>(src)].value, 9.0);
}

}  // namespace
}  // namespace nsc
