// Semantic data structure tests: builders, serialization round trips, and
// the timing analysis / delay balancing.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "program/program.h"
#include "program/timing.h"

namespace nsc::prog {
namespace {

using arch::Endpoint;
using arch::Machine;
using arch::OpCode;

arch::AlsId firstDoublet(const Machine& m) { return m.config().num_singlets; }

TEST(PipelineDiagramTest, UseAlsSizesFuVector) {
  Machine m;
  PipelineDiagram d;
  const AlsUse& singlet = d.useAls(m, 0);
  EXPECT_EQ(singlet.fu.size(), 1u);
  const AlsUse& doublet = d.useAls(m, firstDoublet(m));
  EXPECT_EQ(doublet.fu.size(), 2u);
  const AlsUse& triplet =
      d.useAls(m, firstDoublet(m) + m.config().num_doublets);
  EXPECT_EQ(triplet.fu.size(), 3u);
  // Idempotent.
  d.useAls(m, 0);
  EXPECT_EQ(d.als_uses.size(), 3u);
}

TEST(PipelineDiagramTest, ConnectMarksInputSelects) {
  Machine m;
  PipelineDiagram d;
  const arch::AlsId als = firstDoublet(m);
  const arch::FuId f0 = m.als(als).fus[0];
  const arch::FuId f1 = m.als(als).fus[1];
  d.useAls(m, als);
  d.connect(m, Endpoint::planeRead(0), Endpoint::fuInput(f0, 0));
  EXPECT_EQ(d.fuUse(m, f0).in_a, arch::InputSelect::kSwitch);
  d.connect(m, Endpoint::fuOutput(f0), Endpoint::fuInput(f1, 0));
  EXPECT_EQ(d.fuUse(m, f1).in_a, arch::InputSelect::kChain);
  // Non-consecutive FU-to-FU goes through the switch.
  const arch::FuId other = m.als(als + 1).fus[0];
  d.useAls(m, als + 1);
  d.connect(m, Endpoint::fuOutput(f1), Endpoint::fuInput(other, 1));
  EXPECT_EQ(d.fuUse(m, other).in_b, arch::InputSelect::kSwitch);
}

TEST(PipelineDiagramTest, ConstAndAccumInputs) {
  Machine m;
  PipelineDiagram d;
  const arch::FuId f = m.als(firstDoublet(m)).fus[1];
  d.setFuOp(m, f, OpCode::kMax);
  d.setAccumInput(m, f, 1, -7.5);
  const FuUse& use = d.fuUse(m, f);
  EXPECT_EQ(use.in_b, arch::InputSelect::kFeedback);
  EXPECT_EQ(use.rf_mode, arch::RfMode::kAccum);
  EXPECT_EQ(use.rf_constant, -7.5);
}

TEST(PipelineDiagramTest, ConnectionQueries) {
  Machine m;
  PipelineDiagram d;
  d.useAls(m, firstDoublet(m));
  const arch::FuId f = m.als(firstDoublet(m)).fus[0];
  d.connect(m, Endpoint::planeRead(0), Endpoint::fuInput(f, 0));
  d.connect(m, Endpoint::planeRead(0), Endpoint::fuInput(f, 1));
  EXPECT_EQ(d.connectionsFrom(Endpoint::planeRead(0)).size(), 2u);
  EXPECT_TRUE(d.connectionTo(Endpoint::fuInput(f, 0)).has_value());
  EXPECT_FALSE(d.connectionTo(Endpoint::planeWrite(0)).has_value());
}

TEST(SerializationTest, EndpointRoundTrip) {
  for (const Endpoint e :
       {Endpoint::fuOutput(31), Endpoint::fuInput(7, 1), Endpoint::planeRead(15),
        Endpoint::planeWrite(0), Endpoint::cacheRead(9), Endpoint::cacheWrite(3),
        Endpoint::sdOutput(1, 2), Endpoint::sdInput(0)}) {
    const auto back = endpointFromJson(endpointToJson(e));
    ASSERT_TRUE(back.isOk()) << e.toString();
    EXPECT_EQ(back.value(), e);
  }
}

PipelineDiagram makeRichDiagram(const Machine& m) {
  PipelineDiagram d;
  d.name = "rich";
  d.comment = "everything populated";
  const arch::AlsId als = firstDoublet(m);
  const arch::FuId f0 = m.als(als).fus[0];
  const arch::FuId f1 = m.als(als).fus[1];
  d.setFuOp(m, f0, OpCode::kMul);
  d.connect(m, Endpoint::planeRead(0), Endpoint::fuInput(f0, 0));
  d.setConstInput(m, f0, 1, 3.25);
  d.setFuOp(m, f1, OpCode::kMax);
  d.connect(m, Endpoint::fuOutput(f0), Endpoint::fuInput(f1, 0));
  d.setAccumInput(m, f1, 1, 0.0);
  d.connect(m, Endpoint::fuOutput(f1), Endpoint::planeWrite(2));
  d.connect(m, Endpoint::planeRead(1), Endpoint::sdInput(0));
  d.useSd(0, {0, 2, 5});
  d.dmaAt(Endpoint::planeRead(0)) = {"x", 10, 2, 50, 2, 100, 0, false};
  d.dmaAt(Endpoint::planeRead(1)) = {"y", 0, 1, 100, 1, 0, 0, false};
  d.dmaAt(Endpoint::planeWrite(2)) = {"out", 0, 1, 1, 1, 0, 0, false};
  d.cond = CondLatch{f1, 2};
  d.seq = {arch::SeqOp::kBranchIf, 3, 2, 0};
  return d;
}

TEST(SerializationTest, DiagramRoundTrip) {
  Machine m;
  const PipelineDiagram d = makeRichDiagram(m);
  const auto back = PipelineDiagram::fromJson(d.toJson());
  ASSERT_TRUE(back.isOk()) << back.message();
  EXPECT_EQ(back.value(), d);
}

TEST(SerializationTest, ProgramRoundTripThroughText) {
  Machine m;
  Program p;
  p.name = "demo";
  p.pipelines.push_back(makeRichDiagram(m));
  PipelineDiagram halt;
  halt.name = "halt";
  halt.seq.op = arch::SeqOp::kHalt;
  p.pipelines.push_back(halt);

  const std::string text = p.toJson().dumpPretty();
  const auto parsed = common::Json::parse(text);
  ASSERT_TRUE(parsed.isOk());
  const auto back = Program::fromJson(parsed.value());
  ASSERT_TRUE(back.isOk()) << back.message();
  EXPECT_EQ(back.value(), p);
}

TEST(SerializationTest, ProgramFileRoundTrip) {
  Machine m;
  Program p;
  p.name = "file-demo";
  p.pipelines.push_back(makeRichDiagram(m));
  const std::string path = ::testing::TempDir() + "/nsc_program.json";
  ASSERT_TRUE(p.saveToFile(path).isOk());
  const auto back = Program::loadFromFile(path);
  ASSERT_TRUE(back.isOk()) << back.message();
  EXPECT_EQ(back.value(), p);
  std::remove(path.c_str());
}

// Program::operator== compares constants by value, so -0.0 == 0.0 would
// hide a save/load that drops the sign; check the bits.
TEST(SerializationTest, ProgramRoundTripKeepsNegativeZeroConstant) {
  Machine m;
  Program p;
  p.name = "signed-zero";
  PipelineDiagram& d = p.append("scale");
  const arch::FuId f = m.als(firstDoublet(m)).fus[0];
  d.setFuOp(m, f, OpCode::kMul);
  d.connect(m, Endpoint::planeRead(0), Endpoint::fuInput(f, 0));
  d.setConstInput(m, f, 1, -0.0);

  const auto parsed = common::Json::parse(p.toJson().dumpPretty());
  ASSERT_TRUE(parsed.isOk());
  const auto back = Program::fromJson(parsed.value());
  ASSERT_TRUE(back.isOk()) << back.message();
  const FuUse* use = back.value().pipelines[0].findFu(m, f);
  ASSERT_NE(use, nullptr);
  EXPECT_EQ(use->rf_constant, 0.0);
  EXPECT_TRUE(std::signbit(use->rf_constant));
}

TEST(SerializationTest, RejectsWrongHeader) {
  const auto parsed = common::Json::parse(R"({"format":"something-else"})");
  ASSERT_TRUE(parsed.isOk());
  EXPECT_FALSE(Program::fromJson(parsed.value()).isOk());
}

TEST(TimingTest, SimpleChainDepths) {
  Machine m;
  PipelineDiagram d;
  const arch::AlsId als = firstDoublet(m);
  const arch::FuId f0 = m.als(als).fus[0];
  d.setFuOp(m, f0, OpCode::kAdd);
  d.connect(m, Endpoint::planeRead(0), Endpoint::fuInput(f0, 0));
  d.connect(m, Endpoint::planeRead(1), Endpoint::fuInput(f0, 1));
  d.connect(m, Endpoint::fuOutput(f0), Endpoint::planeWrite(2));
  const TimingResult t = analyzeTiming(m, d);
  ASSERT_TRUE(t.ok);
  EXPECT_TRUE(t.misaligned.empty());
  // read(0) -> hop(1) -> add(6) -> hop(1): write arrival at 8.
  EXPECT_EQ(t.time.at(Endpoint::planeWrite(2)),
            arch::opInfo(OpCode::kAdd).latency + 2);
}

TEST(TimingTest, MissingDriverReported) {
  Machine m;
  PipelineDiagram d;
  const arch::FuId f0 = m.als(firstDoublet(m)).fus[0];
  d.setFuOp(m, f0, OpCode::kAdd);
  prog::FuUse& use = d.fuUse(m, f0);
  use.in_a = arch::InputSelect::kSwitch;
  use.in_b = arch::InputSelect::kSwitch;
  d.connect(m, Endpoint::fuOutput(f0), Endpoint::planeWrite(0));
  const TimingResult t = analyzeTiming(m, d);
  EXPECT_FALSE(t.ok);
  EXPECT_FALSE(t.errors.empty());
}

TEST(TimingTest, BalanceInsertsExactGap) {
  Machine m;
  PipelineDiagram d;
  const arch::AlsId alsA = firstDoublet(m);
  const arch::AlsId alsB = alsA + 1;
  const arch::FuId slow = m.als(alsA).fus[0];  // div: latency 20
  const arch::FuId join = m.als(alsB).fus[0];
  d.setFuOp(m, slow, OpCode::kDiv);
  d.connect(m, Endpoint::planeRead(0), Endpoint::fuInput(slow, 0));
  d.connect(m, Endpoint::planeRead(1), Endpoint::fuInput(slow, 1));
  d.setFuOp(m, join, OpCode::kAdd);
  d.connect(m, Endpoint::fuOutput(slow), Endpoint::fuInput(join, 0));
  d.connect(m, Endpoint::planeRead(2), Endpoint::fuInput(join, 1));
  d.connect(m, Endpoint::fuOutput(join), Endpoint::planeWrite(3));

  const TimingResult before = analyzeTiming(m, d);
  ASSERT_TRUE(before.ok);
  ASSERT_EQ(before.misaligned.size(), 1u);
  EXPECT_EQ(before.misaligned[0].fu, join);

  EXPECT_EQ(balanceDelays(m, d), 1);
  const FuUse& use = d.fuUse(m, join);
  EXPECT_EQ(use.rf_mode, arch::RfMode::kDelay);
  EXPECT_EQ(use.rf_delay_port, 1);
  // div latency plus the fu-output switch hop.
  EXPECT_EQ(use.rf_delay, arch::opInfo(OpCode::kDiv).latency + 1);
  EXPECT_TRUE(analyzeTiming(m, d).aligned());
}

TEST(TimingTest, BalanceHandlesDeepTrees) {
  // A left-leaning chain of adds: every join needs a successively larger
  // delay; balancing must converge and verify clean.
  Machine m;
  PipelineDiagram d;
  std::vector<arch::FuId> adders;
  const arch::AlsId first = firstDoublet(m);
  for (int i = 0; i < 4; ++i) {
    adders.push_back(m.als(first + i).fus[0]);
  }
  d.setFuOp(m, adders[0], OpCode::kAdd);
  d.connect(m, Endpoint::planeRead(0), Endpoint::fuInput(adders[0], 0));
  d.connect(m, Endpoint::planeRead(1), Endpoint::fuInput(adders[0], 1));
  for (int i = 1; i < 4; ++i) {
    d.setFuOp(m, adders[static_cast<std::size_t>(i)], OpCode::kAdd);
    d.connect(m, Endpoint::fuOutput(adders[static_cast<std::size_t>(i - 1)]),
              Endpoint::fuInput(adders[static_cast<std::size_t>(i)], 0));
    d.connect(m, Endpoint::planeRead(i + 1),
              Endpoint::fuInput(adders[static_cast<std::size_t>(i)], 1));
  }
  d.connect(m, Endpoint::fuOutput(adders[3]), Endpoint::planeWrite(6));
  EXPECT_EQ(balanceDelays(m, d), 3);
  EXPECT_TRUE(analyzeTiming(m, d).aligned());
}

TEST(TimingTest, UnbalanceableWhenDelayExceedsHardware) {
  Machine m;
  PipelineDiagram d;
  const arch::AlsId alsA = firstDoublet(m);
  const arch::AlsId alsB = alsA + 1;
  // Three sequential divs = 60+ cycles of skew, beyond rf_max_delay of 63?
  // Use four to be sure: 4 * 21 > 63.
  arch::FuId prev = -1;
  for (int i = 0; i < 4; ++i) {
    const arch::FuId f = m.als(alsA + i).fus[0];
    d.setFuOp(m, f, OpCode::kDiv);
    if (i == 0) {
      d.connect(m, Endpoint::planeRead(0), Endpoint::fuInput(f, 0));
    } else {
      d.connect(m, Endpoint::fuOutput(prev), Endpoint::fuInput(f, 0));
    }
    d.setConstInput(m, f, 1, 2.0);
    prev = f;
  }
  const arch::FuId join = m.als(alsB + 4).fus[0];
  d.setFuOp(m, join, OpCode::kAdd);
  d.connect(m, Endpoint::fuOutput(prev), Endpoint::fuInput(join, 0));
  d.connect(m, Endpoint::planeRead(1), Endpoint::fuInput(join, 1));
  d.connect(m, Endpoint::fuOutput(join), Endpoint::planeWrite(2));
  EXPECT_EQ(balanceDelays(m, d), -1);
}

TEST(TimingTest, SdTapsContributeNoStructuralSkew) {
  Machine m;
  PipelineDiagram d;
  const arch::FuId f = m.als(firstDoublet(m)).fus[0];
  d.connect(m, Endpoint::planeRead(0), Endpoint::sdInput(0));
  d.useSd(0, {0, 7});
  d.setFuOp(m, f, OpCode::kSub);
  d.connect(m, Endpoint::sdOutput(0, 0), Endpoint::fuInput(f, 0));
  d.connect(m, Endpoint::sdOutput(0, 1), Endpoint::fuInput(f, 1));
  d.connect(m, Endpoint::fuOutput(f), Endpoint::planeWrite(1));
  const TimingResult t = analyzeTiming(m, d);
  ASSERT_TRUE(t.ok);
  EXPECT_TRUE(t.misaligned.empty()) << "tap delays are element shifts, not skew";
}

}  // namespace
}  // namespace nsc::prog
