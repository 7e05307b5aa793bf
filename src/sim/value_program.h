// Value programs: one lowered instruction as a flat list of windowed loads,
// evaluations, stores and the condition latch.
//
// Token timing in the NSC never depends on data (sim/lane_state.h), so which
// value moves where, and on which cycle, is fixed once an instruction is
// lowered.  The builder turns the verifier's exact valid windows
// (analyzeWindows, sim/verify.h) straight into operations, each active on
// one cycle window:
//
//   * a load per DMA read engine, on cycles [0, count);
//   * an evaluation per functional unit, on its launch window (an
//     accumulator folds into its accumulator column on every cycle its
//     stream operand is valid);
//   * a store per DMA write engine, on the first `count` cycles its input
//     carries valid tokens;
//   * the condition latch, on the one cycle its source's tagged final
//     element arrives.
//
// Every copy through a switch route, pipeline slot, delay queue or
// shift/delay tap is a rename: an operand names the operation that produced
// the value and how many cycles back it did, and reads that operation's ring
// of recent values.  Invalid tokens still carry values, and one consumer
// sees them: an accumulator's non-stream operand.  An accumulator emits its
// running value every cycle (valid only on the last element), a drained
// engine or an idle unit emits zero, and a pipeline not yet filled holds
// zero.  The builder splits such an operand's window into pieces that read
// the zero column, the producing accumulator's seed, its ring, or its
// accumulator column, so the operation sees exactly what the interpreter
// (NodeSim::execute) hands it.
//
// The list does not grow with stream length: an operation is one entry
// however many cycles it is active.  A run walks the cycle range as
// segments (maximal runs of cycles with one active set) and executes each
// cycle's operations in the interpreter's phase order — loads, units in ALS
// slot order, stores, latch — with W-wide lane loops, so an instruction
// that reads and writes one plane sees the same values.  Completion,
// flops, hazards and per-unit launches are build-time facts; a run only
// truncates them when the cycle budget cuts it short.
//
// Operand offsets and constants are filled in at emission, the prebuilt
// operation shape of SNIPPETS.md snippet 1; no machine code is generated.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "arch/machine.h"
#include "arch/ops.h"
#include "sim/compiled.h"
#include "sim/verify.h"

namespace nsc::sim {

// Where an operation reads one operand on cycle c: the value column
// base + ((c - dist) & mask) of the run's store.  A ring (mask + 1
// columns, a power of two) keeps a producing operation's most recent
// values; the zero column, a constant and an accumulator are one column
// each (mask 0).  A column holds W doubles, one per lane.
struct ValueRef {
  std::uint32_t base = 0;
  std::uint32_t mask = 0;
  std::uint32_t dist = 0;
};

enum class ValueOpKind : std::uint8_t { kLoad, kEval, kAccum, kStore, kLatch };

struct ValueOp {
  ValueOpKind kind = ValueOpKind::kEval;
  arch::OpCode op = arch::OpCode::kNop;  // kEval and kAccum
  // kLoad: index into CompiledInstr::reads; kStore: into writes; kLatch:
  // the condition register.
  std::uint16_t engine = 0;
  ValueRef a, b;  // kEval/kAccum operands; kStore and kLatch read `a`
  // kLoad/kEval (and kAccum when its running value has ring readers): the
  // ring column written on cycle c is out + (c & out_mask).  Column 0 is
  // the zero column, so out == 0 means "no ring".
  std::uint32_t out = 0;
  std::uint32_t out_mask = 0;
  std::uint32_t acc = 0;  // kAccum: the accumulator column
};

// Cycles [first, last] on which the same operations run; `active` lists
// them as ValueProgram::active[begin, end).
struct ValueSegment {
  std::uint64_t first = 0;
  std::uint64_t last = 0;  // inclusive; CycleWindow::kForever = unbounded
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
};

struct ValueProgram {
  static constexpr std::uint64_t kNever = CycleWindow::kForever;

  std::vector<ValueOp> ops;           // phase order
  std::vector<ValueSegment> segments;  // ascending; idle cycles have none
  std::vector<std::uint16_t> active;  // op indices, phase order per segment
  std::uint32_t columns = 1;          // value columns a run uses
  // Columns set before cycle 0: constants, and accumulator seeds.  Rings
  // need no reset: every ring read is of a value written in the same run.
  std::vector<std::pair<std::uint32_t, double>> presets;

  // The last cycle of a completing run (writes done, latch fired, drain
  // budget spent), or kNever when the instruction can never complete.
  std::uint64_t last_cycle = kNever;

  // What the stats of cycles [0, last] count, per enabled unit.
  struct Unit {
    arch::FuId fu = 0;
    bool counts_flop = false;
    bool hazards = false;       // two stream operands whose validity can differ
    CycleWindow launch, a, b;  // a, b as sampled (after the delay queue)
    std::uint64_t launches = 0;  // over a completing run
  };
  std::vector<Unit> units;
  std::uint64_t flops = 0;    // over a completing run
  std::uint64_t hazards = 0;  // over a completing run

  // Flops and hazards of cycles [0, last], adding each unit's launches
  // there to `fu_launches` (indexed by FU id).
  std::pair<std::uint64_t, std::uint64_t> count(
      std::uint64_t last, std::span<std::uint64_t> fu_launches) const;

  // Bytes this program keeps resident in a compiled program.
  std::size_t bytes() const;
};

// Builds the value program of one lowered instruction from its windows
// (analyzeWindows(machine, ci)).  Returns null only for an instruction that
// faults at issue, which never runs.  A window fixpoint that did not
// converge, which the strict window combinators rule out, throws
// std::logic_error.
std::shared_ptr<const ValueProgram> buildValueProgram(
    const arch::Machine& machine, const CompiledInstr& ci,
    const InstrWindows& windows);

}  // namespace nsc::sim
