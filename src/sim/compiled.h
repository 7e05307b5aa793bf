// Compile-once node execution: decoded instruction plans and their lowered,
// execution-ready form.
//
// The NSC node streams vectors through a statically-routed pipeline, so all
// routing, ring sizing, and endpoint resolution for an instruction is known
// the moment its microword is decoded.  The seed interpreter nevertheless
// re-derived all of it every cycle (dense endpoint indices via linear
// Machine::sourceIndex scans, ring allocation per execute call, route tables
// per instruction issue).  CompiledProgram does that work exactly once:
//
//   mc::Executable --decode--> InstrPlan --lower--> CompiledInstr
//
// and the whole program is held behind an immutable shared_ptr, so the 64
// nodes of a HypercubeSystem running the same SPMD executable share one
// compiled image instead of 64 private decoded copies.
//
// compile() also runs the verifier's window analysis once per instruction
// and turns it into the instruction's value program (sim/value_program.h):
// its loads, evaluations and stores, each active on one cycle window.
// LaneState::executeCompiledBatch (sim/lane_state.h) runs value programs
// for a NodeSim and for every lane group alike; a traced run steps the
// CompiledInstr cycle by cycle instead.  The legacy cycle interpreter
// (NodeSim::execute, the test-only oracle behind NodeOptions::use_compiled
// = false) walks the InstrPlans.  The golden tests in test_compiled.cpp pin
// them to bit-identical InstrStats and memory contents.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "arch/machine.h"
#include "microcode/generator.h"
#include "sim/stats.h"

namespace nsc::sim {

struct VerifyReport;  // sim/verify.h
struct ValueProgram;  // sim/value_program.h

// Drain budget for read-only pipelines: enough cycles for every FU latency
// in the machine plus the register-file and shift/delay queue depths.  The
// interpreter, the stepper and the value-program builder share this so the
// completion rule cannot drift between them.
inline std::uint64_t drainBudget(const arch::MachineConfig& cfg) {
  return 64 + static_cast<std::uint64_t>(cfg.rf_max_delay) +
         static_cast<std::uint64_t>(cfg.sd_max_delay);
}

// ---------------------------------------------------------------------------
// Decoded per-instruction plans (the interpreter's view of one microword).
// ---------------------------------------------------------------------------

struct FuPlan {
  bool enabled = false;
  arch::OpCode op = arch::OpCode::kNop;
  arch::InputSelect in_a = arch::InputSelect::kNone;
  arch::InputSelect in_b = arch::InputSelect::kNone;
  arch::RfMode rf_mode = arch::RfMode::kOff;
  int rf_delay = 0;
  int rf_delay_port = 0;
  double rf_value = 0.0;  // constant or accumulator seed
  int latency = 1;
  bool counts_flop = false;
  int arity = 0;
};

struct DmaPlan {
  int mode = 0;  // 0 idle, 1 read, 2 write (caches: bit0 read, bit1 fill)
  std::uint64_t base = 0;
  std::int64_t stride = 1;
  std::uint64_t count = 0;
  std::uint64_t count2 = 1;
  std::int64_t stride2 = 0;
  int read_buffer = 0;
  bool swap = false;
};

struct SdPlan {
  bool enabled = false;
  std::vector<int> taps;
};

struct InstrPlan {
  std::vector<FuPlan> fu;
  // Switch: dense source index + 1 per destination (0 = unrouted).
  std::vector<int> route;
  std::vector<DmaPlan> plane;
  std::vector<DmaPlan> cache;
  std::vector<SdPlan> sd;
  bool cond_enable = false;
  int cond_src_fu = 0;
  int cond_reg = 0;
  arch::SeqOp seq_op = arch::SeqOp::kNext;
  int seq_target = 0;
  int seq_cond_reg = 0;
  int seq_count = 0;
  bool has_writes = false;
  bool has_reads = false;
};

// ---------------------------------------------------------------------------
// Lowered form: everything pre-resolved to dense indices and flat arrays.
// ---------------------------------------------------------------------------

enum class OperandKind : std::uint8_t {
  kNone = 0,   // port unused: always an invalid token
  kSwitch,     // dst_in[index] (registered crossbar input)
  kChain,      // src_out[index] of the previous ALS slot, same cycle
  kConst,      // register-file constant
  kFeedback,   // the FU's own accumulator
};

struct CompiledOperand {
  OperandKind kind = OperandKind::kNone;
  std::int32_t index = -1;  // dst_in (kSwitch) or src_out (kChain) index
  bool queue = false;       // token passes through the rf delay queue
  bool wired = false;       // participates in launch validity
  bool stream = false;      // counts toward hazard detection
};

struct CompiledFu {
  arch::FuId fu = 0;
  arch::OpCode op = arch::OpCode::kNop;
  CompiledOperand a, b;
  bool is_accum = false;
  bool accum_stream_is_a = true;  // which operand carries the stream
  double rf_value = 0.0;          // constant / accumulator seed
  bool counts_flop = false;
  std::int32_t out_src = 0;  // src_out index of fuOutput(fu)
  // Ring layout inside the per-instruction token arena.
  std::uint32_t pipe_off = 0, pipe_len = 1;
  std::uint32_t rfq_off = 0, rfq_len = 0;  // 0 = no delay queue
};

// One active DMA engine (read or write; planes and caches share the shape).
struct CompiledDma {
  std::uint64_t base = 0;
  std::int64_t stride = 1;
  std::uint64_t count = 1;
  std::uint64_t count2 = 1;
  std::int64_t stride2 = 0;
  std::uint64_t total = 1;   // count * count2 elements
  std::int32_t endpoint = 0; // src_out index (reads) / dst_in index (writes)
  bool is_cache = false;
  std::int32_t unit = 0;
  std::int32_t buffer = 0;
};

struct CompiledSdTap {
  std::int32_t src = 0;     // src_out index of the tap endpoint
  std::uint32_t back = 0;   // ring offset ahead of the write position
};

struct CompiledSd {
  std::int32_t in_dst = 0;  // dst_in index feeding the history ring
  std::uint32_t hist_off = 0, hist_len = 1;
  std::vector<CompiledSdTap> taps;
};

// A fault proven at compile time: the instruction refuses to issue and both
// executors report it as this typed fault instead of executing.
struct InstrFault {
  FaultKind kind = FaultKind::kNone;
  arch::Endpoint endpoint{};   // offending endpoint (e.g. the DMA plane)
  std::int64_t address = 0;    // offending word for bounds faults
  std::string message;
};

struct CompiledInstr {
  std::vector<CompiledFu> fus;  // enabled units only, ALS slot order
  std::vector<std::pair<std::int32_t, std::int32_t>> routes;  // (dst, src)
  std::vector<CompiledDma> reads;
  std::vector<CompiledDma> writes;
  std::vector<CompiledSd> sds;
  // Planes whose simulated backing store must cover the touched range
  // before the engines start (pair: plane id, words needed).
  std::vector<std::pair<arch::PlaneId, std::uint64_t>> plane_grows;
  // Set when a plane DMA provably walks beyond sim_plane_words: the
  // instruction faults at issue with this diagnostic (detected at compile;
  // this replaced the stringly dma_error field).
  InstrFault fault;
  std::vector<arch::CacheId> swaps;  // double-buffer swaps at instruction end
  bool cond_enable = false;
  std::int32_t cond_src = -1;  // src_out index watched by the latch
  std::int32_t cond_reg = 0;
  std::uint32_t ring_slots = 0;  // total token-arena size for this instr
  // The instruction as windowed loads, evaluations and stores, built once
  // at compile from the verifier's windows (sim/value_program.h).  Null
  // only for an instruction that faults at issue.
  std::shared_ptr<const ValueProgram> value;
};

// An immutable, shareable compiled program: decoded plans (sequencer +
// legacy interpreter) and lowered instructions, index-parallel.
class CompiledProgram {
 public:
  // Decodes and lowers every microword of `exe` against `machine`.  The
  // machine must outlive the program (it already outlives every NodeSim).
  static std::shared_ptr<const CompiledProgram> compile(
      const arch::Machine& machine, const mc::Executable& exe);

  std::size_t size() const { return plans.size(); }

  std::vector<InstrPlan> plans;
  std::vector<CompiledInstr> instrs;
  std::vector<std::string> names;
  std::uint64_t fingerprint = 0;  // mc::Executable::fingerprint() of source
  // Static-analysis verdict produced once at compile; rides the shared
  // program pointer, so every cache shard / node / replica holding the image
  // shares one report (never null after compile()).
  std::shared_ptr<const VerifyReport> verify;
};

}  // namespace nsc::sim
