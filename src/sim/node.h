// NodeSim: cycle-level simulator of one Navier-Stokes Computer node.
//
// The NSC was never completed; this simulator is the substitute backend
// (README.md, "Node execution pipeline").  It executes the microcode
// produced by mc::Generator — decoding the same bit fields — and models,
// per cycle:
//
//   * 32 functional units with per-op pipeline latencies, register-file
//     constant supply, circular-queue delays, and accumulator feedback;
//   * the crossbar switch network (one-cycle hop, registered);
//   * 16 memory-plane DMA engines with two-level strided addressing;
//   * 16 double-buffered caches;
//   * 2 shift/delay units re-forming one stream into delayed copies;
//   * the condition latch, completion detection ("an elaborate interrupt
//     scheme is used to signal pipeline completions"), and the central
//     sequencer (next/jump/branch/loop/halt).
//
// Programs load as an immutable sim::CompiledProgram (decode, lowering,
// verification and value programs run once; SPMD systems share one image
// across all nodes).  The node's memory is a one-lane sim::LaneState, and
// instructions execute as value programs (LaneState::executeCompiledBatch
// at W = 1) — the same code that runs ensemble and hypercube lane groups.
// The legacy interpreter (execute) re-walks the decoded plans per cycle
// over the same state.  It is the test-only semantic oracle behind
// NodeOptions::use_compiled = false, and it runs every instruction of a
// node with a trace sink attached, because it builds the debugger's
// frames.  Both produce bit-identical InstrStats and memory contents
// (test_compiled.cpp golden tests).
//
// Determinism: the simulator is single-threaded and fully deterministic;
// all state is reset per instruction except memory planes, caches,
// condition registers, loop counters, and register-file images.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "arch/machine.h"
#include "microcode/generator.h"
#include "sim/compiled.h"
#include "sim/lane_state.h"
#include "sim/stats.h"
#include "sim/token.h"

namespace nsc::sim {

// One cycle of observable dataflow, for the visual debugger (paper,
// Section 6: "each new instruction would display the corresponding pipeline
// diagram, annotated to show data values flowing through the pipeline").
struct TraceFrame {
  int instruction = 0;
  std::uint64_t cycle = 0;
  // Token per switch source endpoint, indexed like Machine::sources().
  std::vector<Token> source_tokens;
};
using TraceSink = std::function<void(const TraceFrame&)>;

struct NodeOptions {
  std::uint64_t max_cycles_per_instruction = 64ull * 1024 * 1024;
  std::uint64_t max_instructions = 1ull << 20;
  // false selects the legacy per-cycle interpreter, the test-only semantic
  // oracle for compiled execution (same results, slower).  It holds for
  // every lane: a ReplicaBatch (and so a HypercubeSystem lane group) built
  // with it retires each lane into an interpreter NodeSim when run()
  // starts.
  bool use_compiled = true;
};

// Host-side seeding interface over one replica's memory, implemented by a
// NodeSim and by one lane of a ReplicaBatch (or of a HypercubeSystem), so a
// single per-replica init callback seeds any of them identically.
class ReplicaStore {
 public:
  virtual void writePlane(arch::PlaneId plane, std::uint64_t base,
                          std::span<const double> values) = 0;
  virtual void writeCache(arch::CacheId cache, int buffer, std::uint64_t base,
                          std::span<const double> values) = 0;

 protected:
  ~ReplicaStore() = default;
};

// One step of the central sequencer: where control goes once the
// instruction at `pc` (decoded as `plan`) completes.  `cond` is the value
// of the condition register a branch consults (ignored by other ops), and
// `counter` is the loop counter of slot `pc`.  A halt, or a next pc outside
// the program, halts; on kHalt the pc stays put.  NodeSim steps through
// this, and so does a ReplicaBatch for its lockstep lanes (per lane where a
// branch consults the condition registers).
struct SequencerStep {
  int pc = 0;
  bool halt = false;
};
SequencerStep sequencerStep(const InstrPlan& plan, int pc, bool cond,
                            std::optional<int>& counter,
                            std::size_t program_size);

class NodeSim final : public ReplicaStore {
 public:
  using Options = NodeOptions;

  explicit NodeSim(const arch::Machine& machine, Options options = {});

  const arch::Machine& machine() const { return machine_; }

  // Compiles microcode + register-file images, loads the result, and
  // resets the sequencer.  For many nodes running the same executable,
  // compile once and use the shared overload instead.
  void load(const mc::Executable& exe);

  // Loads an already-compiled program (shared, immutable).  All SPMD nodes
  // of a system load the same image; nothing is copied per node.
  void load(std::shared_ptr<const CompiledProgram> program);

  const std::shared_ptr<const CompiledProgram>& program() const {
    return program_;
  }

  // ---- Memory access (host/loader side) ----
  void writePlane(arch::PlaneId plane, std::uint64_t base,
                  std::span<const double> values) override;
  std::vector<double> readPlane(arch::PlaneId plane, std::uint64_t base,
                                std::uint64_t count) const;
  // Copy-free variant: fills `out` (out.size() words starting at `base`),
  // zero-filling words beyond the simulated backing store.
  void readPlaneInto(arch::PlaneId plane, std::uint64_t base,
                     std::span<double> out) const;
  double readPlaneWord(arch::PlaneId plane, std::uint64_t addr) const;
  void fillPlane(arch::PlaneId plane, double value);

  void writeCache(arch::CacheId cache, int buffer, std::uint64_t base,
                  std::span<const double> values) override;
  std::vector<double> readCache(arch::CacheId cache, int buffer,
                                std::uint64_t base, std::uint64_t count) const;
  void readCacheInto(arch::CacheId cache, int buffer, std::uint64_t base,
                     std::span<double> out) const;

  bool cond(int reg) const {
    return state_.cond.at(static_cast<std::size_t>(reg)) != 0;
  }
  int pc() const { return pc_; }
  bool halted() const { return halted_; }

  // Executes the instruction at pc and advances control flow.  Returns the
  // stats for that instruction (error flag set on timeout/bad microcode).
  InstrStats stepInstruction();

  // Runs from the current pc until halt, error, or the instruction budget.
  RunStats run();

  // Re-arms the sequencer at instruction 0 without touching memory.
  void restart();

  // ---- Durable-state hand-off (service durability layer) ----
  //
  // Everything that survives between instructions and is observable by a
  // later request: plane/cache memory images, condition registers, and the
  // sequencer position.  The loaded program is deliberately absent — it is
  // immutable, shared, and re-resolved through the compiled-program cache
  // by the next load(); loop counters are re-armed by load() as well.
  struct Snapshot {
    std::vector<std::vector<double>> planes;                // [plane][word]
    std::vector<std::vector<std::vector<double>>> caches;   // [cache][buf][w]
    std::vector<bool> cond_regs;
    int pc = 0;
    bool halted = false;
  };
  Snapshot snapshot() const;
  // Restores a snapshot taken from a node on the same machine config.  The
  // node afterwards has no loaded program (callers load before running,
  // exactly as the service request paths always do); memory reads and a
  // subsequent load+run behave bit-identically to the snapshotted node.
  void restoreSnapshot(Snapshot snapshot);

  // With a sink attached, every instruction runs on the interpreter, which
  // hands the sink one frame per simulated cycle.
  void setTraceSink(TraceSink sink) { trace_ = std::move(sink); }

 private:
  // The SoA ensemble engine (sim/batch.h) extracts diverged lanes into
  // private NodeSims mid-run — an exact de-interleaved state hand-off.
  friend class ReplicaBatch;

  // Legacy per-cycle interpreter (the test-only semantic oracle).
  InstrStats execute(const InstrPlan& plan, int instr_index,
                     const std::string& name);
  void applySequencer(const InstrPlan& plan);

  const arch::Machine& machine_;
  Options options_;

  // Loaded program (shared, immutable; may be aliased by other nodes).
  std::shared_ptr<const CompiledProgram> program_;

  // Persistent machine state: planes, caches, condition registers, and
  // run accounting, as one lane; plus the sequencer.
  LaneState state_;
  std::vector<std::optional<int>> loop_counters_;  // per instruction slot
  int pc_ = 0;
  bool halted_ = false;

  TraceSink trace_;
};

}  // namespace nsc::sim
