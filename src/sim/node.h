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
// Programs load as an immutable sim::CompiledProgram (decode + lowering run
// once; SPMD systems share one image across all nodes).  Two engines
// execute it: the compiled engine (default) steps pre-resolved instruction
// images in blocked fill/steady/drain form; the legacy interpreter
// (NodeOptions::use_compiled = false) re-walks the decoded plans per cycle
// and is kept as the semantic reference — both produce bit-identical
// InstrStats and memory contents (test_compiled.cpp golden tests).
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
  // false selects the legacy per-cycle interpreter (semantic reference for
  // the compiled engine; same results, slower).
  bool use_compiled = true;
  // Nonzero pins the compiled engine's steady-state block length, ignoring
  // the per-instruction verifier-proven window (bench/testing knob; 64
  // reproduces the legacy fixed block exactly).
  std::uint64_t steady_block_override = 0;
};

class NodeSim {
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
                  std::span<const double> values);
  std::vector<double> readPlane(arch::PlaneId plane, std::uint64_t base,
                                std::uint64_t count) const;
  // Copy-free variant: fills `out` (out.size() words starting at `base`),
  // zero-filling words beyond the simulated backing store.
  void readPlaneInto(arch::PlaneId plane, std::uint64_t base,
                     std::span<double> out) const;
  double readPlaneWord(arch::PlaneId plane, std::uint64_t addr) const;
  void fillPlane(arch::PlaneId plane, double value);

  void writeCache(arch::CacheId cache, int buffer, std::uint64_t base,
                  std::span<const double> values);
  std::vector<double> readCache(arch::CacheId cache, int buffer,
                                std::uint64_t base, std::uint64_t count) const;
  void readCacheInto(arch::CacheId cache, int buffer, std::uint64_t base,
                     std::span<double> out) const;

  bool cond(int reg) const { return cond_regs_.at(static_cast<std::size_t>(reg)); }
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

  void setTraceSink(TraceSink sink) { trace_ = std::move(sink); }

 private:
  // The SoA ensemble engine (sim/batch.h) extracts diverged lanes into
  // private NodeSims mid-run — an exact de-interleaved state hand-off.
  friend class ReplicaBatch;

  // Legacy per-cycle interpreter (semantic reference).
  InstrStats execute(const InstrPlan& plan, int instr_index,
                     const std::string& name);
  // Compiled engine: blocked fill/steady/drain over a lowered instruction
  // (defined in compiled_exec.cpp).
  InstrStats executeCompiled(const CompiledInstr& ci, int instr_index,
                             const std::string& name);
  void applySequencer(const InstrPlan& plan);
  // Grows a plane's simulated backing store to cover `needed` words
  // (geometric growth, capped at MachineConfig::sim_plane_words).
  void ensurePlaneSize(arch::PlaneId plane, std::uint64_t needed);

  const arch::Machine& machine_;
  Options options_;

  // Loaded program (shared, immutable; may be aliased by other nodes).
  std::shared_ptr<const CompiledProgram> program_;

  // Persistent machine state.
  std::vector<std::vector<double>> planes_;
  std::vector<std::vector<std::vector<double>>> caches_;  // [cache][buffer]
  std::vector<bool> cond_regs_;
  std::vector<std::optional<int>> loop_counters_;  // per instruction slot
  int pc_ = 0;
  bool halted_ = false;

  // Run accounting.
  std::vector<std::uint64_t> fu_launches_;

  // Reusable per-instruction execution state for the compiled engine; the
  // capacity survives across instructions so steady-state stepping never
  // allocates.
  struct Scratch {
    std::vector<Token> src_out;  // per switch source, this cycle
    std::vector<Token> dst_in;   // per switch destination (registered)
    std::vector<Token> arena;    // all FU pipe/queue + SD history rings
    struct FuRun {
      std::uint32_t pipe_pos = 0;
      std::uint32_t rfq_pos = 0;
      double acc = 0.0;
    };
    std::vector<FuRun> fu;
    struct DmaRun {
      std::uint64_t element = 0;
      std::uint64_t row = 0;
      std::uint64_t in_row = 0;
    };
    std::vector<DmaRun> reads;
    std::vector<DmaRun> writes;
    std::vector<std::uint32_t> sd_pos;
  };
  Scratch scratch_;

  TraceSink trace_;
};

}  // namespace nsc::sim
