// LaneState: the machine state of W node lanes, and the code that executes
// one lowered instruction over it.
//
// The NSC runs one statically routed microcode stream per node, the same
// stream on every node of an SPMD system, and the timing of every token —
// validity, last-element marks, DMA cursor positions, ring offsets, launch
// decisions, completion interrupts — is data-independent: only token
// *values*, accumulator contents, and latched condition booleans depend on
// the data.  So which value moves where, and on which cycle, is fixed when
// an instruction is lowered, and one execution moves W data lanes at once.
// executeCompiledBatch runs the instruction's value program
// (sim/value_program.h): the loads, evaluations and stores the compile
// derived from the verifier's windows, each active on one cycle window, run
// cycle-major with W-wide lane loops.  A NodeSim runs it over its own
// memory at W = 1; a ReplicaBatch (ensembles, hypercube lane groups) runs
// it at W lanes.
//
// The stepper re-derives the pipeline's shape every cycle: one shape copy
// of every token stream, with the token values in per-lane columns
// (`vals[slot * W + w]`).  Only a traced run takes it, because the visual
// debugger's frames need every source endpoint's token on every cycle.
// Both follow the interpreter exactly (test_compiled.cpp pins them
// bit-identical to it).
//
// Layout: state is structure-of-arrays, address-major — plane word `addr`
// of lane `w` is planes[p][addr * W + w] — so at W = 1 it *is* the scalar
// layout and the legacy interpreter (NodeSim::execute) indexes it directly.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "arch/machine.h"
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

// The widest lane group any batch steps.
inline constexpr int kMaxLanes = 64;

class LaneState {
 public:
  LaneState(const arch::Machine& machine, int lanes);

  const arch::Machine& machine() const { return machine_; }
  int lanes() const { return lanes_; }

  // ---- Host access to one lane, with a scalar node's semantics: planes
  // grow on write (geometric, capped at sim_plane_words) and drop words
  // past the cap; reads zero-fill beyond the lane's backing store.  Plane
  // and cache ids are bounds-checked (std::out_of_range). ----
  void writePlane(int lane, arch::PlaneId plane, std::uint64_t base,
                  std::span<const double> values);
  void readPlaneInto(int lane, arch::PlaneId plane, std::uint64_t base,
                     std::span<double> out) const;
  void writeCache(int lane, arch::CacheId cache, int buffer,
                  std::uint64_t base, std::span<const double> values);
  void readCacheInto(int lane, arch::CacheId cache, int buffer,
                     std::uint64_t base, std::span<double> out) const;

  // Grows every lane's logical plane size as a scalar node's backing store
  // would grow, then extends the shared SoA store to the widest lane.
  void ensurePlaneSize(arch::PlaneId plane, std::uint64_t needed);
  // Cache buffers allocate on first write (host or DMA); an empty buffer
  // reads as all zeros.  Ids are bounds-checked.
  std::vector<double>& cacheStore(std::size_t cache, std::size_t buffer);

  // Copies lane `lane`'s memory and condition registers into `out`, a
  // one-lane state of the same machine (the divergence hand-off).
  void copyLaneTo(int lane, LaneState& out) const;
  // Replaces a one-lane state's memory and condition registers with scalar
  // images (a snapshot restore): each plane's logical size becomes its
  // image's length, and cache buffers whose bits are all zero are dropped,
  // so they stay unallocated until first touched.
  void adopt(std::vector<std::vector<double>> plane_images,
             std::vector<std::vector<std::vector<double>>> cache_images,
             const std::vector<bool>& cond_regs);

  // Executes one lowered instruction across every lane, on its value
  // program (sim/value_program.h).  `trace`, when non-null, receives one
  // frame per cycle; only a one-lane state traces, and a traced run — or an
  // instruction without a value program — takes the stepper.
  InstrStats executeCompiledBatch(const CompiledInstr& ci, int instr_index,
                                  const std::string& name,
                                  std::uint64_t max_cycles,
                                  const TraceSink* trace = nullptr);

  // ---- Persistent state.  The interpreter and the batch sequencer index
  // it directly; plane sizes change only through ensurePlaneSize,
  // copyLaneTo and adopt. ----
  // planes[p] holds plane_words_[p] * W doubles, address-major.
  std::vector<std::vector<double>> planes;
  // [c][buf]: SoA, lazily allocated (empty buffer == all zeros).
  std::vector<std::vector<std::vector<double>>> caches;
  std::vector<std::uint8_t> cond;  // [reg * W + w]
  // Valid launches per functional unit, shared by every lockstep lane.
  std::vector<std::uint64_t> fu_launches;

 private:
  // The two bodies behind executeCompiledBatch, after its prologue (issue
  // faults, plane growth, cache targets).  Each fills the cycle and flop
  // counts of `stats` and returns whether the instruction completed within
  // `max_cycles`.  KW > 0 fixes the lane count at compile time (fully
  // unrolled / vectorized lane loops); KW = 0 takes the runtime width.
  template <int KW>
  bool runValuesT(const CompiledInstr& ci, const ValueProgram& vp,
                  std::uint64_t max_cycles, InstrStats& stats);
  template <int KW>
  bool stepCompiledT(const CompiledInstr& ci, int instr_index,
                     std::uint64_t max_cycles, const TraceSink* trace,
                     InstrStats& stats);

  const arch::Machine& machine_;
  const int lanes_;
  std::vector<std::uint64_t> plane_words_;  // shared physical words per plane
  // What a scalar node's backing store size would be for each lane
  // (lane_plane_words_[p][w]): host reads/writes and lane hand-off use it,
  // so per-lane growth history stays observably scalar.  DMA in-range
  // checks use the shared physical size: both cover every non-wrapped DMA
  // address once plane_grows ran, so the comparisons agree.
  std::vector<std::vector<std::uint64_t>> lane_plane_words_;

  // Reusable per-instruction execution state; capacity survives across
  // instructions, so a warm state never allocates.  The stepper's shape
  // arrays carry no values: those live in the `*_vals` columns.
  struct Scratch {
    struct Shape {
      bool valid = false;
      bool last = false;
      std::int32_t index = -1;
    };
    std::vector<Shape> src_out, dst_in, arena;
    std::vector<double> src_vals, dst_vals, arena_vals;
    struct FuRun {
      std::uint32_t pipe_pos = 0;
      std::uint32_t rfq_pos = 0;
    };
    std::vector<FuRun> fu;
    std::vector<double> acc;  // [fu_slot * W + w]
    struct DmaRun {
      std::uint64_t element = 0;
      std::uint64_t row = 0;
      std::uint64_t in_row = 0;
    };
    std::vector<DmaRun> reads, writes;
    std::vector<std::uint32_t> sd_pos;

    // The value program's columns (W doubles each), and its DMA engines:
    // reads, then writes.
    std::vector<double> vals;
    struct Cursor {
      std::uint64_t addr = 0;  // the next element's word
      std::uint64_t row = 0;   // the current row's first word
      std::uint64_t in_row = 0;
      // Returns the next element's word; unsigned wrap-around gives the
      // stepper's base + row * stride2 + in_row * stride bit for bit.
      std::uint64_t next(const CompiledDma& d) {
        const std::uint64_t at = addr;
        if (++in_row == d.count) {
          in_row = 0;
          row += static_cast<std::uint64_t>(d.stride2);
          addr = row;
        } else {
          addr += static_cast<std::uint64_t>(d.stride);
        }
        return at;
      }
    };
    struct View {
      double* data = nullptr;
      std::uint64_t size = 0;
    };
    std::vector<Cursor> cursors;
    std::vector<View> views;
  };
  Scratch scratch_;
};

}  // namespace nsc::sim
