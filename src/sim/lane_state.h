// LaneState: the machine state of W node lanes, and the one compiled
// stepper that advances it.
//
// The NSC runs one statically routed microcode stream per node, the same
// stream on every node of an SPMD system, and the timing of every token —
// validity, last-element marks, DMA cursor positions, ring offsets, launch
// decisions, completion interrupts — is data-independent: only token
// *values*, accumulator contents, and latched condition booleans depend on
// the data.  So one stepper can move W data lanes per shape step, and the
// simulator has exactly one: executeCompiledBatchT<KW>.  A NodeSim runs it
// over its own memory at W = 1; a ReplicaBatch (ensembles, hypercube lane
// groups) runs it at W lanes.
//
// Layout: state is structure-of-arrays, address-major — plane word `addr`
// of lane `w` is planes[p][addr * W + w] — so at W = 1 it *is* the scalar
// layout and the legacy interpreter (NodeSim::execute) indexes it directly.
// One shape copy of every token stream is stepped per cycle; the token
// values live in contiguous per-lane columns (`vals[slot * W + w]`)
// advanced by W-wide inner loops with no branches on lane data, so they
// auto-vectorize.  Each instruction runs fill -> steady state -> drain:
// steady blocks of up to 64 cycles run back to back with no completion
// polling, bounded by the remaining-element distance to completion, and
// completion, drain accounting, and the condition latch follow the
// interpreter exactly (test_compiled.cpp pins the two bit-identical).
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

  // Executes one lowered instruction across every lane.  `trace`, when
  // non-null, receives one frame per cycle; only a one-lane state traces.
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
  // The stepper body.  KW > 0 fixes the lane count at compile time (fully
  // unrolled / vectorized lane loops); KW = 0 takes the runtime width.
  template <int KW>
  InstrStats executeCompiledBatchT(const CompiledInstr& ci, int instr_index,
                                   const std::string& name,
                                   std::uint64_t max_cycles,
                                   const TraceSink* trace);

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
  // instructions so steady-state stepping never allocates.  The shape
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
  };
  Scratch scratch_;
};

}  // namespace nsc::sim
