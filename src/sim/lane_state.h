// LaneState: the machine state of W node lanes, and the code that executes
// one lowered instruction over it.
//
// The NSC runs one statically routed microcode stream per node, the same
// stream on every node of an SPMD system, and the timing of every token —
// validity, last-element marks, DMA cursor positions, launch decisions,
// completion interrupts — is data-independent: only token *values*,
// accumulator contents, and latched condition booleans depend on the data.
// So which value moves where, and on which cycle, is fixed when an
// instruction is lowered, and one execution moves W data lanes at once.
// executeCompiledBatch runs the instruction's value program
// (sim/value_program.h): the loads, evaluations and stores the compile
// derived from the verifier's windows, each active on one cycle window, run
// cycle-major with W-wide lane loops.  A NodeSim runs it over its own
// memory at W = 1; a ReplicaBatch (ensembles, hypercube lane groups) runs
// it at W lanes.  A traced NodeSim runs the interpreter instead
// (NodeSim::execute), which builds the visual debugger's frames;
// test_compiled.cpp pins value programs bit-identical to it.
//
// Layout: state is structure-of-arrays, address-major — plane word `addr`
// of lane `w` is planes[p][addr * W + w] — so at W = 1 it *is* the scalar
// layout and the legacy interpreter (NodeSim::execute) indexes it directly.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "arch/machine.h"
#include "sim/compiled.h"
#include "sim/stats.h"

namespace nsc::sim {

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
  // program (sim/value_program.h).
  InstrStats executeCompiledBatch(const CompiledInstr& ci, int instr_index,
                                  const std::string& name,
                                  std::uint64_t max_cycles);

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
  // The body of executeCompiledBatch, after its prologue (issue faults,
  // plane growth, cache targets).  Fills the cycle and flop counts of
  // `stats` and returns whether the instruction completed within
  // `max_cycles`.  KW > 0 fixes the lane count at compile time (fully
  // unrolled / vectorized lane loops); KW = 0 takes the runtime width.
  template <int KW>
  bool runValuesT(const CompiledInstr& ci, const ValueProgram& vp,
                  std::uint64_t max_cycles, InstrStats& stats);

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
  // instructions, so a warm state never allocates.  The value program's
  // columns (W doubles each), and its DMA engines: reads, then writes.
  struct Scratch {
    std::vector<double> vals;
    struct Cursor {
      std::uint64_t addr = 0;  // the next element's word
      std::uint64_t row = 0;   // the current row's first word
      std::uint64_t in_row = 0;
      // Returns the next element's word; unsigned wrap-around gives the
      // interpreter's base + row * stride2 + in_row * stride bit for bit.
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
