// Builds the paper's example program: the point Jacobi update for the 3-D
// Poisson equation with a residual convergence check (Figures 2 and 11),
// as NSC pipeline diagrams.
//
// Construction follows 1988 NSC practice as the paper describes it:
//   * the update streams the solution array linearly through the pipeline;
//     +-1 and +-nx neighbor taps are formed by the shift/delay units, and
//     the +-nx*ny neighbors come from extra copies of the array in other
//     memory planes ("it may be necessary to maintain multiple copies of
//     arrays", Section 3);
//   * each memory plane carries at most one stream per instruction, so the
//     update ping-pongs between an A and a B set of planes;
//   * cells inside the linear sweep window that are really boundary cells
//     receive wrapped-neighbor values; six face-restore instructions
//     (two-level DMA transfers) repair them from the previous iterate
//     before the next sweep — so interior cells evolve exactly like
//     textbook Jacobi;
//   * the residual max is accumulated by a min/max unit with register-file
//     feedback, gated by an interior mask stream, compared against the
//     tolerance by a cmp unit, latched into a condition register, and
//     tested by the sequencer ("interrupts ... evaluate conditional
//     expressions").
//
// The `restricted` flag builds the same computation for the paper's
// simpler-subset model (Section 6): singlet-only ALSs, no shift/delay
// units — every neighbor offset then needs its own plane copy, which
// nearly exhausts the 16 planes and drops the residual check.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/machine.h"
#include "cfd/poisson.h"
#include "program/program.h"
#include "sim/node.h"
#include "sim/stats.h"

namespace nsc::cfd {

struct JacobiBuildOptions {
  Grid3 grid{8, 8, 8};
  double h = 1.0 / 7.0;
  double omega = 1.0;           // 1.0 = plain Jacobi; <1 damped (smoother)
  bool convergence_mode = true; // residual check + conditional branch
  double tol = 1e-6;
  int fixed_sweeps = 10;        // when !convergence_mode; rounded up to even
  bool restricted = false;      // simpler-subset machine model (Section 6)
};

struct JacobiLayout {
  Grid3 grid;
  int pad = 0;       // plane word offset of array element 0
  int max_shift = 0; // deepest shift/delay element shift (read pre-roll)
  std::vector<arch::PlaneId> u_a;  // solution copies, A set
  std::vector<arch::PlaneId> u_b;  // solution copies, B set
  arch::PlaneId f_plane = 0;
  arch::PlaneId mask_plane = -1;  // -1 when the model drops the residual
  arch::PlaneId res_plane = -1;

  std::uint64_t wordOf(int cell) const {
    return static_cast<std::uint64_t>(pad + cell);
  }
};

class JacobiProgram {
 public:
  JacobiProgram(const arch::Machine& machine, JacobiBuildOptions options);

  const prog::Program& program() const { return program_; }
  const JacobiLayout& layout() const { return layout_; }
  const JacobiBuildOptions& options() const { return options_; }

  // Deposits u0 / f / mask into the node's memory planes, through any
  // ReplicaStore: a NodeSim, a ReplicaBatch lane, or one node of a
  // HypercubeSystem.
  void load(sim::ReplicaStore& store, const PoissonProblem& problem) const;

  // Number of sweep instructions executed in a run (trace names).
  static std::uint64_t sweepsDone(const sim::RunStats& stats);

  // Reads back the latest iterate (A or B set chosen by sweep parity).
  std::vector<double> extract(const sim::NodeSim& node,
                              std::uint64_t sweeps_done) const;

  // Last residual the pipeline wrote (full model only).
  double residual(const sim::NodeSim& node) const;

 private:
  prog::PipelineDiagram buildSweep(const std::vector<arch::PlaneId>& from,
                                   const std::vector<arch::PlaneId>& to,
                                   const std::string& name) const;
  prog::PipelineDiagram buildRestore(int face, arch::PlaneId from,
                                     const std::vector<arch::PlaneId>& to,
                                     const std::string& name) const;
  void buildFullSweepPipeline(prog::PipelineDiagram& d,
                              const std::vector<arch::PlaneId>& from,
                              const std::vector<arch::PlaneId>& to) const;
  void buildRestrictedSweepPipeline(prog::PipelineDiagram& d,
                                    const std::vector<arch::PlaneId>& from,
                                    const std::vector<arch::PlaneId>& to) const;

  const arch::Machine& machine_;
  JacobiBuildOptions options_;
  JacobiLayout layout_;
  prog::Program program_;
};

}  // namespace nsc::cfd
