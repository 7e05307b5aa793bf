#include "cfd/jacobi_program.h"

#include <cassert>
#include <stdexcept>

#include "common/strings.h"

namespace nsc::cfd {

using arch::Endpoint;
using arch::OpCode;
using common::strFormat;

JacobiProgram::JacobiProgram(const arch::Machine& machine,
                             JacobiBuildOptions options)
    : machine_(machine), options_(options) {
  const Grid3& g = options_.grid;
  layout_.grid = g;
  layout_.max_shift = options_.restricted ? 0 : 2 * g.nx;
  layout_.pad = g.W() + 2 * g.nx + 8;

  if (options_.restricted) {
    // Offsets +1,-1,+nx,-nx,+W,-W (and the center when damping needs it)
    // each need their own plane copy.
    const int copies = options_.omega != 1.0 ? 7 : 6;
    for (int i = 0; i < copies; ++i) layout_.u_a.push_back(i);
    for (int i = 0; i < copies; ++i) layout_.u_b.push_back(copies + i);
    layout_.f_plane = 2 * copies;
    layout_.mask_plane = -1;
    layout_.res_plane = -1;
    if (options_.convergence_mode) {
      // The subset model has no plane budget left for the mask and
      // residual streams; it runs fixed sweep counts only (Section 6:
      // performance/programmability tradeoff).
      options_.convergence_mode = false;
    }
  } else {
    layout_.u_a = {0, 1, 2, 3};
    layout_.u_b = {4, 5, 6, 7};
    layout_.f_plane = 8;
    layout_.res_plane = 9;
    layout_.mask_plane = 10;
  }

  if (!options_.restricted && 2 * g.nx > machine_.config().sd_max_delay) {
    throw std::invalid_argument(
        "grid nx too large for the shift/delay units; use more plane copies");
  }

  // --- Instruction sequence ---
  // 0          sweep A->B (latches cond0 in convergence mode)
  // 1..6       restore the six faces of the B copies from A
  // 7          sweep B->A
  // 8..13      restore the six faces of the A copies from B
  // 14         halt
  program_.name = options_.restricted ? "jacobi3d-restricted" : "jacobi3d";
  program_.pipelines.push_back(buildSweep(layout_.u_a, layout_.u_b, "sweep A->B"));
  for (int face = 0; face < 6; ++face) {
    program_.pipelines.push_back(buildRestore(
        face, layout_.u_a[0], layout_.u_b, strFormat("restore B face %d", face)));
  }
  program_.pipelines.push_back(buildSweep(layout_.u_b, layout_.u_a, "sweep B->A"));
  for (int face = 0; face < 6; ++face) {
    program_.pipelines.push_back(buildRestore(
        face, layout_.u_b[0], layout_.u_a, strFormat("restore A face %d", face)));
  }
  prog::PipelineDiagram halt;
  halt.name = "halt";
  halt.seq.op = arch::SeqOp::kHalt;
  program_.pipelines.push_back(halt);

  const int halt_index = static_cast<int>(program_.size()) - 1;
  if (options_.convergence_mode) {
    // After the B restores: stop if converged (cond0 clear).
    program_[6].seq = {arch::SeqOp::kBranchNot, halt_index, 0, 0};
    // After the A restores: keep iterating while cond0 set.
    program_[13].seq = {arch::SeqOp::kBranchIf, 0, 0, 0};
  } else {
    const int rounds = (options_.fixed_sweeps + 1) / 2;
    program_[13].seq = {arch::SeqOp::kLoop, 0, 0, rounds};
  }
}

// ---------------------------------------------------------------------------
// Sweep pipeline
// ---------------------------------------------------------------------------

prog::PipelineDiagram JacobiProgram::buildSweep(
    const std::vector<arch::PlaneId>& from,
    const std::vector<arch::PlaneId>& to, const std::string& name) const {
  prog::PipelineDiagram d;
  d.name = name;
  d.comment = "point Jacobi update, 3-D Poisson (paper Eq. 1, Fig. 11)";
  if (options_.restricted) {
    buildRestrictedSweepPipeline(d, from, to);
  } else {
    buildFullSweepPipeline(d, from, to);
  }
  return d;
}

void JacobiProgram::buildFullSweepPipeline(
    prog::PipelineDiagram& d, const std::vector<arch::PlaneId>& from,
    const std::vector<arch::PlaneId>& to) const {
  const Grid3& g = layout_.grid;
  const int nx = g.nx;
  const int W = g.W();
  const int c0 = g.linearLo();
  const auto M = static_cast<std::uint64_t>(g.linearSpan());
  const int shift = layout_.max_shift;  // = 2*nx
  const auto R = M + static_cast<std::uint64_t>(shift);  // read pre-roll
  const double h2 = options_.h * options_.h;

  // Functional units.  The machine's default layout: singlet ALSs first,
  // then doublets, then triplets; we take the first two doublets and all
  // four triplets.
  const arch::AlsId d0 = machine_.config().num_singlets;      // doublet
  const arch::AlsId d1 = d0 + 1;                              // doublet
  const arch::AlsId t0 = d0 + machine_.config().num_doublets; // triplets
  const auto fuOf = [&](arch::AlsId als, int slot) {
    return machine_.als(als).fus[static_cast<std::size_t>(slot)];
  };
  const arch::FuId h2f = fuOf(d0, 0);
  const arch::FuId dampM = fuOf(d1, 0), dampA = fuOf(d1, 1);
  const arch::FuId a1 = fuOf(t0, 0), a2 = fuOf(t0, 1), a3 = fuOf(t0, 2);
  const arch::FuId zsum = fuOf(t0 + 1, 0), sum6 = fuOf(t0 + 1, 1),
                   num = fuOf(t0 + 1, 2);
  const arch::FuId scale = fuOf(t0 + 2, 0), diff = fuOf(t0 + 2, 1),
                   absd = fuOf(t0 + 2, 2);
  // The running max must sit on a min/max-capable unit — the *last* slot
  // of its ALS (the per-ALS asymmetry of Section 3) — so the mask multiply
  // chains into slot 1 -> slot 2, and the tolerance compare lives on a
  // spare doublet reached through the switch.
  const arch::FuId maskm = fuOf(t0 + 3, 1), resmax = fuOf(t0 + 3, 2);
  const arch::FuId cmp = fuOf(d0 + 2, 0);

  // --- Streams.  Each read starts `shift` elements early (pre-roll) so
  // the deepest shift/delay tap is warm when the first center arrives;
  // a stream feeding a tap with element shift D and intended neighbor
  // offset o reads from base c0 + o + D - shift. ---
  auto readDma = [&](arch::PlaneId plane, int first_cell, const char* var) {
    prog::DmaSpec& dma = d.dmaAt(Endpoint::planeRead(plane));
    dma.variable = var;
    dma.base = layout_.wordOf(first_cell);
    dma.stride = 1;
    dma.count = R;
  };
  // SD0 forms u[c+1], u[c], u[c-1] from one stream (taps 0,1,2).
  readDma(from[0], c0 + 1 - shift, "u(x taps)");
  d.connect(machine_, Endpoint::planeRead(from[0]), Endpoint::sdInput(0));
  d.useSd(0, {0, 1, 2});
  // SD1 forms u[c+nx], u[c-nx] (taps 0 and 2nx).
  readDma(from[1], c0 + nx - shift, "u(y taps)");
  d.connect(machine_, Endpoint::planeRead(from[1]), Endpoint::sdInput(1));
  d.useSd(1, {0, 2 * nx});
  // +-W neighbors stream directly from offset copies.
  readDma(from[2], c0 + W - shift, "u(+W copy)");
  readDma(from[3], c0 - W - shift, "u(-W copy)");
  readDma(layout_.f_plane, c0 - shift, "f");
  readDma(layout_.mask_plane, c0 - shift, "interior mask");

  // --- The update tree (operation order mirrored by linearJacobiSweep) ---
  d.setFuOp(machine_, a1, OpCode::kAdd);  // u[c-1] + u[c+1]
  d.connect(machine_, Endpoint::sdOutput(0, 2), Endpoint::fuInput(a1, 0));
  d.connect(machine_, Endpoint::sdOutput(0, 0), Endpoint::fuInput(a1, 1));
  d.setFuOp(machine_, a2, OpCode::kAdd);  // ... + u[c+nx]
  d.connect(machine_, Endpoint::fuOutput(a1), Endpoint::fuInput(a2, 0));
  d.connect(machine_, Endpoint::sdOutput(1, 0), Endpoint::fuInput(a2, 1));
  d.setFuOp(machine_, a3, OpCode::kAdd);  // ... + u[c-nx]
  d.connect(machine_, Endpoint::fuOutput(a2), Endpoint::fuInput(a3, 0));
  d.connect(machine_, Endpoint::sdOutput(1, 1), Endpoint::fuInput(a3, 1));

  d.setFuOp(machine_, zsum, OpCode::kAdd);  // u[c+W] + u[c-W]
  d.connect(machine_, Endpoint::planeRead(from[2]), Endpoint::fuInput(zsum, 0));
  d.connect(machine_, Endpoint::planeRead(from[3]), Endpoint::fuInput(zsum, 1));
  d.setFuOp(machine_, sum6, OpCode::kAdd);
  d.connect(machine_, Endpoint::fuOutput(zsum), Endpoint::fuInput(sum6, 0));
  d.connect(machine_, Endpoint::fuOutput(a3), Endpoint::fuInput(sum6, 1));

  d.setFuOp(machine_, h2f, OpCode::kMul);  // h^2 * f  (constant from RF)
  d.connect(machine_, Endpoint::planeRead(layout_.f_plane),
            Endpoint::fuInput(h2f, 0));
  d.setConstInput(machine_, h2f, 1, h2);

  d.setFuOp(machine_, num, OpCode::kSub);  // sum6 - h^2 f
  d.connect(machine_, Endpoint::fuOutput(sum6), Endpoint::fuInput(num, 0));
  d.connect(machine_, Endpoint::fuOutput(h2f), Endpoint::fuInput(num, 1));

  d.setFuOp(machine_, scale, OpCode::kMul);  // * 1/6
  d.connect(machine_, Endpoint::fuOutput(num), Endpoint::fuInput(scale, 0));
  d.setConstInput(machine_, scale, 1, 1.0 / 6.0);

  d.setFuOp(machine_, diff, OpCode::kSub);  // ujac - u[c]
  d.connect(machine_, Endpoint::fuOutput(scale), Endpoint::fuInput(diff, 0));
  d.connect(machine_, Endpoint::sdOutput(0, 1), Endpoint::fuInput(diff, 1));
  d.setFuOp(machine_, absd, OpCode::kAbs);
  d.connect(machine_, Endpoint::fuOutput(diff), Endpoint::fuInput(absd, 0));

  d.setFuOp(machine_, maskm, OpCode::kMul);  // |diff| * mask
  d.connect(machine_, Endpoint::fuOutput(absd), Endpoint::fuInput(maskm, 0));
  d.connect(machine_, Endpoint::planeRead(layout_.mask_plane),
            Endpoint::fuInput(maskm, 1));
  d.setFuOp(machine_, resmax, OpCode::kMax);  // running max (feedback)
  d.connect(machine_, Endpoint::fuOutput(maskm), Endpoint::fuInput(resmax, 0));
  d.setAccumInput(machine_, resmax, 1, 0.0);
  d.setFuOp(machine_, cmp, OpCode::kCmpLt);  // tol < res ?
  d.setConstInput(machine_, cmp, 0, options_.tol);
  d.connect(machine_, Endpoint::fuOutput(resmax), Endpoint::fuInput(cmp, 1));
  d.cond = prog::CondLatch{cmp, 0};

  // Damped update (optional): u + omega*(ujac - u).
  arch::FuId unew = scale;
  if (options_.omega != 1.0) {
    d.setFuOp(machine_, dampM, OpCode::kMul);
    d.connect(machine_, Endpoint::fuOutput(diff), Endpoint::fuInput(dampM, 0));
    d.setConstInput(machine_, dampM, 1, options_.omega);
    d.setFuOp(machine_, dampA, OpCode::kAdd);
    d.connect(machine_, Endpoint::fuOutput(dampM), Endpoint::fuInput(dampA, 0));
    d.connect(machine_, Endpoint::sdOutput(0, 1), Endpoint::fuInput(dampA, 1));
    unew = dampA;
  }

  // --- Result streams ---
  for (const arch::PlaneId p : to) {
    d.connect(machine_, Endpoint::fuOutput(unew), Endpoint::planeWrite(p));
    prog::DmaSpec& dma = d.dmaAt(Endpoint::planeWrite(p));
    dma.variable = "u_next";
    dma.base = layout_.wordOf(c0);
    dma.stride = 1;
    dma.count = M;
  }
  d.connect(machine_, Endpoint::fuOutput(resmax),
            Endpoint::planeWrite(layout_.res_plane));
  prog::DmaSpec& res = d.dmaAt(Endpoint::planeWrite(layout_.res_plane));
  res.variable = "residual";
  res.base = 0;
  res.stride = 1;
  res.count = 1;
}

void JacobiProgram::buildRestrictedSweepPipeline(
    prog::PipelineDiagram& d, const std::vector<arch::PlaneId>& from,
    const std::vector<arch::PlaneId>& to) const {
  const Grid3& g = layout_.grid;
  const int c0 = g.linearLo();
  const auto M = static_cast<std::uint64_t>(g.linearSpan());
  const double h2 = options_.h * options_.h;
  // Neighbor offsets per plane copy index; the center copy exists only
  // when the damped update needs it.
  const int offsets[7] = {+1, -1, +g.nx, -g.nx, +g.W(), -g.W(), 0};
  const int copies = static_cast<int>(from.size());

  auto readDma = [&](arch::PlaneId plane, int offset) {
    prog::DmaSpec& dma = d.dmaAt(Endpoint::planeRead(plane));
    dma.variable = strFormat("u%+d", offset);
    dma.base = layout_.wordOf(c0 + offset);
    dma.stride = 1;
    dma.count = M;
  };
  for (int i = 0; i < copies; ++i) {
    readDma(from[static_cast<std::size_t>(i)], offsets[i]);
  }
  readDma(layout_.f_plane, 0);
  d.dmaAt(Endpoint::planeRead(layout_.f_plane)).variable = "f";

  // Singlet ALSs 0..7 in the restricted machine.
  const auto fu = [&](int als) {
    return machine_.als(als).fus[0];
  };
  const arch::FuId s1 = fu(0), s2 = fu(1), s3 = fu(2), zs = fu(3), s5 = fu(4),
                   fh = fu(5), nm = fu(6), sc = fu(7);

  d.setFuOp(machine_, s1, OpCode::kAdd);
  d.connect(machine_, Endpoint::planeRead(from[1]), Endpoint::fuInput(s1, 0));
  d.connect(machine_, Endpoint::planeRead(from[0]), Endpoint::fuInput(s1, 1));
  d.setFuOp(machine_, s2, OpCode::kAdd);
  d.connect(machine_, Endpoint::fuOutput(s1), Endpoint::fuInput(s2, 0));
  d.connect(machine_, Endpoint::planeRead(from[2]), Endpoint::fuInput(s2, 1));
  d.setFuOp(machine_, s3, OpCode::kAdd);
  d.connect(machine_, Endpoint::fuOutput(s2), Endpoint::fuInput(s3, 0));
  d.connect(machine_, Endpoint::planeRead(from[3]), Endpoint::fuInput(s3, 1));
  d.setFuOp(machine_, zs, OpCode::kAdd);
  d.connect(machine_, Endpoint::planeRead(from[4]), Endpoint::fuInput(zs, 0));
  d.connect(machine_, Endpoint::planeRead(from[5]), Endpoint::fuInput(zs, 1));
  d.setFuOp(machine_, s5, OpCode::kAdd);
  d.connect(machine_, Endpoint::fuOutput(zs), Endpoint::fuInput(s5, 0));
  d.connect(machine_, Endpoint::fuOutput(s3), Endpoint::fuInput(s5, 1));
  d.setFuOp(machine_, fh, OpCode::kMul);
  d.connect(machine_, Endpoint::planeRead(layout_.f_plane),
            Endpoint::fuInput(fh, 0));
  d.setConstInput(machine_, fh, 1, h2);
  d.setFuOp(machine_, nm, OpCode::kSub);
  d.connect(machine_, Endpoint::fuOutput(s5), Endpoint::fuInput(nm, 0));
  d.connect(machine_, Endpoint::fuOutput(fh), Endpoint::fuInput(nm, 1));
  d.setFuOp(machine_, sc, OpCode::kMul);
  d.connect(machine_, Endpoint::fuOutput(nm), Endpoint::fuInput(sc, 0));
  d.setConstInput(machine_, sc, 1, 1.0 / 6.0);

  arch::FuId unew = sc;
  if (options_.omega != 1.0) {
    const arch::FuId df = fu(8), dm = fu(9), da = fu(10);
    d.setFuOp(machine_, df, OpCode::kSub);
    d.connect(machine_, Endpoint::fuOutput(sc), Endpoint::fuInput(df, 0));
    d.connect(machine_, Endpoint::planeRead(from[6]), Endpoint::fuInput(df, 1));
    d.setFuOp(machine_, dm, OpCode::kMul);
    d.connect(machine_, Endpoint::fuOutput(df), Endpoint::fuInput(dm, 0));
    d.setConstInput(machine_, dm, 1, options_.omega);
    d.setFuOp(machine_, da, OpCode::kAdd);
    d.connect(machine_, Endpoint::fuOutput(dm), Endpoint::fuInput(da, 0));
    d.connect(machine_, Endpoint::planeRead(from[6]), Endpoint::fuInput(da, 1));
    unew = da;
  }

  for (int i = 0; i < copies; ++i) {
    const arch::PlaneId p = to[static_cast<std::size_t>(i)];
    d.connect(machine_, Endpoint::fuOutput(unew), Endpoint::planeWrite(p));
    prog::DmaSpec& dma = d.dmaAt(Endpoint::planeWrite(p));
    dma.variable = "u_next";
    dma.base = layout_.wordOf(c0);
    dma.stride = 1;
    dma.count = M;
  }
}

// ---------------------------------------------------------------------------
// Face restore
// ---------------------------------------------------------------------------

prog::PipelineDiagram JacobiProgram::buildRestore(
    int face, arch::PlaneId from, const std::vector<arch::PlaneId>& to,
    const std::string& name) const {
  const Grid3& g = layout_.grid;
  prog::PipelineDiagram d;
  d.name = name;
  d.comment = "boundary face refresh (two-level DMA copy)";

  prog::DmaSpec spec;
  spec.variable = strFormat("face%d", face);
  switch (face) {
    case 0:  // i = 0 plane: one column per (j,k)
      spec.base = layout_.wordOf(g.idx(0, 0, 0));
      spec.stride = g.nx;
      spec.count = static_cast<std::uint64_t>(g.ny);
      spec.count2 = static_cast<std::uint64_t>(g.nz);
      spec.stride2 = g.W();
      break;
    case 1:  // i = nx-1
      spec.base = layout_.wordOf(g.idx(g.nx - 1, 0, 0));
      spec.stride = g.nx;
      spec.count = static_cast<std::uint64_t>(g.ny);
      spec.count2 = static_cast<std::uint64_t>(g.nz);
      spec.stride2 = g.W();
      break;
    case 2:  // j = 0: nx contiguous per k
      spec.base = layout_.wordOf(g.idx(0, 0, 0));
      spec.stride = 1;
      spec.count = static_cast<std::uint64_t>(g.nx);
      spec.count2 = static_cast<std::uint64_t>(g.nz);
      spec.stride2 = g.W();
      break;
    case 3:  // j = ny-1
      spec.base = layout_.wordOf(g.idx(0, g.ny - 1, 0));
      spec.stride = 1;
      spec.count = static_cast<std::uint64_t>(g.nx);
      spec.count2 = static_cast<std::uint64_t>(g.nz);
      spec.stride2 = g.W();
      break;
    case 4:  // k = 0: one contiguous plane
      spec.base = layout_.wordOf(g.idx(0, 0, 0));
      spec.stride = 1;
      spec.count = static_cast<std::uint64_t>(g.W());
      break;
    case 5:  // k = nz-1
      spec.base = layout_.wordOf(g.idx(0, 0, g.nz - 1));
      spec.stride = 1;
      spec.count = static_cast<std::uint64_t>(g.W());
      break;
    default:
      assert(false);
  }

  d.dmaAt(Endpoint::planeRead(from)) = spec;
  d.dma[Endpoint::planeRead(from)].variable = "u(old)." + spec.variable;
  for (const arch::PlaneId p : to) {
    d.connect(machine_, Endpoint::planeRead(from), Endpoint::planeWrite(p));
    d.dmaAt(Endpoint::planeWrite(p)) = spec;
  }
  return d;
}

// ---------------------------------------------------------------------------
// Host-side load/extract
// ---------------------------------------------------------------------------

void JacobiProgram::load(sim::ReplicaStore& store,
                         const PoissonProblem& problem) const {
  const Grid3& g = layout_.grid;
  assert(g.nx == problem.grid.nx && g.ny == problem.grid.ny &&
         g.nz == problem.grid.nz);
  const auto pad = static_cast<std::uint64_t>(layout_.pad);
  for (const arch::PlaneId p : layout_.u_a) {
    store.writePlane(p, pad, problem.u0);
  }
  for (const arch::PlaneId p : layout_.u_b) {
    store.writePlane(p, pad, problem.u0);
  }
  store.writePlane(layout_.f_plane, pad, problem.f);
  if (layout_.mask_plane >= 0) {
    store.writePlane(layout_.mask_plane, pad, g.interiorMask());
  }
  if (layout_.res_plane >= 0) {
    const double zero[] = {0.0};
    store.writePlane(layout_.res_plane, 0, zero);
  }
}

std::uint64_t JacobiProgram::sweepsDone(const sim::RunStats& stats) {
  std::uint64_t n = 0;
  for (const sim::InstrStats& instr : stats.trace) {
    if (common::startsWith(instr.name, "sweep")) ++n;
  }
  return n;
}

std::vector<double> JacobiProgram::extract(const sim::NodeSim& node,
                                           std::uint64_t sweeps_done) const {
  // After an odd number of sweeps the freshest iterate is in the B set.
  const arch::PlaneId plane =
      (sweeps_done % 2 == 1) ? layout_.u_b[0] : layout_.u_a[0];
  std::vector<double> out(static_cast<std::size_t>(layout_.grid.N()));
  node.readPlaneInto(plane, static_cast<std::uint64_t>(layout_.pad), out);
  return out;
}

double JacobiProgram::residual(const sim::NodeSim& node) const {
  return layout_.res_plane >= 0 ? node.readPlaneWord(layout_.res_plane, 0)
                                : -1.0;
}

}  // namespace nsc::cfd
