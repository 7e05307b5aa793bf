// LaneState: host access and the value-program runner (runValuesT).
//
// A run executes one cycle at a time in the interpreter's phase order
// (node.cpp), with values in contiguous per-lane columns advanced by W-wide
// inner loops.  Shape (validity, last marks, indices, cursors, launch
// decisions) is data-independent, so it is identical for every lockstep
// lane and the value program has it precomputed as windows.  The value
// loops are the only per-lane work and carry no branches on lane data, so
// they auto-vectorize.
#include "sim/lane_state.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <tuple>

#include "common/strings.h"
#include "sim/value_program.h"

namespace nsc::sim {

namespace {

// W-wide evalOp: the opcode switch hoisted out of the lane loop.  Each case
// must compute exactly what arch::evalOp computes per lane; rare opcodes
// fall back to the scalar call (bit-identical, just not vectorized).  KW > 0
// makes the trip count a compile-time constant (see runValuesT).
template <int KW>
void evalLanes(arch::OpCode op, const double* a, const double* b, double* out,
               int rw) {
  const int w = KW > 0 ? KW : rw;
  using arch::OpCode;
  switch (op) {
    case OpCode::kPass:
      for (int i = 0; i < w; ++i) out[i] = a[i];
      return;
    case OpCode::kAdd:
      for (int i = 0; i < w; ++i) out[i] = a[i] + b[i];
      return;
    case OpCode::kSub:
      for (int i = 0; i < w; ++i) out[i] = a[i] - b[i];
      return;
    case OpCode::kMul:
      for (int i = 0; i < w; ++i) out[i] = a[i] * b[i];
      return;
    case OpCode::kDiv:
      for (int i = 0; i < w; ++i) out[i] = a[i] / b[i];
      return;
    case OpCode::kNeg:
      for (int i = 0; i < w; ++i) out[i] = -a[i];
      return;
    case OpCode::kAbs:
      for (int i = 0; i < w; ++i) out[i] = std::fabs(a[i]);
      return;
    case OpCode::kCmpLt:
      for (int i = 0; i < w; ++i) out[i] = a[i] < b[i] ? 1.0 : 0.0;
      return;
    case OpCode::kCmpLe:
      for (int i = 0; i < w; ++i) out[i] = a[i] <= b[i] ? 1.0 : 0.0;
      return;
    case OpCode::kCmpEq:
      for (int i = 0; i < w; ++i) out[i] = a[i] == b[i] ? 1.0 : 0.0;
      return;
    case OpCode::kMin:
      for (int i = 0; i < w; ++i) out[i] = a[i] < b[i] ? a[i] : b[i];
      return;
    case OpCode::kMax:
      for (int i = 0; i < w; ++i) out[i] = a[i] > b[i] ? a[i] : b[i];
      return;
    default:
      for (int i = 0; i < w; ++i) out[i] = arch::evalOp(op, a[i], b[i]);
      return;
  }
}

}  // namespace

LaneState::LaneState(const arch::Machine& machine, int lanes)
    : machine_(machine), lanes_(std::clamp(lanes, 1, kMaxLanes)) {
  const arch::MachineConfig& cfg = machine_.config();
  const auto n_planes = static_cast<std::size_t>(cfg.num_memory_planes);
  const auto w = static_cast<std::size_t>(lanes_);
  planes.resize(n_planes);
  plane_words_.assign(n_planes, 0);
  lane_plane_words_.assign(n_planes, std::vector<std::uint64_t>(w, 0));
  // Cache buffers stay empty until first touched: most programs use few (or
  // no) caches, and eagerly zeroing num_caches * cache_buffers * W words
  // would dominate the cost of setting up a small run.
  caches.resize(static_cast<std::size_t>(cfg.num_caches));
  for (auto& cache : caches) {
    cache.resize(static_cast<std::size_t>(cfg.cache_buffers));
  }
  cond.assign(4 * w, 0);
  fu_launches.assign(static_cast<std::size_t>(cfg.numFus()), 0);
}

// Each lane's logical size grows exactly as a scalar node's backing store
// would (geometric, capped at the simulated capacity, so a program whose
// instructions extend the touched range step by step reallocates O(log n)
// times); the shared SoA store then covers the widest lane.  The layout is
// address-major, so a plain resize keeps existing words in place and
// zero-fills the growth.
void LaneState::ensurePlaneSize(arch::PlaneId plane, std::uint64_t needed) {
  const std::uint64_t cap = machine_.config().sim_plane_words;
  const auto p = static_cast<std::size_t>(plane);
  std::uint64_t widest = plane_words_[p];
  for (std::uint64_t& words : lane_plane_words_[p]) {
    if (words >= needed || needed > cap) continue;
    words = std::min<std::uint64_t>(
        cap, std::max<std::uint64_t>(needed, words * 2));
    widest = std::max(widest, words);
  }
  if (widest > plane_words_[p]) {
    plane_words_[p] = widest;
    planes[p].resize(widest * static_cast<std::uint64_t>(lanes_), 0.0);
  }
}

std::vector<double>& LaneState::cacheStore(std::size_t cache,
                                           std::size_t buffer) {
  std::vector<double>& mem = caches.at(cache).at(buffer);
  if (mem.empty()) {
    mem.assign(machine_.config().cacheWords() *
                   static_cast<std::size_t>(lanes_),
               0.0);
  }
  return mem;
}

void LaneState::writePlane(int lane, arch::PlaneId plane, std::uint64_t base,
                           std::span<const double> values) {
  const auto p = static_cast<std::size_t>(plane);
  std::vector<double>& mem = planes.at(p);
  ensurePlaneSize(plane, base + values.size());
  const auto w = static_cast<std::size_t>(lanes_);
  const auto l = static_cast<std::size_t>(lane);
  const std::uint64_t words = lane_plane_words_[p][l];
  const std::uint64_t start = std::min<std::uint64_t>(base, words);
  const std::uint64_t fit =
      std::min<std::uint64_t>(values.size(), words - start);
  for (std::uint64_t i = 0; i < fit; ++i) mem[(start + i) * w + l] = values[i];
}

void LaneState::readPlaneInto(int lane, arch::PlaneId plane,
                              std::uint64_t base,
                              std::span<double> out) const {
  const auto p = static_cast<std::size_t>(plane);
  const std::vector<double>& mem = planes.at(p);
  const auto w = static_cast<std::size_t>(lanes_);
  const auto l = static_cast<std::size_t>(lane);
  const std::uint64_t words = lane_plane_words_[p][l];
  const std::uint64_t start = std::min<std::uint64_t>(base, words);
  const std::uint64_t avail =
      std::min<std::uint64_t>(out.size(), words - start);
  for (std::uint64_t i = 0; i < avail; ++i) out[i] = mem[(start + i) * w + l];
  std::fill(out.begin() + static_cast<std::ptrdiff_t>(avail), out.end(), 0.0);
}

void LaneState::writeCache(int lane, arch::CacheId cache, int buffer,
                           std::uint64_t base,
                           std::span<const double> values) {
  double* mem = cacheStore(static_cast<std::size_t>(cache),
                           static_cast<std::size_t>(buffer))
                    .data();
  const std::uint64_t words = machine_.config().cacheWords();
  const auto w = static_cast<std::size_t>(lanes_);
  const auto l = static_cast<std::size_t>(lane);
  for (std::size_t i = 0; i < values.size() && base + i < words; ++i) {
    mem[(base + i) * w + l] = values[i];
  }
}

void LaneState::readCacheInto(int lane, arch::CacheId cache, int buffer,
                              std::uint64_t base,
                              std::span<double> out) const {
  const std::vector<double>& mem = caches.at(static_cast<std::size_t>(cache))
                                       .at(static_cast<std::size_t>(buffer));
  const auto w = static_cast<std::size_t>(lanes_);
  const auto l = static_cast<std::size_t>(lane);
  const std::uint64_t words = mem.empty() ? 0 : machine_.config().cacheWords();
  const std::uint64_t start = std::min<std::uint64_t>(base, words);
  const std::uint64_t avail =
      std::min<std::uint64_t>(out.size(), words - start);
  for (std::uint64_t i = 0; i < avail; ++i) out[i] = mem[(start + i) * w + l];
  std::fill(out.begin() + static_cast<std::ptrdiff_t>(avail), out.end(), 0.0);
}

void LaneState::copyLaneTo(int lane, LaneState& out) const {
  const auto w = static_cast<std::size_t>(lanes_);
  const auto l = static_cast<std::size_t>(lane);
  for (std::size_t p = 0; p < planes.size(); ++p) {
    const std::uint64_t words = lane_plane_words_[p][l];
    std::vector<double>& mem = out.planes[p];
    mem.resize(words);
    const double* soa = planes[p].data();
    for (std::uint64_t a = 0; a < words; ++a) mem[a] = soa[a * w + l];
    out.plane_words_[p] = words;
    out.lane_plane_words_[p][0] = words;
  }
  for (std::size_t c = 0; c < caches.size(); ++c) {
    for (std::size_t buf = 0; buf < caches[c].size(); ++buf) {
      if (caches[c][buf].empty()) {
        out.caches[c][buf].clear();  // untouched: reads as zeros
        continue;
      }
      std::vector<double>& mem = out.cacheStore(c, buf);
      const double* soa = caches[c][buf].data();
      for (std::size_t a = 0; a < mem.size(); ++a) mem[a] = soa[a * w + l];
    }
  }
  for (std::size_t r = 0; r < out.cond.size(); ++r) {
    out.cond[r] = cond[r * w + l];
  }
}

void LaneState::adopt(
    std::vector<std::vector<double>> plane_images,
    std::vector<std::vector<std::vector<double>>> cache_images,
    const std::vector<bool>& cond_regs) {
  assert(lanes_ == 1);
  planes = std::move(plane_images);
  plane_words_.assign(planes.size(), 0);
  lane_plane_words_.assign(planes.size(), {0});
  for (std::size_t p = 0; p < planes.size(); ++p) {
    plane_words_[p] = planes[p].size();
    lane_plane_words_[p][0] = planes[p].size();
  }
  caches = std::move(cache_images);
  for (auto& cache : caches) {
    for (auto& buffer : cache) {
      const bool all_zero_bits =
          std::all_of(buffer.begin(), buffer.end(), [](double v) {
            return std::bit_cast<std::uint64_t>(v) == 0;
          });
      if (all_zero_bits) std::vector<double>().swap(buffer);
    }
  }
  cond.assign(cond_regs.begin(), cond_regs.end());
}

InstrStats LaneState::executeCompiledBatch(const CompiledInstr& ci,
                                           int instr_index,
                                           const std::string& name,
                                           std::uint64_t max_cycles) {
  InstrStats stats;
  stats.instruction = instr_index;
  stats.name = name;

  // Faults detected at compile time surface at issue, like the interpreter
  // bailing out of engine setup.
  if (ci.fault.kind != FaultKind::kNone) {
    stats.error = true;
    stats.fault = ci.fault.kind;
    stats.error_message = ci.fault.message;
    return stats;
  }
  for (const auto& [plane, needed] : ci.plane_grows) {
    ensurePlaneSize(plane, needed);
  }
  // Cache write targets must exist before the first cycle stores into them
  // (reads of untouched buffers fall through to zero).
  for (const CompiledDma& wr : ci.writes) {
    if (wr.is_cache) {
      cacheStore(static_cast<std::size_t>(wr.unit),
                 static_cast<std::size_t>(wr.buffer));
    }
  }

  // The common widths get bodies with compile-time-constant lane loops;
  // anything else takes the runtime-width fallback (KW = 0).  Every
  // instruction that issues has a value program.
  const ValueProgram& vp = *ci.value;
  bool completed = false;
  switch (lanes_) {
    case 1: completed = runValuesT<1>(ci, vp, max_cycles, stats); break;
    case 4: completed = runValuesT<4>(ci, vp, max_cycles, stats); break;
    case 8: completed = runValuesT<8>(ci, vp, max_cycles, stats); break;
    case 16: completed = runValuesT<16>(ci, vp, max_cycles, stats); break;
    default: completed = runValuesT<0>(ci, vp, max_cycles, stats); break;
  }
  if (!completed) {
    stats.error = true;
    stats.fault = FaultKind::kTimeout;
    stats.error_message = common::strFormat(
        "instruction %d did not complete within %llu cycles", instr_index,
        static_cast<unsigned long long>(max_cycles));
    stats.cycles = max_cycles;
    return stats;
  }

  // Double-buffered caches swap at instruction end when requested.
  for (const arch::CacheId c : ci.swaps) {
    std::swap(caches[static_cast<std::size_t>(c)][0],
              caches[static_cast<std::size_t>(c)][1]);
  }
  return stats;
}

template <int KW>
bool LaneState::runValuesT(const CompiledInstr& ci, const ValueProgram& vp,
                           std::uint64_t max_cycles, InstrStats& stats) {
  // Completion is a build-time fact; a budget that ends first cuts the run
  // at its last cycle with every memory effect up to there.
  const bool completes = vp.last_cycle < max_cycles;
  if (!completes && max_cycles == 0) return false;
  const std::uint64_t last = completes ? vp.last_cycle : max_cycles - 1;

  const int W = KW > 0 ? KW : lanes_;
  const auto w = static_cast<std::size_t>(W);
  Scratch& s = scratch_;
  const std::size_t columns = static_cast<std::size_t>(vp.columns) * w;
  if (s.vals.size() < columns) s.vals.resize(columns);
  double* const vals = s.vals.data();
  std::fill_n(vals, w, 0.0);
  for (const auto& [col, value] : vp.presets) {
    std::fill_n(vals + col * w, w, value);
  }
  // DMA cursors and memory views, read engines then write engines; the
  // prologue already grew every plane and allocated every cache target.
  const std::size_t n_reads = ci.reads.size();
  s.cursors.resize(n_reads + ci.writes.size());
  s.views.resize(n_reads + ci.writes.size());
  for (std::size_t i = 0; i < s.cursors.size(); ++i) {
    const CompiledDma& d = i < n_reads ? ci.reads[i] : ci.writes[i - n_reads];
    std::vector<double>& mem =
        d.is_cache ? caches[static_cast<std::size_t>(d.unit)]
                           [static_cast<std::size_t>(d.buffer)]
                   : planes[static_cast<std::size_t>(d.unit)];
    s.cursors[i] = Scratch::Cursor{d.base, d.base, 0};
    s.views[i] = Scratch::View{mem.data(), mem.size()};
  }
  const auto column = [&](const ValueRef& r, std::uint64_t c) {
    return vals + (r.base + ((c - r.dist) & r.mask)) * w;
  };

  for (const ValueSegment& seg : vp.segments) {
    if (seg.first > last) break;
    const std::uint64_t stop = std::min(seg.last, last);
    const std::uint16_t* const ids = vp.active.data() + seg.begin;
    const std::uint32_t n = seg.end - seg.begin;
    for (std::uint64_t c = seg.first; c <= stop; ++c) {
      for (std::uint32_t i = 0; i < n; ++i) {
        const ValueOp& op = vp.ops[ids[i]];
        switch (op.kind) {
          case ValueOpKind::kLoad: {
            // One shared address per cycle: W contiguous lane values.  The
            // in-range check uses the shared SoA extent, which agrees with
            // every lane's scalar check (both stores cover all non-wrapped
            // DMA addresses once plane_grows ran; wrapped ones exceed both).
            const std::uint64_t at =
                s.cursors[op.engine].next(ci.reads[op.engine]) *
                static_cast<std::uint64_t>(W);
            const Scratch::View& v = s.views[op.engine];
            double* out = vals + (op.out + (c & op.out_mask)) * w;
            if (at < v.size) {
              for (int l = 0; l < W; ++l) out[l] = v.data[at + l];
            } else {
              for (int l = 0; l < W; ++l) out[l] = 0.0;
            }
            break;
          }
          case ValueOpKind::kEval:
            evalLanes<KW>(op.op, column(op.a, c), column(op.b, c),
                          vals + (op.out + (c & op.out_mask)) * w, W);
            break;
          case ValueOpKind::kAccum: {
            double* acc = vals + op.acc * w;
            evalLanes<KW>(op.op, column(op.a, c), column(op.b, c), acc, W);
            if (op.out != 0) {
              double* out = vals + (op.out + (c & op.out_mask)) * w;
              for (int l = 0; l < W; ++l) out[l] = acc[l];
            }
            break;
          }
          case ValueOpKind::kStore: {
            const std::size_t e = n_reads + op.engine;
            const std::uint64_t at =
                s.cursors[e].next(ci.writes[op.engine]) *
                static_cast<std::uint64_t>(W);
            if (at < s.views[e].size) {
              const double* from = column(op.a, c);
              double* to = s.views[e].data + at;
              for (int l = 0; l < W; ++l) to[l] = from[l];
            }
            break;
          }
          case ValueOpKind::kLatch: {
            const double* v = column(op.a, c);
            std::uint8_t* regs = cond.data() + op.engine * w;
            for (int l = 0; l < W; ++l) regs[l] = v[l] > 0.5 ? 1 : 0;
            break;
          }
        }
      }
    }
  }

  if (completes) {
    stats.cycles = last + 1;
    stats.flops = vp.flops;
    stats.hazards = vp.hazards;
    for (const ValueProgram::Unit& u : vp.units) {
      fu_launches[static_cast<std::size_t>(u.fu)] += u.launches;
    }
  } else {
    std::tie(stats.flops, stats.hazards) = vp.count(last, fu_launches);
  }
  return completes;
}

}  // namespace nsc::sim
