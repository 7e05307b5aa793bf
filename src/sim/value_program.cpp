// The value-program builder: windows in, a flat list of windowed
// operations out.  See sim/value_program.h for the model.
#include "sim/value_program.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <tuple>

namespace nsc::sim {

namespace {

constexpr std::uint64_t kForever = CycleWindow::kForever;

// A closed range of cycles; `last` may be kForever.
struct Span {
  std::uint64_t first = 0;
  std::uint64_t last = 0;
};

// Where an operand's value comes from.  Provenance resolution yields kZero,
// kConst, kAcc (a unit's own feedback) or kProducer; piece resolution then
// replaces kProducer by what the producer held on the cycles read: kZero,
// kConst (an accumulator's seed), kRing or kAcc.
struct Source {
  enum Kind : std::uint8_t { kZero, kConst, kAcc, kProducer, kRing };
  Kind kind = kZero;
  double value = 0.0;          // kConst
  std::int32_t producer = -1;  // kAcc, kProducer, kRing
  std::uint64_t dist = 0;      // kProducer, kRing: cycles back

  bool operator==(const Source& o) const {
    return kind == o.kind &&
           std::bit_cast<std::uint64_t>(value) ==
               std::bit_cast<std::uint64_t>(o.value) &&
           producer == o.producer && dist == o.dist;
  }
};

struct Piece {
  Span span;
  Source src;
};

// One operation before liveness and column assignment.
struct Draft {
  ValueOpKind kind = ValueOpKind::kEval;
  std::int32_t producer = -1;  // the producer it computes (-1: a sink)
  std::uint16_t engine = 0;
  arch::OpCode op = arch::OpCode::kNop;
  Span span;
  Source a, b;
};

std::uint64_t cyclesIn(const CycleWindow& w, std::uint64_t last) {
  if (!w.any || w.first > last) return 0;
  return std::min(w.last, last) - w.first + 1;
}

class Builder {
 public:
  Builder(const arch::Machine& machine, const CompiledInstr& ci,
          const InstrWindows& windows)
      : cfg_(machine.config()),
        ci_(ci),
        win_(windows),
        n_reads_(static_cast<std::int32_t>(ci.reads.size())),
        src_producer_(machine.sources().size(), -1),
        src_tap_(machine.sources().size(), {-1, 0}),
        dst_route_(machine.destinations().size(), -1) {
    for (std::size_t i = 0; i < ci.reads.size(); ++i) {
      setAt(src_producer_, ci.reads[i].endpoint, static_cast<std::int32_t>(i));
    }
    for (std::size_t k = 0; k < ci.fus.size(); ++k) {
      setAt(src_producer_, ci.fus[k].out_src,
            n_reads_ + static_cast<std::int32_t>(k));
    }
    for (std::size_t s = 0; s < ci.sds.size(); ++s) {
      for (const CompiledSdTap& tap : ci.sds[s].taps) {
        setAt(src_tap_, tap.src,
              std::pair<std::int32_t, std::uint32_t>{
                  static_cast<std::int32_t>(s), tap.delay});
      }
    }
    for (const auto& [dst, src] : ci.routes) setAt(dst_route_, dst, src);
  }

  std::shared_ptr<const ValueProgram> build();

 private:
  template <typename T>
  static void setAt(std::vector<T>& v, std::int32_t i, T value) {
    if (i >= 0 && static_cast<std::size_t>(i) < v.size()) {
      v[static_cast<std::size_t>(i)] = value;
    }
  }
  bool isUnit(std::int32_t p) const { return p >= n_reads_; }
  const CompiledFu& unit(std::int32_t p) const {
    return ci_.fus[static_cast<std::size_t>(p - n_reads_)];
  }
  // The cycles on which producer `p` computes a value: a read engine's
  // elements, a unit's launches.
  CycleWindow producerWindow(std::int32_t p) const {
    if (isUnit(p)) return win_.fu_launch[static_cast<std::size_t>(p - n_reads_)];
    const std::uint64_t total = ci_.reads[static_cast<std::size_t>(p)].total;
    return total > 0 ? CycleWindow{0, total - 1, true, true} : CycleWindow{};
  }

  Source fromSrc(std::int32_t src, std::uint64_t dist, std::size_t depth) const;
  Source fromDst(std::int32_t dst, std::uint64_t dist, std::size_t depth) const;
  Source operand(std::size_t k, const CompiledOperand& op) const;
  void pieces(Span span, const Source& s, std::vector<Piece>& out) const;
  void addDrafts(ValueOpKind kind, std::int32_t producer, std::uint16_t engine,
                 arch::OpCode op, Span span, const Source& a, const Source& b);
  std::uint64_t completionCycle() const;
  std::uint64_t latchCycle() const;

  const arch::MachineConfig& cfg_;
  const CompiledInstr& ci_;
  const InstrWindows& win_;
  const std::int32_t n_reads_;
  std::vector<std::int32_t> src_producer_;  // producer id per source, or -1
  // (sd index, delay) per shift/delay tap source; sd -1 for other sources.
  std::vector<std::pair<std::int32_t, std::uint32_t>> src_tap_;
  std::vector<std::int32_t> dst_route_;  // routed source per destination
  std::vector<Draft> drafts_;
  std::vector<Piece> pa_, pb_;  // piece scratch
};

// A source endpoint's value `dist` cycles later.  A tap is a rename of its
// shift/delay unit's routed input; a loop of taps and routes with no
// producer in it never carries anything but zero.
Source Builder::fromSrc(std::int32_t src, std::uint64_t dist,
                        std::size_t depth) const {
  if (src < 0 || static_cast<std::size_t>(src) >= src_producer_.size()) {
    return {};
  }
  const auto s = static_cast<std::size_t>(src);
  if (const std::int32_t p = src_producer_[s]; p >= 0) {
    // A unit's result leaves its pipeline pipe_len cycles after launch.
    const std::uint64_t pipe = isUnit(p) ? unit(p).pipe_len : 0;
    return Source{Source::kProducer, 0.0, p, dist + pipe};
  }
  const auto [sd, delay] = src_tap_[s];
  if (sd < 0 || depth > ci_.sds.size()) return {};
  return fromDst(ci_.sds[static_cast<std::size_t>(sd)].in_dst, dist + delay,
                 depth + 1);
}

// A destination's value `dist` cycles later: the registered switch hop
// delivers its routed source one cycle after it was produced.
Source Builder::fromDst(std::int32_t dst, std::uint64_t dist,
                        std::size_t depth) const {
  if (dst < 0 || static_cast<std::size_t>(dst) >= dst_route_.size()) return {};
  const std::int32_t src = dst_route_[static_cast<std::size_t>(dst)];
  return src < 0 ? Source{} : fromSrc(src, dist + 1, depth);
}

Source Builder::operand(std::size_t k, const CompiledOperand& op) const {
  const CompiledFu& fu = ci_.fus[k];
  Source s;
  switch (op.kind) {
    case OperandKind::kSwitch:
      s = fromDst(op.index, 0, 0);
      break;
    case OperandKind::kChain:
      s = fromSrc(op.index, 0, 0);
      break;
    case OperandKind::kConst:
      return Source{Source::kConst, fu.rf_value};
    case OperandKind::kFeedback:
      // Only an accumulator's register ever moves; any other unit's reads
      // as its initial zero.
      return fu.is_accum
                 ? Source{Source::kAcc, 0.0,
                          n_reads_ + static_cast<std::int32_t>(k)}
                 : Source{};
    case OperandKind::kNone:
      return {};
  }
  if (op.queue && s.kind == Source::kProducer) s.dist += fu.rfq_len;
  return s;
}

// Splits `span` (consumer cycles) by what `s` holds on each cycle.  A
// producer read before its pipeline filled, or outside its window, holds
// zero — except an accumulator, which holds its seed before its stream
// arrives and its final value after the stream's last element.
void Builder::pieces(Span span, const Source& s,
                     std::vector<Piece>& out) const {
  out.clear();
  if (s.kind != Source::kProducer) {
    out.push_back({span, s});
    return;
  }
  // Marks: (first consumer cycle, source) in ascending order; each holds
  // until the next mark.
  struct Mark {
    std::uint64_t at;
    Source src;
  };
  Mark marks[4];
  int n = 0;
  const auto mark = [&](std::uint64_t x, const Source& src) {
    const std::uint64_t at = x + s.dist;  // producer cycle x -> consumer
    if (n > 0 && marks[n - 1].at == at) {
      marks[n - 1].src = src;
    } else {
      marks[n++] = {at, src};
    }
  };
  const Source ring{Source::kRing, 0.0, s.producer, s.dist};
  marks[n++] = {0, Source{}};  // the pipeline before it filled
  const CycleWindow w = producerWindow(s.producer);
  if (isUnit(s.producer) && unit(s.producer).is_accum) {
    const Source seed{Source::kConst, unit(s.producer).rf_value};
    mark(0, seed);
    if (w.any) {
      mark(w.first, ring);
      if (!w.unbounded()) {
        mark(w.last, Source{Source::kAcc, 0.0, s.producer});
      }
    }
  } else if (w.any) {
    mark(w.first, ring);
    if (!w.unbounded()) mark(w.last + 1, Source{});
  }
  for (int i = 0; i < n; ++i) {
    const std::uint64_t hi = i + 1 < n ? marks[i + 1].at - 1 : kForever;
    const std::uint64_t first = std::max(marks[i].at, span.first);
    const std::uint64_t last = std::min(hi, span.last);
    if (first > last) continue;
    if (!out.empty() && out.back().src == marks[i].src) {
      out.back().span.last = last;
    } else {
      out.push_back({{first, last}, marks[i].src});
    }
  }
}

// One draft per stretch of `span` on which both operands read the same
// kind of column.
void Builder::addDrafts(ValueOpKind kind, std::int32_t producer,
                        std::uint16_t engine, arch::OpCode op, Span span,
                        const Source& a, const Source& b) {
  pieces(span, a, pa_);
  pieces(span, b, pb_);
  std::size_t i = 0, j = 0;
  std::uint64_t at = span.first;
  while (i < pa_.size() && j < pb_.size()) {
    const std::uint64_t hi = std::min(pa_[i].span.last, pb_[j].span.last);
    drafts_.push_back(
        Draft{kind, producer, engine, op, {at, hi}, pa_[i].src, pb_[j].src});
    if (pa_[i].span.last == hi) ++i;
    if (pb_[j].span.last == hi) ++j;
    if (hi == kForever) break;
    at = hi + 1;
  }
}

std::uint64_t Builder::latchCycle() const {
  if (!ci_.cond_enable || ci_.cond_src < 0 ||
      static_cast<std::size_t>(ci_.cond_src) >= win_.src.size()) {
    return kForever;
  }
  // The latch fires on the source's tagged final element.
  const CycleWindow& w = win_.src[static_cast<std::size_t>(ci_.cond_src)];
  return w.any && !w.unbounded() && w.tagged ? w.last : kForever;
}

// The completion rule of the engines, from the windows: the cycle whose
// end sees every write engine done and the latch fired, or the drain
// budget spent after the reads settle; kForever when it never comes.
std::uint64_t Builder::completionCycle() const {
  if (ci_.writes.empty() && ci_.reads.empty()) return 0;  // control only
  std::uint64_t done = 0;
  if (ci_.cond_enable) done = latchCycle();
  if (done == kForever) return kForever;
  if (!ci_.writes.empty()) {
    for (const CompiledDma& wr : ci_.writes) {
      if (wr.total == 0) continue;  // done from the first cycle
      const CycleWindow& w = win_.dst[static_cast<std::size_t>(wr.endpoint)];
      if (!w.any || (!w.unbounded() && w.length() < wr.total)) return kForever;
      done = std::max(done, w.first + wr.total - 1);
    }
    return done;
  }
  for (const CompiledDma& rd : ci_.reads) {
    done = std::max(done, rd.total > 0 ? rd.total - 1 : 0);
  }
  return done + drainBudget(cfg_);
}

std::shared_ptr<const ValueProgram> Builder::build() {
  auto vp = std::make_shared<ValueProgram>();
  vp->last_cycle = completionCycle();
  const std::uint64_t end = vp->last_cycle;  // clip every window here
  const auto clip = [end](const CycleWindow& w, Span& span) {
    if (!w.any || w.first > end) return false;
    span = {w.first, std::min(w.last, end)};
    return true;
  };

  // Drafts in phase order: loads, units in ALS slot order, stores, latch.
  Span span;
  for (std::size_t i = 0; i < ci_.reads.size(); ++i) {
    const auto p = static_cast<std::int32_t>(i);
    if (clip(producerWindow(p), span)) {
      addDrafts(ValueOpKind::kLoad, p, static_cast<std::uint16_t>(i),
                arch::OpCode::kNop, span, {}, {});
    }
  }
  for (std::size_t k = 0; k < ci_.fus.size(); ++k) {
    const CompiledFu& fu = ci_.fus[k];
    const auto p = n_reads_ + static_cast<std::int32_t>(k);
    if (!clip(win_.fu_launch[k], span)) continue;
    // An unwired B is either absent (zero) or ignored by a unary op.
    const Source b =
        fu.b.wired || fu.is_accum ? operand(k, fu.b) : Source{};
    addDrafts(fu.is_accum ? ValueOpKind::kAccum : ValueOpKind::kEval, p, 0,
              fu.op, span, operand(k, fu.a), b);
  }
  for (std::size_t j = 0; j < ci_.writes.size(); ++j) {
    const CompiledDma& wr = ci_.writes[j];
    if (wr.total == 0) continue;
    CycleWindow w = win_.dst[static_cast<std::size_t>(wr.endpoint)];
    // The engine captures the first `total` valid tokens.
    if (w.any && w.last - w.first >= wr.total) w.last = w.first + wr.total - 1;
    if (clip(w, span)) {
      addDrafts(ValueOpKind::kStore, -1, static_cast<std::uint16_t>(j),
                arch::OpCode::kNop, span, fromDst(wr.endpoint, 0, 0), {});
    }
  }
  if (const std::uint64_t at = latchCycle(); at != kForever && at <= end) {
    addDrafts(ValueOpKind::kLatch, -1,
              static_cast<std::uint16_t>(ci_.cond_reg), arch::OpCode::kNop,
              {at, at}, fromSrc(ci_.cond_src, 0, 0), {});
  }

  // Liveness: stores and the latch are live, and so is every producer a
  // live operation reads.  Unread loads and evaluations are dropped; their
  // launches still count in the stats below.
  const std::size_t n_producers = ci_.reads.size() + ci_.fus.size();
  std::vector<std::uint8_t> live(n_producers, 0);
  const auto isLive = [&](const Draft& d) {
    return d.producer < 0 || live[static_cast<std::size_t>(d.producer)] != 0;
  };
  for (bool changed = true; changed;) {
    changed = false;
    for (const Draft& d : drafts_) {
      if (!isLive(d)) continue;
      for (const Source* s : {&d.a, &d.b}) {
        if (s->kind != Source::kRing && s->kind != Source::kAcc) continue;
        std::uint8_t& flag = live[static_cast<std::size_t>(s->producer)];
        changed = changed || flag == 0;
        flag = 1;
      }
    }
  }

  // Columns: 0 is zero; then constants, accumulators and rings.  A ring
  // keeps a power of two of values, more than the farthest read back.
  std::vector<std::uint64_t> reach(n_producers, 0);
  std::vector<std::uint8_t> has_ring(n_producers, 0);
  for (const Draft& d : drafts_) {
    if (!isLive(d)) continue;
    for (const Source* s : {&d.a, &d.b}) {
      if (s->kind != Source::kRing) continue;
      const auto p = static_cast<std::size_t>(s->producer);
      has_ring[p] = 1;
      reach[p] = std::max(reach[p], s->dist);
    }
  }
  std::uint32_t columns = 1;
  std::vector<std::pair<std::uint32_t, double>>& presets = vp->presets;
  std::vector<std::pair<std::uint32_t, double>> constants;
  const auto constant = [&](double v) {
    for (const auto& [col, value] : constants) {
      if (std::bit_cast<std::uint64_t>(value) ==
          std::bit_cast<std::uint64_t>(v)) {
        return col;
      }
    }
    constants.push_back({columns, v});
    presets.push_back({columns, v});
    return columns++;
  };
  std::vector<std::uint32_t> acc_col(n_producers, 0);
  std::vector<std::uint32_t> ring_col(n_producers, 0);
  std::vector<std::uint32_t> ring_mask(n_producers, 0);
  for (std::size_t p = 0; p < n_producers; ++p) {
    if (!live[p]) continue;
    const auto id = static_cast<std::int32_t>(p);
    if (isUnit(id) && unit(id).is_accum) {
      acc_col[p] = columns++;
      presets.push_back({acc_col[p], unit(id).rf_value});
    }
    if (has_ring[p]) {
      const std::uint64_t slots = std::bit_ceil(reach[p] + 1);
      ring_col[p] = columns;
      ring_mask[p] = static_cast<std::uint32_t>(slots - 1);
      columns += static_cast<std::uint32_t>(slots);
    }
  }
  const auto ref = [&](const Source& s) {
    switch (s.kind) {
      case Source::kConst:
        return ValueRef{constant(s.value), 0, 0};
      case Source::kAcc:
        return ValueRef{acc_col[static_cast<std::size_t>(s.producer)], 0, 0};
      case Source::kRing: {
        const auto p = static_cast<std::size_t>(s.producer);
        return ValueRef{ring_col[p], ring_mask[p],
                        static_cast<std::uint32_t>(s.dist)};
      }
      case Source::kZero:
      case Source::kProducer:
        break;
    }
    return ValueRef{};
  };

  // Emission, then segments: every window edge starts one.
  std::vector<Span> spans;
  std::vector<std::uint64_t> cuts;
  for (const Draft& d : drafts_) {
    if (!isLive(d)) continue;
    ValueOp op;
    op.kind = d.kind;
    op.op = d.op;
    op.engine = d.engine;
    op.a = ref(d.a);
    op.b = ref(d.b);
    if (d.producer >= 0) {
      const auto p = static_cast<std::size_t>(d.producer);
      op.out = ring_col[p];
      op.out_mask = ring_mask[p];
      op.acc = acc_col[p];
    }
    vp->ops.push_back(op);
    spans.push_back(d.span);
    cuts.push_back(d.span.first);
    if (d.span.last != kForever) cuts.push_back(d.span.last + 1);
  }
  vp->columns = columns;
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  for (std::size_t c = 0; c < cuts.size(); ++c) {
    ValueSegment seg;
    seg.first = cuts[c];
    seg.last = c + 1 < cuts.size() ? cuts[c + 1] - 1 : kForever;
    seg.begin = static_cast<std::uint32_t>(vp->active.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].first <= seg.first && spans[i].last >= seg.first) {
        vp->active.push_back(static_cast<std::uint16_t>(i));
      }
    }
    seg.end = static_cast<std::uint32_t>(vp->active.size());
    if (seg.end > seg.begin) vp->segments.push_back(seg);
  }

  // Stats of a completing run.
  for (std::size_t k = 0; k < ci_.fus.size(); ++k) {
    const CompiledFu& fu = ci_.fus[k];
    ValueProgram::Unit u;
    u.fu = fu.fu;
    u.counts_flop = fu.counts_flop;
    u.hazards = !fu.is_accum && fu.a.stream && fu.b.stream;
    u.launch = win_.fu_launch[k];
    u.a = win_.fu_a[k];
    u.b = win_.fu_b[k];
    vp->units.push_back(u);
  }
  if (end != kForever) {
    std::vector<std::uint64_t> launches(
        static_cast<std::size_t>(cfg_.numFus()), 0);
    std::tie(vp->flops, vp->hazards) = vp->count(end, launches);
    for (ValueProgram::Unit& u : vp->units) {
      u.launches = cyclesIn(u.launch, end);
    }
  }
  vp->ops.shrink_to_fit();
  vp->segments.shrink_to_fit();
  vp->active.shrink_to_fit();
  vp->presets.shrink_to_fit();
  vp->units.shrink_to_fit();
  return vp;
}

}  // namespace

std::pair<std::uint64_t, std::uint64_t> ValueProgram::count(
    std::uint64_t last, std::span<std::uint64_t> fu_launches) const {
  std::uint64_t flop_count = 0;
  std::uint64_t hazard_count = 0;
  for (const Unit& u : units) {
    const std::uint64_t n = cyclesIn(u.launch, last);
    fu_launches[static_cast<std::size_t>(u.fu)] += n;
    if (u.counts_flop) flop_count += n;
    if (u.hazards) {
      // Cycles on which exactly one of the two stream operands is valid.
      CycleWindow both;
      both.any = u.a.any && u.b.any;
      both.first = std::max(u.a.first, u.b.first);
      both.last = std::min(u.a.last, u.b.last);
      both.any = both.any && both.first <= both.last;
      hazard_count += cyclesIn(u.a, last) + cyclesIn(u.b, last) -
                      2 * cyclesIn(both, last);
    }
  }
  return {flop_count, hazard_count};
}

std::size_t ValueProgram::bytes() const {
  return sizeof(ValueProgram) + ops.capacity() * sizeof(ValueOp) +
         segments.capacity() * sizeof(ValueSegment) +
         active.capacity() * sizeof(std::uint16_t) +
         presets.capacity() * sizeof(presets[0]) +
         units.capacity() * sizeof(Unit);
}

std::shared_ptr<const ValueProgram> buildValueProgram(
    const arch::Machine& machine, const CompiledInstr& ci,
    const InstrWindows& windows) {
  if (ci.fault.kind != FaultKind::kNone) return nullptr;
  // The window combinators are strict (sim/verify.cpp), so the fixpoint
  // always converges; an instruction without windows has no engine to run.
  if (!windows.converged) {
    throw std::logic_error("value program: window analysis did not converge");
  }
  return Builder(machine, ci, windows).build();
}

}  // namespace nsc::sim
