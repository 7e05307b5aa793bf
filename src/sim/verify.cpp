#include "sim/verify.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/strings.h"
#include "sim/hypercube.h"

namespace nsc::sim {

using arch::Endpoint;
using common::strFormat;

const char* verifyCodeName(VerifyCode code) {
  switch (code) {
    case VerifyCode::kDmaBounds: return "dma-bounds";
    case VerifyCode::kStarvedWrite: return "starved-write";
    case VerifyCode::kUnderfedWrite: return "underfed-write";
    case VerifyCode::kStarvedCond: return "starved-cond";
    case VerifyCode::kRingOverSubscribed: return "ring-over-subscribed";
    case VerifyCode::kDmaClipped: return "dma-clipped";
    case VerifyCode::kFanoutOverSubscribed: return "fanout-over-subscribed";
    case VerifyCode::kUnroutedInput: return "unrouted-input";
    case VerifyCode::kUnconsumedRoute: return "unconsumed-route";
    case VerifyCode::kExchangeContention: return "exchange-contention";
    case VerifyCode::kExchangeDangling: return "exchange-dangling";
  }
  return "?";
}

FaultKind predictedFault(VerifyCode code) {
  switch (code) {
    case VerifyCode::kDmaBounds:
      return FaultKind::kDmaBounds;
    case VerifyCode::kStarvedWrite:
    case VerifyCode::kUnderfedWrite:
    case VerifyCode::kStarvedCond:
      // The instruction provably never completes; the engines hit the cycle
      // budget and report a timeout.
      return FaultKind::kTimeout;
    case VerifyCode::kRingOverSubscribed:
    case VerifyCode::kDmaClipped:
    case VerifyCode::kFanoutOverSubscribed:
    case VerifyCode::kUnroutedInput:
    case VerifyCode::kUnconsumedRoute:
    case VerifyCode::kExchangeContention:
    case VerifyCode::kExchangeDangling:
      return FaultKind::kNone;
  }
  return FaultKind::kNone;
}

namespace {

std::string windowText(const CycleWindow& w) {
  if (!w.any) return "never";
  if (w.unbounded()) return strFormat("cycles [%llu, inf)",
                                      static_cast<unsigned long long>(w.first));
  return strFormat("cycles [%llu, %llu]",
                   static_cast<unsigned long long>(w.first),
                   static_cast<unsigned long long>(w.last));
}

}  // namespace

std::string VerifyDiagnostic::format() const {
  std::string out = strFormat(
      "[%s] %s", severity == check::Severity::kError ? "error" : "warning",
      verifyCodeName(code));
  if (instruction >= 0) out += strFormat(" instr %d", instruction);
  if (endpoint.kind != arch::EndpointKind::kNone) {
    out += " @ " + endpoint.toString();
  }
  out += ": " + message;
  return out;
}

std::size_t VerifyReport::errorCount() const {
  std::size_t n = 0;
  for (const VerifyDiagnostic& d : diagnostics) {
    n += d.severity == check::Severity::kError ? 1 : 0;
  }
  return n;
}

std::size_t VerifyReport::warningCount() const {
  return diagnostics.size() - errorCount();
}

std::string VerifyReport::firstError() const {
  for (const VerifyDiagnostic& d : diagnostics) {
    if (d.severity == check::Severity::kError) return d.format();
  }
  return "";
}

check::DiagnosticList VerifyReport::toDiagnostics() const {
  check::DiagnosticList list;
  for (const VerifyDiagnostic& d : diagnostics) {
    check::Rule rule = check::Rule::kDmaRange;
    switch (d.code) {
      case VerifyCode::kDmaBounds:
      case VerifyCode::kDmaClipped: rule = check::Rule::kDmaRange; break;
      case VerifyCode::kStarvedWrite: rule = check::Rule::kMissingDriver; break;
      case VerifyCode::kUnderfedWrite: rule = check::Rule::kStreamLength; break;
      case VerifyCode::kStarvedCond: rule = check::Rule::kCondSource; break;
      case VerifyCode::kRingOverSubscribed:
        rule = d.endpoint.kind == arch::EndpointKind::kSdOutput
                   ? check::Rule::kSdConfig
                   : check::Rule::kRfDelayRange;
        break;
      case VerifyCode::kFanoutOverSubscribed:
        rule = check::Rule::kFanoutLimit;
        break;
      case VerifyCode::kUnroutedInput: rule = check::Rule::kMissingDriver; break;
      case VerifyCode::kUnconsumedRoute:
        rule = check::Rule::kDanglingOutput;
        break;
      case VerifyCode::kExchangeContention:
        rule = check::Rule::kPlaneContention;
        break;
      case VerifyCode::kExchangeDangling:
        rule = check::Rule::kDanglingOutput;
        break;
    }
    list.add(rule, d.severity, d.format(), d.instruction);
  }
  return list;
}

std::string VerifyReport::format() const {
  std::string out;
  for (const VerifyDiagnostic& d : diagnostics) {
    out += d.format();
    out += '\n';
  }
  return out;
}

// ---------------------------------------------------------------------------
// Exact valid-window dataflow analysis.
//
// Every stream in the node is contiguous by construction: a DMA read engine
// emits one valid token per cycle from cycle 0 until it runs dry (tagging
// the final token), constants and accumulator feedback never lapse, and the
// combinators — a registered switch hop (+1 cycle), a delay queue or
// shift/delay tap (+depth), an FU pipeline (+latency), a launch gate (the
// intersection of the wired operand windows), an accumulator emit (the
// singleton at the stream's tagged end) — all map contiguous windows to
// contiguous windows.  So a per-endpoint CycleWindow is an *exact* model of
// the interpreter, not an approximation, and the analysis is a least
// fixpoint: start every window empty and re-apply the transfer functions
// until nothing changes.  Shift and intersection are both strict in the
// empty window, so any dependence cycle through the switch stays empty
// (matching the engines: a loop with no external source never carries a
// valid token), and acyclic parts stabilize in at most graph-depth
// iterations.
// ---------------------------------------------------------------------------

namespace {

CycleWindow shiftWindow(CycleWindow w, std::uint64_t by) {
  if (!w.any) return w;
  w.first += by;
  if (w.last != CycleWindow::kForever) w.last += by;
  return w;
}

// The launch gate: an FU fires when every wired operand is valid, and the
// result's stream-end tag is the OR of the wired operands' tags.
CycleWindow intersectWindows(const CycleWindow& a, const CycleWindow& b) {
  CycleWindow out;
  if (!a.any || !b.any) return out;
  out.first = std::max(a.first, b.first);
  out.last = std::min(a.last, b.last);
  if (out.last != CycleWindow::kForever && out.first > out.last) return out;
  out.any = true;
  out.tagged = (a.tagged && a.last == out.last) ||
               (b.tagged && b.last == out.last);
  return out;
}

// The window of endpoint `i` (never valid when `i` is out of range).
CycleWindow windowAt(const std::vector<CycleWindow>& windows, std::int32_t i) {
  return i >= 0 && static_cast<std::size_t>(i) < windows.size()
             ? windows[static_cast<std::size_t>(i)]
             : CycleWindow{};
}

// The fixpoint's working state: the windows, plus whether a sweep moved one.
struct WindowState {
  InstrWindows& w;
  bool changed = false;

  CycleWindow srcAt(std::int32_t i) const { return windowAt(w.src, i); }
  CycleWindow dstAt(std::int32_t i) const { return windowAt(w.dst, i); }
  void setSrc(std::int32_t i, const CycleWindow& v) {
    if (i < 0 || static_cast<std::size_t>(i) >= w.src.size()) return;
    if (w.src[static_cast<std::size_t>(i)] == v) return;
    w.src[static_cast<std::size_t>(i)] = v;
    changed = true;
  }
  void setDst(std::int32_t i, const CycleWindow& v) {
    if (i < 0 || static_cast<std::size_t>(i) >= w.dst.size()) return;
    if (w.dst[static_cast<std::size_t>(i)] == v) return;
    w.dst[static_cast<std::size_t>(i)] = v;
    changed = true;
  }
};

CycleWindow operandWindow(const WindowState& state, const CompiledFu& fu,
                          const CompiledOperand& op) {
  CycleWindow w;
  switch (op.kind) {
    case OperandKind::kSwitch:
      w = state.dstAt(op.index);
      break;
    case OperandKind::kChain:
      w = state.srcAt(op.index);
      break;
    case OperandKind::kConst:
    case OperandKind::kFeedback:
      w = CycleWindow{0, CycleWindow::kForever, true, false};
      break;
    case OperandKind::kNone:
      break;
  }
  if (op.queue && fu.rfq_len > 0) w = shiftWindow(w, fu.rfq_len);
  return w;
}

// The cycles on which a unit launches, given its operand windows.
CycleWindow launchWindow(const CompiledFu& fu, const CycleWindow& a,
                         const CycleWindow& b) {
  // An accumulator launches whenever its stream operand is valid.
  if (fu.is_accum) return fu.accum_stream_is_a ? a : b;
  // The engines gate launch on operand A's validity first; a unit with A
  // unwired never launches regardless of B.
  if (!fu.a.wired) return CycleWindow{};
  return fu.b.wired ? intersectWindows(a, b) : a;
}

// One sweep of every transfer function, in the engines' phase order.
void sweepWindows(const CompiledInstr& ci, WindowState& state) {
  for (const CompiledDma& rd : ci.reads) {
    CycleWindow w;
    if (rd.total > 0) w = CycleWindow{0, rd.total - 1, true, true};
    state.setSrc(rd.endpoint, w);
  }
  for (const CompiledSd& sd : ci.sds) {
    const CycleWindow base = state.dstAt(sd.in_dst);
    for (const CompiledSdTap& tap : sd.taps) {
      // tap.back = hist_len - 1 - (delay % hist_len); the tap observes the
      // routed input stream delayed by (delay % hist_len) cycles.
      const std::uint32_t delay = sd.hist_len - 1 - tap.back % sd.hist_len;
      state.setSrc(tap.src, shiftWindow(base, delay));
    }
  }
  for (const CompiledFu& fu : ci.fus) {
    const CycleWindow launch = launchWindow(
        fu, operandWindow(state, fu, fu.a), operandWindow(state, fu, fu.b));
    CycleWindow out;
    if (fu.is_accum) {
      // Emits exactly once: when the stream operand's tagged final element
      // flows through.  An endless or empty stream never emits.
      if (launch.any && !launch.unbounded() && launch.tagged) {
        const std::uint64_t at = launch.last + fu.pipe_len;
        out = CycleWindow{at, at, true, true};
      }
    } else {
      out = shiftWindow(launch, fu.pipe_len);
    }
    state.setSrc(fu.out_src, out);
  }
  for (const auto& [dst, src] : ci.routes) {
    state.setDst(dst, shiftWindow(state.srcAt(src), 1));  // registered hop
  }
}

}  // namespace

InstrWindows analyzeWindows(const arch::Machine& machine,
                            const CompiledInstr& ci) {
  InstrWindows out;
  out.src.resize(machine.sources().size());
  out.dst.resize(machine.destinations().size());
  WindowState state{out};
  const std::size_t cap = out.src.size() + out.dst.size() + 8;
  for (std::size_t iter = 0; iter < cap; ++iter) {
    state.changed = false;
    sweepWindows(ci, state);
    if (!state.changed) {
      out.converged = true;
      break;
    }
  }
  out.fu_a.reserve(ci.fus.size());
  out.fu_b.reserve(ci.fus.size());
  out.fu_launch.reserve(ci.fus.size());
  for (const CompiledFu& fu : ci.fus) {
    out.fu_a.push_back(operandWindow(state, fu, fu.a));
    out.fu_b.push_back(operandWindow(state, fu, fu.b));
    out.fu_launch.push_back(launchWindow(fu, out.fu_a.back(), out.fu_b.back()));
  }
  return out;
}

void ProgramVerifier::verifyInstr(const CompiledProgram& program,
                                  std::size_t index,
                                  const InstrWindows& windows,
                                  VerifyReport& report) const {
  const arch::MachineConfig& cfg = machine_.config();
  const CompiledInstr& ci = program.instrs[index];
  InstrVerify& verdict = report.instrs[index];
  const int instr = static_cast<int>(index);

  const auto diag = [&](VerifyCode code, check::Severity severity,
                        Endpoint endpoint, CycleWindow window,
                        std::string message) {
    if (severity == check::Severity::kError) verdict.clean = false;
    report.diagnostics.push_back(VerifyDiagnostic{
        code, severity, instr, endpoint, window, std::move(message)});
  };
  const auto srcEndpoint = [&](std::int32_t i) {
    return i >= 0 && static_cast<std::size_t>(i) < machine_.sources().size()
               ? machine_.sources()[static_cast<std::size_t>(i)]
               : Endpoint{};
  };
  const auto dstEndpoint = [&](std::int32_t i) {
    return i >= 0 &&
                   static_cast<std::size_t>(i) < machine_.destinations().size()
               ? machine_.destinations()[static_cast<std::size_t>(i)]
               : Endpoint{};
  };

  // Compile-time faults recorded during lowering (DMA bounds) surface
  // before the instruction issues; nothing downstream of them runs.
  if (ci.fault.kind != FaultKind::kNone) {
    diag(VerifyCode::kDmaBounds, check::Severity::kError, ci.fault.endpoint,
         CycleWindow{}, ci.fault.message);
    return;
  }

  // Ring-capacity over-subscription: lowered queue and tap depths beyond
  // the hardware rings.  The simulator sizes its arenas from the program,
  // so these still execute deterministically — but no NSC node could run
  // them, which makes this an error (hardware-infeasible), not a warning.
  for (const CompiledFu& fu : ci.fus) {
    if (fu.rfq_len > static_cast<std::uint32_t>(cfg.rf_max_delay)) {
      diag(VerifyCode::kRingOverSubscribed, check::Severity::kError,
           Endpoint::fuInput(fu.fu, 0), CycleWindow{},
           strFormat("fu%d delay queue depth %u exceeds the register-file "
                     "ring (rf_max_delay = %d)",
                     fu.fu, fu.rfq_len, cfg.rf_max_delay));
    }
  }
  if (index < program.plans.size()) {
    const InstrPlan& plan = program.plans[index];
    for (std::size_t s = 0; s < plan.sd.size(); ++s) {
      if (!plan.sd[s].enabled) continue;
      for (std::size_t t = 0; t < plan.sd[s].taps.size(); ++t) {
        const int tap = plan.sd[s].taps[t];
        if (tap > cfg.sd_max_delay) {
          diag(VerifyCode::kRingOverSubscribed, check::Severity::kError,
               Endpoint::sdOutput(static_cast<int>(s), static_cast<int>(t)),
               CycleWindow{},
               strFormat("sd%zu tap %zu delay %d exceeds the history ring "
                         "(sd_max_delay = %d)",
                         s, t, tap, cfg.sd_max_delay));
        }
      }
    }
  }

  // DMA clipping (warnings): touched ranges the backing stores silently
  // absorb — reads return 0.0, writes are dropped.  Plane stores grow to
  // the positive high corner (or the instruction faults, handled above),
  // so only negative addresses clip there; caches are fixed-size.
  for (const std::vector<CompiledDma>* engines : {&ci.reads, &ci.writes}) {
    for (const CompiledDma& dma : *engines) {
      if (dma.total == 0) continue;
      const std::int64_t row =
          dma.stride * static_cast<std::int64_t>(dma.count - 1);
      const std::int64_t col =
          dma.stride2 * static_cast<std::int64_t>(dma.count2 - 1);
      const auto base = static_cast<std::int64_t>(dma.base);
      std::int64_t lo = base, hi = base;
      for (const std::int64_t corner : {base + row, base + col,
                                        base + row + col}) {
        lo = std::min(lo, corner);
        hi = std::max(hi, corner);
      }
      const bool is_read = engines == &ci.reads;
      const Endpoint at =
          is_read ? srcEndpoint(dma.endpoint) : dstEndpoint(dma.endpoint);
      if (lo < 0) {
        diag(VerifyCode::kDmaClipped, check::Severity::kWarning, at,
             CycleWindow{0, dma.total - 1, true, true},
             strFormat("%s DMA walks to negative word %lld; %s",
                       at.toString().c_str(), static_cast<long long>(lo),
                       is_read ? "reads return 0.0" : "writes are dropped"));
      }
      if (dma.is_cache &&
          static_cast<std::uint64_t>(hi) >= cfg.cacheWords()) {
        diag(VerifyCode::kDmaClipped, check::Severity::kWarning, at,
             CycleWindow{0, dma.total - 1, true, true},
             strFormat("%s DMA touches word %lld beyond the %llu-word cache "
                       "buffer; %s",
                       at.toString().c_str(), static_cast<long long>(hi),
                       static_cast<unsigned long long>(cfg.cacheWords()),
                       is_read ? "reads return 0.0" : "writes are dropped"));
      }
    }
  }

  // Switch-network shape warnings.
  std::map<std::int32_t, int> fanout;
  std::vector<char> routed(machine_.destinations().size(), 0);
  for (const auto& [dst, src] : ci.routes) {
    ++fanout[src];
    if (dst >= 0 && static_cast<std::size_t>(dst) < routed.size()) {
      routed[static_cast<std::size_t>(dst)] = 1;
    }
  }
  for (const auto& [src, count] : fanout) {
    if (count > cfg.max_switch_fanout) {
      diag(VerifyCode::kFanoutOverSubscribed, check::Severity::kWarning,
           srcEndpoint(src), CycleWindow{},
           strFormat("%s fans out to %d destinations (max_switch_fanout = %d)",
                     srcEndpoint(src).toString().c_str(), count,
                     cfg.max_switch_fanout));
    }
  }
  const auto isRouted = [&](std::int32_t d) {
    return d >= 0 && static_cast<std::size_t>(d) < routed.size() &&
           routed[static_cast<std::size_t>(d)] != 0;
  };
  std::vector<char> consumed(machine_.destinations().size(), 0);
  const auto consume = [&](std::int32_t d) {
    if (d >= 0 && static_cast<std::size_t>(d) < consumed.size()) {
      consumed[static_cast<std::size_t>(d)] = 1;
    }
  };
  for (const CompiledFu& fu : ci.fus) {
    for (const CompiledOperand* op : {&fu.a, &fu.b}) {
      if (op->kind != OperandKind::kSwitch) continue;
      consume(op->index);
      if (op->wired && !isRouted(op->index)) {
        diag(VerifyCode::kUnroutedInput, check::Severity::kWarning,
             dstEndpoint(op->index), CycleWindow{},
             strFormat("%s is wired but no switch route drives it",
                       dstEndpoint(op->index).toString().c_str()));
      }
    }
  }
  for (const CompiledSd& sd : ci.sds) {
    consume(sd.in_dst);
    if (!isRouted(sd.in_dst)) {
      diag(VerifyCode::kUnroutedInput, check::Severity::kWarning,
           dstEndpoint(sd.in_dst), CycleWindow{},
           strFormat("%s is enabled but no switch route drives it",
                     dstEndpoint(sd.in_dst).toString().c_str()));
    }
  }
  for (const CompiledDma& wr : ci.writes) consume(wr.endpoint);
  for (const auto& [dst, src] : ci.routes) {
    if (!consumed[static_cast<std::size_t>(dst)]) {
      diag(VerifyCode::kUnconsumedRoute, check::Severity::kWarning,
           dstEndpoint(dst), CycleWindow{},
           strFormat("route %s -> %s delivers tokens nothing consumes",
                     srcEndpoint(src).toString().c_str(),
                     dstEndpoint(dst).toString().c_str()));
    }
  }

  // Exact valid-window fixpoint over the instruction's dataflow graph.
  if (!windows.converged) return;  // cannot happen (strict combinators)

  // Starvation / underfeed proofs against the completion rules: a write
  // instruction completes only when every engine captured its programmed
  // element count, and an armed condition latch must observe a tagged
  // stream end.  Windows are exact, so a shortfall here is a proven
  // never-completes — the engines will burn the full cycle budget and
  // report a timeout.
  for (const CompiledDma& wr : ci.writes) {
    if (wr.total == 0) continue;
    const CycleWindow w = windowAt(windows.dst, wr.endpoint);
    if (!w.any) {
      diag(VerifyCode::kStarvedWrite, check::Severity::kError,
           dstEndpoint(wr.endpoint), w,
           strFormat("%s expects %llu elements but no valid token ever "
                     "arrives; the instruction can never complete",
                     dstEndpoint(wr.endpoint).toString().c_str(),
                     static_cast<unsigned long long>(wr.total)));
    } else if (!w.unbounded() && w.length() < wr.total) {
      diag(VerifyCode::kUnderfedWrite, check::Severity::kError,
           dstEndpoint(wr.endpoint), w,
           strFormat("%s expects %llu elements but only %llu arrive (%s); "
                     "the instruction can never complete",
                     dstEndpoint(wr.endpoint).toString().c_str(),
                     static_cast<unsigned long long>(wr.total),
                     static_cast<unsigned long long>(w.length()),
                     windowText(w).c_str()));
    }
  }
  if (ci.cond_enable && (!ci.reads.empty() || !ci.writes.empty())) {
    const CycleWindow w = windowAt(windows.src, ci.cond_src);
    const bool fires = w.any && !w.unbounded() && w.tagged;
    if (!fires) {
      diag(VerifyCode::kStarvedCond, check::Severity::kError,
           srcEndpoint(ci.cond_src), w,
           strFormat("condition latch watches %s but the stream %s; the "
                     "instruction can never complete",
                     srcEndpoint(ci.cond_src).toString().c_str(),
                     !w.any ? "never carries a valid token"
                            : "never signals its end"));
    }
  }

}

VerifyReport ProgramVerifier::verify(const CompiledProgram& program) const {
  std::vector<InstrWindows> windows;
  windows.reserve(program.instrs.size());
  for (const CompiledInstr& ci : program.instrs) {
    windows.push_back(analyzeWindows(machine_, ci));
  }
  return verify(program, windows);
}

VerifyReport ProgramVerifier::verify(
    const CompiledProgram& program,
    const std::vector<InstrWindows>& windows) const {
  VerifyReport report;
  report.instrs.resize(program.instrs.size());
  for (std::size_t i = 0; i < program.instrs.size(); ++i) {
    verifyInstr(program, i, windows[i], report);
  }
  return report;
}

// ---------------------------------------------------------------------------
// Hypercube exchange-table analysis.
// ---------------------------------------------------------------------------

std::vector<VerifyDiagnostic> verifyExchangePlan(
    int dimension, const std::vector<ExchangeMessage>& messages) {
  std::vector<VerifyDiagnostic> out;
  const int nodes = 1 << dimension;
  // Directed link (a -> b) claimed by each message's e-cube path.
  std::map<std::pair<int, int>, std::vector<std::size_t>> links;
  for (std::size_t m = 0; m < messages.size(); ++m) {
    const ExchangeMessage& msg = messages[m];
    if (msg.src < 0 || msg.src >= nodes || msg.dst < 0 || msg.dst >= nodes) {
      VerifyDiagnostic d;
      d.code = VerifyCode::kExchangeContention;
      d.severity = check::Severity::kError;
      d.message = strFormat(
          "message %zu routes %d -> %d outside the %d-node hypercube", m,
          msg.src, msg.dst, nodes);
      out.push_back(std::move(d));
      continue;
    }
    const std::vector<int> path = HypercubeSystem::ecubePath(msg.src, msg.dst);
    for (std::size_t h = 0; h + 1 < path.size(); ++h) {
      links[{path[h], path[h + 1]}].push_back(m);
    }
  }
  for (const auto& [link, users] : links) {
    if (users.size() < 2) continue;
    std::string who;
    for (std::size_t u : users) {
      if (!who.empty()) who += ", ";
      who += strFormat("%d->%d", messages[u].src, messages[u].dst);
    }
    VerifyDiagnostic d;
    d.code = VerifyCode::kExchangeContention;
    d.severity = check::Severity::kWarning;
    d.message = strFormat(
        "link %d -> %d is claimed by %zu concurrent messages (%s); the "
        "router cost model charges them as if the link were private",
        link.first, link.second, users.size(), who.c_str());
    out.push_back(std::move(d));
  }
  return out;
}

std::vector<VerifyDiagnostic> verifyExchangeSchedule(
    int dimension, const std::vector<std::vector<ExchangeMessage>>& phases) {
  std::vector<VerifyDiagnostic> out;
  const int nodes = 1 << dimension;
  // received[n]: node n was the destination of some message in an already
  // verified (strictly earlier) phase.
  std::vector<std::uint8_t> received(static_cast<std::size_t>(nodes), 0);
  for (std::size_t p = 0; p < phases.size(); ++p) {
    // Per-phase routing analysis first; tag every finding with its phase so
    // a schedule-wide report reads like a per-instruction program report.
    std::vector<VerifyDiagnostic> phase_diags =
        verifyExchangePlan(dimension, phases[p]);
    for (VerifyDiagnostic& d : phase_diags) {
      d.instruction = static_cast<int>(p);
      out.push_back(std::move(d));
    }
    // Forward messages relay data delivered by an earlier phase; a forward
    // out of a node nothing has written to yet ships stale or zero halo
    // words at runtime, so the dependency failure is an error.
    for (std::size_t m = 0; m < phases[p].size(); ++m) {
      const ExchangeMessage& msg = phases[p][m];
      if (!msg.forward) continue;
      if (msg.src < 0 || msg.src >= nodes) continue;  // reported above
      if (received[static_cast<std::size_t>(msg.src)]) continue;
      VerifyDiagnostic d;
      d.code = VerifyCode::kExchangeDangling;
      d.severity = check::Severity::kError;
      d.instruction = static_cast<int>(p);
      d.message = strFormat(
          "phase %zu message %zu forwards %d -> %d, but no earlier phase "
          "delivered anything to node %d",
          p, m, msg.src, msg.dst, msg.src);
      out.push_back(std::move(d));
    }
    // This phase's deliveries become available to later phases only after
    // the phase barrier, so mark destinations once the whole phase is
    // checked.
    for (const ExchangeMessage& msg : phases[p]) {
      if (msg.dst < 0 || msg.dst >= nodes) continue;
      received[static_cast<std::size_t>(msg.dst)] = 1;
    }
  }
  return out;
}

}  // namespace nsc::sim
