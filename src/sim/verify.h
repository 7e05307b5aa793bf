// Static program verification over lowered CompiledPrograms.
//
// The paper's workbench promises a pipeline is *checked before it runs*,
// but until this pass the guarantee stopped at the diagram level: once
// microcode was lowered, the only analysis was a bare DMA-range string.
// The ProgramVerifier closes that gap with an exact dataflow analysis run once
// per compile (CompiledProgram::compile embeds the report, so the shared
// program cache pointer-shares one report across every shard, node, and
// replica that runs the image):
//
//   * every stream endpoint's validity is a *contiguous cycle window*
//     (DMA reads emit cycles [0, total); the registered switch adds one
//     cycle; delay queues and shift/delay taps add their depth; an FU
//     launches on the intersection of its wired stream windows), so the
//     analysis (analyzeWindows, below) computes, per switch endpoint,
//     exactly which cycles carry valid tokens and where the stream-`last`
//     tag lands.  The same windows feed the value-program builder
//     (sim/value_program.h), which turns them into the cycle window of
//     every load, evaluation and store;
//   * DMA bounds are proven against the instantiated plane configuration
//     (the stringly ci.dma_error became the typed CompiledInstr::fault);
//   * write engines whose windows provably under-deliver, and condition
//     latches armed on streams that never end, are reported as errors —
//     each error *proves* the runtime fault kind (FaultKind) the
//     interpreter would hit, which test_property.cpp enforces.
//
// The service layer (WorkbenchService) gates admission on the report:
// programs with error-severity diagnostics are refused with
// Reject::kInvalidProgram and never reach a node.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "arch/machine.h"
#include "checker/diagnostics.h"
#include "sim/compiled.h"
#include "sim/stats.h"

namespace nsc::sim {

// What the verifier can say about one lowered instruction.
enum class VerifyCode : std::uint8_t {
  // Errors that prove a runtime fault (matching InstrStats::fault):
  kDmaBounds = 0,   // plane DMA walks past sim_plane_words -> kDmaBounds
  kStarvedWrite,    // write endpoint never sees a valid token -> kTimeout
  kUnderfedWrite,   // window shorter than the programmed count -> kTimeout
  kStarvedCond,     // latch armed on a stream that never ends -> kTimeout
  // Errors that prove hardware infeasibility (the simulator still runs the
  // program deterministically, but no NSC node could):
  kRingOverSubscribed,  // rf delay queue / sd tap beyond the hardware ring
  // Warnings (observable oddities that do not fault):
  kDmaClipped,           // touches outside the backing store: reads 0, drops
  kFanoutOverSubscribed, // one source fanned wider than max_switch_fanout
  kUnroutedInput,        // wired switch input with no route driving it
  kUnconsumedRoute,      // routed destination no consumer reads
  kExchangeContention,   // hypercube link shared by concurrent messages
  kExchangeDangling,     // forwards data no earlier phase delivered
};

const char* verifyCodeName(VerifyCode code);

// The FaultKind a fault-proving error predicts (kNone for infeasibility
// errors and warnings).
FaultKind predictedFault(VerifyCode code);

// A contiguous range of cycles in which a stream endpoint carries valid
// tokens.  Exactness rests on the machine's streams being contiguous by
// construction: DMA reads never pause, constants never lapse, and every
// combinator (switch hop, delay queue, FU launch, accumulator emit)
// preserves contiguity.
struct CycleWindow {
  static constexpr std::uint64_t kForever = ~std::uint64_t{0};
  std::uint64_t first = 0;
  std::uint64_t last = 0;   // inclusive; kForever = the stream never stops
  bool any = false;         // false: no cycle ever carries a valid token
  bool tagged = false;      // the final element carries the stream-end tag

  bool unbounded() const { return any && last == kForever; }
  std::uint64_t length() const {
    return !any ? 0 : unbounded() ? kForever : last - first + 1;
  }
  bool operator==(const CycleWindow&) const = default;
};

// The exact valid-window analysis of one lowered instruction: a least
// fixpoint of the transfer functions in the engines' phase order (see
// verify.cpp).  The verifier proves starvation and underfeed from it; the
// value-program builder derives every operation's active cycles from it.
struct InstrWindows {
  std::vector<CycleWindow> src;  // index-parallel with machine.sources()
  std::vector<CycleWindow> dst;  // index-parallel with machine.destinations()
  // Per CompiledInstr::fus entry: operand windows as the unit samples them
  // (after the delay queue), and the cycles on which the unit launches (an
  // accumulator: its stream operand's window).
  std::vector<CycleWindow> fu_a, fu_b, fu_launch;
  bool converged = false;  // always true for a well-formed instruction
};

InstrWindows analyzeWindows(const arch::Machine& machine,
                            const CompiledInstr& ci);

struct VerifyDiagnostic {
  VerifyCode code = VerifyCode::kDmaBounds;
  check::Severity severity = check::Severity::kError;
  int instruction = -1;          // program slot, -1 = program-wide
  arch::Endpoint endpoint{};     // offending endpoint when applicable
  CycleWindow window{};          // offending cycle window when known
  std::string message;

  std::string format() const;
};

// Per-instruction verdict, index-parallel with CompiledProgram::instrs.
struct InstrVerify {
  bool clean = true;  // no error-severity diagnostics on this instruction
};

struct VerifyReport {
  std::vector<VerifyDiagnostic> diagnostics;
  std::vector<InstrVerify> instrs;

  bool clean() const { return errorCount() == 0; }
  std::size_t errorCount() const;
  std::size_t warningCount() const;
  // First error-severity message ("" when clean) — what an admission
  // rejection quotes.
  std::string firstError() const;

  // Bridge into the editor's diagnostic stream: each code maps onto the
  // closest checker rule, so verifier findings render in the same message
  // strip (and DiagnosticList plumbing) as edit-time rules.
  check::DiagnosticList toDiagnostics() const;
  std::string format() const;
};

// The static-analysis pass.  Stateless apart from the machine reference;
// verify() is safe to call from any thread.
class ProgramVerifier {
 public:
  explicit ProgramVerifier(const arch::Machine& machine)
      : machine_(machine) {}

  // Verifies every instruction of `program` (plans and lowered instrs are
  // index-parallel).  Does not mutate the program; CompiledProgram::compile
  // runs this and stores the report on the program.
  VerifyReport verify(const CompiledProgram& program) const;
  // The same, over windows already computed by analyzeWindows (one per
  // instruction, index-parallel), so a compile runs the analysis once.
  VerifyReport verify(const CompiledProgram& program,
                      const std::vector<InstrWindows>& windows) const;

 private:
  void verifyInstr(const CompiledProgram& program, std::size_t index,
                   const InstrWindows& windows, VerifyReport& report) const;

  const arch::Machine& machine_;
};

// ---------------------------------------------------------------------------
// Hypercube exchange-table analysis.
// ---------------------------------------------------------------------------

// One planned message of an exchange phase (node ids in [0, 2^dimension)).
struct ExchangeMessage {
  int src = 0;
  int dst = 0;
  std::uint64_t words = 0;
  // The payload is halo data the source received from a *previous* exchange
  // phase (multi-hop staging: e.g. a corner value relayed edge-by-edge).
  // Schedule verification proves such a delivery actually happened.
  bool forward = false;
};

// Statically routes every message along its e-cube path and reports each
// directed link claimed by more than one message (kExchangeContention
// warnings: the cost model charges such messages as if the links were
// private, so contention means the modelled makespan is optimistic).
std::vector<VerifyDiagnostic> verifyExchangePlan(
    int dimension, const std::vector<ExchangeMessage>& messages);

// Cross-phase schedule verification for chained exchanges: runs
// verifyExchangePlan on every phase (diagnostics carry the phase index in
// `instruction`), then checks forwarding dependencies across phases — a
// message marked `forward` whose source node was never the destination of
// any earlier phase's message relays data nothing delivered, reported as a
// kExchangeDangling error (the runtime would silently ship stale or zero
// halo words, the distributed analogue of a dangling route).
std::vector<VerifyDiagnostic> verifyExchangeSchedule(
    int dimension, const std::vector<std::vector<ExchangeMessage>>& phases);

}  // namespace nsc::sim
