// Semantic data structures for NSC programs.
//
// "Two types of internal data are distinguished.  One type consists of
// information which is needed solely to manage the graphical display ...
// The other type consists of semantic information which is needed in order
// to generate microcode."  (paper, Section 4.)  This module is the second
// kind: everything the microcode generator needs, nothing the display
// needs.  The editor layers graphical state on top (src/editor), and the
// prototype's output — "the semantic data structures ... a pseudo-code
// representation of the instructions" — is exactly a serialized Program.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "arch/machine.h"
#include "arch/microword_spec.h"
#include "arch/ops.h"
#include "arch/types.h"
#include "common/json.h"
#include "common/status.h"

namespace nsc::prog {

// Configuration of one functional unit inside an ALS use.
struct FuUse {
  bool enabled = false;
  arch::OpCode op = arch::OpCode::kNop;
  arch::InputSelect in_a = arch::InputSelect::kNone;
  arch::InputSelect in_b = arch::InputSelect::kNone;
  arch::RfMode rf_mode = arch::RfMode::kOff;
  int rf_delay = 0;          // circular-queue depth when rf_mode == kDelay
  double rf_constant = 0.0;  // preloaded constant (register-file value) when
                             // an input selects kRegisterFile, or the seed
                             // when rf_mode == kAccum
  // Which input the register-file delay queue feeds (0 = A, 1 = B) when
  // rf_mode == kDelay.  The generator fills this in automatically during
  // delay balancing; diagrams may also pin it by hand.
  int rf_delay_port = 0;

  bool operator==(const FuUse&) const = default;
};

// One ALS placed in a pipeline diagram.
struct AlsUse {
  arch::AlsId als = 0;
  std::vector<FuUse> fu;  // sized to the ALS kind's FU count
  // Doublets can be configured to operate as singlets by bypassing one
  // functional unit (paper, Section 5 / Figure 4); bypassed slots must
  // stay disabled.
  bool bypass = false;

  bool operator==(const AlsUse&) const = default;
};

// A switch-routed (or internal chain) stream between two endpoints.
struct Connection {
  arch::Endpoint from;
  arch::Endpoint to;

  auto operator<=>(const Connection&) const = default;
  std::string toString() const {
    return from.toString() + " -> " + to.toString();
  }
};

// DMA programming for a plane or cache endpoint — the contents of the
// paper's Figure 9 popup subwindow (plane number, variable name or starting
// address, stride, etc.).
//
// Plane DMA engines support two-level (rectangular) transfers: `count`
// elements `stride` apart, repeated `count2` times with the row origin
// advancing by `stride2` — the access pattern CFD boundary faces need.
// The paper only says independent DMA controllers "pump data through the
// pipelines"; two-level addressing is the standard capability for such
// engines and is a modelling choice of this reproduction.
struct DmaSpec {
  std::string variable;      // symbolic annotation, optional
  std::uint64_t base = 0;    // word offset within the plane/cache buffer
  std::int64_t stride = 1;   // words between consecutive elements
  std::uint64_t count = 0;   // elements per row
  std::uint64_t count2 = 1;  // rows (planes only; 1 = simple vector)
  std::int64_t stride2 = 0;  // words between row origins
  int read_buffer = 0;       // caches: which half of the double buffer
  bool swap_buffers = false; // caches: swap halves when instruction ends

  std::uint64_t totalElements() const { return count * count2; }

  bool operator==(const DmaSpec&) const = default;
};

// Shift/delay unit use: one input stream fanned out to `tap_delays.size()`
// shifted copies (used to reformat one memory stream into the u[k-1], u[k],
// u[k+1] taps of a stencil).
struct ShiftDelayUse {
  arch::SdId sd = 0;
  std::vector<int> tap_delays;  // delay in cycles for each tap, tap 0 first

  bool operator==(const ShiftDelayUse&) const = default;
};

// Condition latch: when the pipeline drains, the last value produced by
// `src_fu` (interpreted as a boolean, >0.5) is stored into condition
// register `cond_reg` for the sequencer.  Implements "an elaborate
// interrupt scheme is used to ... evaluate conditional expressions".
struct CondLatch {
  arch::FuId src_fu = 0;
  int cond_reg = 0;

  bool operator==(const CondLatch&) const = default;
};

// Sequencer control attached to the instruction.
struct SeqControl {
  arch::SeqOp op = arch::SeqOp::kNext;
  int target = 0;    // instruction index for jumps/branches/loops
  int cond_reg = 0;  // condition register tested by kBranchIf/kBranchNot
  int count = 0;     // iteration count for kLoop

  bool operator==(const SeqControl&) const = default;
};

// One pipeline diagram == one NSC instruction == "one line of code, in a
// more conventional language" (paper, Section 5).
class PipelineDiagram {
 public:
  std::string name;
  std::string comment;

  std::vector<AlsUse> als_uses;
  std::vector<Connection> connections;
  std::map<arch::Endpoint, DmaSpec> dma;  // keyed by plane/cache endpoint
  std::vector<ShiftDelayUse> sd_uses;
  std::optional<CondLatch> cond;
  SeqControl seq;

  // ---- Builder conveniences (used by the editor commands, the CFD
  // program builders, and tests). ----

  // Places ALS `als` in the diagram (no-op if already present) and returns
  // its use record.
  AlsUse& useAls(const arch::Machine& machine, arch::AlsId als);
  AlsUse* findAls(arch::AlsId als);
  const AlsUse* findAls(arch::AlsId als) const;

  // FU-level access; the FU's ALS must already be placed.
  FuUse* findFu(const arch::Machine& machine, arch::FuId fu);
  const FuUse* findFu(const arch::Machine& machine, arch::FuId fu) const;
  FuUse& fuUse(const arch::Machine& machine, arch::FuId fu);

  // Assigns an operation to a functional unit (enables it).
  void setFuOp(const arch::Machine& machine, arch::FuId fu, arch::OpCode op);

  // Adds a connection and, when the destination is an FU input, marks that
  // input as switch- or chain-fed.
  void connect(const arch::Machine& machine, const arch::Endpoint& from,
               const arch::Endpoint& to);

  // Marks an FU input as fed by a register-file constant.
  void setConstInput(const arch::Machine& machine, arch::FuId fu, int port,
                     double value);
  // Marks input `port` as the FU's own accumulated output (reduction loop)
  // seeded with `seed`.
  void setAccumInput(const arch::Machine& machine, arch::FuId fu, int port,
                     double seed);

  DmaSpec& dmaAt(const arch::Endpoint& endpoint) {
    bumpRevision();  // the caller writes through the returned reference
    return dma[endpoint];
  }

  ShiftDelayUse& useSd(arch::SdId sd, std::vector<int> tap_delays);

  // Incoming/outgoing connections of an endpoint.
  std::vector<Connection> connectionsFrom(const arch::Endpoint& from) const;
  std::optional<Connection> connectionTo(const arch::Endpoint& to) const;

  // ---- Edit revision ----
  // Monotonic counter bumped by every mutating builder call above.  Checker
  // caches (the editor's memoized checker sessions) key on it to reuse
  // legalTargets/checkConnection results between mutations.  Code that
  // mutates the public fields directly must call bumpRevision() itself.
  // Not part of semantic equality and not serialized.
  std::uint64_t revision() const { return revision_; }
  void bumpRevision() { ++revision_; }

  // Semantic equality; ignores revision().
  bool operator==(const PipelineDiagram& other) const;

  common::Json toJson() const;
  static common::Result<PipelineDiagram> fromJson(const common::Json& json);

 private:
  std::uint64_t revision_ = 0;
};

// Endpoint (de)serialization shared with the editor's diagram files.
common::Json endpointToJson(const arch::Endpoint& e);
common::Result<arch::Endpoint> endpointFromJson(const common::Json& json);

}  // namespace nsc::prog
